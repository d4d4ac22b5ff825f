"""The single-writer guard: concurrent journal writers fail fast."""

import multiprocessing
import os

import pytest

from repro.runx import CellResult, Journal, LockHeldError, SingleWriterLock
from repro.runx.spec import OK


def _res(cid):
    return CellResult(id=cid, status=OK, value={"values": [1.0]})


def test_second_lock_refused_with_holder_breadcrumb(tmp_path):
    path = str(tmp_path / "x.lock")
    first = SingleWriterLock(path).acquire()
    with pytest.raises(LockHeldError) as exc:
        SingleWriterLock(path).acquire()
    assert exc.value.path == path
    assert exc.value.holder.get("pid") == os.getpid()
    assert str(os.getpid()) in str(exc.value)
    first.release()


def test_release_frees_the_lock(tmp_path):
    path = str(tmp_path / "x.lock")
    lock = SingleWriterLock(path).acquire()
    with pytest.raises(LockHeldError):
        SingleWriterLock(path).acquire()
    lock.release()
    SingleWriterLock(path).acquire().release()  # now free


def test_acquire_is_idempotent_while_held(tmp_path):
    lock = SingleWriterLock(str(tmp_path / "x.lock"))
    assert lock.acquire() is lock.acquire()
    lock.release()


def test_context_manager(tmp_path):
    path = str(tmp_path / "x.lock")
    with SingleWriterLock(path):
        with pytest.raises(LockHeldError):
            SingleWriterLock(path).acquire()
    SingleWriterLock(path).acquire().release()


def test_lock_file_survives_release(tmp_path):
    """Unlinking the sidecar would reopen the classic flock race; the
    file must stay behind."""
    path = str(tmp_path / "x.lock")
    with SingleWriterLock(path):
        pass
    assert os.path.exists(path)


def _hold_and_report(path, q):
    try:
        SingleWriterLock(path).acquire()
        q.put("acquired")
    except LockHeldError:
        q.put("refused")


def test_lock_excludes_across_processes(tmp_path):
    path = str(tmp_path / "x.lock")
    lock = SingleWriterLock(path).acquire()
    ctx = multiprocessing.get_context("spawn")
    q = ctx.Queue()
    proc = ctx.Process(target=_hold_and_report, args=(path, q))
    proc.start()
    assert q.get(timeout=30) == "refused"
    proc.join(30)
    lock.release()


def test_two_journals_on_same_manifest_fail_fast(tmp_path):
    """The satellite, verbatim: two concurrent runners pointed at the
    same output die with a typed error instead of interleaving."""
    man = str(tmp_path / "run.json")
    j1 = Journal(man)
    j1.write_header({"command": "t"})
    j2 = Journal(man)
    with pytest.raises(LockHeldError):
        j2.write_header({"command": "t"})
    with pytest.raises(LockHeldError):
        j2.append(_res("a"))
    # the first writer is unaffected and still owns the journal
    j1.append(_res("a"))
    j1.close()


def test_journal_close_releases_for_the_next_writer(tmp_path):
    man = str(tmp_path / "run.json")
    j1 = Journal(man)
    j1.write_header({"command": "t"})
    j1.append(_res("a"))
    j1.close()
    j2 = Journal(man)  # a later resume run
    j2.append(_res("b"))
    j2.close()


def test_journal_finalize_releases_lock(tmp_path):
    man = str(tmp_path / "run.json")
    j1 = Journal(man)
    j1.write_header({"command": "t"})
    j1.finalize()
    j2 = Journal(man)
    j2.write_header({"command": "t"})
    j2.close()
