"""Graceful drain: SIGINT/SIGTERM finish in-flight cells, keep the
journal whole, and leave a resumable run behind (exit 130)."""

import json
import os
import signal
import subprocess
import sys
import time

from repro.runx import Journal, SweepRunner, load_resume
from repro.runx.spec import CellSpec

SYN = [
    CellSpec(id=f"syn {i}", fn="synthetic",
             params={"value": float(i), "reps": 2}, base_seed=100 + i)
    for i in range(6)
]


def _env():
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    from repro.runx.chaos import PLAN_ENV

    env.pop(PLAN_ENV, None)
    return env


def test_drain_mid_sweep_returns_partial_results(tmp_path):
    man = str(tmp_path / "run.json")
    journal = Journal(man)
    journal.write_header({"command": "t"})
    runner = SweepRunner(isolation="inline", journal=journal)
    fired = []

    def drain_after_two(msg):
        fired.append(msg)
        if len(fired) == 2:
            runner.request_drain()

    runner.progress = drain_after_two
    results = runner.run(SYN)
    journal.close()
    assert runner.draining
    assert len(results) == 2
    # every returned cell is journaled; no torn or half-run cells
    _, cells = load_resume(man)
    assert set(cells) == set(results)


def _nas(i, nodes, rpn, reps=1):
    return CellSpec(id=f"nas {i}", fn="nas",
                    params={"bench": "EP", "cls": "A", "nodes": nodes,
                            "rpn": rpn, "smm": 0, "reps": reps},
                    base_seed=1 + i)


#: Mixed-cost cells in spec order; launch order is largest-first.
MIXED = [_nas(0, 1, 1), _nas(1, 2, 1), _nas(2, 1, 4, reps=2),
         _nas(3, 1, 2), _nas(4, 2, 4), _nas(5, 4, 4)]


def test_drained_run_resumes_to_completion(tmp_path):
    man = str(tmp_path / "run.json")
    journal = Journal(man)
    journal.write_header({"command": "t"})
    runner = SweepRunner(isolation="inline", journal=journal)
    runner.progress = lambda msg: runner.request_drain()
    partial = runner.run(MIXED)
    journal.close()
    # the drain lets exactly the first launched (largest) cell finish
    assert list(partial) == ["nas 5"]

    _, completed = load_resume(man)
    launched = []
    resumed_runner = SweepRunner(isolation="inline")
    resumed_runner.progress = launched.append
    resumed = resumed_runner.run(MIXED, completed=completed)
    # the resumed cell reports first; only the remaining cells are
    # ordered, largest-first with ties in spec order
    assert [m.split("] ", 1)[1] for m in launched] == [
        "nas 5 (resumed)", "nas 2", "nas 4", "nas 1", "nas 3", "nas 0"]
    assert set(resumed) == {s.id for s in MIXED}
    clean = SweepRunner(isolation="inline").run(MIXED)
    assert {k: v.value for k, v in resumed.items()} \
        == {k: v.value for k, v in clean.items()}


def test_drain_before_start_runs_nothing(tmp_path):
    runner = SweepRunner(isolation="inline")
    runner.request_drain()
    assert runner.run(SYN) == {}


def test_sigint_drains_cli_sweep_with_resume_hint(tmp_path):
    """The satellite end-to-end: SIGINT a real sweep, get exit 130, an
    intact journal, a resume hint, and a resume that completes."""
    man = str(tmp_path / "sig.json")
    part = man + ".part.jsonl"
    sweep = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "table2", "--quick",
         "--jobs", "2", "--manifest", man],
        env=_env(), cwd=str(tmp_path),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if os.path.exists(part) and sum(1 for _ in open(part)) >= 3:
            break
        time.sleep(0.05)
        assert sweep.poll() is None, "sweep finished before the signal"
    sweep.send_signal(signal.SIGINT)
    _, err = sweep.communicate(timeout=120)
    assert sweep.returncode == 130, err
    assert "draining" in err
    assert f"--resume {man}" in err
    assert os.path.exists(part), "journal must survive the drain"
    assert not os.path.exists(man), "a drained run has no final manifest"
    header, cells = load_resume(man)
    assert header["command"] == "table2"
    assert cells, "the drain must have preserved completed cells"

    resumed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "table2", "--quick",
         "--resume", man],
        env=_env(), cwd=str(tmp_path), capture_output=True, text=True,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert os.path.exists(man) and not os.path.exists(part)


def _table2(man, *extra, **popen_kw):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "table2", "--quick",
         "--manifest", man, *extra],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, **popen_kw)


def test_process_group_sigint_drains_without_failing_cells(tmp_path):
    """A terminal Ctrl-C signals the whole process group, workers
    included.  Workers ignore it, so in-flight cells still finish and
    are journaled ok, the CLI exits 130, and the resumed table is
    byte-identical to an uninterrupted run."""
    man = str(tmp_path / "pg.json")
    part = man + ".part.jsonl"
    sweep = _table2(man, "--jobs", "2", "--reps", "3", cwd=str(tmp_path),
                    start_new_session=True)
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if os.path.exists(part) and sum(1 for _ in open(part)) >= 3:
            break
        time.sleep(0.05)
        assert sweep.poll() is None, "sweep finished before the signal"
    os.killpg(sweep.pid, signal.SIGINT)
    _, err = sweep.communicate(timeout=120)
    assert sweep.returncode == 130, err
    header, cells = load_resume(man)
    assert cells, "the drain must have preserved completed cells"
    with open(part) as fp:
        statuses = [json.loads(line).get("status") for line in fp]
    assert "failed" not in statuses, err

    resumed = _table2(man, "--resume", man, cwd=str(tmp_path))
    out, err = resumed.communicate(timeout=300)
    assert resumed.returncode == 0, err
    clean = _table2(str(tmp_path / "clean.json"), "--reps", "3",
                    cwd=str(tmp_path))
    ref, err = clean.communicate(timeout=300)
    assert clean.returncode == 0, err
    assert out == ref
