"""Advisory single-writer locks for on-disk run state.

Two sweep runners (or a runner and the serve daemon) pointed at the same
output path would interleave journal records — each one individually
well-formed, collectively garbage.  The failure is silent: both runs
"succeed" and the resulting journal resumes into a chimera.  The guard
here makes that failure loud and immediate instead: the second writer
gets a typed :class:`LockHeldError` naming who holds the lock, and
nothing has been written.

The lock is ``flock(2)`` on a sidecar file, which gives the two
properties a crash-safe system needs:

* **Released by death.**  A SIGKILL'd holder releases the lock the
  instant its file descriptors close; no stale-pidfile heuristics, no
  manual cleanup step before a restart can proceed.
* **Advisory.**  Readers (``--resume``, status probes) never touch it.

The lock file itself is never unlinked: removing it would let a third
process create a *new* inode and lock that while a second process still
holds ``flock`` on the old one — two "exclusive" holders.  A leftover
``.lock`` file is inert and a few bytes.
"""

from __future__ import annotations

import errno
import json
import os
import socket
from typing import Optional

__all__ = ["LockHeldError", "SingleWriterLock"]

try:  # pragma: no cover — always available on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover — non-POSIX fallback: no locking
    fcntl = None  # type: ignore[assignment]


class LockHeldError(RuntimeError):
    """Another live process holds the single-writer lock."""

    def __init__(self, path: str, holder: Optional[dict] = None):
        self.path = path
        self.holder = holder or {}
        who = ""
        if self.holder.get("pid"):
            who = (f" (held by pid {self.holder['pid']}"
                   f" on {self.holder.get('host', '?')})")
        super().__init__(
            f"{path} is locked by another writer{who}; two concurrent "
            "writers on the same output would interleave records")


class SingleWriterLock:
    """``flock``-based mutual exclusion on ``path`` (non-blocking).

    Usable as a context manager; :meth:`acquire` is idempotent while
    held and raises :class:`LockHeldError` if any other process (or any
    other open descriptor) holds the lock.
    """

    def __init__(self, path: str):
        self.path = path
        self._fd: Optional[int] = None

    def acquire(self) -> "SingleWriterLock":
        if self._fd is not None:
            return self
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError as exc:
                    if exc.errno in (errno.EACCES, errno.EAGAIN):
                        raise LockHeldError(
                            self.path, self._read_holder(fd)) from None
                    raise
            # Best-effort breadcrumb for the error message the *next*
            # contender sees; correctness never depends on it.
            os.ftruncate(fd, 0)
            os.write(fd, json.dumps(
                {"pid": os.getpid(), "host": socket.gethostname()},
                separators=(",", ":")).encode())
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd
        return self

    @staticmethod
    def _read_holder(fd: int) -> Optional[dict]:
        try:
            os.lseek(fd, 0, os.SEEK_SET)
            blob = os.read(fd, 4096)
            rec = json.loads(blob.decode() or "{}")
            return rec if isinstance(rec, dict) else None
        except (OSError, ValueError):
            return None

    def release(self) -> None:
        """Drop the lock (idempotent).  Closing the fd releases the
        ``flock``; the sidecar file stays behind on purpose (see the
        module docstring)."""
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def __enter__(self) -> "SingleWriterLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()
