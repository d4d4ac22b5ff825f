"""Synchronous supervision of persistent :mod:`repro.runx.workproc` children.

A :class:`WorkerChild` is one long-lived worker subprocess plus two
reader threads (result lines on stdout, a bounded stderr tail).  The
sweep runner keeps one per runner thread, and each serve worker agent
— remote, or one of the daemon's ``--workers`` threads — one of its
own.  So there is one worker implementation, one protocol, one set of
chaos hooks and one copy of the failure handling, and cells are
byte-identical wherever they run.

The failure contract: :meth:`WorkerChild.wait_result` returns the result
record of the job in flight, or raises :class:`WorkerFailed` after
killing and reaping the child — it died (``worker killed by signal N``,
``worker exited with status N``, ``worker produced no result record``),
overran its watchdog (:class:`WorkerTimeout`), or went silent past the
heartbeat limit (:class:`WorkerFrozen`).  A failure costs exactly the
attempt in flight; the owner spawns a fresh child for the next one.  An in-band cell exception
or a ``failed_in_sim`` reply is a normal result: the child stays alive.
"""

from __future__ import annotations

import collections
import json
import os
import queue
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, Optional

__all__ = ["WorkerChild", "WorkerFailed", "WorkerFrozen", "WorkerTimeout",
           "worker_env"]

#: How long a freshly spawned worker gets to import and print ``ready``.
BOOT_TIMEOUT_S = 30.0

_STDERR_TAIL = 400  # chars of worker stderr preserved in error messages
_IDLE: Dict[str, Any] = {"kind": "idle"}  # _next() timed out, child alive


def worker_env() -> Dict[str, str]:
    """Child environment with the repro package importable."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + (os.pathsep + existing if existing else ""))
    return env


class WorkerFailed(Exception):
    """The child failed the attempt in flight and has been reaped."""


class WorkerTimeout(WorkerFailed):
    """The watchdog deadline passed; the child was killed."""


class WorkerFrozen(WorkerFailed):
    """No line within the silence limit; the child was killed."""


class WorkerChild:
    """One persistent worker subprocess with line-reader threads.

    The constructor blocks until the child has imported the cell
    executors and printed its ``ready`` line, so a job's watchdog bounds
    the cell alone, not interpreter start-up.
    """

    def __init__(self, env: Optional[Dict[str, str]] = None):
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.runx.workproc"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, bufsize=1,
                env=env if env is not None else worker_env())
        except OSError as exc:
            raise WorkerFailed(f"could not spawn worker: {exc}") from exc
        self._lines: "queue.Queue[Optional[Dict[str, Any]]]" = queue.Queue()
        self._tail: "collections.deque[str]" = collections.deque(maxlen=32)
        #: unparsable stdout lines the reader dropped (chaos ``corrupt``,
        #: stray prints); written by the stdout reader thread only.
        self.garbage = 0
        self._readers = [
            threading.Thread(target=self._read_stdout, daemon=True,
                             name=f"worker-{self.proc.pid}-out"),
            threading.Thread(target=self._read_stderr, daemon=True,
                             name=f"worker-{self.proc.pid}-err"),
        ]
        for reader in self._readers:
            reader.start()
        rec = self._next(BOOT_TIMEOUT_S)
        if rec is None or rec.get("kind") != "ready":
            err = self._reap(rec is None)
            self.close()
            raise WorkerFailed("worker never became ready: " + err)

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    # -- reader threads -------------------------------------------------------
    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            if isinstance(rec, dict):
                self._lines.put(rec)
            else:  # chaos corrupt / stray output: the reply is missing
                self.garbage += 1
        self._lines.put(None)  # EOF sentinel: the child is gone

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._tail.append(line)

    # -- protocol -------------------------------------------------------------
    def _next(self, timeout: Optional[float]) -> Optional[Dict[str, Any]]:
        """The child's next record; ``None`` on EOF, ``{"kind": "idle"}``
        if nothing arrived within ``timeout``."""
        try:
            return self._lines.get(timeout=timeout)
        except queue.Empty:
            return _IDLE

    def submit(self, job: Dict[str, Any]) -> None:
        try:
            self.proc.stdin.write(
                json.dumps(job, separators=(",", ":")) + "\n")
            self.proc.stdin.flush()
        except (OSError, ValueError) as exc:  # broken pipe / closed stdin
            raise WorkerFailed(
                f"worker died before accepting the job: {self._reap(False)}"
            ) from exc

    def wait_result(
        self,
        job_id: str,
        timeout_s: Optional[float] = None,
        silence_s: Optional[float] = None,
        tick_s: float = 1.0,
        on_tick: Optional[Callable[[], None]] = None,
    ) -> Dict[str, Any]:
        """Read until the result record for ``job_id``.

        ``timeout_s`` is the watchdog, counted from this call;
        ``silence_s`` bounds the gap between any two lines (a running
        job heartbeats, a frozen interpreter cannot).  ``on_tick`` runs
        every ``tick_s`` while waiting — always *after* a result that is
        already in — and whatever it raises propagates with the child
        left as it is.  Raises :class:`WorkerFailed` with the child
        killed and reaped.
        """
        now = time.monotonic()
        deadline = now + timeout_s if timeout_s is not None else None
        last_line = now
        next_tick = now + tick_s if on_tick is not None else None
        while True:
            silent_at = (last_line + silence_s
                         if silence_s is not None else None)
            limits = [t for t in (deadline, next_tick, silent_at)
                      if t is not None]
            wait = max(0.0, min(limits) - now) if limits else None
            rec = self._next(wait)
            now = time.monotonic()
            if rec is None:
                raise WorkerFailed(self._reap(True))
            if rec is not _IDLE:
                if rec.get("kind") == "result" and rec.get("id") == job_id:
                    return rec
                last_line = now
            if deadline is not None and now >= deadline:
                self.kill()
                raise WorkerTimeout(f"watchdog timeout after {timeout_s:g}s")
            if silence_s is not None and now - last_line >= silence_s:
                self.kill()
                raise WorkerFrozen(
                    f"worker frozen (no heartbeat for {silence_s:g}s)")
            if next_tick is not None and now >= next_tick:
                next_tick = now + tick_s
                on_tick()

    # -- teardown -------------------------------------------------------------
    def _reap(self, eof: bool) -> str:
        """Kill (unless stdout already hit EOF, i.e. the child exited by
        itself), reap, and describe how the child ended."""
        if eof:
            try:
                self.proc.wait(timeout=BOOT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
        else:
            self.kill()
        self._readers[1].join(timeout=1.0)
        rc = self.proc.returncode
        if rc < 0:
            err = f"worker killed by signal {-rc}"
        elif rc != 0:
            err = f"worker exited with status {rc}"
        else:
            err = "worker produced no result record"
        tail = "".join(self._tail)[-_STDERR_TAIL:].strip()
        return err + (f"; stderr: {tail}" if tail else "")

    def kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass
        self.proc.wait()

    def close(self, grace_s: float = 2.0) -> None:
        """EOF on stdin (the worker's shutdown signal), a bounded wait,
        then kill; always reaps.  Idempotent."""
        try:
            self.proc.stdin.close()
        except OSError:  # a dead child's pipe: nothing left to flush
            pass
        try:
            self.proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            self.kill()
        for reader, stream in zip(self._readers,
                                  (self.proc.stdout, self.proc.stderr)):
            reader.join(timeout=1.0)
            if not reader.is_alive():  # never close under a blocked read
                stream.close()
