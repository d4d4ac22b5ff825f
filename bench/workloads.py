"""The benchmark's four workloads, driven through public entry points only.

Three workloads run a ``--quick`` paper artifact through the
``repro-smm`` CLI, one per execution path that matters for wall time:

* ``ep-jobs2`` -- ``table2 --quick --jobs 2``: 30 short EP cells on the
  ``repro.runx`` runner, where per-cell spawn/import/journal cost
  dominates the simulation;
* ``ft-serial`` -- ``table3 --quick``: 30 FT cells on the default
  in-process path, almost all simulation (engine, rate, MPI layers);
* ``convolve-jobs2`` -- ``figure1 --quick --jobs 2``: 14 long Convolve
  cells, multithreaded/HTT work with no MPI (cache model, rate layer).

The fourth, ``served-ep``, starts a ``repro-smm serve --workers 2``
daemon and drives it with two closed-loop ``ServeClient`` threads: a cold
phase computing the 120 distinct cells of ``table2 --quick`` at four
seeds, then a hot phase resubmitting them (cache reads only).

Concurrency is fixed at 2 everywhere (``--jobs 2``, ``--workers 2``, two
client threads) -- the reference box has 2 CPUs, and a fixed value keeps
the workload the same on every host.  Every repetition runs in a fresh
temporary directory under ``.bench_work/`` in the checkout, because the
runner leaves its manifest and a journal lock file in the working
directory and the daemon keeps its state directory there.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(BENCH_DIR, "expected")

#: Workers, jobs and client threads: the reference box's CPU count.
CONCURRENCY = 2
#: ``served-ep``: sweep seeds computed cold, then rounds of cache hits.
COLD_SEEDS = 4
HOT_ROUNDS = 10
#: The seed whose outputs are pinned byte for byte by ``expected/``.
GOLDEN_SEED = 1
#: Hard ceiling on any one child process (the whole run must end in 180 s).
CHILD_TIMEOUT_S = 120.0
MANIFEST = "run.manifest.json"


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts: the checkout's
    ``src`` importable, temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = WORK
    return env


def rep_dir(prefix: str) -> str:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix + "-", dir=WORK)


def wait_rusage(proc: subprocess.Popen, timeout_s: float) -> Tuple[int, float]:
    """Reap ``proc`` with ``os.wait4`` and return ``(exit code, peak RSS
    in MB)``.  The RSS covers the process and every descendant it reaped
    (runner and pool workers).  A child still running after
    ``timeout_s`` is killed, so the benchmark always ends."""
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def time_import(samples: int) -> List[float]:
    """Seconds for a fresh interpreter to import the CLI and the cell
    executors -- what every runner worker pays before it simulates.  One
    untimed import first compiles bytecode, which users pay once.  The
    child is reaped with a blocking ``wait4``: ``subprocess.run`` with a
    timeout polls in steps of up to 50 ms, a sixth of what is timed."""
    argv = [sys.executable, "-c", "import repro.cli, repro.runx.cells"]
    env = child_env()
    out = []
    for i in range(samples + 1):
        t0 = time.perf_counter()
        rc, _ = wait_rusage(subprocess.Popen(argv, env=env), CHILD_TIMEOUT_S)
        if rc != 0:
            raise RuntimeError(f"importing repro exited {rc}")
        if i:
            out.append(time.perf_counter() - t0)
    return out


@dataclass
class Rep:
    """What one repetition of a workload measured and produced."""

    wall_s: float
    rss_mb: float
    latencies: List[float]
    #: the rendered artifact(s), one per sweep seed: compared byte for
    #: byte across reps, and the first against ``expected/`` at the
    #: golden seed.
    outputs: List[str]
    #: cell id -> payload, for the in-process replay check.
    payloads: Dict[str, Any]
    attempted: int
    failed: int
    errors: List[str] = field(default_factory=list)
    setup_s: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)


# -- harness entry points ------------------------------------------------------

#: NAS benchmark of each MPI table artifact.
_BENCH = {"table2": "EP", "table3": "FT"}


def artifact_specs(what: str, seed: int) -> List:
    """``repro.harness`` spec builder of one ``--quick`` artifact."""
    if what == "figure1":
        from repro.harness.figure1 import figure1_cell_specs

        return figure1_cell_specs(True, seed)
    from repro.harness.mpi_tables import table_cell_specs

    return table_cell_specs(_BENCH[what], True, 1, seed)


def artifact_render(what: str, payloads: Dict[str, Any]) -> str:
    """Assemble + render ``{cell id: payload}`` exactly as the CLI prints
    it (the CLI adds one trailing newline)."""
    from repro.runx import OK, CellResult

    results = {cid: CellResult(id=cid, status=OK, value=v)
               for cid, v in payloads.items()}
    if what == "figure1":
        from repro.harness.figure1 import assemble_figure1, render_figure1

        return render_figure1(assemble_figure1(True, results)) + "\n"
    from repro.harness.mpi_tables import assemble_table, render

    bench = _BENCH[what]
    return render(bench, assemble_table(bench, True, results)) + "\n"


def golden(what: str) -> str:
    with open(os.path.join(EXPECTED, f"{what}.txt"), encoding="utf-8") as fp:
        return fp.read()


# -- workloads -----------------------------------------------------------------

@dataclass(frozen=True)
class CliWorkload:
    """One ``repro-smm`` artifact command, run as a user runs it."""

    name: str
    what: str                 # the artifact: table2 / table3 / figure1
    flags: Tuple[str, ...]    # execution-path flags after ``--quick``
    #: picks the cells replayed in-process (output check and traced run)
    subset: Callable[[List], List]

    def specs(self, seed: int) -> List:
        return artifact_specs(self.what, seed)

    def replay_specs(self, seed: int, smoke: bool = False) -> List:
        chosen = self.subset(self.specs(seed))
        return chosen[:1] if smoke else chosen

    def setup(self, samples: int) -> List[float]:
        return time_import(samples)

    def rep(self, seed: int, smoke: bool = False) -> Rep:
        """Run the command once in a fresh directory; the manifest it
        writes supplies per-cell host time and payloads.  ``--manifest``
        names that file on both paths (the in-process path writes one
        only when asked)."""
        argv = [sys.executable, "-m", "repro.cli", self.what, "--quick",
                *self.flags, "--seed", str(seed), "--manifest", MANIFEST]
        cwd = rep_dir(self.name)
        try:
            with open(os.path.join(cwd, "stdout"), "wb") as out, \
                    open(os.path.join(cwd, "stderr"), "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                        stdout=out, stderr=err)
                rc, rss = wait_rusage(proc, CHILD_TIMEOUT_S)
                wall = time.perf_counter() - t0
            with open(os.path.join(cwd, "stdout"), encoding="utf-8") as fp:
                output = fp.read()
            errors = []
            if rc != 0:
                with open(os.path.join(cwd, "stderr"), encoding="utf-8",
                          errors="replace") as fp:
                    tail = fp.read()[-400:]
                errors.append(f"{self.what} exited {rc}: {tail}")
            cells = _manifest_cells(os.path.join(cwd, MANIFEST))
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        planned = len(self.specs(seed))
        ok = [c for c in cells if c.get("status", "ok") == "ok"]
        return Rep(
            wall_s=wall, rss_mb=rss, latencies=_cell_seconds(cells),
            outputs=[output], payloads={c["id"]: c["value"] for c in ok},
            attempted=planned, failed=planned - len(ok), errors=errors)


def _manifest_cells(path: str) -> List[Dict[str, Any]]:
    """Cells of a run manifest, normalised to ``id``/``value``: the
    runner records ``id`` and the payload; the in-process build records
    a ``label`` and ``values_s``."""
    try:
        with open(path, encoding="utf-8") as fp:
            cells = json.load(fp).get("cells", [])
    except (OSError, ValueError):
        return []
    for c in cells:
        c.setdefault("id", c.get("label"))
        if "value" not in c:
            c["value"] = {"values": c.get("values_s")}
    return cells


def _cell_seconds(cells: List[Dict[str, Any]]) -> List[float]:
    """Host seconds per cell: the runner's own ``duration_s``, or, for
    the sequential in-process build, the gap between completion marks."""
    if cells and all("duration_s" in c for c in cells):
        return [float(c["duration_s"]) for c in cells]
    marks = [0.0] + [float(c["at_wall_s"]) for c in cells]
    return [b - a for a, b in zip(marks, marks[1:])]


class Daemon:
    """One ``repro-smm serve`` process in a fresh state directory, stopped
    with SIGTERM (graceful drain) and reaped on exit."""

    def __init__(self, prefix: str):
        self.cwd = rep_dir(prefix)
        self.proc: Optional[subprocess.Popen] = None
        self.rss_mb = 0.0
        self.setup_s = 0.0
        # Relative to the benchmark's cwd: a unix socket path must stay
        # under ~107 bytes however deep the checkout sits.
        self.socket = os.path.relpath(
            os.path.join(self.cwd, "state", "serve.sock"))

    def __enter__(self) -> "Daemon":
        from repro.serve import ServeClient, ServeError

        argv = [sys.executable, "-m", "repro.cli", "serve", "--state-dir",
                "state", "--workers", str(CONCURRENCY)]
        t0 = time.perf_counter()
        with open(os.path.join(self.cwd, "stderr"), "wb") as err:
            self.proc = subprocess.Popen(argv, cwd=self.cwd, env=child_env(),
                                         stdout=subprocess.DEVNULL,
                                         stderr=err)
        self.client = ServeClient(socket_path=self.socket, timeout_s=60.0)
        deadline = t0 + 60.0
        while True:
            try:
                workers = self.client.status().get("workers", [])
                if len(workers) == CONCURRENCY and all(
                        w.get("state") == "idle" for w in workers):
                    break
            except ServeError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.__exit__(None, None, None)
                raise RuntimeError("serve daemon did not become ready")
            time.sleep(0.01)
        self.setup_s = time.perf_counter() - t0
        return self

    def counters(self) -> Dict[str, float]:
        return self.client.status().get("counters", {})

    def __exit__(self, *exc) -> None:
        try:
            if self.proc is not None and self.proc.returncode is None:
                self.proc.send_signal(signal.SIGTERM)
                _, self.rss_mb = wait_rusage(self.proc, 30.0)
        finally:
            shutil.rmtree(self.cwd, ignore_errors=True)


def closed_loop(client, specs: Sequence, clients: int = CONCURRENCY):
    """Submit one cell per request from ``clients`` threads, each sending
    its next request only when the previous reply arrived.  Returns
    ``(wall seconds, per-request seconds, replies in spec order,
    error strings)``."""
    from repro.serve import ServeError

    todo = iter(enumerate(specs))
    lock = threading.Lock()
    replies: List[Optional[Dict[str, Any]]] = [None] * len(specs)
    latencies: List[float] = []
    errors: List[str] = []

    def loop() -> None:
        while True:
            with lock:
                nxt = next(todo, None)
            if nxt is None:
                return
            i, spec = nxt
            t0 = time.perf_counter()
            try:
                cells = client.submit([spec.to_record()], wait=True)["cells"]
            except ServeError as exc:
                with lock:
                    errors.append(f"{spec.id}: {exc}")
                continue
            dt = time.perf_counter() - t0
            with lock:
                latencies.append(dt)
            replies[i] = cells[0] if cells else None

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        for fut in [pool.submit(loop) for _ in range(clients)]:
            fut.result()
    return time.perf_counter() - t0, latencies, replies, errors


@dataclass(frozen=True)
class ServedWorkload:
    """Cold then hot closed-loop traffic against a fresh daemon."""

    name: str
    what = "table2"

    def specs(self, seed: int) -> List:
        return artifact_specs(self.what, seed)

    def replay_specs(self, seed: int, smoke: bool = False) -> List:
        chosen = self.specs(seed)
        return chosen[:1] if smoke else chosen

    def setup(self, samples: int) -> List[float]:
        return []  # daemon start-up is timed inside every rep

    def rep(self, seed: int, smoke: bool = False) -> Rep:
        """``wall_s`` is the whole client session (cold + hot); the
        latencies are the cold requests' submit-to-result times."""
        groups = [self.specs(seed + k)
                  for k in range(1 if smoke else COLD_SEEDS)]
        cold = [s for g in groups for s in g]
        hot = cold * HOT_ROUNDS
        if smoke:
            hot = hot[:200]
        with Daemon(self.name) as d:
            cold_wall, lat, cold_rep, errors = closed_loop(d.client, cold)
            hot_wall, hot_lat, hot_rep, hot_err = closed_loop(d.client, hot)
        errors += hot_err
        ok = [r is not None and r.get("status") == "ok"
              for r in cold_rep + hot_rep]
        by_digest = {r["digest"]: r.get("value") for r in cold_rep if r}
        stale = sum(1 for r in hot_rep if r is not None
                    and by_digest.get(r["digest"]) != r.get("value"))
        if stale:
            errors.append(f"{stale} hot-phase payloads differ from the "
                          "cold-phase payloads of the same cells")
        replies = iter(cold_rep)
        per_seed = [{s.id: r["value"] for s, r in zip(g, replies)
                     if r is not None and r.get("status") == "ok"}
                    for g in groups]
        return Rep(
            wall_s=cold_wall + hot_wall, rss_mb=d.rss_mb, latencies=lat,
            outputs=[artifact_render(self.what, p) for p in per_seed],
            payloads=per_seed[0], attempted=len(ok),
            failed=ok.count(False), errors=errors, setup_s=d.setup_s,
            extra={"hits_per_s": len(hot) / hot_wall,
                   "hit_latency_p50_s": median(hot_lat) if hot_lat else 0.0})


def _every_fifth(specs: List) -> List:
    return specs[::5]


def _convolve_subset(specs: List) -> List:
    """The first left-panel line and the first right-panel repetition of
    the cache-friendly configuration: one ``convolve_line`` and one
    ``convolve_run`` cell, about 2 s together.  The cache-unfriendly
    ones take 3-9 s each, too long to replay under the profiler."""
    friendly = [s for s in specs if s.params["config"] == "CacheFriendly"]
    line = next(s for s in friendly if s.fn == "convolve_line")
    run = next(s for s in friendly if s.fn == "convolve_run")
    return [line, run]


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        CliWorkload(name="ep-jobs2", what="table2",
                    flags=("--jobs", str(CONCURRENCY)), subset=list),
        CliWorkload(name="ft-serial", what="table3", flags=(),
                    subset=_every_fifth),
        CliWorkload(name="convolve-jobs2", what="figure1",
                    flags=("--jobs", str(CONCURRENCY)),
                    subset=_convolve_subset),
        ServedWorkload(name="served-ep"),
    )
}
