"""The sweep engine: isolation, retries, watchdog, resume, parallelism.

Process-isolation tests drive real persistent worker subprocesses on
synthetic cells (no simulation), so each costs one interpreter start per
runner thread, not a sweep.
"""

import os
import subprocess
import sys
import threading

import pytest

from repro.harness.figure1 import figure1_cell_specs
from repro.harness.figure2 import figure2_cell_specs
from repro.harness.mpi_tables import table_cell_specs
from repro.obs.metrics import MetricsRegistry
from repro.runx import Journal, SweepRunner, load_resume
from repro.runx.cells import REGISTRY, _cost, dispatch_order
from repro.runx.spec import CellResult, CellSpec
from repro.runx.supervisor import worker_env

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
PID_CELL = "tests.runx.pidcell:pid_cell"

SYN = [
    CellSpec(id=f"syn {i}", fn="synthetic",
             params={"value": float(i), "reps": 2}, base_seed=100 + i)
    for i in range(6)
]


def test_inline_sweep_runs_every_cell():
    reg = MetricsRegistry()
    results = SweepRunner(isolation="inline", metrics=reg).run(SYN)
    assert set(results) == {s.id for s in SYN}
    assert all(r.ok and r.attempts == 1 for r in results.values())
    assert reg.get("runx.cells.ok").value == len(SYN)
    assert reg.get("runx.cells.failed").value == 0


def test_inline_cell_exception_is_a_failed_result_not_a_dead_sweep():
    specs = [
        CellSpec(id="good", fn="synthetic", params={"value": 1.0}),
        CellSpec(id="bad", fn="synthetic", params={"raise": "boom"}),
    ]
    results = SweepRunner(isolation="inline").run(specs)
    assert results["good"].ok
    assert not results["bad"].ok
    assert "boom" in results["bad"].error


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError, match="duplicate cell ids"):
        SweepRunner(isolation="inline").run([SYN[0], SYN[0]])


def test_retry_uses_derived_seeds_and_backoff_is_bounded():
    """An always-failing cell stops after `retries` extra attempts."""
    reg = MetricsRegistry()
    spec = CellSpec(id="f", fn="synthetic", params={"raise": "flaky"},
                    base_seed=7)
    res = SweepRunner(isolation="inline", retries=2, backoff_s=0.0,
                      metrics=reg).run([spec])["f"]
    assert not res.ok
    assert res.attempts == 3
    assert res.seed == 7  # every retry reuses the cell's own seed
    assert len(res.attempt_errors) == 3
    assert all("(seed 7)" in e for e in res.attempt_errors)
    assert reg.get("runx.cells.retried").value == 2


def test_resume_skips_completed_cells():
    reg = MetricsRegistry()
    prior = {SYN[0].id: CellResult(id=SYN[0].id, status="ok",
                                   value={"values": [9.0]})}
    results = SweepRunner(isolation="inline", metrics=reg).run(
        SYN, completed=prior)
    assert results[SYN[0].id].resumed
    assert results[SYN[0].id].value == {"values": [9.0]}  # not re-run
    assert reg.get("runx.cells.resumed").value == 1
    assert reg.get("runx.cells.started").value == len(SYN) - 1


def test_failed_prior_cells_are_rerun_on_resume():
    prior = {SYN[1].id: CellResult(id=SYN[1].id, status="failed",
                                   error="earlier crash")}
    results = SweepRunner(isolation="inline").run(SYN, completed=prior)
    assert results[SYN[1].id].ok and not results[SYN[1].id].resumed


def test_parallel_inline_results_identical_to_serial():
    serial = SweepRunner(isolation="inline").run(SYN)
    parallel = SweepRunner(isolation="inline", jobs=4).run(SYN)
    assert {k: v.value for k, v in serial.items()} == \
        {k: v.value for k, v in parallel.items()}


def test_journal_records_cells_as_they_complete(tmp_path):
    man = str(tmp_path / "sweep.json")
    journal = Journal(man)
    journal.write_header({"command": "syn"})
    SweepRunner(isolation="inline", journal=journal).run(SYN)
    _, cells = load_resume(man)
    assert set(cells) == {s.id for s in SYN}
    assert all(c.ok for c in cells.values())


# -- dispatch order ------------------------------------------------------------

def _nas(i, nodes, rpn, reps=1):
    return CellSpec(id=f"nas {i}", fn="nas",
                    params={"bench": "EP", "cls": "A", "nodes": nodes,
                            "rpn": rpn, "smm": 0, "reps": reps},
                    base_seed=1 + i)


MIXED = [_nas(0, 1, 1), _nas(1, 2, 1), _nas(2, 1, 4, reps=2),
         _nas(3, 1, 2), _nas(4, 2, 4), _nas(5, 2, 1)]


@pytest.mark.parametrize("specs", [
    MIXED,
    SYN,
    table_cell_specs("FT", quick=True, reps=1, seed=1),
    figure2_cell_specs(quick=True, seed=1),
    MIXED + SYN + figure2_cell_specs(quick=True, seed=1),
], ids=["mixed-nas", "synthetic", "table3", "figure2", "all-kinds"])
def test_dispatch_order_is_a_stable_largest_first_permutation(specs):
    out = dispatch_order(specs)
    assert sorted(s.id for s in out) == sorted(s.id for s in specs)
    costs = [_cost(s) for s in out]
    assert costs == sorted(costs, reverse=True)
    # equal costs (including "no estimate") keep their spec order
    pos = {s.id: i for i, s in enumerate(specs)}
    for a, b in zip(out, out[1:]):
        if _cost(a) == _cost(b):
            assert pos[a.id] < pos[b.id]


def test_dispatch_order_costs_nas_and_unixbench_only():
    assert [s.id for s in dispatch_order(MIXED)] == [
        "nas 2", "nas 4", "nas 1", "nas 3", "nas 5", "nas 0"]
    assert [s.params["cpus"] for s in dispatch_order(
        figure2_cell_specs(quick=True, seed=1))] == [8, 4, 2, 1]
    table3 = table_cell_specs("FT", quick=True, reps=1, seed=1)
    assert dispatch_order(table3)[0].id == "FT.A n=16 rpn=4 smm=0"
    malformed = CellSpec(id="m", fn="nas", params={"nodes": "x"})
    assert _cost(malformed) == 0


def test_dispatch_order_keeps_figure1_spec_order():
    """Convolve cells have no estimate, so figure1 launches exactly in
    spec order — its FIFO makespan is already balanced."""
    specs = figure1_cell_specs(True, 1)
    assert dispatch_order(specs) == specs


def test_parallel_sweep_launches_the_largest_cells_first(monkeypatch):
    launched = []
    both_started = threading.Barrier(2, timeout=30)
    lock = threading.Lock()

    def record(params, seed, metrics=None):
        with lock:
            launched.append(seed)
            first_two = len(launched) <= 2
        if first_two:
            # the first two cells hold both slots until each has started
            both_started.wait()
        return {"values": [params["nodes"] * params["rpn"] + 1e-3 * seed]}

    monkeypatch.setitem(REGISTRY, "nas", record)
    parallel = SweepRunner(isolation="inline", jobs=2).run(MIXED)
    assert set(launched[:2]) == {3, 5}  # nas 2 (cost 8) and nas 4 (cost 8)
    assert sorted(launched) == [s.base_seed for s in MIXED]
    serial = SweepRunner(isolation="inline").run(MIXED)
    assert {k: v.value for k, v in parallel.items()} \
        == {k: v.value for k, v in serial.items()}


# -- process isolation (real worker subprocesses) ----------------------------

def test_process_isolation_runs_and_matches_inline():
    inline = SweepRunner(isolation="inline").run(SYN[:2])
    proc = SweepRunner(isolation="process").run(SYN[:2])
    assert {k: v.value for k, v in inline.items()} == \
        {k: v.value for k, v in proc.items()}


def test_process_crash_is_isolated():
    """A cell that raises inside the worker reports FAILED in-band."""
    specs = [
        CellSpec(id="ok", fn="synthetic", params={"value": 3.0}),
        CellSpec(id="crash", fn="synthetic", params={"raise": "segv-ish"}),
    ]
    results = SweepRunner(isolation="process").run(specs)
    assert results["ok"].ok
    assert not results["crash"].ok
    assert "segv-ish" in results["crash"].error


def test_watchdog_timeout_kills_hung_cell():
    reg = MetricsRegistry()
    specs = [CellSpec(id="hang", fn="synthetic",
                      params={"sleep_s": 60.0})]
    res = SweepRunner(isolation="process", timeout_s=3.0,
                      metrics=reg).run(specs)["hang"]
    assert not res.ok
    assert "watchdog timeout" in res.error
    assert reg.get("runx.cells.timeouts").value == 1


def test_worker_metrics_are_merged_into_parent_registry():
    reg = MetricsRegistry()
    spec = CellSpec(id="nas tiny", fn="nas",
                    params={"bench": "EP", "cls": "A", "nodes": 1, "rpn": 1,
                            "smm": 0, "reps": 1}, base_seed=1)
    res = SweepRunner(isolation="process", metrics=reg).run([spec])["nas tiny"]
    assert res.ok
    assert reg.get("engine.events.fired").value > 0


def test_worker_metrics_merge_once_per_job():
    """Two cells in one persistent worker: each job gets a fresh
    registry, so the merged counters equal an inline run's exactly."""
    specs = [
        CellSpec(id=f"nas tiny {i}", fn="nas",
                 params={"bench": "EP", "cls": "A", "nodes": 1, "rpn": 1,
                         "smm": 0, "reps": 1}, base_seed=1 + i)
        for i in range(2)
    ]
    inline, proc = MetricsRegistry(), MetricsRegistry()
    SweepRunner(isolation="inline", metrics=inline).run(specs)
    with SweepRunner(isolation="process", metrics=proc) as runner:
        assert all(r.ok for r in runner.run(specs).values())
        assert len(runner._children) == 1

    def counters(reg):
        return {n: rec["value"] for n, rec in reg.snapshot().items()
                if rec["type"] == "counter"}

    assert counters(proc) == counters(inline)
    assert proc.get("engine.events.fired").value > 0


# -- persistent workers --------------------------------------------------------

@pytest.fixture
def pid_cells(monkeypatch):
    """Make :mod:`tests.runx.pidcell` importable in worker children."""
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (REPO, os.environ.get("PYTHONPATH")) if p))

    def make(*names, **params):
        return [CellSpec(id=n, fn=PID_CELL, params=dict(params),
                         base_seed=i + 1) for i, n in enumerate(names)]
    return make


def test_in_band_exception_keeps_the_worker(pid_cells):
    specs = pid_cells("a", "b")
    specs.insert(1, CellSpec(id="boom", fn=PID_CELL,
                             params={"raise": "in-band"}))
    with SweepRunner(isolation="process") as runner:
        results = runner.run(specs)
    assert not results["boom"].ok and "in-band" in results["boom"].error
    assert results["a"].value["pid"] == results["b"].value["pid"]


def test_close_reaps_every_child_and_run_respawns(pid_cells):
    specs = pid_cells("a", "b", "c", "d")
    runner = SweepRunner(isolation="process", jobs=2)
    first = runner.run(specs)
    children = list(runner._children)
    assert {r.value["pid"] for r in first.values()} \
        == {c.proc.pid for c in children}
    runner.close()
    assert runner._children == set()
    for child in children:
        assert child.proc.returncode == 0  # EOF shutdown, reaped
        with pytest.raises(ProcessLookupError):
            os.kill(child.proc.pid, 0)
    again = runner.run(specs)  # a resume loop reuses a closed runner
    assert all(r.ok for r in again.values())
    assert {r.value["pid"] for r in again.values()}.isdisjoint(
        {c.proc.pid for c in children})
    runner.close()
    assert runner._children == set()


def test_fully_resumed_sweep_spawns_no_worker():
    done = {s.id: CellResult(id=s.id, status="ok", value={"values": [1.0]})
            for s in SYN}
    with SweepRunner(isolation="process", jobs=2) as runner:
        results = runner.run(SYN, completed=done)
        assert runner._children == set()
    assert all(r.resumed for r in results.values())


def test_worker_module_boots_cleanly_without_serve():
    """``-m`` of the worker must not trip runpy's double-import warning,
    and the worker must never import the serve package."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-X", "importtime",
         "-m", "repro.runx.workproc"],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
        env=worker_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith('{"kind":"ready"')
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "repro.runx.cells" in imported
    assert not [m for m in imported if m.startswith("repro.serve")]
