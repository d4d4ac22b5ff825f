"""The fault-injection harness, driven through real worker subprocesses."""

import os

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.runx import SweepRunner
from repro.runx.chaos import PLAN_ENV, FaultPlan, FaultRule
from repro.runx.cells import run_cell
from repro.runx.spec import CellSpec
from repro.runx.supervisor import WorkerChild, WorkerFailed, worker_env

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_rule_matching_globs_and_attempt_scope():
    plan = FaultPlan([
        FaultRule(match="EP.A n=4*", fault="kill", attempts=(0,)),
        FaultRule(match="*smm=2", fault="flake"),
    ])
    assert plan.fault_for("EP.A n=4 rpn=1 smm=0", 0).fault == "kill"
    assert plan.fault_for("EP.A n=4 rpn=1 smm=0", 1) is None  # attempt-scoped
    assert plan.fault_for("FT.B n=8 rpn=4 smm=2", 3).fault == "flake"
    assert plan.fault_for("EP.A n=1 rpn=1 smm=0", 0) is None


def test_unknown_fault_rejected():
    with pytest.raises(ValueError, match="unknown fault"):
        FaultRule(match="*", fault="meteor")


def test_plan_round_trips_through_file(tmp_path):
    plan = FaultPlan([FaultRule(match="*x*", fault="hang", attempts=(1, 2),
                                hang_s=5.0)])
    path = str(tmp_path / "plan.json")
    plan.write(path)
    back = FaultPlan.load(path)
    assert back == plan


def _chaos_run(monkeypatch, tmp_path, rules, specs, **runner_kw):
    plan_path = str(tmp_path / "plan.json")
    FaultPlan.from_rules(rules).write(plan_path)
    monkeypatch.setenv(PLAN_ENV, plan_path)
    with SweepRunner(isolation="process", backoff_s=0.0,
                     **runner_kw) as runner:
        return runner.run(specs)


def test_kill_fault_becomes_failed_cell(monkeypatch, tmp_path):
    specs = [CellSpec(id="victim", fn="synthetic", params={"value": 1.0}),
             CellSpec(id="bystander", fn="synthetic", params={"value": 2.0})]
    results = _chaos_run(
        monkeypatch, tmp_path,
        [{"match": "victim", "fault": "kill"}], specs)
    assert not results["victim"].ok
    assert "signal 9" in results["victim"].error
    assert results["bystander"].ok  # crash isolated: sweep survived


def test_corrupt_output_is_detected_and_failed(monkeypatch, tmp_path):
    specs = [CellSpec(id="garble", fn="synthetic", params={"value": 1.0})]
    results = _chaos_run(
        monkeypatch, tmp_path,
        [{"match": "garble", "fault": "corrupt"}], specs)
    assert not results["garble"].ok
    assert "no result record" in results["garble"].error


def test_transient_flake_retries_to_success_with_derived_seed(
        monkeypatch, tmp_path):
    reg = MetricsRegistry()
    specs = [CellSpec(id="flaky", fn="synthetic", params={"value": 4.0},
                      base_seed=11)]
    results = _chaos_run(
        monkeypatch, tmp_path,
        [{"match": "flaky", "fault": "flake", "attempts": [0]}],
        specs, retries=2, metrics=reg)
    res = results["flaky"]
    assert res.ok
    assert res.attempts == 2
    assert res.seed == 11  # a retry reuses the cell's own seed
    # ... so the retried cell's value equals a clean run's.
    assert res.value == run_cell("synthetic", specs[0].params, 11)
    assert reg.get("runx.cells.retried").value == 1
    assert reg.get("runx.cells.failed").value == 0


def test_hang_fault_is_ended_by_watchdog_then_retried(monkeypatch, tmp_path):
    reg = MetricsRegistry()
    specs = [CellSpec(id="stuck", fn="synthetic", params={"value": 1.5},
                      base_seed=3)]
    results = _chaos_run(
        monkeypatch, tmp_path,
        [{"match": "stuck", "fault": "hang", "attempts": [0], "hang_s": 60}],
        specs, retries=1, timeout_s=3.0, metrics=reg)
    res = results["stuck"]
    assert res.ok and res.attempts == 2
    assert reg.get("runx.cells.timeouts").value == 1
    assert "watchdog timeout" in res.attempt_errors[0]


@pytest.mark.parametrize("fault, error", [
    ("kill", "worker killed by signal 9"),
    ("hang", "watchdog timeout after 3s"),
    ("corrupt", "worker produced no result record"),
    ("flake", "worker exited with status 17"),
])
def test_fault_fails_one_attempt_and_respawned_worker_finishes(
        monkeypatch, tmp_path, fault, error):
    """Each fault class costs exactly the attempt in flight: the child is
    killed (or has died), and one fresh child serves the retry and every
    later cell."""
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (REPO, os.environ.get("PYTHONPATH")) if p))
    specs = [CellSpec(id=name, fn="tests.runx.pidcell:pid_cell",
                      base_seed=i + 1)
             for i, name in enumerate(("before", "victim", "after1",
                                       "after2"))]
    results = _chaos_run(
        monkeypatch, tmp_path,
        [{"match": "victim", "fault": fault, "attempts": [0],
          "hang_s": 60}],
        specs, retries=1, timeout_s=3.0)
    assert all(r.ok for r in results.values())
    victim = results["victim"]
    assert victim.attempts == 2 and len(victim.attempt_errors) == 1
    assert error in victim.attempt_errors[0]
    assert all(results[n].attempts == 1
               for n in ("before", "after1", "after2"))
    pids = {n: r.value["pid"] for n, r in results.items()}
    assert pids["victim"] == pids["after1"] == pids["after2"]
    assert pids["before"] != pids["victim"]


def test_worker_keeps_the_plan_it_booted_with(monkeypatch, tmp_path):
    """A worker reads $REPRO_CHAOS_PLAN once, at boot: rewriting the file
    afterwards changes nothing for it, only for workers booted later."""
    spec = CellSpec(id="victim", fn="synthetic", params={"value": 1.0},
                    base_seed=3)
    job = {"kind": "job", "id": "j", "spec": spec.to_record(),
           "seed": spec.base_seed, "attempt": 0}
    plan_path = str(tmp_path / "plan.json")
    FaultPlan([]).write(plan_path)
    monkeypatch.setenv(PLAN_ENV, plan_path)
    booted = WorkerChild(worker_env())
    try:
        FaultPlan([FaultRule(match="victim", fault="kill")]).write(plan_path)
        booted.submit(job)
        rec = booted.wait_result("j", timeout_s=60)
        assert rec["ok"] and rec["value"] == run_cell(
            spec.fn, spec.params, spec.base_seed)
        later = WorkerChild(worker_env())
        try:
            later.submit(job)
            with pytest.raises(WorkerFailed, match="signal 9"):
                later.wait_result("j", timeout_s=60)
        finally:
            later.close()
    finally:
        booted.close()
