"""runx × faults: failed-in-sim status, no-retry semantics, worker
protocol, journal hardening, and the CLI plumbing."""

import json
import os
import subprocess
import sys

import pytest

from repro.faults import FaultedRunError
from repro.obs.metrics import MetricsRegistry
from repro.runx import FAILED_IN_SIM, Journal, SweepRunner, load_resume
from repro.runx.journal import part_path
from repro.runx.spec import CellResult, CellSpec


def faulted_cell(params, seed, metrics=None):
    """Test executor (dotted-path resolved): dies of injected faults."""
    raise FaultedRunError(
        "simulated node ate it",
        events=[{"fault": "node_crash", "node": "node1", "at_ns": 42}])


FAULTY = CellSpec(id="faulty", fn="tests.runx.test_faults:faulted_cell",
                  params={}, base_seed=5)
CLEAN = CellSpec(id="clean", fn="synthetic", params={"value": 2.0},
                 base_seed=6)


def test_inline_faulted_cell_is_failed_in_sim_and_never_retried():
    reg = MetricsRegistry()
    results = SweepRunner(isolation="inline", retries=3, backoff_s=0,
                          metrics=reg).run([FAULTY, CLEAN])
    res = results["faulty"]
    assert res.status == FAILED_IN_SIM
    assert not res.ok
    assert res.attempts == 1  # deterministic: retries skipped
    assert res.fault == {"events": [
        {"fault": "node_crash", "node": "node1", "at_ns": 42}]}
    assert "simulated node ate it" in res.error
    assert results["clean"].ok  # sweep degraded gracefully
    assert reg.get("runx.cells.failed_in_sim").value == 1
    assert reg.get("runx.cells.failed").value == 0
    assert reg.get("runx.cells.retried").value == 0


def test_process_isolation_reports_failed_in_sim_in_band():
    results = SweepRunner(isolation="process", retries=2, backoff_s=0,
                          timeout_s=120).run([FAULTY])
    res = results["faulty"]
    assert res.status == FAILED_IN_SIM
    assert res.attempts == 1
    assert res.fault["events"][0]["fault"] == "node_crash"


def test_failed_in_sim_round_trips_through_journal(tmp_path):
    manifest = str(tmp_path / "m.json")
    journal = Journal(manifest)
    journal.write_header({"command": "t"})
    SweepRunner(isolation="inline", journal=journal).run([FAULTY])
    _, cells = load_resume(manifest)
    back = cells["faulty"]
    assert back.status == FAILED_IN_SIM
    assert back.fault["events"][0]["at_ns"] == 42
    assert not back.ok  # a resumed sweep re-runs it (and fails it again)


def test_cell_result_fault_field_round_trip():
    res = CellResult(id="x", status=FAILED_IN_SIM, seed=1,
                     fault={"events": [{"fault": "node_hang"}]})
    rec = res.to_record()
    assert rec["fault"] == {"events": [{"fault": "node_hang"}]}
    assert CellResult.from_record(rec).fault == res.fault


def test_clean_result_record_has_no_fault_key():
    rec = CellResult(id="x", status="ok", value={"values": [1.0]}).to_record()
    assert "fault" not in rec


# -- journal hardening (the torn-final-line bug) ------------------------------

def test_resume_append_repairs_torn_final_line(tmp_path):
    manifest = str(tmp_path / "m.json")
    journal = Journal(manifest)
    journal.write_header({"command": "t"})
    journal.append(CellResult(id="a", status="ok", value={"v": 1}))
    # Simulate a crash mid-append: a torn, newline-less final line.
    with open(journal.path, "a", encoding="utf-8") as fp:
        fp.write('{"kind":"cell","id":"b","sta')
    journal.close()  # a crashed process drops its flock with it
    resumed = Journal(manifest)  # fresh process: no write_header
    resumed.append(CellResult(id="c", status="ok", value={"v": 3}))
    header, cells = load_resume(manifest)
    # The torn record is lost (only it); 'a' and 'c' both survive.
    assert set(cells) == {"a", "c"}
    assert header["command"] == "t"


def test_valid_json_but_malformed_cell_record_is_skipped(tmp_path):
    manifest = str(tmp_path / "m.json")
    journal = Journal(manifest)
    journal.write_header({"command": "t"})
    journal.append(CellResult(id="a", status="ok", value={"v": 1}))
    with open(journal.path, "a", encoding="utf-8") as fp:
        fp.write('{"kind":"cell","status":"ok"}\n')      # no id
        fp.write('{"kind":"cell","id":"d","attempt_errors":7}\n')  # bad type
    _, cells = load_resume(manifest)
    assert set(cells) == {"a"}


# -- CLI plumbing -------------------------------------------------------------

def _cli(*argv, env_extra=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("argv", [
    ("table1", "--timeout", "0"),
    ("table1", "--timeout", "-3"),
    ("table1", "--retries", "-1"),
    ("table1", "--jobs", "0"),
    ("trace", "--cls", "Z"),
])
def test_cli_validation_is_one_line_and_exit_2(argv):
    proc = _cli(*argv)
    assert proc.returncode == 2
    err = [l for l in proc.stderr.splitlines() if "error:" in l]
    assert len(err) == 1


def test_cli_bad_fault_plan_exits_2(tmp_path):
    bad = tmp_path / "plan.json"
    bad.write_text('{"not": "a list"}')
    proc = _cli("table2", "--quick", "--fault-plan", str(bad))
    assert proc.returncode == 2
    assert "bad fault plan" in proc.stderr


def test_with_faults_rewrites_only_matching_specs():
    from repro.cli import _with_faults
    from repro.faults import FaultPlan, FaultRule

    specs = [CellSpec(id="BT.A n=4", fn="nas", params={"nodes": 4},
                      base_seed=3),
             CellSpec(id="EP.A n=2", fn="nas", params={"nodes": 2},
                      base_seed=4)]
    plan = FaultPlan([FaultRule(fault="node_crash", match="BT.*")])
    out, hit = _with_faults(specs, plan)
    assert hit == 1
    assert out[0].params["faults"][0]["fault"] == "node_crash"
    assert out[0].base_seed == 3
    assert "faults" not in out[1].params
    assert out[1] is specs[1]  # untouched specs pass through identically
    # The rewrite must change the digest: faulted work is different work.
    assert out[0].digest() != specs[0].digest()


def test_with_faults_arms_only_rules_the_executor_would_fire():
    """A link rule cannot fire on one machine and a node-1 rule needs a
    second node: the quick Figure 1 cells stay clean (and keep their
    clean digests), while a 2-node NAS cell arms both rules and a 1-node
    one only the link rule."""
    from repro.cli import _with_faults
    from repro.faults import FaultInjector, FaultPlan, FaultRule
    from repro.harness.figure1 import figure1_cell_specs
    from repro.machine.topology import WYEAST_SPEC
    from repro.system import make_machine

    plan = FaultPlan([FaultRule(fault="link_drop"),
                      FaultRule(fault="node_crash", node=1)])
    specs = figure1_cell_specs(True, 1)
    out, hit = _with_faults(specs, plan)
    assert hit == 0 and all(a is b for a, b in zip(out, specs))

    nas = [CellSpec(id=f"EP.A n={n}", fn="nas", params={"nodes": n},
                    base_seed=n) for n in (2, 1)]
    out, hit = _with_faults(nas, plan)
    assert hit == 2
    assert [[r["fault"] for r in s.params["faults"]] for s in out] == [
        ["link_drop", "node_crash"], ["link_drop"]]

    # The injector arms by the same predicate: of these rules only the
    # node-0 one gets a timer on a single machine.
    m = make_machine(WYEAST_SPEC)
    seq = m.engine._seq
    FaultInjector(plan.rules + [FaultRule(fault="clock_skew")]).attach_node(
        m.node)
    assert m.engine._seq == seq + 1


def test_faulted_nas_cell_carries_no_attribution():
    """``--attr`` and ``--fault-plan`` together: the faulted cell keeps its
    fault events and carries no ``attr_noisy`` record, so the sweep joins
    no ``attribution`` block for it (a faulted run is not comparable with
    the clean baseline it would be differenced against)."""
    from repro.runx.cells import run_cell

    params = {"bench": "EP", "cls": "A", "nodes": 2, "rpn": 1, "smm": 2,
              "reps": 1, "attr": True}
    assert "attr_noisy" in run_cell("nas", params, 5)
    faulted = run_cell("nas", {**params, "faults": [
        {"fault": "cpu_degrade", "node": 0, "cpu": 0, "at_s": 0.05}]}, 5)
    assert "attr_noisy" not in faulted and "attribution" not in faulted
    assert faulted["fault_events"][0]["fault"] == "cpu_degrade"
