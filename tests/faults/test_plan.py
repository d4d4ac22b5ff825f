"""Fault-plan vocabulary: validation, matching, (de)serialization."""

import json

import pytest

from repro.faults import LINK_FAULTS, NODE_FAULTS, PLAN_ENV, FaultPlan, FaultRule


def test_every_kind_round_trips():
    for kind in NODE_FAULTS + LINK_FAULTS:
        rule = FaultRule(fault=kind, match="BT.*")
        back = FaultRule.from_record(rule.to_record())
        assert back.fault == kind
        assert back.match == "BT.*"
        assert back.is_link == (kind in LINK_FAULTS)


def test_unknown_fault_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault"):
        FaultRule(fault="meteor_strike")


@pytest.mark.parametrize("kwargs", [
    {"at_s": -1.0},
    {"p": 1.5},
    {"p": -0.1},
    {"factor": 0.0},
    {"factor": 1.5},
    {"delay_ns": -1},
    {"mpi_timeout_s": 0},
])
def test_bad_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        FaultRule(fault="node_crash", **kwargs)


def test_glob_matching_scopes_rules_to_cells():
    plan = FaultPlan([
        FaultRule(fault="node_crash", match="BT.A n=4 *"),
        FaultRule(fault="link_delay", match="BT.*"),
        FaultRule(fault="node_hang", match="FT.*"),
    ])
    assert [r.fault for r in plan.rules_for("BT.A n=4 rpn=1 smm=2")] == \
        ["node_crash", "link_delay"]
    assert [r.fault for r in plan.rules_for("BT.A n=8 rpn=1 smm=0")] == \
        ["link_delay"]
    assert plan.rules_for("EP.A n=4 rpn=1 smm=0") == []


def test_load_write_round_trip(tmp_path):
    plan = FaultPlan([
        FaultRule(fault="node_crash", match="*", node=1, at_s=2.0),
        FaultRule(fault="link_drop", p=0.25, src=0, dst=3),
    ])
    path = tmp_path / "plan.json"
    plan.write(str(path))
    back = FaultPlan.load(str(path))
    assert [r.to_record() for r in back.rules] == \
        [r.to_record() for r in plan.rules]


def test_load_rejects_non_list(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"fault": "node_crash"}))
    with pytest.raises(ValueError, match="JSON list"):
        FaultPlan.load(str(path))


def test_cli_env_plan_arms_cells_and_flag_overrides_it(
        tmp_path, monkeypatch, capsys):
    from repro.cli import main

    # Both plans arm cells whose runs end long before the faults' time.
    env_plan = tmp_path / "env.json"
    FaultPlan([FaultRule(fault="node_crash", at_s=1e6),
               FaultRule(fault="clock_skew", at_s=1e6)]).write(str(env_plan))
    flag_plan = tmp_path / "flag.json"
    FaultPlan([FaultRule(fault="node_crash", match="*smm=0",
                         at_s=1e6)]).write(str(flag_plan))
    monkeypatch.setenv(PLAN_ENV, str(env_plan))
    monkeypatch.chdir(tmp_path)

    assert main(["table2", "--quick", "--jobs", "1"]) == 0
    err = capsys.readouterr().err
    assert f"fault plan {env_plan}: 2 rules, 30/30 cells armed" in err

    assert main(["table2", "--quick", "--jobs", "1",
                 "--fault-plan", str(flag_plan)]) == 0
    err = capsys.readouterr().err
    assert f"fault plan {flag_plan}: 1 rules, 10/30 cells armed" in err
    assert str(env_plan) not in err


def test_link_record_omits_node_fields():
    rec = FaultRule(fault="link_drop", p=0.5).to_record()
    assert "node" not in rec and "at_s" not in rec
    rec = FaultRule(fault="node_crash").to_record()
    assert "p" not in rec and "delay_ns" not in rec
