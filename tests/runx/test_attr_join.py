"""``--attr`` blocks joined at assembly (``repro.runx.join_attribution``).

A noisy attributed cell carries its own run's half of the report
(``attr_noisy``); the ``smm == 0`` cell of the same row carries the
zero-SMI projection (``attr_base``).  The join finishes the report from
the two, so the number of simulations, and every counter, is a function
of the sweep alone, not of which worker meets a configuration first.
That the joined report equals :func:`repro.obs.attr.attribute_cell`'s is
checked in ``tests/obs/test_attr_baseline.py``.
"""

import json

import pytest

from repro.cli import main

ROW = "EP.A n=2 rpn=1"


def _metrics(out: str) -> dict:
    doc = json.loads(out[out.index("\n{") + 1:])
    return {k: v.get("value") for k, v in doc.items()}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_attr_metrics_are_the_same_at_every_jobs(jobs, tmp_path, capsys,
                                                 monkeypatch):
    """Each configuration's zero-SMI run happens once, in its smm=0 cell:
    the counters of an attributed sweep do not depend on --jobs."""
    monkeypatch.chdir(tmp_path)
    assert main(["table2", "--quick", "--seed", "1", "--attr", "--jobs",
                 jobs, "--metrics", "--metrics-format", "json"]) == 0
    m = _metrics(capsys.readouterr().out)
    assert m["engine.events.scheduled"] == 110_495
    assert m["engine.events.fired"] == 68_180
    assert m["attr.captures"] == 30
    assert m["attr.cells"] == 20
    # The whole attr.* family.
    assert {k for k in m if k.startswith("attr.")} == {
        "attr.captures", "attr.cells", "attr.sends", "attr.waits",
        "attr.wait_ns", "attr.wait.collective_ns", "attr.wait.late_receiver",
        "attr.wait.late_sender_ns"}


def _unpaired_sweep(tmp_path, capsys, argv):
    man = str(tmp_path / "m.json")
    rc = main(["table2", "--quick", "--seed", "1", "--attr",
               "--manifest", man, *argv])
    err = capsys.readouterr().err
    cells = {c["id"]: c for c in json.load(open(man))["cells"]}
    for smm in (1, 2):
        cell = cells[f"{ROW} smm={smm}"]
        assert cell["status"] == "ok" and cell["value"]["values"]
        assert list(cell["value"]) == ["values"]
    # Every other row still joins.
    assert "attribution" in cells["EP.A n=4 rpn=1 smm=2"]["value"]
    assert (f"2 noisy cells carry no attribution (their SMM-0 cell failed "
            f"or carries no baseline): {ROW} smm=1, {ROW} smm=2") in err
    return rc, cells[f"{ROW} smm=0"]


def test_faulted_baseline_leaves_its_row_unattributed(
        tmp_path, capsys, monkeypatch):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([{"match": f"{ROW} smm=0",
                                 "fault": "cpu_degrade", "at_s": 0.05}]))
    monkeypatch.chdir(tmp_path)
    rc, base = _unpaired_sweep(tmp_path, capsys,
                               ["--jobs", "1", "--fault-plan", str(plan)])
    assert rc == 0
    assert base["status"] == "ok" and "fault_events" in base["value"]


def test_killed_baseline_leaves_its_row_unattributed(
        tmp_path, capsys, monkeypatch):
    from repro.runx.chaos import PLAN_ENV, FaultPlan

    plan = str(tmp_path / "chaos.json")
    FaultPlan.from_rules([{"match": f"{ROW} smm=0", "fault": "kill"}]
                         ).write(plan)
    monkeypatch.setenv(PLAN_ENV, plan)
    monkeypatch.chdir(tmp_path)
    rc, base = _unpaired_sweep(tmp_path, capsys,
                               ["--jobs", "2", "--retries", "0"])
    assert rc == 1
    assert base["status"] == "failed"
    # The journal keeps the workers' unjoined payloads, so a resume that
    # re-runs the baseline joins the cells it did not re-run.
    monkeypatch.delenv(PLAN_ENV)
    assert main(["table2", "--resume", str(tmp_path / "m.json")]) == 0
    cells = {c["id"]: c for c in json.load(open(tmp_path / "m.json"))["cells"]}
    assert cells[f"{ROW} smm=1"]["resumed"]
    assert "attribution" in cells[f"{ROW} smm=1"]["value"]
    assert "attr_noisy" not in cells[f"{ROW} smm=1"]["value"]
