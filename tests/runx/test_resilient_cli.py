"""End-to-end acceptance: the CLI survives kills, resumes byte-identically,
runs parallel sweeps deterministically, and degrades gracefully.

These spawn real sweeps (worker subprocesses over the quick EP matrix),
so they are the slowest tests in the runx suite — but they are the
acceptance criteria, verbatim.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.runx.chaos import PLAN_ENV, FaultPlan


@pytest.fixture(scope="module")
def expected_table2():
    """The committed ``table2 --quick`` stdout at seed 1."""
    return (pathlib.Path(__file__).resolve().parents[2]
            / "bench" / "expected" / "table2.txt").read_text()


def _env(**extra):
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(PLAN_ENV, None)
    env.update(extra)
    return env


def test_jobs4_is_byte_identical_to_expected_table2(
        expected_table2, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    man = str(tmp_path / "par.json")
    assert main(["table2", "--quick", "--jobs", "4", "--manifest", man]) == 0
    assert capsys.readouterr().out == expected_table2
    doc = json.load(open(man))
    assert doc["schema"] == 2 and doc["mode"] == "journal"
    assert all(c["status"] == "ok" for c in doc["cells"])
    assert all(c["duration_s"] > 0 for c in doc["cells"])
    assert not os.path.exists(man + ".part.jsonl")  # finalized


def test_kill9_then_resume_is_byte_identical(expected_table2, tmp_path):
    man = str(tmp_path / "killed.json")
    part = man + ".part.jsonl"
    sweep = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "table2", "--quick",
         "--jobs", "2", "--manifest", man],
        env=_env(), cwd=str(tmp_path),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # SIGKILL the whole sweep once a handful of cells are checkpointed.
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if os.path.exists(part) and sum(1 for _ in open(part)) >= 5:
            break
        time.sleep(0.05)
        assert sweep.poll() is None, "sweep finished before we could kill it"
    sweep.send_signal(signal.SIGKILL)
    sweep.wait()
    assert os.path.exists(part), "journal must survive the kill"
    assert not os.path.exists(man), "no manifest may exist for a dead run"

    resumed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "table2", "--quick",
         "--resume", man],
        env=_env(), cwd=str(tmp_path), capture_output=True, text=True,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "cells already complete" in resumed.stderr
    assert resumed.stdout == expected_table2
    doc = json.load(open(man))
    assert any(c.get("resumed") for c in doc["cells"])
    assert not os.path.exists(part)


def test_failed_cells_render_as_dash_and_exit_nonzero(
        tmp_path, capsys, monkeypatch):
    """Graceful degradation: an unrecoverable cell yields the paper's "-"
    and a failure summary, not a traceback or a dead sweep."""
    plan = str(tmp_path / "plan.json")
    FaultPlan.from_rules(
        [{"match": "EP.A n=2 rpn=1*", "fault": "kill"}]).write(plan)
    monkeypatch.setenv(PLAN_ENV, plan)
    monkeypatch.chdir(tmp_path)
    rc = main(["table2", "--quick", "--jobs", "2",
               "--manifest", str(tmp_path / "deg.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Table 2" in captured.out  # table still rendered
    doc = json.load(open(tmp_path / "deg.json"))
    failed = [c for c in doc["cells"] if c["status"] == "failed"]
    assert len(failed) == 3  # smm 0/1/2 of the killed row
    assert all("signal 9" in c["error"] for c in failed)
    # the journal stays behind so --resume can retry the failures
    assert os.path.exists(str(tmp_path / "deg.json.part.jsonl"))


def test_resume_refuses_mismatched_command(tmp_path, capsys):
    from repro.runx import Journal

    man = str(tmp_path / "other.json")
    Journal(man).write_header({"command": "figure2", "seed": 1})
    assert main(["table2", "--quick", "--resume", man]) == 2
