#!/usr/bin/env python
"""CI chaos smoke: the resilient runner survives injected faults and kills.

Three drills against the quick EP table sweep, all using real worker
subprocesses:

1. transient faults: a chaos plan kills one cell's first attempt and
   flakes another; with --retries 2 the sweep must still exit 0 with
   every cell ok, the retries recorded, and the table byte-identical to
   the clean run (a retry reuses the cell's own seed).
2. kill -9 mid-sweep, then --resume: the journal must survive, the
   resumed run must exit 0, and the final table must be byte-identical.
3. unrecoverable fault: with no retries a killed cell degrades to "-"
   and the CLI exits 1 with a failure summary, not a traceback.

With ``--faults`` it instead runs the *model-level* fault drill (the CI
``fault-smoke`` job): a node-crash fault plan against the quick BT table
must kill exactly the matched cell in simulation — exit 1, a
``failed-in-sim`` manifest row rendered as "-", a resumable journal that
reproduces the same deterministic failure on --resume.  Then a plan
against the quick Figure 2 sweep degrades one cell's CPU (the cell ends
ok, with ``fault_events`` in its manifest value) and crashes another's
node (``failed-in-sim``); the command exits 1.

With ``--serve`` it runs the same kill/hang/corrupt/flake chaos plans
against the *serve daemon's* long-lived workers instead (drill 5): the
plan rides into the daemon via ``$REPRO_CHAOS_PLAN``, each fault class
wrecks one cell's first attempt, and the supervised pool must recover
every one of them (watchdog for hangs, respawn for kills, protocol
validation for corruption) with attempts=2 and correct values.

Usage: chaos_smoke.py [WORKDIR] [--faults | --serve]
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time


def _env(**extra):
    env = dict(os.environ)
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(here, "src")
    if os.path.isdir(os.path.join(src, "repro")):
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS_PLAN", None)
    env.pop("REPRO_FAULT_PLAN", None)
    env.update(extra)
    return env


def _cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "repro.cli"] + args,
                          capture_output=True, text=True, **kw)


def main_faults(work):
    """Drill 4 (the CI ``fault-smoke`` job): in-simulation fault injection
    degrades gracefully and deterministically."""
    base = ["table1", "--quick"]
    target = "BT.A n=4 rpn=1 smm=2"

    print("== drill 4: node-crash fault plan -> failed-in-sim ==")
    plan = os.path.join(work, "fault-plan.json")
    with open(plan, "w") as fp:
        json.dump([{"match": target, "fault": "node_crash",
                    "node": 1, "at_s": 5.0}], fp)
    man = os.path.join(work, "faulted.json")
    r = _cli(base + ["--jobs", "2", "--fault-plan", plan, "--manifest", man],
             env=_env(), cwd=work)
    assert r.returncode == 1, (r.returncode, r.stdout, r.stderr)
    assert "Table 1" in r.stdout, "faulted table must still render"
    assert "failed in simulation" in r.stderr, r.stderr
    doc = json.load(open(man))
    in_sim = [c for c in doc["cells"] if c["status"] == "failed-in-sim"]
    assert [c["id"] for c in in_sim] == [target], in_sim
    assert in_sim[0]["fault"]["events"][0]["fault"] == "node_crash"
    ok = [c for c in doc["cells"] if c["status"] == "ok"]
    assert len(ok) == len(doc["cells"]) - 1, "other cells must complete"
    part = man + ".part.jsonl"
    assert os.path.exists(part), "journal must stay behind for --resume"

    print("== drill 4b: --resume replays the same deterministic failure ==")
    first_events = in_sim[0]["fault"]["events"]
    resumed = _cli(base + ["--resume", man], env=_env(), cwd=work)
    assert resumed.returncode == 1, (resumed.returncode, resumed.stderr)
    doc = json.load(open(man))
    in_sim2 = [c for c in doc["cells"] if c["status"] == "failed-in-sim"]
    assert [c["id"] for c in in_sim2] == [target]
    assert in_sim2[0]["fault"]["events"] == first_events, \
        "fault replay must be deterministic"

    print("== drill 4c: figure2 cells: degraded CPU ok, crashed node in-sim ==")
    degraded, crashed = "figure2 1cpu", "figure2 2cpu"
    plan_fig = os.path.join(work, "figure-plan.json")
    with open(plan_fig, "w") as fp:
        json.dump([
            {"match": degraded, "fault": "cpu_degrade", "node": 0, "cpu": 0,
             "at_s": 0.3, "factor": 0.5},
            {"match": crashed, "fault": "node_crash", "node": 0, "at_s": 0.3},
        ], fp)
    man_fig = os.path.join(work, "figure2-faulted.json")
    r = _cli(["figure2", "--quick", "--jobs", "2", "--fault-plan", plan_fig,
              "--manifest", man_fig], env=_env(), cwd=work)
    assert r.returncode == 1, (r.returncode, r.stdout, r.stderr)
    assert "failed in simulation" in r.stderr, r.stderr
    cells = {c["id"]: c for c in json.load(open(man_fig))["cells"]}
    assert cells[degraded]["status"] == "ok", cells[degraded]
    assert cells[degraded]["value"]["fault_events"][0]["fault"] == \
        "cpu_degrade", cells[degraded]
    assert cells[crashed]["status"] == "failed-in-sim", cells[crashed]
    assert "NodeFailedError" in cells[crashed]["error"], cells[crashed]
    others = [c for i, c in cells.items() if i not in (degraded, crashed)]
    assert others and all(c["status"] == "ok" for c in others), others

    print("ok: fault plan killed exactly the matched cell in-sim, the rest "
          "completed, --resume reproduced the identical failure, and the "
          "figure cells degraded or failed in-sim as planned")
    return 0


def main_serve(work):
    """Drill 5 (wired into the CI ``serve-smoke`` job): every chaos fault
    class thrown at the daemon's supervised workers is recovered."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(here, "src")
    if os.path.isdir(os.path.join(src, "repro")):
        sys.path.insert(0, src)
    from repro.runx import CellSpec
    from repro.runx.cells import run_cell
    from repro.serve import ServeClient, ServeError

    cells = {
        fault: CellSpec(id=f"chaos {fault}", fn="synthetic",
                        params={"value": float(i)}, base_seed=40 + i)
        for i, fault in enumerate(("kill", "hang", "corrupt", "flake"))
    }
    plan = os.path.join(work, "serve-plan.json")
    with open(plan, "w") as fp:
        json.dump([{"match": spec.id, "fault": fault, "attempts": [0],
                    "hang_s": 3600.0}
                   for fault, spec in cells.items()], fp)

    print("== drill 5: kill/hang/corrupt/flake against daemon workers ==")
    state = os.path.join(work, "serve-state")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--state-dir", state,
         "--workers", "2", "--timeout", "5", "--hb-timeout", "10"],
        env=_env(REPRO_CHAOS_PLAN=plan), cwd=work,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    client = ServeClient(socket_path=os.path.join(state, "serve.sock"),
                         timeout_s=120)
    deadline = time.monotonic() + 120
    while True:
        try:
            client.status()
            break
        except ServeError:
            assert daemon.poll() is None, "daemon died at boot"
            assert time.monotonic() < deadline, "daemon never answered"
            time.sleep(0.1)
    try:
        rep = client.submit([s.to_record() for s in cells.values()])
        by_id = {c["id"]: c for c in rep["cells"]}
        for fault, spec in cells.items():
            cell = by_id[spec.id]
            assert cell["status"] == "ok", (fault, cell)
            assert cell["attempts"] == 2, \
                f"{fault}: expected exactly one chaos-eaten attempt: {cell}"
            assert cell["value"] == run_cell(
                spec.fn, spec.params, spec.base_seed), \
                f"{fault}: recovered value drifted"
        c = client.status()["counters"]
        assert c["serve.jobs.requeued"] == 4, c
        assert c["serve.jobs.timeouts"] >= 1, c       # the hang
        assert c["serve.workers.restarts"] >= 3, c    # kill/corrupt/flake
        assert c["serve.protocol.garbage"] >= 1, c    # the corrupt fault
        assert c["serve.jobs.quarantined"] == 0, c
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
            daemon.wait(timeout=60)
    print("ok: all four chaos fault classes recovered by the pool "
          "(one retry each, values identical to clean runs)")
    return 0


def main(argv):
    flags = [a for a in argv[1:] if a.startswith("--")]
    positional = [a for a in argv[1:] if not a.startswith("--")]
    work = positional[0] if positional else tempfile.mkdtemp(prefix="chaos-")
    work = os.path.abspath(work)  # drills run the CLI with cwd=work
    os.makedirs(work, exist_ok=True)
    if "--faults" in flags:
        return main_faults(work)
    if "--serve" in flags:
        return main_serve(work)
    base = ["table2", "--quick"]

    print("== clean baseline ==")
    clean = _cli(base, env=_env(), cwd=work)
    assert clean.returncode == 0, clean.stderr
    assert "Table 2" in clean.stdout

    print("== drill 1: kill+flake faults recovered by retries ==")
    plan = os.path.join(work, "plan.json")
    with open(plan, "w") as fp:
        json.dump([
            {"match": "EP.A n=2 rpn=1 smm=0", "fault": "kill",
             "attempts": [0]},
            {"match": "EP.A n=8 rpn=4 smm=*", "fault": "flake",
             "attempts": [0]},
        ], fp)
    man1 = os.path.join(work, "chaos.json")
    r = _cli(base + ["--jobs", "2", "--retries", "2", "--manifest", man1],
             env=_env(REPRO_CHAOS_PLAN=plan), cwd=work)
    assert r.returncode == 0, (r.stdout, r.stderr)
    assert "Table 2" in r.stdout
    doc = json.load(open(man1))
    retried = [c for c in doc["cells"] if c.get("attempts", 1) > 1]
    assert len(retried) == 4, f"expected 4 retried cells, got {len(retried)}"
    assert all(c["status"] == "ok" for c in doc["cells"])
    assert r.stdout == clean.stdout, "retried cells drifted from clean run"

    print("== drill 2: SIGKILL mid-sweep, then --resume ==")
    man2 = os.path.join(work, "killed.json")
    part = man2 + ".part.jsonl"
    sweep = subprocess.Popen(
        [sys.executable, "-m", "repro.cli"] + base +
        ["--jobs", "2", "--manifest", man2],
        env=_env(), cwd=work,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        if os.path.exists(part) and sum(1 for _ in open(part)) >= 5:
            break
        assert sweep.poll() is None, "sweep finished before the kill"
        time.sleep(0.05)
    sweep.send_signal(signal.SIGKILL)
    sweep.wait()
    assert os.path.exists(part), "journal did not survive the kill"
    resumed = _cli(base + ["--resume", man2], env=_env(), cwd=work)
    assert resumed.returncode == 0, resumed.stderr
    assert "cells already complete" in resumed.stderr
    assert resumed.stdout == clean.stdout, "resumed output drifted"
    assert not os.path.exists(part), "journal not finalized after resume"

    print("== drill 3: unrecoverable fault degrades to '-' and exit 1 ==")
    plan3 = os.path.join(work, "plan3.json")
    with open(plan3, "w") as fp:
        json.dump([{"match": "EP.A n=2 rpn=1*", "fault": "kill"}], fp)
    man3 = os.path.join(work, "degraded.json")
    r = _cli(base + ["--jobs", "2", "--manifest", man3],
             env=_env(REPRO_CHAOS_PLAN=plan3), cwd=work)
    assert r.returncode == 1, (r.returncode, r.stderr)
    assert "Table 2" in r.stdout, "degraded table must still render"
    assert "failed" in r.stderr and "--resume" in r.stderr
    doc = json.load(open(man3))
    failed = [c for c in doc["cells"] if c["status"] == "failed"]
    assert len(failed) == 3, f"expected 3 failed cells, got {len(failed)}"

    print("ok: retries recovered 4 faulted cells byte-identically, resume "
          "was byte-identical,"
          " degradation exited 1 with the table rendered")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
