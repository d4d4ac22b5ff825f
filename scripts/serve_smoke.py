#!/usr/bin/env python
"""CI serve smoke: the sweep-serving daemon survives what CI throws at it.

Five drills against a real daemon (real unix socket, real worker
subprocesses), mirroring the acceptance criteria verbatim:

1. kill -9 one worker mid-cell: the in-flight attempt is retried on a
   respawned worker and the submission still succeeds (attempts=2).
2. serve a sweep, then resubmit it: the resubmission must be >= 90%
   cache hits and the two ``--out`` result documents byte-identical.
3. kill -9 the *daemon* mid-sweep, restart it on the same state dir:
   the journal replays the accepted jobs and a resubmit completes with
   a result document byte-identical to an uninterrupted serve.
4. a poisoned cell is quarantined after bounded retries without taking
   the pool down; the daemon keeps serving other cells.
5. submit a sweep at seed 1, then at seed 2: its zero-SMI cells, whose
   digest leaves out the seed, come back from the cache, and the seed-2
   table equals an unserved ``repro-smm table2 --quick --seed 2``.

Usage: serve_smoke.py [WORKDIR]
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(HERE, "src")
if os.path.isdir(os.path.join(SRC, "repro")):
    sys.path.insert(0, SRC)

from repro.runx import CellSpec  # noqa: E402
from repro.serve import ServeClient, ServeError  # noqa: E402


def _env(**extra):
    env = dict(os.environ)
    if os.path.isdir(os.path.join(SRC, "repro")):
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS_PLAN", None)
    env.pop("REPRO_FAULT_PLAN", None)
    env.update(extra)
    return env


def _cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "repro.cli"] + args,
                          capture_output=True, text=True, **kw)


def start_daemon(work, state, **flags):
    args = [sys.executable, "-m", "repro.cli", "serve",
            "--state-dir", state, "--workers", "2"]
    for flag, value in flags.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    sock = os.path.join(state, "serve.sock")
    # After a kill -9 the old socket file survives; clear it so the wait
    # below can only be satisfied by the *new* daemon actually answering.
    try:
        os.unlink(os.path.join(work, sock))
    except OSError:
        pass
    log = open(os.path.join(work, os.path.basename(state) + ".log"), "ab")
    proc = subprocess.Popen(args, env=_env(), cwd=work,
                            stdout=log, stderr=log)
    probe = ServeClient(socket_path=os.path.join(work, sock), timeout_s=5)
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        try:
            probe.status()
            return proc, sock
        except ServeError:
            pass
        assert proc.poll() is None, f"daemon died at boot (see {log.name})"
        time.sleep(0.1)
    raise AssertionError("daemon never answered on its socket")


def stop_daemon(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)


def counters(client):
    return client.status()["counters"]


def main(argv):
    work = os.path.abspath(argv[1] if len(argv) > 1
                           else tempfile.mkdtemp(prefix="serve-smoke-"))
    os.makedirs(work, exist_ok=True)

    print("== drill 1: kill -9 a worker mid-cell; the retry succeeds ==")
    daemon, sock = start_daemon(work, "state1", max_attempts=3)
    client = ServeClient(socket_path=os.path.join(work, sock))
    slow = CellSpec(id="smoke slow", fn="synthetic",
                    params={"sleep_s": 5.0, "value": 2.0}, base_seed=11)
    fast = CellSpec(id="smoke fast", fn="synthetic",
                    params={"value": 3.0}, base_seed=12)
    client.submit([slow.to_record()], wait=False)
    victim = None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and victim is None:
        for w in client.status()["workers"]:
            if w["state"] == "busy" and w["pid"]:
                victim = w["pid"]
        time.sleep(0.05)
    assert victim is not None, "no worker ever went busy"
    os.kill(victim, signal.SIGKILL)
    # waiting resubmission coalesces onto the replayed-after-kill attempt
    rep = client.submit([slow.to_record(), fast.to_record()])
    by_id = {c["id"]: c for c in rep["cells"]}
    assert by_id["smoke slow"]["status"] == "ok", by_id
    assert by_id["smoke slow"]["attempts"] == 2, \
        f"expected the killed attempt retried once: {by_id['smoke slow']}"
    assert by_id["smoke fast"]["status"] == "ok"
    c = counters(client)
    assert c["serve.jobs.requeued"] >= 1, c
    assert c["serve.workers.restarts"] >= 1, c
    print(f"   worker pid {victim} killed; attempt retried on a fresh "
          f"worker (restarts={c['serve.workers.restarts']})")

    print("== drill 2: resubmission served from cache, byte-identical ==")
    r1, r2 = os.path.join(work, "r1.json"), os.path.join(work, "r2.json")
    sub1 = _cli(["submit", "table2", "--quick", "--socket", sock,
                 "--out", r1], env=_env(), cwd=work)
    assert sub1.returncode == 0, (sub1.stdout, sub1.stderr)
    before = counters(client)["serve.jobs.completed"]
    sub2 = _cli(["submit", "table2", "--quick", "--socket", sock,
                 "--out", r2], env=_env(), cwd=work)
    assert sub2.returncode == 0, (sub2.stdout, sub2.stderr)
    cells = json.load(open(r2))["cells"]
    c = counters(client)
    recomputed = c["serve.jobs.completed"] - before
    assert recomputed <= 0.1 * len(cells), \
        f"resubmission recomputed {recomputed}/{len(cells)} cells"
    assert c["serve.cache.hits"] >= 0.9 * len(cells), c
    assert open(r1, "rb").read() == open(r2, "rb").read(), \
        "served result documents must be byte-identical"
    assert sub1.stdout == sub2.stdout, "rendered tables must match"
    stop_daemon(daemon)
    print(f"   {len(cells)} cells: 100% served from cache, byte-identical")

    print("== drill 3: kill -9 the daemon mid-sweep; restart; resubmit ==")
    daemon, sock = start_daemon(work, "state3")
    client = ServeClient(socket_path=os.path.join(work, sock))
    mid = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "submit", "table2", "--quick",
         "--socket", sock, "--out", os.path.join(work, "doomed.json")],
        env=_env(), cwd=work,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    cache3 = os.path.join(work, "state3", "cache")
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        done = sum(len(fs) for _, _, fs in os.walk(cache3))
        if done >= 3:
            break
        time.sleep(0.05)
    assert done >= 3, "no cells completed before the kill"
    daemon.send_signal(signal.SIGKILL)
    daemon.wait()
    mid.wait(timeout=120)
    assert mid.returncode != 0, "client must notice its daemon died"
    journal = os.path.join(work, "state3", "queue.jsonl")
    pending = sum(1 for line in open(journal)
                  if json.loads(line).get("kind") == "job")
    daemon, sock = start_daemon(work, "state3")
    client = ServeClient(socket_path=os.path.join(work, sock))
    replayed = counters(client)["serve.jobs.replayed"]
    r3 = os.path.join(work, "r3.json")
    sub3 = _cli(["submit", "table2", "--quick", "--socket", sock,
                 "--out", r3], env=_env(), cwd=work)
    assert sub3.returncode == 0, (sub3.stdout, sub3.stderr)
    assert open(r3, "rb").read() == open(r1, "rb").read(), \
        "post-crash results must be byte-identical to an undisturbed serve"
    assert sub3.stdout == sub1.stdout
    print(f"   daemon killed with {pending} accepted jobs journaled; "
          f"restart replayed {replayed}, results byte-identical")

    print("== drill 4: poisoned cell quarantined; the pool survives ==")
    bad = CellSpec(id="smoke poison", fn="synthetic",
                   params={"raise": "poisoned"}, base_seed=13)
    stop_daemon(daemon)
    daemon, sock = start_daemon(work, "state4", max_attempts=2)
    client = ServeClient(socket_path=os.path.join(work, sock))
    rep = client.submit([bad.to_record()])
    assert rep["cells"][0]["status"] == "quarantined", rep
    assert rep["cells"][0]["attempts"] == 2
    rep = client.submit([bad.to_record(), fast.to_record()])
    by_id = {c["id"]: c for c in rep["cells"]}
    assert by_id["smoke poison"]["status"] == "quarantined"
    assert rep["stats"]["quarantined"] == 1
    assert by_id["smoke fast"]["status"] == "ok", \
        "the daemon must keep serving around a quarantined cell"
    c = counters(client)
    assert c["serve.jobs.quarantined"] == 1, c
    stop_daemon(daemon)

    print("== drill 5: zero-SMI cells served from cache at another seed ==")
    daemon, sock = start_daemon(work, "state5")
    seed1 = _cli(["submit", "table2", "--quick", "--socket", sock],
                 env=_env(), cwd=work)
    assert seed1.returncode == 0, (seed1.stdout, seed1.stderr)
    m2 = os.path.join(work, "seed2.served.json")
    seed2 = _cli(["submit", "table2", "--quick", "--seed", "2", "--socket",
                  sock, "--manifest", m2], env=_env(), cwd=work)
    assert seed2.returncode == 0, (seed2.stdout, seed2.stderr)
    cells = json.load(open(m2))["cells"]
    cached = sorted(c["id"] for c in cells if c["cached"])
    zero = sorted(c["id"] for c in cells if c["id"].endswith("smm=0"))
    assert len(zero) == 10 and cached == zero, (cached, zero)
    local = _cli(["table2", "--quick", "--seed", "2", "--manifest",
                  os.path.join(work, "seed2.local.json")],
                 env=_env(), cwd=work)
    assert local.returncode == 0, (local.stdout, local.stderr)
    assert seed2.stdout == local.stdout, \
        "served seed-2 table must equal the unserved one"
    stop_daemon(daemon)
    print(f"   seed 2: {len(cached)}/{len(cells)} cells (every smm=0 cell) "
          f"from the seed-1 cache; table identical to an unserved run")

    print("ok: worker kill retried, resubmission 100% cached and "
          "byte-identical, daemon crash replayed and matched, poisoned "
          "cell circuit-broken, zero-SMI cells shared across seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
