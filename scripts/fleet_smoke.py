#!/usr/bin/env python
"""CI fleet smoke: the multi-host worker fleet survives hostile hosts.

Four drills against a real daemon (TCP listener, real agent processes,
real workproc children), mirroring the acceptance criteria:

1. kill -9 an agent mid-cell: the dropped connection revokes its leases
   instantly, the cells are re-granted to the surviving agent, and the
   sweep completes.
2. SIGSTOP an agent mid-cell (partition): its heartbeats stop, the lease
   expires and is re-granted under a bumped fencing token; on SIGCONT
   the zombie's late result is fenced (``accepted: false``) — the cell
   completes exactly once.
3. kill -9 the daemon mid-sweep with agents attached: the restart
   replays the journal, the agents reconnect by themselves, and the
   re-served sweep's result document is byte-identical to a plain
   single-host (local pool, no fleet) serve.
4. zero agents: a daemon with a local pool degrades gracefully to
   exactly the single-host behaviour; plus the ``serve
   clear-quarantine`` operator op, live and offline.

Usage: fleet_smoke.py [WORKDIR]
"""

import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
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


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def start_daemon(work, state, workers, port, **flags):
    args = [sys.executable, "-m", "repro.cli", "serve",
            "--state-dir", state, "--workers", str(workers),
            "--tcp", f"127.0.0.1:{port}"]
    for flag, value in flags.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    sock = os.path.join(state, "serve.sock")
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


def start_agent(work, name, port, **flags):
    args = [sys.executable, "-m", "repro.cli", "worker",
            "--connect", f"127.0.0.1:{port}", "--name", name,
            "--backoff", "0.2", "--max-backoff", "2.0"]
    for flag, value in flags.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    log = open(os.path.join(work, f"agent-{name}.log"), "ab")
    return subprocess.Popen(args, env=_env(), cwd=work,
                            stdout=log, stderr=log)


def stop(proc, sig=signal.SIGTERM, timeout=60):
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def wait_for(predicate, what, timeout=60):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


def fleet(client):
    return client.status().get("fleet") or {}


def counters(client):
    return client.status()["counters"]


def _lease_held_by(client, name):
    for w in fleet(client).get("workers", []):
        if w["worker_id"].startswith(name + "#") and w["leases"]:
            return w
    return None


def main(argv):
    work = os.path.abspath(argv[1] if len(argv) > 1
                           else tempfile.mkdtemp(prefix="fleet-smoke-"))
    os.makedirs(work, exist_ok=True)
    sleepy = [CellSpec(id=f"fleet slow {i}", fn="synthetic",
                       params={"sleep_s": 2.0, "value": float(i)},
                       base_seed=20 + i).to_record() for i in range(4)]

    print("== drill 1: kill -9 an agent mid-cell; leases revoke; "
          "the survivor finishes ==")
    port = _free_port()
    daemon, sock = start_daemon(work, "state1", 0, port, lease_s=5)
    client = ServeClient(socket_path=os.path.join(work, sock))
    victim = start_agent(work, "victim", port)
    survivor = start_agent(work, "survivor", port)
    wait_for(lambda: len(fleet(client).get("workers", [])) == 2,
             "both agents to connect")
    done = {}

    def submit_wait():
        done["rep"] = client.submit(sleepy)

    waiter = threading.Thread(target=submit_wait)
    waiter.start()
    wait_for(lambda: _lease_held_by(client, "victim"),
             "the victim agent to hold a lease")
    os.kill(victim.pid, signal.SIGKILL)
    victim.wait()
    waiter.join(timeout=180)
    assert not waiter.is_alive(), "fleet sweep never completed"
    rep = done["rep"]
    assert all(c["status"] == "ok" for c in rep["cells"]), rep
    c = counters(client)
    assert c["serve.fleet.disconnects"] >= 1, c
    assert c["serve.jobs.requeued"] >= 1, c
    assert c["serve.jobs.completed"] == len(sleepy), c
    print(f"   agent pid {victim.pid} SIGKILLed; "
          f"{c['serve.jobs.requeued']:g} lease(s) revoked and requeued; "
          "sweep completed on the survivor")

    print("== drill 2: SIGSTOP an agent (partition); lease expires and "
          "re-grants; the thawed zombie is fenced ==")
    lone = CellSpec(id="fleet partition", fn="synthetic",
                    params={"sleep_s": 2.5, "value": 9.0}, base_seed=31)
    stop(survivor)
    stop(daemon)
    port = _free_port()
    daemon, sock = start_daemon(work, "state2", 0, port, lease_s=1.5)
    client = ServeClient(socket_path=os.path.join(work, sock))
    zombie = start_agent(work, "zombie", port)
    wait_for(lambda: len(fleet(client).get("workers", [])) == 1,
             "the zombie agent to connect")
    done = {}
    waiter = threading.Thread(
        target=lambda: done.update(rep=client.submit([lone.to_record()])))
    waiter.start()
    wait_for(lambda: _lease_held_by(client, "zombie"),
             "the zombie to hold the lease")
    os.kill(zombie.pid, signal.SIGSTOP)  # the workproc child keeps going
    wait_for(lambda: counters(client)["serve.fleet.leases.expired"] >= 1,
             "the frozen agent's lease to expire", timeout=30)
    rescuer = start_agent(work, "rescuer", port)
    waiter.join(timeout=120)
    assert not waiter.is_alive(), "re-granted cell never completed"
    assert done["rep"]["cells"][0]["status"] == "ok", done["rep"]
    os.kill(zombie.pid, signal.SIGCONT)
    # The thawed agent delivers its stale result; the daemon must fence
    # it rather than double-commit.
    wait_for(lambda: counters(client)["serve.fleet.leases.fenced"] >= 1,
             "the zombie's stale result to be fenced", timeout=30)
    c = counters(client)
    assert c["serve.jobs.completed"] == 1, \
        f"the cell must complete exactly once: {c}"
    stop(zombie)
    stop(rescuer)
    stop(daemon)
    print(f"   lease expired after {1.5}s of silence, re-granted under a "
          "bumped token; the zombie's late result was fenced; "
          "exactly one commit")

    print("== drill 3: kill -9 the daemon under fleet load; agents "
          "reconnect; results byte-identical to a local serve ==")
    # Reference: a plain single-host serve (local pool, no agents).
    refport = _free_port()
    refd, refsock = start_daemon(work, "state3-local", 2, refport)
    ref = os.path.join(work, "local.json")
    sub = _cli(["submit", "table2", "--quick", "--socket", refsock,
                "--out", ref], env=_env(), cwd=work)
    assert sub.returncode == 0, (sub.stdout, sub.stderr)
    stop(refd)
    # The fleet run, interrupted by a daemon kill -9 mid-sweep.
    port = _free_port()
    daemon, sock = start_daemon(work, "state3", 0, port, lease_s=5)
    agents = [start_agent(work, f"fleet{i}", port) for i in range(2)]
    client = ServeClient(socket_path=os.path.join(work, sock))
    wait_for(lambda: len(fleet(client).get("workers", [])) == 2,
             "both fleet agents to connect")
    doomed = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "submit", "table2", "--quick",
         "--socket", sock, "--out", os.path.join(work, "doomed.json")],
        env=_env(), cwd=work,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    cache3 = os.path.join(work, "state3", "cache")
    wait_for(lambda: sum(len(fs) for _, _, fs in os.walk(cache3)) >= 3,
             "some cells to complete before the kill", timeout=120)
    daemon.send_signal(signal.SIGKILL)
    daemon.wait()
    doomed.wait(timeout=120)
    assert doomed.returncode != 0, "client must notice its daemon died"
    daemon, sock = start_daemon(work, "state3", 0, port, lease_s=5)
    client = ServeClient(socket_path=os.path.join(work, sock))
    replayed = counters(client)["serve.jobs.replayed"]
    wait_for(lambda: len(fleet(client).get("workers", [])) == 2,
             "the agents to reconnect to the restarted daemon")
    out = os.path.join(work, "fleet.json")
    sub = _cli(["submit", "table2", "--quick", "--socket", sock,
                "--out", out], env=_env(), cwd=work)
    assert sub.returncode == 0, (sub.stdout, sub.stderr)
    assert open(out, "rb").read() == open(ref, "rb").read(), \
        "fleet-served results must be byte-identical to a local serve"
    for agent in agents:
        stop(agent)
    stop(daemon)
    print(f"   daemon SIGKILLed mid-sweep (restart replayed {replayed}); "
          "agents reconnected unaided; fleet results byte-identical to "
          "the single-host serve")

    print("== drill 4: zero agents degrades to the local pool; "
          "clear-quarantine works live and offline ==")
    port = _free_port()
    daemon, sock = start_daemon(work, "state4", 2, port, max_attempts=2)
    client = ServeClient(socket_path=os.path.join(work, sock))
    rep = client.submit([CellSpec(id="no fleet", fn="synthetic",
                                  params={"value": 5.0},
                                  base_seed=40).to_record()])
    assert rep["cells"][0]["status"] == "ok", rep
    assert fleet(client).get("workers") == [], "no agents expected"
    poison = CellSpec(id="fleet poison", fn="synthetic",
                      params={"raise": "poisoned"}, base_seed=41)
    rep = client.submit([poison.to_record()])
    assert rep["cells"][0]["status"] == "quarantined", rep
    clear = _cli(["serve", "clear-quarantine", "--state-dir", "state4"],
                 env=_env(), cwd=work)
    assert clear.returncode == 0, (clear.stdout, clear.stderr)
    assert "cleared 1" in clear.stdout, clear.stdout
    rep = client.submit([poison.to_record()])
    assert rep["cells"][0]["status"] == "quarantined", rep
    assert rep["stats"]["submitted"] == 1, \
        "a cleared cell must re-enter the pool, not answer from quarantine"
    c = counters(client)
    assert c["serve.quarantine.cleared"] == 1, c
    stop(daemon)
    clear = _cli(["serve", "clear-quarantine", "--state-dir", "state4"],
                 env=_env(), cwd=work)
    assert clear.returncode == 0, (clear.stdout, clear.stderr)
    assert "offline" in clear.stdout, clear.stdout

    print("ok: agent kill revoked+requeued, partition expired+fenced with "
          "exactly-once commit, daemon crash replayed with byte-identical "
          "fleet results, zero-agent degradation + clear-quarantine")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
