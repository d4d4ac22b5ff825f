"""Lease semantics and fencing: the invariants that make the fleet safe.

Unit tests drive :class:`~repro.serve.fleet.FleetScheduler` with an
injected fake monotonic clock, so expiry is exact and instant.  The
end-to-end tests run a real daemon on a real TCP socket (port 0) and
speak the fleet protocol both through a real :class:`WorkerAgent` and
through a raw socket "zombie" worker that deliberately violates the
protocol's timing — the partition flow (lease expires while the holder
is frozen, the stale result comes back later and is fenced) without
needing SIGSTOP.
"""

import asyncio
import json
import socket
import statistics
import threading
import time

from repro.obs import MetricsRegistry
from repro.runx import CellSpec
from repro.runx.cells import run_cell
from repro.runx.chaos import PLAN_ENV, FaultPlan, FaultRule
from repro.serve import ServeClient, ServeConfig
from repro.serve import daemon as daemon_mod
from repro.serve.agent import AgentConfig, WorkerAgent
from repro.serve.daemon import ServeDaemon
from repro.serve.fleet import (EPOCH_STRIDE, FleetScheduler, WorkOrder,
                               next_fence_epoch)


def _spec(i=0, **params):
    return CellSpec(id=f"syn-{i}", fn="synthetic",
                    params={"value": float(i), **params}, base_seed=100 + i)


def _order(i=0):
    spec = _spec(i)
    return WorkOrder(spec.digest(), spec.to_record(), spec.base_seed)


class _Clock:
    """A hand-cranked monotonic clock."""

    def __init__(self):
        self.t = 1000.0

    def __call__(self):
        return self.t


def _sched(tmp_path, lease_s=10.0):
    clock = _Clock()
    metrics = MetricsRegistry()
    sched = FleetScheduler(str(tmp_path), lease_s=lease_s,
                           metrics=metrics, now=clock)
    return sched, clock, metrics


def _counter(metrics, name):
    return metrics.counter(name, "").value


# -- scheduler unit tests ------------------------------------------------------
def test_tokens_strictly_monotonic(tmp_path):
    sched, _, _ = _sched(tmp_path)
    worker = sched.register("w", "test")
    tokens = []
    for i in range(5):
        lease = sched.grant(worker.worker_id, _order(i))
        tokens.append(lease.token)
    assert tokens == sorted(tokens)
    assert len(set(tokens)) == len(tokens)


def test_stale_token_is_fenced_and_counted(tmp_path):
    sched, _, metrics = _sched(tmp_path)
    worker = sched.register("w", "test")
    order = _order(0)
    first = sched.grant(worker.worker_id, order)
    # Re-grant (as after expiry): the new lease's token must win.
    second = sched.grant(worker.worker_id, order)
    assert second.token > first.token
    assert sched.take(order.digest, first.token) is None, \
        "a result under the superseded token must never be committed"
    assert _counter(metrics, "serve.fleet.leases.fenced") == 1
    taken = sched.take(order.digest, second.token)
    assert taken is not None and taken.order is order
    # Once committed, even the current token is spent.
    assert sched.take(order.digest, second.token) is None


def test_lease_expires_on_heartbeat_loss_then_regrants(tmp_path):
    sched, clock, metrics = _sched(tmp_path, lease_s=5.0)
    worker = sched.register("w", "test")
    order = _order(0)
    lease = sched.grant(worker.worker_id, order)
    clock.t += 4.0
    assert sched.heartbeat(worker.worker_id, order.digest, lease.token)
    clock.t += 4.0  # renewed at +4, so still alive at +8
    assert sched.expire() == []
    clock.t += 5.5  # silent past the deadline now
    expired = sched.expire()
    assert [e.order for e in expired] == [order]
    assert _counter(metrics, "serve.fleet.leases.expired") == 1
    # The stale holder can neither renew nor commit...
    assert not sched.heartbeat(worker.worker_id, order.digest, lease.token)
    assert sched.take(order.digest, lease.token) is None
    # ...but a re-grant under a bumped token works.
    lease2 = sched.grant(worker.worker_id, order)
    assert lease2.token > lease.token
    assert sched.take(order.digest, lease2.token) is not None


def test_disconnect_revokes_all_held_leases(tmp_path):
    sched, _, metrics = _sched(tmp_path)
    worker = sched.register("w", "test")
    orders = [_order(i) for i in range(3)]
    leases = [sched.grant(worker.worker_id, o) for o in orders]
    revoked = sched.disconnect(worker.worker_id)
    assert sorted(o.digest for o in revoked) == \
        sorted(o.digest for o in orders)
    assert len(sched) == 0 and sched.workers() == 0
    for order, lease in zip(orders, leases):
        assert sched.take(order.digest, lease.token) is None
    assert _counter(metrics, "serve.fleet.disconnects") == 1


def test_fence_epoch_survives_restarts(tmp_path):
    """A post-restart scheduler's very first token beats every token the
    previous life ever granted — the cross-restart fencing invariant."""
    sched_a, _, _ = _sched(tmp_path)
    worker_a = sched_a.register("w", "test")
    last_old = None
    for i in range(3):
        last_old = sched_a.grant(worker_a.worker_id, _order(i)).token
    sched_b, _, metrics_b = _sched(tmp_path)  # "restarted" on same dir
    worker_b = sched_b.register("w", "test")
    first_new = sched_b.grant(worker_b.worker_id, _order(0)).token
    assert first_new > last_old
    assert first_new - last_old >= EPOCH_STRIDE - 3
    # And the old epoch's token is fenced by the new table.
    assert sched_b.take(_order(0).digest, last_old) is None
    assert _counter(metrics_b, "serve.fleet.leases.fenced") == 1


def test_fence_epoch_file_recovers_from_corruption(tmp_path):
    epoch = next_fence_epoch(str(tmp_path))
    assert next_fence_epoch(str(tmp_path)) == epoch + 1
    (tmp_path / "fleet.fence").write_text("not json")
    assert next_fence_epoch(str(tmp_path)) == 1  # wiped state restarts


# -- end-to-end over real sockets ----------------------------------------------
class _RawWorker:
    """A protocol-level worker under test control (blocking socket)."""

    def __init__(self, endpoint):
        self.sock = socket.create_connection(endpoint, timeout=30.0)
        self.fp = self.sock.makefile("rb")

    def req(self, obj):
        self.sock.sendall(json.dumps(obj).encode() + b"\n")
        return json.loads(self.fp.readline())

    def hello(self, proto=1, name="raw"):
        return self.req({"op": "worker-hello", "proto": proto, "name": name})

    def lease(self):
        return self.req({"op": "lease-request"})

    def result(self, digest, token, value):
        return self.req({"op": "worker-result", "digest": digest,
                         "token": token,
                         "result": {"ok": True, "value": value}})

    def close(self):
        self.fp.close()
        self.sock.close()


def _cfg(tmp_path, **kw):
    kw.setdefault("workers", 0)  # pure fleet: remote execution is forced
    kw.setdefault("tcp", ("127.0.0.1", 0))
    kw.setdefault("timeout_s", 60.0)
    return ServeConfig(state_dir=str(tmp_path / "state"), **kw)


async def _call(fn, *args, **kw):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, lambda: fn(*args, **kw))


def test_agent_runs_cells_end_to_end_pure_fleet(tmp_path):
    """--workers 0 + one connected agent: the sweep is computed entirely
    remotely and the payloads are byte-identical to in-process runs."""
    cfg = _cfg(tmp_path)
    specs = [_spec(i, reps=2) for i in range(3)]

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        agent = WorkerAgent(AgentConfig(connect=daemon.tcp_endpoint(),
                                        name="t1"))
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        try:
            client = ServeClient(socket_path=cfg.resolved_socket())
            rep = await _call(client.submit,
                              [s.to_record() for s in specs])
            assert all(c["status"] == "ok" for c in rep["cells"])
            for spec, cell in zip(specs, rep["cells"]):
                assert cell["value"] == run_cell(
                    spec.fn, spec.params, spec.base_seed)
            st = await _call(client.status)
            assert st["fleet"]["workers"], "agent should appear in status"
            assert st["workers"] == [], "no local agents at --workers 0"
        finally:
            agent.stop()
            await daemon.drain()
            await _call(thread.join, 10.0)

    asyncio.run(scenario())


def test_partition_flow_expiry_regrant_fence(tmp_path):
    """The SIGSTOP drill at protocol level: a worker takes a lease, goes
    silent past lease_s (frozen/partitioned), the daemon expires and
    re-grants it, and the zombie's late result is fenced — while the
    cell still completes exactly once with the correct value."""
    cfg = _cfg(tmp_path, lease_s=0.4)
    spec = _spec(0, reps=2)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        endpoint = daemon.tcp_endpoint()
        client = ServeClient(socket_path=cfg.resolved_socket())
        waiter = asyncio.ensure_future(
            _call(client.submit, [spec.to_record()]))

        zombie = await _call(_RawWorker, endpoint)
        assert (await _call(zombie.hello))["ok"]
        lease = None
        while lease is None:  # the submit may still be in flight
            rep = await _call(zombie.lease)
            lease = rep.get("lease")
            if lease is None:
                await asyncio.sleep(0.05)
        # Freeze: no heartbeats until well past the deadline.
        await asyncio.sleep(1.2)
        assert daemon.metrics.counter(
            "serve.fleet.leases.expired").value >= 1

        # A healthy worker picks up the re-grant and completes it.
        healthy = await _call(_RawWorker, endpoint)
        assert (await _call(healthy.hello, 1, "healthy"))["ok"]
        regrant = None
        while regrant is None:
            rep = await _call(healthy.lease)
            regrant = rep.get("lease")
            if regrant is None:
                await asyncio.sleep(0.05)
        assert regrant["digest"] == lease["digest"]
        assert regrant["token"] > lease["token"]
        good = run_cell(spec.fn, spec.params, spec.base_seed)
        rep = await _call(healthy.result, regrant["digest"],
                          regrant["token"], good)
        assert rep["accepted"] is True

        # The zombie thaws and delivers garbage under the dead token:
        # fenced, never committed.
        rep = await _call(zombie.result, lease["digest"], lease["token"],
                          {"poisoned": True})
        assert rep["accepted"] is False
        assert daemon.metrics.counter(
            "serve.fleet.leases.fenced").value >= 1

        out = await waiter
        assert out["cells"][0]["status"] == "ok"
        assert out["cells"][0]["value"] == good
        await _call(zombie.close)
        await _call(healthy.close)
        await daemon.drain()

    asyncio.run(scenario())


def test_disconnect_mid_lease_requeues_to_a_local_agent(tmp_path):
    """A vanished connection is an instant failure detection: the lease
    is revoked and the cell's retry completes on the daemon's own
    agent."""
    cfg = _cfg(tmp_path, workers=1, lease_s=30.0)
    spec = _spec(0, reps=2)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        endpoint = daemon.tcp_endpoint()
        worker = await _call(_RawWorker, endpoint)
        assert (await _call(worker.hello))["ok"]
        # Parked before the local agent's worker has booted, so this
        # request is first in the FIFO of waiting lease requests.
        parked = asyncio.ensure_future(_call(worker.lease))
        await asyncio.sleep(0.05)
        client = ServeClient(socket_path=cfg.resolved_socket())
        waiter = asyncio.ensure_future(
            _call(client.submit, [spec.to_record()]))
        lease = (await parked)["lease"]
        assert lease is not None and lease["digest"] == spec.digest()
        await _call(worker.close)  # hang up holding the lease
        out = await waiter
        assert out["cells"][0]["status"] == "ok"
        assert out["cells"][0]["value"] == run_cell(
            spec.fn, spec.params, spec.base_seed)
        assert out["cells"][0]["attempts"] == 2, \
            "the revoked lease must count as a failed attempt"
        assert daemon.metrics.counter("serve.jobs.requeued").value >= 1
        await daemon.drain()

    asyncio.run(scenario())


def test_daemon_restart_fences_old_epoch_and_replays_lease(tmp_path):
    """kill -9 with a lease outstanding: the successor replays the job
    from the durable queue, and the pre-restart token is fenced."""
    cfg = _cfg(tmp_path, lease_s=30.0)
    spec = _spec(0, reps=2)

    async def scenario():
        daemon_a = ServeDaemon(cfg)
        await daemon_a.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        await _call(client.submit, [spec.to_record()], False)
        worker = await _call(_RawWorker, daemon_a.tcp_endpoint())
        assert (await _call(worker.hello))["ok"]
        lease = (await _call(worker.lease))["lease"]
        assert lease is not None
        # Simulate kill -9: tear the daemon down without drain.
        await _call(worker.close)
        for server in daemon_a._servers:
            server.close()
            await server.wait_closed()
        daemon_a._lease_reaper_task.cancel()
        daemon_a._lock.release()

        daemon_b = ServeDaemon(cfg)
        await daemon_b.start()
        assert daemon_b.metrics.counter("serve.jobs.replayed").value == 1, \
            "the leased-but-unfinished job must be owed by the successor"
        zombie = await _call(_RawWorker, daemon_b.tcp_endpoint())
        assert (await _call(zombie.hello, 1, "zombie"))["ok"]
        rep = await _call(zombie.result, lease["digest"], lease["token"],
                          {"poisoned": True})
        assert rep["accepted"] is False, \
            "a pre-restart token must be fenced by the new epoch"
        # The replayed job completes under the new epoch.
        fresh = None
        while fresh is None:
            rep = await _call(zombie.lease)
            fresh = rep.get("lease")
            if fresh is None:
                await asyncio.sleep(0.05)
        assert fresh["digest"] == lease["digest"]
        assert fresh["token"] > lease["token"]
        good = run_cell(spec.fn, spec.params, spec.base_seed)
        assert (await _call(zombie.result, fresh["digest"], fresh["token"],
                            good))["accepted"] is True
        rep = await _call(client.submit, [spec.to_record()])
        assert rep["cells"][0]["value"] == good
        assert rep["cells"][0].get("cached") is True
        await _call(zombie.close)
        await daemon_b.drain()

    asyncio.run(scenario())


def test_hello_refuses_unknown_proto(tmp_path):
    cfg = _cfg(tmp_path)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        worker = await _call(_RawWorker, daemon.tcp_endpoint())
        rep = await _call(worker.hello, 99)
        assert rep["ok"] is False and rep["error"] == "bad-request"
        # And fleet ops without a hello are refused too.
        rep = await _call(worker.lease)
        assert rep["ok"] is False and rep["error"] == "bad-request"
        await _call(worker.close)
        await daemon.drain()

    asyncio.run(scenario())


def _start_agent(endpoint, name="t1"):
    agent = WorkerAgent(AgentConfig(connect=endpoint, name=name))
    thread = threading.Thread(target=agent.run, daemon=True)
    thread.start()
    return agent, thread


async def _until_idle(agent, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not (agent.state == "idle" and agent.worker_id):
        assert time.monotonic() < deadline, "agent never went idle"
        await asyncio.sleep(0.02)


def test_idle_agent_picks_up_a_fresh_cell_at_once(tmp_path):
    """An idle agent's lease-request is parked on the queue, so a cell
    submitted right after the previous one finished starts at once; with
    the old "no lease, retry in 0.5 s" reply each of these submits
    waited out that poll."""
    cfg = _cfg(tmp_path)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        agent, thread = _start_agent(daemon.tcp_endpoint())
        try:
            await _until_idle(agent)
            client = ServeClient(socket_path=cfg.resolved_socket())
            latencies = []
            for i in range(5):
                t0 = time.monotonic()
                rep = await _call(client.submit, [_spec(i).to_record()])
                latencies.append(time.monotonic() - t0)
                assert rep["cells"][0]["status"] == "ok"
            assert statistics.median(latencies) < 0.25, latencies
        finally:
            agent.stop()
            await daemon.drain()
            await _call(thread.join, 10.0)

    asyncio.run(scenario())


def test_timed_out_long_poll_leaves_the_queue_intact(tmp_path, monkeypatch):
    """A lease-request that waits out the long-poll bound answers "no
    lease" and takes nothing with it: cells queued afterwards are all
    granted, in queue order."""
    monkeypatch.setattr(daemon_mod, "LEASE_POLL_S", 0.2)
    cfg = _cfg(tmp_path)
    specs = [_spec(i) for i in range(3)]

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        worker = await _call(_RawWorker, daemon.tcp_endpoint())
        assert (await _call(worker.hello))["ok"]
        t0 = time.monotonic()
        rep = await _call(worker.lease)
        assert rep == {"ok": True, "lease": None}
        assert time.monotonic() - t0 >= 0.15, "the request must wait"
        assert not daemon._parked
        client = ServeClient(socket_path=cfg.resolved_socket())
        await _call(client.submit, [s.to_record() for s in specs], False)
        assert (await _call(client.status))["queued"] == len(specs)
        for spec in specs:
            lease = (await _call(worker.lease))["lease"]
            assert lease["digest"] == spec.digest()
            good = run_cell(spec.fn, spec.params, spec.base_seed)
            assert (await _call(worker.result, lease["digest"],
                                lease["token"], good))["accepted"]
        assert (await _call(client.status))["queued"] == 0
        await _call(worker.close)
        await daemon.drain()

    asyncio.run(scenario())


def test_remote_agent_watchdog_kill_counts_a_timeout(tmp_path, monkeypatch):
    """The daemon counts what a remote agent's supervisor did: a hung
    cell killed by the lease's watchdog is a serve.jobs.timeouts and a
    worker restart, exactly as for the daemon's own agents."""
    spec = _spec(0)
    plan = tmp_path / "plan.json"
    FaultPlan([FaultRule(match=spec.id, fault="hang", attempts=(0,),
                         hang_s=60.0)]).write(str(plan))
    monkeypatch.setenv(PLAN_ENV, str(plan))
    cfg = _cfg(tmp_path, timeout_s=1.5)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        agent, thread = _start_agent(daemon.tcp_endpoint())
        try:
            client = ServeClient(socket_path=cfg.resolved_socket())
            rep = await _call(client.submit, [spec.to_record()])
            cell = rep["cells"][0]
            assert cell["status"] == "ok" and cell["attempts"] == 2
            counters = (await _call(client.status))["counters"]
            assert counters["serve.jobs.timeouts"] == 1, counters
            assert counters["serve.workers.restarts"] == 1, counters
            assert counters["serve.workers.hb_lost"] == 0, counters
            assert counters["serve.workers.spawned"] == 2, counters
        finally:
            agent.stop()
            await daemon.drain()
            await _call(thread.join, 10.0)

    asyncio.run(scenario())
