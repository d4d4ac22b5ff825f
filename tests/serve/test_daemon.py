"""End-to-end daemon behaviour over a real unix socket and real worker
subprocesses: caching, coalescing, retry-on-kill, quarantine, replay,
backpressure, drain, and the single-daemon lock.

Cells are ``synthetic`` (pure function of params + seed, no simulation),
so every test's assertion about byte-identity is exact, and chaos plans
(``$REPRO_CHAOS_PLAN``) inject the infrastructure failures.
"""

import asyncio
import json
import os
import signal
import time

import pytest

from repro.runx import CellSpec, LockHeldError
from repro.runx.cells import run_cell
from repro.runx.chaos import PLAN_ENV, FaultPlan, FaultRule
from repro.serve import ServeClient, ServeConfig, ServeError
from repro.serve.daemon import EST_CELL_S, ServeDaemon
from repro.serve.queue import DurableQueue


def _spec(i=0, **params):
    return CellSpec(id=f"syn-{i}", fn="synthetic",
                    params={"value": float(i), **params}, base_seed=100 + i)


def _cfg(tmp_path, **kw):
    kw.setdefault("workers", 1)
    kw.setdefault("timeout_s", 60.0)
    kw.setdefault("hb_timeout_s", 10.0)
    return ServeConfig(state_dir=str(tmp_path / "state"), **kw)


async def _call(client, fn, *args, **kw):
    """Run a blocking client call off the event loop thread."""
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, lambda: fn(*args, **kw))


def _submit_records(specs):
    return [s.to_record() for s in specs]


def _counter(daemon, name):
    return daemon.metrics.counter(name).value


def _worker_rows(daemon):
    """The status rows of the daemon's own agents."""
    return daemon._op_status()["workers"]


async def _busy_pid(daemon, timeout_s=30.0):
    """The worker pid of the first local agent once it is running a job."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        row = _worker_rows(daemon)[0]
        if row["state"] == "busy" and row["pid"]:
            return row["pid"]
        await asyncio.sleep(0.02)
    raise AssertionError("no worker ever went busy")


def test_submit_computes_then_serves_from_cache(tmp_path):
    cfg = _cfg(tmp_path, workers=2)
    specs = [_spec(i, reps=2) for i in range(4)]

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        rep1 = await _call(client, client.submit, _submit_records(specs))
        assert rep1["stats"] == {"cached": 0, "coalesced": 0,
                                 "submitted": 4, "quarantined": 0}
        assert all(c["status"] == "ok" for c in rep1["cells"])
        # the values are exactly what an in-process run produces
        for spec, cell in zip(specs, rep1["cells"]):
            assert cell["value"] == run_cell(
                spec.fn, spec.params, spec.base_seed)
        completed = _counter(daemon, "serve.jobs.completed")
        rep2 = await _call(client, client.submit, _submit_records(specs))
        assert rep2["stats"]["cached"] == 4
        assert _counter(daemon, "serve.jobs.completed") == completed, \
            "a fully cached resubmission must not recompute anything"
        assert ([c["value"] for c in rep1["cells"]]
                == [c["value"] for c in rep2["cells"]])
        await daemon.drain()

    asyncio.run(scenario())


def test_submit_enqueues_largest_first_and_replies_in_submit_order(
        tmp_path):
    """A mixed-size NAS submit is journaled and queued largest-first (one
    worker, so completion order is queue order); the reply keeps the
    submit's own order."""
    cfg = _cfg(tmp_path)
    sizes = [(1, 1), (2, 1), (1, 4), (4, 4), (2, 2)]  # (nodes, rpn)
    specs = [CellSpec(id=f"ep {n}x{r}", fn="nas",
                      params={"bench": "EP", "cls": "A", "nodes": n,
                              "rpn": r, "smm": 0, "reps": 1},
                      base_seed=1 + i)
             for i, (n, r) in enumerate(sizes)]
    largest_first = ["ep 4x4", "ep 1x4", "ep 2x2", "ep 2x1", "ep 1x1"]
    by_digest = {s.digest(): s.id for s in specs}

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        rep = await _call(client, client.submit, _submit_records(specs))
        assert [c["id"] for c in rep["cells"]] == [s.id for s in specs]
        assert all(c["status"] == "ok" for c in rep["cells"])
        # read before the drain compacts the journal away
        with open(os.path.join(cfg.state_dir, "queue.jsonl")) as fp:
            records = [json.loads(line) for line in fp]
        await daemon.drain()
        for kind in ("job", "done"):
            assert [by_digest[r["id"]] for r in records
                    if r["kind"] == kind] == largest_first, kind

    asyncio.run(scenario())


def test_zero_smi_cell_is_served_from_cache_at_another_seed(tmp_path):
    """A zero-SMI NAS cell's digest leaves out its seed: the same cell at
    seed 2 is a cache hit on the seed-1 result, byte for byte.  A noisy
    cell keeps its seed and is computed afresh."""
    cfg = _cfg(tmp_path)
    ep = {"bench": "EP", "cls": "A", "nodes": 1, "rpn": 1, "reps": 1}

    def spec(smm, seed):
        return CellSpec(id=f"EP.A n=1 smm={smm}", fn="nas",
                        params={**ep, "smm": smm}, base_seed=seed)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        first = await _call(client, client.submit,
                            _submit_records([spec(0, 1)]))
        again = await _call(client, client.submit,
                            _submit_records([spec(0, 2), spec(1, 2)]))
        await daemon.drain()
        assert first["stats"]["submitted"] == 1
        assert again["stats"] == {"cached": 1, "coalesced": 0,
                                  "submitted": 1, "quarantined": 0}
        zero, noisy = again["cells"]
        assert zero["cached"] and not noisy.get("cached")
        assert (json.dumps(zero["value"], sort_keys=True)
                == json.dumps(first["cells"][0]["value"], sort_keys=True))
        assert noisy["status"] == "ok"
        assert _counter(daemon, "serve.jobs.completed") == 2

    asyncio.run(scenario())


def test_identical_inflight_submissions_coalesce(tmp_path):
    cfg = _cfg(tmp_path)
    spec = _spec(0, sleep_s=0.8)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        a = asyncio.ensure_future(
            _call(client, client.submit, _submit_records([spec])))
        # second identical submission lands while the first computes
        await asyncio.sleep(0.2)
        b = asyncio.ensure_future(
            _call(client, client.submit, _submit_records([spec])))
        rep_a, rep_b = await asyncio.gather(a, b)
        stats = [rep_a["stats"], rep_b["stats"]]
        assert sorted(s["submitted"] for s in stats) == [0, 1]
        assert sorted(s["coalesced"] for s in stats) == [0, 1]
        assert rep_a["cells"][0]["value"] == rep_b["cells"][0]["value"]
        assert _counter(daemon, "serve.jobs.completed") == 1
        await daemon.drain()

    asyncio.run(scenario())


def test_killed_worker_retried_same_seed_byte_identical(tmp_path, monkeypatch):
    """Chaos SIGKILLs the worker on attempt 0; the retry must succeed
    and — because serve retries reuse the same seed — produce exactly
    the value an uninterrupted run would have."""
    spec = _spec(0, reps=3)
    plan = tmp_path / "plan.json"
    FaultPlan([FaultRule(match=spec.id, fault="kill",
                         attempts=(0,))]).write(str(plan))
    monkeypatch.setenv(PLAN_ENV, str(plan))
    cfg = _cfg(tmp_path)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        rep = await _call(client, client.submit, _submit_records([spec]))
        cell = rep["cells"][0]
        assert cell["status"] == "ok"
        assert cell["attempts"] == 2
        assert cell["value"] == run_cell(spec.fn, spec.params, spec.base_seed)
        assert _counter(daemon, "serve.jobs.requeued") == 1
        assert _counter(daemon, "serve.workers.restarts") >= 1
        await daemon.drain()

    asyncio.run(scenario())


def test_hung_cell_killed_by_watchdog_then_retried(tmp_path, monkeypatch):
    plan = tmp_path / "plan.json"
    spec = _spec(0)
    FaultPlan([FaultRule(match=spec.id, fault="hang", attempts=(0,),
                         hang_s=60.0)]).write(str(plan))
    monkeypatch.setenv(PLAN_ENV, str(plan))
    cfg = _cfg(tmp_path, timeout_s=2.0, hb_timeout_s=5.0)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        rep = await _call(client, client.submit, _submit_records([spec]))
        assert rep["cells"][0]["status"] == "ok"
        assert rep["cells"][0]["attempts"] == 2
        assert _counter(daemon, "serve.jobs.timeouts") == 1
        await daemon.drain()

    asyncio.run(scenario())


def test_frozen_worker_killed_on_heartbeat_silence_then_retried(tmp_path):
    """SIGSTOP freezes the whole interpreter, heartbeat thread included:
    the agent kills it after hb_timeout_s of silence (the lease's
    silence_s), well inside the watchdog, and the retry on a fresh
    worker succeeds."""
    cfg = _cfg(tmp_path, hb_timeout_s=1.5)
    spec = _spec(0, sleep_s=3.0)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        sub = asyncio.ensure_future(
            _call(client, client.submit, _submit_records([spec])))
        os.kill(await _busy_pid(daemon), signal.SIGSTOP)
        rep = await sub
        cell = rep["cells"][0]
        assert cell["status"] == "ok"
        assert cell["attempts"] == 2
        assert _counter(daemon, "serve.workers.hb_lost") == 1
        assert _counter(daemon, "serve.jobs.timeouts") == 0
        await daemon.drain()

    asyncio.run(scenario())


def test_corrupt_worker_output_counted_then_retried(tmp_path, monkeypatch):
    """Chaos 'corrupt' prints a garbage line instead of a result and
    exits 0: the line is counted, the attempt is an infra failure, and
    the same-seed retry is byte-identical to a clean run."""
    spec = _spec(0, reps=3)
    plan = tmp_path / "plan.json"
    FaultPlan([FaultRule(match=spec.id, fault="corrupt",
                         attempts=(0,))]).write(str(plan))
    monkeypatch.setenv(PLAN_ENV, str(plan))
    cfg = _cfg(tmp_path)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        rep = await _call(client, client.submit, _submit_records([spec]))
        cell = rep["cells"][0]
        assert cell["status"] == "ok"
        assert cell["attempts"] == 2
        assert cell["value"] == run_cell(spec.fn, spec.params, spec.base_seed)
        assert _counter(daemon, "serve.protocol.garbage") >= 1
        assert _counter(daemon, "serve.jobs.requeued") == 1
        await daemon.drain()

    asyncio.run(scenario())


def test_agent_stop_kills_a_hung_cell_in_flight(tmp_path, monkeypatch):
    """Stopping the daemon's agents never waits out a hung cell: the busy
    worker is killed and reaped, so the stop returns promptly."""
    spec = _spec(0)
    plan = tmp_path / "plan.json"
    FaultPlan([FaultRule(match=spec.id, fault="hang", attempts=(0,),
                         hang_s=60.0)]).write(str(plan))
    monkeypatch.setenv(PLAN_ENV, str(plan))
    cfg = _cfg(tmp_path)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        await _call(client, client.submit, _submit_records([spec]),
                    wait=False)
        pid = await _busy_pid(daemon)
        t0 = time.monotonic()
        await daemon._stop_agents()
        assert time.monotonic() - t0 < 2.5
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        assert all(row["state"] == "stopped" and row["pid"] is None
                   for row in _worker_rows(daemon))
        # the job is still owed: tear down without a drain, as a kill would
        for server in daemon._servers:
            server.close()
            await server.wait_closed()
        daemon._lease_reaper_task.cancel()
        daemon._lock.release()

    asyncio.run(scenario())


def test_poisoned_cell_quarantined_without_killing_the_pool(tmp_path):
    cfg = _cfg(tmp_path, max_attempts=2)
    bad = CellSpec(id="bad", fn="synthetic",
                   params={"raise": "boom"}, base_seed=1)
    good = _spec(1)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        rep = await _call(client, client.submit,
                          _submit_records([bad, good]))
        by_id = {c["id"]: c for c in rep["cells"]}
        assert by_id["bad"]["status"] == "quarantined"
        assert by_id["bad"]["attempts"] == 2
        assert "boom" in by_id["bad"]["error"]
        assert by_id["syn-1"]["status"] == "ok", \
            "a poisoned cell must not take the pool down with it"
        # resubmission answers from the circuit breaker, no recompute
        requeued = _counter(daemon, "serve.jobs.requeued")
        rep2 = await _call(client, client.submit, _submit_records([bad]))
        assert rep2["cells"][0]["status"] == "quarantined"
        assert rep2["stats"]["quarantined"] == 1
        assert _counter(daemon, "serve.jobs.requeued") == requeued
        await daemon.drain()
        # ... and the quarantine record survives the daemon
        state = DurableQueue(
            os.path.join(cfg.state_dir, "queue.jsonl")).replay()
        assert bad.digest() in state.quarantined

    asyncio.run(scenario())


def test_saturated_submit_refused_with_retry_after(tmp_path):
    cfg = _cfg(tmp_path, max_pending=1)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        slow = _spec(0, sleep_s=1.5)
        await _call(client, client.submit, _submit_records([slow]),
                    wait=False)
        with pytest.raises(ServeError) as exc:
            await _call(client, client.submit,
                        _submit_records([_spec(1), _spec(2)]))
        assert exc.value.code == "saturated"
        # one cell outstanding plus two refused, over one worker
        assert exc.value.retry_after == pytest.approx(3 * EST_CELL_S)
        assert _counter(daemon, "serve.rejected.saturated") == 1
        # nothing about the refused submit was accepted
        assert len(daemon._inflight) == 1
        await daemon.drain()

    asyncio.run(scenario())


def test_draining_daemon_refuses_new_work_then_finishes(tmp_path):
    cfg = _cfg(tmp_path)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        slow = _spec(0, sleep_s=1.2)
        await _call(client, client.submit, _submit_records([slow]),
                    wait=False)
        rep = await _call(client, client.drain)
        assert rep["draining"] is True
        with pytest.raises(ServeError) as exc:
            await _call(client, client.submit, _submit_records([_spec(1)]))
        assert exc.value.code == "draining"
        await daemon.wait_stopped()
        # the in-flight cell was finished, cached, and acked
        assert daemon.cache.get(slow) is not None
        state = DurableQueue(
            os.path.join(cfg.state_dir, "queue.jsonl")).replay()
        assert state.pending == {}

    asyncio.run(scenario())


def test_boot_replays_accepted_jobs_from_journal(tmp_path):
    """Jobs fsync'd by a daemon that was kill -9'd are owed: a fresh
    daemon on the same state dir must complete them."""
    cfg = _cfg(tmp_path, workers=2)
    specs = [_spec(i) for i in range(3)]
    os.makedirs(cfg.state_dir)
    journal = DurableQueue(os.path.join(cfg.state_dir, "queue.jsonl"))
    for s in specs:
        journal.record_job(s.digest(), s.to_record())

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        assert _counter(daemon, "serve.jobs.replayed") == 3
        # a waiting resubmission coalesces onto the replayed jobs
        client = ServeClient(socket_path=cfg.resolved_socket())
        rep = await _call(client, client.submit, _submit_records(specs))
        assert all(c["status"] == "ok" for c in rep["cells"])
        assert rep["stats"]["submitted"] == 0
        for spec, cell in zip(specs, rep["cells"]):
            assert cell["value"] == run_cell(
                spec.fn, spec.params, spec.base_seed)
        await daemon.drain()
        state = journal.replay()
        assert state.pending == {}

    asyncio.run(scenario())


def test_boot_replay_completes_from_cache_without_recompute(tmp_path):
    """The write-then-ack crash window: cache entry written, done record
    not.  Replay must ack from the cache, not recompute."""
    cfg = _cfg(tmp_path)
    spec = _spec(0)
    os.makedirs(cfg.state_dir)
    journal = DurableQueue(os.path.join(cfg.state_dir, "queue.jsonl"))
    journal.record_job(spec.digest(), spec.to_record())
    from repro.serve.cache import ResultCache

    ResultCache(os.path.join(cfg.state_dir, "cache")).put(
        spec, run_cell(spec.fn, spec.params, spec.base_seed))

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        assert _counter(daemon, "serve.jobs.replayed") == 0
        assert _counter(daemon, "serve.jobs.completed") == 0
        client = ServeClient(socket_path=cfg.resolved_socket())
        rep = await _call(client, client.submit, _submit_records([spec]))
        assert rep["cells"][0]["status"] == "ok"
        assert rep["stats"]["cached"] == 1
        await daemon.drain()

    asyncio.run(scenario())


def test_second_daemon_on_same_state_dir_fails_fast(tmp_path):
    cfg = _cfg(tmp_path)

    async def scenario():
        first = ServeDaemon(cfg)
        await first.start()
        second = ServeDaemon(ServeConfig(
            state_dir=cfg.state_dir,
            socket_path=str(tmp_path / "other.sock")))
        with pytest.raises(LockHeldError):
            await second.start()
        await first.drain()

    asyncio.run(scenario())


def test_malformed_submissions_rejected_typed(tmp_path):
    cfg = _cfg(tmp_path)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        with pytest.raises(ServeError) as exc:
            await _call(client, client.submit, [])
        assert exc.value.code == "bad-request"
        with pytest.raises(ServeError) as exc:
            await _call(client, client.submit, [{"fn": "synthetic"}])
        assert exc.value.code == "bad-request"
        with pytest.raises(ServeError) as exc:
            await _call(client, client.request, {"op": "frobnicate"})
        assert exc.value.code == "bad-request"
        await daemon.drain()

    asyncio.run(scenario())


def test_status_and_metrics_ops(tmp_path):
    cfg = _cfg(tmp_path, workers=2)

    async def scenario():
        daemon = ServeDaemon(cfg)
        await daemon.start()
        client = ServeClient(socket_path=cfg.resolved_socket())
        await _call(client, client.submit, _submit_records([_spec(0)]))
        st = await _call(client, client.status)
        assert st["inflight"] == 0 and not st["draining"]
        assert len(st["workers"]) == 2
        assert st["cache"]["entries"] == 1
        assert st["counters"]["serve.jobs.completed"] == 1
        prom = await _call(client, client.metrics)
        assert "repro_serve_jobs_completed_total 1" in prom
        await daemon.drain()

    asyncio.run(scenario())
