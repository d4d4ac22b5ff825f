"""Chrome-trace export: schema, ordering, and exact SMM re-encoding."""

import io
import json

from repro.apps.nas.params import NasClass
from repro.apps.nas.study import NasConfig, run_nas_config
from repro.obs.trace import (
    TID_CTR,
    TID_NET,
    TID_SMM,
    TID_WAIT_BASE,
    chrome_trace_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.simx.timeline import Timeline


def _traced_quick_run(smm=2, seed=7):
    """The `repro-smm trace --quick` scenario, kept in-process so the
    test can also query the timeline directly."""
    tl = Timeline()
    cfg = NasConfig("EP", NasClass.A, nodes=2, ranks_per_node=1)
    elapsed = run_nas_config(cfg, smm=smm, seed=seed, timeline=tl, trace=True)
    assert elapsed is not None
    return tl


def test_synthetic_smm_pairing_and_exact_durations():
    tl = Timeline()
    tl.record(100, "smm.enter", "node0", cause="tick")
    tl.record(250, "smm.exit", "node0")
    tl.record(400, "smm.enter", "node0")
    tl.record(1000, "smm.exit", "node0")
    tl.record(2000, "smm.enter", "node0")  # unclosed: must be dropped
    evs = [e for e in chrome_trace_events(tl) if e.get("ph") == "X"]
    assert len(evs) == 2
    assert [e["args"]["duration_ns"] for e in evs] == [150, 600]
    assert evs[0]["args"]["enter_ns"] == 100
    assert evs[0]["args"]["exit_ns"] == 250
    assert evs[0]["args"]["cause"] == "tick"  # enter payload re-encoded
    assert all(e["tid"] == TID_SMM for e in evs)
    # display fields are the same spans in µs
    assert evs[0]["ts"] == 0.1 and evs[0]["dur"] == 0.15


def test_node_filter_and_metadata_labels():
    tl = Timeline()
    tl.record(0, "smm.enter", "node0")
    tl.record(10, "smm.exit", "node0")
    tl.record(0, "smm.enter", "ghost")
    tl.record(10, "smm.exit", "ghost")
    evs = chrome_trace_events(tl, nodes=["node0", "node1"])
    names = {e["args"]["name"] for e in evs if e["name"] == "process_name"}
    assert names == {"node0", "node1"}
    assert not any(
        e.get("args", {}).get("name") == "ghost" for e in evs
    )
    smm = [e for e in evs if e.get("ph") == "X"]
    assert len(smm) == 1 and smm[0]["pid"] == 0
    thread = [e for e in evs if e["name"] == "thread_name"]
    assert any(t["args"]["name"] == "SMM" for t in thread)


def test_flow_events_connect_sender_and_receiver():
    tl = Timeline()
    tl.record(100, "net.send", "node0", id=1, nbytes=64, dst_node="node1")
    tl.record(900, "net.deliver", "node1", id=1, nbytes=64,
              src_node="node0", sent_ns=100)
    evs = chrome_trace_events(tl)
    phases = {e["ph"] for e in evs if e.get("cat") == "net"}
    assert {"s", "f", "X"} <= phases
    span = [e for e in evs if e.get("ph") == "X" and e["name"].startswith("msg")]
    assert span[0]["args"]["latency_ns"] == 800
    assert span[0]["tid"] == TID_NET
    flow_ids = {e.get("id") for e in evs if e["ph"] in ("s", "f")}
    assert flow_ids == {1}


def test_golden_trace_document_shape_and_monotonic_ts(tmp_path):
    """Golden-file test on the real --quick scenario: document schema,
    sorted timestamps, and integer pids with name metadata."""
    tl = _traced_quick_run()
    out = tmp_path / "quick.trace.json"
    n = write_chrome_trace(tl, str(out), nodes=["node0", "node1"],
                           extra={"seed": 7})
    doc = json.loads(out.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"] == {"seed": 7}
    evs = doc["traceEvents"]
    assert len(evs) == n and n > 0
    body = [e for e in evs if e["ph"] != "M"]
    ts = [e["ts"] for e in body]
    assert ts == sorted(ts)
    assert all(isinstance(e["pid"], int) for e in evs)
    for e in body:
        assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(e)


def test_smm_duration_events_equal_residency_exactly():
    """Acceptance criterion: per-node summed args.duration_ns from the
    exported trace equals the timeline's SMM residency *exactly* — the
    exporter re-encodes the integer spans, never re-derives them."""
    tl = _traced_quick_run()
    t1 = max(r.time for r in tl) + 1
    evs = chrome_trace_events(tl, nodes=["node0", "node1"])
    for pid, node in enumerate(["node0", "node1"]):
        trace_total = sum(
            e["args"]["duration_ns"]
            for e in evs
            if e.get("ph") == "X" and e.get("name") == "SMM"
            and e["pid"] == pid
        )
        ivals = tl.intervals("smm.enter", "smm.exit", where=node)
        truth = Timeline.total_overlap(ivals, 0, t1)
        assert trace_total == truth  # exact integer equality
        assert trace_total > 0  # the scenario really had long SMIs


def test_write_jsonl_round_trip_and_kind_filter():
    tl = _traced_quick_run()
    buf = io.StringIO()
    n = write_jsonl(tl, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == n == len(tl)
    recs = [json.loads(l) for l in lines]
    assert all({"time", "kind", "where", "data"} == set(r) for r in recs)

    buf2 = io.StringIO()
    n_smm = write_jsonl(tl, buf2, kinds=["smm."])
    assert 0 < n_smm < n
    assert all(
        json.loads(l)["kind"].startswith("smm.")
        for l in buf2.getvalue().splitlines()
    )


def test_wait_slices_and_counter_tracks():
    tl = Timeline()
    tl.record(100, "smm.enter", "node0")
    tl.record(300, "smm.exit", "node0")
    tl.record(500, "mpi.wait", "node0", rank=0, lrank=0,
              begin_ns=200, dur_ns=300, cls="p2p", src=1)
    tl.record(900, "mpi.wait", "node0", rank=0, lrank=0,
              begin_ns=700, dur_ns=200, cls="coll", src=-1)
    evs = chrome_trace_events(tl)
    waits = [e for e in evs if e.get("cat") == "mpi"]
    assert [e["name"] for e in waits] == ["wait:p2p", "wait:coll"]
    assert waits[0]["tid"] == TID_WAIT_BASE
    assert waits[0]["ts"] == 0.2 and waits[0]["dur"] == 0.3
    assert waits[0]["args"]["duration_ns"] == 300
    # Counter tracks: cumulative SMM residency and per-rank wait time.
    ctrs = [e for e in evs if e.get("ph") == "C"]
    assert all(e["tid"] == TID_CTR for e in ctrs)
    by_name = {}
    for e in ctrs:
        by_name.setdefault(e["name"], []).append(e["args"]["ms"])
    assert by_name["SMM residency (ms)"] == [200 / 1e6]
    assert by_name["MPI wait r0 (ms)"] == [300 / 1e6, 500 / 1e6]
    # The wait track is labeled with its rank.
    labels = {e["args"]["name"] for e in evs if e.get("name") == "thread_name"}
    assert "rank 0 wait" in labels and "counters" in labels


def test_traced_run_carries_wait_slices():
    tl = _traced_quick_run(smm=2)
    evs = chrome_trace_events(tl)
    waits = [e for e in evs if e.get("cat") == "mpi"]
    assert waits, "trace=True runs must record mpi.wait spans"
    # Every slice re-encodes its exact span and lands on a wait track.
    for e in waits:
        assert e["tid"] >= TID_WAIT_BASE
        assert e["args"]["duration_ns"] == e["args"]["dur_ns"]
