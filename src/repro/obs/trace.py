"""Timeline → Chrome Trace Format / Perfetto JSON, and JSONL streaming.

The exporter **re-encodes, never re-derives**: every SMM duration event
carries the exact integer nanosecond span between the matched
``smm.enter``/``smm.exit`` timeline records in ``args.duration_ns``, so
per-node totals from a trace file equal the timeline's own SMM residency
(``Timeline.total_overlap`` of ``Timeline.intervals("smm.enter",
"smm.exit", where=node)``) exactly.  The standard
``ts``/``dur`` fields are the same values scaled to the microseconds the
trace-viewer UIs expect (floats; use ``args`` for arithmetic).

Track layout (viewable in Perfetto / ``chrome://tracing``):

* one *process* per node (pid = node index, labeled with the node name);
* thread 0: SMM residency windows as complete (``X``) duration events;
* thread 2: scheduler events (post-SMM misplacements) as instants;
* thread 3: network activity — each message is an ``X`` slice on the
  sender spanning injection→delivery, connected to a delivery marker on
  the receiver by a flow arrow (``s``/``f``);
* thread 7: counter tracks (``"ph": "C"``) — cumulative per-node SMM
  residency (so Perfetto plots the duty cycle directly) and cumulative
  per-rank MPI wait time;
* threads 10+cpu: task compute-segment placements as duration events
  (recorded only when placement tracing is switched on, see
  :attr:`repro.sched.scheduler.Scheduler.trace_placements`);
* threads 40+lrank: per-rank blocking-wait spans (``mpi.wait`` records,
  emitted when wait tracing is on — ``repro-smm trace``/``explain``).

The JSONL writer is the compact archival form: one timeline record per
line, suitable for ``grep``/``jq`` and for streaming out of long runs.
"""

from __future__ import annotations

import json
from typing import Dict, IO, List, Optional, Sequence, Union

from repro.simx.timeline import Timeline, TraceRecord

__all__ = ["chrome_trace_events", "write_chrome_trace", "write_jsonl"]

#: tid assignments within each node's track group.
TID_SMM = 0
TID_SCHED = 2
TID_NET = 3
TID_CTR = 7
TID_CPU_BASE = 10
TID_WAIT_BASE = 40

_THREAD_NAMES = {
    TID_SMM: "SMM",
    TID_SCHED: "sched",
    TID_NET: "net",
    TID_CTR: "counters",
}


def _us(t_ns: int) -> float:
    """ns → µs for the ts/dur display fields (args keep exact ns)."""
    return t_ns / 1e3


def chrome_trace_events(
    timeline: Timeline,
    nodes: Optional[Sequence[str]] = None,
) -> List[Dict]:
    """Convert a timeline into a list of Chrome-trace event dicts.

    ``nodes`` optionally restricts and orders the exported node tracks;
    by default every ``where`` seen in the timeline gets a track group,
    in order of first appearance.
    """
    pids: Dict[str, int] = {}
    if nodes is not None:
        for n in nodes:
            pids[n] = len(pids)

    def pid_of(where: str) -> Optional[int]:
        if where in pids:
            return pids[where]
        if nodes is not None:
            return None  # filtered out
        pids[where] = len(pids)
        return pids[where]

    events: List[Dict] = []
    used_tids: Dict[int, set] = {}
    tid_labels: Dict[tuple, str] = {}

    def mark(pid: int, tid: int) -> None:
        used_tids.setdefault(pid, set()).add(tid)

    # Open SMM windows and in-flight task segments, keyed for pairing.
    smm_open: Dict[str, TraceRecord] = {}
    seg_open: Dict[tuple, TraceRecord] = {}
    # Running totals behind the counter tracks.
    smm_cum: Dict[str, int] = {}
    wait_cum: Dict[tuple, int] = {}

    for rec in timeline:
        pid = pid_of(rec.where)
        if pid is None:
            continue
        if rec.kind == "smm.enter":
            smm_open[rec.where] = rec
        elif rec.kind == "smm.exit":
            enter = smm_open.pop(rec.where, None)
            if enter is None:
                continue  # unmatched exit: nothing to re-encode
            span_ns = rec.time - enter.time
            mark(pid, TID_SMM)
            events.append({
                "name": "SMM",
                "cat": "smm",
                "ph": "X",
                "ts": _us(enter.time),
                "dur": _us(span_ns),
                "pid": pid,
                "tid": TID_SMM,
                # enter.data first: it may carry a planned duration_ns,
                # which must not shadow the measured span re-encoded here.
                "args": {
                    **enter.data,
                    "enter_ns": enter.time,
                    "exit_ns": rec.time,
                    "duration_ns": span_ns,
                },
            })
            smm_cum[rec.where] = smm_cum.get(rec.where, 0) + span_ns
            mark(pid, TID_CTR)
            events.append({
                "name": "SMM residency (ms)",
                "cat": "counter",
                "ph": "C",
                "ts": _us(rec.time),
                "pid": pid,
                "tid": TID_CTR,
                "args": {"ms": smm_cum[rec.where] / 1e6},
            })
        elif rec.kind == "mpi.wait":
            rank = rec.data.get("rank", 0)
            lrank = rec.data.get("lrank", 0)
            dur_ns = rec.data.get("dur_ns", 0)
            begin_ns = rec.data.get("begin_ns", rec.time - dur_ns)
            tid = TID_WAIT_BASE + lrank
            mark(pid, tid)
            tid_labels[(pid, tid)] = f"rank {rank} wait"
            events.append({
                "name": f"wait:{rec.data.get('cls', 'p2p')}",
                "cat": "mpi",
                "ph": "X",
                "ts": _us(begin_ns),
                "dur": _us(dur_ns),
                "pid": pid,
                "tid": tid,
                "args": {
                    "end_ns": begin_ns + dur_ns,
                    "duration_ns": dur_ns,
                    **rec.data,
                },
            })
            key = (pid, rank)
            wait_cum[key] = wait_cum.get(key, 0) + dur_ns
            mark(pid, TID_CTR)
            events.append({
                "name": f"MPI wait r{rank} (ms)",
                "cat": "counter",
                "ph": "C",
                "ts": _us(rec.time),
                "pid": pid,
                "tid": TID_CTR,
                "args": {"ms": wait_cum[key] / 1e6},
            })
        elif rec.kind.startswith("sched."):
            mark(pid, TID_SCHED)
            events.append({
                "name": rec.kind.split(".", 1)[1],
                "cat": "sched",
                "ph": "i",
                "s": "t",
                "ts": _us(rec.time),
                "pid": pid,
                "tid": TID_SCHED,
                "args": {"time_ns": rec.time, **rec.data},
            })
        elif rec.kind == "net.send":
            # The matching net.deliver carries the same id; the sender
            # slice spans injection→delivery so we emit it at delivery
            # time (see below) — here only the flow origin is emitted.
            mark(pid, TID_NET)
            events.append({
                "name": "msg",
                "cat": "net",
                "ph": "s",
                "id": rec.data.get("id"),
                "ts": _us(rec.time),
                "pid": pid,
                "tid": TID_NET,
                "args": {"time_ns": rec.time, **rec.data},
            })
        elif rec.kind == "net.deliver":
            mark(pid, TID_NET)
            src = rec.data.get("src_node")
            sent_ns = rec.data.get("sent_ns")
            if src is not None and sent_ns is not None:
                src_pid = pid_of(src)
                if src_pid is not None:
                    mark(src_pid, TID_NET)
                    events.append({
                        "name": f"msg→{rec.where}",
                        "cat": "net",
                        "ph": "X",
                        "ts": _us(sent_ns),
                        "dur": _us(rec.time - sent_ns),
                        "pid": src_pid,
                        "tid": TID_NET,
                        "args": {
                            "sent_ns": sent_ns,
                            "delivered_ns": rec.time,
                            "latency_ns": rec.time - sent_ns,
                            "nbytes": rec.data.get("nbytes"),
                        },
                    })
            events.append({
                "name": "recv",
                "cat": "net",
                "ph": "X",
                "ts": _us(rec.time),
                "dur": 1.0,
                "pid": pid,
                "tid": TID_NET,
                "args": {"time_ns": rec.time, **rec.data},
            })
            events.append({
                "name": "msg",
                "cat": "net",
                "ph": "f",
                "bp": "e",
                "id": rec.data.get("id"),
                "ts": _us(rec.time),
                "pid": pid,
                "tid": TID_NET,
            })
        elif rec.kind == "task.place":
            cpu = rec.data.get("cpu", 0)
            seg_open[(rec.where, rec.data.get("task"))] = rec
            mark(pid, TID_CPU_BASE + cpu)
        elif rec.kind == "task.done":
            place = seg_open.pop((rec.where, rec.data.get("task")), None)
            if place is None:
                continue
            cpu = place.data.get("cpu", 0)
            events.append({
                "name": str(rec.data.get("task")),
                "cat": "task",
                "ph": "X",
                "ts": _us(place.time),
                "dur": _us(rec.time - place.time),
                "pid": pid,
                "tid": TID_CPU_BASE + cpu,
                "args": {
                    "start_ns": place.time,
                    "end_ns": rec.time,
                    "duration_ns": rec.time - place.time,
                    "cpu": cpu,
                },
            })

    # Metadata: label process/thread tracks so viewers show node names.
    meta: List[Dict] = []
    for where, pid in pids.items():
        meta.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": where},
        })
        for tid in sorted(used_tids.get(pid, ())):
            label = tid_labels.get((pid, tid)) or _THREAD_NAMES.get(
                tid, f"cpu{tid - TID_CPU_BASE}")
            meta.append({
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            })

    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))
    return meta + events


def write_chrome_trace(
    timeline: Timeline,
    dest: Union[str, IO[str]],
    nodes: Optional[Sequence[str]] = None,
    extra: Optional[Dict] = None,
) -> int:
    """Write a full Chrome-trace JSON document; returns the event count.

    ``extra`` lands in the document's ``otherData`` section (seed,
    scenario parameters, package version — whatever identifies the run).
    """
    events = chrome_trace_events(timeline, nodes=nodes)
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(extra) if extra else {},
    }
    if isinstance(dest, str):
        from repro.obs.atomic import atomic_write_text

        atomic_write_text(dest, lambda fp: json.dump(doc, fp, indent=1))
    else:
        json.dump(doc, dest, indent=1)
    return len(events)


def write_jsonl(
    timeline: Timeline,
    dest: Union[str, IO[str]],
    kinds: Optional[Sequence[str]] = None,
) -> int:
    """Stream timeline records as JSON Lines; returns the line count.

    ``kinds`` optionally restricts to records whose kind starts with any
    of the given prefixes.
    """
    prefixes = tuple(kinds) if kinds else None

    def lines():
        for rec in timeline:
            if prefixes and not rec.kind.startswith(prefixes):
                continue
            yield json.dumps(
                {"time": rec.time, "kind": rec.kind, "where": rec.where,
                 "data": rec.data},
                separators=(",", ":"),
            )

    n = 0
    if isinstance(dest, str):
        from repro.obs.atomic import atomic_write_text

        counted: List[int] = [0]

        def write(fp) -> None:
            for line in lines():
                fp.write(line + "\n")
                counted[0] += 1

        atomic_write_text(dest, write)
        n = counted[0]
    else:
        for line in lines():
            dest.write(line + "\n")
            n += 1
    return n
