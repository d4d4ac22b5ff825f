#!/usr/bin/env python
"""Simulator performance microbenchmarks → ``BENCH_perf.json``.

The perf trajectory of this repo: every run emits one JSON document

    {"benches": {name: {"wall_s": float, "events": int|null,
                        "events_per_s": float|null}},
     "reps": int, "quick": bool, "python": "3.x.y",
     "numpy": "x.y.z"|null}

and, when a baseline file is available (``--baseline``, default
``benchmarks/results/BENCH_perf_baseline.json``), a ``"speedup"``
section with per-bench wall-clock ratios (baseline / current; > 1 is
faster than the recorded baseline).

Benches
-------
``engine_churn``
    Raw event-loop throughput: many interleaved generator processes
    sleeping, waking each other through events, and racing timeouts
    (cancellation pressure).  ``events`` is the number of heap pushes.
``rate_churn``
    Rate-executor reassignment throughput at table-sweep occupancy (16
    items).  ``events`` counts item-rate updates applied.
``bt_cell``
    One Table-1 cell: NPB BT class A on 16 single-rank nodes under the
    long-SMI profile (the tentpole's ≥1.5× target cell).
``ft_cell``
    One Table-3/5-style cell: NPB FT class A on 4 nodes × 4 ranks.
``figure1_line``
    One Figure-1 left-panel line: Convolve cache-unfriendly on 8 CPUs,
    baseline + two SMI intervals.

The cell benches report ``events`` too (engine heap pushes), measured by
one extra *untimed* run with a metrics registry attached — the timed
reps stay uninstrumented, so ``wall_s`` is comparable with historical
baselines while ``events_per_s`` becomes comparable across machines.

Methodology: one untimed warmup rep, then median of ``--reps`` (default
5) timed reps.  ``--quick`` switches to 1 rep of scaled-down workloads —
the CI smoke mode.  CI gates on ``engine_churn``/``rate_churn``
regressions via ``scripts/check_perf.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from typing import Callable, Dict, Optional, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

DEFAULT_BASELINE = os.path.join(
    "benchmarks", "results", "BENCH_perf_baseline.json")


# -- microbenches -------------------------------------------------------------

def engine_churn(scale: int) -> int:
    """Event-loop churn; returns the number of scheduled events."""
    from repro.simx.engine import AnyOf, Delay, Engine

    eng = Engine()
    n_procs = 32
    rounds = scale

    def sleeper(i: int):
        # Pure delay traffic at co-prime periods (heap reordering).
        for _ in range(rounds):
            yield Delay(7 + (i % 13))

    def pinger(ev_box, peer_box):
        # Event hand-off pairs: single-waiter succeed() fast path.
        for _ in range(rounds):
            yield ev_box[0]
            ev_box[0] = eng.event()
            peer_box[0].succeed()
            peer_box[0] = eng.event()

    def racer():
        # AnyOf(event, timeout): every round cancels a pending wait.
        for r in range(rounds):
            ev = eng.event()
            eng.schedule(3 if r % 2 else 9, ev.succeed, None)
            yield AnyOf([ev, eng.timeout(6)])

    for i in range(n_procs):
        eng.process(sleeper(i), name=f"sleep{i}")
    for i in range(0, 8, 2):
        a_ev, b_ev = [eng.event()], [eng.event()]
        eng.process(pinger(a_ev, b_ev), name=f"ping{i}")
        eng.process(pinger(b_ev, a_ev), name=f"pong{i}")
        eng.schedule(1, a_ev[0].succeed)
    for i in range(4):
        eng.process(racer(), name=f"race{i}")
    eng.run()
    return eng._seq


def rate_churn(scale: int) -> int:
    """Rate-executor reassignment churn; returns item-rate updates applied."""
    from repro.simx.engine import Engine
    from repro.simx.rate import RateExecutor, WorkItem

    eng = Engine()
    done = []
    ex = RateExecutor(eng, done.append)
    n_items = 16
    items = [WorkItem(eng, demand=1e15, name=f"w{j}") for j in range(n_items)]
    for it in items:
        ex.add(it)
    updates = 0

    def churner():
        nonlocal updates
        for r in range(scale):
            if r % 7 == 3:
                # Same-instant freeze/unfreeze pair (zero-dt coalescing).
                ex.set_rates({it: 0.0 for it in items})
                updates += n_items
            rates = {it: 0.5 + ((r + j) % 5) for j, it in enumerate(items)}
            ex.set_rates(rates)
            updates += n_items
            yield 50  # ns between reassignment bursts

    eng.process(churner(), name="churn")
    eng.run()
    return updates


def bt_cell(metrics=None) -> int:
    from repro.apps.nas.params import NasClass
    from repro.apps.nas.study import NasConfig, run_nas_config

    cfg = NasConfig("BT", NasClass("A"), nodes=16, ranks_per_node=1)
    run_nas_config(cfg, smm=2, seed=1, metrics=metrics)
    return 0


def ft_cell(metrics=None) -> int:
    from repro.apps.nas.params import NasClass
    from repro.apps.nas.study import NasConfig, run_nas_config

    cfg = NasConfig("FT", NasClass("A"), nodes=4, ranks_per_node=4)
    run_nas_config(cfg, smm=2, seed=1, metrics=metrics)
    return 0


def figure1_line(quick: bool, metrics=None) -> int:
    from repro.runx.cells import convolve_line_cell

    intervals = [50] if quick else [16, 50]
    convolve_line_cell(
        {"config": "CacheUnfriendly", "cpus": 8, "intervals_ms": intervals},
        seed=1, metrics=metrics,
    )
    return 0


def _scheduled_events(fn: Callable[..., int]) -> int:
    """Engine heap pushes of one deterministic cell run, via one extra
    instrumented (and untimed) execution."""
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    fn(metrics=reg)
    inst = reg.get("engine.events.scheduled")
    return int(inst.value) if inst is not None else 0


# -- harness ------------------------------------------------------------------

def _time_one(fn: Callable[[], int]) -> Tuple[float, int]:
    t0 = time.perf_counter()
    events = fn()
    return time.perf_counter() - t0, events


def run_bench(
    name: str, fn: Callable[[], int], reps: int,
    events_fn: Optional[Callable[[], int]] = None,
) -> Dict[str, Optional[float]]:
    _time_one(fn)  # warmup (imports, allocator, branch caches)
    walls = []
    events = 0
    for _ in range(reps):
        w, events = _time_one(fn)
        walls.append(w)
    if events_fn is not None:
        events = events_fn()  # untimed instrumented run
    wall = statistics.median(walls)
    return {
        "wall_s": round(wall, 6),
        "events": events or None,
        "events_per_s": round(events / wall, 1) if events else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--output", default="BENCH_perf.json")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="baseline JSON to compute speedups against "
                         "(missing file → no speedup section)")
    ap.add_argument("--reps", type=int, default=5,
                    help="timed reps per bench (median reported)")
    ap.add_argument("--quick", action="store_true",
                    help="1 rep of scaled-down workloads (CI smoke)")
    ap.add_argument("--only", action="append", default=None,
                    help="run only this bench (repeatable)")
    args = ap.parse_args(argv)

    reps = 1 if args.quick else args.reps
    scale = 2_000 if args.quick else 20_000
    benches: Dict[str, Tuple[Callable[[], int], Optional[Callable[[], int]]]] = {
        "engine_churn": (lambda: engine_churn(scale), None),
        "rate_churn": (lambda: rate_churn(scale), None),
        "bt_cell": (bt_cell, lambda: _scheduled_events(bt_cell)),
        "ft_cell": (ft_cell, lambda: _scheduled_events(ft_cell)),
        "figure1_line": (
            lambda: figure1_line(args.quick),
            lambda: _scheduled_events(
                lambda metrics=None: figure1_line(args.quick, metrics))),
    }
    if args.only:
        unknown = set(args.only) - set(benches)
        if unknown:
            ap.error(f"unknown bench(es): {sorted(unknown)}")
        benches = {k: v for k, v in benches.items() if k in args.only}

    results: Dict[str, Dict] = {}
    for name, (fn, events_fn) in benches.items():
        print(f"[bench] {name} ...", flush=True)
        results[name] = run_bench(name, fn, reps, events_fn)
        r = results[name]
        eps = f", {r['events_per_s']:,.0f} ev/s" if r["events_per_s"] else ""
        print(f"[bench] {name}: {r['wall_s']:.4f}s{eps}", flush=True)

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    doc = {
        "benches": results,
        "reps": reps,
        "quick": bool(args.quick),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    if args.baseline and os.path.exists(args.baseline):
        with open(args.baseline, encoding="utf-8") as fp:
            base = json.load(fp).get("benches", {})
        speedup = {}
        for name, r in results.items():
            b = base.get(name)
            if b and b.get("wall_s") and r.get("wall_s"):
                speedup[name] = round(b["wall_s"] / r["wall_s"], 3)
        doc["speedup"] = speedup
        for name, s in speedup.items():
            print(f"[bench] {name}: {s:.2f}x vs baseline")

    with open(args.output, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"[bench] wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
