"""The benchmark of record for ``repro-smm``: wall time per execution path.

Run from the root of a checkout (nothing to build; ``src`` is put on the
path)::

    python3 bench/run.py                        # every workload, timed
    python3 bench/run.py --workload ep-jobs2 --seed 3 --seconds 30
    python3 bench/run.py --trace                # per-layer traced run
    python3 bench/run.py --smoke                # 1 rep of each, < 60 s
    python3 bench/run.py -o result.json         # input for compare.py

A timed run repeats each workload (round-robin when several are chosen)
until its ``--seconds`` budget is spent, then checks every output:
byte for byte against ``bench/expected/`` at seed 1, across repetitions
at every seed, and against an in-process ``run_cell`` replay of a fixed
cell subset.  It prints each end-to-end metric of ``BENCHMARK.json`` with
its unit, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` (``"workloads"`` in
place of ``"metrics"`` when several workloads ran).  It exits 1 if any
output is wrong or any cell failed, 2 if ``src/repro`` is missing.

``--trace`` replays each workload's subset under cProfile instead and
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from statistics import fmean, median, quantiles
from typing import Any, Dict, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def percentile(xs: Sequence[float], p: int) -> float:
    """``p``-th percentile (1-99), interpolated between closest ranks."""
    if len(xs) == 1:
        return xs[0]
    return quantiles(xs, n=100, method="inclusive")[p - 1]


def tail_label(xs: Sequence[float]) -> str:
    """The highest whole percentile with at least ten samples beyond it,
    with the sample count -- a tail quoted from fewer is noise."""
    n = len(xs)
    if n <= 10:
        return f"n={n}, too few for a tail"
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p} {percentile(xs, p):.4g}, n={n}"


# -- timed run -----------------------------------------------------------------

def timed(workloads: List, seed: int, seconds: float, smoke: bool
          ) -> Dict[str, Dict[str, Any]]:
    """Round-robin repetitions: each workload runs another rep while its
    time so far plus its mean rep time fits in ``seconds``."""
    setup = {w.name: w.setup(1 if smoke else SETUP_SAMPLES)
             for w in workloads}
    reps: Dict[str, List] = {w.name: [] for w in workloads}
    errors: Dict[str, List[str]] = {w.name: [] for w in workloads}
    spent = {w.name: 0.0 for w in workloads}
    active = list(workloads)
    while active:
        for w in list(active):
            t0 = time.perf_counter()
            try:
                reps[w.name].append(w.rep(seed, smoke))
            except Exception as exc:  # one broken workload ends only itself
                errors[w.name].append(f"rep failed: {exc!r}")
                active.remove(w)
                continue
            spent[w.name] += time.perf_counter() - t0
            n = len(reps[w.name])
            if smoke or spent[w.name] * (n + 1) / n > seconds:
                active.remove(w)
    return {w.name: summarize(w, reps[w.name], setup[w.name],
                              errors[w.name], seed, smoke)
            for w in workloads}


def check_outputs(w, reps: List, seed: int, smoke: bool) -> List[str]:
    """Every rep's output equals the first; at the golden seed the first
    equals ``expected/``; the first rep's payloads for the subset equal
    an in-process ``run_cell`` replay."""
    from layers import replay
    from workloads import GOLDEN_SEED, golden

    errors = [f"rep {i + 1} output differs from rep 1"
              for i, r in enumerate(reps[1:], 1)
              if r.outputs != reps[0].outputs]
    if seed == GOLDEN_SEED and reps[0].outputs[0] != golden(w.what):
        errors.append(f"output differs from bench/expected/{w.what}.txt")
    specs = w.replay_specs(seed, smoke)
    payloads, _ = replay(specs)
    errors += [f"{s.id}: payload differs from the in-process replay"
               for s in specs if reps[0].payloads.get(s.id) != payloads[s.id]]
    return errors


def summarize(w, reps: List, setup: List[float], errors: List[str],
              seed: int, smoke: bool) -> Dict[str, Any]:
    if not reps:
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}, "errors": errors}
    errors = errors + [e for r in reps for e in r.errors]
    errors += check_outputs(w, reps, seed, smoke)
    latencies = [x for r in reps for x in r.latencies]
    setup = setup or [r.setup_s for r in reps]
    # A workload's cells differ in size by up to 1000x and fall in
    # clusters, so a pooled percentile lands between clusters and jumps
    # from seed to seed; the mean is carried by the large cells and holds.
    values = {
        "wall_s": median(r.wall_s for r in reps),
        "setup_s": median(setup),
        "cell_latency_mean_s": median(fmean(r.latencies) for r in reps),
        "peak_rss_mb": max(r.rss_mb for r in reps),
    }
    failed = sum(r.failed for r in reps)
    print(f"\n== {w.name}: {len(reps)} rep(s), seed {seed}")
    print(f"   wall_s per rep: {', '.join(f'{r.wall_s:.3f}' for r in reps)}")
    print(f"   setup_s samples: {', '.join(f'{x:.3f}' for x in setup)}")
    print(f"   cell latency: p50 {median(latencies):.4g}, "
          f"{tail_label(latencies)}")
    for key in sorted(reps[0].extra):
        print(f"   {key}: {median(r.extra[key] for r in reps):.6g}")
    for e in errors:
        print(f"   ERROR {e}")
    return {"correct": not errors and failed == 0,
            "attempted": sum(r.attempted for r in reps), "failed": failed,
            "metrics": values, "errors": errors}


# -- traced run ----------------------------------------------------------------

def traced(workloads: List, seed: int, smoke: bool
           ) -> Dict[str, Dict[str, Any]]:
    import layers

    out = {}
    for w in workloads:
        specs = w.replay_specs(seed, smoke)
        probe_cells = (3, 10, 50) if smoke else (10, 50, 200)
        try:
            prof = layers.profile_replay(specs)
            values: Dict[str, float] = {}
            for layer, row in prof["layers"].items():
                values[f"{layer}.share"] = row["share"]
                if layer != "other":
                    values[f"{layer}.calls"] = row["calls"]
            values.update({
                "simx.engine.events": prof["events"],
                "replay.sim_s": prof["sim_s"],
                "replay.traced_s": prof["traced_s"],
                "replay.trace_overhead_x": prof["traced_s"] / prof["sim_s"],
                "runx.cell_overhead_s": layers.runx_probe(probe_cells[0]),
            })
            values.update(layers.serve_probe(*probe_cells[1:]))
            values.update(layers.harness_probe(w.what, seed,
                                               prof["payloads"]))
        except Exception as exc:  # one broken workload ends only itself
            out[w.name] = {"correct": False, "attempted": len(specs),
                           "failed": len(specs), "metrics": {},
                           "errors": [repr(exc)]}
            print(f"\n== {w.name}: ERROR {exc!r}")
            continue
        print(f"\n== {w.name}: traced replay of {len(specs)} cell(s), "
              f"seed {seed}")
        print(f"   {'layer':<18} {'self_s':>9} {'share':>7} {'calls':>11}")
        for layer, row in prof["layers"].items():
            print(f"   {layer:<18} {row['self_s']:9.3f} "
                  f"{row['share']:7.1%} {row['calls']:11d}")
        attempted = len(specs) + sum(probe_cells)
        out[w.name] = {"correct": True, "attempted": attempted,
                       "failed": 0, "metrics": values, "errors": []}
    return out


# -- output ----------------------------------------------------------------------

def with_units(results: Dict[str, Dict[str, Any]], declared: List[Dict]
               ) -> None:
    """Attach units from ``BENCHMARK.json`` and print every metric; a
    metric missing from or extra to the declaration fails the workload."""
    units = {m["name"]: m["unit"] for m in declared}
    for name, res in results.items():
        if not res["metrics"]:
            continue
        if set(res["metrics"]) != set(units):
            res["correct"] = False
            res["errors"].append(
                f"metrics {sorted(set(res['metrics']) ^ set(units))} do not "
                "match BENCHMARK.json")
        res["metrics"] = {k: {"value": v, "unit": units.get(k, "?")}
                          for k, v in res["metrics"].items()}
    for name, res in results.items():
        print(f"\n-- {name}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        for k, m in res["metrics"].items():
            print(f"   {k:<32} {m['value']:>14.6g} {m['unit']}")


def main(argv: Sequence[str] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measuring budget per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="per-layer traced run")
    ap.add_argument("--smoke", action="store_true",
                    help="1 rep, 1 cold seed, 200 hits, 1 traced cell")
    ap.add_argument("-o", "--out", metavar="FILE",
                    help="also write the results as JSON (compare.py input)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # The workload is pinned: no engine, fault or chaos override leaks in.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    from workloads import WORK, WORKLOADS

    chosen = [WORKLOADS[n] for n in (args.workload or names)]
    try:
        if args.trace:
            results = traced(chosen, args.seed, args.smoke)
            with_units(results, spec["per_layer"])
        else:
            results = timed(chosen, args.seed, args.seconds, args.smoke)
            with_units(results, spec["end_to_end"])
    finally:
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump({"seed": args.seed, "trace": args.trace,
                       "smoke": args.smoke, "workloads": results}, fp,
                      indent=1, sort_keys=True)
            fp.write("\n")
    public = {n: {k: v for k, v in r.items() if k != "errors"}
              for n, r in results.items()}
    if len(public) == 1:
        summary = next(iter(public.values()))
    else:
        summary = {"correct": all(r["correct"] for r in public.values()),
                   "attempted": sum(r["attempted"] for r in public.values()),
                   "failed": sum(r["failed"] for r in public.values()),
                   "workloads": public}
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
