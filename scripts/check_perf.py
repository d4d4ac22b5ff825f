#!/usr/bin/env python
"""Perf gate: fail CI when the simulator's hot loops regress.

Compares a fresh ``BENCH_perf.json`` (from ``scripts/bench_perf.py``)
against the committed baseline
(``benchmarks/results/BENCH_perf_baseline.json``) and exits nonzero if
any gated bench's wall clock regressed more than the allowed fraction.
Two kinds of gate:

* **Churn benches** (``engine_churn``, ``rate_churn``; default budget
  20%) — deterministic, allocation-light, dominated by the interpreter,
  so a >20% move on a warm runner is a real code regression, not
  scheduling noise.

* **Cell benches** (``bt_cell``, ``ft_cell``; default budget 35% via
  ``--max-cell-regression``) — full Table-1/3 cells.  Noisier (imports,
  allocator pressure, real heap churn), hence the looser tolerance;
  their *correctness* is already pinned by the golden-cell identity
  tests, this gate only catches a hot-path collapse.

Every gated bench must also schedule exactly the baseline's number of
engine ``events``.  The count is deterministic (fixed seeds, exact fluid
model), so a difference means an optimization added or dropped an event
— a semantic change even when every payload still matches.

The two documents must be comparable: same ``quick`` flag (quick mode
scales the workloads down 10×) — mismatches are an error, not a pass.

Usage::

    python scripts/bench_perf.py --reps 3 -o BENCH_gate.json
    python scripts/check_perf.py BENCH_gate.json

Exit codes: 0 within budget, 1 regression or event-count change, 2
unusable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    "benchmarks", "results", "BENCH_perf_baseline.json")
DEFAULT_GATED = ("engine_churn", "rate_churn")
DEFAULT_CELL_GATED = ("bt_cell", "ft_cell")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", help="BENCH_perf.json to check")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument("--max-regression", type=float,
                    default=float(os.environ.get(
                        "REPRO_PERF_MAX_REGRESSION", "0.20")),
                    help="allowed fractional wall-clock regression for "
                         "churn benches (default 0.20; env "
                         "REPRO_PERF_MAX_REGRESSION)")
    ap.add_argument("--max-cell-regression", type=float,
                    default=float(os.environ.get(
                        "REPRO_PERF_MAX_CELL_REGRESSION", "0.35")),
                    help="allowed fractional regression for the noisier "
                         "cell benches (default 0.35; env "
                         "REPRO_PERF_MAX_CELL_REGRESSION)")
    ap.add_argument("--bench", action="append", default=None,
                    help="gate this churn bench (repeatable; default "
                         f"{', '.join(DEFAULT_GATED)})")
    ap.add_argument("--cell-bench", action="append", default=None,
                    help="gate this cell bench at the looser tolerance "
                         "(repeatable; default "
                         f"{', '.join(DEFAULT_CELL_GATED)})")
    args = ap.parse_args(argv)

    try:
        with open(args.current, encoding="utf-8") as fp:
            cur = json.load(fp)
        with open(args.baseline, encoding="utf-8") as fp:
            base = json.load(fp)
    except (OSError, ValueError) as exc:
        print(f"check_perf: cannot read inputs: {exc}", file=sys.stderr)
        return 2
    if bool(cur.get("quick")) != bool(base.get("quick")):
        print("check_perf: quick/full mismatch between current "
              f"(quick={cur.get('quick')}) and baseline "
              f"(quick={base.get('quick')}); workloads are not comparable",
              file=sys.stderr)
        return 2

    gated = [(n, args.max_regression)
             for n in (args.bench or list(DEFAULT_GATED))]
    gated += [(n, args.max_cell_regression)
              for n in (args.cell_bench or list(DEFAULT_CELL_GATED))]
    failures = []
    for name, budget in gated:
        c = cur.get("benches", {}).get(name)
        b = base.get("benches", {}).get(name)
        if not c or not c.get("wall_s"):
            print(f"check_perf: bench {name!r} missing from {args.current}",
                  file=sys.stderr)
            return 2
        if not b or not b.get("wall_s"):
            print(f"check_perf: bench {name!r} missing from baseline "
                  f"{args.baseline}", file=sys.stderr)
            return 2
        ratio = c["wall_s"] / b["wall_s"]
        verdict = "OK"
        if ratio > 1.0 + budget:
            verdict = "REGRESSION"
            failures.append(name)
        print(f"check_perf: {name:<14} {b['wall_s']:.4f}s -> "
              f"{c['wall_s']:.4f}s  ({ratio:.3f}x baseline, "
              f"budget {100 * budget:.0f}%)  {verdict}")
        verdict = "OK"
        if c.get("events") != b.get("events"):
            verdict = "EVENT COUNT CHANGED"
            failures.append(f"{name} events")
        print(f"check_perf: {'':<14} events {b.get('events')} -> "
              f"{c.get('events')}  {verdict}")

    if failures:
        print(f"check_perf: FAIL — {', '.join(failures)} outside budget "
              f"or changed vs {args.baseline}", file=sys.stderr)
        return 1
    print("check_perf: all gated benches within budget, event counts "
          "unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
