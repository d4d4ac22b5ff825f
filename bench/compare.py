"""Apply the benchmark's decision rule to two sets of result files.

Usage::

    python3 bench/compare.py PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

Each file is one ``bench/run.py -o`` result.  Arguments alternate parent,
change, parent, change -- one pair per alternating run, in the order
they ran.  One row per (workload, metric):

* **regression** -- the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``, or the change
  failed more cells or produced a wrong output;
* **gain** -- at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither side), and the medians differ by more
  than the parent's interquartile spread; never when the change failed
  more cells;
* **unresolved** -- neither of the above, but the parent's run-to-run
  spread is wider than the bound, so the runs cannot show "unchanged"
  (unless every change run beats every parent run);
* **unchanged** -- otherwise.  Per-layer metrics carry no bound and are
  listed as **info**.

Every ratio is printed with its base.  Exits 1 if any row regressed.
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median, quantiles
from typing import Any, Dict, List, Optional, Sequence

MIN_PAIRS = 10
WIN_SHARE = 0.9


def iqr(xs: Sequence[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = quantiles(xs, n=4)
    return q3 - q1


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: Optional[float], more_failures: bool = False
            ) -> Dict[str, Any]:
    """Classify one metric from paired runs (``parent[i]`` ran next to
    ``change[i]``)."""
    sign = 1.0 if better == "lower" else -1.0
    med_p, med_c = median(parent), median(change)
    spread = iqr(parent)
    # positive = worse, as a share of the parent's median
    worse = sign * (med_c - med_p) / med_p if med_p else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    row = {"parent": med_p, "change": med_c, "parent_iqr": spread,
           "worse": worse, "wins": wins, "pairs": len(pairs)}
    if bound is None:
        row["verdict"] = "info"
    elif more_failures or worse > bound:
        row["verdict"] = "regression"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and worse < 0 and abs(med_c - med_p) > spread):
        row["verdict"] = "gain"
    elif med_p and spread / abs(med_p) > bound and not all(
            sign * (c - p) < 0 for c in change for p in parent):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "unchanged"
    return row


def compare(parents: List[Dict], changes: List[Dict], spec: Dict
            ) -> List[Dict[str, Any]]:
    """Rows for every (workload, metric) present in every file."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        if not all(w in d["workloads"] for d in parents + changes):
            continue
        p_runs = [d["workloads"][w] for d in parents]
        c_runs = [d["workloads"][w] for d in changes]
        failed_p = sum(r["failed"] for r in p_runs)
        failed_c = sum(r["failed"] for r in c_runs)
        wrong = sum(1 for r in c_runs if not r["correct"])
        more_failures = failed_c > failed_p or wrong > 0
        rows.append({"workload": w, "metric": "failed cells",
                     "parent": failed_p, "change": failed_c,
                     "wrong_outputs": wrong,
                     "verdict": "regression" if more_failures
                     else "unchanged"})
        names = [n for n in declared
                 if all(n in r["metrics"] for r in p_runs + c_runs)]
        for name in names:
            m = declared[name]
            row = verdict(
                [r["metrics"][name]["value"] for r in p_runs],
                [r["metrics"][name]["value"] for r in c_runs],
                m["better"], m.get("bound"), more_failures)
            rows.append({"workload": w, "metric": name,
                         "unit": m["unit"], "bound": m.get("bound"), **row})
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    out = []
    for r in rows:
        if r["metric"] == "failed cells":
            out.append(f"{r['workload']:<15} {'failed cells':<26} parent "
                       f"{r['parent']}, change {r['change']} "
                       f"({r['wrong_outputs']} wrong output runs)"
                       f"  -> {r['verdict']}")
            continue
        ratio = (f"{r['change'] / r['parent']:.3f}x of parent "
                 f"{r['parent']:.6g} {r['unit']}" if r["parent"]
                 else "parent is 0")
        bound = (f"bound {r['bound']:.0%}" if r["bound"] is not None
                 else "no bound")
        out.append(
            f"{r['workload']:<15} {r['metric']:<26} {ratio}; change "
            f"{r['change']:.6g}, parent IQR {r['parent_iqr']:.3g} "
            f"({r['parent_iqr'] / r['parent'] if r['parent'] else 0:.1%} "
            f"of parent), change wins {r['wins']}/{r['pairs']}, {bound}"
            f"  -> {r['verdict']}")
    return "\n".join(out)


def main(argv: Sequence[str] = None) -> int:
    files = list(sys.argv[1:] if argv is None else argv)
    if len(files) < 2 or len(files) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in files:
        with open(path, encoding="utf-8") as fp:
            docs.append(json.load(fp))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    rows = compare(docs[0::2], docs[1::2], spec)
    print(render(rows))
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
