"""Checks of the benchmark itself: ``python -m pytest bench -q``.

Kept outside the tier-1 ``testpaths``; the smoke runs start real
processes and take about a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from compare import compare, verdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def _doc(values, failed=0, correct=True, metric="wall_s"):
    return {"workloads": {"ep-jobs2": {
        "correct": correct, "attempted": 30, "failed": failed,
        "metrics": {metric: {"value": values, "unit": "s"}}}}}


# -- decision rule ------------------------------------------------------------

def test_win_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_spread():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    change = [x - 0.5 for x in parent]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "gain"
    assert verdict(parent[:9], change[:9], "lower", 0.1)["verdict"] \
        == "unchanged"
    # 8 wins of 10 is not enough
    change[0], change[1] = 11.0, 11.0
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "unchanged"


def test_higher_is_better_metrics_win_upwards():
    parent = [100.0 + i % 3 for i in range(10)]
    change = [x * 1.2 for x in parent]
    assert verdict(parent, change, "higher", 0.1)["verdict"] == "gain"
    assert verdict(change, parent, "higher", 0.1)["verdict"] == "regression"


def test_median_worse_than_the_bound_is_a_regression():
    parent = [10.0] * 10
    change = [11.5] * 10
    row = verdict(parent, change, "lower", 0.1)
    assert row["verdict"] == "regression"
    assert row["worse"] == pytest.approx(0.15)
    assert verdict(parent, [10.9] * 10, "lower", 0.1)["verdict"] \
        == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    change = [10.2] * 10
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "unresolved"


def test_more_failed_cells_is_a_regression_and_blocks_gains(spec):
    parent = [_doc(10.0 + 0.01 * i) for i in range(10)]
    change = [_doc(5.0 + 0.01 * i, failed=1 if i == 3 else 0)
              for i in range(10)]
    rows = {r["metric"]: r for r in compare(parent, change, spec)}
    assert rows["failed cells"]["verdict"] == "regression"
    assert rows["wall_s"]["verdict"] == "regression"
    clean = [_doc(5.0 + 0.01 * i) for i in range(10)]
    rows = {r["metric"]: r for r in compare(parent, clean, spec)}
    assert rows["failed cells"]["verdict"] == "unchanged"
    assert rows["wall_s"]["verdict"] == "gain"


def test_a_wrong_output_is_a_regression(spec):
    parent = [_doc(10.0)] * 2
    change = [_doc(10.0), _doc(10.0, correct=False)]
    rows = {r["metric"]: r for r in compare(parent, change, spec)}
    assert rows["failed cells"]["verdict"] == "regression"


# -- BENCHMARK.json ------------------------------------------------------------

def test_metric_and_workload_names(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")


def test_caps(spec):
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert 1 <= spec["run_seconds"] <= 60
    runs = 4 + 22 * len(spec["workloads"])
    # a run takes its budget plus about 5 s of set-up and checks
    assert runs * (spec["run_seconds"] + 6) <= 3420


def test_workloads_match_the_code(spec):
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# -- the runner ------------------------------------------------------------------

def _run(tmp_path, *args):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args,
         "-o", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out, encoding="utf-8") as fp:
        return last, json.load(fp)


def test_smoke_run_finishes_correct(tmp_path, spec):
    last, doc = _run(tmp_path, "--smoke")
    assert last["correct"] and last["failed"] == 0
    e2e = {m["name"] for m in spec["end_to_end"]}
    for name, res in doc["workloads"].items():
        assert set(res["metrics"]) == e2e, name
        assert all(m["value"] > 0 for m in res["metrics"].values()), name


def test_traced_smoke_shares_sum_to_one(tmp_path, spec):
    last, doc = _run(tmp_path, "--smoke", "--trace", "--workload",
                     "ep-jobs2")
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    metrics = doc["workloads"]["ep-jobs2"]["metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    shares = [v["value"] for k, v in metrics.items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
