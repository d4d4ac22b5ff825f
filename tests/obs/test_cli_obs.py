"""The observability CLI surface: trace subcommand, --metrics/--manifest."""

import json
import logging
import pathlib

from repro.cli import main

#: The ``trace --quick`` record stream, committed: it pins the simulated
#: event order of one scenario, same-nanosecond ties included.
TRACE_GOLDEN = (pathlib.Path(__file__).resolve().parents[1] / "integration"
                / "golden" / "trace_quick.jsonl")


def test_cli_trace_quick_writes_valid_chrome_trace(tmp_path, capsys):
    out = tmp_path / "t.trace.json"
    jsonl = tmp_path / "t.jsonl"
    assert main(["trace", "--quick", "-o", str(out),
                 "--jsonl", str(jsonl), "--metrics"]) == 0
    printed = capsys.readouterr().out
    assert "perfetto" in printed and "smm.entries" in printed

    doc = json.loads(out.read_text())
    assert {"traceEvents", "displayTimeUnit", "otherData"} == set(doc)
    assert doc["otherData"]["bench"] == "EP"
    assert doc["otherData"]["smm"] == 2
    assert any(
        e.get("ph") == "X" and e.get("name") == "SMM"
        for e in doc["traceEvents"]
    )
    lines = jsonl.read_text().splitlines()
    assert lines and all(json.loads(l)["kind"] for l in lines)


def test_cli_trace_quick_jsonl_matches_golden(tmp_path):
    jsonl = tmp_path / "t.jsonl"
    assert main(["trace", "--quick", "-o", str(tmp_path / "t.trace.json"),
                 "--jsonl", str(jsonl)]) == 0
    assert jsonl.read_bytes() == TRACE_GOLDEN.read_bytes()


def test_cli_trace_smm0_has_no_smm_events(tmp_path):
    out = tmp_path / "clean.trace.json"
    assert main(["trace", "--quick", "--smm", "0", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert not any(e.get("name") == "SMM" for e in doc["traceEvents"])


def test_cli_table_manifest_and_metrics(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["table2", "--quick", "--metrics", "--manifest"]) == 0
    printed = capsys.readouterr().out
    table, _, metrics = printed.partition("\n-- metrics ")
    assert "Table 2" in table
    # Simulation counters come from the worker processes' snapshots,
    # merged into the command's registry.
    values = dict(line.split()[:2] for line in metrics.splitlines()[1:])
    for name in ("smm.entries", "net.messages", "engine.events.fired"):
        assert float(values[name]) > 0, name
    man = json.loads((tmp_path / "table2.manifest.json").read_text())
    assert man["command"] == "table2"
    assert man["params"]["bench"] == "EP"
    n_cells = 2 * 5 * 3  # ranks/node halves × rows × SMI classes
    assert len(man["matrix"]) == len(man["cells"]) == n_cells
    assert all("base_seed" in c for c in man["matrix"])
    assert "calibration" in man


def test_cli_manifest_explicit_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "custom.json"
    assert main(["figure2", "--quick", "--manifest", str(path)]) == 0
    man = json.loads(path.read_text())
    assert man["command"] == "figure2"
    assert sorted(c["id"] for c in man["cells"]) == [
        f"figure2 {k}cpu" for k in (1, 2, 4, 8)]
    assert all("baseline" in c["value"] for c in man["cells"])


def test_verbose_flag_enables_harness_logging(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # reset handlers so basicConfig in _setup_logging takes effect even
    # if an earlier test configured logging
    root = logging.getLogger()
    old = root.handlers[:]
    root.handlers[:] = []
    try:
        assert main(["-v", "figure2", "--quick"]) == 0
        err = capsys.readouterr().err
        # the sweep runner's per-cell progress lines
        assert "] figure2 1cpu" in err
        assert "[4/4] figure2 " in err
    finally:
        root.handlers[:] = old


def test_package_root_has_null_handler():
    import repro  # noqa: F401

    handlers = logging.getLogger("repro").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)


def test_cli_explain_quick(tmp_path, capsys):
    report = tmp_path / "r.json"
    trace = tmp_path / "t.trace.json"
    assert main(["explain", "--quick", "--report", str(report),
                 "--trace", str(trace)]) == 0
    printed = capsys.readouterr().out
    assert "noise attribution" in printed
    assert "direct SMI theft" in printed
    assert "-> OK" in printed
    r = json.loads(report.read_text())
    assert r["bench"] == "EP" and r["conservation"]["ok"]
    doc = json.loads(trace.read_text())
    assert any(e.get("cat") == "mpi" for e in doc["traceEvents"])
    assert any(e.get("ph") == "C" for e in doc["traceEvents"])


def test_cli_explain_rejects_smm0(capsys):
    assert main(["explain", "--quick", "--smm", "0"]) == 2


def test_cli_explain_infeasible_config(capsys):
    # BT needs a square rank count: 2 nodes × 1 rank is infeasible.
    assert main(["explain", "--bench", "BT", "--nodes", "2"]) == 2


def test_cli_metrics_format_prom(capsys):
    assert main(["explain", "--quick", "--metrics",
                 "--metrics-format", "prom"]) == 0
    printed = capsys.readouterr().out
    assert "# TYPE repro_attr_cells_total counter" in printed
    assert "repro_attr_cells_total 1" in printed
