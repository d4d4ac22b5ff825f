"""Harness specs/renderers and the CLI front end (smallest real invocations)."""

import pytest

from repro.apps.nas.params import NasClass
from repro.cli import main
from repro.harness.mpi_tables import table_rows_spec


def test_table_rows_spec_quick_vs_full():
    quick = table_rows_spec("EP", quick=True)
    full = table_rows_spec("EP", quick=False)
    assert {c for c, _ in quick} == {NasClass.A}
    assert {c for c, _ in full} == {NasClass.A, NasClass.B, NasClass.C}
    assert [r for _, r in table_rows_spec("BT", True)] == [1, 4, 16]


def test_cli_calibrate_quick(capsys):
    assert main(["calibrate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "EP.A" in out and "BT.C" in out
    assert "err 0%" in out or "err 0.0%" in out or "err" in out


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--manifest"], ["--attr"]])
def test_cli_calibrate_rejects_sweep_flags(flag, capsys):
    """calibrate reads only --quick and --seed; a sweep flag is a usage
    error, not silently ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--quick", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_detect(capsys):
    assert main(["detect", "--window", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "BIOSBITS" in out


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_figure2_renderers():
    """Figure-2 rendering paths on synthetic data (the full sweep runs in
    tests/integration/test_artifact_shapes.py)."""
    from repro.analysis.figures import Series
    from repro.harness.figure2 import Figure2Data, render_figure2

    data = Figure2Data(
        long_series=[Series("1cpu", [(100, 500.0), (600, 800.0), (1600, 900.0)])],
        baselines={1: 950.0},
        short_at_100ms={1: 940.0},
    )
    text = render_figure2(data)
    assert "Figure 2" in text and "baselines" in text
    csv = render_figure2(data, csv=True)
    assert csv.splitlines()[0].startswith("interval_ms,")


def test_figure1_renderers():
    from repro.analysis.figures import Series
    from repro.harness.figure1 import Figure1Data, render_figure1

    data = Figure1Data(
        left={
            "CacheUnfriendly": [Series("4cpu", [(50, 90.0), (1500, 30.0)])],
            "CacheFriendly": [Series("4cpu", [(50, 14.0), (1500, 4.8)])],
        },
        right={
            "CacheUnfriendly": [Series("run1", [(1, 390.0), (8, 90.0)])],
            "CacheFriendly": [Series("run1", [(1, 60.0), (8, 13.0)])],
        },
        baselines={"CacheUnfriendly": {4: 30.0}, "CacheFriendly": {4: 4.6}},
    )
    text = render_figure1(data)
    assert "Figure 1" in text
    csv = render_figure1(data, csv=True)
    assert "interval_ms" in csv and "cpus" in csv
