"""The paper's shape claims on all seven artifacts, at quick scale.

Each artifact runs once per module, on the path every ``repro-smm``
table/figure command takes: ``*_cell_specs`` → ``SweepRunner(jobs=2)`` →
``assemble_*``.  Quick matrix, one repetition, seed 1; the thresholds are
the ones the paper's tables and figures support at that scale.  Tables 1
and 5 and both figures take tens of seconds each, so their checks are
marked ``slow`` (CI runs them in their own job).

All seven are pinned byte for byte: each artifact's rendered output
equals the committed ``repro-smm <cmd> --quick --seed 1`` stdout
(``bench/expected/`` for Tables 2–3 and Figure 1, ``golden/`` for the
rest), and the sha256 of its canonical cell-payload JSON (cell id →
payload, sorted keys) equals ``golden/artifact_payloads.json``.  The
stdout rounds every value; the digest does not.
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro.apps.nas.params import NasClass
from repro.apps.nas.study import NasConfig, nas_config_feasible
from repro.cli import _sweep_builders
from repro.harness.figure1 import assemble_figure1
from repro.harness.figure2 import assemble_figure2
from repro.harness.htt_tables import assemble_htt_table
from repro.harness.mpi_tables import assemble_table, table_cell_specs
from repro.runx import SweepRunner, seed_free
from repro.runx.cells import run_cell

EXPECTED = pathlib.Path(__file__).resolve().parents[2] / "bench" / "expected"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
PAYLOAD_SHA256 = json.loads((GOLDEN / "artifact_payloads.json").read_text())
SEED = 1


def _sweep(specs):
    with SweepRunner(jobs=2) as runner:
        results = runner.run(specs)
    failed = sorted(r.id for r in results.values() if not r.ok)
    assert len(results) == len(specs) and not failed, failed
    return results


@pytest.fixture(scope="module")
def sweep():
    """``sweep(cmd)``: the ``{id: CellResult}`` of that command's quick
    seed-1 matrix, from the specs the CLI builds, run once per module."""
    done = {}

    def run(cmd):
        if cmd not in done:
            specs_fn, _ = _sweep_builders(cmd, False)
            done[cmd] = _sweep(specs_fn(True, 1, SEED))
        return done[cmd]

    return run


def _assert_pinned(cmd, results, expected):
    """Rendered stdout equals ``expected`` and the canonical payload JSON
    hashes to the committed digest."""
    _, render_fn = _sweep_builders(cmd, False)
    assert render_fn(True, results) + "\n" == expected.read_text()
    blob = json.dumps({cid: r.value for cid, r in results.items()},
                      sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == PAYLOAD_SHA256[cmd]


@pytest.fixture(scope="module")
def table1(sweep):
    return assemble_table("BT", True, sweep("table1"))


@pytest.fixture(scope="module")
def table2(sweep):
    return assemble_table("EP", True, sweep("table2"))


@pytest.fixture(scope="module")
def table3(sweep):
    return assemble_table("FT", True, sweep("table3"))


@pytest.fixture(scope="module")
def table4(sweep):
    return assemble_htt_table("EP", True, sweep("table4"))


@pytest.fixture(scope="module")
def table5(sweep):
    return assemble_htt_table("FT", True, sweep("table5"))


@pytest.fixture(scope="module")
def figure1(sweep):
    return assemble_figure1(True, sweep("figure1"))


@pytest.fixture(scope="module")
def figure2(sweep):
    return assemble_figure2(True, sweep("figure2"))


def _short_is_noise(rpn, r):
    # short SMIs: within ±2.5 % or ±0.1 s of base (tiny cells see
    # single-SMI quantization, as the paper's own ±5/13 % cells do)
    assert abs(r.pct(1)) < 2.5 or abs(r.delta(1)) < 0.1, (
        rpn, r.cls, r.row, r.pct(1))


# -- Table 1: BT ---------------------------------------------------------------

@pytest.mark.slow
def test_table1_bt_short_free_long_costly_and_growing(table1):
    """Short SMIs are noise-free, long SMIs always cost, and the long-SMI
    % grows with the node count at 1 and at 4 ranks per node (§III.C)."""
    for rpn, rows in table1.items():
        by = {(r.cls, r.row): r for r in rows}
        for r in rows:
            if r.smm.get(0) is None:
                continue
            _short_is_noise(rpn, r)
            assert r.pct(2) > 5.0, (rpn, r.cls, r.row, r.pct(2))
        for cls in {r.cls for r in rows}:
            p1, p16 = by[(cls, 1)].pct(2), by[(cls, 16)].pct(2)
            assert p16 > p1, (rpn, cls, p1, p16)


@pytest.mark.slow
def test_table1_matches_committed_output(sweep):
    _assert_pinned("table1", sweep("table1"), GOLDEN / "table1.txt")


# -- Table 2: EP ---------------------------------------------------------------

def test_table2_ep_base_column_matches_paper(table2):
    """The 1-rank-per-node base cells are the calibration anchors: within
    5 % of the paper's times."""
    for r in table2[1]:
        if r.paper is not None:
            assert r.smm[0] == pytest.approx(r.paper[0], rel=0.05), (
                r.cls, r.row)


def test_table2_ep_long_smi_grows_with_nodes(table2):
    """EP is embarrassingly parallel, yet the long-SMI % grows with the
    node count (completion is a max over perturbed ranks)."""
    rows1 = {(r.cls, r.row): r for r in table2[1]}
    for (cls, row), r in rows1.items():
        _short_is_noise(1, r)
        assert 8.0 < r.pct(2) < 80.0, (cls, row, r.pct(2))
    for cls in {c for c, _ in rows1}:
        assert rows1[(cls, 16)].pct(2) > rows1[(cls, 1)].pct(2)
    # 4 ranks/node row 16 = 64 ranks: the table's largest perturbation
    rows4 = {(r.cls, r.row): r for r in table2[4]}
    for cls in {c for c, _ in rows4}:
        assert rows4[(cls, 16)].pct(2) > rows4[(cls, 1)].pct(2)


def test_table2_matches_committed_output(sweep):
    _assert_pinned("table2", sweep("table2"), EXPECTED / "table2.txt")


# -- Table 3: FT ---------------------------------------------------------------

def test_table3_ft_short_free_long_costly_at_scale(table3):
    for rpn, rows in table3.items():
        for r in rows:
            if r.smm.get(0) is None:
                continue
            _short_is_noise(rpn, r)
            assert r.pct(2) > 4.0, (rpn, r.cls, r.row, r.pct(2))
        by = {(r.cls, r.row): r for r in rows}
        for cls in {r.cls for r in rows}:
            if by[(cls, 1)].smm.get(0) is None:
                continue
            assert by[(cls, 16)].pct(2) > by[(cls, 1)].pct(2) * 0.9, (
                rpn, cls)


def test_table3_ft_class_c_blank_below_four_ranks():
    """The paper's blank cells: FT-C rows 1–2 at 1 rank per node do not
    fit in memory.  Those full-matrix cells run through the runner as
    infeasible (no simulation) and assemble as "-"; row 4 is feasible."""
    blank = {"FT.C n=1 rpn=1 smm=0", "FT.C n=2 rpn=1 smm=0"}
    specs = [s for s in table_cell_specs("FT", False, 1, SEED)
             if s.id in blank]
    assert {s.id for s in specs} == blank
    results = _sweep(specs)
    by = {(r.cls, r.row): r for r in assemble_table("FT", False, results)[1]}
    assert by[(NasClass.C.value, 1)].smm[0] is None
    assert by[(NasClass.C.value, 2)].smm[0] is None
    assert nas_config_feasible(NasConfig("FT", NasClass.C, 4, 1))


def test_table3_matches_committed_output(sweep):
    _assert_pinned("table3", sweep("table3"), EXPECTED / "table3.txt")


# -- Tables 4–5: HTT × SMI -----------------------------------------------------

def _htt_neutral_without_long_smis(rows):
    for r in rows:
        for smm in (0, 1):
            h0, h1 = r.cells[smm]
            if h0 and h1:
                assert abs(h1 - h0) / h0 < 0.03, (r.cls, r.row, smm)


def test_table4_ep_htt_penalty_only_under_long_smis(table4):
    """HTT matters only for long SMIs, with no clear per-row scaling
    pattern: ht0 ≈ ht1 under SMM 0/1, and summed over rows HTT-on pays
    extra under SMM 2."""
    _htt_neutral_without_long_smis(table4)
    tot0 = sum(r.cells[2][0] for r in table4 if r.cells[2][0])
    tot1 = sum(r.cells[2][1] for r in table4 if r.cells[2][1])
    assert tot1 >= tot0


def test_table4_matches_committed_output(sweep):
    _assert_pinned("table4", sweep("table4"), GOLDEN / "table4.txt")


@pytest.mark.slow
def test_table5_ft_htt_long_smi_delta_is_second_order(table5):
    """FT's HTT deltas are small and of both signs in the paper; require
    SMM-0/1 neutrality and a small long-SMI effect, not a sign."""
    _htt_neutral_without_long_smis(table5)
    deltas = []
    for r in table5:
        h0, h1 = r.cells[2]
        if h0 and h1:
            deltas.append(abs(h1 - h0) / h0)
            # per row: second-order even in the worst case (sub-second
            # cells see a whole misplacement window at once)
            assert abs(h1 - h0) / h0 < 0.50, (r.cls, r.row)
    assert sum(deltas) / len(deltas) < 0.15


@pytest.mark.slow
def test_table5_matches_committed_output(sweep):
    _assert_pinned("table5", sweep("table5"), GOLDEN / "table5.txt")


# -- Figure 1: Convolve --------------------------------------------------------

@pytest.mark.slow
def test_figure1_knee_and_cpu_scaling(figure1):
    """Minimal impact above ~600 ms, dramatic below; near-linear scaling
    to 4 CPUs and little HTT benefit beyond, for both configurations."""
    for name in ("CacheUnfriendly", "CacheFriendly"):
        baselines = figure1.baselines[name]
        for series in figure1.left[name]:
            k = int(series.label.replace("cpu", ""))
            base = baselines[k]
            by_x = dict(series.points)
            # knee: ≥1200 ms intervals within 15 % of base; 50 ms ≥ 2.5×
            slow_end = min(x for x in by_x if x >= 1200)
            assert by_x[slow_end] / base < 1.15, (name, k)
            assert by_x[50] / base > 2.5, (name, k)
            # impact monotone in frequency (±5 %: single-SMI phase
            # quantization at the sparse end of the sweep)
            ys = [by_x[x] for x in sorted(by_x)]
            assert all(a >= b * 0.95 for a, b in zip(ys, ys[1:])), (name, k)
        assert 3.0 < baselines[1] / baselines[4] < 5.5, name
        assert 0.95 < baselines[4] / baselines[8] < 1.35, name


@pytest.mark.slow
def test_figure1_matches_committed_output(sweep):
    _assert_pinned("figure1", sweep("figure1"), EXPECTED / "figure1.txt")


# -- Figure 2: UnixBench -------------------------------------------------------

@pytest.mark.slow
def test_figure2_core_scaling_and_symmetric_depression(figure2):
    """§IV.C: the index rises with cores and gains from HTT; long SMIs
    depress it, worst at short intervals; short SMIs show no effect; the
    relative loss is similar across CPU configurations."""
    base = figure2.baselines
    assert base[4] > 3.0 * base[1]
    assert 1.05 < base[8] / base[4] < 1.6
    for k, v in figure2.short_at_100ms.items():
        assert abs(v - base[k]) / base[k] < 0.04, k
    rel_loss = {}
    for s in figure2.long_series:
        k = int(s.label.replace("cpu", ""))
        by_x = dict(s.points)
        ys = [by_x[x] for x in sorted(by_x)]
        assert all(a <= b * 1.02 for a, b in zip(ys, ys[1:])), k
        assert by_x[100] / base[k] < 0.75, k
        rel_loss[k] = 1.0 - by_x[600] / base[k]
    assert max(rel_loss.values()) - min(rel_loss.values()) < 0.12


@pytest.mark.slow
def test_figure2_matches_committed_output(sweep):
    _assert_pinned("figure2", sweep("figure2"), GOLDEN / "figure2.txt")


# -- Seed-free zero-SMI cells --------------------------------------------------

def _forbid_draws(monkeypatch):
    """Make every draw from a ``random.Random`` raise: each draw method
    (``randint``, ``choice``, ``uniform``, ...) goes through one of
    these two."""
    def draw(*_args, **_kwargs):
        raise AssertionError("a seed-free run drew from the RNG")

    for name in ("random", "getrandbits"):
        monkeypatch.setattr(random.Random, name, draw)


def _seed_free_cells(cmd, seed, keep=lambda params: True):
    """``{id: (digest, payload)}`` of the seed-free cells of ``cmd``'s
    quick matrix at ``seed``, run in this process."""
    specs_fn, _ = _sweep_builders(cmd, False)
    return {s.id: (s.digest(), run_cell(s.fn, s.params, s.base_seed))
            for s in specs_fn(True, 1, seed)
            if seed_free(s.fn, s.params) and keep(s.params)}


@pytest.mark.parametrize("cmd", ["table2", "table3"])
def test_zero_smi_cells_never_draw_and_ignore_the_seed(cmd, monkeypatch):
    """The seed-free digest rests on this: a zero-SMI run draws nothing
    from its RNGs, so seeds 1, 2 and 7 give the same payload.  The cells
    of up to 16 ranks each run in well under 0.3 s."""
    _forbid_draws(monkeypatch)
    with pytest.raises(AssertionError, match="drew from the RNG"):
        run_cell("nas", {"bench": "EP", "cls": "A", "nodes": 1, "rpn": 1,
                         "smm": 1, "reps": 1}, 1)
    small = lambda p: p["nodes"] * p["rpn"] <= 16  # noqa: E731
    runs = [_seed_free_cells(cmd, seed, small) for seed in (1, 2, 7)]
    assert len(runs[0]) >= 8
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.slow
@pytest.mark.parametrize("cmd", ["table1", "table2", "table3", "table4",
                                 "table5"])
def test_every_zero_smi_quick_cell_is_seed_free(cmd, sweep, monkeypatch):
    """Every ``smm=0`` cell of the five NAS quick grids: seeds 2 and 7,
    with RNG draws forbidden, give the seed-1 sweep's digest and
    payload."""
    seed1 = {cid: (r.digest, r.value) for cid, r in sweep(cmd).items()}
    _forbid_draws(monkeypatch)
    for seed in (2, 7):
        got = _seed_free_cells(cmd, seed)
        assert got and got == {cid: seed1[cid] for cid in got}, seed
