"""NPB parameters, structural invariants, calibration integrity."""

import pytest

from repro.apps.nas.params import (
    BT_PARAMS,
    EP_PARAMS,
    FT_PARAMS,
    NAS_EP_PROFILE,
    NasClass,
    PAPER_BASE_1RANK_S,
)
from repro.core.calibration import derive_work_units


def test_structural_invariants_all_hold():
    """Class-parameter sanity: monotone work, the published geometry."""
    order = [NasClass.A, NasClass.B, NasClass.C]
    for name, params in (("EP", EP_PARAMS), ("BT", BT_PARAMS), ("FT", FT_PARAMS)):
        works = [params[c].work_total for c in order]
        assert works[0] < works[1] < works[2], name
    assert [EP_PARAMS[c].m for c in order] == [28, 30, 32]
    assert [BT_PARAMS[c].grid_n for c in order] == [64, 102, 162]
    assert all(BT_PARAMS[c].niter == 200 for c in order)
    assert [FT_PARAMS[c].cells for c in order] == [
        256 * 256 * 128,
        512 * 256 * 256,
        512 * 512 * 512,
    ]
    assert [FT_PARAMS[c].niter for c in order] == [6, 20, 20]


def test_ep_pair_counts():
    assert EP_PARAMS[NasClass.A].m == 28  # 2^28 pairs
    assert EP_PARAMS[NasClass.C].m == 32
    assert EP_PARAMS[NasClass.A].work_total > 0


def test_bt_message_size_shrinks_with_ranks():
    p = BT_PARAMS[NasClass.A]
    assert p.msg_bytes(16) == p.msg_bytes(4) // 2  # ∝ 1/√p
    assert p.msg_bytes(1) == 5 * 8 * 64 * 64


def test_ft_geometry_and_bytes():
    p = FT_PARAMS[NasClass.A]
    assert p.cells == 2**23
    assert p.total_bytes == 2**23 * 16
    assert p.per_pair_bytes(4) == p.total_bytes // 16


def test_ft_c_min_ranks_reproduces_blank_cells():
    assert FT_PARAMS[NasClass.C].min_ranks == 4
    assert FT_PARAMS[NasClass.A].min_ranks == 1


def test_calibration_rederivation_matches_stored_constants():
    """params.py's work constants must equal paper_time × solo_rate."""
    for row in derive_work_units():
        assert row.relative_error < 1e-9, row


def test_work_ratios_follow_paper_base_times():
    for bench, params in (("EP", EP_PARAMS), ("BT", BT_PARAMS), ("FT", FT_PARAMS)):
        base = PAPER_BASE_1RANK_S[bench]
        ratio_work = params[NasClass.B].work_total / params[NasClass.A].work_total
        ratio_time = base[NasClass.B] / base[NasClass.A]
        assert ratio_work == pytest.approx(ratio_time, rel=1e-9)


def test_ep_profile_is_htt_neutral():
    """FP-dense NAS kernels gain nothing from HTT (Leng et al. [4])."""
    assert NAS_EP_PROFILE.htt_yield == 1.0
