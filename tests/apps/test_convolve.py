"""Convolve simulator workload: configs, scaling, SMI regimes."""

import pytest

from repro.apps.convolve import (
    CACHE_FRIENDLY,
    CACHE_UNFRIENDLY,
    ConvolveConfig,
    run_convolve,
)
from repro.core.smi import SmiProfile
from repro.machine.profile import WorkloadProfile


def test_paper_configurations():
    """§IV.B's table: image/subimage/kernel sizes."""
    assert CACHE_FRIENDLY.image_pixels == 500_000       # 0.5 MP
    assert CACHE_FRIENDLY.subimage_pixels == 16         # 4×4
    assert CACHE_FRIENDLY.kernel_side == 61
    assert CACHE_UNFRIENDLY.image_pixels == 16_000_000  # 16 MP
    assert CACHE_UNFRIENDLY.subimage_pixels == 1_000_000
    assert CACHE_UNFRIENDLY.kernel_side == 3


def test_madds_math():
    assert CACHE_FRIENDLY.madds_per_pass == 500_000 * 61 * 61
    assert CACHE_UNFRIENDLY.madds_per_pass == 16_000_000 * 9
    assert CACHE_FRIENDLY.blocks == 500_000 // 16
    assert CACHE_UNFRIENDLY.blocks == 16


def test_cf_pays_spawn_overhead_share():
    """CF spawns 31 250 tiny blocks per pass — spawn cost must be a
    visible part of its total (the paper times thread spawning)."""
    spawn_part = (
        CACHE_FRIENDLY.total_work
        - CACHE_FRIENDLY.repetitions * CACHE_FRIENDLY.madds_per_pass
    )
    assert spawn_part / CACHE_FRIENDLY.total_work > 0.2


def test_scaling_one_to_four_cpus_near_linear():
    t1 = run_convolve(CACHE_UNFRIENDLY, 1, seed=1).elapsed_s
    t4 = run_convolve(CACHE_UNFRIENDLY, 4, seed=1).elapsed_s
    assert 3.0 < t1 / t4 < 5.0


def test_htt_benefit_minimal_for_both_configs():
    """§IV.B: CU 'did not benefit greatly from HTT'; CF 'shows minimal
    benefits from HTT'."""
    for cfg in (CACHE_FRIENDLY, CACHE_UNFRIENDLY):
        t4 = run_convolve(cfg, 4, seed=1).elapsed_s
        t8 = run_convolve(cfg, 8, seed=1).elapsed_s
        assert t8 <= t4 * 1.02          # not slower
        assert t8 > t4 * 0.80           # far from 2× speedup


def test_long_smi_50ms_interval_dramatic():
    base = run_convolve(CACHE_FRIENDLY, 4, seed=1).elapsed_s
    noisy = run_convolve(
        CACHE_FRIENDLY, 4, smi_durations=SmiProfile.LONG,
        smi_interval_jiffies=50, seed=1,
    ).elapsed_s
    assert noisy / base > 2.5  # the figure's blow-up regime


def test_long_smi_1500ms_interval_minimal():
    base = run_convolve(CACHE_FRIENDLY, 4, seed=1).elapsed_s
    noisy = run_convolve(
        CACHE_FRIENDLY, 4, smi_durations=SmiProfile.LONG,
        smi_interval_jiffies=1500, seed=1,
    ).elapsed_s
    assert (noisy - base) / base < 0.12


def test_impact_monotone_in_frequency():
    times = [
        run_convolve(
            CACHE_FRIENDLY, 4, smi_durations=SmiProfile.LONG,
            smi_interval_jiffies=iv, seed=1,
        ).elapsed_s
        for iv in (100, 400, 800, 1500)
    ]
    assert times == sorted(times, reverse=True)


def test_short_smi_invisible():
    base = run_convolve(CACHE_FRIENDLY, 4, seed=1).elapsed_s
    noisy = run_convolve(
        CACHE_FRIENDLY, 4, smi_durations=SmiProfile.SHORT,
        smi_interval_jiffies=1000, seed=1,
    ).elapsed_s
    assert abs(noisy - base) / base < 0.01


def test_result_metadata():
    r = run_convolve(CACHE_UNFRIENDLY, 2, smi_durations=SmiProfile.LONG,
                     smi_interval_jiffies=500, seed=1)
    assert r.extra["logical_cpus"] == 2
    assert r.extra["threads"] == 24
    assert r.extra["smm_entries"] > 0
    assert r.work_ops > 0 and r.elapsed_s > 0


def test_custom_config_validation_and_work():
    cfg = ConvolveConfig(
        name="tiny", image_pixels=1000, subimage_pixels=100, kernel_side=3,
        profile=WorkloadProfile(name="p"), repetitions=1,
    )
    assert cfg.blocks == 10
    assert cfg.total_work > cfg.madds_per_pass
