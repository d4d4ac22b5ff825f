"""Gap detector: catches SMIs, clean baseline, BIOSBITS accounting."""

import pytest

from repro.core.detector import BIOSBITS_THRESHOLD_NS, GapDetector, host_gap_scan
from repro.core.smi import SmiProfile, SmiSource
from repro.machine.topology import WYEAST_SPEC
from repro.system import make_machine


def run_detector(machine, window_s=1.0, quantum_ns=50_000):
    det = GapDetector(machine.node, quantum_ns=quantum_ns)
    proc = machine.engine.process(
        det.run(int(window_s * 1e9)), name="detector", gate=machine.node
    )
    machine.engine.run_until(proc.done_event)
    return det.report


def test_clean_machine_has_no_gaps():
    m = make_machine(WYEAST_SPEC)
    rep = run_detector(m, window_s=0.5)
    assert rep.detected == 0
    assert rep.samples > 5000


@pytest.mark.parametrize(
    "durations, interval, machine_seed, smi_seed, window_s, min_entries, widths_ns",
    [
        # measured widths ≈ the long SMI residencies
        pytest.param(SmiProfile.LONG, 200, 1, 4, 1.0, 4, (95_000_000, 120_000_000),
                     id="long@200ms"),
        pytest.param(SmiProfile.SHORT, 1000, 21, 21, 2.0, 1, None, id="short@1s"),
        pytest.param(SmiProfile.LONG, 1000, 21, 21, 2.0, 1, None, id="long@1s"),
        pytest.param(SmiProfile.LONG, 300, 21, 21, 2.0, 1, None, id="long@300ms"),
    ],
)
def test_detects_every_long_smi(
    durations, interval, machine_seed, smi_seed, window_s, min_entries, widths_ns
):
    m = make_machine(WYEAST_SPEC, seed=machine_seed)
    SmiSource(m.node, durations, interval, seed=smi_seed)
    rep = run_detector(m, window_s=window_s)
    entries = m.node.smm.stats.entries
    assert entries >= min_entries
    assert rep.detected == entries  # every SMI caught
    if widths_ns is not None:
        for g in rep.gaps:
            assert widths_ns[0] < g.width_ns < widths_ns[1]
    assert rep.biosbits_violations == entries  # all exceed 150 µs


def test_detects_short_smis_above_biosbits_threshold():
    """Even 1–3 ms SMIs are far above the 150 µs BIOSBITS budget — the
    tooling angle: short SMIs are invisible in throughput but glaring to
    a latency detector."""
    m = make_machine(WYEAST_SPEC, seed=2)
    SmiSource(m.node, SmiProfile.SHORT, 100, seed=5)
    rep = run_detector(m, window_s=0.5)
    assert rep.detected >= 3
    assert rep.biosbits_violations == rep.detected
    assert rep.max_gap_ns() < 5_000_000


def test_total_gap_estimates_stolen_time():
    m = make_machine(WYEAST_SPEC, seed=3)
    SmiSource(m.node, SmiProfile.LONG, 500, seed=6)
    rep = run_detector(m, window_s=2.0)
    stolen = m.node.smm.stats.total_ns
    assert rep.total_gap_ns == pytest.approx(stolen, rel=0.1)


def test_threshold_configurable():
    m = make_machine(WYEAST_SPEC, seed=1)
    SmiSource(m.node, SmiProfile.SHORT, 100, seed=7)
    det = GapDetector(m.node, quantum_ns=50_000, threshold_ns=10_000_000)
    proc = m.engine.process(det.run(int(0.5e9)), name="det", gate=m.node)
    m.engine.run_until(proc.done_event)
    assert det.report.detected == 0  # 1-3 ms gaps below a 10 ms threshold


def test_bad_quantum_rejected():
    m = make_machine(WYEAST_SPEC)
    with pytest.raises(ValueError):
        GapDetector(m.node, quantum_ns=0)


def test_host_gap_scan_runs_on_real_clock():
    rep = host_gap_scan(window_s=0.05)
    assert rep.samples > 100
    assert rep.threshold_ns == BIOSBITS_THRESHOLD_NS
    assert rep.window_ns == 50_000_000
