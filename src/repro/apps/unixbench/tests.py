"""The five UnixBench tests as simulator workload definitions.

Each test is a fixed-duration measurement: run as many operations as
possible, report operations per second.  ``units_per_op`` (CPU work per
scored operation) is calibrated so a single copy on one idle CPU of the
R410 model produces raw results in the range real byte-unixbench reports
on Nehalem-era Xeons; the *absolute* values only anchor the index scale —
Figure 2's content is how the index moves with CPUs, HTT, and SMI noise.

HTT yields encode §II.B's taxonomy: the FP-saturating Whetstone gains
nothing from HTT (Leng et al. [4]); the integer/string Dhrystone and the
syscall-heavy pipe tests leave stalls HTT can fill.  The aggregate is a
visible HTT gain for the suite, as Figure 2 shows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.unixbench.index import BASELINES
from repro.machine.profile import WorkloadProfile
from repro.machine.topology import R410_SPEC

__all__ = ["UbTest", "UB_TESTS"]


@dataclass(frozen=True)
class UbTest:
    """One simulated UnixBench test."""

    name: str
    profile: WorkloadProfile
    #: CPU work units consumed per scored operation.
    units_per_op: float
    #: scoring baseline (george's result; see index.py).
    baseline: float
    #: "loop" = independent measurement loop per copy; "pingpong" = a
    #: strictly-alternating process pair per copy (the context-switch test).
    kind: str = "loop"



def _t(name, profile, target_solo_ops, kind="loop") -> UbTest:
    units = profile.solo_rate(R410_SPEC.base_hz) / target_solo_ops
    return UbTest(name, profile, units, BASELINES[name], kind)


_DHRY = WorkloadProfile(
    name="ub-dhrystone",
    htt_yield=1.40,
    working_set_bytes=64 << 10,
    base_miss_rate=0.002,
    mem_ref_fraction=0.15,
    cache_sensitivity=0.5,
)
_WHET = WorkloadProfile(
    name="ub-whetstone",
    htt_yield=1.00,
    working_set_bytes=32 << 10,
    base_miss_rate=0.001,
    mem_ref_fraction=0.05,
    cache_sensitivity=0.5,
)
_PIPE = WorkloadProfile(
    name="ub-pipe",
    htt_yield=1.35,
    working_set_bytes=16 << 10,
    base_miss_rate=0.01,
    mem_ref_fraction=0.25,
    cache_sensitivity=0.5,
)
_CTX = WorkloadProfile(
    name="ub-ctx",
    htt_yield=1.30,
    working_set_bytes=16 << 10,
    base_miss_rate=0.01,
    mem_ref_fraction=0.25,
    cache_sensitivity=0.5,
)
_SYSC = WorkloadProfile(
    name="ub-syscall",
    htt_yield=1.35,
    working_set_bytes=8 << 10,
    base_miss_rate=0.005,
    mem_ref_fraction=0.20,
    cache_sensitivity=0.5,
)

#: The suite, in byte-unixbench run order.  Solo-result targets are
#: Nehalem-Xeon-era byte-unixbench figures.
UB_TESTS = (
    _t("dhrystone", _DHRY, 18e6),
    _t("whetstone", _WHET, 2_200.0),          # MWIPS
    _t("pipe_throughput", _PIPE, 1.4e6),
    _t("context_switching", _CTX, 320e3, kind="pingpong"),
    _t("syscall_overhead", _SYSC, 2.1e6),
)
