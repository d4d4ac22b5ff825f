"""Convolve — the multithreaded application kernel of §IV.B (simulated).

The paper convolves an M×M kernel Q over an N×N image P, splitting the
output into blocks and running up to 24 threads; two configurations were
chosen with cachegrind:

===============  ================  ===============
                 CacheFriendly     CacheUnfriendly
===============  ================  ===============
image size       0.5 megapixels    16 megapixels
subimage size    4×4 pixels        1 megapixel
kernel size      61×61             3×3
miss rate        ≈ 1 %             ≈ 70 %
===============  ================  ===============

both against ~20 M cache references.  Threads write thread-local memory
(no locking); measured time covers thread spawning, memory traffic, and
the multiply–add loop (§IV.B).

The simulator model executes the *calibrated work* of the multiply–add
loop (one work unit per multiply–add) on worker tasks whose
:class:`~repro.machine.profile.WorkloadProfile` encodes the measured miss
rate, the per-thread working set, and the HTT yield the paper observed
("Our CacheUnfriendly configuration did not benefit greatly from HTT";
"The CacheFriendly configuration shows minimal benefits from HTT").
Workers split their share into ~50 ms segments so the OS model gets
realistic re-placement points; per-block thread-spawn overhead is charged
as CPU work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.apps.base import AppResult
from repro.machine.profile import WorkloadProfile
from repro.machine.topology import R410_SPEC
from repro.system import make_machine

__all__ = ["ConvolveConfig", "CACHE_FRIENDLY", "CACHE_UNFRIENDLY", "run_convolve"]

#: pthread_create + block dispatch overhead charged per spawned block, in
#: work units (~25 µs at the R410's clock).
SPAWN_OVERHEAD_UNITS = 60_000.0

#: Worker segment granularity (fraction of a second of solo compute).
SEGMENT_TARGET_S = 0.05


@dataclass(frozen=True)
class ConvolveConfig:
    """One Convolve experimental configuration."""

    name: str
    image_pixels: int
    subimage_pixels: int
    kernel_side: int
    profile: WorkloadProfile
    #: how many times the filter pass is repeated per run (the paper's
    #: timed region must span several SMI intervals to show Figure 1's
    #: effects; repetitions keep the same memory behaviour).
    repetitions: int = 10

    @property
    def blocks(self) -> int:
        """Output blocks per pass (one logical thread spawn each)."""
        return max(1, self.image_pixels // self.subimage_pixels)

    @property
    def madds_per_pass(self) -> float:
        """One work unit per multiply–add: pixels × kernel area."""
        return float(self.image_pixels) * self.kernel_side * self.kernel_side

    @property
    def total_work(self) -> float:
        """Multiply–add work plus per-block spawn overhead, all passes."""
        return self.repetitions * (
            self.madds_per_pass + self.blocks * SPAWN_OVERHEAD_UNITS
        )


#: ~1 % misses: tiny 4×4 output tiles against a big 61×61 kernel held in
#: cache; compute-bound madds leave HTT little to fill (Saini et al. [5]).
CACHE_FRIENDLY = ConvolveConfig(
    name="CacheFriendly",
    image_pixels=500_000,
    subimage_pixels=16,
    kernel_side=61,
    profile=WorkloadProfile(
        name="convolve-cf",
        htt_yield=1.08,
        working_set_bytes=192 << 10,
        base_miss_rate=0.01,
        mem_ref_fraction=0.30,
        cache_sensitivity=0.6,
    ),
)

#: ~70 % misses: 16 MP image streamed with a 3×3 kernel; both HTT
#: siblings thrash, so the latency gaps HTT could fill are spent on a
#: saturated memory system (htt_yield ≈ 1.1).
CACHE_UNFRIENDLY = ConvolveConfig(
    name="CacheUnfriendly",
    image_pixels=16_000_000,
    subimage_pixels=1_000_000,
    kernel_side=3,
    profile=WorkloadProfile(
        name="convolve-cu",
        htt_yield=1.10,
        working_set_bytes=8 << 20,
        base_miss_rate=0.70,
        mem_ref_fraction=0.35,
        cache_sensitivity=0.3,
    ),
    repetitions=120,
)


def run_convolve(
    config: ConvolveConfig,
    logical_cpus: int,
    threads: int = 24,
    smi_durations=None,
    smi_interval_jiffies: int = 1000,
    seed: int = 1,
    faults=None,
    metrics=None,
) -> AppResult:
    """Run one Convolve experiment: ``threads`` workers on a machine
    configured to ``logical_cpus`` online CPUs (the paper's sysfs
    methodology), optionally under SMI noise.  Returns wall time and MOPs.

    ``faults`` (a :class:`repro.faults.FaultInjector`) is armed against
    the fresh machine's node before anything else is scheduled on it.
    """
    from repro.core.smi import SmiSource

    machine = make_machine(R410_SPEC, seed=seed, metrics=metrics)
    if faults is not None:
        faults.attach_node(machine.node)
    machine.sysfs.set_logical_cpus(logical_cpus)
    if smi_durations is not None:
        SmiSource(machine.node, smi_durations, smi_interval_jiffies, seed=seed + 17)

    total = config.total_work
    share = total / threads
    solo_per_seg = config.profile.solo_rate(machine.node.spec.base_hz) * SEGMENT_TARGET_S
    nseg = max(1, int(round(share / solo_per_seg)))
    spawn_ns = 25_000  # stagger of worker start (main spawns serially)

    results: Dict[str, float] = {}

    def worker(i: int):
        def body(task):
            yield from task.sleep(i * spawn_ns)
            for _ in range(nseg):
                yield from task.compute(share / nseg)
            return task.now_ns()

        return body

    engine = machine.engine
    t0 = engine.now
    tasks = [
        machine.scheduler.spawn(worker(i), f"conv.w{i}", config.profile)
        for i in range(threads)
    ]
    done = engine.event("convolve.done")
    remaining = {"n": threads}

    def on_done(_ev):
        remaining["n"] -= 1
        if remaining["n"] == 0 and not done.triggered:
            done.succeed()

    for t in tasks:
        t.proc.done_event.add_callback(on_done)
    engine.run_until(done, limit_ns=int(20_000e9))
    if not done.triggered:
        raise RuntimeError("convolve run did not finish")
    elapsed = (engine.now - t0) / 1e9
    return AppResult(
        name=f"convolve-{config.name}",
        elapsed_s=elapsed,
        work_ops=total,
        verified=None,
        extra={
            "logical_cpus": logical_cpus,
            "threads": threads,
            "smm_entries": machine.node.smm.stats.entries,
            "smm_time_s": machine.node.smm.stats.total_ns / 1e9,
        },
    )
