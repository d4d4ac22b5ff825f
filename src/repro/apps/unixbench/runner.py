"""The UnixBench duplex run protocol on a simulated machine.

Mirrors byte-unixbench's ``Run`` script for the paper's subset: each test
executes for a fixed duration, first with a single copy, then with one
copy per online CPU; multi-copy raw results are the sum over copies (as
UnixBench aggregates), and each parallelism level gets its own geometric
index.  The paper plots "the total index score for each iteration"
(Figure 2) — :func:`run_unixbench` returns both levels, and the harness
uses the per-CPU-copies index for the figure's series.

Tests run sequentially (as in the real suite) on one machine instance, so
an attached SMI source keeps perturbing across test boundaries exactly as
the driver does on hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.apps.unixbench.index import IndexResult, TestScore
from repro.apps.unixbench.tests import UB_TESTS, UbTest
from repro.machine.topology import R410_SPEC
from repro.system import SimulatedMachine, make_machine

__all__ = ["UnixbenchRun", "run_unixbench"]

#: Target duration of one simulated measurement window.  Real UnixBench
#: uses 10 s; 1 s simulated keeps harness runtimes sane and still spans
#: several SMIs at the paper's intervals (100–1600 ms).
DEFAULT_DURATION_S = 2.0

#: Measurement-loop batch granularity (seconds of solo compute per batch).
_BATCH_S = 0.005


@dataclass
class UnixbenchRun:
    """Results of one full duplex UnixBench run."""

    logical_cpus: int
    single: IndexResult
    percpu: IndexResult

    @property
    def total_index(self) -> float:
        """The figure's y-value: the one-copy-per-CPU system index."""
        return self.percpu.index


def _measure_loop(machine: SimulatedMachine, test: UbTest, copies: int,
                  duration_ns: int) -> float:
    """Run ``copies`` independent measurement loops; return summed ops/s."""
    engine = machine.engine
    batch_units = test.profile.solo_rate(machine.node.spec.base_hz) * _BATCH_S
    batch_ops = max(1.0, batch_units / test.units_per_op)

    def loop_body(task):
        t0 = task.now_ns()
        ops = 0.0
        while task.now_ns() - t0 < duration_ns:
            yield from task.compute(batch_ops * test.units_per_op)
            ops += batch_ops
        return ops / ((task.now_ns() - t0) / 1e9)

    tasks = [
        machine.scheduler.spawn(loop_body, f"ub.{test.name}.{i}", test.profile)
        for i in range(copies)
    ]
    _run_all(machine, tasks)
    return sum(t.proc.result for t in tasks)


def _measure_pingpong(machine: SimulatedMachine, test: UbTest, copies: int,
                      duration_ns: int) -> float:
    """Context-switch pairs: each copy is two strictly-alternating tasks
    passing a token through a pipe; only one side runs at a time.  Passes
    are batched (the per-op work includes the switch + syscall cost)."""
    from repro.simx.resources import Channel

    engine = machine.engine
    batch_ops = 500.0
    results: List[float] = []
    tasks = []
    for c in range(copies):
        a2b = Channel(engine, capacity=1, name=f"pipe{c}.a2b")
        b2a = Channel(engine, capacity=1, name=f"pipe{c}.b2a")

        def ping(task, a2b=a2b, b2a=b2a):
            t0 = task.now_ns()
            ops = 0.0
            while task.now_ns() - t0 < duration_ns:
                yield from task.compute(batch_ops * test.units_per_op / 2)
                yield from a2b.put(ops)
                yield from b2a.get()
                ops += batch_ops
            yield from a2b.put(None)  # poison pill
            return ops / ((task.now_ns() - t0) / 1e9)

        def pong(task, a2b=a2b, b2a=b2a):
            while True:
                token = yield from a2b.get()
                if token is None:
                    return 0.0
                yield from task.compute(batch_ops * test.units_per_op / 2)
                yield from b2a.put(token)

        tasks.append(machine.scheduler.spawn(ping, f"ub.ctx.{c}.ping", test.profile))
        tasks.append(machine.scheduler.spawn(pong, f"ub.ctx.{c}.pong", test.profile))
    _run_all(machine, tasks)
    # Score the ping sides only (each pass is one context-switch pair).
    return sum(t.proc.result for t in tasks if t.proc.result)


def _run_all(machine: SimulatedMachine, tasks) -> None:
    engine = machine.engine
    done = engine.event("ub.phase")
    remaining = {"n": len(tasks)}

    def on_done(_ev):
        remaining["n"] -= 1
        if remaining["n"] == 0 and not done.triggered:
            done.succeed()

    for t in tasks:
        t.proc.done_event.add_callback(on_done)
    engine.run_until(done, limit_ns=engine.now + int(4_000e9))
    if not done.triggered:
        raise RuntimeError("unixbench phase did not finish")


def run_unixbench(
    logical_cpus: int,
    smi_durations=None,
    smi_interval_jiffies: int = 1000,
    seed: int = 1,
    duration_s: float = DEFAULT_DURATION_S,
    faults=None,
    metrics=None,
) -> UnixbenchRun:
    """One full duplex UnixBench run at a CPU configuration, optionally
    under SMI noise.  Returns single-copy and per-CPU-copy indices.

    ``faults`` (a :class:`repro.faults.FaultInjector`) is armed against
    the fresh machine's node before anything else is scheduled on it.
    """
    from repro.core.smi import SmiSource

    machine = make_machine(R410_SPEC, seed=seed, metrics=metrics)
    if faults is not None:
        faults.attach_node(machine.node)
    machine.sysfs.set_logical_cpus(logical_cpus)
    if smi_durations is not None:
        SmiSource(machine.node, smi_durations, smi_interval_jiffies, seed=seed + 29)
    duration_ns = int(duration_s * 1e9)

    def level(copies: int) -> IndexResult:
        scores = []
        for test in UB_TESTS:
            if test.kind == "pingpong":
                raw = _measure_pingpong(machine, test, copies, duration_ns)
            else:
                raw = _measure_loop(machine, test, copies, duration_ns)
            scores.append(TestScore(test.name, raw, test.baseline))
        return IndexResult(copies=copies, tests=scores)

    single = level(1)
    percpu = level(logical_cpus)
    return UnixbenchRun(logical_cpus=logical_cpus, single=single, percpu=percpu)
