#!/usr/bin/env python3
"""Quickstart: inject SMIs into a simulated machine and watch the cost.

Builds one Wyeast-class node, runs a 2-second compute task three times —
clean, under short SMIs (1–3 ms @ 1/s), and under long SMIs
(100–110 ms @ 1/s) — and prints the wall-time cost plus what the kernel
*thinks* the task used (the paper's mis-attribution effect).

Run:  python examples/quickstart.py
"""

from repro import make_machine, SmiProfile, SmiSource
from repro.machine.profile import COMPUTE_BOUND
from repro.machine.topology import WYEAST_SPEC


def run_once(smm_label, durations):
    machine = make_machine(WYEAST_SPEC, seed=42)
    if durations is not None:
        SmiSource(machine.node, durations, interval_jiffies=1000, seed=42)

    work = COMPUTE_BOUND.solo_rate(WYEAST_SPEC.base_hz) * 2.0  # exactly 2 s solo

    def body(task):
        yield from task.compute(work)

    task = machine.scheduler.spawn(body, "worker", COMPUTE_BOUND)
    machine.engine.run_until(task.proc.done_event)

    wall = task.finished_ns / 1e9
    acct = machine.scheduler.accounting.snapshot()[0]  # times in ns
    smis = machine.node.smm.stats.entries
    print(
        f"{smm_label:<22} wall {wall:6.3f} s   SMIs {smis:3d}   "
        f"kernel-utime {acct.kernel_ns / 1e9:6.3f} s   "
        f"true {acct.true_ns / 1e9:6.3f} s   stolen {acct.stolen_ns / 1e9:6.3f} s"
    )
    return wall


def main() -> None:
    print("2 s of computation on a simulated Xeon E5520 node:\n")
    base = run_once("no SMIs (SMM 0)", None)
    short = run_once("short SMIs (SMM 1)", SmiProfile.SHORT)
    long_ = run_once("long SMIs (SMM 2)", SmiProfile.LONG)
    print()
    print(f"short-SMI slowdown: {100 * (short - base) / base:5.2f} %  (paper: ~0 %)")
    print(f"long-SMI slowdown:  {100 * (long_ - base) / base:5.2f} %  (paper: ~11 %)")
    print("\nNote the kernel charges the stolen SMM time to the task —")
    print("a profiler would report the inflated number (§II.A of the paper).")


if __name__ == "__main__":
    main()
