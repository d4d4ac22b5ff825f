#!/usr/bin/env python3
"""Convolve × HTT × SMI frequency (a slice of Figure 1).

Sweeps the paper's multithreaded methodology: 24 convolution threads on
1–8 online logical CPUs (1–4 = HTT-disabled-like, 5–8 online HTT
siblings), clean and under long SMIs at a 50 ms interval.

Run:  python examples/convolve_htt.py               (~1 minute)
"""

from repro.apps.convolve import CACHE_FRIENDLY, CACHE_UNFRIENDLY, run_convolve
from repro.core.smi import SmiProfile


def sweep(config) -> None:
    print(f"\n{config.name}: 24 threads, long SMIs @50 ms vs clean")
    print(f"{'logical CPUs':>13} {'clean s':>9} {'noisy s':>9} {'slowdown':>9}")
    for cpus in (1, 2, 3, 4, 6, 8):
        clean = run_convolve(config, cpus, seed=5).elapsed_s
        noisy = run_convolve(
            config, cpus, smi_durations=SmiProfile.LONG,
            smi_interval_jiffies=50, seed=5,
        ).elapsed_s
        print(f"{cpus:>13} {clean:>9.2f} {noisy:>9.2f} {noisy / clean:>8.2f}x")


def main() -> None:
    print("Convolve experiments (§IV.B): note near-linear scaling to 4 CPUs,")
    print("minimal HTT benefit at 5-8, and the dramatic 50 ms-interval regime.")
    sweep(CACHE_FRIENDLY)
    sweep(CACHE_UNFRIENDLY)


if __name__ == "__main__":
    main()
