#!/usr/bin/env python3
"""What would SMM-based runtime integrity measurement (RIM) cost?

The paper's motivation (§I): proposals like HyperSentry/SPECTRE run
hypervisor-integrity checks *from SMM*, and "the amount of time needed to
reside in SMM in order to perform security checks can be disruptive".
This example prices that proposal with the model: a RIM profile
(30–40 ms per inspection) swept over inspection frequencies, measured on
the UnixBench index and on an MPI FT job — the two extremes of the
paper's workload space.

Run:  python examples/rim_inspection_cost.py        (~5 seconds)
"""

from repro.apps.nas.params import NasClass
from repro.apps.nas.study import NasConfig, run_nas_config
from repro.apps.unixbench import run_unixbench
from repro.core.smi import SmiProfile


def main() -> None:
    print("RIM-from-SMM cost model: 30-40 ms integrity check per inspection\n")
    ub_base = run_unixbench(8, seed=4, duration_s=1.0).total_index
    ft_cfg = NasConfig("FT", NasClass.A, 4, 1)
    ft_base = run_nas_config(ft_cfg, smm=0, seed=4)

    print(f"{'inspection period':>18} {'duty %':>7} {'UnixBench idx':>14} "
          f"{'Δ%':>6} {'FT.A @4 nodes s':>16} {'Δ%':>6}")
    print(f"{'(baseline)':>18} {'0.0':>7} {ub_base:>14.0f} {'':>6} "
          f"{ft_base:>16.2f}")
    for period_ms in (5000, 2000, 1000, 500, 250):
        duty = 100 * 35 / period_ms
        ub = run_unixbench(
            8, SmiProfile.RIM, period_ms, seed=4, duration_s=1.0
        ).total_index
        ft = run_nas_config(ft_cfg, smm=SmiProfile.RIM, seed=4,
                            interval_jiffies=period_ms)
        print(
            f"{period_ms:>15} ms {duty:>7.1f} {ub:>14.0f} "
            f"{100 * (ub - ub_base) / ub_base:>6.1f} {ft:>16.2f} "
            f"{100 * (ft - ft_base) / ft_base:>6.1f}"
        )
    print("\nTakeaway: second-scale inspection periods are nearly free;")
    print("sub-second RIM taxes both throughput and parallel jobs roughly")
    print("at the SMM duty cycle — and the MPI penalty grows with node")
    print("count (run examples/mpi_noise_study.py to see amplification).")


if __name__ == "__main__":
    main()
