"""FT — the 3-D fast Fourier Transform benchmark.

Structure modeled: per iteration, a local FFT pass over the rank's slab,
then the global transpose — an all-to-all moving the *entire* dataset
(each rank sends cells·16/p² bytes to every peer), then the remaining
local FFT work, and the per-iteration checksum allreduce that real FT
performs.  The all-to-all is why FT is the communication-heaviest of the
three, why 4 ranks/node "are poor fits for the underlying platform"
(§III.C — four ranks' transpose traffic funnels through one NIC), and
why a long SMI anywhere stretches every iteration.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.apps.nas.params import FT_PARAMS, FtParams, NasClass
from repro.machine.topology import OS_RESERVED_BYTES, MachineSpec, WYEAST_SPEC
from repro.mpi.comm import Rank

__all__ = ["make_ft_app", "ft_feasible"]

#: Fraction of per-iteration compute done before the transpose (the first
#: two FFT dimensions) vs after it (the third dimension + evolve).
_PRE_TRANSPOSE_FRACTION = 0.66


def ft_feasible(
    cls: NasClass,
    nranks: int,
    ranks_per_node: int = 1,
    machine: MachineSpec = WYEAST_SPEC,
) -> bool:
    """Can this FT configuration run?  Reproduces the paper's blank Table
    3 cells: class C below 4 ranks never ran on Wyeast (per-rank
    footprint vs the 12 GB nodes), encoded as ``min_ranks``; additionally
    checks the genuine per-node memory footprint."""
    params = FT_PARAMS[cls]
    if nranks < params.min_ranks:
        return False
    # ~2.5 arrays resident (u0, u1, scratch) per NPB FT.
    per_rank = 2.5 * params.total_bytes / nranks
    per_node = per_rank * min(ranks_per_node, nranks)
    return per_node <= machine.memory_bytes - OS_RESERVED_BYTES


def make_ft_app(cls: NasClass) -> Callable[[Rank], Generator]:
    """Build the per-rank body for FT at the given class."""
    params: FtParams = FT_PARAMS[cls]

    def app(rk: Rank) -> Generator:
        p = rk.size
        yield from rk.barrier()
        t0 = rk.now_ns()
        work_iter = params.work_total / params.niter / p
        pair_bytes = params.per_pair_bytes(p)
        checksum_ok = True
        for it in range(params.niter):
            yield from rk.compute(work_iter * _PRE_TRANSPOSE_FRACTION)
            if p > 1:
                yield from rk.alltoall(pair_bytes)
            yield from rk.compute(work_iter * (1.0 - _PRE_TRANSPOSE_FRACTION))
            # Real FT computes and reduces a checksum every iteration.
            local = float((rk.rank + 1) * (it + 1))
            total = yield from rk.allreduce(local, nbytes=16)
            expected = (it + 1) * p * (p + 1) / 2
            checksum_ok = checksum_ok and abs(total - expected) < 1e-6
        t1 = rk.now_ns()
        return {
            "elapsed_s": (t1 - t0) / 1e9,
            "verified": checksum_ok,
            "work_ops": params.work_total / p,
            "benchmark": f"FT.{cls.value}",
        }

    return app
