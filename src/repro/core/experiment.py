"""Experiment methodology: repetitions and their seeds.

The paper's protocol (§III.C): "For each case we measured six runs and
report the average.  We repeated the entire set of measurements for the
three cases: no SMI activity, short SMIs, and long SMIs."  Its tables then
show, per configuration, the base mean, and for each SMI class the mean,
the absolute delta (Δ) and the percent change (%).

This module holds the positional seed derivations every cell executor
(:mod:`repro.runx.cells`, which runs the repetitions) and table builder
(:mod:`repro.harness`) shares.
"""

from __future__ import annotations

__all__ = ["rep_seed", "smm_cell_seed"]

#: Per-repetition and per-SMI-class seed strides.  These are *positional*
#: derivations — a cell's seeds depend only on where it sits in the
#: matrix, never on execution order — which is what lets `repro.runx`
#: run cells in parallel or resume a sweep and still produce results
#: bit-identical to an uninterrupted serial run.
REP_SEED_STRIDE = 7919
SMM_SEED_STRIDE = 31
HTT_SEED_OFFSET = 977


def rep_seed(base_seed: int, rep: int) -> int:
    """Seed of repetition ``rep`` (0-based) of a cell."""
    return base_seed + REP_SEED_STRIDE * rep


def smm_cell_seed(seed: int, smm: int, htt: bool = False) -> int:
    """Base seed of the (smm, htt) cell of a table row."""
    return seed + SMM_SEED_STRIDE * smm + (HTT_SEED_OFFSET if htt else 0)

