"""Slowdown decomposition with a conservation check.

The cell's measured slowdown (noisy minus zero-SMI baseline, the delta
the paper's tables report) is split along the timeline of the noisy
run's **terminal rank** r* — the rank whose finish defines the job's
makespan, where wall time tiles exactly into CPU-resident time plus
blocked time:

    T(r*) = true_cpu(r*) + stolen(r*) + wait(r*)   (+ scheduler slack)

Differencing against the *same rank* in the baseline run gives four
components that sum to the measured delta by construction:

* **direct**  — own-node SMM residency on r*'s timeline: CPU time the
  freeze stole from its compute segments *plus* freeze windows absorbed
  inside its blocked spans (the duty-cycle tax itself — in a
  synchronized application the two forms are interchangeable across
  ranks, and their sum ≈ duty × runtime on every rank);
* **induced** — growth of r*'s blocked MPI time net of NIC queueing and
  of its own-node freezes (remote freezes and amplified imbalance
  arriving as waits — the paper's communication amplification);
* **contention** — NIC-queueing growth plus CPU-drift (true service
  time growth: HTT-sibling interference after post-SMM misplacement,
  cache/sharing effects);
* **residual** — whatever remains (scheduler slack drift, the gap
  between the app's timed region and the whole-job tiling).  The
  conservation check requires |residual| ≤ tolerance × slowdown; a
  violation means the model of the run is missing something, and the
  CLI/CI surface it as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.obs.attr.profile import RunProfile

__all__ = ["Decomposition", "decompose", "projection"]


@dataclass
class Decomposition:
    """The four-way split, in seconds, plus its bookkeeping."""

    baseline_s: float
    noisy_s: float
    slowdown_s: float
    direct_s: float
    induced_s: float
    contention_s: float
    nic_queue_s: float
    cpu_drift_s: float
    residual_s: float
    residual_frac: float
    tolerance: float
    conserved: bool


def projection(prof: RunProfile) -> Dict[str, Any]:
    """What :func:`decompose` reads of one run, as plain JSON.

    ``elapsed_app_s``, ``span_ns`` and, per rank (keyed by ``str(rank)``),
    the five totals ``[wait, queue, smm_wait, stolen, true]`` in ns.
    Every number is copied as is, and JSON round-trips them exactly, so
    a decomposition read from a journaled projection equals one read
    from the live profile."""
    return {
        "elapsed_app_s": prof.elapsed_app_s,
        "span_ns": prof.span_ns,
        "ranks": {
            str(r): [rp.wait_ns, rp.queue_ns, rp.smm_wait_ns, rp.stolen_ns,
                     rp.true_ns]
            for r, rp in prof.ranks.items()
        },
    }


def _elapsed_s(run: Dict[str, Any]) -> float:
    if run["elapsed_app_s"] is not None:
        return run["elapsed_app_s"]
    return run["span_ns"] / 1e9


def decompose(noisy: Dict[str, Any], base: Dict[str, Any], rank: int,
              tolerance: float = 0.05) -> Decomposition:
    """Split ``noisy - base`` along the noisy run's terminal ``rank``.

    Both runs are :func:`projection` s; ``base`` is the zero-SMI run of
    the same configuration."""
    key = str(rank)
    if key not in base["ranks"]:
        raise ValueError(
            f"baseline profile has no rank {rank}; runs are not comparable")
    wn, qn, sn, stn, tn = noisy["ranks"][key]
    wb, qb, sb, stb, tb = base["ranks"][key]
    baseline_s = _elapsed_s(base)
    noisy_s = _elapsed_s(noisy)
    slowdown = noisy_s - baseline_s
    direct = (stn - stb + sn - sb) / 1e9
    nic = (qn - qb) / 1e9
    induced = ((wn - qn - sn) - (wb - qb - sb)) / 1e9
    cpu_drift = (tn - tb) / 1e9
    contention = nic + cpu_drift
    residual = slowdown - direct - induced - contention
    denom = max(abs(slowdown), 0.01 * max(baseline_s, 1e-9), 1e-9)
    frac = abs(residual) / denom
    return Decomposition(
        baseline_s=baseline_s,
        noisy_s=noisy_s,
        slowdown_s=slowdown,
        direct_s=direct,
        induced_s=induced,
        contention_s=contention,
        nic_queue_s=nic,
        cpu_drift_s=cpu_drift,
        residual_s=residual,
        residual_frac=frac,
        tolerance=tolerance,
        conserved=frac <= tolerance,
    )
