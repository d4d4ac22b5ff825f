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

from repro.obs.attr.profile import RunProfile

__all__ = ["Decomposition", "decompose"]


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
    terminal_rank: int
    terminal_node: str


def decompose(noisy: RunProfile, base, tolerance: float = 0.05
              ) -> Decomposition:
    """Split ``noisy - base`` along the noisy run's terminal rank.

    ``base`` is the zero-SMI reference: either a full
    :class:`RunProfile` or any profile-like object exposing ``ranks``
    (with per-rank ``wait_ns``/``queue_ns``/``smm_wait_ns``/
    ``stolen_ns``/``true_ns``), ``elapsed_app_s`` and ``span_ns`` — in
    particular the memoized
    :class:`~repro.obs.attr.baseline.BaselineProfile` projection, which
    preserves those fields bit-for-bit, so a decomposition against a
    cached baseline equals one against the fresh run."""
    r = noisy.terminal_rank
    if r not in base.ranks:
        raise ValueError(
            f"baseline profile has no rank {r}; runs are not comparable")
    rn, rb = noisy.ranks[r], base.ranks[r]
    baseline_s = base.elapsed_app_s if base.elapsed_app_s is not None else (
        base.span_ns / 1e9)
    noisy_s = noisy.elapsed_app_s if noisy.elapsed_app_s is not None else (
        noisy.span_ns / 1e9)
    slowdown = noisy_s - baseline_s
    direct = (rn.stolen_ns - rb.stolen_ns + rn.smm_wait_ns - rb.smm_wait_ns) / 1e9
    nic = (rn.queue_ns - rb.queue_ns) / 1e9
    induced = ((rn.wait_ns - rn.queue_ns - rn.smm_wait_ns)
               - (rb.wait_ns - rb.queue_ns - rb.smm_wait_ns)) / 1e9
    cpu_drift = (rn.true_ns - rb.true_ns) / 1e9
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
        terminal_rank=r,
        terminal_node=rn.node,
    )
