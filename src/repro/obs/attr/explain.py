"""One-call attribution of a table cell, and its terminal rendering.

:func:`attribute_cell` runs a (config, SMI-class) cell twice with the
capture layer attached — once at SMM 0 (the baseline), once under the
requested SMI class, same seed — then classifies waits, extracts the
critical path, and decomposes the slowdown.  The resulting ``report``
dict is pure JSON data, deterministic for a given (params, seed): it is
what lands in the runx manifest's per-cell ``attribution`` block and
what ``repro-smm explain`` renders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.obs.attr.capture import AttrCapture
from repro.obs.attr.critical import CriticalPath, critical_path
from repro.obs.attr.decompose import Decomposition, decompose
from repro.obs.attr.profile import RunProfile, build_profile

__all__ = ["CellAttribution", "attribute_cell", "render_explain"]


def _duty_nominal(smm: int, interval_jiffies: int) -> float:
    """Expected duty cycle of an SMI class at an interval (DESIGN §5)."""
    from repro.core.smi import SmiProfile

    durations = SmiProfile.by_index(smm)
    if durations is None:
        return 0.0
    d = durations.mean_ns
    interval_ns = interval_jiffies * 1_000_000
    if interval_ns >= d:
        return d / interval_ns
    return d / (interval_ns + d)  # tick-swallowing regime


@dataclass
class CellAttribution:
    """Everything :func:`attribute_cell` produced for one cell.

    ``base`` is the full baseline :class:`RunProfile` when the baseline
    was simulated in this call, or the memoized
    :class:`~repro.obs.attr.baseline.BaselineProfile` projection when it
    came out of the shared-baseline store (the decomposition is
    identical either way — the projection preserves every field
    ``decompose`` reads, bit for bit).
    """

    report: Dict[str, Any]
    decomposition: Decomposition
    critical: CriticalPath
    noisy: RunProfile
    base: Any
    noisy_timeline: Any = None


def attribute_cell(
    bench: str,
    cls: Any = "A",
    nodes: int = 2,
    rpn: int = 1,
    smm: int = 2,
    seed: int = 1,
    interval_jiffies: int = 1000,
    htt: bool = False,
    metrics=None,
    trace: bool = False,
    tolerance: float = 0.05,
    baselines=None,
    baseline_seed: Optional[int] = None,
    noisy_capture: Optional[AttrCapture] = None,
    noisy_timeline=None,
) -> Optional[CellAttribution]:
    """Run + attribute one cell; None for infeasible configurations.

    ``baselines`` is the :class:`~repro.obs.attr.baseline.BaselineStore`
    to memoize the zero-SMI run through; ``None`` uses the process-wide
    store, so every noisy class of one configuration within a process
    (a persistent worker included, across the cells it runs) pays for
    exactly one baseline simulation.

    ``baseline_seed`` keys (and seeds) the zero-SMI run; ``None`` uses
    the noisy ``seed``.  The zero-SMI simulation is seed-deterministic,
    so a sweep may point every SMI class of one configuration at a
    canonical baseline seed — the table's SMM-0 column — and share a
    single baseline run without changing a bit of any report
    (:func:`repro.runx.cells.nas_cell` does exactly that).

    ``noisy_capture`` (with ``noisy_timeline``) is an already-populated
    capture of the noisy run at this exact (params, seed); when given,
    the noisy simulation is not repeated.  The capture layer is passive,
    so a capture taken during a sweep's first repetition is
    byte-identical to a dedicated replay.
    """
    from repro.apps.nas.params import NasClass
    from repro.apps.nas.study import NasConfig, run_nas_config
    from repro.obs.attr.baseline import (
        BaselineProfile, baseline_digest, global_store)
    from repro.simx.timeline import Timeline

    if smm <= 0:
        raise ValueError("attribution needs an SMI class (smm >= 1); "
                         "SMM 0 has nothing to explain")
    if isinstance(cls, str):
        cls = NasClass(cls.upper())
    cfg = NasConfig(bench, cls, nodes=nodes, ranks_per_node=rpn, htt=htt)
    store = baselines if baselines is not None else global_store()
    bseed = seed if baseline_seed is None else int(baseline_seed)
    digest = baseline_digest(
        cfg.bench, cfg.cls.value, nodes, rpn, htt, bseed)
    base = store.get(digest)
    if base is None:
        base_cap = AttrCapture(metrics=metrics)
        base_s = run_nas_config(
            cfg, smm=0, seed=bseed, interval_jiffies=interval_jiffies,
            timeline=Timeline(), metrics=metrics, attr=base_cap,
        )
        if base_s is None:
            return None
        base = build_profile(base_cap)
        store.put(digest, BaselineProfile.from_profile(base))
        if metrics is not None:
            metrics.counter(
                "attr.baseline.misses", "baseline runs simulated").inc()
    elif metrics is not None:
        metrics.counter(
            "attr.baseline.hits",
            "baseline runs satisfied from the shared store").inc()
    if noisy_capture is not None:
        noisy_cap, noisy_tl = noisy_capture, noisy_timeline
    else:
        noisy_cap = AttrCapture(metrics=metrics)
        noisy_tl = Timeline()
        run_nas_config(
            cfg, smm=smm, seed=seed, interval_jiffies=interval_jiffies,
            timeline=noisy_tl, metrics=metrics, attr=noisy_cap, trace=trace,
        )
    noisy = build_profile(noisy_cap)
    dec = decompose(noisy, base, tolerance=tolerance)
    cp = critical_path(noisy)
    report = _report(cfg, smm, seed, interval_jiffies, dec, cp, noisy)
    if metrics is not None:
        metrics.counter("attr.cells", "cells attributed").inc()
        if not dec.conserved:
            metrics.counter(
                "attr.conservation_violations",
                "decompositions whose residual exceeded tolerance").inc()
    return CellAttribution(
        report=report, decomposition=dec, critical=cp,
        noisy=noisy, base=base, noisy_timeline=noisy_tl,
    )


def _r(x: float, digits: int = 6) -> float:
    return round(float(x), digits)


def _report(cfg, smm, seed, interval_jiffies, dec: Decomposition,
            cp: CriticalPath, noisy: RunProfile) -> Dict[str, Any]:
    ls_n = ls_s = lr_n = co_n = co_s = 0
    by_op: Dict[str, int] = {}
    for rp in noisy.ranks.values():
        ls_s += rp.late_sender_ns
        co_s += rp.collective_ns
        for op, ns in rp.coll_by_op.items():
            by_op[op] = by_op.get(op, 0) + ns
    for ws in noisy.waits.values():
        for w in ws:
            if w.cls == "late_sender":
                ls_n += 1
            elif w.cls == "late_receiver":
                lr_n += 1
            else:
                co_n += 1
    queue_s = sum(rp.queue_ns for rp in noisy.ranks.values()) / 1e9
    gate_s = sum(rp.gate_ns for rp in noisy.ranks.values()) / 1e9
    return {
        "bench": cfg.bench,
        "class": cfg.cls.value,
        "nodes": cfg.nodes,
        "rpn": cfg.ranks_per_node,
        "htt": cfg.htt,
        "smm": smm,
        "seed": seed,
        "interval_jiffies": interval_jiffies,
        "baseline_s": _r(dec.baseline_s),
        "noisy_s": _r(dec.noisy_s),
        "slowdown_s": _r(dec.slowdown_s),
        "slowdown_pct": _r(100.0 * dec.slowdown_s / dec.baseline_s, 2),
        "duty_nominal_pct": _r(100.0 * _duty_nominal(smm, interval_jiffies), 2),
        "duty_measured_pct": _r(100.0 * noisy.duty_measured(), 2),
        # The paper's tax-vs-amplification split: direct theft as a share
        # of the noisy runtime lands near the duty cycle; everything past
        # it is amplification (mostly induced wait).
        "direct_share_of_runtime_pct": _r(
            100.0 * dec.direct_s / max(dec.noisy_s, 1e-9), 2),
        "terminal_rank": dec.terminal_rank,
        "terminal_node": dec.terminal_node,
        "components": {
            "direct_smi_s": _r(dec.direct_s),
            "induced_wait_s": _r(dec.induced_s),
            "contention_s": _r(dec.contention_s),
            "residual_s": _r(dec.residual_s),
        },
        "contention_detail": {
            "nic_queue_s": _r(dec.nic_queue_s),
            "cpu_htt_s": _r(dec.cpu_drift_s),
        },
        "conservation": {
            "residual_frac": _r(dec.residual_frac, 4),
            "tolerance": dec.tolerance,
            "ok": dec.conserved,
        },
        "wait_states": {
            "late_sender": {"count": ls_n, "seconds": _r(ls_s / 1e9)},
            "late_receiver": {"count": lr_n},
            "collective": {
                "count": co_n,
                "seconds": _r(co_s / 1e9),
                "by_op": {op: _r(ns / 1e9) for op, ns in sorted(by_op.items())},
            },
            "nic_queue_s": _r(queue_s),
            "receiver_gate_s": _r(gate_s),
        },
        "misplacements": sum(noisy.misplacements.values()),
        "critical_path": {
            "segments": len(cp.segments),
            "ranks": cp.ranks_visited,
            "nodes": cp.nodes_visited(noisy),
            "compute_s": _r(cp.compute_ns / 1e9),
            "wait_s": _r(cp.wait_ns / 1e9),
            "direct_theft_s": _r(cp.direct_theft_ns / 1e9),
            "theft_behind_waits_s": _r(cp.theft_behind_waits_ns / 1e9),
        },
        "per_rank": [
            [r, _r(noisy.ranks[r].wait_ns / 1e9),
             _r(noisy.ranks[r].stolen_ns / 1e9)]
            for r in sorted(noisy.ranks)
        ],
    }


def _bar(value: float, total: float, width: int = 32) -> str:
    if total <= 0 or value <= 0:
        return ""
    return "#" * max(1, min(width, int(round(width * value / total))))


def render_explain(report: Dict[str, Any], paper=None) -> str:
    """Terminal rendering of a report, next to the paper's numbers.

    ``paper`` is the :data:`repro.paperdata` ``(smm0, smm1, smm2)``
    tuple for the same cell when the paper published it.
    """
    from repro.analysis.figures import Series, ascii_chart

    r = report
    c = r["components"]
    lines = []
    h = " ht=1" if r.get("htt") else ""
    lines.append(
        f"== {r['bench']}.{r['class']} n={r['nodes']} rpn={r['rpn']}{h} "
        f"smm={r['smm']} · noise attribution (seed {r['seed']}, "
        f"interval {r['interval_jiffies']} jiffies) ==")
    lines.append("")
    p0 = p2 = None
    if paper is not None:
        p0, p2 = paper[0], paper[r["smm"]]
    lines.append(
        f"  baseline (SMM 0)  {r['baseline_s']:>10.4f} s"
        + (f"     paper {p0:>8.2f} s" if p0 else ""))
    lines.append(
        f"  with SMI class {r['smm']} {r['noisy_s']:>11.4f} s"
        + (f"     paper {p2:>8.2f} s" if p2 else ""))
    paper_pct = ""
    if p0 and p2:
        paper_pct = f"     paper {100.0 * (p2 - p0) / p0:+.2f}%"
    lines.append(
        f"  slowdown          {r['slowdown_s']:>+10.4f} s  "
        f"({r['slowdown_pct']:+.2f}%)" + paper_pct)
    lines.append(
        f"  SMI duty cycle    {r['duty_nominal_pct']:.2f}% nominal · "
        f"{r['duty_measured_pct']:.2f}% measured")
    lines.append(
        f"  direct theft is {r['direct_share_of_runtime_pct']:.2f}% of the "
        "noisy runtime (~ duty cycle); the rest of the slowdown is "
        "amplification")
    lines.append("")
    lines.append(
        f"-- decomposition along critical rank {r['terminal_rank']} "
        f"({r['terminal_node']}) ".ljust(71, "-"))
    total = max(r["slowdown_s"], 1e-9)
    for label, key in (
        ("direct SMI theft", "direct_smi_s"),
        ("induced MPI wait", "induced_wait_s"),
        ("contention", "contention_s"),
        ("residual", "residual_s"),
    ):
        v = c[key]
        pct = 100.0 * v / total
        lines.append(
            f"  {label:<17}{v:>10.4f} s {pct:>6.1f}% |{_bar(v, total)}")
    cons = r["conservation"]
    lines.append(
        f"  conservation: |residual| = {100.0 * cons['residual_frac']:.2f}% "
        f"of slowdown (tolerance {100.0 * cons['tolerance']:.1f}%) -> "
        + ("OK" if cons["ok"] else "VIOLATED"))
    cd = r["contention_detail"]
    lines.append(
        f"    contention = nic queueing {cd['nic_queue_s']:.4f} s "
        f"+ cpu/HTT drift {cd['cpu_htt_s']:.4f} s")
    lines.append("")
    lines.append("-- wait states (noisy run, all ranks) ".ljust(71, "-"))
    ws = r["wait_states"]
    lines.append(
        f"  late sender   {ws['late_sender']['count']:>6} waits  "
        f"{ws['late_sender']['seconds']:>10.4f} s")
    lines.append(f"  late receiver {ws['late_receiver']['count']:>6} waits")
    ops = ws["collective"]["by_op"]
    op_note = ""
    if ops:
        op_note = "  (" + ", ".join(
            f"{op} {s:.2f}" for op, s in sorted(ops.items())) + ")"
    lines.append(
        f"  collective    {ws['collective']['count']:>6} waits  "
        f"{ws['collective']['seconds']:>10.4f} s" + op_note)
    lines.append(
        f"  nic queueing inside waits  {ws['nic_queue_s']:>10.4f} s")
    lines.append(
        f"  receiver-gate (own SMM)    {ws['receiver_gate_s']:>10.4f} s")
    lines.append(f"  post-SMM misplacements     {r['misplacements']:>10}")
    lines.append("")
    cp = r["critical_path"]
    lines.append("-- critical path (zigzag) ".ljust(71, "-"))
    lines.append(
        f"  segments {cp['segments']} · ranks {cp['ranks']} · "
        f"nodes {cp['nodes']}")
    lines.append(
        f"  compute {cp['compute_s']:.4f} s "
        f"(direct theft {cp['direct_theft_s']:.4f} s)")
    lines.append(
        f"  wait    {cp['wait_s']:.4f} s "
        f"(theft behind waits {cp['theft_behind_waits_s']:.4f} s)")
    lines.append("")
    lines.append("-- per-rank MPI wait (1) vs stolen CPU (2), shared scale "
                 .ljust(71, "-"))
    wait_series = Series("wait_s")
    stolen_series = Series("stolen_s")
    for rank, wait_s, stolen_s in r["per_rank"]:
        wait_series.add(rank, wait_s)
        stolen_series.add(rank, stolen_s)
    ymax = max(
        [y for _, y in wait_series.points + stolen_series.points] + [1e-9])
    lines.append(ascii_chart(
        [wait_series, stolen_series], width=60, height=12,
        y_min=0.0, y_max=ymax, x_label="rank",
    ))
    return "\n".join(lines)
