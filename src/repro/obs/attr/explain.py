"""One-call attribution of a table cell, and its terminal rendering.

:func:`attribute_cell` runs a (config, SMI-class) cell twice with the
capture layer attached — once at SMM 0 (the baseline), once under the
requested SMI class, same seed — then classifies waits, extracts the
critical path, and decomposes the slowdown.  The resulting ``report``
dict is pure JSON data, deterministic for a given (params, seed): it is
what lands in the runx manifest's per-cell ``attribution`` block and
what ``repro-smm explain`` renders.

A report is built in two halves, so a sweep can compute them in
different cells: :func:`noisy_record` holds everything the noisy run
alone decides, and :func:`finish_report` differences it against the
zero-SMI run's :func:`~repro.obs.attr.decompose.projection`.
:func:`attribute_cell` goes through the same two calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.obs.attr.capture import AttrCapture
from repro.obs.attr.critical import CriticalPath, critical_path
from repro.obs.attr.decompose import Decomposition, decompose, projection
from repro.obs.attr.profile import RunProfile, build_profile

__all__ = ["CellAttribution", "attribute_cell", "count_report",
           "finish_report", "noisy_record", "render_explain"]


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
    """Everything :func:`attribute_cell` produced for one cell."""

    report: Dict[str, Any]
    decomposition: Decomposition
    critical: CriticalPath
    noisy: RunProfile
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
) -> Optional[CellAttribution]:
    """Run + attribute one cell; None for infeasible configurations."""
    from repro.apps.nas.params import NasClass
    from repro.apps.nas.study import NasConfig, run_nas_config
    from repro.simx.timeline import Timeline

    if smm <= 0:
        raise ValueError("attribution needs an SMI class (smm >= 1); "
                         "SMM 0 has nothing to explain")
    if isinstance(cls, str):
        cls = NasClass(cls.upper())
    cfg = NasConfig(bench, cls, nodes=nodes, ranks_per_node=rpn, htt=htt)
    base_cap = AttrCapture(metrics=metrics)
    base_s = run_nas_config(
        cfg, smm=0, seed=seed, interval_jiffies=interval_jiffies,
        timeline=Timeline(), metrics=metrics, attr=base_cap,
    )
    if base_s is None:
        return None
    base = projection(build_profile(base_cap))
    noisy_cap = AttrCapture(metrics=metrics)
    noisy_tl = Timeline()
    run_nas_config(
        cfg, smm=smm, seed=seed, interval_jiffies=interval_jiffies,
        timeline=noisy_tl, metrics=metrics, attr=noisy_cap, trace=trace,
    )
    noisy = build_profile(noisy_cap)
    cp = critical_path(noisy)
    report, dec = finish_report(
        noisy_record(cfg, smm, seed, noisy, cp, interval_jiffies), base,
        tolerance=tolerance)
    if metrics is not None:
        count_report(metrics, report)
    return CellAttribution(report=report, decomposition=dec, critical=cp,
                           noisy=noisy, noisy_timeline=noisy_tl)


def count_report(metrics, report: Dict[str, Any]) -> None:
    """Count one finished report in ``attr.cells`` and, when its
    residual exceeded tolerance, ``attr.conservation_violations``."""
    metrics.counter("attr.cells", "cells attributed").inc()
    if not report["conservation"]["ok"]:
        metrics.counter(
            "attr.conservation_violations",
            "decompositions whose residual exceeded tolerance").inc()


def _r(x: float, digits: int = 6) -> float:
    return round(float(x), digits)


def noisy_record(cfg, smm: int, seed: int, noisy: RunProfile,
                 cp: CriticalPath,
                 interval_jiffies: int = 1000) -> Dict[str, Any]:
    """The noisy run's half of a report, as plain JSON: the report
    fields the noisy run alone decides (``head`` and ``tail``, in
    report order), its terminal rank and its
    :func:`~repro.obs.attr.decompose.projection` (``run``)."""
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
    rank = noisy.terminal_rank
    return {
        "head": {
            "bench": cfg.bench,
            "class": cfg.cls.value,
            "nodes": cfg.nodes,
            "rpn": cfg.ranks_per_node,
            "htt": cfg.htt,
            "smm": smm,
            "seed": seed,
            "interval_jiffies": interval_jiffies,
        },
        "duty_measured_pct": _r(100.0 * noisy.duty_measured(), 2),
        "terminal_rank": rank,
        "terminal_node": noisy.ranks[rank].node,
        "run": projection(noisy),
        "tail": {
            "wait_states": {
                "late_sender": {"count": ls_n, "seconds": _r(ls_s / 1e9)},
                "late_receiver": {"count": lr_n},
                "collective": {
                    "count": co_n,
                    "seconds": _r(co_s / 1e9),
                    "by_op": {op: _r(ns / 1e9)
                              for op, ns in sorted(by_op.items())},
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
        },
    }


def finish_report(noisy: Dict[str, Any], base: Dict[str, Any],
                  tolerance: float = 0.05
                  ) -> Tuple[Dict[str, Any], Decomposition]:
    """The report of a :func:`noisy_record` differenced against the
    zero-SMI ``base`` projection of the same configuration."""
    head = noisy["head"]
    dec = decompose(noisy["run"], base, noisy["terminal_rank"],
                    tolerance=tolerance)
    duty = _duty_nominal(head["smm"], head["interval_jiffies"])
    return {
        **head,
        "baseline_s": _r(dec.baseline_s),
        "noisy_s": _r(dec.noisy_s),
        "slowdown_s": _r(dec.slowdown_s),
        "slowdown_pct": _r(100.0 * dec.slowdown_s / dec.baseline_s, 2),
        "duty_nominal_pct": _r(100.0 * duty, 2),
        "duty_measured_pct": noisy["duty_measured_pct"],
        # The paper's tax-vs-amplification split: direct theft as a share
        # of the noisy runtime lands near the duty cycle; everything past
        # it is amplification (mostly induced wait).
        "direct_share_of_runtime_pct": _r(
            100.0 * dec.direct_s / max(dec.noisy_s, 1e-9), 2),
        "terminal_rank": noisy["terminal_rank"],
        "terminal_node": noisy["terminal_node"],
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
        **noisy["tail"],
    }, dec


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
