"""Cell executors: the functions a :class:`~repro.runx.spec.CellSpec` names.

Each executor takes ``(params, seed, metrics=None)`` and returns a
JSON-able payload dict.  Executors are looked up by short registry name
or by ``"module:function"`` dotted path (the escape hatch tests and
extensions use), so a worker subprocess can reconstruct the call from
nothing but the spec JSON.

The executors wrap the application runners with position-derived seeds
(:func:`~repro.core.experiment.rep_seed` per repetition), so a cell's
payload depends on its spec alone — which is what makes ``--jobs N``,
resumed, inline, and served sweeps bit-identical.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import rep_seed
from repro.runx.spec import seed_free

__all__ = ["resolve", "run_cell", "dispatch_order", "fault_domain",
           "join_attribution", "REGISTRY"]

CellFn = Callable[..., Dict[str, Any]]


# -- executors ----------------------------------------------------------------

def nas_cell(params: Dict, seed: int, metrics=None) -> Dict:
    """One (config, smm) cell of Tables 1–5: ``reps`` repetitions, averaged
    downstream.  ``{"values": null}`` marks an infeasible configuration
    (the tables' "-"), which is a legitimate result, not a failure.

    A :func:`~repro.runx.spec.seed_free` cell (zero SMI, no faults)
    simulates one repetition and repeats its value ``reps`` times.

    When the spec carries ``params["faults"]`` (rule dicts injected by the
    harness's ``--fault-plan`` rewrite) each repetition runs armed by
    :class:`_CellFaults`, as every figure executor's runs do.

    When the spec carries ``params["attr"]`` (the harness's ``--attr``
    rewrite) and no faults, the first repetition runs with the
    attribution capture attached (it is passive, so ``values`` stay
    bit-identical to a sweep without ``--attr``) and the payload carries
    that run's half of the attribution: ``attr_base``, the zero-SMI
    projection, on an ``smm == 0`` cell, and ``attr_noisy``, the noisy
    record, on any other.  :func:`join_attribution` turns the two into
    the noisy cell's ``attribution`` block when the sweep is assembled,
    so a quick attributed group of three cells runs three simulations.
    A faulted cell carries neither: its run is not comparable with the
    clean baseline.
    """
    from repro.apps.nas.params import NasClass
    from repro.apps.nas.study import NasConfig, run_nas_config

    cfg = NasConfig(
        params["bench"], NasClass(params["cls"]), nodes=params["nodes"],
        ranks_per_node=params["rpn"], htt=params.get("htt", False),
    )
    faults = _CellFaults(params, metrics)
    smm, reps = params["smm"], params["reps"]
    capture: Dict[str, Any] = {}
    if params.get("attr") and not params.get("faults"):
        from repro.obs.attr.capture import AttrCapture
        from repro.simx.timeline import Timeline

        capture = {"attr": AttrCapture(metrics=metrics),
                   "timeline": Timeline()}
    # A seed-free cell's repetitions are identical: simulate one, repeat it.
    runs = 1 if seed_free("nas", params) else reps
    values = []
    for r in range(runs):
        s = rep_seed(seed, r)
        v = faults.run(run_nas_config, s, cfg, smm=smm,
                       label=f"{cfg.label} rep {r + 1}/{reps}: ",
                       **(capture if r == 0 else {}))
        if v is None:
            return {"values": None}
        values.append(v)
    out = faults.payload({"values": values * (reps // runs)})
    if capture:
        from repro.obs.attr.critical import critical_path
        from repro.obs.attr.decompose import projection
        from repro.obs.attr.explain import noisy_record
        from repro.obs.attr.profile import build_profile

        prof = build_profile(capture["attr"])
        if smm:
            out["attr_noisy"] = noisy_record(
                cfg, smm, rep_seed(seed, 0), prof, critical_path(prof))
        else:
            out["attr_base"] = projection(prof)
    return out


def _attr_group(params: Dict) -> Tuple:
    """The configuration every SMI class of one table row shares."""
    return (params["bench"], params["cls"], params["nodes"], params["rpn"],
            params.get("htt", False))


def join_attribution(specs: Sequence, results: Dict[str, Any],
                     metrics=None) -> Tuple[Dict[str, Any], List[str]]:
    """Finish each attributed noisy cell's ``attribution`` block from its
    own ``attr_noisy`` record and the ``attr_base`` projection of the
    ``smm == 0`` cell of the same configuration, and strip both unjoined
    blocks.  Returns ``(results, unpaired)``: new
    :class:`~repro.runx.spec.CellResult` s (the inputs are not touched),
    and the ids of noisy cells whose partner failed or carries no
    projection — those keep their ``values`` and get no ``attribution``.
    Each report is counted in ``metrics`` (``attr.cells``,
    ``attr.conservation_violations``)."""
    from repro.obs.attr.explain import count_report, finish_report

    by_id = {s.id: s for s in specs}
    bases = {_attr_group(by_id[cid].params): res.value["attr_base"]
             for cid, res in results.items()
             if res.value and "attr_base" in res.value}
    joined, unpaired = dict(results), []
    for cid, res in results.items():
        value = res.value or {}
        if "attr_base" not in value and "attr_noisy" not in value:
            continue
        out = {k: v for k, v in value.items()
               if k not in ("attr_base", "attr_noisy")}
        if "attr_noisy" in value:
            base = bases.get(_attr_group(by_id[cid].params))
            if base is None:
                unpaired.append(cid)
            else:
                report, _ = finish_report(value["attr_noisy"], base)
                out["attribution"] = report
                if metrics is not None:
                    count_report(metrics, report)
        joined[cid] = dataclasses.replace(res, value=out)
    return joined, sorted(unpaired)


class _CellFaults:
    """A cell's ``params["faults"]``, armed on every simulated run it makes.

    :meth:`run` calls ``runner(*args, seed=, metrics=, faults=, **kwargs)``
    with a fresh :class:`~repro.faults.FaultInjector` seeded by that run's
    seed (``None`` for a clean cell), so each run replays the plan exactly
    as a standalone run with the same seed would.  :meth:`payload` adds
    the ``fault_events`` (and ``fault_suppressed`` count) of all runs.

    Escalation: a run is *faulted* — :class:`~repro.faults.FaultedRunError`,
    recorded ``failed-in-sim`` and never retried — when its own faults
    fired and it raised a model error (:class:`~repro.mpi.errors.MpiError`,
    ``AssertionError``, ``RuntimeError``, or the
    :class:`~repro.simx.errors.SimulationError` a failed node throws into
    its tasks), or when it returned although a crash/hang fired (crashed
    tasks still end, so a dead node can look "finished").  Any other
    exception, or one raised before a fault fired, stays a retryable bug.
    """

    def __init__(self, params: Dict, metrics) -> None:
        self.rules = params.get("faults")
        self.metrics = metrics
        self.events: List[Dict[str, Any]] = []
        self.suppressed = 0

    def run(self, runner: Callable, seed: int, *args: Any, label: str = "",
            **kwargs: Any) -> Any:
        if not self.rules:
            return runner(*args, seed=seed, metrics=self.metrics,
                          faults=None, **kwargs)
        from repro.faults import FaultedRunError, FaultInjector
        from repro.mpi.errors import MpiError
        from repro.simx.errors import SimulationError

        inj = FaultInjector(self.rules, seed=seed, metrics=self.metrics)
        try:
            result = runner(*args, seed=seed, metrics=self.metrics,
                            faults=inj, **kwargs)
        except (MpiError, AssertionError, RuntimeError,
                SimulationError) as exc:
            self._collect(inj)
            if not inj.events:
                raise  # a real bug, not an injected fault: let retries happen
            raise FaultedRunError(f"{label}{type(exc).__name__}: {exc}",
                                  events=self.events) from exc
        self._collect(inj)
        if inj.fatal:
            raise FaultedRunError(
                f"{label}fatal fault (node crash/hang) fired during run",
                events=self.events)
        return result

    def _collect(self, inj) -> None:
        self.events.extend(inj.events)
        self.suppressed += inj.suppressed

    def payload(self, out: Dict[str, Any]) -> Dict[str, Any]:
        if self.events:
            out["fault_events"] = self.events
            if self.suppressed:
                out["fault_suppressed"] = self.suppressed
        return out


def convolve_line_cell(params: Dict, seed: int, metrics=None) -> Dict:
    """One Figure-1 left-panel line: the no-SMI baseline plus the long-SMI
    interval sweep for one (config, cpu-count)."""
    from repro.apps.convolve import run_convolve
    from repro.core.smi import SmiProfile

    config = _convolve_config(params["config"])
    k = params["cpus"]
    faults = _CellFaults(params, metrics)
    baseline = faults.run(run_convolve, seed, config, k).elapsed_s
    points = [
        [iv, faults.run(run_convolve, seed, config, k,
                        smi_durations=SmiProfile.LONG,
                        smi_interval_jiffies=iv).elapsed_s]
        for iv in params["intervals_ms"]
    ]
    return faults.payload({"baseline": baseline, "points": points})


def convolve_run_cell(params: Dict, seed: int, metrics=None) -> Dict:
    """One Figure-1 right-panel repetition: time vs CPUs at 50 ms."""
    from repro.apps.convolve import run_convolve
    from repro.core.smi import SmiProfile

    config = _convolve_config(params["config"])
    faults = _CellFaults(params, metrics)
    points = [
        [k, faults.run(run_convolve, seed, config, k,
                       smi_durations=SmiProfile.LONG,
                       smi_interval_jiffies=params.get("interval_ms", 50),
                       ).elapsed_s]
        for k in params["cpus"]
    ]
    return faults.payload({"points": points})


def unixbench_cell(params: Dict, seed: int, metrics=None) -> Dict:
    """One Figure-2 CPU configuration: baseline index, the short-SMI
    sanity point, and the long-SMI interval sweep."""
    from repro.apps.unixbench import run_unixbench
    from repro.core.smi import SmiProfile

    k = params["cpus"]
    faults = _CellFaults(params, metrics)
    baseline = faults.run(run_unixbench, seed, k).total_index
    short = faults.run(run_unixbench, seed, k, SmiProfile.SHORT,
                       100).total_index
    points = [
        [iv, faults.run(run_unixbench, seed, k, SmiProfile.LONG,
                        iv).total_index]
        for iv in params["intervals_ms"]
    ]
    return faults.payload(
        {"baseline": baseline, "short_at_100ms": short, "points": points})


def synthetic_cell(params: Dict, seed: int, metrics=None) -> Dict:
    """A deterministic no-simulation cell for tests, chaos drills, and CI
    smoke sweeps: value depends only on (params, seed).  ``sleep_s``
    exercises timeouts; ``raise`` exercises in-cell failures."""
    if params.get("sleep_s"):
        time.sleep(float(params["sleep_s"]))
    if params.get("raise"):
        raise RuntimeError(str(params["raise"]))
    reps = int(params.get("reps", 1))
    base = float(params.get("value", 1.0))
    values = [base + 1e-9 * rep_seed(seed, r) for r in range(reps)]
    return {"values": values}


def _convolve_config(name: str):
    from repro.apps.convolve import CACHE_FRIENDLY, CACHE_UNFRIENDLY

    configs = {c.name: c for c in (CACHE_UNFRIENDLY, CACHE_FRIENDLY)}
    try:
        return configs[name]
    except KeyError:
        raise ValueError(f"unknown Convolve config {name!r}") from None


#: Short names a spec's ``fn`` may use.
REGISTRY: Dict[str, CellFn] = {
    "nas": nas_cell,
    "convolve_line": convolve_line_cell,
    "convolve_run": convolve_run_cell,
    "unixbench": unixbench_cell,
    "synthetic": synthetic_cell,
}


def fault_domain(fn: str, params: Dict) -> Optional[Tuple[int, bool]]:
    """``(nodes, links)`` of the runs an executor arms a cell's fault
    rules on — what :meth:`repro.faults.FaultRule.fires_in` takes: a NAS
    cell's cluster with its MPI links, or the one machine of a Convolve
    or UnixBench run.  ``None`` for any other executor."""
    if fn == "nas":
        return params["nodes"], True
    if fn in ("convolve_line", "convolve_run", "unixbench"):
        return 1, False
    return None


def resolve(fn: str) -> CellFn:
    """Registry name or ``"package.module:function"`` → callable."""
    if fn in REGISTRY:
        return REGISTRY[fn]
    if ":" in fn:
        mod_name, _, attr = fn.partition(":")
        mod = importlib.import_module(mod_name)
        target = getattr(mod, attr, None)
        if callable(target):
            return target
    raise ValueError(
        f"unknown cell executor {fn!r} (registry: {sorted(REGISTRY)})"
    )


def _cost(spec) -> float:
    """A spec's relative cost, from its params alone; 0 = no estimate.

    NAS cells scale with rank count times repetitions, UnixBench cells
    with CPUs times swept intervals.  Convolve cells get none: their
    measured times do not follow ``cpus`` (the cache model dominates),
    and Figure 1's spec order is already balanced.  A spec whose params
    cannot be costed (a malformed served submit) also gets 0 — it fails
    in its worker, not here.
    """
    p = spec.params
    try:
        if spec.fn == "nas":
            return float(p["nodes"]) * float(p["rpn"]) * float(p["reps"])
        if spec.fn == "unixbench":
            return float(p["cpus"]) * len(p["intervals_ms"])
    except (KeyError, TypeError, ValueError):
        pass
    return 0.0


def dispatch_order(specs: Sequence) -> List:
    """The specs largest-estimated-cost first (Graham's LPT list
    scheduling), so a sweep's longest cells do not start last and run
    alone on an otherwise idle pool.  The sort is stable: ties and specs
    with no estimate keep their relative spec order.  Seeds are
    position-derived, so the order changes wall time, never payloads."""
    return sorted(specs, key=_cost, reverse=True)


def run_cell(fn: str, params: Dict, seed: int,
             metrics: Optional[object] = None) -> Dict[str, Any]:
    """Execute one cell attempt in the current process."""
    return resolve(fn)(params, seed, metrics=metrics)
