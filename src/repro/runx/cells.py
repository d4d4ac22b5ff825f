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

import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.experiment import SMM_SEED_STRIDE, rep_seed, run_repeated

__all__ = ["resolve", "run_cell", "dispatch_order", "REGISTRY"]

CellFn = Callable[..., Dict[str, Any]]


# -- executors ----------------------------------------------------------------

def nas_cell(params: Dict, seed: int, metrics=None) -> Dict:
    """One (config, smm) cell of Tables 1–5: ``reps`` repetitions, averaged
    downstream.  ``{"values": null}`` marks an infeasible configuration
    (the tables' "-"), which is a legitimate result, not a failure.

    When the spec carries ``params["faults"]`` (rule dicts injected by the
    harness's ``--fault-plan`` rewrite) the repetitions run with a fresh
    seeded :class:`~repro.faults.FaultInjector` each, and a run killed by
    its faults raises :class:`~repro.faults.FaultedRunError` so the runner
    records the cell ``failed-in-sim``.

    When the spec carries ``params["attr"]`` (the harness's ``--attr``
    rewrite) each noisy cell additionally runs the attribution engine and
    attaches the resulting ``attribution`` report to the payload —
    omitted for infeasible and zero-SMI cells.  The capture layer is
    passive, so the averaged ``values`` stay bit-identical to a sweep
    without ``--attr``; see :func:`_nas_cell_attr` for how an attributed
    sweep shares its zero-SMI work across cells.
    """
    from repro.apps.nas.params import NasClass
    from repro.apps.nas.study import NasConfig, run_nas_config

    cfg = NasConfig(
        params["bench"], NasClass(params["cls"]), nodes=params["nodes"],
        ranks_per_node=params["rpn"], htt=params.get("htt", False),
    )
    fault_rules = params.get("faults")
    if fault_rules:
        return _nas_cell_faulted(cfg, params, seed, metrics, fault_rules)
    if params.get("attr"):
        return _nas_cell_attr(cfg, params, seed, metrics)
    values = run_repeated(
        lambda s: run_nas_config(cfg, smm=params["smm"], seed=s,
                                 metrics=metrics),
        reps=params["reps"],
        base_seed=seed,
    )
    return {"values": values}


def _nas_cell_attr(cfg, params: Dict, seed: int, metrics) -> Dict:
    """The attributed twin of :func:`nas_cell`'s repetition loop, built
    around the shared-baseline store (:mod:`repro.obs.attr.baseline`).

    The table harnesses derive cell seeds as ``smm_cell_seed(sweep_seed,
    smm)`` — a fixed stride per SMI class — so subtracting the stride
    recovers the sweep's SMM-0 column seed.  That seed is the canonical
    baseline key every SMI class of one configuration shares: the
    zero-SMI simulation is seed-deterministic (pinned by
    ``tests/obs/test_attr_baseline.py``), so the shared run is
    byte-identical to the per-cell replays it replaces.  Concretely:

    * an ``smm == 0`` cell runs its (identical) repetitions once, with
      capture attached, and publishes the profile to the store;
    * a noisy cell reuses its *first repetition* as the attribution
      capture (the capture layer is passive) and differences against the
      stored baseline — on a hit it runs zero extra simulations.

    A quick attributed table sweep thus runs 3 simulations per
    (class, row, rpn) group where it used to run 7.
    """
    from repro.apps.nas.study import run_nas_config
    from repro.obs.attr import attribute_cell
    from repro.obs.attr.baseline import (
        BaselineProfile, baseline_digest, global_store)
    from repro.obs.attr.capture import AttrCapture
    from repro.obs.attr.profile import build_profile
    from repro.simx.timeline import Timeline

    smm = params["smm"]
    reps = params["reps"]
    if not smm:
        # The SMM-0 column *is* the baseline: one capture-enabled run
        # serves this cell's repetitions (identical by determinism) and
        # seeds the store for every noisy class of this configuration.
        store = global_store()
        digest = baseline_digest(
            cfg.bench, cfg.cls.value, cfg.nodes, cfg.ranks_per_node,
            cfg.htt, seed)
        prof = store.get(digest)
        v = prof.elapsed_app_s if prof is not None else None
        if v is None:
            cap = AttrCapture(metrics=metrics)
            v = run_nas_config(cfg, smm=0, seed=rep_seed(seed, 0),
                               timeline=Timeline(), metrics=metrics,
                               attr=cap)
            if v is None:
                return {"values": None}
            store.put(digest, BaselineProfile.from_profile(
                build_profile(cap)))
            if metrics is not None:
                metrics.counter(
                    "attr.baseline.misses", "baseline runs simulated").inc()
        elif metrics is not None:
            metrics.counter(
                "attr.baseline.hits",
                "baseline runs satisfied from the shared store").inc()
        return {"values": [v] * reps}

    cap = AttrCapture(metrics=metrics)
    timeline = Timeline()

    def _rep(s: int) -> Optional[float]:
        if s == rep_seed(seed, 0):
            return run_nas_config(cfg, smm=smm, seed=s, metrics=metrics,
                                  timeline=timeline, attr=cap)
        return run_nas_config(cfg, smm=smm, seed=s, metrics=metrics)

    values = run_repeated(_rep, reps=reps, base_seed=seed)
    payload: Dict[str, Any] = {"values": values}
    if values is not None:
        a = attribute_cell(
            params["bench"], cls=params["cls"], nodes=params["nodes"],
            rpn=params["rpn"], smm=smm,
            seed=rep_seed(seed, 0), htt=params.get("htt", False),
            metrics=metrics,
            baseline_seed=seed - SMM_SEED_STRIDE * smm,
            noisy_capture=cap, noisy_timeline=timeline,
        )
        if a is not None:
            payload["attribution"] = a.report
    return payload


def _nas_cell_faulted(cfg, params: Dict, seed: int, metrics, fault_rules) -> Dict:
    """The faulted twin of :func:`nas_cell`'s repetition loop: same rep
    seeds, one injector per repetition (so every rep replays the same plan
    deterministically), typed escalation to ``failed-in-sim``."""
    from repro.apps.nas.study import run_nas_config
    from repro.faults import FaultedRunError, FaultInjector
    from repro.mpi.errors import MpiError

    values = []
    events: list = []
    suppressed = 0
    for r in range(params["reps"]):
        s = rep_seed(seed, r)
        inj = FaultInjector.from_rules(fault_rules, seed=s, metrics=metrics)
        try:
            v = run_nas_config(cfg, smm=params["smm"], seed=s,
                               metrics=metrics, faults=inj)
        except (MpiError, AssertionError, RuntimeError) as exc:
            events.extend(inj.events)
            suppressed += inj.suppressed
            if events:
                raise FaultedRunError(
                    f"{cfg.label} rep {r + 1}/{params['reps']}: "
                    f"{type(exc).__name__}: {exc}",
                    events=events,
                ) from exc
            raise  # a real bug, not an injected fault: let retries happen
        events.extend(inj.events)
        suppressed += inj.suppressed
        if inj.fatal:
            # A crash/hang fired yet the run returned — e.g. every rank
            # finished before the fault landed.  Treat it as faulted
            # anyway: the cell's value is not comparable to clean cells.
            raise FaultedRunError(
                f"{cfg.label} rep {r + 1}/{params['reps']}: fatal fault "
                "fired during run", events=events)
        if v is None:
            return {"values": None}
        values.append(v)
    payload: Dict[str, Any] = {"values": values}
    if events:
        payload["fault_events"] = events
        if suppressed:
            payload["fault_suppressed"] = suppressed
    return payload


def _faulted_machine_runner(fault_rules, seed: int, metrics):
    """Single-machine fault shim for the figure cells: returns
    ``(call, events)`` where ``call(run)`` executes ``run(machine)`` on a
    fresh fault-armed machine and escalates fault-killed runs to
    :class:`~repro.faults.FaultedRunError`.  A fresh machine/injector pair
    per call keeps each sub-run's fault timing identical to a standalone
    run with the same seed."""
    from repro.faults import FaultedRunError, FaultInjector
    from repro.machine.topology import R410_SPEC
    from repro.system import make_machine

    events: list = []

    def call(run):
        inj = FaultInjector.from_rules(fault_rules, seed=seed, metrics=metrics)
        machine = make_machine(R410_SPEC, seed=seed, metrics=metrics)
        inj.attach_node(machine.node)
        try:
            result = run(machine)
        except Exception as exc:
            events.extend(inj.events)
            if inj.events:
                raise FaultedRunError(
                    f"{type(exc).__name__}: {exc}", events=events) from exc
            raise
        events.extend(inj.events)
        if inj.fatal:
            # Crashed workers still fire their done callbacks, so a dead
            # node can look "finished" — the injector's log is the truth.
            raise FaultedRunError(
                "fatal fault (node crash/hang) fired during run",
                events=events)
        return result

    return call, events


def convolve_line_cell(params: Dict, seed: int, metrics=None) -> Dict:
    """One Figure-1 left-panel line: the no-SMI baseline plus the long-SMI
    interval sweep for one (config, cpu-count)."""
    from repro.apps.convolve import run_convolve
    from repro.core.smi import SmiProfile

    config = _convolve_config(params["config"])
    k = params["cpus"]
    fault_rules = params.get("faults")
    if fault_rules:
        call, events = _faulted_machine_runner(fault_rules, seed, metrics)
        baseline = call(lambda m: run_convolve(
            config, k, seed=seed, metrics=metrics, machine=m)).elapsed_s
        points = []
        for iv in params["intervals_ms"]:
            r = call(lambda m, iv=iv: run_convolve(
                config, k, smi_durations=SmiProfile.LONG,
                smi_interval_jiffies=iv, seed=seed, metrics=metrics,
                machine=m))
            points.append([iv, r.elapsed_s])
        out: Dict[str, Any] = {"baseline": baseline, "points": points}
        if events:
            out["fault_events"] = events
        return out
    baseline = run_convolve(config, k, seed=seed, metrics=metrics).elapsed_s
    points = []
    for iv in params["intervals_ms"]:
        r = run_convolve(
            config, k, smi_durations=SmiProfile.LONG,
            smi_interval_jiffies=iv, seed=seed, metrics=metrics,
        )
        points.append([iv, r.elapsed_s])
    return {"baseline": baseline, "points": points}


def convolve_run_cell(params: Dict, seed: int, metrics=None) -> Dict:
    """One Figure-1 right-panel repetition: time vs CPUs at 50 ms."""
    from repro.apps.convolve import run_convolve
    from repro.core.smi import SmiProfile

    config = _convolve_config(params["config"])
    fault_rules = params.get("faults")
    if fault_rules:
        call, events = _faulted_machine_runner(fault_rules, seed, metrics)
        points = []
        for k in params["cpus"]:
            r = call(lambda m, k=k: run_convolve(
                config, k, smi_durations=SmiProfile.LONG,
                smi_interval_jiffies=params.get("interval_ms", 50),
                seed=seed, metrics=metrics, machine=m))
            points.append([k, r.elapsed_s])
        out: Dict[str, Any] = {"points": points}
        if events:
            out["fault_events"] = events
        return out
    points = []
    for k in params["cpus"]:
        r = run_convolve(
            config, k, smi_durations=SmiProfile.LONG,
            smi_interval_jiffies=params.get("interval_ms", 50),
            seed=seed, metrics=metrics,
        )
        points.append([k, r.elapsed_s])
    return {"points": points}


def unixbench_cell(params: Dict, seed: int, metrics=None) -> Dict:
    """One Figure-2 CPU configuration: baseline index, the short-SMI
    sanity point, and the long-SMI interval sweep."""
    from repro.apps.unixbench import run_unixbench
    from repro.core.smi import SmiProfile

    k = params["cpus"]
    fault_rules = params.get("faults")
    if fault_rules:
        call, events = _faulted_machine_runner(fault_rules, seed, metrics)
        baseline = call(lambda m: run_unixbench(
            k, seed=seed, metrics=metrics, machine=m)).total_index
        short = call(lambda m: run_unixbench(
            k, SmiProfile.SHORT, 100, seed=seed, metrics=metrics,
            machine=m)).total_index
        points = []
        for iv in params["intervals_ms"]:
            r = call(lambda m, iv=iv: run_unixbench(
                k, SmiProfile.LONG, iv, seed=seed, metrics=metrics,
                machine=m))
            points.append([iv, r.total_index])
        out: Dict[str, Any] = {
            "baseline": baseline, "short_at_100ms": short, "points": points}
        if events:
            out["fault_events"] = events
        return out
    baseline = run_unixbench(k, seed=seed, metrics=metrics).total_index
    short = run_unixbench(
        k, SmiProfile.SHORT, 100, seed=seed, metrics=metrics).total_index
    points = []
    for iv in params["intervals_ms"]:
        r = run_unixbench(k, SmiProfile.LONG, iv, seed=seed, metrics=metrics)
        points.append([iv, r.total_index])
    return {"baseline": baseline, "short_at_100ms": short, "points": points}


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
