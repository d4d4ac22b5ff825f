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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import SMM_SEED_STRIDE, rep_seed, run_repeated
from repro.runx.spec import seed_free

__all__ = ["resolve", "run_cell", "dispatch_order", "fault_domain",
           "REGISTRY"]

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
    rewrite) each noisy cell additionally runs the attribution engine and
    attaches the resulting ``attribution`` report to the payload —
    omitted for infeasible, zero-SMI and faulted cells (a faulted run is
    not comparable with the clean baseline it would be differenced
    against).  The capture layer is passive, so the averaged ``values``
    stay bit-identical to a sweep without ``--attr``; see
    :func:`_nas_cell_attr` for how an attributed sweep shares its
    zero-SMI work across cells.
    """
    from repro.apps.nas.params import NasClass
    from repro.apps.nas.study import NasConfig, run_nas_config

    cfg = NasConfig(
        params["bench"], NasClass(params["cls"]), nodes=params["nodes"],
        ranks_per_node=params["rpn"], htt=params.get("htt", False),
    )
    if params.get("attr") and not params.get("faults"):
        return _nas_cell_attr(cfg, params, seed, metrics)
    faults = _CellFaults(params, metrics)
    reps = params["reps"]
    # A seed-free cell's repetitions are identical: simulate one, repeat it.
    runs = 1 if seed_free("nas", params) else reps
    values = []
    for r in range(runs):
        s = rep_seed(seed, r)
        v = faults.run(run_nas_config, s, cfg, smm=params["smm"],
                       label=f"{cfg.label} rep {r + 1}/{reps}: ")
        if v is None:
            return {"values": None}
        values.append(v)
    return faults.payload({"values": values * (reps // runs)})


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
