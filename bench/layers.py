"""Per-layer numbers for the traced run.

The simulator's layers are its modules.  ``profile_replay`` replays a
workload's fixed cell subset in-process through
``repro.runx.cells.run_cell`` twice -- once untimed by any profiler, once
under ``cProfile`` -- and charges each profiled frame's self time to the
layer that owns the frame's source file.  The execution-path layers the
profiler cannot see (subprocess spawn, daemon round trips) are measured
from outside by the probes below.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from statistics import median
from typing import Any, Dict, List, Sequence, Tuple

from workloads import CONCURRENCY, Daemon, artifact_render, artifact_specs, \
    closed_loop

#: Layers, as ``repro`` module paths.  A package name (``apps``, ``core``)
#: covers every module under it.  ``repro.other`` takes the remaining
#: ``repro`` modules and ``other`` every frame outside ``repro``
#: (interpreter built-ins, the standard library, numpy), so the shares
#: of one replay sum to 1.
LAYERS = (
    "simx.engine", "simx.rate", "simx.resources",
    "machine.node", "machine.cpu", "machine.cache", "machine.smm",
    "sched.scheduler", "sched.task",
    "mpi.comm", "mpi.network", "mpi.collectives",
    "apps", "core", "repro.other", "other",
)


def layer_of(filename: str, repro_dir: str) -> str:
    """The layer owning a source file (cProfile's ``~`` marks built-ins)."""
    if not filename.startswith(repro_dir + os.sep):
        return "other"
    module = os.path.splitext(
        os.path.relpath(filename, repro_dir))[0].replace(os.sep, ".")
    for layer in LAYERS:
        if module == layer or module.startswith(layer + "."):
            return layer
    return "repro.other"


def split_layers(stats: Dict, repro_dir: str) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "share", "calls"}}`` from ``pstats`` raw stats.

    ``calls`` counts calls into the layer's public functions -- names
    that are identifiers without a leading underscore; a generator
    counts once per resumption, as cProfile records it.  It is not kept
    for ``other``: calls there include finalizers run by the garbage
    collector, whose timing depends on everything the process did before.
    """
    out = {layer: {"self_s": 0.0, "share": 0.0, "calls": 0}
           for layer in LAYERS}
    total = 0.0
    for (filename, _line, func), (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_of(filename, repro_dir)
        out[layer]["self_s"] += tt
        total += tt
        if layer != "other" and func.isidentifier() \
                and not func.startswith("_"):
            out[layer]["calls"] += nc
    for row in out.values():
        row["share"] = row["self_s"] / total if total else 0.0
    return out


def replay(specs: Sequence, metrics=None, profiler=None
           ) -> Tuple[Dict[str, Any], float]:
    """Run ``specs`` in-process; ``({cell id: payload}, seconds)``."""
    from repro.runx.cells import run_cell

    payloads = {}
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        for s in specs:
            payloads[s.id] = run_cell(s.fn, s.params, s.base_seed,
                                      metrics=metrics)
    finally:
        if profiler is not None:
            profiler.disable()
    return payloads, time.perf_counter() - t0


def profile_replay(specs: Sequence) -> Dict[str, Any]:
    """Untraced then traced replay of ``specs`` with a metrics registry
    on both, so the two differ only by the profiler.  Raises if the
    profiler perturbed a payload or the event count."""
    import repro
    from repro.obs import MetricsRegistry

    def events(reg) -> int:
        c = reg.get("engine.events.scheduled")
        return int(c.value) if c is not None else 0

    plain_reg, traced_reg = MetricsRegistry(), MetricsRegistry()
    plain, plain_s = replay(specs, metrics=plain_reg)
    prof = cProfile.Profile()
    traced, traced_s = replay(specs, metrics=traced_reg, profiler=prof)
    if traced != plain or events(traced_reg) != events(plain_reg):
        raise RuntimeError("profiling changed a replayed payload")
    layers = split_layers(pstats.Stats(prof).stats,
                          os.path.dirname(os.path.abspath(repro.__file__)))
    return {"payloads": plain, "sim_s": plain_s, "traced_s": traced_s,
            "events": events(plain_reg), "layers": layers}


def runx_probe(cells: int = 10) -> float:
    """Median per-cell wall of ``SweepRunner(jobs=1)`` on no-simulation
    ``synthetic`` cells: the runner's own cost per cell (spawn, import,
    reply parsing)."""
    from repro.runx import CellSpec, SweepRunner

    specs = [CellSpec(id=f"probe-{i}", fn="synthetic",
                      params={"value": float(i)}, base_seed=i + 1)
             for i in range(cells)]
    results = SweepRunner(jobs=1).run(specs)
    if not all(r.ok for r in results.values()):
        raise RuntimeError("runx probe: a synthetic cell failed")
    return median(r.duration_s for r in results.values())


def serve_probe(cells: int = 50, hits: int = 200) -> Dict[str, float]:
    """A fresh daemon serving ``cells`` distinct ``synthetic`` cells from
    one client (the serve layer's per-request cost with no simulation),
    then ``hits`` cache reads from two, plus its counters."""
    from repro.runx import CellSpec

    specs = [CellSpec(id=f"probe-{i}", fn="synthetic",
                      params={"value": float(i)}, base_seed=i + 1)
             for i in range(cells)]
    hot = (specs * (hits // cells + 1))[:hits]
    with Daemon("serve-probe") as d:
        _, cold_lat, _, errors = closed_loop(d.client, specs, clients=1)
        hot_wall, _, _, hot_err = closed_loop(d.client, hot, CONCURRENCY)
        counters = d.counters()
    if errors or hot_err:
        raise RuntimeError(f"serve probe: {(errors + hot_err)[:3]}")
    out = {"serve.cell_overhead_s": median(cold_lat),
           "serve.hits_per_s": hits / hot_wall}
    for name in ("serve.cache.hits", "serve.cache.misses",
                 "serve.cache.writes", "serve.jobs.requeued",
                 "serve.workers.restarts"):
        out[name] = counters.get(name, 0)
    return out


def harness_probe(what: str, seed: int, payloads: Dict[str, Any]
                  ) -> Dict[str, float]:
    """Median seconds per call of the artifact's spec builder and of
    assemble + render over the replayed payloads (cells outside the
    subset render as the tables' "-")."""
    def per_call(fn) -> float:
        times: List[float] = []
        for _ in range(30):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return median(times)

    return {
        "harness.specs_s": per_call(lambda: artifact_specs(what, seed)),
        "harness.render_s": per_call(
            lambda: artifact_render(what, payloads)),
    }

