"""repro-smm — command-line front end.

Subcommands regenerate the paper's artifacts or run the tools:

* ``table1|table2|table3`` — the MPI study tables (BT/EP/FT).
* ``table4|table5`` — the HTT × SMI tables (EP/FT at 4 ranks/node).
* ``figure1`` — Convolve sweeps; ``figure2`` — UnixBench sweeps.
* ``trace`` — run one scenario and export a Chrome-trace/Perfetto JSON.
* ``explain`` — attribute one cell's slowdown: run it at SMM 0 and under
  the requested SMI class with the wait-state capture attached, then
  print the decomposition (direct theft / induced wait / contention /
  residual), the wait-state census, and the critical path next to the
  paper's numbers.  Exits 3 if the conservation check fails.
* ``detect`` — run the hwlat-style gap detector on the *host*.
* ``calibrate`` — print the calibration derivation.
* ``serve`` — run the sweep-serving daemon (`repro.serve`): durable job
  queue, content-addressed result cache, and one lease/fencing
  scheduler for every worker — ``--workers N`` agents in the daemon
  itself and remote agents over TCP alike.
  ``serve clear-quarantine`` is the operator action that forgets every
  circuit-broken cell (live via the socket, or offline).
* ``worker`` — run a remote worker agent (``--connect HOST:PORT``) that
  pulls leased cells from a daemon and survives daemon restarts; its
  heartbeat period, watchdog and silence limit come from the daemon.
* ``submit`` — send a table/figure sweep to a running daemon and render
  the result (repeat submissions are served from cache).
* ``status`` — query a running daemon (queue depth, workers, fleet
  leases, cache).

Use ``--quick`` everywhere for a reduced matrix (class A, 1 repetition);
output is the paper-layout text table (add ``--csv`` for CSV).

Observability flags:

* ``-v/-vv`` (global) — INFO/DEBUG logging to stderr.
* ``--metrics`` — collect and print the run's metrics registry
  (engine/SMM/scheduler/network counters and histograms);
  ``--metrics-format {text,json,prom}`` picks the rendering (``prom``
  is Prometheus textfile-collector exposition format).
* ``--manifest [PATH]`` — where the JSON run manifest (seed, matrix,
  calibration constants, per-cell timings) goes; every table/figure run
  writes one, by default ``<subcommand>.manifest.json``.

Every table/figure subcommand runs its matrix through `repro.runx`:
crash-isolated worker subprocesses, a fsync'd checkpoint journal next to
the manifest (``<subcommand>.manifest.json`` by default), and graceful
degradation — failed cells render as "-" and the command exits 1 with a
failure summary, never a traceback.  These flags tune the sweep:

* ``--jobs N`` — run up to N cells concurrently (default: the CPUs this
  process may use; bit-identical output to ``--jobs 1``, because cell
  seeds are position-derived).
* ``--timeout S`` — per-cell wall-clock watchdog.
* ``--retries K`` — re-run failed cells up to K times (deterministic
  exponential backoff, per-attempt derived seeds).
* ``--resume MANIFEST`` — skip the cells a previous (possibly killed)
  run already completed, using its recorded parameters and seeds.
* ``--fault-plan FILE`` (or ``REPRO_FAULT_PLAN=FILE``) — inject
  model-level faults (node crashes/hangs, degraded CPUs, clock skew,
  lossy links) *into the simulation* of matching cells; a cell killed by
  its faults is recorded ``failed-in-sim`` (rendered "-", never
  retried) while the rest of the sweep completes normally.
* ``--attr`` — attach the noise-attribution engine to every noisy NAS
  cell: each cell's manifest record gains an ``attribution`` block
  (slowdown decomposition, wait-state census, critical-path summary),
  joined when the sweep is assembled from the captured first repetition
  of that cell and of its row's SMM-0 cell.

SIGINT/SIGTERM during a sweep drains gracefully: in-flight
cells finish and are journaled, then the command exits 130 with the
``--resume`` hint — never a torn sweep.  A second signal aborts hard.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional

__all__ = ["main"]


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if v <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return v


def _nonneg_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return n


def _nas_class(text: str) -> str:
    from repro.apps.nas.params import NasClass

    try:
        return NasClass(text.upper()).value
    except ValueError:
        valid = ", ".join(c.value for c in NasClass)
        raise argparse.ArgumentTypeError(
            f"unknown NPB class {text!r} (one of {valid})") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quick", action="store_true", help="reduced matrix, 1 rep")
    p.add_argument("--reps", type=_positive_int, default=None,
                   help="repetitions per cell (>= 1)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p.add_argument("--metrics", action="store_true",
                   help="collect and print run metrics")
    p.add_argument("--metrics-format", choices=("text", "json", "prom"),
                   default="text", help="metrics rendering: human text, "
                   "JSON snapshot, or Prometheus exposition format")
    p.add_argument("--manifest", nargs="?", const="auto", default=None,
                   metavar="PATH", help="JSON run manifest path "
                   "(default <subcommand>.manifest.json)")
    resilient = p.add_argument_group(
        "resilient sweep (repro.runx)",
        "every sweep runs crash-isolated and checkpointed; these tune it",
    )
    resilient.add_argument("--jobs", type=_positive_int, default=None,
                           metavar="N", help="cells to run in parallel "
                           "(default: the CPUs this process may use)")
    resilient.add_argument("--timeout", type=_positive_float, default=None,
                           metavar="S",
                           help="per-cell wall-clock watchdog (seconds, > 0)")
    resilient.add_argument("--retries", type=_nonneg_int, default=None,
                           metavar="K", help="retry failed cells up to K times")
    resilient.add_argument("--resume", default=None, metavar="MANIFEST",
                           help="resume an interrupted sweep from its "
                           "manifest/journal")
    resilient.add_argument("--fault-plan", default=None, metavar="FILE",
                           help="inject model-level faults from this JSON "
                           "plan into matching cells' simulations "
                           "(env: REPRO_FAULT_PLAN)")
    resilient.add_argument("--attr", action="store_true", default=None,
                           help="attach an 'attribution' block (slowdown "
                           "decomposition, wait states, critical path) to "
                           "every noisy NAS cell in the manifest")


def _setup_logging(verbosity: int) -> None:
    if verbosity <= 0:
        return
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
    )


def _print_metrics(args: argparse.Namespace, registry) -> None:
    fmt = getattr(args, "metrics_format", "text")
    if fmt == "json":
        import json

        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    elif fmt == "prom":
        print(registry.render_prom(), end="")
    else:
        print("\n-- metrics " + "-" * 49)
        print(registry.render())


def _load_fault_plan(path: Optional[str]):
    """``(plan, path, error)`` for a resolved ``--fault-plan`` path — all
    ``None`` when no plan is configured, ``error`` set on a bad one."""
    from repro.faults import FaultPlan

    if not path:
        return None, None, None
    try:
        return FaultPlan.load(path), path, None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, path, f"bad fault plan {path}: {exc}"


def _with_faults(specs, plan):
    """Rewrite every spec a plan rule matches, and can fire in, so its
    params carry those rule records — the executor arms them
    in-simulation.  A rule its executor's injector would not arm (a link
    rule on one machine, a node the cell does not have) is left out, so
    such a cell stays clean and keeps its clean digest.  The rewrite
    changes an armed spec's digest, which is correct: a faulted cell's
    payload is not interchangeable with a clean one."""
    from repro.runx import CellSpec
    from repro.runx.cells import fault_domain

    out, hit = [], 0
    for spec in specs:
        rules = plan.rules_for(spec.id)
        domain = fault_domain(spec.fn, spec.params)
        if domain is not None:
            rules = [r for r in rules if r.fires_in(*domain)]
        if rules:
            hit += 1
            out.append(CellSpec(
                id=spec.id, fn=spec.fn, base_seed=spec.base_seed,
                params={**spec.params,
                        "faults": [r.to_record() for r in rules]},
            ))
        else:
            out.append(spec)
    return out, hit


def _with_attr(specs):
    """Rewrite every NAS spec so its executor runs the attribution engine
    alongside the cell.  Like ``--fault-plan``, the rewrite changes the
    specs' digests — an attributed cell's payload carries an extra block,
    so it must not be interchangeable with a plain one on resume."""
    from repro.runx import CellSpec

    out = []
    for spec in specs:
        if spec.fn == "nas":
            out.append(CellSpec(
                id=spec.id, fn=spec.fn, base_seed=spec.base_seed,
                params={**spec.params, "attr": True},
            ))
        else:
            out.append(spec)
    return out


def _arm_specs(specs, attr: bool, plan, plan_path: Optional[str]):
    """Apply ``--attr``, then the fault plan, to a sweep's specs.  The
    local (:func:`_resilient_run`) and served (:func:`_submit`) paths both
    arm through here, so they cannot drift apart."""
    if attr:
        specs = _with_attr(specs)
    if plan is not None:
        specs, hit = _with_faults(specs, plan)
        print(f"fault plan {plan_path}: {len(plan.rules)} rules, "
              f"{hit}/{len(specs)} cells armed", file=sys.stderr)
    return specs


def _join_attr(specs, results, registry):
    """``results`` with every noisy cell's ``attribution`` block joined
    (:func:`repro.runx.join_attribution`); names on stderr the noisy
    cells left without one because their SMM-0 partner has no baseline."""
    from repro.runx import join_attribution

    results, unpaired = join_attribution(specs, results, registry)
    if unpaired:
        shown = ", ".join(unpaired[:8]) + (" …" if len(unpaired) > 8 else "")
        print(f"{len(unpaired)} noisy cells carry no attribution (their "
              f"SMM-0 cell failed or carries no baseline): {shown}",
              file=sys.stderr)
    return results


def _default_jobs() -> int:
    """The CPUs this process may run on.  The runner starts no more
    workers than there are cells, so a small sweep spawns fewer."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _resilient_run(args: argparse.Namespace, specs_fn, render_fn,
                   extra_params: Optional[dict] = None) -> int:
    """Shared driver for all table/figure subcommands.

    ``specs_fn(quick, reps, seed)`` builds the cell specs;
    ``render_fn(quick, results)`` reduces ``{id: CellResult}`` to the
    printable artifact.  Every completed cell is checkpointed to
    ``<manifest>.part.jsonl``; on full success the v2 manifest is
    finalized atomically and the journal removed, otherwise the journal
    stays behind for ``--resume`` and the exit code is 1.
    """
    import signal

    from repro.obs import MetricsRegistry, RunManifest
    from repro.runx import (
        FAILED_IN_SIM,
        Journal,
        LockHeldError,
        SweepRunner,
        load_resume,
        part_path,
    )

    quick, seed = args.quick, args.seed
    reps = args.reps if args.reps is not None else (1 if args.quick else 3)
    attr = bool(getattr(args, "attr", None))
    fault_plan_path = args.fault_plan
    completed = {}
    if args.resume:
        try:
            header, completed = load_resume(args.resume)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if header:
            if header.get("command") and header["command"] != args.cmd:
                print(
                    f"error: {args.resume} records a "
                    f"{header['command']!r} run, not {args.cmd!r}",
                    file=sys.stderr,
                )
                return 2
            # The recorded run parameters win: resume must re-create the
            # original matrix and seeds, not whatever the new command
            # line happens to say.
            recorded = {k: header[k]
                        for k in ("quick", "reps", "seed", "fault_plan",
                                  "attr")
                        if k in header and header[k] is not None}
            if recorded:
                current = {"quick": quick, "reps": reps, "seed": seed,
                           "fault_plan": fault_plan_path, "attr": attr}
                drift = {k: (current[k], v) for k, v in recorded.items()
                         if current[k] != v}
                if drift:
                    print(f"resume: using recorded parameters {recorded} "
                          f"(command line differs: {sorted(drift)})",
                          file=sys.stderr)
                quick = recorded.get("quick", quick)
                reps = recorded.get("reps", reps)
                seed = recorded.get("seed", seed)
                fault_plan_path = recorded.get("fault_plan", fault_plan_path)
                attr = recorded.get("attr", attr)
        print(f"resume: {len(completed)} cells already complete",
              file=sys.stderr)

    plan, fault_plan_path, plan_err = _load_fault_plan(fault_plan_path)
    if plan_err is not None:
        print(f"error: {plan_err}", file=sys.stderr)
        return 2

    jobs = args.jobs or _default_jobs()
    retries = args.retries or 0
    manifest_path = args.resume or args.manifest
    if manifest_path in (None, "auto"):
        manifest_path = f"{args.cmd}.manifest.json"
    params = {"quick": quick, "reps": reps, "seed": seed, "jobs": jobs,
              "timeout_s": args.timeout, "retries": retries,
              **(extra_params or {})}
    if fault_plan_path:
        params["fault_plan"] = fault_plan_path
    if attr:
        params["attr"] = True
    specs = _arm_specs(specs_fn(quick, reps, seed), attr, plan,
                       fault_plan_path)
    manifest = RunManifest(command=args.cmd, params=params)
    for spec in specs:
        manifest.plan_cell(id=spec.id, fn=spec.fn,
                           base_seed=spec.base_seed, **spec.params)
    journal = Journal(manifest_path)
    registry = MetricsRegistry() if args.metrics else None
    progress = (
        (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None)
    runner = SweepRunner(
        jobs=jobs, timeout_s=args.timeout, retries=retries,
        metrics=registry, manifest=manifest, journal=journal,
        progress=progress,
    )

    resume_hint = f"repro-smm {args.cmd} --resume {manifest_path}"

    def _on_signal(signum, frame):
        if runner.draining:
            raise KeyboardInterrupt  # second signal: abort hard
        runner.request_drain()
        name = signal.Signals(signum).name
        print(f"{name}: draining — in-flight cells will finish and be "
              f"journaled (send again to abort)", file=sys.stderr)

    previous_handlers = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[signum] = signal.signal(signum, _on_signal)
        except ValueError:  # pragma: no cover — not the main thread
            pass
    try:
        if not os.path.exists(part_path(manifest_path)):
            header = {"command": args.cmd, "quick": quick, "reps": reps,
                      "seed": seed}
            if fault_plan_path:
                header["fault_plan"] = fault_plan_path
            if attr:
                header["attr"] = True
            journal.write_header(header)
            for prior in completed.values():
                journal.append(prior)
        results = runner.run(specs, completed=completed)
    except LockHeldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()  # every worker child is reaped before we return
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        journal.close()  # the flock must not outlive the run
    if runner.draining:
        print(f"sweep drained: {len(results)}/{len(specs)} cells complete "
              f"and journaled\nresume with: {resume_hint}", file=sys.stderr)
        return 130
    if attr:
        results = _join_attr(specs, results, registry)
        manifest.set_values({i: r.value for i, r in results.items()})
    print(render_fn(quick, results))
    if registry is not None:
        _print_metrics(args, registry)
    manifest.write(manifest_path)
    failed = sorted(r.id for r in results.values() if not r.ok)
    if failed:
        insim = sorted(r.id for r in results.values()
                       if r.status == FAILED_IN_SIM)
        shown = ", ".join(failed[:8]) + (" …" if len(failed) > 8 else "")
        note = ""
        if insim:
            note = (f" ({len(insim)} failed in simulation under the fault "
                    f"plan — deterministic, not retried)")
        print(
            f"{len(failed)}/{len(results)} cells failed: {shown}{note}\n"
            f"(failed cells render as '-'; retry them with: "
            f"repro-smm {args.cmd} --resume {manifest_path})",
            file=sys.stderr,
        )
        return 1
    journal.finalize()
    print(f"manifest written to {manifest_path}", file=sys.stderr)
    return 0


def _trace(args: argparse.Namespace) -> int:
    """Run one MPI scenario with full tracing and export the artifacts."""
    import repro
    from repro.apps.nas.params import NasClass
    from repro.apps.nas.study import NasConfig, run_nas_config
    from repro.obs import MetricsRegistry, write_chrome_trace, write_jsonl
    from repro.simx.timeline import Timeline

    if args.quick:
        bench, cls, nodes, rpn = "EP", NasClass.A, 2, 1
    else:
        bench, cls, nodes, rpn = (
            args.bench, NasClass(args.cls), args.nodes, args.rpn,
        )
    cfg = NasConfig(bench, cls, nodes=nodes, ranks_per_node=rpn)
    timeline = Timeline()
    registry = MetricsRegistry() if args.metrics else None
    elapsed = run_nas_config(
        cfg, smm=args.smm, seed=args.seed,
        interval_jiffies=args.interval,
        timeline=timeline, metrics=registry, trace=True,
    )
    if elapsed is None:
        print(f"configuration {cfg.label} is infeasible", file=sys.stderr)
        return 2
    out = args.out or (
        f"{bench.lower()}-{cls.value.lower()}-n{nodes}-smm{args.smm}.trace.json"
    )
    n = write_chrome_trace(
        timeline, out,
        nodes=[f"node{i}" for i in range(nodes)],
        extra={
            "bench": bench, "class": cls.value, "nodes": nodes,
            "ranks_per_node": rpn, "smm": args.smm,
            "interval_jiffies": args.interval, "seed": args.seed,
            "elapsed_s": elapsed, "version": repro.__version__,
        },
    )
    print(f"{cfg.label} smm={args.smm}: {elapsed:.2f}s simulated")
    print(f"wrote {out} ({n} events) — open in https://ui.perfetto.dev "
          "or chrome://tracing")
    if args.jsonl:
        lines = write_jsonl(timeline, args.jsonl)
        print(f"wrote {args.jsonl} ({lines} records)")
    if registry is not None:
        _print_metrics(args, registry)
    return 0


def _explain(args: argparse.Namespace) -> int:
    """Attribute one cell's slowdown and print the breakdown.

    Exit codes: 0 ok, 2 infeasible configuration or unusable arguments,
    3 conservation violation (the decomposition's residual exceeded the
    tolerance — the attribution model is missing something, and CI
    treats that as a failure).
    """
    import json

    import repro
    from repro.obs import MetricsRegistry, write_chrome_trace
    from repro.obs.attr import attribute_cell, render_explain
    from repro.paperdata import paper_cell

    if args.quick:
        bench, cls, nodes, rpn = "EP", "A", 2, 1
    else:
        bench, cls, nodes, rpn = args.bench, args.cls, args.nodes, args.rpn
    if args.smm == 0:
        print("error: --smm 0 has nothing to attribute (pick 1 or 2)",
              file=sys.stderr)
        return 2
    registry = MetricsRegistry() if args.metrics else None
    a = attribute_cell(
        bench, cls=cls, nodes=nodes, rpn=rpn, smm=args.smm,
        seed=args.seed, interval_jiffies=args.interval,
        metrics=registry, trace=args.trace is not None,
        tolerance=args.tolerance,
    )
    if a is None:
        print(f"configuration {bench}.{cls} n={nodes}×{rpn} is infeasible",
              file=sys.stderr)
        return 2
    from repro.apps.nas.params import NasClass

    try:
        paper = paper_cell(bench, rpn, NasClass(cls), nodes)
    except KeyError:
        paper = None
    print(render_explain(a.report, paper=paper))
    if args.report:
        with open(args.report, "w") as fp:
            json.dump(a.report, fp, indent=2)
        print(f"report written to {args.report}", file=sys.stderr)
    if args.trace:
        n = write_chrome_trace(
            a.noisy_timeline, args.trace,
            nodes=[f"node{i}" for i in range(nodes)],
            extra={
                "bench": bench, "class": cls, "nodes": nodes,
                "ranks_per_node": rpn, "smm": args.smm,
                "interval_jiffies": args.interval, "seed": args.seed,
                "version": repro.__version__,
            },
        )
        print(f"trace written to {args.trace} ({n} events)", file=sys.stderr)
    if registry is not None:
        _print_metrics(args, registry)
    if not a.decomposition.conserved:
        print(
            f"conservation VIOLATED: |residual| = "
            f"{100.0 * a.decomposition.residual_frac:.2f}% of slowdown "
            f"(tolerance {100.0 * a.decomposition.tolerance:.1f}%)",
            file=sys.stderr,
        )
        return 3
    return 0


#: table subcommand -> NAS benchmark: the MPI study (Tables 1–3) and the
#: HTT × SMI study at 4 ranks per node (Tables 4–5).
_MPI_TABLES = {"table1": "BT", "table2": "EP", "table3": "FT"}
_HTT_TABLES = {"table4": "EP", "table5": "FT"}


def _sweep_builders(what: str, csv: bool):
    """``(specs_fn, render_fn)`` for a table/figure sweep name — shared by
    the local subcommands and ``submit``, so a served sweep renders
    byte-identically to a local one."""
    if what in _MPI_TABLES:
        from repro.harness.mpi_tables import (
            assemble_table, render, table_cell_specs)

        bench = _MPI_TABLES[what]
        return (
            lambda quick, reps, seed: table_cell_specs(
                bench, quick, reps, seed),
            lambda quick, results: render(
                bench, assemble_table(bench, quick, results), csv=csv),
        )
    if what in _HTT_TABLES:
        from repro.harness.htt_tables import (
            assemble_htt_table, htt_cell_specs, render_htt)

        bench = _HTT_TABLES[what]
        return (
            lambda quick, reps, seed: htt_cell_specs(
                bench, quick, reps, seed),
            lambda quick, results: render_htt(
                bench, assemble_htt_table(bench, quick, results)),
        )
    if what == "figure1":
        from repro.harness.figure1 import (
            assemble_figure1, figure1_cell_specs, render_figure1)

        return (
            lambda quick, reps, seed: figure1_cell_specs(quick, seed),
            lambda quick, results: render_figure1(
                assemble_figure1(quick, results), csv=csv),
        )
    if what == "figure2":
        from repro.harness.figure2 import (
            assemble_figure2, figure2_cell_specs, render_figure2)

        return (
            lambda quick, reps, seed: figure2_cell_specs(quick, seed),
            lambda quick, results: render_figure2(
                assemble_figure2(quick, results), csv=csv),
        )
    raise ValueError(f"unknown sweep {what!r}")


def _artifact(args: argparse.Namespace) -> int:
    """Any table/figure subcommand: its matrix as a sweep, rendered by
    the same builders ``submit`` uses."""
    if args.cmd in _MPI_TABLES:
        extra = {"bench": _MPI_TABLES[args.cmd]}
    elif args.cmd in _HTT_TABLES:
        extra = {"bench": _HTT_TABLES[args.cmd], "ranks_per_node": 4}
    else:
        extra = None
    return _resilient_run(args, *_sweep_builders(args.cmd, args.csv),
                          extra_params=extra)


def _parse_hostport(text: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _client_from_args(args: argparse.Namespace):
    from repro.serve import ServeClient

    if getattr(args, "tcp", None):
        return ServeClient(tcp=args.tcp, timeout_s=args.wait_timeout)
    return ServeClient(socket_path=args.socket, timeout_s=args.wait_timeout)


def _serve(args: argparse.Namespace) -> int:
    """Run the sweep-serving daemon in the foreground, or dispatch an
    operator action (``repro-smm serve clear-quarantine``) to it."""
    from repro.runx import LockHeldError
    from repro.serve import ServeConfig
    from repro.serve.daemon import run

    if args.action == "clear-quarantine":
        return _clear_quarantine(args)
    if args.workers < 0:
        print("error: --workers must be >= 0 (0 runs a pure-fleet daemon)",
              file=sys.stderr)
        return 2
    config = ServeConfig(
        state_dir=args.state_dir,
        socket_path=args.socket,
        tcp=args.tcp,
        workers=args.workers,
        timeout_s=args.timeout,
        hb_timeout_s=args.hb_timeout,
        max_attempts=args.max_attempts,
        max_pending=args.max_pending,
        lease_s=args.lease_s,
    )
    try:
        return run(config)
    except LockHeldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _clear_quarantine(args: argparse.Namespace) -> int:
    """Forget circuit-broken cells: via the live daemon's socket when one
    is up, else offline against the state directory (taking the daemon
    lock so we can never race a live process)."""
    from repro.runx import LockHeldError, SingleWriterLock
    from repro.serve import DurableQueue, ServeClient, ServeError

    sock = args.socket or os.path.join(args.state_dir, "serve.sock")
    if os.path.exists(sock):
        try:
            rep = ServeClient(socket_path=sock).clear_quarantine()
            print(f"cleared {rep.get('cleared', 0)} quarantined cell(s)")
            return 0
        except ServeError as exc:
            if exc.code != "unreachable":
                print(f"error: {exc}", file=sys.stderr)
                return 2
            # Stale socket from a dead daemon: fall through to offline.
    lock = SingleWriterLock(os.path.join(args.state_dir, "daemon.lock"))
    try:
        lock.acquire()
    except LockHeldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        queue = DurableQueue(os.path.join(args.state_dir, "queue.jsonl"))
        state = queue.replay()
        cleared = len(state.quarantined)
        state.quarantined = {}
        queue.compact(state)
        print(f"cleared {cleared} quarantined cell(s) (offline)")
        return 0
    finally:
        lock.release()


def _worker(args: argparse.Namespace) -> int:
    """Run one remote worker agent against a daemon's TCP listener."""
    from repro.serve.agent import AgentConfig, run

    return run(AgentConfig(
        connect=args.connect,
        name=args.name or "",
        backoff_s=args.backoff,
        max_backoff_s=args.max_backoff,
    ))


def _submit(args: argparse.Namespace) -> int:
    """Send one sweep to a running daemon; render the served results."""
    import json

    from repro.obs import RunManifest
    from repro.runx import FAILED, FAILED_IN_SIM, OK, CellResult
    from repro.serve import ServeError

    quick, seed = args.quick, args.seed
    reps = args.reps if args.reps is not None else (1 if quick else 3)
    specs_fn, render_fn = _sweep_builders(args.what, args.csv)
    plan, fault_plan_path, plan_err = _load_fault_plan(args.fault_plan)
    if plan_err is not None:
        print(f"error: {plan_err}", file=sys.stderr)
        return 2
    specs = _arm_specs(specs_fn(quick, reps, seed), args.attr, plan,
                       fault_plan_path)
    client = _client_from_args(args)
    try:
        rep = client.submit([s.to_record() for s in specs], wait=True,
                            retries=args.retries)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (3 if exc.code in ("saturated", "unavailable", "draining")
                else 2)
    by_id = {e["id"]: e for e in rep.get("cells", [])}
    results = {}
    for spec in specs:
        e = by_id.get(spec.id)
        if e is None:
            continue
        status = e.get("status")
        if status == "ok":
            results[spec.id] = CellResult(
                id=spec.id, status=OK, value=e.get("value"),
                attempts=e.get("attempts", 1), seed=spec.base_seed,
                digest=e.get("digest"))
        else:
            results[spec.id] = CellResult(
                id=spec.id,
                status=FAILED_IN_SIM if status == "failed-in-sim" else FAILED,
                attempts=e.get("attempts", 1), seed=spec.base_seed,
                error=e.get("error"), digest=e.get("digest"),
                fault=e.get("fault"))
    if args.attr:
        results = _join_attr(specs, results, None)
    print(render_fn(quick, results))
    stats = rep.get("stats", {})
    print("served: "
          f"{stats.get('cached', 0)} cached, "
          f"{stats.get('coalesced', 0)} coalesced, "
          f"{stats.get('submitted', 0)} computed, "
          f"{stats.get('quarantined', 0)} quarantined", file=sys.stderr)
    if args.out:
        # Deterministic results document: digests + payloads only, no
        # timestamps — two byte-identical files mean two identical runs.
        doc = {
            "schema": 1,
            "what": args.what,
            "params": {"quick": quick, "reps": reps, "seed": seed},
            "cells": {
                r.id: {"digest": r.digest, "status": r.status,
                       "value": r.value}
                for r in results.values()
            },
        }
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(doc, fp, indent=1, sort_keys=True)
            fp.write("\n")
        print(f"results written to {args.out}", file=sys.stderr)
    if args.manifest:
        manifest = RunManifest(
            command=args.what, mode="served",
            params={"quick": quick, "reps": reps, "seed": seed,
                    "endpoint": args.socket or f"{args.tcp[0]}:{args.tcp[1]}",
                    **({"fault_plan": fault_plan_path}
                       if fault_plan_path else {}),
                    **({"attr": True} if args.attr else {})})
        for spec in specs:
            manifest.plan_cell(id=spec.id, fn=spec.fn,
                               base_seed=spec.base_seed, **spec.params)
        for r in results.values():
            e = by_id.get(r.id, {})
            manifest.add_cell(
                r.id, **{**{k: v for k, v in r.to_record().items()
                            if k != "kind"},
                         "cached": bool(e.get("cached")),
                         "coalesced": bool(e.get("coalesced"))})
        path = args.manifest
        if path == "auto":
            path = f"{args.what}.served.manifest.json"
        manifest.write(path)
        print(f"manifest written to {path}", file=sys.stderr)
    failed = sorted(r.id for r in results.values() if not r.ok)
    if failed or len(results) != len(specs):
        shown = ", ".join(failed[:8]) + (" …" if len(failed) > 8 else "")
        print(f"{len(failed)}/{len(specs)} cells failed: {shown}",
              file=sys.stderr)
        return 1
    return 0


def _serve_status(args: argparse.Namespace) -> int:
    """Query a running daemon."""
    import json

    from repro.serve import ServeError

    client = _client_from_args(args)
    try:
        if args.prom:
            print(client.metrics(), end="")
            return 0
        st = client.status()
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(st, indent=2, sort_keys=True))
        return 0
    workers = st.get("workers", [])
    busy = sum(1 for w in workers if w.get("state") == "busy")
    print(f"serve: up {st.get('uptime_s', 0):.1f}s, "
          f"{len(workers)} workers ({busy} busy), "
          f"{st.get('inflight', 0)} in flight, "
          f"{st.get('queued', 0)} queued, "
          f"{st.get('quarantined', 0)} quarantined"
          + (", DRAINING" if st.get("draining") else ""))
    cache = st.get("cache", {})
    print(f"cache: {cache.get('entries', 0)} entries at "
          f"{cache.get('root', '?')}")
    counters = st.get("counters", {})
    for w in workers:
        print(f"  worker {w['slot']}: pid {w.get('pid')} {w['state']}"
              + (f" job {w['job']}" if w.get("job") else "")
              + f" ({w['jobs_done']} done, {w['restarts']} restarts)")
    fleet = st.get("fleet") or {}
    remotes = fleet.get("workers", [])
    leases = fleet.get("leases", [])
    if remotes or leases:
        print(f"fleet: epoch {fleet.get('epoch')}, "
              f"{len(remotes)} remote worker(s), {len(leases)} lease(s)")
        for w in remotes:
            print(f"  remote {w['worker_id']} @{w.get('addr', '?')}: "
                  f"{len(w.get('leases', []))} leased, "
                  f"{w.get('jobs_done', 0)} done, "
                  f"idle {w.get('idle_s', 0):.1f}s")
        for lease in leases:
            print(f"  lease {lease['digest'][:12]} -> "
                  f"{lease['worker_id']} (token {lease['token']}, "
                  f"expires in {lease.get('expires_in_s', 0):.1f}s)")
    for name in sorted(counters):
        print(f"  {name:<32} {counters[name]:g}")
    return 0


def _detect(args: argparse.Namespace) -> int:
    from repro.core.detector import host_gap_scan

    rep = host_gap_scan(window_s=args.window)
    print(
        f"scanned {rep.window_ns / 1e9:.2f}s, {rep.samples} samples, "
        f"threshold {rep.threshold_ns / 1e3:.0f}µs"
    )
    print(f"gaps: {rep.detected}, max {rep.max_gap_ns() / 1e6:.3f}ms, "
          f"total {rep.total_gap_ns / 1e6:.3f}ms, "
          f"BIOSBITS(150µs) violations: {rep.biosbits_violations}")
    for g in rep.gaps[:20]:
        print(f"  at +{g.at_ns / 1e6:10.3f}ms  width {g.width_ns / 1e3:9.1f}µs")
    return 0


def _calibrate(args: argparse.Namespace) -> int:
    from repro.core.calibration import derive_work_units, fit_network_quality

    print("work-unit derivation (paper 1-rank base × solo rate):")
    for row in derive_work_units():
        print(
            f"  {row.bench}.{row.cls.value}: paper {row.paper_s:>8.2f}s → "
            f"{row.derived_work:.4g} units (stored {row.stored_work:.4g}, "
            f"err {100 * row.relative_error:.2g}%)"
        )
    if not args.quick:
        print("network-fit quality (simulated vs paper base cells):")
        for (bench, ranks), (sim, paper) in fit_network_quality(seed=args.seed).items():
            print(f"  {bench} @{ranks} ranks: sim {sim:7.2f}s  paper {paper:7.2f}s")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-smm",
        description="SMM/SMI noise study reproduction (ICPP 2016)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="-v: INFO logging to stderr, -vv: DEBUG",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    artifacts = {
        **{name: f"{bench} MPI table" for name, bench in _MPI_TABLES.items()},
        **{name: f"HTT × SMI table for {bench}"
           for name, bench in _HTT_TABLES.items()},
        "figure1": "Convolve sweeps",
        "figure2": "UnixBench sweeps",
    }
    for name, text in artifacts.items():
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.set_defaults(fn=_artifact)
    p = sub.add_parser(
        "trace", help="run one scenario and export a Perfetto/Chrome trace")
    p.add_argument("--bench", default="EP", choices=("EP", "BT", "FT"))
    p.add_argument("--cls", default="A", type=_nas_class, metavar="CLASS",
                   help="NAS problem class (A, B, or C; case-insensitive)")
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--rpn", type=int, default=1, help="MPI ranks per node")
    p.add_argument("--smm", type=int, default=2, choices=(0, 1, 2),
                   help="SMI class: 0 none, 1 short, 2 long")
    p.add_argument("--interval", type=int, default=1000,
                   help="SMI interval in jiffies (1 jiffy = 1 ms)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--quick", action="store_true",
                   help="shorthand for the tiny EP.A 2-node scenario")
    p.add_argument("-o", "--out", default=None,
                   help="output path (default <scenario>.trace.json)")
    p.add_argument("--jsonl", default=None, metavar="PATH",
                   help="also dump raw timeline records as JSON Lines")
    p.add_argument("--metrics", action="store_true",
                   help="collect and print run metrics")
    p.add_argument("--metrics-format", choices=("text", "json", "prom"),
                   default="text", help="metrics rendering")
    p.set_defaults(fn=_trace)
    p = sub.add_parser(
        "explain",
        help="attribute one cell's slowdown (decomposition, wait states, "
             "critical path)")
    p.add_argument("--bench", default="BT", choices=("EP", "BT", "FT"))
    p.add_argument("--cls", default="A", type=_nas_class, metavar="CLASS",
                   help="NAS problem class (A, B, or C; case-insensitive)")
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--rpn", type=int, default=1, help="MPI ranks per node")
    p.add_argument("--smm", type=int, default=2, choices=(0, 1, 2),
                   help="SMI class to attribute: 1 short, 2 long")
    p.add_argument("--interval", type=int, default=1000,
                   help="SMI interval in jiffies (1 jiffy = 1 ms)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--quick", action="store_true",
                   help="shorthand for the tiny EP.A 2-node scenario")
    p.add_argument("--tolerance", type=_positive_float, default=0.05,
                   help="conservation tolerance (fraction of the slowdown)")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="also write the attribution report as JSON")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="also export the noisy run's Chrome trace (with "
                   "wait-state slices and counter tracks)")
    p.add_argument("--metrics", action="store_true",
                   help="collect and print run metrics")
    p.add_argument("--metrics-format", choices=("text", "json", "prom"),
                   default="text", help="metrics rendering")
    p.set_defaults(fn=_explain)
    p = sub.add_parser("detect", help="host-native SMI/latency gap scan")
    p.add_argument("--window", type=float, default=1.0, help="seconds to scan")
    p.set_defaults(fn=_detect)
    p = sub.add_parser("calibrate", help="print calibration derivation")
    p.add_argument("--quick", action="store_true",
                   help="skip the network-fit simulations")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=_calibrate)
    p = sub.add_parser(
        "serve",
        help="run the sweep-serving daemon (durable queue, local and "
             "remote worker agents, content-addressed result cache)")
    p.add_argument("action", nargs="?", default="run",
                   choices=("run", "clear-quarantine"),
                   help="'run' (default) starts the daemon; "
                        "'clear-quarantine' forgets every circuit-broken "
                        "cell (live via the socket, else offline)")
    p.add_argument("--state-dir", default="serve-state",
                   help="journal, cache, lock, and default socket live here")
    p.add_argument("--socket", default=None,
                   help="unix socket path (default <state-dir>/serve.sock)")
    p.add_argument("--tcp", type=_parse_hostport, default=None,
                   metavar="HOST:PORT",
                   help="also listen on TCP (required for remote workers)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker agents run inside the daemon, leasing "
                        "cells over its unix socket like remote agents; "
                        "0 runs a pure-fleet daemon")
    p.add_argument("--timeout", type=_positive_float, default=300.0,
                   help="per-cell watchdog deadline in seconds")
    p.add_argument("--hb-timeout", type=_positive_float, default=10.0,
                   help="kill a worker whose heartbeats stop for this "
                        "long; sent to every agent, local or remote, "
                        "with each lease")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="quarantine a cell after this many failed attempts")
    p.add_argument("--max-pending", type=int, default=256,
                   help="reject submissions past this many in-flight cells")
    p.add_argument("--lease-s", type=_positive_float, default=15.0,
                   help="revoke a remote lease after this long without a "
                        "heartbeat")
    p.set_defaults(fn=_serve)
    p = sub.add_parser(
        "worker",
        help="run a remote worker agent that pulls leased cells from a "
             "daemon's TCP listener")
    p.add_argument("--connect", type=_parse_hostport, required=True,
                   metavar="HOST:PORT", help="the daemon's TCP endpoint")
    p.add_argument("--name", default=None,
                   help="worker name in status output (default: hostname)")
    p.add_argument("--backoff", type=_positive_float, default=0.5,
                   help="base reconnect backoff in seconds")
    p.add_argument("--max-backoff", type=_positive_float, default=15.0,
                   help="reconnect backoff ceiling in seconds")
    p.set_defaults(fn=_worker)
    p = sub.add_parser(
        "submit", help="send a table/figure sweep to a running daemon")
    p.add_argument("what", choices=("table1", "table2", "table3", "table4",
                                    "table5", "figure1", "figure2"))
    p.add_argument("--quick", action="store_true",
                   help="reduced grid (same shape, small classes)")
    p.add_argument("--reps", type=int, default=None,
                   help="repetitions per cell (default 3, 1 with --quick)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--csv", action="store_true",
                   help="emit CSV instead of the aligned table")
    p.add_argument("--attr", action="store_true",
                   help="run the attribution engine alongside each NAS cell")
    p.add_argument("--fault-plan", default=None, metavar="PATH",
                   help="inject model-level faults from a JSON plan "
                   "(env: REPRO_FAULT_PLAN)")
    p.add_argument("--socket", default="serve-state/serve.sock",
                   help="daemon unix socket")
    p.add_argument("--tcp", type=_parse_hostport, default=None,
                   metavar="HOST:PORT", help="reach the daemon over TCP")
    p.add_argument("--wait-timeout", type=_positive_float, default=600.0,
                   help="client-side reply timeout in seconds")
    p.add_argument("--retries", type=int, default=0,
                   help="retry retryable refusals (saturated/unavailable) "
                        "this many times with decorrelated-jitter backoff")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write a deterministic results JSON document")
    p.add_argument("--manifest", default=None, metavar="PATH",
                   help="also write a v2 run manifest ('auto' for a "
                        "derived name)")
    p.set_defaults(fn=_submit)
    p = sub.add_parser("status", help="query a running daemon")
    p.add_argument("--socket", default="serve-state/serve.sock",
                   help="daemon unix socket")
    p.add_argument("--tcp", type=_parse_hostport, default=None,
                   metavar="HOST:PORT", help="reach the daemon over TCP")
    p.add_argument("--wait-timeout", type=_positive_float, default=30.0,
                   help="client-side reply timeout in seconds")
    p.add_argument("--json", action="store_true",
                   help="print the raw status reply as JSON")
    p.add_argument("--prom", action="store_true",
                   help="print the daemon's Prometheus metrics text")
    p.set_defaults(fn=_serve_status)
    args = parser.parse_args(argv)
    if "fault_plan" in vars(args) and args.fault_plan is None:
        # The one place REPRO_FAULT_PLAN is read: ``--fault-plan`` wins.
        from repro.faults import PLAN_ENV

        args.fault_plan = os.environ.get(PLAN_ENV) or None
    _setup_logging(args.verbose)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
