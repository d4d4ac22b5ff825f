"""The fault injector: arms a plan's rules against a live simulation.

One injector serves one simulated run (one repetition of one cell) —
it owns a seeded RNG for the probabilistic link faults, a bounded event
log, and the derived MPI timeout.  Attach it to a
:class:`repro.mpi.cluster.Cluster` *before* the job launches::

    inj = FaultInjector(rule_dicts, seed=seed)   # FaultRule objects work too
    inj.attach(cluster)            # arms node-fault timers, hooks links
    run_mpi_job(cluster, ...)      # raises JobAbortedError on fatal faults

or to a single :class:`repro.machine.node.Node` for the single-machine
experiments — ``run_convolve``/``run_unixbench`` do this when passed
``faults=inj``::

    inj.attach_node(machine.node)

``run_nas_config(..., faults=inj)`` calls :meth:`FaultInjector.attach`
the same way.  The cell executors (:mod:`repro.runx.cells`) arm a fresh
injector per simulated run and escalate faulted runs to
:class:`~repro.faults.FaultedRunError`.

Everything is deterministic: timers fire at the rule's ``at_s`` in
simulated time, and link-fault coin flips come from ``random.Random``
seeded from the run seed — the same seed and plan replay the same faults.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.faults.plan import LINK_FAULTS, FaultRule
from repro.mpi.errors import CorruptedPayload

__all__ = ["FaultInjector", "DEFAULT_MPI_TIMEOUT_S"]

#: Derived MPI timeout (simulated seconds) when the plan contains faults
#: that can stall communication (hangs, message drops) but no rule names
#: an explicit ``mpi_timeout_s``.
DEFAULT_MPI_TIMEOUT_S = 60.0

#: Fault kinds that make further progress of the affected run impossible.
_FATAL = frozenset(("node_crash", "node_hang"))

#: Event-log bound: heavy traffic under ``link_drop p=1`` would otherwise
#: log one event per message.  Overflow is counted in ``suppressed``.
_EVENT_CAP = 200


class FaultInjector:
    """Schedules and applies one plan's worth of model-level faults."""

    def __init__(
        self,
        rules: Sequence[Union[FaultRule, Dict[str, Any]]],
        seed: int = 0,
        metrics=None,
    ):
        self.rules: List[FaultRule] = [
            r if isinstance(r, FaultRule) else FaultRule.from_record(r)
            for r in rules
        ]
        self.seed = seed
        self.rng = random.Random(seed * 6271 + 101)
        self.events: List[Dict[str, Any]] = []
        self.suppressed = 0
        self.metrics = metrics
        self._link_rules = [r for r in self.rules if r.is_link]
        self._c_injected = (
            metrics.counter("faults.injected", "model-level faults fired")
            if metrics is not None else None
        )
        explicit = [r.mpi_timeout_s for r in self.rules
                    if r.mpi_timeout_s is not None]
        if explicit:
            self.mpi_timeout_s: Optional[float] = min(explicit)
        elif any(r.fault in ("node_hang", "link_drop") for r in self.rules):
            self.mpi_timeout_s = DEFAULT_MPI_TIMEOUT_S
        else:
            self.mpi_timeout_s = None

    # -- arming ---------------------------------------------------------------
    def attach(self, cluster) -> "FaultInjector":
        """Register as the cluster's fault domain and arm node-fault
        timers (daemon — they never keep the engine alive).  Link rules
        need no timers; the communicator consults :meth:`on_message`."""
        cluster.faults = self
        engine = cluster.engine
        for rule in self.rules:
            # Link rules need no timer; a node rule may target a node
            # this cell does not have.
            if rule.is_link or not rule.fires_in(len(cluster.nodes), True):
                continue
            engine.schedule_at(
                int(rule.at_s * 1e9), self._fire_node_fault, rule,
                cluster.nodes[rule.node], daemon=True,
            )
        return self

    def attach_node(self, node) -> "FaultInjector":
        """Single-machine variant: arm node-level rules targeting node 0
        against ``node``.  Link rules are meaningless here and skipped."""
        for rule in self.rules:
            if not rule.fires_in(1, False):
                continue
            node.engine.schedule_at(
                int(rule.at_s * 1e9), self._fire_node_fault, rule, node,
                daemon=True,
            )
        return self

    # -- node faults ----------------------------------------------------------
    def _fire_node_fault(self, rule: FaultRule, node) -> None:
        kind = rule.fault
        if kind == "node_crash":
            node.fail(f"fault plan: node_crash at {rule.at_s}s")
            self._record(kind, node=node.name, at_ns=node.engine.now)
        elif kind == "node_hang":
            node.hang(f"fault plan: node_hang at {rule.at_s}s")
            self._record(kind, node=node.name, at_ns=node.engine.now)
        elif kind == "cpu_degrade":
            if 0 <= rule.cpu < len(node.cpus):
                node.cpus[rule.cpu].degrade(rule.factor)
                self._record(kind, node=node.name, at_ns=node.engine.now,
                             cpu=rule.cpu, factor=rule.factor)
        elif kind == "clock_skew":
            node.clock.set_skew(rule.skew_ppm)
            self._record(kind, node=node.name, at_ns=node.engine.now,
                         skew_ppm=rule.skew_ppm)
        if node.timeline.enabled:
            node.timeline.record(node.engine.now, f"fault.{kind}", node.name)

    @property
    def fatal(self) -> bool:
        """True when a fired fault makes the run's completion impossible
        (node crash/hang) — even if the run "finished" superficially."""
        return any(e["fault"] in _FATAL for e in self.events)

    # -- link faults ----------------------------------------------------------
    def on_message(self, msg) -> List[tuple]:
        """Link-fault hook consulted by the communicator for every
        message.  Returns ``[(message, extra_latency_ns), ...]`` — empty
        when the message is dropped, two entries when duplicated."""
        if not self._link_rules:
            return [(msg, 0)]
        out = msg
        extra = 0
        copies = 1
        for rule in self._link_rules:
            if rule.src is not None and rule.src != msg.src:
                continue
            if rule.dst is not None and rule.dst != msg.dst:
                continue
            if rule.p < 1.0 and self.rng.random() >= rule.p:
                continue
            kind = rule.fault
            if kind == "link_drop":
                self._record(kind, src=msg.src, dst=msg.dst, nbytes=msg.nbytes)
                return []
            if kind == "link_dup":
                copies += 1
                self._record(kind, src=msg.src, dst=msg.dst, nbytes=msg.nbytes)
            elif kind == "link_corrupt":
                out = replace(out, payload=CorruptedPayload(out.payload))
                self._record(kind, src=msg.src, dst=msg.dst, nbytes=msg.nbytes)
            elif kind == "link_delay":
                extra += rule.delay_ns
                self._record(kind, src=msg.src, dst=msg.dst,
                             delay_ns=rule.delay_ns)
        return [(out, extra)] * copies

    # -- event log ------------------------------------------------------------
    def _record(self, kind: str, **info: Any) -> None:
        if self._c_injected is not None:
            self._c_injected.inc()
        if len(self.events) >= _EVENT_CAP:
            self.suppressed += 1
            return
        self.events.append({"fault": kind, **info})

