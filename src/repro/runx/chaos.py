"""Fault injection: prove the resilient runner actually is.

A chaos *plan* is a JSON list of rules keyed by cell id; the worker
subprocess consults the plan (named by ``$REPRO_CHAOS_PLAN``) right
before executing its cell and injects the matching fault.  Faults model
the real-world failure classes the runner claims to survive:

* ``kill``    — SIGKILL the worker mid-cell (segfault / OOM-killer).
* ``hang``    — sleep past any sane deadline (diverging simulation);
  only the runner's watchdog can end it.
* ``corrupt`` — exit "successfully" with garbage instead of a result
  (truncated pipe, partial write).
* ``flake``   — exit nonzero (transient infrastructure error).

Rules may be scoped to specific attempt numbers, so ``"attempts": [0]``
gives the canonical transient fault: first try dies, the retry — with
the cell's own seed, so its value equals a clean run's — succeeds.
CI's chaos smoke job and the runx test-suite are the consumers.
"""

from __future__ import annotations

import fnmatch
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["PLAN_ENV", "FaultRule", "FaultPlan", "apply_fault"]

#: Environment variable naming the active chaos plan file (workers only
#: look at this; a production sweep never loads chaos code).
PLAN_ENV = "REPRO_CHAOS_PLAN"

_FAULTS = ("kill", "hang", "corrupt", "flake")


@dataclass(frozen=True)
class FaultRule:
    """Inject ``fault`` into cells whose id matches ``match``.

    ``match`` is an ``fnmatch`` glob tested against the cell id (so a
    bare substring needs ``*`` around it).  ``attempts`` limits injection
    to the listed 0-based attempt numbers; empty means every attempt.
    """

    match: str
    fault: str
    attempts: Sequence[int] = field(default_factory=tuple)
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.fault not in _FAULTS:
            raise ValueError(
                f"unknown fault {self.fault!r} (one of {_FAULTS})")

    def applies(self, cell_id: str, attempt: int) -> bool:
        if self.attempts and attempt not in self.attempts:
            return False
        return fnmatch.fnmatchcase(cell_id, self.match)


@dataclass
class FaultPlan:
    rules: List[FaultRule] = field(default_factory=list)

    def fault_for(self, cell_id: str, attempt: int) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.applies(cell_id, attempt):
                return rule
        return None

    # -- (de)serialization ----------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            [{"match": r.match, "fault": r.fault,
              "attempts": list(r.attempts), "hang_s": r.hang_s}
             for r in self.rules],
            indent=1,
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.to_json() + "\n")

    @classmethod
    def from_rules(cls, rules: Sequence[Dict]) -> "FaultPlan":
        return cls([
            FaultRule(
                match=r["match"], fault=r["fault"],
                attempts=tuple(r.get("attempts", ())),
                hang_s=float(r.get("hang_s", 3600.0)),
            )
            for r in rules
        ])

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, encoding="utf-8") as fp:
            return cls.from_rules(json.load(fp))

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        path = os.environ.get(PLAN_ENV)
        return cls.load(path) if path else None


def apply_fault(rule: FaultRule) -> None:
    """Executed *inside the worker*: make this attempt fail like the
    real failure the rule models.  ``corrupt`` and ``flake`` return the
    worker's exit to the caller via SystemExit; ``kill`` never returns."""
    if rule.fault == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)  # pragma: no cover — unreachable
    elif rule.fault == "hang":
        time.sleep(rule.hang_s)
        raise SystemExit(16)  # hang "finished": still a failure
    elif rule.fault == "corrupt":
        sys.stdout.write("{ this is not a result record\n")
        sys.stdout.flush()
        raise SystemExit(0)  # exits clean — only output validation catches it
    elif rule.fault == "flake":
        print("chaos: injected transient failure", file=sys.stderr)
        raise SystemExit(17)
