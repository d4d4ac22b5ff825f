"""Shared application scaffolding."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["AppResult"]


@dataclass
class AppResult:
    """What a benchmark reports — the NPB-style triple the paper records
    ("the resulting time, work completed, and MOPs", §III.C)."""

    name: str
    elapsed_s: float
    work_ops: float
    verified: Optional[bool] = None
    extra: Dict[str, float] = field(default_factory=dict)

