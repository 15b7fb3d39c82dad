"""What a workload run hands back to ``run.py``, and the statistics
the end-to-end metrics are made of."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class Outcome:
    """The measurements of one workload run.

    A run repeats a *unit* of work: a headline evaluation
    (``paper_step``), a whole simulation run (``cosmo_run``) or one
    served job (``serve_*``).  ``unit_s`` holds the untraced unit
    latencies; ``run_s`` the part of each unit spent running the step
    schedule; ``interactions / interaction_s`` is the force throughput.
    """

    setup_s: List[float] = field(default_factory=list)
    unit_s: List[float] = field(default_factory=list)
    run_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    interactions: float = 0.0
    interaction_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> bool:
        """Record one correctness gate; a gate checked more than once
        passes only if every check passed."""
        self.checks[name] = bool(ok) and self.checks.get(name, True)
        return bool(ok)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie above the nearest-rank ``q``-th
    percentile's rank."""
    return len(values) - max(1, math.ceil(q / 100.0 * len(values)))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
