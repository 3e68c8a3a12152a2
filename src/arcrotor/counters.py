"""Exact operation tallies shared by the solvers and the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounters:
    """Mutable tally of the primitive operations a solve performs.

    Counts are machine-independent: one unit per repeated-addition step,
    one per wrap subtraction, one per target-equality test, one per outer
    loop iteration.  No weighting by operand bit-length is applied here;
    bit-aware views belong to the reporting layer.
    """

    additions: int = 0
    subtractions: int = 0
    comparisons: int = 0
    outer_steps: int = 0

    @property
    def total_arithmetic(self) -> int:
        """Additions plus subtractions; the cost metric used for fitting."""
        return self.additions + self.subtractions
