"""Rotor solvers for the discrete logarithm x^k = y (mod p).

The solver is one recurrence: advance the accumulated power of x by x-fold
repeated addition (so one outer step costs exactly x additions), wrap the
result by repeated subtraction with a strict ``>`` comparison, and test it
against the target once per outer step.  Every solve differs only in its
start value, target, wrap bound and tolerance, so the walk is written once
per arithmetic family:

* ``_walk_int`` serves the integer field (wrap p) and fixed-point mode (raw
  units, wrap 360 * 2**bits).  Every add/subtract there is an exact integer
  operation, so the repeated addition is folded into one multiplication and
  the wrap loop into one division, with identical results and identical
  operation counts.
* ``_walk_float`` serves float64 mode (degrees, wrap 360.0).  Its
  per-operation rounding is precisely what a precision scan measures, so
  its result is identical to the literal loops' (value, bit for bit, and
  counts), and the literal loops run only where a step can round.  The
  x-fold addition is one multiplication when the accumulator's mantissa
  times x fits in 53 bits, so every partial sum is exact.  The wrap is one
  ``fmod`` when the wrap bound is an integer and the sum is below 2**53, so
  every subtraction is exact.  In a solve the first step (from x * theta)
  and a few percent of the later ones take the literal addition loop.

``rotor_solve_int``, ``rotor_solve_real`` and the single-step driver
``rotor_step`` are thin views over these two kernels; exact arc mode is a
view of the integer-field solve.

Faithfulness notes that shape the observable behaviour:

* The strict ``>`` wrap means an exact positive multiple of the bound
  settles at the bound itself, never at 0; the accumulator therefore lives
  in [1, p] (numerator units) rather than [0, p).
* The main loop's first comparison sees x^2, so the solutions k=0 (y = 1)
  and k=1 (y = x) are answered by explicit pre-checks before the loop.
* The loop runs at most p-1 outer steps; if the accumulator revisits its
  initial value x^1 beforehand, the orbit is exhausted and the solve stops
  with ``CycleDetected``.  Unreachable targets are a valid outcome, not an
  error.

Counter policy: ``comparisons`` counts target-equality tests (including the
two pre-checks); the cycle-detection test is bookkeeping and is not charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import fmod

from .counters import OpCounters
from .numerics import EXACT, NumericMode, check_tolerance, default_tolerance


class InvalidInstanceError(ValueError):
    """Raised when a problem triple violates 1 <= x < p, 1 <= y < p, p >= 2."""


@dataclass(frozen=True)
class DlogInstance:
    """A discrete-log problem triple (p, x, y) over the residues mod p.

    p need not be prime; the solvers are defined on any multiplicative
    structure mod p, with "no solution" a legitimate outcome.  Error
    messages start with the offending field's name.
    """

    p: int
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.p < 2:
            raise InvalidInstanceError(f"p must be >= 2, got p={self.p}")
        if not 1 <= self.x < self.p:
            raise InvalidInstanceError(f"x must satisfy 1 <= x < p, got x={self.x}, p={self.p}")
        if not 1 <= self.y < self.p:
            raise InvalidInstanceError(f"y must satisfy 1 <= y < p, got y={self.y}, p={self.p}")


class SolveReason(str, Enum):
    FOUND = "Found"
    EXHAUSTED_ITERATIONS = "ExhaustedIterations"
    CYCLE_DETECTED = "CycleDetected"


@dataclass(frozen=True)
class RotorState:
    """Loop state of one rotor solve, in the native units of its mode.

    acc is the accumulated power (x^exponent up to the strict-> wrap quirk)
    and target the reduced comparison value: integers for the integer field,
    exact and fixed-point arcs, floats in degrees for float64.
    """

    acc: int | float
    target: int | float
    exponent: int


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve: exponent (if found), termination reason, exact counts."""

    k: int | None
    reason: SolveReason
    counters: OpCounters

    def __post_init__(self) -> None:
        if (self.reason is SolveReason.FOUND) != (self.k is not None):
            raise ValueError("k must be present exactly when the reason is Found")

    @property
    def found(self) -> bool:
        return self.reason is SolveReason.FOUND

    @property
    def steps(self) -> int:
        """Outer steps walked; 0 for the k=0/1 pre-checks and the oracles."""
        return self.counters.outer_steps


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------
#
# Both kernels walk at most ``max_steps`` outer steps from ``acc`` (the value
# of x^1) and return (acc, steps, subtractions, reason).  The loops stay
# inline: a per-step helper call costs a measurable share of a sweep.

_EXACT_INT = 2**53  # every integer of smaller magnitude is a float64


def _walk_int(x: int, acc: int, target: int, wrap: int, tol: int, max_steps: int):
    first = acc
    subs = 0
    for steps in range(1, max_steps + 1):
        acc *= x  # exact fold of x-fold repeated addition
        if acc > wrap:
            m = (acc - 1) // wrap  # exact fold of the strict-> subtraction loop
            acc -= m * wrap
            subs += m
        if abs(acc - target) <= tol:
            return acc, steps, subs, SolveReason.FOUND
        if acc == first:
            return acc, steps, subs, SolveReason.CYCLE_DETECTED
    return acc, max_steps, subs, SolveReason.EXHAUSTED_ITERATIONS


def _walk_float(x: int, acc: float, target: float, wrap: float, tol: float, max_steps: int):
    # Identical to the literal loops (value, bit for bit, and counts), which
    # run only where a step can round.
    # Addition: with acc = n / 2**e, every partial sum j*acc (j <= x) is a
    # float64 when 0 < n*x < 2**53, so all x adds are exact and equal acc * x.
    # (n > 0 keeps -0.0, whose literal sum is +0.0, on the literal loop.)
    # Wrap: with an integral wrap and acc < 2**53, wrap is a multiple of acc's
    # ulp (at most 1), so every `acc -= wrap` is exact.  The loop then ends at
    # rem = fmod(acc, wrap) after m = (acc - rem) / wrap subtractions, both
    # exact, except that an exact multiple settles at the bound after m - 1
    # (the strict > quirk).  `wrap == int(wrap)` also takes an int wrap on
    # Python < 3.12, which has no int.is_integer.
    fold_wrap = 0 < wrap < _EXACT_INT and wrap == int(wrap)
    first = acc
    subs = 0
    for steps in range(1, max_steps + 1):
        if 0 < acc.as_integer_ratio()[0] * x < _EXACT_INT:
            acc *= x
        else:
            total = 0.0
            for _ in range(x):  # literal repeated addition; rounding accumulates
                total += acc
            acc = total
        if acc > wrap:
            if fold_wrap and acc < _EXACT_INT:
                rem = fmod(acc, wrap)
                m = int((acc - rem) / wrap)
                if rem == 0.0:
                    rem = float(wrap)
                    m -= 1
                acc = rem
                subs += m
            else:
                while acc > wrap:
                    acc -= wrap
                    subs += 1
        if abs(acc - target) <= tol:
            return acc, steps, subs, SolveReason.FOUND
        if acc == first:
            return acc, steps, subs, SolveReason.CYCLE_DETECTED
    return acc, max_steps, subs, SolveReason.EXHAUSTED_ITERATIONS


def _solve(inst: DlogInstance, walk, start, target, wrap, tol) -> SolveReport:
    # The loop's first comparison sees x^2; answer k=0 and k=1 beforehand.
    x, y = inst.x, inst.y
    if y == 1:
        return SolveReport(0, SolveReason.FOUND, OpCounters(comparisons=1))
    if y == x:
        return SolveReport(1, SolveReason.FOUND, OpCounters(comparisons=2))
    _, steps, subs, reason = walk(x, start, target, wrap, tol, inst.p - 1)
    k = steps + 1 if reason is SolveReason.FOUND else None
    return SolveReport(k, reason, OpCounters(steps * x, subs, 2 + steps, steps))


def _arc_setup(inst: DlogInstance, mode: NumericMode, tolerance: float):
    """Kernel, start, target, wrap and tolerance of a float64 or fixed-point arc solve."""
    p, x, y = inst.p, inst.x, inst.y
    if mode.kind == "float64":
        theta = 360.0 / p
        return _walk_float, x * theta, y * theta, 360.0, tolerance
    # Fixed point rounds only theta and the tolerance; everything after that
    # is exact integer arithmetic on raw units.
    scale = 1 << mode.fractional_bits
    theta_raw = round(Fraction(360 * scale, p))
    return _walk_int, x * theta_raw, y * theta_raw, 360 * scale, round(tolerance * scale)


# ---------------------------------------------------------------------------
# Single step
# ---------------------------------------------------------------------------


def rotor_step(
    state: RotorState,
    x: int,
    wrap: int | float,
    counters: OpCounters,
) -> RotorState:
    """Advance one outer iteration: x-fold add, wrap, increment the exponent.

    ``wrap`` must be positive, in the state's native units: p for
    integer-field and exact-arc states, 360 << bits for fixed-point states,
    360.0 for float64 states.  Runs the solvers' own kernel for one step;
    exactly x additions and that step's subtractions are charged to
    ``counters``.
    """
    if not wrap > 0:  # also rejects nan
        raise ValueError(f"wrap must be positive, got {wrap}")
    walk = _walk_float if isinstance(state.acc, float) else _walk_int
    acc, _, subs, _ = walk(x, state.acc, state.target, wrap, 0, 1)
    counters.additions += x
    counters.subtractions += subs
    return RotorState(acc, state.target, state.exponent + 1)


def initial_state(inst: DlogInstance) -> RotorState:
    """Integer-field start state: acc = x^1, target = y, exponent = 1."""
    return RotorState(inst.x, inst.y, 1)


def initial_projected_state(inst: DlogInstance, mode: NumericMode = EXACT) -> RotorState:
    """Arc-projected start state in the given mode, exactly as the solver starts.

    Approximate modes compute the step theta = 360/p first in mode
    arithmetic, then scale it by the integers x and y (two rounding steps in
    float64, one in fixed point).  Exact mode starts as the integer field.
    """
    if mode.is_exact:
        return initial_state(inst)
    _, start, target, _, _ = _arc_setup(inst, mode, 0.0)
    return RotorState(start, target, 1)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def rotor_solve_int(inst: DlogInstance) -> SolveReport:
    """Rotor solve directly on integer residues, wrap bound p.

    Pure integer recurrence: one outer step multiplies the accumulator by x
    (charged as x additions) and wraps it back into [1, p] by the strict->
    rule (each subtraction charged).  Always agrees with the brute-force
    oracle on existence and least k.
    """
    if not isinstance(inst, DlogInstance):
        raise InvalidInstanceError(f"expected a DlogInstance, got {type(inst).__name__}")
    return _solve(inst, _walk_int, inst.x, inst.y, inst.p, 0)


def rotor_solve_real(
    inst: DlogInstance,
    mode: NumericMode = EXACT,
    tolerance: float | None = None,
) -> SolveReport:
    """Rotor solve on the 360-degree arc projection.

    In exact mode the result is ``rotor_solve_int``'s, which always agrees
    with the oracle, and the tolerance is ignored.  In approximate modes the
    comparison uses ``tolerance`` degrees (default: half the angular step,
    180/p); a wrong or missing k is a measurable outcome, not an error.  A
    given tolerance must be finite and non-negative in every mode.
    """
    if not isinstance(inst, DlogInstance):
        raise InvalidInstanceError(f"expected a DlogInstance, got {type(inst).__name__}")
    if not isinstance(mode, NumericMode):
        raise ValueError(f"expected a NumericMode, got {type(mode).__name__}")
    check_tolerance(tolerance)
    if mode.is_exact:
        # Rational-angle semantics: theta carries numerator 1, so x' = x*theta
        # and y' = y*theta carry numerators x and y, and the 360-degree wrap
        # point is numerator p: the integer field, with no tolerance needed.
        return rotor_solve_int(inst)
    if tolerance is None:
        tolerance = default_tolerance(mode, inst.p)
    return _solve(inst, *_arc_setup(inst, mode, tolerance))
