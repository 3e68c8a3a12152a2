"""Rotor solvers for the discrete logarithm x^k = y (mod p).

The solver is one recurrence: advance the accumulated power of x by x-fold
repeated addition (so one outer step costs exactly x additions), wrap the
result by repeated subtraction with a strict ``>`` comparison, and test it
against the target once per outer step.  Every solve differs only in its
start value, target, wrap bound and tolerance, so the walk is written once
per arithmetic family:

* ``_walk_int`` serves the integer field (wrap p) and fixed-point mode (raw
  units, wrap 360 * 2**bits); its results equal the literal loops'.
* ``_walk_float`` serves float64 mode (degrees, wrap 360.0); its results
  equal the literal loops', the value bit for bit, as their rounding is
  what a precision scan measures.

Each kernel's comment carries the argument that it is exact.
``rotor_solve_int``, ``rotor_solve_real``, the single-step driver
``rotor_step`` and verify's orbits (``_walk_int``'s trail) are thin views
over these two kernels; exact arc mode is a view of the integer-field solve.

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
from math import fmod, inf, isfinite

import numpy as np

from .numerics import (
    EXACT,
    InvalidModulusError,
    NumericMode,
    _check_mode,
    _whole,
    check_tolerance,
    default_tolerance,
)


class InvalidInstanceError(ValueError):
    """Raised when a problem triple violates 1 <= x < p, 1 <= y < p, p >= 2."""


@dataclass(frozen=True, slots=True, init=False)
class DlogInstance:
    """A discrete-log problem triple (p, x, y) over the residues mod p.

    p need not be prime; the solvers are defined on any multiplicative
    structure mod p, with "no solution" a legitimate outcome.  Each field
    must be a whole number (what ``operator.index`` takes) and is stored as
    an int.  Error messages start with the offending field's name.
    """

    p: int
    x: int
    y: int

    # A frozen dataclass's own __init__ stores each field through
    # object.__setattr__, most of a small solve's object cost; this one checks
    # locals and stores each field once through its slot's setter, bound below.
    def __init__(self, p: int, x: int, y: int) -> None:
        if not type(p) is type(x) is type(y) is int:
            p = _whole(p, "p", InvalidInstanceError)
            x = _whole(x, "x", InvalidInstanceError)
            y = _whole(y, "y", InvalidInstanceError)
        if p < 2:
            raise InvalidInstanceError(f"p must be >= 2, got p={p}")
        if not 1 <= x < p:
            raise InvalidInstanceError(f"x must satisfy 1 <= x < p, got x={x}, p={p}")
        if not 1 <= y < p:
            raise InvalidInstanceError(f"y must satisfy 1 <= y < p, got y={y}, p={p}")
        _set_p(self, p)
        _set_x(self, x)
        _set_y(self, y)


_set_p, _set_x, _set_y = (DlogInstance.__dict__[n].__set__ for n in ("p", "x", "y"))


class SolveReason(str, Enum):
    FOUND = "Found"
    EXHAUSTED_ITERATIONS = "ExhaustedIterations"
    CYCLE_DETECTED = "CycleDetected"


# Bound once, in definition order: a lookup on the Enum costs each small solve.
_FOUND, _EXHAUSTED, _CYCLE = SolveReason


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


@dataclass(frozen=True, slots=True, init=False)
class SolveReport:
    """Outcome of a solve: exponent (if found), termination reason, exact counts."""

    k: int | None
    reason: SolveReason
    counters: OpCounters

    # Stored through its slots' setters, as DlogInstance's fields are.
    def __init__(self, k: int | None, reason: SolveReason, counters: OpCounters) -> None:
        if (reason is _FOUND) != (k is not None):
            raise ValueError("k must be present exactly when the reason is Found")
        _set_k(self, k)
        _set_reason(self, reason)
        _set_counters(self, counters)

    @property
    def found(self) -> bool:
        return self.reason is _FOUND

    @property
    def steps(self) -> int:
        """Outer steps walked; 0 for the k=0/1 pre-checks and the oracles."""
        return self.counters.outer_steps


_set_k, _set_reason, _set_counters = (
    SolveReport.__dict__[n].__set__ for n in ("k", "reason", "counters")
)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------
#
# Both kernels walk at most ``max_steps`` outer steps from ``acc`` (the value
# of x^1) and return (acc, steps, subtractions, reason).  Arguments 3 and 4
# are the hit test: [lo, hi] for _walk_int (no hit when lo > hi), target and
# tolerance for _walk_float.  The loops stay inline: a per-step helper call
# costs a measurable share of a sweep.

_EXACT_INT = 2**53  # every integer of smaller magnitude is a float64
# CPython stores an int in 30-bit digits.  Walks whose values pass one digit
# run faster on float64 carriers (fixed:24 and fixed:32 scans, x1.7); walks
# within one digit run faster on ints (the integer field, x0.7 on floats).
_WIDE_WRAP = 2**30
# The shortest carrier pass of a walk longer than one pass (wraps below
# 2**50); _walk_int gives the measured crossover.
_CARRIER_MIN_PASS = 8
# A walk runs its first _BLOCK_HEAD steps on the loop, where most solves
# end, and the rest in numpy blocks of _ORBIT_ROW columns (baby steps) by a
# doubling number of rows (giant steps).  _BLOCK_VALUES caps the values in
# one block, so a block's arrays stay near 1 MB at any max_steps.  A walk's
# first block, 1,024 values, costs about as much as 210 narrow loop steps
# (most of it per numpy call, not per value), and a full block 7-12 ns a
# value, so blocks run only where max_steps leaves room for a quarter of a
# first block after the head, for narrow and wide wraps alike.  Entered
# from step 64 on, they made verify's solver walks up to p = 500 1.2-1.4x
# slower: most of those that pass the head end within 300 steps.
_BLOCK_HEAD = 64
_ORBIT_ROW = 32
_BLOCK_VALUES = 2**15
_BLOCK_MIN_STEPS = _BLOCK_HEAD + _ORBIT_ROW**2 // 4
# Values of a block stay below _BLOCK_WRAP, so its int64 sum is exact.
_BLOCK_WRAP = 2**63 // _BLOCK_VALUES


def _walk_int(
    x: int, acc: int, lo: int, hi: int, wrap: int, max_steps: int, trail=None, cycle=None
):
    # `acc *= x` is the exact fold of x-fold repeated addition, and
    # `acc % wrap or wrap` that of the strict-> subtraction loop: an exact
    # multiple settles at the bound.  The `> wrap` guard leaves a value
    # <= wrap unchanged, as the literal loop does: a fixed-point walk whose
    # theta rounds to 0 raw units sits at 0 and must not move to the bound.
    # Each step satisfies x * a[j-1] = m[j] * wrap + a[j], with m[j] its
    # subtraction count (0 without a wrap).  Summed over the walk,
    # x * (a[0] + ... + a[n-1]) = wrap * sum(m) + (a[1] + ... + a[n]), so the
    # loop keeps only the running sum `total` of a[1..n], and sum(m) is one
    # exact division at the end.  One loop serves every walk: a point hit
    # (the integer field, every single step) is lo == hi, and a list `trail`
    # also gets each value (verify's orbits).  A separate equality loop saves
    # little since most steps of long walks run in blocks.  The walk stops
    # with CycleDetected on a return to `cycle`, its start when None; the
    # count's a[0] stays the start either way.
    # Wide walks run the same loop on float64 carriers.  Every integer of
    # magnitude below 2**53 is a float64, and `*`, `%`, `+` and comparisons
    # on such integers, with an integer result of that size, are exact
    # (Goldberg, 1991).  The guard bounds every operand and result: x >= 0
    # and acc >= 0 keep the values non-negative; a value is at most
    # max(acc, wrap), and at most wrap after a step, so a product is at most
    # x * max(acc, wrap); lo, hi, cycle are bounded themselves.  The loop
    # runs in passes of at most chunk = (2**53 - 1) // wrap steps, each
    # summing into a fresh float `total` that goes to int when the pass
    # ends, so a pass's running sum of at most chunk values is at most
    # chunk * wrap < 2**53.  Each pass resumes at the last value with the
    # same cycle reference, so the passes walk the one loop's steps.  A walk
    # takes carriers when its loop is one pass, or when a pass holds at
    # least _CARRIER_MIN_PASS steps; shorter passes stay on ints.  A pass
    # costs an int() and a few tests, about what a few float steps save:
    # 50,000-step walks in passes of 2, 3 and 4 steps ran 1.8x, 1.3x and
    # 1.0x the int time, in passes of 8, 16 and 31 steps 0.79x, 0.66x and
    # 0.58x (medians; at most 0.96x at 8).
    # Python's float `%` is fmod, always exact, plus a sign fix that
    # non-negative operands never take.  So each float operation equals its
    # int one; acc and the sum go back to int for the blocks and for the
    # subtraction count, whose product can pass 2**53, and the other ints
    # are kept.  A trail holds ints on every path: the carriers a wide walk
    # appended go back to int with the rest.
    # A walk runs a head of _BLOCK_HEAD steps on the loop and the rest in
    # _orbit_blocks, which extend the trail, when x >= 1, acc >= 1,
    # 1 <= wrap < _BLOCK_WRAP and max_steps > _BLOCK_MIN_STEPS (a wide walk's
    # carriers go back to int before the blocks).
    # Then every value after the first step lies in [1, wrap]: a product
    # a * x >= 1 is either kept (at most wrap) or wrapped into [1, wrap].
    # On [1, wrap] a step maps a to a * x mod wrap, with 0 mapped to wrap,
    # so the value t steps on from acc is acc * x**t mod wrap, 0 mapped to
    # wrap.  With B[r] = x**(r + 1) mod wrap for r < M = _ORBIT_ROW and
    # g = x**M mod wrap, step t = i * M + r + 1 reaches G[i] * B[r] mod wrap
    # for G[i] = acc * g**i mod wrap: a block is one product table.  Its
    # first value in [lo, hi] or equal to `cycle` is where the loop stops,
    # a hit when in [lo, hi], as the loop tests the hit first.  Every value
    # is below 2**48, so a block's sum of at most _BLOCK_VALUES of them is
    # below 2**63: int64 is exact.  _orbit_blocks has the product's proof.
    if cycle is None:
        cycle = acc
    head = max_steps
    if max_steps > _BLOCK_MIN_STEPS and x >= 1 and acc >= 1 and 1 <= wrap < _BLOCK_WRAP:
        head = _BLOCK_HEAD
    wide = (
        wrap >= _WIDE_WRAP
        and 0 <= acc
        and 0 <= x * max(acc, wrap) < _EXACT_INT
        and max(abs(lo), abs(hi), abs(cycle)) < _EXACT_INT
        and (chunk := (_EXACT_INT - 1) // wrap) >= min(head, _CARRIER_MIN_PASS)
    )
    start, total = acc, 0
    steps, reason, end = 0, _EXHAUSTED, head
    if wide:
        ints, summed = (x, lo, hi, wrap, cycle), 0
        x, lo, hi, wrap, cycle = map(float, ints)
        acc, total, end = float(acc), 0.0, min(chunk, head)
    while True:
        for steps in range(steps + 1, end + 1):
            acc *= x
            if acc > wrap:
                acc = acc % wrap or wrap
            total += acc
            if trail is not None:
                trail.append(acc)
            if lo <= acc <= hi:
                reason = _FOUND
                break
            if acc == cycle:
                reason = _CYCLE
                break
        if not wide:
            break
        summed += int(total)
        total = 0.0
        if steps == head or reason is not _EXHAUSTED:
            break
        end += chunk
        if end > head:
            end = head
    if wide:
        acc, total, (x, lo, hi, wrap, cycle) = int(acc), summed, ints
        if trail is not None:  # the loop appended `steps` carriers
            trail[len(trail) - steps :] = map(int, trail[len(trail) - steps :])
    if head < max_steps and reason is _EXHAUSTED:
        acc, steps, more, reason = _orbit_blocks(x, acc, cycle, lo, hi, wrap, max_steps, trail)
        total += more
    return acc, steps, (x * (start + total - acc) - total) // wrap, reason


def _orbit_blocks(
    x: int, acc: int, cycle: int, lo: int, hi: int, wrap: int, max_steps: int, trail
):
    """The rest of a walk at acc in [1, wrap] after its _BLOCK_HEAD-step head, in product tables.

    Returns (acc, steps, total, reason), total the sum of the values walked
    here, which a list ``trail`` gets as ints; _walk_int has the proof.
    """
    # A narrow product G * B is below 2**60, so floor division of the int64
    # table by wrap is exact.  A wide one (wrap < 2**48) can pass 2**63, and
    # the int64 table holds it only mod 2**64; the quotient q = G * B / wrap
    # comes from float64 instead.  G and B are integers in [0, wrap], so
    # exact floats (numpy casts the column), and the float product of G and
    # fl(B / wrap) has two roundings: it lies within wrap * 2**-52 < 1/16 of
    # q.  Its floor (the cast truncates a non-negative float) is thus within
    # one of floor(q), and the remainder r = G * B - floor * wrap lies in
    # [-wrap, 2 * wrap).  As |r| < 2**63, int64 arithmetic, exact mod 2**64,
    # gives r itself.  Either way, subtracting floor((r - 1) / wrap) * wrap
    # (numpy floors int64 division, as Python does) leaves the value
    # congruent to r in [1, wrap]: 0 goes to wrap, as the loop's `or wrap`.
    babies, g = [], 1
    for _ in range(_ORBIT_ROW):
        g = g * x % wrap
        babies.append(g)
    baby = np.array(babies, np.int64)
    ratio = baby / wrap if wrap >= _WIDE_WRAP else None
    # clamped into int64: values lie in [1, wrap], so ends and a cycle
    # reference outside it change no test
    lo, hi = min(max(lo, 0), wrap + 1), min(max(hi, 0), wrap + 1)
    if cycle > wrap:
        cycle = 0
    steps, total, rows = _BLOCK_HEAD, 0, _ORBIT_ROW
    while steps < max_steps:
        n = min(rows * _ORBIT_ROW, max_steps - steps)
        giant = [acc]
        for _ in range(1, -(-n // _ORBIT_ROW)):
            giant.append(giant[-1] * g % wrap)
        column = np.array(giant, np.int64)[:, None]
        table = column * baby
        if ratio is not None:
            table -= (column * ratio).astype(np.int64) * wrap
        # In place after the first pass: each fresh 2**15-value temporary
        # costs a long walk about 1 ns a step.
        floor = table - 1
        floor //= wrap
        floor *= wrap
        table -= floor
        values = table.ravel()[:n]
        # One expression per case: OR-ing into a mask in place raised the
        # fixed:32 scan's peak RSS by 0.2-0.5 MB.  An empty interval
        # (lo > hi) holds no value.
        if lo == hi:
            stop = (values == lo) | (values == cycle)
        else:
            stop = (values >= lo) & (values <= hi) | (values == cycle)
        i = int(stop.argmax())
        if not stop[i]:
            i = n - 1  # a full block
        if trail is not None:
            trail.extend(values[: i + 1].tolist())
        total += int(values[: i + 1].sum())
        acc = int(values[i])
        steps += i + 1
        if stop[i]:
            reason = _FOUND if lo <= acc <= hi else _CYCLE
            return acc, steps, total, reason
        rows = min(2 * rows, _BLOCK_VALUES // _ORBIT_ROW)
    return acc, steps, total, _EXHAUSTED


def _walk_float(x: int, acc: float, target: float, tol: float, wrap: float, max_steps: int):
    # Identical to the literal loops (value, bit for bit, and counts).  A
    # head runs them only where a step can round, and hands the rest of the
    # walk to _walk_int once every later step is exact.
    # Head addition: with acc = n / 2**e, every partial sum j*acc (j <= x) is
    # a float64 when 0 < n*x < 2**53, so all x adds are exact and equal
    # acc * x.  (n > 0 keeps -0.0, whose literal sum is +0.0, on the literal
    # loop.)
    # Head wrap: with an integral wrap and acc < 2**53, wrap is a multiple of
    # acc's ulp (at most 1), so every `acc -= wrap` is exact.  The loop then
    # ends at rem = fmod(acc, wrap) after m = (acc - rem) / wrap subtractions,
    # both exact, except that an exact multiple settles at the bound after
    # m - 1 (the strict > quirk).  `wrap == int(wrap)` also takes an int wrap
    # on Python < 3.12, which has no int.is_integer.  The literal loop stops
    # with ValueError where `acc - wrap` rounds back to acc, which would
    # otherwise repeat forever (1e20 - 360.0 == 1e20).
    # Handoff: let D be the larger of the power-of-two denominators of acc
    # and wrap, so acc = n / D and wrap = W / D with integers n and W.  When
    # 0 < n and x * max(n, W) < 2**53, every later step is exact: each
    # partial sum j * n / D (j <= x) and each difference of the wrap loop is
    # an integer below 2**53 over D, so a float64 (D <= 2**1074), and the
    # step is the integer fold n -> n*x, then n*x % W or W when n*x > W,
    # with the same subtraction count.  Its value lies in [1, W], so the
    # guard holds again at the next step, and _walk_int(x, n, ., ., W, left)
    # walks the rest; n_end / D is the float walk's value.  The guard implies
    # the head's multiplication test, so it is tested inside it.  It also
    # needs x >= 1, a finite tol >= 0 and wrap > 0, and abs(target) <= wrap,
    # which keeps the loops of _hit_interval to a step or two.
    # Exact because of three things:
    # * Hits.  abs(n / D - target) <= tol holds on the integer interval
    #   [lo, hi] of _hit_interval, computed once, which _walk_int takes as
    #   its hit interval.
    # * Cycles.  The float walk tests against its original start.  A handoff
    #   at step 0 starts _walk_int at that start, whose own test is the same.
    #   After a handoff at a later step, the start is never revisited: a
    #   start in (0, wrap] on the grid 1/D would have passed the guard at
    #   step 0 (its own D and W are no larger), and every value after the
    #   handoff lies in (0, wrap].  So _walk_int tests against 0, which no
    #   value in [1, W] equals, and runs out the bound as the float walk does.
    # * Counts.  Each exact step subtracts the integer fold's m[j] times, so
    #   the count from _walk_int's running sum is the float walk's.
    fold_wrap = 0 < wrap < _EXACT_INT and wrap == int(wrap)
    grid = x >= 1 and 0 <= tol < inf and 0 < wrap < inf and abs(target) <= wrap
    if grid:
        wn, wd = wrap.as_integer_ratio()
    first = acc
    subs = 0
    for steps in range(1, max_steps + 1):
        n, d = acc.as_integer_ratio()
        if 0 < n * x < _EXACT_INT:
            if grid:
                D = max(d, wd)
                scaled, W = n * (D // d), wn * (D // wd)
                if x * max(scaled, W) < _EXACT_INT:
                    lo, hi = _hit_interval(target, tol, D, W)
                    n, done, more, reason = _walk_int(
                        x, scaled, lo, hi, W, max_steps - steps + 1, None, None if steps == 1 else 0
                    )
                    return n / D, steps - 1 + done, subs + more, reason
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
                    smaller = acc - wrap
                    if smaller == acc:
                        raise ValueError(f"wrap {wrap} is below half an ulp of the value {acc}")
                    acc = smaller
                    subs += 1
        if abs(acc - target) <= tol:
            return acc, steps, subs, _FOUND
        if acc == first:
            return acc, steps, subs, _CYCLE
    return acc, max_steps, subs, _EXHAUSTED


def _hit_interval(target, tol, D: int, W: int):
    """Ends (lo, hi) of the grid points n in [1, W] that the float walk counts as hits.

    The float test abs(n / D - target) <= tol, for a finite target and
    0 <= tol < inf, holds exactly when the rounded difference
    fl(n / D - target) lies in [-tol, tol].  That difference is
    non-decreasing in n, so the test's lower side holds for every n from
    some lo on, its upper side for every n up to some hi, and the hits are
    [lo, hi], empty when lo > hi.  The exact bounds target -+ tol, scaled to
    the grid in integers, are first guesses that never overshoot: rounding
    is monotone and -tol and tol are floats, so a point within them passes
    both sides.  Rounding can add points just beyond them, and each loop
    extends its end over those by that side of the float test itself.
    """
    t, c = target.as_integer_ratio()
    s, sd = tol.as_integer_ratio()
    if c < sd:  # both powers of two: the larger is the common denominator
        t, c = t * (sd // c), sd
    else:
        s *= c // sd
    lo = -(-(t - s) * D // c)
    hi = (t + s) * D // c
    if lo < 1:
        lo = 1
    if hi > W:
        hi = W
    while lo > 1 and (lo - 1) / D - target >= -tol:
        lo -= 1
    while hi < W and (hi + 1) / D - target <= tol:
        hi += 1
    return lo, hi


def _solve(inst: DlogInstance, walk, start, a, b, wrap) -> SolveReport:
    # (a, b): the hit test.  The first comparison sees x^2; pre-check k=0, 1.
    x, y = inst.x, inst.y
    if y == 1:
        return SolveReport(0, _FOUND, OpCounters(comparisons=1))
    if y == x:
        return SolveReport(1, _FOUND, OpCounters(comparisons=2))
    _, steps, subs, reason = walk(x, start, a, b, wrap, inst.p - 1)
    k = steps + 1 if reason is _FOUND else None
    return SolveReport(k, reason, OpCounters(steps * x, subs, 2 + steps, steps))


def _arc_setup(inst: DlogInstance, mode: NumericMode, tolerance: float | None):
    """Kernel, start, hit test and wrap of a float64 or fixed-point arc solve."""
    p, x, y = inst.p, inst.x, inst.y
    try:  # p as a float: the default (None) tolerance 180/p, and float64's step 360/p
        if tolerance is None:
            tolerance = default_tolerance(mode, p)
        theta = 360.0 / p if mode.kind == "float64" else None
    except (OverflowError, InvalidModulusError):  # inst.p >= 2: past the float range
        raise ValueError(
            f"p must be below 2**1024 - 2**970 for the default tolerance 180/p "
            f"or the float64 step 360/p, got a {p.bit_length()}-bit p"
        ) from None
    if theta is not None:
        return _walk_float, x * theta, y * theta, tolerance, 360.0
    # Fixed point rounds only theta and the tolerance; everything after that
    # is exact integer arithmetic on raw units.  Both round in integers: a
    # float tolerance * scale can overflow, where the tolerance is finite.
    scale = 1 << mode.fractional_bits
    theta_raw = _round_half_even(360 * scale, p)
    n, d = tolerance.as_integer_ratio()
    target, tol = y * theta_raw, _round_half_even(n * scale, d)
    return _walk_int, x * theta_raw, target - tol, target + tol, 360 * scale


def _round_half_even(n: int, d: int) -> int:
    """n / d for d >= 1, rounded to the nearest int, a tie to the even one."""
    q, r = divmod(n, d)
    return q + (2 * r > d or (2 * r == d and q & 1))


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

    ``x`` must be a whole number (what ``operator.index`` takes) of at
    least 1 and ``wrap`` positive, in the state's native units: p for
    integer-field and exact-arc states, 360 << bits for fixed-point states,
    360.0 for float64 states.  An int state needs a whole acc and wrap, a
    float state a finite acc; else ValueError names the field, and
    ``counters`` is untouched.  Runs the solvers' own kernel for one step;
    exactly x additions and that step's subtractions are charged to
    ``counters``.  A float step whose ``acc - wrap`` rounds back to acc
    raises ValueError, as the literal subtraction loop would never end.
    """
    x = _whole(x, "x")
    if x < 1:  # the x-fold addition adds x >= 1 copies
        raise ValueError(f"x must be >= 1, got {x}")
    if not wrap > 0:  # also rejects nan
        raise ValueError(f"wrap must be positive, got {wrap}")
    acc = state.acc
    if isinstance(acc, float):
        if not isfinite(acc):
            raise ValueError(f"acc must be finite, got {acc}")
        walk = _walk_float
    else:
        acc, walk = _whole(acc, "acc of an integer state"), _walk_int
        wrap = _whole(wrap, "wrap of an integer state")
    acc, _, subs, _ = walk(x, acc, 0, 0, wrap, 1)  # one step ignores the hit test
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
    _check_mode(mode)
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
    return _solve(inst, _walk_int, inst.x, inst.y, inst.y, inst.p)


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
    _check_mode(mode)
    tolerance = check_tolerance(tolerance)
    if mode.is_exact:
        # Rational-angle semantics: theta carries numerator 1, so x' = x*theta
        # and y' = y*theta carry numerators x and y, and the 360-degree wrap
        # point is numerator p: the integer field, with no tolerance needed.
        return rotor_solve_int(inst)
    return _solve(inst, *_arc_setup(inst, mode, tolerance))
