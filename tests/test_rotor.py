"""Rotor solver behaviour: worked trajectories, counters, invariants."""

import json
import random
import sys
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcrotor import (
    EXACT,
    FLOAT64_DEGREES,
    DlogInstance,
    InvalidInstanceError,
    OpCounters,
    RotorState,
    SolveReason,
    SolveReport,
    default_tolerance,
    fixed_point,
    initial_projected_state,
    initial_state,
    naive_solve,
    parse_mode,
    rotor_solve_int,
    rotor_solve_real,
    rotor_step,
)
from arcrotor.bench import _rotor_ks, is_prime
from arcrotor.cli import _solve_payload
from arcrotor.rotor import (
    _BLOCK_HEAD,
    _BLOCK_MIN_STEPS,
    _BLOCK_VALUES,
    _BLOCK_WRAP,
    _CARRIER_MIN_PASS,
    _ORBIT_ROW,
    _arc_setup,
    _hit_interval,
    _orbit_blocks,
    _walk_float,
    _walk_int,
)

APPENDIX = DlogInstance(373, 13, 158)


def _literal_step(acc, x, wrap):
    """The paper's outer step: x-fold repeated addition, then subtract while > wrap."""
    total = 0.0 if isinstance(acc, float) else 0
    for _ in range(x):
        total += acc
    subs = 0
    while total > wrap:
        total -= wrap
        subs += 1
    return total, subs


def _literal_walk(x, first, target, wrap, tol, max_steps, cycle=None):
    """The paper's walk from x^1 = first, step for step: (acc, steps, subtractions, reason).

    A return to ``cycle`` (None: to ``first``) ends the walk with CycleDetected.
    """
    acc = first
    if cycle is None:
        cycle = first
    subs = 0
    for step in range(1, max_steps + 1):
        acc, m = _literal_step(acc, x, wrap)
        subs += m
        if abs(acc - target) <= tol:
            return acc, step, subs, SolveReason.FOUND
        if acc == cycle:
            return acc, step, subs, SolveReason.CYCLE_DETECTED
    return acc, max_steps, subs, SolveReason.EXHAUSTED_ITERATIONS


def _product_walk(x, first, lo, hi, wrap, max_steps, cycle=None, trail=None):
    """``_literal_walk`` with hits on [lo, hi], for x or values too large to step through literally.

    The x-fold addition is one product, and the subtraction loop of a value
    v > wrap runs (v - 1) // wrap times.  A return to ``cycle`` (None: to
    ``first``) ends the walk with CycleDetected.  A list ``trail`` gets each
    value.
    """
    acc = first
    if cycle is None:
        cycle = first
    subs = 0
    for step in range(1, max_steps + 1):
        acc *= x
        if acc > wrap:
            m = (acc - 1) // wrap
            acc -= m * wrap
            subs += m
        if trail is not None:
            trail.append(acc)
        if lo <= acc <= hi:
            return acc, step, subs, SolveReason.FOUND
        if acc == cycle:
            return acc, step, subs, SolveReason.CYCLE_DETECTED
    return acc, max_steps, subs, SolveReason.EXHAUSTED_ITERATIONS


def _root(n, t):
    """The largest r with r**t <= n, for n >= 1."""
    r = round(n ** (1 / t))
    while r**t > n:
        r -= 1
    while (r + 1) ** t <= n:
        r += 1
    return r


def _literal_solve(inst, first, target, wrap, tol):
    """The paper's solve from x^1 = first, loop for loop: (k, reason, counters)."""
    p, x, y = inst.p, inst.x, inst.y
    if y == 1:
        return 0, SolveReason.FOUND, OpCounters(comparisons=1)
    if y == x:
        return 1, SolveReason.FOUND, OpCounters(comparisons=2)
    _, steps, subs, reason = _literal_walk(x, first, target, wrap, tol, p - 1)
    k = steps + 1 if reason is SolveReason.FOUND else None
    return k, reason, OpCounters(steps * x, subs, steps + 2, steps)


def _literal_float64_solve(inst, tolerance):
    """Reference float64 solve, loop for loop: (k, reason, counters)."""
    theta = 360.0 / inst.p
    tol = 180.0 / inst.p if tolerance is None else tolerance
    return _literal_solve(inst, inst.x * theta, inst.y * theta, 360.0, tol)


def _literal_int_solve(inst, mode, tolerance):
    """Reference integer-field (exact mode) or fixed-point solve, loop for loop.

    Fixed point with b fractional bits walks raw units with wrap 360 * 2**b,
    from the documented rule theta_raw = round(360 * 2**b / p), and a
    tolerance rounded to raw units.
    """
    if mode.is_exact:
        return _literal_solve(inst, inst.x, inst.y, inst.p, 0)
    scale = 2**mode.fractional_bits
    theta_raw = round(Fraction(360 * scale, inst.p))
    tol = round((180.0 / inst.p if tolerance is None else tolerance) * scale)
    return _literal_solve(inst, inst.x * theta_raw, inst.y * theta_raw, 360 * scale, tol)


def _bits(value):
    """A float by its exact bits (so -0.0 != 0.0), an int as itself."""
    return value.hex() if isinstance(value, float) else value


class TestInstanceValidation:
    @pytest.mark.parametrize(
        "p,x,y",
        [(1, 1, 1), (5, 0, 3), (5, 5, 3), (5, 7, 3), (5, 4, 0), (5, 4, 5), (5, 4, 9)],
    )
    def test_rejects_out_of_range(self, p, x, y):
        with pytest.raises(InvalidInstanceError):
            DlogInstance(p, x, y)

    def test_composite_modulus_accepted(self):
        DlogInstance(12, 2, 8)

    @pytest.mark.parametrize(
        "p,x,y,field",
        [
            (7.0, 3, 5, "p"),
            (7.5, 3, 5, "p"),
            (7, 3.0, 5, "x"),
            (7, 3, 5.0, "y"),
            # several bad fields: the first in p, x, y order is named
            (7.0, 3.0, 5, "p"),
            (7, 3.0, 5.0, "x"),
        ],
    )
    def test_non_whole_field_rejected(self, p, x, y, field):
        with pytest.raises(InvalidInstanceError, match=f"^{field} must be a whole number"):
            DlogInstance(p, x, y)

    def test_numpy_ints_stored_as_ints(self):
        inst = DlogInstance(np.int64(101), np.int64(3), np.int64(5))
        assert inst == DlogInstance(101, 3, 5)
        assert [type(v) for v in (inst.p, inst.x, inst.y)] == [int, int, int]
        report = rotor_solve_int(inst)
        assert report == rotor_solve_int(DlogInstance(101, 3, 5))
        payload = _solve_payload(report)
        counts = ("k", "additions", "subtractions", "comparisons", "outer_steps")
        assert [type(payload[name]) for name in counts] == [int] * 5
        json.dumps(payload)

    def test_wide_numpy_ints_do_not_overflow(self):
        # x**2 already passes 2**63: a fixed-width fold would wrap around
        # and miss the target
        p, x = 2**33 + 17, 2**32 + 1
        inst = DlogInstance(np.int64(p), np.int64(x), np.int64(pow(x, 3, p)))
        assert [type(v) for v in (inst.p, inst.x, inst.y)] == [int, int, int]
        assert rotor_solve_int(inst).k == 3

    def test_solver_rejects_non_instance(self):
        for solver in (rotor_solve_int, rotor_solve_real):
            with pytest.raises(InvalidInstanceError, match="^expected a DlogInstance, got tuple"):
                solver((373, 13, 158))

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            SolveReport(5, SolveReason.CYCLE_DETECTED, OpCounters(outer_steps=1))
        with pytest.raises(ValueError):
            SolveReport(None, SolveReason.FOUND, OpCounters(outer_steps=1))


class TestRotorSolveReal:
    def test_appendix_fixture_exact(self):
        report = rotor_solve_real(APPENDIX, EXACT)
        assert report.k == 5
        assert report.reason is SolveReason.FOUND

    def test_k_equals_one_precheck(self):
        report = rotor_solve_real(DlogInstance(7, 3, 3), EXACT)
        assert report.k == 1
        assert report.steps == 0
        assert report.counters.additions == 0

    def test_unreachable_target(self):
        # powers of 4 mod 5 are {4, 1}; 3 is unreachable
        report = rotor_solve_real(DlogInstance(5, 4, 3), EXACT)
        assert report.k is None
        assert report.reason in (
            SolveReason.CYCLE_DETECTED,
            SolveReason.EXHAUSTED_ITERATIONS,
        )

    def test_k_equals_zero_precheck(self):
        report = rotor_solve_real(DlogInstance(373, 13, 1), EXACT)
        assert report.k == 0
        assert report.steps == 0

    def test_float64_default_tolerance_solves_fixture(self):
        report = rotor_solve_real(APPENDIX, FLOAT64_DEGREES)
        assert report.k == 5

    def test_p_past_the_float_range_refused(self):
        # float64 needs 360/p and the default tolerance 180/p as floats; from
        # 2**1024 - 2**970 on, p rounds past the largest float, and an untyped
        # OverflowError came before the y = 1 pre-check
        edge = 2**1024 - 2**970
        for p in (edge, 10**400):
            inst = DlogInstance(p, 2, 1)
            cases = [(FLOAT64_DEGREES, None), (FLOAT64_DEGREES, 0.5), (fixed_point(16), None)]
            for mode, tol in cases:
                with pytest.raises(ValueError, match=r"^p must be below 2\*\*1024 - 2\*\*970"):
                    rotor_solve_real(inst, mode, tol)
            with pytest.raises(ValueError, match=r"^p must be below 2\*\*1024 - 2\*\*970"):
                initial_projected_state(inst, FLOAT64_DEGREES)

    def test_p_just_below_the_float_range_and_fixed_tolerances_solve(self):
        below = 2**1024 - 2**970 - 1
        theta = 360.0 / below
        assert initial_projected_state(DlogInstance(below, 3, 2), FLOAT64_DEGREES) == RotorState(
            3 * theta, 2 * theta, 1
        )
        for mode in (FLOAT64_DEGREES, fixed_point(16)):
            assert rotor_solve_real(DlogInstance(below, 2, 1), mode).k == 0
        # fixed point with a given tolerance needs no float of p at any size
        inst = DlogInstance(10**400, 2, 1)
        assert rotor_solve_real(inst, fixed_point(16), 0.5).k == 0
        assert initial_projected_state(inst, fixed_point(16)) == RotorState(0, 0, 1)

    def test_float64_exact_equality_misses(self):
        # tolerance 0 demands bit-identical doubles; the accumulated sums
        # never reproduce the independently computed target exactly here
        report = rotor_solve_real(APPENDIX, FLOAT64_DEGREES, 0.0)
        assert report.k is None
        assert report.steps == 372

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 300), st.data())
    def test_float64_solve_matches_literal_procedure(self, p, data):
        x = data.draw(st.integers(1, p - 1), label="x")
        y = data.draw(st.integers(1, p - 1), label="y")
        tol = data.draw(st.one_of(st.none(), st.just(0.0), st.floats(0.0, 2.0)), label="tol")
        inst = DlogInstance(p, x, y)
        report = rotor_solve_real(inst, FLOAT64_DEGREES, tol)
        assert (report.k, report.reason, report.counters) == _literal_float64_solve(inst, tol)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 300), st.data())
    def test_int_solve_matches_literal_procedure(self, p, data):
        # a whole walk, so the subtraction count the kernel derives once per
        # walk is checked against the literal loops' step-by-step tally
        x = data.draw(st.integers(1, p - 1), label="x")
        y = data.draw(st.integers(1, p - 1), label="y")
        modes = ["exact", "fixed:8", "fixed:16", "fixed:32"]
        mode = parse_mode(data.draw(st.sampled_from(modes), label="mode"))
        tol = data.draw(st.one_of(st.none(), st.just(0.0), st.floats(0.0, 2.0)), label="tol")
        inst = DlogInstance(p, x, y)
        report = rotor_solve_int(inst) if mode.is_exact else rotor_solve_real(inst, mode, tol)
        assert (report.k, report.reason, report.counters) == _literal_int_solve(inst, mode, tol)

    def test_fixed_point_theta_rounding_to_zero(self):
        # 360 * 2**8 / 184327 < 1/2, so theta is 0 raw units and the walk
        # starts at 0 with target 0.  0 is not above the wrap, so the first
        # step must leave it at 0 (a hit), not settle it at the bound.
        report = rotor_solve_real(DlogInstance(184327, 5, 7), fixed_point(8))
        assert (report.k, report.reason) == (2, SolveReason.FOUND)
        assert report.counters == OpCounters(5, 0, 3, 1)

    @pytest.mark.parametrize(
        "p,bits",
        # 360 / t ends in .5 for these t, and so does 360 * 2**b / (t * 2**b)
        [(t << b, b) for t in (16, 48, 80, 144, 240, 720) for b in (8, 9, 32)]
        + [(p, b) for p in (2, 3, 7, 373, 4999, 184327, 2**61 - 1) for b in (8, 9, 32, 40, 112)],
    )
    def test_fixed_point_theta_rounds_half_to_even(self, p, bits):
        _, start, _, _, _ = _arc_setup(DlogInstance(p, 1, 1), fixed_point(bits), 0.0)
        assert start == round(Fraction(360 << bits, p))
        assert type(start) is int

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.floats(0.0, 1e30),
            st.integers(0, 2**20).map(lambda n: n / 2**41),  # ties at 32 bits
        ),
        st.sampled_from([8, 9, 32, 40, 112]),
    )
    def test_fixed_point_tolerance_rounds_half_to_even(self, tol, bits):
        # in integers, as round(tol * 2**bits) wherever that float is finite
        _, _, lo, hi, _ = _arc_setup(DlogInstance(7, 3, 2), fixed_point(bits), tol)
        assert (hi - lo) // 2 == round(tol * 2**bits)
        assert type(hi) is int

    @pytest.mark.parametrize("bits", [32, 112])
    def test_fixed_point_tolerance_past_the_float_range(self, bits):
        # 1e300 * 2**bits overflows a float; the raw tolerance is still
        # exact, and it covers the whole wrap, so the first step is a hit
        inst, mode = DlogInstance(7, 3, 2), fixed_point(bits)
        _, _, lo, hi, _ = _arc_setup(inst, mode, 1e300)
        assert (hi - lo) // 2 == int(1e300) << bits
        report = rotor_solve_real(inst, mode, 1e300)
        assert (report.k, report.reason) == (2, SolveReason.FOUND)
        assert report == rotor_solve_real(inst, mode, 1000.0)

    def test_fixed_point_precision_dependent(self):
        wide = rotor_solve_real(APPENDIX, fixed_point(32))
        assert wide.k == 5
        narrow = rotor_solve_real(APPENDIX, fixed_point(8))
        assert narrow.k != 5  # 8 fractional bits cannot track this trajectory

    def test_negative_tolerance_rejected(self):
        for mode in (EXACT, FLOAT64_DEGREES, fixed_point(8)):
            for bad in (-1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match="tolerance"):
                    rotor_solve_real(APPENDIX, mode, bad)

    def test_mode_type_checked(self):
        with pytest.raises(ValueError):
            rotor_solve_real(APPENDIX, "exact")

    def test_mode_name_rejected_naming_the_field(self):
        # the solve raised "expected a NumericMode", and the projected start
        # an untyped AttributeError; both now say what the sweep config says
        for call in (rotor_solve_real, initial_projected_state):
            with pytest.raises(ValueError, match="^mode must be a NumericMode, got 'float64'"):
                call(APPENDIX, "float64")


class TestRotorSolveInt:
    def test_appendix_fixture(self):
        report = rotor_solve_int(APPENDIX)
        assert report.k == 5

    def test_degenerate_group(self):
        report = rotor_solve_int(DlogInstance(2, 1, 1))
        assert report.k == 0

    def test_powers_of_two_mod_eleven(self):
        # trace 2,4,8,5,10,9,7 -> k=7
        report = rotor_solve_int(DlogInstance(11, 2, 7))
        assert report.k == 7

    def test_counters_on_fixture(self):
        report = rotor_solve_int(APPENDIX)
        assert report.steps == 4
        assert report.counters.additions == 4 * 13
        # per-step wraps: 0, 5, 11, 7
        assert report.counters.subtractions == 23
        assert report.counters.outer_steps == 4


def _largest_primitive_root(p):
    """The largest g < p whose powers give every unit mod the prime p (trial division of p - 1)."""
    factors, n, q = set(), p - 1, 2
    while q * q <= n:
        while n % q == 0:
            factors.add(q)
            n //= q
        q += 1
    factors |= {n} - {1}
    return next(
        g for g in range(p - 1, 0, -1) if all(pow(g, (p - 1) // q, p) != 1 for q in factors)
    )


def _worst_form(p):
    """The costliest solve mod a prime p in closed form: (x, y, k, steps, additions, subtractions).

    x = g, the largest primitive root, and y = g**-1 mod p.  The walk's
    values before its p - 3 steps are x**1 ... x**(p - 3), every unit but 1
    and g**-1; after them x**2 ... x**(p - 2), every unit but 1 and g.  With
    S = p * (p - 1) / 2 the sum of the units, the kernel's identity
    x * (values before) = p * subtractions + (values after) gives the count.
    """
    g = _largest_primitive_root(p)
    g_inv, s = pow(g, -1, p), p * (p - 1) // 2
    subs, rest = divmod(g * (s - 1 - g_inv) - (s - 1 - g), p)
    assert rest == 0
    return g, g_inv, p - 2, p - 3, (p - 3) * g, subs


def _exhaustive_worst(p):
    """(ops, x, y) of the first costliest (x, y) mod p, read off one orbit trail per x.

    A y first reached at step s costs s * x additions plus the subtractions
    of the first s steps, (x * a[j-1] - a[j]) / p each; an unreachable y
    costs the whole walk; y = 1 and y = x cost nothing (the pre-checks).
    """
    worst = (-1, 0, 0)
    for x in range(1, p):
        trail = []
        _, steps, subs, _ = _walk_int(x, x, 1, 0, p, p - 1, trail)
        values = np.array([x, *trail], np.int64)
        subs_after = np.cumsum((x * values[:-1] - values[1:]) // p)
        assert subs_after[-1] == subs
        ops = np.full(p, steps * x + subs, np.int64)
        reached, first = np.unique(values[1:], return_index=True)
        ops[reached] = x * (first + 1) + subs_after[first]
        ops[1] = ops[x] = 0
        y = int(ops[1:].argmax()) + 1
        if ops[y] > worst[0]:
            worst = (int(ops[y]), x, y)
    return worst


class TestWorstCase:
    def test_form_is_the_exhaustive_worst_for_primes_to_500(self):
        # from p = 7 on; at p = 3 and 5 a non-primitive x's full walk costs more
        for p in filter(is_prime, range(7, 501)):
            g, g_inv, _, _, additions, subs = _worst_form(p)
            assert _exhaustive_worst(p) == (additions + subs, g, g_inv), p
        assert _exhaustive_worst(5) == (11, 4, 2)  # 4 has order 2: y = 2 is never reached
        assert _worst_form(5)[4:] == (6, 3)

    @pytest.mark.parametrize("bits", range(7, 27))
    def test_solve_counts_match_the_form(self, bits):
        # at the largest prime below 2**bits; W / (p - 1)**2 reads 1.3851 at
        # p = 127, 1.4996 at 65,521 and 1.5000 from 2**20 on
        p = next(q for q in range(2**bits - 1, 2, -1) if is_prime(q))
        x, y, k, steps, additions, subs = _worst_form(p)
        report = rotor_solve_int(DlogInstance(p, x, y))
        counts = OpCounters(additions, subs, steps + 2, steps)
        assert (report.k, report.reason, report.counters) == (k, SolveReason.FOUND, counts)
        ratio = (additions + subs) / (p - 1) ** 2
        assert 1.385 < ratio < 1.5 and (bits < 20 or ratio > 1.49995)

    def test_worst_solve_at_4999(self):
        assert _worst_form(4999)[:2] == (4990, 3888)
        report = rotor_solve_int(DlogInstance(4999, 4990, 3888))
        assert report.counters.total_arithmetic == 37_393_670


class TestRotorStep:
    def test_square_step_no_wrap(self):
        c = OpCounters()
        state = rotor_step(RotorState(acc=13, target=158, exponent=1), 13, 373, c)
        assert state == RotorState(acc=169, target=158, exponent=2)
        assert c.additions == 13
        assert c.subtractions == 0

    def test_cube_step_wraps_five_times(self):
        # 13 * 169 = 2197 = 5 * 373 + 332
        c = OpCounters()
        state = rotor_step(RotorState(acc=169, target=158, exponent=2), 13, 373, c)
        assert state.acc == 332
        assert c.subtractions == 5

    def test_base_one_is_a_fixed_point(self):
        c = OpCounters()
        state = RotorState(acc=1, target=3, exponent=1)
        for expected_exponent in (2, 3, 4):
            state = rotor_step(state, 1, 7, c)
            assert state.acc == 1
            assert state.exponent == expected_exponent

    @pytest.mark.parametrize("mode_text", ["exact", "fixed:8", "fixed:32", "float64"])
    def test_stepwise_drive_matches_solver(self, mode_text):
        mode = parse_mode(mode_text)
        p, x = APPENDIX.p, APPENDIX.x
        tol = default_tolerance(mode, p)
        if mode.is_exact:
            wrap = p
        elif mode.kind == "float64":
            wrap = 360.0
        else:
            wrap = 360 << mode.fractional_bits
            tol = round(tol * (1 << mode.fractional_bits))
        c = OpCounters(comparisons=2)  # the k=0 and k=1 pre-checks
        state = initial_projected_state(APPENDIX, mode)
        first = state.acc
        k = None
        while state.exponent < p:
            state = rotor_step(state, x, wrap, c)
            c.outer_steps += 1
            c.comparisons += 1
            if abs(state.acc - state.target) <= tol:
                k = state.exponent
                break
            if state.acc == first:
                break
        solver = rotor_solve_real(APPENDIX, mode)
        assert k == solver.k
        assert c == solver.counters

    def test_float64_step_uses_literal_addition(self):
        c = OpCounters()
        state = initial_projected_state(APPENDIX, FLOAT64_DEGREES)
        theta = 360.0 / 373
        assert state.acc == 13 * theta
        state = rotor_step(state, 13, 360.0, c)
        total = 0.0
        for _ in range(13):
            total += 13 * theta
        assert state.acc == total  # below 360, so no wrap
        assert c.additions == 13
        assert c.subtractions == 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_step_matches_literal_procedure(self, data):
        # the fold must equal the paper's procedure in value, bit for bit, and
        # in counts, for every arithmetic family
        if data.draw(st.booleans(), label="float64"):
            x = data.draw(st.integers(1, 3000), label="x")
            wrap = 360.0
            acc = data.draw(
                st.one_of(
                    st.floats(0.0, 360.0, exclude_min=True),  # full mantissa
                    st.integers(0, 40).flatmap(  # short mantissa, as after a wrap
                        lambda k: st.integers(1, 360 << k).map(lambda n: n / 2**k)
                    ),
                ),
                label="acc",
            )
        else:
            x = data.draw(st.integers(1, 400), label="x")
            wrap = data.draw(
                st.one_of(st.integers(2, 10**4), st.integers(8, 40).map(lambda b: 360 << b)),
                label="wrap",
            )
            # a fixed-point start can exceed the wrap (fixed:8, p=1523, x=1522
            # starts at 92842 > 92160), and a hand-built state holds any integer
            acc = data.draw(st.integers(-wrap, 3 * wrap), label="acc")
        total, subs = _literal_step(acc, x, wrap)
        c = OpCounters()
        state = rotor_step(RotorState(acc=acc, target=0, exponent=1), x, wrap, c)
        assert _bits(state.acc) == _bits(total)
        assert c.subtractions == subs
        assert c.additions == x

    @pytest.mark.parametrize(
        "acc,x,wrap",
        [
            (7.3, 5, 0.1),  # non-integral wrap: subtractions can round, so they run literally
            (120.0, 6, 360),  # int wrap; 720 settles at the bound, which must stay a float
            (97.25, 41, 360),  # int wrap, nonzero remainder
            # odd mantissa: 3*acc is a round-half-to-even tie, so the six literal
            # adds end one ulp below 6*acc, and only the literal loop gets that
            (float.fromhex("0x1.0000000000001p+8"), 6, 360.0),
        ],
    )
    def test_float_step_edge_cases_match_literal_loops(self, acc, x, wrap):
        total, subs = _literal_step(acc, x, wrap)
        c = OpCounters()
        state = rotor_step(RotorState(acc=acc, target=0.0, exponent=1), x, wrap, c)
        assert _bits(state.acc) == _bits(total)
        assert (c.additions, c.subtractions) == (x, subs)

    @pytest.mark.parametrize("wrap", [0, -5, 0.0, -1.0, float("nan")])
    def test_non_positive_wrap_rejected(self, wrap):
        # a float wrap takes the float kernel, whose literal subtraction loop
        # never ends at a wrap <= 0
        acc = 10.0 if isinstance(wrap, float) else 10
        c = OpCounters()
        with pytest.raises(ValueError, match="wrap must be positive"):
            rotor_step(RotorState(acc=acc, target=0, exponent=1), 1, wrap, c)
        assert c == OpCounters()

    @pytest.mark.parametrize("x", [0, -3])
    @pytest.mark.parametrize("acc", [10, 10.0])
    def test_x_below_one_rejected(self, x, acc):
        # the x-fold addition adds x >= 1 copies; the literal loop adds none
        # for x < 1, where the kernels would multiply by x
        c = OpCounters()
        with pytest.raises(ValueError, match="x must be >= 1"):
            rotor_step(RotorState(acc=acc, target=0, exponent=1), x, 360, c)
        assert c == OpCounters()

    @pytest.mark.parametrize("x", [2.5, 3.0, "3", None])
    @pytest.mark.parametrize("acc", [5, 5.0])
    def test_non_whole_x_rejected(self, x, acc):
        # the x-fold addition adds a whole number of copies
        c = OpCounters()
        with pytest.raises(ValueError, match="^x must be a whole number"):
            rotor_step(RotorState(acc=acc, target=0, exponent=1), x, 360, c)
        assert c == OpCounters()

    @pytest.mark.parametrize("acc", [5, 5.0])
    def test_numpy_int_x_is_a_whole_number(self, acc):
        want, c = OpCounters(), OpCounters()
        expected = rotor_step(RotorState(acc=acc, target=0, exponent=1), 100, 360, want)
        state = rotor_step(RotorState(acc=acc, target=0, exponent=1), np.int64(100), 360, c)
        assert _bits(state.acc) == _bits(expected.acc) and c == want
        assert type(state.acc) is type(acc) and type(c.additions) is int

    def test_numpy_int_acc_is_a_whole_number(self):
        # x * acc = 2**64 passes int64: the fold must not wrap it to 0
        c = OpCounters()
        state = rotor_step(RotorState(acc=np.int64(2**40), target=0, exponent=1), 2**24, 2**62, c)
        assert state.acc == 2**62 and type(state.acc) is int
        assert c.subtractions == 3 and type(c.subtractions) is int

    @pytest.mark.parametrize("acc", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_acc_rejected(self, acc):
        c = OpCounters()
        with pytest.raises(ValueError, match="^acc must be finite"):
            rotor_step(RotorState(acc=acc, target=0.0, exponent=1), 3, 360.0, c)
        assert c == OpCounters()

    @pytest.mark.parametrize("acc", [200, 5])
    def test_int_state_non_whole_wrap_rejected(self, acc):
        # a float wrap would turn the int state's acc, or only its
        # subtraction count, into floats partway through a walk
        c = OpCounters()
        with pytest.raises(ValueError, match="^wrap of an integer state must be a whole number"):
            rotor_step(RotorState(acc=acc, target=0, exponent=1), 3, 360.0, c)
        assert c == OpCounters()
        state = rotor_step(RotorState(acc=acc, target=0, exponent=1), 3, np.int64(360), c)
        assert state.acc == _literal_step(acc, 3, 360)[0]
        assert type(state.acc) is int and type(c.subtractions) is int

    @pytest.mark.parametrize(
        "acc,x,wrap",
        [
            (1e20, 3, 360.0),  # 3e20 - 360.0 rounds back to 3e20
            # one subtraction rounds to even, 2**53 + 4, which the next
            # subtraction of 1 rounds back to
            (2.0**53 + 6, 1, 1),
        ],
    )
    def test_wrap_below_half_an_ulp_rejected(self, acc, x, wrap):
        # the literal subtraction loop would repeat forever
        with pytest.raises(ValueError, match="wrap"):
            rotor_step(RotorState(acc=acc, target=0.0, exponent=1), x, wrap, OpCounters())

    def test_projected_exact_state(self):
        state = initial_projected_state(APPENDIX, EXACT)
        assert state == RotorState(acc=13, target=158, exponent=1)

    def test_fixed_state_mirrors_solver_init(self):
        mode = fixed_point(8)
        state = initial_projected_state(APPENDIX, mode)
        # theta rounds to the nearest raw unit before scaling by x and y
        theta_raw = round(360 * 256 / 373)
        assert state.acc == 13 * theta_raw
        assert state.target == 158 * theta_raw


class TestOrbit:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_orbit_matches_literal_steps(self, data):
        # a walk with a trail returns what the walk without one returns, which
        # is the product walk's, and the trail is its successive literal
        # add-and-subtract steps, ending at the hit, right after the first
        # return to start, or after max_steps values
        wrap = data.draw(st.integers(2, 300), label="wrap")
        x = data.draw(st.integers(1, wrap - 1), label="x")
        acc = data.draw(st.integers(1, 2 * wrap), label="acc")
        max_steps = data.draw(st.integers(0, 2 * wrap), label="max_steps")
        lo = data.draw(st.integers(0, wrap + 1), label="lo")
        hi = data.draw(st.sampled_from([lo, lo - 1, min(lo + wrap // 4, wrap)]), label="hi")
        trail = []
        got = _walk_int(x, acc, lo, hi, wrap, max_steps, trail)
        plain = _walk_int(x, acc, lo, hi, wrap, max_steps)
        assert got == plain == _product_walk(x, acc, lo, hi, wrap, max_steps)
        assert [type(v) for v in got] == [type(v) for v in plain]
        expected = []
        value = acc
        while len(expected) < max_steps:
            value, _ = _literal_step(value, x, wrap)
            expected.append(value)
            if lo <= value <= hi or value == acc:
                break
        assert trail == expected
        assert all(type(v) is int for v in trail)

    def test_orbit_stops_after_returning_to_start(self):
        # powers of 2 mod 7 from 2: 4, 1, 2, then the walk would repeat
        trail = []
        assert _walk_int(2, 2, 1, 0, 7, 6, trail) == (2, 3, 1, SolveReason.CYCLE_DETECTED)
        assert trail == [4, 1, 2]
        trail = []
        _walk_int(2, 2, 1, 0, 7, 2, trail)
        assert trail == [4, 1]

    def test_orbit_k_matches_solver_small_exhaustive(self):
        # every (p, x, y) with p <= 40, past the p <= 30 range on which
        # verify also runs the solvers per instance
        for p in range(2, 41):
            for x in range(1, p):
                ks = _rotor_ks(p, x)
                for y in range(1, p):
                    assert ks.get(y) == rotor_solve_int(DlogInstance(p, x, y)).k, (p, x, y)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_trail_matches_product_steps_across_the_block_entry(self, data):
        # bounds on both sides of where walks enter blocks, for narrow wraps
        # and for wide ones (float64 carriers in the head): a walk with a
        # trail returns what the walk without one returns, and the trail is
        # the product walk's successive values, each an int
        wide = data.draw(st.booleans(), label="wide")
        if wide:
            wrap = data.draw(st.integers(W30, _BLOCK_WRAP - 1), label="wrap")
        else:
            wrap = data.draw(st.one_of(st.integers(2, 5000), st.integers(2, W30 - 1)), label="wrap")
        edge = _BLOCK_MIN_STEPS
        max_steps = data.draw(st.integers(edge - 200, edge + 1500), label="max_steps")
        x = data.draw(st.one_of(st.integers(1, 20), st.integers(1, wrap - 1)), label="x")
        acc = data.draw(st.integers(1, 2 * wrap), label="acc")
        # a value of the walk past the head, or any value
        on_walk = st.integers(_BLOCK_HEAD + 1, max_steps).map(
            lambda s: _product_walk(x, acc, 1, 0, wrap, s)[0]
        )
        target = data.draw(st.one_of(on_walk, st.integers(0, wrap)), label="target")
        tol = data.draw(st.sampled_from([0, -1, 1, wrap // 2000]), label="tol")
        lo, hi = target - tol, target + tol
        trail = []
        got = _walk_int(x, acc, lo, hi, wrap, max_steps, trail)
        assert got == _walk_int(x, acc, lo, hi, wrap, max_steps)
        assert got == _product_walk(x, acc, lo, hi, wrap, max_steps)
        expected = []
        value = acc
        while len(expected) < max_steps:
            value *= x
            if value > wrap:
                value = value % wrap or wrap
            expected.append(value)
            if lo <= value <= hi or value == acc:
                break
        assert trail == expected
        assert all(type(v) is int for v in trail)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cycle_reference_on_short_periods(self, data):
        # x**t = 1 mod wrap = x**t - 1, so every orbit's period divides t;
        # x = 1 and x = wrap - 1 give periods 1 and 2.  Bounds on both sides
        # of where narrow and wide walks enter blocks.  cycle = 0 matches no
        # value in [1, wrap], so a walk that misses runs out its bound, in
        # blocks past the entry; None is the start; a value of the orbit
        # stops the walk there.  The walk is the product walk's with that
        # reference, and its count is still taken from the start.
        wide = data.draw(st.booleans(), label="wide")
        low, high = (W30, _BLOCK_WRAP) if wide else (2, W30)
        edge = _BLOCK_MIN_STEPS
        family = data.draw(st.sampled_from(["power", "one", "minus one"]), label="family")
        if family == "power":
            t = data.draw(st.integers(2, 12), label="t")
            x = data.draw(st.integers(max(_root(low, t) + 1, 2), _root(high, t)), label="x")
            wrap = x**t - 1
        else:
            wrap = data.draw(st.integers(max(low, 3), high - 1), label="wrap")
            x = 1 if family == "one" else wrap - 1
        acc = data.draw(st.integers(1, 2 * wrap), label="acc")
        max_steps = data.draw(st.integers(edge - 200, edge + 1500), label="max_steps")
        on_walk = st.integers(1, 30).map(lambda s: _product_walk(x, acc, 1, 0, wrap, s, 0)[0])
        cycle = data.draw(
            st.one_of(st.just(0), st.just(None), on_walk, st.integers(-wrap, 2 * wrap)),
            label="cycle",
        )
        lo = data.draw(st.one_of(on_walk, st.integers(0, wrap + 1)), label="lo")
        hi = data.draw(st.sampled_from([lo - 1, lo]), label="hi")
        got = _walk_int(x, acc, lo, hi, wrap, max_steps, None, cycle)
        assert got == _product_walk(x, acc, lo, hi, wrap, max_steps, cycle)
        assert [type(v) for v in got[:3]] == [int, int, int]
        if cycle == 0 and lo > hi:
            assert got[1:4:2] == (max_steps, SolveReason.EXHAUSTED_ITERATIONS)

    def test_orbits_above_the_block_entry_match_a_power_table(self, block_calls, monkeypatch):
        # every p in [1090, 1100], composites included: the orbit walk's
        # bound p - 1 passes _BLOCK_MIN_STEPS, so a walk that passes the head
        # runs in blocks and fills its trail there
        assert 1090 - 1 > _BLOCK_MIN_STEPS
        walks = _record_walks(monkeypatch)
        entered = sum(_check_orbit_window(p, block_calls, walks) for p in range(1090, 1101))
        assert entered == 7463  # of the window's 12,034 walks

    def test_verify_orbits_at_its_guard_run_in_blocks(self, block_calls, monkeypatch):
        # p = 499, below verify's p <= 500 guard: the orbit walk's bound 498
        # passes _BLOCK_MIN_STEPS.  7 generates the units mod 499, so its
        # walk runs 64 steps on the loop and the other 434 in one block call.
        ks = _rotor_ks(499, 7)
        assert len(block_calls) == 1
        assert sorted(ks) == list(range(1, 499))
        walks = _record_walks(monkeypatch)
        assert _check_orbit_window(499, block_calls, walks) == 492  # of 498 walks


def _power_table(p):
    """x**k mod p for x in [1, p) (row x - 1) and k in [1, p] (column k - 1), no rotor code."""
    xs = np.arange(1, p, dtype=np.int64)
    table = np.empty((p, p - 1), np.int64)
    table[0] = xs
    for k in range(1, p):
        table[k] = table[k - 1] * xs % p
    return table.T.copy()


def _record_walks(monkeypatch):
    """The (arguments, return, trail) of each walk that ``bench._rotor_ks`` makes."""
    walks = []

    def recorded(*args):
        got = _walk_int(*args)
        walks.append((args[:6], got, list(args[6])))
        return got

    monkeypatch.setattr("arcrotor.bench._walk_int", recorded)
    return walks


def _check_orbit_window(p, block_calls, walks):
    """Check every orbit of x mod p against ``_power_table``; returns the walks that ran in blocks.

    ``bench._rotor_ks(p, x)`` walks from x^1 = x with no hit.  Its value at
    step s is x**(s + 1) mod p, 0 read as p (the strict > wrap parks it at
    the bound), and it stops at the first return to x or after p - 1
    steps.  Step s subtracts (x * a[s-1] - a[s]) / p times.  The k of each
    y in [1, p) is y's first power, y = 1 at k = 0.
    """
    table = _power_table(p)
    xs = table[:, :1]
    values = np.where(table == 0, p, table)
    subs = np.cumsum((xs * values[:, :-1] - values[:, 1:]) // p, axis=1)  # [x - 1, s - 1]
    back = values[:, 1:] == xs  # [x - 1, s - 1]: back at x at step s
    stops = np.where(back.any(axis=1), back.argmax(axis=1) + 1, p - 1).tolist()
    rows = np.arange(p - 1)
    least = np.full((p - 1, p), -1, np.int64)  # [x - 1, y]: y's first power of x
    for k in range(p, 0, -1):
        least[rows, table[:, k - 1]] = k
    least[:, 1] = 0
    entered = 0
    for x, s in enumerate(stops, 1):
        calls = len(block_calls)
        ks = _rotor_ks(p, x)
        got = np.full(p, -1, np.int64)
        got[list(ks)] = list(ks.values())
        assert np.array_equal(got[1:], least[x - 1, 1:]), (p, x)  # y = 0 is no target
        args, walk, trail = walks.pop()
        assert args == (x, x, 1, 0, p, p - 1)
        cycle = back[x - 1, s - 1]
        reason = SolveReason.CYCLE_DETECTED if cycle else SolveReason.EXHAUSTED_ITERATIONS
        assert walk == (int(values[x - 1, s]), s, int(subs[x - 1, s - 1]), reason), (p, x)
        assert trail == values[x - 1, 1 : s + 1].tolist(), (p, x)
        assert (len(block_calls) > calls) == (s > _BLOCK_HEAD), (p, x)
        entered += s > _BLOCK_HEAD
    return entered


W30 = 2**30  # one CPython int digit: the narrowest wrap carried as float64
E53 = 2**53  # the float64 carrier's exact range


def _checked_walk(x, acc, target, wrap, tol, max_steps):
    """``_walk_int``'s return, checked against the literal walk, value, count and types."""
    got = _walk_int(x, acc, target - tol, target + tol, wrap, max_steps)
    assert got == _literal_walk(x, acc, target, wrap, tol, max_steps)
    assert [type(v) for v in got[:3]] == [int, int, int]
    return got


@pytest.fixture
def float_calls(monkeypatch):
    """What the rotor module converts with float(): the carrier leaves no trace in results."""
    calls = []
    monkeypatch.setattr("arcrotor.rotor.float", lambda v: calls.append(v) or float(v), raising=False)
    return calls


class TestWideWalk:
    # (x, acc, target, wrap, tol, max_steps) on both sides of each guard
    # boundary, and whether the walk runs on float64 carriers there
    @pytest.mark.parametrize(
        "x,acc,target,wrap,tol,max_steps,carried",
        [
            # wrap: one CPython digit
            (3, W30 - 5, 0, W30 - 1, 0, 40, False),
            (3, W30 - 5, 0, W30, 0, 40, True),
            (3, W30 - 5, 7, W30, 2, 40, True),
            # x * wrap: 7 * wrap = 2**53 - 4, then exactly 2**53, then a product
            # past it whose float would round (odd, above 2**53)
            (7, (E53 - 1) // 7 - 1, 0, (E53 - 1) // 7, 0, 1, True),
            (8, 2**50 - 1, 0, 2**50, 0, 1, False),
            (9, 2**50 - 5, 0, 2**50 - 3, 0, 1, False),
            # max_steps * wrap, where a pass of (2**53 - 1) // wrap steps is
            # shorter than 8: 8 * wrap = 2**53 - 8 (one pass), then exactly
            # 2**53, then 9 values of wrap - 2**j whose float running sum
            # would round (passes of 7 steps: ints)
            (2, 2**50 - 2, 0, 2**50 - 1, 0, 8, True),
            (2, 2**50 - 1, 0, 2**50, 0, 8, False),
            (2, 2**50 + 2**20, 0, 2**50 + 2**20 + 1, 0, 9, False),
            (3, 2**50 + 2**20, 0, 2**50 + 2**20 + 1, 0, 9, False),
            # a loop longer than one pass: 255 * 2**45 < 2**53, so 256 steps
            # run in passes of 255 and 1; at 2**47 - 1 in passes of 64, at
            # 2**47 of 63, and at (2**53 - 1) // 8 = 2**50 - 1 of 8; at 2**50
            # a pass would hold 7 steps, too short for a 300-step loop (ints)
            (3, 5, 0, 2**45, 0, 255, True),
            (3, 5, 0, 2**45, 0, 256, True),
            (3, 5, 0, 2**47 - 1, 0, 300, True),
            (3, 5, 0, 2**47, 0, 63, True),
            (3, 5, 0, 2**50 - 1, 0, 300, True),
            (3, 5, 0, 2**50, 0, 300, False),
            # a start below 0 stays on ints; one product past 2**53 would round
            (3, -5, 0, 2**40, 0, 5, False),
            (3, -(2**52 + 1), 0, 2**40, 0, 2, False),
            # a start above the wrap: carried while x * acc < 2**53
            (5, 3 * 2**40 + 7, 0, 2**40, 0, 30, True),
            (9, 2**50 + 1, 0, 2**40, 0, 3, False),
            # target +- tol past 2**53 stays on ints: its float would round
            # target - tol from 2**30 + 2 down to 2**30, a false hit
            (1, W30 + 1, 2**54 + 2, 2**40, 2**54 - W30, 1, False),
            (3, 5, 10**400, 2**40, 0, 3, False),  # float(target) would overflow
        ],
    )
    def test_guard_edges_match_literal_walk(
        self, float_calls, x, acc, target, wrap, tol, max_steps, carried
    ):
        _checked_walk(x, acc, target, wrap, tol, max_steps)
        assert bool(float_calls) is carried

    @pytest.mark.parametrize("wrap,carried", [(10**6 + 3, False), (2**40 + 15, True)])
    def test_point_and_empty_hit_intervals(self, float_calls, wrap, carried):
        # a point interval lo == hi hits on that value; lo > hi never hits,
        # even with both ends on values the walk reaches
        x, acc, max_steps = 3, 5, 60
        miss = _literal_walk(x, acc, -1, wrap, 0, max_steps)
        assert miss[3] is SolveReason.EXHAUSTED_ITERATIONS
        v = _literal_walk(x, acc, -1, wrap, 0, 41)[0]
        hit = _walk_int(x, acc, v, v, wrap, max_steps)
        assert hit == _literal_walk(x, acc, v, wrap, 0, max_steps)
        assert hit[1] == 41 and hit[3] is SolveReason.FOUND
        for lo, hi in ((v + 1, v), (v, v - 1), (wrap, 1)):
            assert _walk_int(x, acc, lo, hi, wrap, max_steps) == miss
        assert bool(float_calls) is carried

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_multi_pass_walks_match_literal_walk(self, data):
        # bounds up to 320 steps run no blocks; a wrap from 2**45 to 2**50 - 1
        # gives passes of (2**53 - 1) // wrap = 255 down to 8 steps, so these
        # walks run on carriers in 2 to 40 passes, each resuming where the
        # last stopped, with the same hit interval and cycle reference.  Most
        # walks of more than two passes sum past 2**53, where one float sum
        # would round.
        chunk = data.draw(st.integers(_CARRIER_MIN_PASS, 255), label="pass")
        wrap = data.draw(st.integers((E53 - 1) // (chunk + 1) + 1, (E53 - 1) // chunk), label="wrap")
        max_steps = data.draw(st.integers(chunk + 1, _BLOCK_MIN_STEPS), label="max_steps")
        x = data.draw(st.integers(2, min(12, chunk)), label="x")  # x * wrap < 2**53
        acc = data.draw(st.integers(1, wrap), label="acc")
        # a value of the walk at any step, or none
        at = st.integers(1, max_steps).map(lambda s: _product_walk(x, acc, 1, 0, wrap, s, 0)[0])
        target = data.draw(st.one_of(at, st.just(-1)), label="target")
        cycle = data.draw(st.one_of(st.none(), at), label="cycle")
        trail = [] if data.draw(st.booleans(), label="trail") else None
        got = _checked_block_walk(x, acc, target, target, wrap, max_steps, trail, cycle)
        assert got == _literal_walk(x, acc, target, wrap, 0, max_steps, cycle)

    def test_long_bound_passes_do_not_nest(self, float_calls):
        # acc = 0 stays 0 and enters no blocks: a bound of 10**6 steps at
        # wrap 2**40 + 15 runs 123 carrier passes of 8,191 steps, in a loop,
        # within 20 frames of the caller
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 20)
        try:
            got = _walk_int(3, 0, 5, 4, 2**40 + 15, 10**6, None, 7)
        finally:
            sys.setrecursionlimit(limit)
        assert got == (0, 10**6, 0, SolveReason.EXHAUSTED_ITERATIONS)
        assert float_calls

    def test_negative_x_stays_on_ints(self):
        # rotor_step rejects x < 1, but the kernel's guard does not rely on
        # it: the fold multiplies by a negative x and never wraps, and the
        # product here has 71 significant bits
        acc, x = 2**30 + 1, -(2**40 + 1)
        got, _, subs, _ = _walk_int(x, acc, 0, 0, 2**40, 1)
        assert got == acc * x
        assert type(got) is int and type(subs) is int

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_wide_walks_match_literal_walk(self, data):
        wrap = data.draw(
            st.one_of(st.integers(W30 - 2**10, 2**51), st.integers(8, 40).map(lambda b: 360 << b)),
            label="wrap",
        )
        x = data.draw(st.integers(1, 12), label="x")
        acc = data.draw(st.integers(-wrap, 3 * wrap), label="acc")
        target = data.draw(st.integers(0, wrap), label="target")
        tol = data.draw(st.one_of(st.just(0), st.integers(0, wrap)), label="tol")
        max_steps = data.draw(st.integers(0, 12), label="max_steps")
        _checked_walk(x, acc, target, wrap, tol, max_steps)

    @pytest.mark.parametrize(
        "inst,carried",
        [
            (APPENDIX, True),
            (DlogInstance(4999, 3, 2), True),
            (DlogInstance(5826, 2, 3), True),
            (DlogInstance(5827, 2, 3), True),
        ],
    )
    def test_fixed32_solve_carrier_has_int_results(self, float_calls, inst, carried):
        # a walk's loop sums at most 320 values in one pass without blocks,
        # and its 64-step head before them, and 320 * 360 * 2**32 < 2**53:
        # every fixed:32 solve with x * wrap < 2**53 runs on float64
        # carriers, also past p = 5826, where (p - 1) * wrap passes 2**53
        mode = fixed_point(32)
        report = rotor_solve_real(inst, mode)
        assert bool(float_calls) is carried
        assert (report.k, report.reason, report.counters) == _literal_int_solve(inst, mode, None)
        c = report.counters
        values = [report.k, c.additions, c.subtractions, c.comparisons, c.outer_steps]
        assert all(type(v) is int for v in values if v is not None), values


@pytest.fixture
def block_calls(monkeypatch):
    """The ``_orbit_blocks`` calls that ``_walk_int`` makes."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _orbit_blocks(*args)

    monkeypatch.setattr("arcrotor.rotor._orbit_blocks", spy)
    return calls


def _checked_block_walk(x, acc, lo, hi, wrap, max_steps, trail=None, cycle=None):
    """``_walk_int``'s return, checked against the product walk, value, counts, types and trail."""
    got = _walk_int(x, acc, lo, hi, wrap, max_steps, trail, cycle)
    expected = None if trail is None else []
    assert got == _product_walk(x, acc, lo, hi, wrap, max_steps, cycle, expected)
    assert [type(v) for v in got] == [int, int, int, SolveReason]
    if trail is not None:
        assert trail == expected
        assert all(type(v) is int for v in trail)
    return got


def _block_walk(data, wraps, low, high, entry, top):
    """Draws a walk past a block entry bound: (x, acc, target, tol, wrap, max_steps, trail, cycle).

    x and acc come from four families: any x (wrap from ``wraps``); x
    sharing a factor f with the wrap; a walk that sits at the wrap from step
    e < 48 on, before the blocks start (f divides x, and acc * x**e is a
    multiple of the wrap f**e * c); a start at a multiple of the wrap with x
    a unit.  The last three reach 0 mod the wrap, so the loop's map of 0 to
    the wrap shows.  Half the draws keep x <= 20, small enough for
    ``_literal_walk``.  The bound lands on the entry bound ``entry`` and the
    first two block edges, or anywhere up to ``top``; the target is a value
    of the walk (near the block edges or anywhere), or any value; tol 0, -1
    and above 0 make point, empty and interval hits; the cycle reference is
    the start (None) or a value on the walk, in [1, wrap] or outside it.
    """
    family = data.draw(st.sampled_from(["any", "shared", "parks", "multiple"]), label="family")
    small = data.draw(st.booleans(), label="x <= 20")
    if family in ("any", "multiple"):
        wrap = data.draw(wraps, label="wrap")
        x = data.draw(st.integers(2, 20 if small else wrap), label="x")
        acc = data.draw(st.integers(1, 3 * wrap), label="acc")
        if family == "multiple":
            while gcd(x, wrap) > 1:
                x //= gcd(x, wrap)
            acc = acc // wrap * wrap or wrap
    elif family == "shared":
        f = data.draw(st.integers(2, 20 if small else 100), label="f")
        wrap = f * data.draw(st.integers(-(-low // f) + 1, (high - 1) // f), label="wrap / f")
        x = f * data.draw(st.integers(1, 20 // f if small else wrap // f - 1), label="x / f")
        acc = data.draw(st.integers(1, 3 * wrap), label="acc")
    else:
        f = data.draw(st.integers(2, 7), label="f")
        e = data.draw(st.integers(1, max(e for e in range(1, 48) if f**e <= high // 2)), label="e")
        wrap = f**e * data.draw(st.integers(-(-low // f**e), (high - 1) // f**e), label="c")
        cofactors = st.integers(1, 20 // f if small else max((wrap - 1) // f, 1))
        x = f * data.draw(cofactors, label="x / f")
        acc = wrap // f**e * data.draw(st.integers(1, 3 * f**e), label="acc / c")
    edges = {entry, entry + 1, entry + 2, BLOCK_1 - 1, BLOCK_1, BLOCK_1 + 1, BLOCK_2, BLOCK_2 + 1}
    edges = sorted(s for s in edges if s >= entry)
    max_steps = data.draw(
        st.one_of(st.sampled_from(edges), st.integers(entry, top)), label="max_steps"
    )
    # a value of the walk past the head, or any value
    at = st.one_of(
        st.sampled_from([_BLOCK_HEAD + 1, BLOCK_1, BLOCK_1 + 1, BLOCK_2]),
        st.integers(_BLOCK_HEAD + 1, max_steps),
    ).filter(lambda s: s <= max_steps)
    on_walk = at.map(lambda s: _product_walk(x, acc, 1, 0, wrap, s, 0)[0])
    target = data.draw(st.one_of(on_walk, st.integers(0, wrap)), label="target")
    tol = data.draw(st.sampled_from([0, -1, 1, wrap // 2000]), label="tol")
    trail = [] if data.draw(st.booleans(), label="trail") else None
    outside = st.sampled_from([0, -wrap, wrap + 1, 2 * wrap])
    cycle = data.draw(
        st.one_of(st.none(), st.one_of(outside, on_walk, st.integers(1, wrap))), label="cycle"
    )
    return x, acc, target, tol, wrap, max_steps, trail, cycle


# the orbit of 3 mod the prime 4999 has all 4998 units: from x^1 = 3, step s
# reaches 3**(s + 1) mod 4999 and no value repeats before step 4998
P, G = 4999, 3
BLOCK_1 = _BLOCK_HEAD + _ORBIT_ROW**2  # the last step of the first block
BLOCK_2 = BLOCK_1 + 2 * _ORBIT_ROW**2  # and of the second, twice as tall


class TestOrbitBlocks:
    # Narrow walks whose bound leaves room for a quarter of a first block
    # run in numpy product tables after the head; each answer must be the
    # loop's.
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_block_walks_match_literal_walk(self, data):
        wraps = st.one_of(st.integers(2, 5000), st.integers(2, W30 - 1))
        walk = _block_walk(data, wraps, 2, W30, _BLOCK_MIN_STEPS, 4000)
        x, acc, target, tol, wrap, max_steps, trail, cycle = walk
        got = _checked_block_walk(x, acc, target - tol, target + tol, wrap, max_steps, trail, cycle)
        if x <= 20:
            assert got == _literal_walk(x, acc, target, wrap, tol, max_steps, cycle)

    @pytest.mark.parametrize(
        "step",
        [_BLOCK_HEAD, _BLOCK_HEAD + 1, _BLOCK_HEAD + 2, BLOCK_1, BLOCK_1 + 1, BLOCK_2, BLOCK_2 + 1],
    )
    def test_hit_at_each_edge(self, block_calls, step):
        v = pow(G, step + 1, P)
        got = _checked_block_walk(G, G, v, v, P, P - 1)
        assert got[1:4:2] == (step, SolveReason.FOUND)
        assert bool(block_calls) is (step > _BLOCK_HEAD)

    def test_smallest_bound_that_enters_blocks(self, block_calls):
        # one block of the steps left after the head
        steps = _BLOCK_MIN_STEPS + 1
        v = pow(G, steps + 1, P)
        assert _checked_block_walk(G, G, v, v, P, steps)[1:4:2] == (steps, SolveReason.FOUND)
        got = _checked_block_walk(G, G, 1, 0, P, steps)
        assert got[0] == v and got[3] is SolveReason.EXHAUSTED_ITERATIONS
        assert len(block_calls) == 2
        _checked_block_walk(G, G, v, v, P, _BLOCK_MIN_STEPS)
        assert len(block_calls) == 2

    def test_return_to_start_in_a_block(self):
        # the last value is the start: a cycle, or a hit when the start is
        # in [lo, hi], since the loop tests the hit first.  Every unit is
        # walked from once and reached once, so the subtractions are
        # (x - 1) * (1 + ... + (P - 1)) / P.
        assert _checked_block_walk(G, G, 1, 0, P, P - 1)[1:] == (
            P - 1,
            (G - 1) * (P - 1) // 2,
            SolveReason.CYCLE_DETECTED,
        )
        assert _checked_block_walk(G, G, G, G, P, P - 1)[1:4:2] == (P - 1, SolveReason.FOUND)

    def test_composite_wrap_parks_at_the_bound(self, block_calls):
        # 6**10 * 5 is a multiple of 3 * 2**10: from step 10 on, the value
        # settles at the bound (the strict > wrap) and every step subtracts
        # x - 1 = 5 times
        wrap = 3 * 2**10
        acc, steps, subs, reason = _checked_block_walk(6, 5, 1, 0, wrap, 1500)
        assert (acc, steps, reason) == (wrap, 1500, SolveReason.EXHAUSTED_ITERATIONS)
        assert block_calls
        assert _literal_walk(6, 5, -1, wrap, 0, 1500) == (acc, steps, subs, reason)

    @pytest.mark.parametrize("x,acc", [(5, W30 - 2), (2**29 + 9, W30 - 5), (W30 - 3, 2**29)])
    def test_products_near_2_to_60(self, x, acc):
        # wrap 2**30 - 1: orders 1650, 330 and 30, so the first two return
        # to start inside a block
        assert _checked_block_walk(x, acc, 1, 0, W30 - 1, 4000)[3] is SolveReason.CYCLE_DETECTED
        target = _product_walk(x, acc, 1, 0, W30 - 1, 200)[0]
        _checked_block_walk(x, acc, target, target, W30 - 1, 4000)

    @pytest.mark.parametrize(
        "lo,hi,step,reason",
        [
            (-(2**70), 2**70, 1, SolveReason.FOUND),
            (-(2**70), 1, P - 2, SolveReason.FOUND),  # 3**(P - 1) = 1
            (P - 1, 2**70, (P - 1) // 2 - 1, SolveReason.FOUND),  # 3**((P - 1) / 2) = -1
            (-(2**70), 0, P - 1, SolveReason.CYCLE_DETECTED),
            (P + 1, 2**70, P - 1, SolveReason.CYCLE_DETECTED),
            (2**70, -(2**70), P - 1, SolveReason.CYCLE_DETECTED),
        ],
    )
    def test_ends_far_outside_the_wrap(self, lo, hi, step, reason):
        assert _checked_block_walk(G, G, lo, hi, P, P - 1)[1:4:2] == (step, reason)

    @pytest.mark.parametrize(
        "x,acc,wrap,max_steps,trail,entered",
        [
            # one bound, 320 steps, for narrow and wide wraps
            (G, G, P, 320, None, False),
            (G, G, P, 321, None, True),
            (G, 7 * P + 2, P, 2000, None, True),  # a start above the wrap
            (G, 2**70, P, 2000, None, True),
            (1, 7 * P + 2, P, 2000, None, True),
            (G, 0, P, 2000, None, False),  # 0 stays 0
            (G, -5, P, 2000, None, False),  # a negative value never wraps
            (-G, G, P, 2000, None, False),
            (0, G, P, 2000, None, False),
            (G, G, P, 2000, [], True),  # a trail takes the walk's own path
            (G, 5, W30 - 1, 2000, None, True),
            (G, 5, W30, 2000, None, True),  # wide: float64 carriers, then blocks
            (G, 5, W30, 320, None, False),
            (G, 5, W30, 321, None, True),
            # up to the int64 sum's wrap
            (G, 5, _BLOCK_WRAP - 1, 2000, None, True),
            (G, 5, _BLOCK_WRAP, 2000, None, False),
        ],
    )
    def test_which_walks_enter_blocks(self, block_calls, x, acc, wrap, max_steps, trail, entered):
        got = _walk_int(x, acc, 1, 0, wrap, max_steps, trail)
        assert got == _product_walk(x, acc, 1, 0, wrap, max_steps)
        assert type(got[0]) is type(got[2]) is int
        assert bool(block_calls) is entered

    def test_long_walk_memory_is_bounded(self, block_calls):
        # 2 has order 1000002 mod the prime 1000003: no return to start, and
        # the walk spans dozens of full blocks
        x, wrap, max_steps = 2, 1_000_003, 10**6
        assert max_steps > 20 * _BLOCK_VALUES
        tracemalloc.start()
        try:
            got = _walk_int(x, x, 1, 0, wrap, max_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == _product_walk(x, x, 1, 0, wrap, max_steps)
        assert block_calls
        assert peak < 2 * 2**20


F32 = 360 << 32  # the fixed:32 wrap, 45 * 2**35


class TestWideBlocks:
    # Wide walks (wraps from 2**30 to below 2**48) with a bound above
    # _BLOCK_MIN_STEPS also run in blocks, whose products can pass
    # 2**63; each answer must be the loop's.
    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_wide_block_walks_match_product_walk(self, data):
        wraps = st.one_of(
            st.integers(W30, _BLOCK_WRAP - 1), st.integers(22, 39).map(lambda b: 360 << b)
        )
        walk = _block_walk(data, wraps, W30, _BLOCK_WRAP, _BLOCK_MIN_STEPS, 3000)
        x, acc, target, tol, wrap, max_steps, trail, cycle = walk
        _checked_block_walk(x, acc, target - tol, target + tol, wrap, max_steps, trail, cycle)

    def test_product_on_a_multiple_of_the_wrap(self, block_calls):
        # 5 * 6**35 is a multiple of F32: the walk parks at the bound in the
        # head, so each block product is F32 * B or 0, a multiple of the
        # wrap.  For B = 6**15 the float quotient is just below B, its floor
        # one low, and the remainder F32 must still read as the bound.
        acc, steps, subs, reason = _checked_block_walk(6, 5, 1, 0, F32, 2000)
        assert (acc, steps, reason) == (F32, 2000, SolveReason.EXHAUSTED_ITERATIONS)
        assert block_calls
        b = 6**15 % F32
        assert int(float(F32) * (b / F32)) == b - 1

    @pytest.mark.parametrize("wrap,x", [(F32, 13), (2**48 - 59, 7)])
    def test_product_one_below_a_multiple_of_the_wrap(self, block_calls, wrap, x):
        # acc = -x**-164 mod wrap reaches wrap - 1 at step 164, entry 100 of
        # the first block: G * B = -1 mod wrap, and the float quotient rounds
        # up to the next integer, so the remainder is -1 before `% wrap`
        step = _BLOCK_HEAD + 100
        acc = -pow(x, -step, wrap) % wrap
        got = _checked_block_walk(x, acc, wrap - 1, wrap - 1, wrap, 2000)
        assert got[1:4:2] == (step, SolveReason.FOUND)
        assert block_calls
        giant = _product_walk(x, acc, 1, 0, wrap, _BLOCK_HEAD)[0] * pow(x, 96, wrap) % wrap
        baby = x**4 % wrap
        assert giant * baby % wrap == wrap - 1
        assert int(float(giant) * (baby / wrap)) == giant * baby // wrap + 1
        _checked_block_walk(x, acc, 1, 0, wrap, 2000)

    @pytest.mark.parametrize("x,acc", [(2**20 + 7, 5), (3, 2**60 + 1)])
    def test_int_head_then_blocks(self, float_calls, block_calls, x, acc):
        # x * wrap or x * acc passes 2**53: no float64 carriers, so the
        # head runs on ints, and the blocks take over from it
        _checked_block_walk(x, acc, 1, 0, F32, 2000)
        assert block_calls and not float_calls

    @pytest.mark.parametrize(
        "bits,low,high,entered",
        [(32, 1090, 1100, 12023), (39, 1096, 1100, 5480)],  # of 12,034 and 5,485 walks
    )
    def test_fixed_point_orbits_match_an_int64_table(self, block_calls, bits, low, high, entered):
        # every x of every p in [low, high], composites included: a walk from
        # x * theta_raw with no hit and the bound p - 1, past _BLOCK_MIN_STEPS,
        # runs in wide blocks once it passes the head
        assert low - 1 > _BLOCK_MIN_STEPS and (360 << bits) < _BLOCK_WRAP
        walks = sum(_check_fixed_window(p, bits, block_calls) for p in range(low, high + 1))
        assert walks == entered

    def test_fixed32_solve_carrier_head_then_blocks(self, float_calls, block_calls):
        # (p - 1) * F32 passes 2**53 from p = 5827 on, but the loop sums only
        # the 64-step head: carriers, then blocks
        inst, mode = DlogInstance(5827, 2, 3), fixed_point(32)
        report = rotor_solve_real(inst, mode)
        assert (report.k, report.reason, report.counters) == _literal_int_solve(inst, mode, None)
        assert report.reason is SolveReason.EXHAUSTED_ITERATIONS
        assert block_calls and float_calls

    @pytest.mark.parametrize("wrap,carried", [(2**47 - 1, True), (2**48 - 1, True)])
    def test_head_carriers_up_to_the_pass_edge(self, float_calls, block_calls, wrap, carried):
        # the 64-step head is one pass while 64 * wrap < 2**53, and two from
        # wrap = 2**47 on; below _BLOCK_WRAP = 2**48 a pass holds at least
        # 32 steps, so every block walk's head runs on carriers
        _checked_block_walk(G, 5, 1, 0, wrap, 2000, [])
        assert block_calls and bool(float_calls) is carried


def _check_fixed_window(p, bits, block_calls):
    """Check every fixed-point orbit mod p against an int64 table; returns the walks in blocks.

    The table needs no rotor code: theta_raw = round(360 * 2**bits / p),
    the start of row x - 1 is x * theta_raw, and step s maps a to
    x * a mod 360 * 2**bits, 0 read as the wrap; every product is below
    2**63.  Step s subtracts (x * a[s-1] - a[s]) / wrap times.  A walk stops
    at its first return to its start or after p - 1 steps.
    """
    wrap = 360 << bits
    xs = np.arange(1, p, dtype=np.int64)
    table = np.empty((p - 1, p), np.int64)
    table[:, 0] = xs * round(Fraction(wrap, p))
    for s in range(1, p):
        step = table[:, s - 1] * xs % wrap
        table[:, s] = np.where(step == 0, wrap, step)
    subs = np.cumsum((xs[:, None] * table[:, :-1] - table[:, 1:]) // wrap, axis=1)
    back = table[:, 1:] == table[:, :1]  # [x - 1, s - 1]: back at the start at step s
    stops = np.where(back.any(axis=1), back.argmax(axis=1) + 1, p - 1).tolist()
    entered = 0
    for x, s in enumerate(stops, 1):
        calls, trail = len(block_calls), []
        got = _walk_int(x, int(table[x - 1, 0]), 1, 0, wrap, p - 1, trail)
        cycle = back[x - 1, s - 1]
        reason = SolveReason.CYCLE_DETECTED if cycle else SolveReason.EXHAUSTED_ITERATIONS
        assert got == (int(table[x - 1, s]), s, int(subs[x - 1, s - 1]), reason), (p, x)
        assert trail == table[x - 1, 1 : s + 1].tolist(), (p, x)
        assert (len(block_calls) > calls) == (s > _BLOCK_HEAD), (p, x)
        entered += s > _BLOCK_HEAD
    return entered


def _float_fold(acc, x):
    """x-fold repeated addition of a float: acc * x where every partial sum is exact, else the loop.

    j * acc is exact for every j <= x when it is for the largest odd j <= x,
    which is x or x - 1; acc * x alone being exact is not enough (x = 8 and
    a full mantissa: 3 * acc rounds).
    """
    exact = Fraction(acc)
    if all(Fraction(float(exact * j)) == exact * j for j in (x - 1, x)):
        return acc * x
    total = 0.0
    for _ in range(x):
        total += acc
    return total


def _reference_float_walk(x, first, target, wrap, tol, max_steps):
    """The literal float walk, exact folds taken as products: (acc, steps, subtractions, reason)."""
    acc = first
    subs = 0
    for step in range(1, max_steps + 1):
        acc = _float_fold(acc, x)
        while acc > wrap:
            acc -= wrap
            subs += 1
        if abs(acc - target) <= tol:
            return acc, step, subs, SolveReason.FOUND
        if acc == first:
            return acc, step, subs, SolveReason.CYCLE_DETECTED
    return acc, max_steps, subs, SolveReason.EXHAUSTED_ITERATIONS


def _checked_float_walk(x, acc, target, wrap, tol, max_steps):
    """``_walk_float``'s return, checked against the reference walk, value bit for bit."""
    got = _walk_float(x, acc, target, tol, wrap, max_steps)
    want = _reference_float_walk(x, acc, target, wrap, tol, max_steps)
    assert (_bits(got[0]), *got[1:]) == (_bits(want[0]), *want[1:])
    return got


def _short_period_wrap(x):
    """x**t - 1 for the largest t with x**(t + 1) <= 2**53: x has order t modulo it."""
    t = 1
    while x ** (t + 2) <= 2**53:
        t += 1
    return x**t - 1


def _is_hit(n, target, tol, D):
    return abs(n / D - target) <= tol


def _check_hit_ends(target, tol, D, W, lo, hi):
    """Brute force of the float hit test around both returned ends."""
    if lo <= hi:
        assert 1 <= lo and hi <= W
        assert _is_hit(lo, target, tol, D) and _is_hit(hi, target, tol, D)
        assert lo == 1 or not _is_hit(lo - 1, target, tol, D)
        assert hi == W or not _is_hit(hi + 1, target, tol, D)
    else:
        # the hits form an interval around target, so an empty one has
        # no hit next to target * D either
        near = round(Fraction(target) * D)
        window = range(max(near - 3, 1), min(near + 3, W) + 1)
        assert not any(_is_hit(n, target, tol, D) for n in window)
        for n in (1, W):
            assert not _is_hit(n, target, tol, D)


class TestFloatHandoff:
    # The float64 walk runs the literal loops until every later step is
    # exact, then hands the rest to the integer kernel on the grid 1/D.

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_walk_matches_literal_reference(self, data):
        wrap = data.draw(st.sampled_from([360.0, 360, 1.0, 0.1]), label="wrap")
        # p = 45 and 90 make theta = 360 / p dyadic (8.0, 4.0): a handoff at step 0
        p = data.draw(st.one_of(st.sampled_from([45, 90]), st.integers(3, 300)), label="p")
        theta = wrap / p
        x = data.draw(st.integers(1, p - 1), label="x")
        start = data.draw(
            st.one_of(
                st.just(x * theta),  # as a solve starts
                st.floats(0.0, float(wrap), exclude_min=True),
                st.floats(float(wrap), 3.0 * wrap, exclude_min=True),  # above the wrap
                st.integers(1, 3 * 2**20).map(lambda n: n * wrap / 2**20),
            ),
            label="start",
        )
        target = data.draw(
            st.one_of(st.integers(1, p - 1).map(lambda y: y * theta), st.floats(-wrap, 2.0 * wrap)),
            label="target",
        )
        tol = data.draw(
            st.one_of(st.just(0), st.just(wrap / 2 / p), st.floats(0.0, 2.0 * wrap / p)),
            label="tol",
        )
        max_steps = data.draw(st.integers(0, p - 1), label="max_steps")
        _checked_float_walk(x, start, target, wrap, tol, max_steps)

    def test_solve_hands_off_after_the_rounding_head(self, monkeypatch):
        # 373/13/158: the first two steps take the literal addition loop
        # (13 * n >= 2**53); the rest of the walk, 370 steps at most, runs on
        # the integer kernel on the grid 1/2**39
        calls = []
        real = _walk_int
        monkeypatch.setattr("arcrotor.rotor._walk_int", lambda *a: calls.append(a) or real(*a))
        report = rotor_solve_real(APPENDIX, FLOAT64_DEGREES)
        assert (report.k, report.reason, report.counters) == _literal_float64_solve(APPENDIX, None)
        assert [(c[0], c[4], c[5]) for c in calls] == [(13, 360 * 2**39, 370)]

    def test_solve_hands_off_to_carriers_in_short_passes(self, monkeypatch, float_calls):
        # 239/7/194 (scan-float64, seed 1) hands off at step 3 to the grid
        # 1/D with W = 360 * D in [2**49, 2**50): a pass holds 11 steps, and
        # the hit at k = 185 comes in the 17th pass on float64 carriers
        calls = []
        real = _walk_int
        monkeypatch.setattr("arcrotor.rotor._walk_int", lambda *a: calls.append(a) or real(*a))
        inst = DlogInstance(239, 7, 194)
        report = rotor_solve_real(inst, FLOAT64_DEGREES)
        assert (report.k, report.reason, report.counters) == _literal_float64_solve(inst, None)
        assert report.k == 185
        ((_, _, _, _, W, left, *_),) = calls
        assert 2**49 <= W < 2**50 and (E53 - 1) // W == 11 and left == 236
        assert float_calls

    def test_fold_of_a_cycle_that_misses_the_start(self):
        # One literal step (2**20 + 1 adds) leaves the walk on the grid
        # 1/2**32, from where the integer walk returns to its own start after
        # 4,096 steps.  The float walk never sees its start 0.9999995 again,
        # so it runs out all 10,000 steps: the literal loops' result.
        x = 2**20 + 1
        got = _walk_float(x, 0.9999995, 0.3, 0.0, 1.0, 10000)
        assert got == (0.807983256643638, 10000, 5242510513, SolveReason.EXHAUSTED_ITERATIONS)
        n = int(_walk_float(x, 0.9999995, 0.3, 0.0, 1.0, 1)[0] * 2**32)
        _, period, _, reason = _walk_int(x, n, -1, -1, 2**32, 10000)
        assert (period, reason) == (4096, SolveReason.CYCLE_DETECTED)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_later_handoff_to_a_tail_that_returns_to_its_own_start(self, data):
        # x**t = 1 mod the integral wrap x**t - 1, and x * wrap < 2**53.  A
        # start in [2**52 / x, 2**53 / x) off the integers rounds onto them
        # in the first step's additions, so the walk hands off at step 2 to
        # an integer tail whose orbit returns to the tail's start within t
        # steps; from x = 32 on the wrap is below 2**48 and a tail past 320
        # steps runs in blocks.  The float walk's own start is never
        # revisited: unless it hits, it runs out its bound.
        x = data.draw(st.integers(2, 100), label="x")
        wrap = float(_short_period_wrap(x))
        start = data.draw(
            st.floats(2**52 / x, 2**53 / x, exclude_max=True).filter(lambda s: s != int(s)),
            label="start",
        )
        on_walk = st.integers(1, 60).map(
            lambda s: _reference_float_walk(x, start, -1.0, wrap, 0.0, s)[0]
        )
        target = data.draw(st.one_of(on_walk, st.floats(-wrap, wrap)), label="target")
        tol = data.draw(st.sampled_from([0.0, 0.5, 1e3]), label="tol")
        max_steps = data.draw(st.integers(0, 600), label="max_steps")
        _checked_float_walk(x, start, target, wrap, tol, max_steps)

    @pytest.mark.parametrize(
        "x,start,wrap,max_steps",
        [
            (2, 2.0**51 + 0.5, 2.0**52 - 1, 300),  # period 52
            (10, 2.0**52 / 10 + 0.125, 1e14 - 1, 400),  # period 14
            (97, 2.0**53 / 97 - 0.25, 97.0**6 - 1, 2000),  # period 6, in blocks
            # x = 1, and the start is too fine for a handoff on the grid of
            # the wrap 0.1 until the subtraction loop brings it below 0.25
            (1, 0.25, 0.1, 1200),
        ],
    )
    def test_tail_that_cycles_runs_out_the_bound(self, monkeypatch, x, start, wrap, max_steps):
        calls = []
        monkeypatch.setattr("arcrotor.rotor._walk_int", lambda *a: calls.append(a) or _walk_int(*a))
        got = _checked_float_walk(x, start, -wrap / 2, wrap, 0.0, max_steps)
        assert got[1:4:2] == (max_steps, SolveReason.EXHAUSTED_ITERATIONS)
        ((_, n, _, _, W, left, *_),) = calls
        assert left == max_steps - 1  # handed off at step 2
        _, period, _, reason = _walk_int(x, n, 1, 0, W, left)
        assert reason is SolveReason.CYCLE_DETECTED and period < left

    @pytest.mark.parametrize(
        "x,acc,target,wrap,tol,max_steps",
        [
            # above the wrap: on the grid 1/2**40, 21 * n >= 2**53 though
            # 21 * W < 2**53, and the first step's adds round
            (21, 718.6110127016118, 123.05177567683342, 360.0, 0, 1),
            # above a wrap whose grid is finer than the start's: on the grid
            # 1/2**55 of 0.1, 0.25 is n = 2**53, 2 * n >= 2**53 though
            # 2 * W < 2**53, and the subtractions of 0.1 round
            (2, 0.25, 0.05, 0.1, 0, 5),
            # x = 1 and W >= 2**52: the hits are W - 1 and W, and (W - 1 + W) / 2
            # would round to W, dropping the hit at the start
            (1, 360.0 - 2**-44, 360.0, 360.0, 2**-44, 1),
            # a start on the grid from step 0 (theta = 8.0), cycle at step 6
            (2, 8.0, 7.0, 360.0, 0.0, 44),
        ],
    )
    def test_guard_edges_match_literal_reference(self, x, acc, target, wrap, tol, max_steps):
        _checked_float_walk(x, acc, target, wrap, tol, max_steps)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_hit_interval_matches_full_scan(self, data):
        # small grids, every point tested; any finite target, any tol >= 0
        wrap = data.draw(st.sampled_from([360.0, 1.0]), label="wrap")
        D = 2 ** data.draw(st.integers(0, 3 if wrap == 360.0 else 11), label="log2 D")
        W = int(wrap * D)
        target = data.draw(st.floats(-2.0 * wrap, 4.0 * wrap), label="target")
        tol = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0 * wrap)), label="tol")
        hits = [n for n in range(1, W + 1) if _is_hit(n, target, tol, D)]
        lo, hi = _hit_interval(target, tol, D, W)
        assert [n for n in range(1, W + 1) if lo <= n <= hi] == hits

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_hit_interval_ends_on_walk_grids(self, data):
        # grids as fine as a handoff allows (W < 2**53), both ends checked
        wrap = data.draw(st.sampled_from([360.0, 1.0, 0.1]), label="wrap")
        wn, wd = wrap.as_integer_ratio()
        D = max(wd, 2 ** data.draw(st.integers(0, 52), label="log2 D"))
        W = wn * (D // wd)
        assume(W < 2**53)
        p = data.draw(st.integers(3, 5000), label="p")
        target = data.draw(
            st.one_of(st.integers(1, p - 1).map(lambda y: y * (wrap / p)), st.floats(-wrap, wrap)),
            label="target",
        )
        tol = data.draw(
            st.one_of(st.just(0.0), st.just(wrap / 2 / p), st.floats(0.0, 2.0 * wrap)), label="tol"
        )
        lo, hi = _hit_interval(target, tol, D, W)
        _check_hit_ends(target, tol, D, W, lo, hi)

    @pytest.mark.parametrize(
        "target,tol",
        [
            # n / D - target rounds up onto -tol just below the bound target - tol
            # (a target above the wrap, which the walk never passes on)
            (1310.770256126172, 1256.0092454291148),
            # n / D - target rounds down onto tol just above the bound target + tol
            (64.80564473678768, 267.6755841615284),
        ],
    )
    def test_hit_interval_extends_past_the_exact_bounds(self, target, tol):
        D = 2**43
        W = 360 * D
        lo, hi = _hit_interval(target, tol, D, W)
        _check_hit_ends(target, tol, D, W, lo, hi)
        bounds = Fraction(target) - Fraction(tol), Fraction(target) + Fraction(tol)
        past = [n for n in (lo, hi) if not bounds[0] <= Fraction(n, D) <= bounds[1]]
        assert len(past) == 1  # one end lies past its exact bound

    def test_hit_interval_past_the_float_range(self):
        # a whole-number tol past the float range hits every point
        assert _hit_interval(288.0, 10**400, 1, 360) == (1, 360)
        assert _hit_interval(-360.0, 10**400, 2**44, 360 * 2**44) == (1, 360 * 2**44)
        # on a subnormal grid D = 2**1074 passes the float range: the hits
        # of 2**-1073 +- 2**-1074 are n = 1, 2, 3
        assert _hit_interval(2**-1073, 2**-1074, 2**1074, 5) == (1, 3)
        assert _hit_interval(2**-1073, 0.0, 2**1074, 5) == (2, 2)

    @pytest.mark.parametrize(
        "x,acc,target,wrap,tol,max_steps",
        [
            # a whole-number tol past the float range, handed off at step 1
            (2, 72.0, 288.0, 360.0, 10**400, 3),
            # subnormal grids (D = 2**1074): a cycle at step 1, a hit at step 3
            (1, 2**-1074, 0.0, 3 * 2**-1074, 0.0, 5),
            (3, 2**-1074, 2**-1073, 5 * 2**-1074, 0.0, 5),
        ],
        ids=["whole-tol", "subnormal-cycle", "subnormal-hit"],
    )
    def test_handoff_past_the_float_range_matches_literal_reference(
        self, x, acc, target, wrap, tol, max_steps
    ):
        _checked_float_walk(x, acc, target, wrap, tol, max_steps)


class TestInvariants:
    def test_oracle_equivalence_small_exhaustive(self):
        for p in range(2, 61):
            for x in range(1, p):
                for y in range(1, p):
                    inst = DlogInstance(p, x, y)
                    assert rotor_solve_int(inst).k == naive_solve(inst), (p, x, y)

    def test_mode_agreement_small_exhaustive(self):
        for p in range(2, 61):
            for x in range(1, p):
                for y in range(1, p):
                    inst = DlogInstance(p, x, y)
                    a = rotor_solve_int(inst)
                    b = rotor_solve_real(inst, EXACT)
                    assert a.k == b.k
                    assert a.counters.additions == b.counters.additions
                    assert a.counters.outer_steps == b.counters.outer_steps

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 3000), st.data())
    def test_exact_addition_count(self, p, data):
        x = data.draw(st.integers(1, p - 1))
        y = data.draw(st.integers(1, p - 1))
        report = rotor_solve_int(DlogInstance(p, x, y))
        assert report.counters.additions == report.counters.outer_steps * x
        assert report.steps == report.counters.outer_steps

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 1000), st.data())
    def test_termination_bound(self, p, data):
        x = data.draw(st.integers(1, p - 1))
        y = data.draw(st.integers(1, p - 1))
        report = rotor_solve_int(DlogInstance(p, x, y))
        assert report.steps <= p - 1

    def test_cycle_fires_on_first_revisit(self):
        # orbit of 4 mod 5 has order 2: cycle detected at step 2
        report = rotor_solve_int(DlogInstance(5, 4, 3))
        assert report.reason is SolveReason.CYCLE_DETECTED
        assert report.steps == 2

    def test_loop_invariant_accumulator_tracks_powers(self):
        rng = random.Random(171)
        for _ in range(50):
            p = rng.randrange(3, 300)
            x = rng.randrange(1, p)
            y = rng.randrange(1, p)
            state = initial_state(DlogInstance(p, x, y))
            c = OpCounters()
            prev_acc = state.acc
            prev_subs = 0
            for _ in range(min(p - 1, 40)):
                state = rotor_step(state, x, p, c)
                # acc stays in [1, p] and congruent to x^exponent
                assert 1 <= state.acc <= p
                assert state.acc % p == pow(x, state.exponent, p)
                # this step's wrap count follows the strict-> closed form
                s = prev_acc * x
                assert c.subtractions - prev_subs == ((s - 1) // p if s > p else 0)
                prev_subs = c.subtractions
                prev_acc = state.acc

    def test_found_k_is_least_for_reachable_targets(self):
        rng = random.Random(99)
        for _ in range(200):
            p = rng.randrange(3, 500)
            x = rng.randrange(1, p)
            k = rng.randrange(0, p)
            y = pow(x, k, p)
            if y == 0:
                continue
            report = rotor_solve_int(DlogInstance(p, x, y))
            assert report.k == naive_solve(DlogInstance(p, x, y))

    def test_strict_wrap_quirk_keeps_solver_correct(self):
        # x^2 = 0 mod 4: the accumulator parks at the wrap bound and the
        # solve still terminates with no solution for any valid target
        for y in (2, 3):
            report = rotor_solve_int(DlogInstance(4, 2, y))
            if y == 2:
                assert report.k == 1
            else:
                assert report.k is None
                assert report.reason is SolveReason.EXHAUSTED_ITERATIONS
