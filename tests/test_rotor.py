"""Rotor solver behaviour: worked trajectories, counters, invariants."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
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
    modpow,
    naive_solve,
    parse_mode,
    rotor_solve_int,
    rotor_solve_real,
    rotor_step,
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


def _literal_float64_solve(inst, tolerance):
    """Reference float64 solve, loop for loop: (k, reason, counters)."""
    p, x, y = inst.p, inst.x, inst.y
    if y == 1:
        return 0, SolveReason.FOUND, OpCounters(comparisons=1)
    if y == x:
        return 1, SolveReason.FOUND, OpCounters(comparisons=2)
    theta = 360.0 / p
    first = acc = x * theta
    target = y * theta
    tol = 180.0 / p if tolerance is None else tolerance
    subs = 0
    for step in range(1, p):
        acc, m = _literal_step(acc, x, 360.0)
        subs += m
        if abs(acc - target) <= tol:
            return step + 1, SolveReason.FOUND, OpCounters(step * x, subs, step + 2, step)
        if acc == first:
            return None, SolveReason.CYCLE_DETECTED, OpCounters(step * x, subs, step + 2, step)
    return None, SolveReason.EXHAUSTED_ITERATIONS, OpCounters((p - 1) * x, subs, p + 1, p - 1)


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

    def test_solver_rejects_non_instance(self):
        with pytest.raises(InvalidInstanceError):
            rotor_solve_int((373, 13, 158))

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
            acc = data.draw(st.integers(0, wrap), label="acc")  # its range in a solve
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
                assert state.acc % p == modpow(x, state.exponent, p)
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
            y = modpow(x, k, p)
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
