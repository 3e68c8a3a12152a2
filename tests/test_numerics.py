"""Numeric modes and tolerances, and the per-mode arithmetic of the rotor kernels.

The strict-> reduction, the tolerance comparison and the projection of the
start state are exercised through the public single-step driver and solver.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcrotor import (
    EXACT,
    FLOAT64_DEGREES,
    DlogInstance,
    InvalidModulusError,
    NumericMode,
    OpCounters,
    RotorState,
    default_tolerance,
    fixed_point,
    initial_projected_state,
    parse_mode,
    rotor_solve_real,
    rotor_step,
)
from arcrotor.numerics import check_tolerance


def wrap_once(value, wrap):
    """One rotor step with x = 1, where the addition is the value itself and only the wrap acts."""
    c = OpCounters()
    state = rotor_step(RotorState(acc=value, target=0, exponent=1), 1, wrap, c)
    return state.acc, c.subtractions


class TestNumericMode:
    def test_fixed_point_bit_bounds(self):
        assert fixed_point(8).fractional_bits == 8
        assert fixed_point(112).fractional_bits == 112
        with pytest.raises(ValueError):
            fixed_point(7)
        with pytest.raises(ValueError):
            fixed_point(113)

    def test_numpy_bits_stored_as_int(self):
        inst = DlogInstance(373, 13, 158)
        for bits in (32, 64):
            mode = fixed_point(np.int64(bits))
            assert mode == fixed_point(bits)
            assert type(mode.fractional_bits) is int
            report = rotor_solve_real(inst, mode)
            assert report == rotor_solve_real(inst, fixed_point(bits))
            assert report.k == 5
            assert type(report.counters.subtractions) is int

    @pytest.mark.parametrize("bits", [32.0, 8.5, None, "32"])
    def test_non_whole_bits_rejected(self, bits):
        with pytest.raises(ValueError, match="^fixed-point fractional bits must be a whole"):
            fixed_point(bits)

    @pytest.mark.parametrize("kind", ["float64", "exact"])
    def test_fractional_bits_outside_fixed_point_rejected(self, kind):
        with pytest.raises(ValueError, match=f"^mode '{kind}' takes no fractional bits"):
            NumericMode(kind, 8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NumericMode("decimal")

    def test_parse_round_trip(self):
        assert parse_mode("exact") is EXACT
        assert parse_mode("float64") is FLOAT64_DEGREES
        assert parse_mode("fixed:16") == fixed_point(16)
        assert str(fixed_point(16)) == "fixed:16"
        with pytest.raises(ValueError):
            parse_mode("fixed:lots")
        with pytest.raises(ValueError):
            parse_mode("quad")

    # int() would read each of these: a sign, spaces, an underscore (as 16)
    # and a full-width digit
    @pytest.mark.parametrize(
        "text",
        ["fixed:+8", "fixed: 8", "fixed:8 ", "fixed:1_6", "fixed:\uff18", "fixed:", "fixed:-8"],
    )
    def test_bit_count_is_plain_ascii_digits(self, text):
        with pytest.raises(ValueError, match="^bad fixed-point bit count in mode"):
            parse_mode(text)

    def test_mode_text_not_a_string_rejected(self):
        # None.startswith raised AttributeError
        with pytest.raises(ValueError, match=r"^unknown numeric mode None \(expected"):
            parse_mode(None)

    def test_default_tolerance(self):
        assert default_tolerance(EXACT, 373) == 0.0
        assert default_tolerance(FLOAT64_DEGREES, 360) == 0.5
        assert default_tolerance(fixed_point(8), 4) == 45.0
        with pytest.raises(InvalidModulusError):
            default_tolerance(FLOAT64_DEGREES, 1)

    @pytest.mark.parametrize("modulus", [7.5, "7"])
    def test_default_tolerance_rejects_a_modulus_that_is_not_whole(self, modulus):
        # 7.5 gave 24.0 and "7" an untyped TypeError
        with pytest.raises(InvalidModulusError, match="^modulus must be a whole number"):
            default_tolerance(FLOAT64_DEGREES, modulus)

    def test_default_tolerance_past_the_float_range(self):
        # 2**1024 - 2**970 is the least int that rounds past the largest
        # float: 180.0 / modulus raised an untyped OverflowError from there on
        edge = 2**1024 - 2**970
        assert default_tolerance(FLOAT64_DEGREES, edge - 1) == 180.0 / (edge - 1) > 0
        assert default_tolerance(EXACT, 10**400) == 0.0
        for mode in (FLOAT64_DEGREES, fixed_point(16)):
            for modulus in (edge, 10**400):
                with pytest.raises(
                    InvalidModulusError, match=r"^modulus must be below 2\*\*1024 - 2\*\*970"
                ):
                    default_tolerance(mode, modulus)

    def test_default_tolerance_takes_a_numpy_int_modulus(self):
        assert default_tolerance(FLOAT64_DEGREES, np.int64(7)) == 180.0 / 7

    def test_default_tolerance_of_a_mode_name_rejected(self):
        # a mode name is not a mode: it raised an untyped AttributeError
        with pytest.raises(ValueError, match="^mode must be a NumericMode, got 'float64'"):
            default_tolerance("float64", 7)


class TestReduceBySubtraction:
    """The strict-`>` wrap, through a one-step ``rotor_step``."""

    def test_two_wraps(self):
        assert wrap_once(730, 360) == (10, 2)

    def test_already_reduced(self):
        assert wrap_once(359, 360) == (359, 0)

    def test_cube_of_appendix_base(self):
        # 13^3 = 2197; 2197 - 5*373 = 332
        assert wrap_once(2197, 373) == (332, 5)

    def test_strict_comparison_keeps_exact_bound(self):
        assert wrap_once(360, 360) == (360, 0)
        assert wrap_once(360.0, 360.0) == (360.0, 0)

    def test_exact_multiple_settles_at_bound_not_zero(self):
        for value, wrap in ((720, 360), (720.0, 360.0)):
            assert wrap_once(value, wrap) == (360, 1)
        for value, wrap in ((1080, 360), (1080.0, 360.0)):
            assert wrap_once(value, wrap) == (360, 2)

    def test_zero_value(self):
        assert wrap_once(0, 360) == (0, 0)

    def test_float_literal_loop(self):
        reduced, subs = wrap_once(730.0, 360.0)
        assert isinstance(reduced, float)
        assert (reduced, subs) == (10.0, 2)

    def test_fixed_point_angle(self):
        # fixed:8 raw units wrap at 360 << 8
        assert wrap_once(730 << 8, 360 << 8) == (10 << 8, 2)

    def test_float64_angle(self):
        reduced, subs = wrap_once(365.5, 360.0)
        assert reduced == pytest.approx(5.5)
        assert subs == 1

    @settings(max_examples=300)
    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_matches_mod_except_exact_multiples(self, value, m):
        reduced, _ = wrap_once(value, m)
        if value % m != 0:
            assert reduced == value % m
        elif value > 0:
            assert reduced == m
        else:
            assert reduced == 0

    @settings(max_examples=300)
    @given(st.integers(1, 10**9), st.integers(1, 10**6))
    def test_subtraction_count_closed_form(self, value, m):
        _, subs = wrap_once(value, m)
        assert subs == ((value - 1) // m if value > m else 0)


class TestInitialProjectedState:
    @pytest.mark.parametrize("p,multiplier", [(360, 1.0), (180, 2.0)])
    def test_round_trip_when_modulus_divides_360(self, p, multiplier):
        # theta = 360/p is exact here, so the float64 projection is too
        for v in range(1, p):
            state = initial_projected_state(DlogInstance(p, v, v), FLOAT64_DEGREES)
            assert state.acc == state.target == v * multiplier


class TestAnglesEqual:
    """Tolerance handling of the approximate modes' hit test."""

    # With p = 360, theta is exactly one degree (256 raw units in fixed:8),
    # so every accumulator value is a whole number of degrees.

    def test_exact_equality(self):
        # 2 + 2 lands exactly on 4 degrees: tolerance 0 is a hit
        assert rotor_solve_real(DlogInstance(360, 2, 4), FLOAT64_DEGREES, 0.0).k == 2

    def test_outside_tolerance(self):
        # 2^2 = 4 sits one degree from 5, and no even power reaches 5 exactly
        inst = DlogInstance(360, 2, 5)
        assert rotor_solve_real(inst, FLOAT64_DEGREES, 0.5).k is None
        assert rotor_solve_real(inst, FLOAT64_DEGREES, 1.0).k == 2

    def test_negative_tolerance(self):
        for bad in (-0.1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="^tolerance"):
                check_tolerance(bad)
        check_tolerance(None)
        check_tolerance(0.0)

    @pytest.mark.parametrize("mode", [FLOAT64_DEGREES, fixed_point(32)])
    def test_whole_tolerances_solve_as_ints(self, mode):
        inst = DlogInstance(373, 13, 158)
        assert rotor_solve_real(inst, mode, np.int64(1)) == rotor_solve_real(inst, mode, 1)
        # past the float range, as wide as 1e300: k = 2 on the first comparison
        inst = DlogInstance(7, 3, 2)
        assert rotor_solve_real(inst, mode, 10**400) == rotor_solve_real(inst, mode, 1e300)
        assert rotor_solve_real(inst, mode, 10**400).k == 2
        # a float64 walk that hands off to the integer fold at step 1
        # (theta = 72.0) scales its hit interval's guesses with that tolerance
        inst = DlogInstance(5, 2, 4)
        assert rotor_solve_real(inst, mode, 10**400) == rotor_solve_real(inst, mode, 1e300)
        assert rotor_solve_real(inst, mode, 10**400).k == 2

    def test_checked_tolerance_types(self):
        # whole numbers stay exact ints at any size; other reals become floats
        cases = [(np.int64(1), 1), (10**400, 10**400)]
        cases += [(t, 0.5) for t in (np.float32(0.5), np.float64(0.5), Fraction(1, 2))]
        for tolerance, checked in cases:
            assert check_tolerance(tolerance) == checked
            assert type(check_tolerance(tolerance)) is type(checked)

    @pytest.mark.parametrize(
        "bad", ["0.5", b"1", 1j, [0.5], -1, np.int64(-1), np.float32(-0.5), Fraction(10**400, 3)],
        ids=["str", "bytes", "complex", "list", "int", "int64", "float32", "huge-fraction"],
    )
    def test_unusable_tolerances_rejected(self, bad):
        with pytest.raises(ValueError, match="^tolerance"):
            check_tolerance(bad)
        with pytest.raises(ValueError, match="^tolerance"):
            rotor_solve_real(DlogInstance(373, 13, 158), FLOAT64_DEGREES, bad)

    def test_fixed_tolerance_in_raw_units(self):
        # 0.999 degrees rounds to 256 raw units, a whole degree, in fixed:8
        inst = DlogInstance(360, 2, 5)
        assert rotor_solve_real(inst, fixed_point(8), 0.999).k == 2
        assert rotor_solve_real(inst, fixed_point(8), 254 / 256).k is None
        assert rotor_solve_real(inst, FLOAT64_DEGREES, 0.999).k is None
