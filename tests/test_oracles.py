"""Oracle solvers: brute-force scan, BSGS, orders."""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcrotor import (
    DlogInstance,
    NotAUnitError,
    bsgs_solve,
    multiplicative_order,
    naive_solve,
)


def brute_least_k_table(p, x):
    """Independent enumeration: first exponent reaching each residue."""
    table = {}
    acc = 1
    for k in range(p):
        table.setdefault(acc, k)
        acc = acc * x % p
    return table


class TestNaiveSolve:
    def test_appendix_fixture(self):
        assert naive_solve(DlogInstance(373, 13, 158)) == 5

    def test_small_scan(self):
        # 3^1..3^4 mod 7: 3, 2, 6, 4
        assert naive_solve(DlogInstance(7, 3, 4)) == 4

    def test_unreachable(self):
        assert naive_solve(DlogInstance(5, 4, 3)) is None

    def test_nilpotent_base_stops_at_zero(self):
        # 2**40 = 0 (mod 2**40), and 0 is absorbing and never a target: the
        # scan stops there after 40 steps instead of walking 2**40 exponents
        p = 2**40
        assert naive_solve(DlogInstance(p, 2, 3)) is None
        assert bsgs_solve(DlogInstance(p, 2, 3)) is None  # the non-unit fallback
        assert naive_solve(DlogInstance(p, 2, 2**39)) == 39
        assert bsgs_solve(DlogInstance(p, 2, 2**39)) == 39

    def test_least_k_exhaustive_small(self):
        for p in range(2, 101):
            for x in range(1, p):
                table = brute_least_k_table(p, x)
                for y in range(1, p):
                    assert naive_solve(DlogInstance(p, x, y)) == table.get(y), (p, x, y)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 2000), st.data())
    def test_round_trip(self, p, data):
        x = data.draw(st.integers(1, p - 1))
        y = data.draw(st.integers(1, p - 1))
        k = naive_solve(DlogInstance(p, x, y))
        if k is not None:
            assert pow(x, k, p) == y


class TestBsgsSolve:
    def test_appendix_fixture(self):
        assert bsgs_solve(DlogInstance(373, 13, 158)) == 5

    def test_powers_of_two(self):
        assert bsgs_solve(DlogInstance(11, 2, 7)) == 7

    def test_trivial_subgroup(self):
        assert bsgs_solve(DlogInstance(101, 1, 1)) == 0

    def test_non_unit_falls_back_to_naive(self):
        # gcd(2, 12) = 2; 2^3 = 8
        assert bsgs_solve(DlogInstance(12, 2, 8)) == 3
        assert bsgs_solve(DlogInstance(12, 2, 7)) is None

    def test_agreement_exhaustive_small(self):
        for p in range(2, 61):
            for x in range(1, p):
                for y in range(1, p):
                    inst = DlogInstance(p, x, y)
                    assert bsgs_solve(inst) == naive_solve(inst), (p, x, y)

    def test_searches_to_p_without_the_order(self, monkeypatch):
        # 13 has order 62 mod 373, so most targets are unreachable; the
        # search runs to bound p and needs no order to find that
        monkeypatch.setattr("arcrotor.oracles.multiplicative_order", None)
        for y in range(1, 373):
            inst = DlogInstance(373, 13, y)
            assert bsgs_solve(inst) == naive_solve(inst), y

    @pytest.mark.parametrize("order", [2, 3])
    def test_orbit_closing_in_the_baby_steps(self, order):
        # p - 1 has order 2 and 499,501 order 3 mod the prime 1,000,003; both
        # orbits close within the 1,001 baby steps, and a y outside them has
        # no k
        p = 1_000_003
        x = p - 1 if order == 2 else 499_501
        orbit = [pow(x, k, p) for k in range(order)]
        assert len(set(orbit)) == order and pow(x, order, p) == 1
        for k, y in enumerate(orbit):
            inst = DlogInstance(p, x, y)
            assert bsgs_solve(inst) == naive_solve(inst) == k
        inst = DlogInstance(p, x, 2)
        assert bsgs_solve(inst) is naive_solve(inst) is None

    @pytest.mark.parametrize("p", [2**44 + 1, 2**61 - 1])
    def test_table_bound(self, p):
        # ceil(sqrt(p)) baby steps would pass 2**22 entries: refused before
        # the table is built, for the order too
        with pytest.raises(ValueError, match=rf"^p must be at most 2\*\*44 .*got p={p}$"):
            bsgs_solve(DlogInstance(p, p - 1, 1))
        with pytest.raises(ValueError, match="^p must be at most 2"):
            multiplicative_order(3, p)

    def test_non_unit_past_the_table_bound_scans(self):
        # gcd(2, 2**50) = 2: the naive fallback needs no table
        p = 2**50
        assert bsgs_solve(DlogInstance(p, 2, 2**10)) == 10
        assert bsgs_solve(DlogInstance(p, 2, 3)) is None

    @pytest.mark.parametrize("p", [2**44, 2**44 - 17])
    def test_order_two_at_the_table_bound(self, p):
        # 2**44 - 17 is the largest prime below 2**44.  x = p - 1 has order
        # 2, so its orbit closes after two baby steps of the 2**22
        x = p - 1
        assert bsgs_solve(DlogInstance(p, x, 1)) == 0
        assert bsgs_solve(DlogInstance(p, x, p - 1)) == 1
        assert bsgs_solve(DlogInstance(p, x, 2)) is None
        assert multiplicative_order(x, p) == 2

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 3000), st.data())
    def test_agreement_random_larger(self, p, data):
        x = data.draw(st.integers(1, p - 1))
        y = data.draw(st.integers(1, p - 1))
        inst = DlogInstance(p, x, y)
        assert bsgs_solve(inst) == naive_solve(inst)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(4, 5) == 2
        for p in (2, 3, 7, 101, 360):
            assert multiplicative_order(1, p) == 1
        # computed by scan and frozen; divides the group order 372
        assert multiplicative_order(13, 373) == 62
        assert 372 % 62 == 0

    @pytest.mark.parametrize("p", [1, 0, -7])
    def test_modulus_below_two_rejected(self, p):
        with pytest.raises(ValueError, match=f"^modulus must be >= 2, got {p}"):
            multiplicative_order(1, p)

    def test_not_a_unit(self):
        for p in range(2, 121):
            for x in range(3 * p):
                if gcd(x, p) != 1:
                    with pytest.raises(NotAUnitError):
                        multiplicative_order(x, p)

    def test_numpy_ints_taken_as_ints(self):
        got = multiplicative_order(np.int64(13), np.int64(373))
        assert type(got) is int and got == 62
        assert multiplicative_order(3, np.int64(7)) == multiplicative_order(np.int32(3), 7) == 6

    @pytest.mark.parametrize("args,name", [((3.0, 7), "x"), ((3, 7.0), "modulus")])
    def test_non_whole_arguments_rejected(self, args, name):
        with pytest.raises(ValueError, match=rf"^{name} must be a whole number"):
            multiplicative_order(*args)

    def test_order_is_least(self):
        for p in (*range(2, 121), 360):
            for x in range(1, p):
                if gcd(x, p) != 1:
                    continue
                t = multiplicative_order(x, p)
                assert pow(x, t, p) == 1
                # scan confirms minimality
                acc = 1
                for j in range(1, t):
                    acc = acc * x % p
                    assert acc != 1, (x, p, j)
