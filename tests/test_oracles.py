"""Oracle solvers: modular exponentiation, brute-force scan, BSGS, orders."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcrotor import (
    DlogInstance,
    NotAUnitError,
    bsgs_solve,
    modpow,
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


class TestModpow:
    def test_appendix_power(self):
        assert modpow(13, 5, 373) == 158

    def test_zero_exponent_is_one(self):
        for x, p in [(13, 373), (2, 2), (7, 11), (0, 5)]:
            assert modpow(x, 0, p) == 1

    def test_power_below_modulus(self):
        assert modpow(2, 10, 1025) == 1024

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            modpow(2, -1, 5)
        with pytest.raises(ValueError):
            modpow(2, 3, 1)

    @settings(max_examples=300)
    @given(st.integers(0, 10**9), st.integers(0, 10**4), st.integers(2, 10**9))
    def test_matches_builtin_pow(self, x, k, p):
        assert modpow(x, k, p) == pow(x, k, p)


class TestNaiveSolve:
    def test_appendix_fixture(self):
        assert naive_solve(DlogInstance(373, 13, 158)) == 5

    def test_small_scan(self):
        # 3^1..3^4 mod 7: 3, 2, 6, 4
        assert naive_solve(DlogInstance(7, 3, 4)) == 4

    def test_unreachable(self):
        assert naive_solve(DlogInstance(5, 4, 3)) is None

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
            assert modpow(x, k, p) == y


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

    def test_not_a_unit(self):
        with pytest.raises(NotAUnitError):
            multiplicative_order(6, 9)
        with pytest.raises(NotAUnitError):
            multiplicative_order(5, 5)

    def test_order_is_least(self):
        for p in (7, 31, 97, 360):
            for x in range(1, p):
                if gcd(x, p) != 1:
                    continue
                t = multiplicative_order(x, p)
                assert modpow(x, t, p) == 1
                # scan confirms minimality
                acc = 1
                for j in range(1, t):
                    acc = acc * x % p
                    assert acc != 1, (x, p, j)
