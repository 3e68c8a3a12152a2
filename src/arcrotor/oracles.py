"""Independent ground-truth solvers for validating the rotor implementations.

Both oracles work with one modular multiply per step (the built-in
three-argument ``pow`` for exponentiation), deliberately sharing no code
path with the rotor solvers' repeated-addition arithmetic.  ``naive_solve`` scans successive
powers; ``bsgs_solve`` is the standard meet-in-the-middle solver.  Both
return the least exponent, with k = 0 answering y = 1.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .rotor import DlogInstance

# Orders are computed via factorisation only at desk scale; beyond this the
# baby-step table falls back to the ceil(sqrt(p)) bound.
_ORDER_CHEAP_BOUND = 1_000_000


class NotAUnitError(ValueError):
    """Raised when an order is requested for x with gcd(x, p) != 1."""


def modpow(x: int, k: int, p: int) -> int:
    """x**k mod p for a modulus p >= 2 and an exponent k >= 0."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if k < 0:
        raise ValueError(f"exponent must be non-negative, got {k}")
    return pow(x, k, p)


def naive_solve(inst: DlogInstance) -> int | None:
    """Least k with x^k = y (mod p) by brute-force scan, or None.

    Scans k = 0, 1, 2, ... with one modular multiply per step.  Stops early
    once the power returns to 1 (the orbit has closed), and in any case
    after p exponents: every reachable value appears before the first
    repeat, which occurs within p steps.
    """
    p, x, y = inst.p, inst.x, inst.y
    acc = 1
    for k in range(p):
        if acc == y:
            return k
        acc = acc * x % p
        if acc == 1:
            return None
    return None


@lru_cache(maxsize=65536)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorisation by trial division; fine for desk-scale inputs."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def _euler_phi(n: int) -> int:
    phi = 1
    for q, e in _factorize(n):
        phi *= q ** (e - 1) * (q - 1)
    return phi


@lru_cache(maxsize=65536)
def multiplicative_order(x: int, p: int) -> int:
    """Least t >= 1 with x^t = 1 (mod p); requires gcd(x, p) = 1.

    Starts from Euler's phi(p), which the order divides, and strips prime
    factors while the corresponding power still fixes 1.
    """
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    x %= p
    if gcd(x, p) != 1:
        raise NotAUnitError(f"{x} is not a unit mod {p} (gcd != 1)")
    t = _euler_phi(p)
    for q, _ in _factorize(t):
        while t % q == 0 and pow(x, t // q, p) == 1:
            t //= q
    return t


@lru_cache(maxsize=4096)
def _baby_table(p: int, x: int, m: int) -> dict[int, int]:
    # value -> least baby-step index j in [0, m); first write wins.
    table: dict[int, int] = {}
    acc = 1
    for j in range(m):
        if acc not in table:
            table[acc] = j
        acc = acc * x % p
    return table


def bsgs_solve(inst: DlogInstance) -> int | None:
    """Least k with x^k = y (mod p) by baby-step giant-step, or None.

    Requires gcd(x, p) = 1; otherwise falls back to ``naive_solve``.  The
    search space is the order of x when that is cheap to compute, else p.
    Baby steps keep the smallest index per residue and giant steps ascend,
    so the first hit is the least exponent.
    """
    p, x, y = inst.p, inst.x, inst.y
    if gcd(x, p) != 1:
        return naive_solve(inst)
    bound = multiplicative_order(x, p) if p <= _ORDER_CHEAP_BOUND else p
    m = isqrt(bound - 1) + 1 if bound > 1 else 1
    table = _baby_table(p, x, m)
    inv_xm = pow(pow(x, -1, p), m, p)
    gamma = y % p
    for i in range((bound + m - 1) // m):
        j = table.get(gamma)
        if j is not None:
            return i * m + j
        gamma = gamma * inv_xm % p
    return None
