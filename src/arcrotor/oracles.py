"""Independent ground-truth solvers for validating the rotor implementations.

Both oracles work with one modular multiply per step (the built-in
three-argument ``pow`` for exponentiation), deliberately sharing no code
path with the rotor solvers' repeated-addition arithmetic.  ``naive_solve`` scans successive
powers; ``bsgs_solve`` is the standard meet-in-the-middle solver.  Both
return the least exponent, with k = 0 answering y = 1.
``multiplicative_order`` is one BSGS solve: the order of x is one more
than the least k with x^k = x^-1.
"""

from __future__ import annotations

from math import gcd, isqrt

from .numerics import _whole
from .rotor import DlogInstance

_BSGS_P_MAX = 2**44  # ceil(sqrt(p)) would pass 2**22 table entries past it


class NotAUnitError(ValueError):
    """Raised when an order is requested for x with gcd(x, p) != 1."""


def naive_solve(inst: DlogInstance) -> int | None:
    """Least k with x^k = y (mod p) by brute-force scan, or None.

    Scans k = 0, 1, 2, ... with one modular multiply per step.  Stops early
    once the power returns to 1 (the orbit has closed) or reaches 0 (a
    non-unit x: 0 is absorbing and never a target), and in any case after p
    exponents: every reachable value appears before the first repeat, which
    occurs within p steps.
    """
    p, x, y = inst.p, inst.x, inst.y
    acc = 1
    for k in range(p):
        if acc == y:
            return k
        acc = acc * x % p
        if acc <= 1:
            return None
    return None


def bsgs_solve(inst: DlogInstance) -> int | None:
    """Least k with x^k = y (mod p) by baby-step giant-step, or None.

    Requires gcd(x, p) = 1; otherwise falls back to ``naive_solve``.  The
    search covers k < p, past every least k (the orbit of a unit closes
    within p - 1 steps), in m = ceil(sqrt(p)) baby and giant steps.  Baby
    steps stop once the orbit closes (a unit's powers are distinct until
    then, so the table is the orbit at least exponents); else giant steps
    ascend, so the first hit is the least exponent.  A unit x with
    p > 2**44 (over 2**22 table entries) raises ValueError.
    """
    p, x, y = inst.p, inst.x, inst.y
    if gcd(x, p) != 1:
        return naive_solve(inst)
    if p > _BSGS_P_MAX:
        raise ValueError(f"p must be at most 2**44 for the bsgs table, got p={p}")
    m = isqrt(p - 1) + 1
    table: dict[int, int] = {}  # value -> least baby-step index j in [0, m)
    acc = 1
    for j in range(m):
        table[acc] = j
        acc = acc * x % p
        if acc == 1:
            return table.get(y)
    inv_xm = pow(x, -m, p)
    gamma = y
    for i in range((p + m - 1) // m):
        j = table.get(gamma)
        if j is not None:
            return i * m + j
        gamma = gamma * inv_xm % p
    return None


def multiplicative_order(x: int, p: int) -> int:
    """Least t >= 1 with x^t = 1 (mod p); requires gcd(x, p) = 1.

    One BSGS solve (at most about sqrt(p) time and table memory; p > 2**44
    raises): for a unit of order t, the least k with x^k = x^-1 is
    t - 1 < p.  Takes whole numbers.
    """
    x, p = _whole(x, "x"), _whole(p, "modulus")
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    x %= p
    if gcd(x, p) != 1:
        raise NotAUnitError(f"{x} is not a unit mod {p} (gcd != 1)")
    return 1 + bsgs_solve(DlogInstance(p, x, pow(x, -1, p)))
