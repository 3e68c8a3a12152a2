"""Numeric modes and comparison tolerances for the arc-projected discrete-log problem.

A residue v modulo p is projected onto the 360-degree arc as the angle
360*v/p, with theta = 360/p the angular step.  Three arithmetic modes are
supported:

* exact      — the angle is carried as its integer numerator v with implicit
               denominator p; the constant 360 factors out of every
               comparison, so exact mode is plain integer arithmetic.
* float64    — IEEE binary64 degrees, mirroring a double-based realisation.
* fixed(b)   — binary fixed point with b fractional bits of a degree; the
               only rounding is in the conversion of the step theta, all
               subsequent adds and subtracts are exact integer operations.

The walks themselves live in ``rotor``; this module names the modes and
says how close a walk must come to its target.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from numbers import Real
from operator import index


class InvalidModulusError(ValueError):
    """Raised when a modulus is not a whole number of at least 2."""


# ---------------------------------------------------------------------------
# Numeric modes
# ---------------------------------------------------------------------------

_FIXED_BITS_MIN = 8
_FIXED_BITS_MAX = 112


def _whole(value, name: str, error: type[ValueError] = ValueError) -> int:
    """value as an int, if it is a whole number (what ``operator.index`` takes)."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{name} must be a whole number, got {value!r}") from None


@dataclass(frozen=True)
class NumericMode:
    """Arithmetic mode tag: ``exact``, ``float64`` or ``fixed`` (with bits).

    The bits must be a whole number (what ``operator.index`` takes) and are
    stored as an int.
    """

    kind: str
    fractional_bits: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "float64", "fixed"):
            raise ValueError(f"unknown numeric mode kind: {self.kind!r}")
        if self.kind == "fixed":
            bits = _whole(self.fractional_bits, "fixed-point fractional bits")
            if not _FIXED_BITS_MIN <= bits <= _FIXED_BITS_MAX:
                raise ValueError(
                    f"fixed-point fractional bits must be in "
                    f"[{_FIXED_BITS_MIN}, {_FIXED_BITS_MAX}], got {bits!r}"
                )
            object.__setattr__(self, "fractional_bits", bits)
        elif self.fractional_bits is not None:
            raise ValueError(f"mode {self.kind!r} takes no fractional bits")

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def __str__(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.fractional_bits}"
        return self.kind


def _check_mode(mode) -> None:
    """Reject a mode that is not a ``NumericMode`` (a mode name, say), naming the field."""
    if not isinstance(mode, NumericMode):
        raise ValueError(f"mode must be a NumericMode, got {mode!r}")


EXACT = NumericMode("exact")
FLOAT64_DEGREES = NumericMode("float64")


def fixed_point(fractional_bits: int) -> NumericMode:
    """Binary fixed-point mode with the given number of fractional bits."""
    return NumericMode("fixed", fractional_bits)


def parse_mode(text: str) -> NumericMode:
    """Parse ``exact``, ``float64`` or ``fixed:<bits>``."""
    if text == "exact":
        return EXACT
    if text == "float64":
        return FLOAT64_DEGREES
    if isinstance(text, str) and text.startswith("fixed:"):
        bits = text[len("fixed:") :]
        if not (bits.isascii() and bits.isdigit()):
            raise ValueError(f"bad fixed-point bit count in mode {text!r}")
        return fixed_point(int(bits))
    raise ValueError(f"unknown numeric mode {text!r} (expected exact, float64 or fixed:<bits>)")


def default_tolerance(mode: NumericMode, modulus: int) -> float:
    """Widest unambiguous comparison tolerance for a mode, in degrees.

    Valid reduced angles lie on the lattice {0, theta, 2*theta, ...} with
    theta = 360/modulus, so half a lattice step separates neighbours; exact
    mode needs no tolerance at all.  The modulus must be a whole number
    (what ``operator.index`` takes) of at least 2, and in an approximate
    mode below 2**1024 - 2**970, past which it rounds beyond the float range.
    """
    _check_mode(mode)
    if type(modulus) is not int:
        modulus = _whole(modulus, "modulus", InvalidModulusError)
    if modulus < 2:
        raise InvalidModulusError(f"modulus must be >= 2, got {modulus}")
    if mode.is_exact:
        return 0.0
    try:
        return 180.0 / modulus
    except OverflowError:
        raise InvalidModulusError(
            f"modulus must be below 2**1024 - 2**970 for a float64 tolerance, "
            f"got a {modulus.bit_length()}-bit modulus"
        ) from None


def check_tolerance(tolerance: float | None) -> float | None:
    """A comparison tolerance, checked as a finite, non-negative number of degrees.

    None (use the mode's default) passes.  A whole number (what
    ``operator.index`` takes) comes back as an int, exact at any size;
    another real number as a float.  Anything else raises ValueError, with a
    message that starts with the word ``tolerance`` so a front end can
    prefix its own flag syntax.
    """
    if tolerance is None:
        return None
    checked = tolerance
    if type(tolerance) is not float:
        try:
            checked = index(tolerance)
        except TypeError:
            if not isinstance(tolerance, Real):
                raise ValueError(f"tolerance must be a real number, got {tolerance!r}") from None
            try:
                checked = float(tolerance)
            except OverflowError:  # past the float range
                checked = inf
    if not 0 <= checked < inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
    return checked
