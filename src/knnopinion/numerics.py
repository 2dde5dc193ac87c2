"""Scalar arithmetic with two interchangeable backends.

Exact backend: fractions.Fraction, always in canonical reduced form with a
positive denominator, arbitrary-precision integers underneath (repeated
division by k grows denominators like k**t, so fixed-width would overflow
within tens of steps).

Exact kernels (k-NN distances, means, extremal agents) do not add or
compare Fractions one by one: they work on the values written as integer
numerators over a common denominator D; an exact Configuration stores only
its canonical (N, D), the least D of common_numerators. Scaling by a
positive D keeps every order and every tie, so results are the same as with
Fraction arithmetic. A k-NN mean is stored as the ratio (sum of N_j, D * k):
reduced by one gcd, over lcm(D, q), without building a Fraction.

The backend is decided where a state is built (Configuration, simulate's
backend); the hot paths then call the typed kernels mean_float and
mean_exact, except the exact k-NN update, which stores its ratio instead.
coerce_all serves only Configuration(...) and Configuration.replace.

Float backend: IEEE-754 binary64.

IMPORTANT: float comparisons are exact binary comparisons, with NO epsilon.
Ties between independently drawn random floats have probability zero, and
constructed ties (the tie-break counterexamples) must use the exact backend.
A configuration never mixes the two backends.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"


class BackendError(TypeError):
    """Raised when exact and float scalars are mixed in one operation."""


def backend_of(value: Scalar) -> str:
    if isinstance(value, bool):
        raise BackendError("bool is not a scalar opinion")
    if isinstance(value, Fraction):
        return EXACT
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, int):
        return EXACT  # ints are exact values
    raise BackendError(f"unsupported scalar type {type(value).__name__}")


def coerce_all(values: Sequence) -> tuple[list, str]:
    """Normalize a sequence to one backend.

    Plain ints follow the backend of the other entries (default: exact).
    Mixing Fraction and float raises BackendError.
    """
    has_float = False
    has_exact = False
    for v in values:
        b = backend_of(v)
        if b == FLOAT:
            has_float = True
        elif isinstance(v, Fraction):
            has_exact = True
    if has_float and has_exact:
        raise BackendError("cannot mix exact and float scalars")
    if has_float:
        return [float(v) for v in values], FLOAT
    return [v if isinstance(v, Fraction) else Fraction(v) for v in values], EXACT


def common_numerators(values: Sequence) -> tuple[list, int]:
    """Exact values (Fractions or ints) as integer numerators over their
    least common denominator: ([p * (D // q) for p/q in values], D)."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[q for _, q in ratios])
    return [p * (den // q) for p, q in ratios], den


def mean_float(values: Sequence[float]) -> float:
    """Mean of a non-empty list of floats, with the two guards the dynamics
    rely on:
    - if all values are identical the first is returned untouched, so a
      homogeneous neighborhood is a bit-exact fixed point (for non-NaN
      floats, min == max holds exactly when all values compare equal);
    - the mean is clamped to [min(values), max(values)] so rounding can
      never push an updated opinion outside its neighborhood hull.
    """
    lo, hi = min(values), max(values)
    if lo == hi:
        return values[0]
    m = sum(values) / len(values)
    return min(max(m, lo), hi)


def mean_exact(nums: Sequence[int], den: int) -> Fraction:
    """Mean of the exact values nums[i] / den, for any positive common
    denominator den: one Fraction with a single gcd."""
    return Fraction(sum(nums), den * len(nums))


def parse_scalar(raw) -> Scalar:
    """Parse a scalar from a JSON value.

    "p/q" strings and ints are exact; JSON floats are float-backend. Python's
    json reads NaN and Infinity, so non-finite floats are rejected here, as
    are malformed strings, zero denominators and rationals too large for a
    float, which float runs, robustness bases and plots convert to (ValueError).
    """
    if isinstance(raw, float):
        if not math.isfinite(raw):
            raise ValueError(f"{raw!r} is not a finite number")
        return raw
    if isinstance(raw, bool):
        raise BackendError("bool is not a scalar opinion")
    if isinstance(raw, str):
        num, sep, den = raw.partition("/")
        try:
            p, q = int(num), int(den) if sep else 1
        except ValueError:
            raise ValueError(f"{raw!r} is not an integer or 'p/q' rational") from None
        if q == 0:
            raise ValueError(f"{raw!r} has a zero denominator")
    elif isinstance(raw, int):
        p, q = raw, 1
    else:
        raise BackendError(f"cannot parse scalar from {raw!r}")
    value = Fraction(p, q)
    if abs(value) > sys.float_info.max:
        raise ValueError("magnitude exceeds the largest finite float")
    return value


def format_scalar(value: Scalar) -> str:
    """Serialize: rationals as "p/q" (q always present), floats as decimal
    text with 17 significant digits (round-trip exact)."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return f"{value}/1"
    return format(value, ".17g")
