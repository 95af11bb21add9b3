"""Scalar helpers: exact rationals alongside complex floats.

Every evaluator in the package accepts int/Fraction (exact) or float/complex
(numeric) scalars.  Powers of complex quantities always use the principal
branch, exp(p*Log w), so that monodromy bookkeeping is consistent across
modules.  A branch cut crossed on the negative real axis can be steered with
a signed-zero imaginary part.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Union

from .errors import ParamError

Scalar = Union[int, Fraction, float, complex]

_EXACT_TYPES = (int, Fraction)

# how far a float may sit from an integer and still count as one
INTEGER_TOL = 1e-12


def is_exact(x: Scalar) -> bool:
    # a float or complex takes the type test: isinstance against the Fraction
    # ABC is an order of magnitude slower on them
    if type(x) is float or type(x) is complex:
        return False
    return isinstance(x, _EXACT_TYPES)


def all_exact(*xs: Scalar) -> bool:
    return all(is_exact(x) for x in xs)


def as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def to_complex(x: Scalar) -> complex:
    # an int (an exact constant) also skips the isinstance test against the
    # Fraction ABC
    if type(x) is float or type(x) is complex or type(x) is int:
        return complex(x)
    if isinstance(x, Fraction):
        return complex(x.numerator / x.denominator)
    return complex(x)


def is_nonpositive_integer(z: Scalar, tol: float = INTEGER_TOL) -> bool:
    """True when z is (numerically) a real integer <= 0."""
    if is_exact(z):
        f = as_fraction(z)
        return f.denominator == 1 and f <= 0
    zc = to_complex(z)
    if abs(zc.imag) > tol:
        return False
    r = zc.real
    return r <= tol and abs(r - round(r)) <= tol


def nonpositive_integer_value(z: Scalar) -> int:
    """The integer n <= 0 that z equals; caller checks is_nonpositive_integer."""
    if is_exact(z):
        return int(as_fraction(z))
    return int(round(to_complex(z).real))


def integer_difference(x: Scalar, y: Scalar):
    """Return x - y as an int when it is an integer, else None."""
    if is_exact(x) and is_exact(y):
        d = as_fraction(x) - as_fraction(y)
        return int(d) if d.denominator == 1 else None
    d = to_complex(x) - to_complex(y)
    if abs(d.imag) > INTEGER_TOL:
        return None
    n = round(d.real)
    return n if abs(d.real - n) <= INTEGER_TOL else None


def is_integer(z: Scalar) -> bool:
    return integer_difference(z, 0) is not None


def is_half_odd_integer(z: Scalar) -> bool:
    """True when z is in Z + 1/2."""
    return integer_difference(z, Fraction(1, 2)) is not None


def cpow(w: Scalar, p: Scalar) -> Scalar:
    """w**p on the principal branch; exact when both are exact and p integral."""
    if is_exact(p):
        pf = as_fraction(p)
        if pf.denominator == 1 and is_exact(w):
            n = int(pf)
            wf = as_fraction(w)
            if n >= 0:
                return wf**n
            if wf == 0:
                raise ParamError(f"w ** p has no finite value at w = {w}, p = {p}")
            return Fraction(1) / wf**(-n)
    wc = to_complex(w)
    pc = to_complex(p)
    if wc == 0:
        if pc.real > 0:
            return 0j
        if pc == 0:
            return 1 + 0j
        raise ParamError(f"w ** p has no finite value at w = {w}, p = {p}")
    try:
        return cmath.exp(pc * cmath.log(wc))
    except OverflowError:
        raise ParamError(f"w ** p overflows double precision at w = {w}, p = {p}") from None


def _gaussian_horner(coeffs, nr: int, ni: int, big_d: int):
    """D^deg c(n/D) as an (re, im) pair of ints, for int coefficients c
    (lowest degree first) at the Gaussian int n = nr + i ni."""
    re = im = 0
    d_power = 1
    for x in reversed(coeffs):
        re, im = re * nr - im * ni + x * d_power, re * ni + im * nr
        d_power *= big_d
    return re, im


def relative_gap(residual: Scalar, *magnitudes: Scalar) -> float:
    """|residual| / max(1, |m| for m in magnitudes): the scale every residual
    and identity check reports, absolute near zero and relative beyond 1."""
    return abs(residual) / max((1.0, *map(abs, magnitudes)))


def parse_charge(text: str) -> Scalar:
    """Parse a charge given as an exact fraction ('3/4', '-2') or a finite
    decimal; anything else raises ValueError."""
    text = text.strip()
    try:
        value = Fraction(text) if ("/" in text or "." not in text) else float(text)
    except ValueError:
        value = float(text)
    except ZeroDivisionError:
        raise ValueError(f"charge {text!r} has a zero denominator") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"charge {text!r} is not finite")
    return value
