"""Self-contained special-function kernel.

Gamma (Lanczos rational approximation plus reflection), Pochhammer symbols,
complete/incomplete beta, Gauss 2F1 with its transformation graph (direct
series, Pfaff remap, 0->1 connection, terminating and regularized variants,
Frobenius log pair at c=1) and a 3F2 evaluator with an integer-offset
collapse that rides on the 2F1 continuations.

All powers are principal-branch (see scalars.cpow).  Branch-cut sides on
[1, oo) are selected with a signed-zero imaginary part; bare floats > 1 are
rejected as ambiguous.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BranchCutError,
    ConvergenceError,
    DegenerateError,
    ParamError,
    PoleError,
)
from .scalars import (
    Scalar,
    all_exact,
    as_fraction,
    cpow,
    integer_difference,
    is_exact,
    is_nonpositive_integer,
    nonpositive_integer_value,
    to_complex,
)

SERIES_RTOL = 1e-16
SERIES_MAX_TERMS = 100_000

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C0 = 0.99999999999999709182
_LANCZOS_COEFFS = (
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def gamma(z: Scalar) -> complex:
    """Gamma function on the complex plane, poles at 0, -1, -2, ..."""
    if is_nonpositive_integer(z, tol=0.0):
        raise PoleError(f"gamma pole at z = {z}")
    zc = to_complex(z)
    if zc.real < 0.5:
        # reflection: gamma(z) = pi / (sin(pi z) gamma(1-z))
        s = cmath.sin(cmath.pi * zc)
        if s == 0:
            raise PoleError(f"gamma pole at z = {z}")
        return cmath.pi / (s * gamma(1.0 - zc))
    x = zc - 1.0
    acc = _LANCZOS_C0
    for k, ck in enumerate(_LANCZOS_COEFFS, start=1):
        acc += ck / (x + k)
    t = x + _LANCZOS_G + 0.5
    try:
        return _SQRT_TWO_PI * t ** (x + 0.5) * cmath.exp(-t) * acc
    except OverflowError:
        pass
    # Gamma fits a double up to Re z = 171.6, but t^(x+1/2) alone overflows
    # from Re z = 143: take it as two half powers with exp(-t) in between
    try:
        half = t ** ((x + 0.5) / 2)
        out = _SQRT_TWO_PI * half * cmath.exp(-t) * half * acc
    except OverflowError:
        out = complex(math.inf)
    if not cmath.isfinite(out):
        raise ParamError(f"gamma({z}) overflows double precision")
    return out


def pochhammer(a: Scalar, n: int) -> Scalar:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); exact for exact a."""
    if n < 0:
        raise ValueError("pochhammer order must be non-negative")
    num = as_fraction if is_exact(a) else to_complex
    out, a = num(1), num(a)
    for t in range(n):
        out *= a + t
    return out


@dataclass(frozen=True)
class Hyp2F1Params:
    """Parameters of 2F1(a, b; c; z)."""

    a: Scalar
    b: Scalar
    c: Scalar

    def terminating_order(self):
        """Smallest n >= 0 with (a)_{n+1} (b)_{n+1} = 0, or None."""
        orders = []
        for p in (self.a, self.b):
            if is_nonpositive_integer(p):
                orders.append(-nonpositive_integer_value(p))
        return min(orders) if orders else None

    def validate(self) -> None:
        n = self.terminating_order()
        if is_nonpositive_integer(self.c):
            m = -nonpositive_integer_value(self.c)
            if n is None or n > m:
                raise ParamError(
                    f"c = {self.c} is a non-positive integer and the series "
                    "does not terminate before the pole"
                )


@dataclass(frozen=True)
class Hyp3F2Params:
    """Parameters of 3F2(a1, a2, a3; b1, b2; z)."""

    a1: Scalar
    a2: Scalar
    a3: Scalar
    b1: Scalar
    b2: Scalar

    @property
    def uppers(self):
        return (self.a1, self.a2, self.a3)

    @property
    def lowers(self):
        return (self.b1, self.b2)

    def terminating_order(self):
        orders = [
            -nonpositive_integer_value(p)
            for p in self.uppers
            if is_nonpositive_integer(p)
        ]
        return min(orders) if orders else None

    def validate(self) -> None:
        n = self.terminating_order()
        for b in self.lowers:
            if is_nonpositive_integer(b):
                m = -nonpositive_integer_value(b)
                if n is None or n > m:
                    raise ParamError(
                        f"lower parameter {b} hits a pole before termination"
                    )


def _series_2f1(a: Scalar, b: Scalar, c: Scalar, z: Scalar, max_terms=SERIES_MAX_TERMS):
    """Direct power series; exact when all inputs are exact and terminating."""
    nterm = Hyp2F1Params(a, b, c).terminating_order()
    num = as_fraction if nterm is not None and all_exact(a, b, c, z) else to_complex
    a, b, c, x = map(num, (a, b, c, z))
    total, term = num(0), num(1)
    if nterm is not None:
        for n in range(nterm + 1):
            total += term
            if n < nterm:
                term *= (a + n) * (b + n) * x / ((c + n) * (n + 1))
        return total
    for n in range(max_terms):
        total += term
        term *= (a + n) * (b + n) * x / ((c + n) * (n + 1))
        if abs(term) <= SERIES_RTOL * max(abs(total), 1e-300):
            return total + term
    raise ConvergenceError(
        f"2F1 series did not converge within {max_terms} terms at z = {z}"
    )


def _gauss_at_1(a, b, c) -> complex:
    """2F1(a, b; c; 1) by Gauss's theorem, Re(c-a-b) > 0."""
    s = to_complex(c) - to_complex(a) - to_complex(b)
    if s.real <= 0:
        raise ConvergenceError("2F1 at z=1 requires Re(c-a-b) > 0")
    return gamma(c) * gamma(s) / (gamma(to_complex(c) - to_complex(a)) * gamma(to_complex(c) - to_complex(b)))


def connection_coeffs_01(p: Hyp2F1Params):
    """Coefficients (A, B) linking the z=0 and z=1 Frobenius bases:

    2F1(a,b;c;z) = A * 2F1(a,b;a+b-c+1;1-z)
                 + B * (1-z)^(c-a-b) * 2F1(c-a,c-b;c-a-b+1;1-z)
    """
    a, b, c = p.a, p.b, p.c
    if integer_difference(to_complex(c) - to_complex(a) - to_complex(b), 0) is not None:
        raise DegenerateError(
            f"c-a-b = {to_complex(c)-to_complex(a)-to_complex(b)} is an integer: "
            "the 0->1 connection is logarithmic there"
        )
    ca = to_complex(c) - to_complex(a)
    cb = to_complex(c) - to_complex(b)
    s = to_complex(c) - to_complex(a) - to_complex(b)
    coeff_a = gamma(c) * gamma(s) / (gamma(ca) * gamma(cb))
    coeff_b = gamma(c) * gamma(-s) / (gamma(p.a) * gamma(p.b))
    return coeff_a, coeff_b


def _one_minus(z: complex) -> complex:
    """1 - z preserving the signed zero of the imaginary part."""
    return complex(1.0 - z.real, -z.imag)


def _connection_01(a, b, c, z, depth):
    coeff_a, coeff_b = connection_coeffs_01(Hyp2F1Params(a, b, c))
    ac, bc, cc = map(to_complex, (a, b, c))
    u = _one_minus(to_complex(z))
    s = cc - ac - bc
    f1 = _hyp2f1_impl(ac, bc, ac + bc - cc + 1.0, u, depth + 1)
    f2 = _hyp2f1_impl(cc - ac, cc - bc, s + 1.0, u, depth + 1)
    return coeff_a * f1 + coeff_b * cpow(u, s) * f2


def _pfaff(a, b, c, z, depth):
    """2F1(a,b;c;z) = (1-z)^(-b) 2F1(c-a, b; c; z/(z-1))."""
    ac, bc, cc, zc = map(to_complex, (a, b, c, z))
    w = zc / (zc - 1.0)
    return cpow(1.0 - zc, -bc) * _hyp2f1_impl(cc - ac, bc, cc, w, depth + 1)


def _hyp2f1_impl(a, b, c, z, depth=0):
    params = Hyp2F1Params(a, b, c)
    params.validate()
    if params.terminating_order() is not None:
        return _series_2f1(a, b, c, z)
    zc = to_complex(z)
    if zc == 0:
        return 1 + 0j if not all_exact(a, b, c, z) else Fraction(1)
    if zc == 1:
        return _gauss_at_1(a, b, c)
    if isinstance(z, float) and z > 1.0:
        raise BranchCutError(
            "z on the branch cut [1, oo); pass a complex with signed-zero "
            "imaginary part to pick a side"
        )
    if depth > 6:
        raise ConvergenceError("2F1 continuation recursion exceeded")
    if abs(zc) <= 0.7:
        return _series_2f1(a, b, c, z)
    if abs(_one_minus(zc)) <= 0.7:
        return _connection_01(a, b, c, zc, depth)
    if zc.real < 0.5 and abs(zc / (zc - 1.0)) <= 0.8:
        return _pfaff(a, b, c, zc, depth)
    if abs(zc) <= 0.95:
        return _series_2f1(a, b, c, z)
    if abs(_one_minus(zc)) <= 0.95:
        return _connection_01(a, b, c, zc, depth)
    if zc.real < 0.5:
        # |z| large: Pfaff sends z to z/(z-1) near 1, the connection's region
        return _pfaff(a, b, c, zc, depth)
    raise ConvergenceError(f"z = {z} outside the supported continuation region")


def hyp2f1(a: Scalar, b: Scalar, c: Scalar, z: Scalar):
    """Gauss hypergeometric function on the principal branch.

    Raises DegenerateError when the 0->1 connection hits integer c-a-b.
    """
    return _hyp2f1_impl(a, b, c, z)


def hyp2f1_deriv(a: Scalar, b: Scalar, c: Scalar, z: Scalar, order: int = 1):
    """d^n/dz^n 2F1 = ((a)_n (b)_n / (c)_n) 2F1(a+n, b+n; c+n; z)."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if order == 0:
        return hyp2f1(a, b, c, z)
    pref = pochhammer(a, order) * pochhammer(b, order) / pochhammer(c, order)
    return pref * hyp2f1(a + order, b + order, c + order, z)


def hyp2f1_regularized(a: Scalar, b: Scalar, c: Scalar, z: Scalar) -> complex:
    """2F1(a,b;c;z) / Gamma(c), entire in c (finite limit at c in -N0)."""
    if is_nonpositive_integer(c):
        big_n = -nonpositive_integer_value(c)
        pref = (
            to_complex(pochhammer(a, big_n + 1))
            * to_complex(pochhammer(b, big_n + 1))
            / math.factorial(big_n + 1)
        )
        ac, bc = to_complex(a), to_complex(b)
        inner = hyp2f1(ac + big_n + 1, bc + big_n + 1, big_n + 2, z)
        return pref * cpow(to_complex(z), big_n + 1) * inner
    return to_complex(hyp2f1(a, b, c, z)) / gamma(c)


def hyp2f1_log_pair(a: Scalar, b: Scalar, z: Scalar, max_terms=SERIES_MAX_TERMS):
    """Frobenius pair at c = 1: (y1, y2) with y1 = 2F1(a,b;1;z) and
    y2 = y1 log z + sum_{n>=1} ((a)_n (b)_n / (n!)^2) h_n z^n,
    h_n = sum_{t<n} (1/(a+t) + 1/(b+t) - 2/(t+1)).
    """
    ac, bc, zc = to_complex(a), to_complex(b), to_complex(z)
    if abs(zc) >= 1:
        raise ConvergenceError("Frobenius log pair needs |z| < 1")
    y1 = 0j
    extra = 0j
    term = 1 + 0j
    h = 0j
    for n in range(max_terms):
        y1 += term
        extra += term * h
        h += 1.0 / (ac + n) + 1.0 / (bc + n) - 2.0 / (n + 1.0)
        term *= (ac + n) * (bc + n) * zc / ((1.0 + n) * (n + 1.0))
        if n > 4 and abs(term) * (1.0 + abs(h)) <= SERIES_RTOL * max(abs(y1), 1e-300):
            break
    else:
        raise ConvergenceError("Frobenius log pair series did not converge")
    y2 = y1 * cmath.log(zc) + extra
    return y1, y2


def _series_3f2(p: Hyp3F2Params, z: Scalar, max_terms=SERIES_MAX_TERMS):
    nterm = p.terminating_order()
    vals = (*p.uppers, *p.lowers, z)
    num = as_fraction if nterm is not None and all_exact(*vals) else to_complex
    a1, a2, a3, b1, b2, x = map(num, vals)
    total, term = num(0), num(1)
    if nterm is not None:
        for n in range(nterm + 1):
            total += term
            if n < nterm:
                term *= (a1 + n) * (a2 + n) * (a3 + n) * x
                term /= (b1 + n) * (b2 + n) * (n + 1)
        return total
    for n in range(max_terms):
        total += term
        term *= (a1 + n) * (a2 + n) * (a3 + n) * x / ((b1 + n) * (b2 + n) * (n + 1))
        if abs(term) <= SERIES_RTOL * max(abs(total), 1e-300):
            return total + term
    raise ConvergenceError(
        f"3F2 series did not converge within {max_terms} terms at z = {z}"
    )


def _collapse_pair(p: Hyp3F2Params):
    """Find an (upper, lower) pair with integer offset k >= 0, preferring the
    smallest k.  Returns (i, j, k) or None."""
    best = None
    for i, av in enumerate(p.uppers):
        for j, bv in enumerate(p.lowers):
            k = integer_difference(av, bv)
            if k is not None and k >= 0:
                if best is None or k < best[2]:
                    best = (i, j, k)
    return best


def _collapse_3f2(p: Hyp3F2Params, z: Scalar, i: int, j: int, k: int):
    """3F2(A, B, beta+k; C, beta; z) via (beta+n)_k / (beta)_k polynomial
    action: (1/(beta)_k) * prod_t (beta + t + theta) applied to 2F1(A,B;C;z),
    theta = z d/dz.  Valid wherever the 2F1 continuations reach.
    """
    rest_up = [p.uppers[t] for t in range(3) if t != i]
    big_a, big_b = rest_up
    big_c = p.lowers[1 - j]
    beta = p.lowers[j]
    ac, bc, cc, betac = map(to_complex, (big_a, big_b, big_c, beta))
    zc = to_complex(z)
    # terms: dict (power m, shift s) -> coefficient, value = sum c z^m F(A+s,B+s;C+s;z)
    terms = {(0, 0): 1 + 0j}
    for t in range(k):
        new: dict = {}

        def add(key, val):
            new[key] = new.get(key, 0j) + val

        for (m, s), coeff in terms.items():
            add((m, s), coeff * (betac + t + m))
            add((m + 1, s + 1), coeff * (ac + s) * (bc + s) / (cc + s))
        terms = new
    total = 0j
    for (m, s), coeff in terms.items():
        if coeff == 0:
            continue
        total += coeff * zc**m * to_complex(hyp2f1(ac + s, bc + s, cc + s, zc))
    return total / to_complex(pochhammer(beta, k))


def hyp3f2(a1: Scalar, a2: Scalar, a3: Scalar, b1: Scalar, b2: Scalar, z: Scalar):
    """Generalized hypergeometric 3F2 at argument z.

    Supported regions: terminating series anywhere; |z| <= 0.9 by direct
    series; outside that only when an upper parameter exceeds a lower one by
    a non-negative integer (the collapse onto 2F1 continuations, which covers
    the -eta/(1-eta) arguments of the block identities).
    """
    p = Hyp3F2Params(a1, a2, a3, b1, b2)
    p.validate()
    # exact upper/lower cancellation drops to 2F1
    for i, av in enumerate(p.uppers):
        for j, bv in enumerate(p.lowers):
            same = (
                av == bv
                if (is_exact(av) and is_exact(bv))
                else to_complex(av) == to_complex(bv)
            )
            if same and not is_nonpositive_integer(bv):
                rest = [p.uppers[t] for t in range(3) if t != i]
                return hyp2f1(rest[0], rest[1], p.lowers[1 - j], z)
    if p.terminating_order() is not None:
        return _series_3f2(p, z)
    zc = to_complex(z)
    if abs(zc) <= 0.9:
        return _series_3f2(p, z)
    pair = _collapse_pair(p)
    if pair is not None and not (zc.imag == 0 and zc.real >= 1):
        return _collapse_3f2(p, z, *pair)
    raise ConvergenceError(
        f"3F2 at z = {z}: |z| > 0.9 and no integer-offset collapse applies"
    )


def beta_complete(a: Scalar, b: Scalar, *, regularized: bool = False):
    """beta(a, b) = Gamma(a) Gamma(b) / Gamma(a+b)."""
    pa = is_nonpositive_integer(a)
    pb = is_nonpositive_integer(b)
    ps = is_nonpositive_integer(to_complex(a) + to_complex(b))
    if not (pa or pb or ps):
        return gamma(a) * gamma(b) / gamma(to_complex(a) + to_complex(b))
    if not regularized:
        raise PoleError(f"beta({a}, {b}) hits gamma poles")
    num_poles = int(pa) + int(pb)
    if num_poles == 0 and ps:
        return 0j  # denominator pole only
    if num_poles == 1 and ps:
        # single pole over single pole: gamma(-n+e)/gamma(-m+e) -> (-1)^(n-m) m!/n!
        n = -nonpositive_integer_value(a if pa else b)
        m = -nonpositive_integer_value(to_complex(a) + to_complex(b))
        other = b if pa else a
        return (-1.0) ** (n - m) * math.factorial(m) / math.factorial(n) * gamma(other)
    raise PoleError(f"beta({a}, {b}) diverges; regularization impossible")


def beta_incomplete(a: Scalar, b: Scalar, z: Scalar):
    """B(a, b; z) = (z^a / a) 2F1(a, 1-b; a+1; z)."""
    if is_nonpositive_integer(a):
        raise ParamError(f"incomplete beta needs a not in -N0, got a = {a}")
    f = hyp2f1(a, 1 - b, a + 1, z)
    return cpow(z, a) / a * f
