"""Self-contained special-function kernel.

Gamma (Lanczos rational approximation plus reflection), Pochhammer symbols,
complete/incomplete beta, Gauss 2F1 with its transformation graph (direct
series, Pfaff remap, 0->1 connection, terminating and regularized variants,
Frobenius log pair at c=1) and a 3F2 evaluator that reduces an
integer-offset 3F2 exactly onto one 2F1 and its derivative with the operator
steps of ``dfinite``.  The direct 2F1 and 3F2 series share one pFq loop.

Left of Re z = 1/2 gamma reflects, gamma(z) = pi / (sin(pi z) gamma(1-z)),
with sin(pi z) = (-1)^n sin(pi (z-n)) at the nearest integer n: z - n is
exact, so gamma keeps its digits next to a pole.

All powers are principal-branch (see scalars.cpow).  Branch-cut sides on
[1, oo) are selected with a signed-zero imaginary part; bare floats > 1 are
rejected as ambiguous.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

from . import dfinite
from .errors import (
    BranchCutError,
    ConvergenceError,
    DegenerateError,
    ParamError,
    PoleError,
)
from .scalars import (
    Scalar,
    _gaussian_horner,
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
        # reflection; sin(pi z) = (-1)^n sin(pi (z-n)) with z - n exact
        n = round(zc.real)
        s = cmath.sin(cmath.pi * (zc - n))
        s = -s if n % 2 else s
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


def _terminating_order(uppers, lowers):
    """Smallest n >= 0 with an upper parameter equal to -n, where the series
    ends, or None; ParamError when a lower parameter hits its pole first."""
    orders = [-nonpositive_integer_value(p) for p in uppers if is_nonpositive_integer(p)]
    n = min(orders) if orders else None
    for b in lowers:
        if is_nonpositive_integer(b) and (n is None or n > -nonpositive_integer_value(b)):
            raise ParamError(f"lower parameter {b} hits a pole before termination")
    return n


def _pfq_series(uppers, lowers, z: Scalar, nterm):
    """Direct pFq power series sum_n (u1)_n ... (up)_n z^n / ((v1)_n ... (vq)_n n!).
    Terminating at order nterm, it is summed to its last term, exactly when
    every input is exact; else until a term falls to SERIES_RTOL of the sum."""
    num = as_fraction if nterm is not None and all_exact(*uppers, *lowers, z) else to_complex
    u0, *us = map(num, uppers)
    v0, *vs = map(num, lowers)
    x = num(z)
    total, term = num(0), num(1)
    for n in range(SERIES_MAX_TERMS if nterm is None else nterm):
        total += term
        r, d = u0 + n, v0 + n
        for u in us:
            r *= u + n
        for v in vs:
            d *= v + n
        term *= r * x / (d * (n + 1))
        if nterm is None and abs(term) <= SERIES_RTOL * abs(total):
            return total + term
    if nterm is None:
        raise ConvergenceError(f"{len(uppers)}F{len(lowers)} series did not converge "
                               f"within {SERIES_MAX_TERMS} terms at z = {z}")
    return total + term


def _gauss_at_1(a, b, c) -> complex:
    """2F1(a, b; c; 1) by Gauss's theorem, Re(c-a-b) > 0."""
    s = to_complex(c) - to_complex(a) - to_complex(b)
    if s.real <= 0:
        raise ConvergenceError("2F1 at z=1 requires Re(c-a-b) > 0")
    return gamma(c) * gamma(s) / (gamma(to_complex(c) - to_complex(a)) * gamma(to_complex(c) - to_complex(b)))


def connection_coeffs_01(a: Scalar, b: Scalar, c: Scalar):
    """Coefficients (A, B) linking the z=0 and z=1 Frobenius bases:

    2F1(a,b;c;z) = A * 2F1(a,b;a+b-c+1;1-z)
                 + B * (1-z)^(c-a-b) * 2F1(c-a,c-b;c-a-b+1;1-z)
    """
    if integer_difference(to_complex(c) - to_complex(a) - to_complex(b), 0) is not None:
        raise DegenerateError(
            f"c-a-b = {to_complex(c)-to_complex(a)-to_complex(b)} is an integer: "
            "the 0->1 connection is logarithmic there"
        )
    ca = to_complex(c) - to_complex(a)
    cb = to_complex(c) - to_complex(b)
    s = to_complex(c) - to_complex(a) - to_complex(b)
    coeff_a = gamma(c) * gamma(s) / (gamma(ca) * gamma(cb))
    coeff_b = gamma(c) * gamma(-s) / (gamma(a) * gamma(b))
    return coeff_a, coeff_b


def _one_minus(z: complex) -> complex:
    """1 - z preserving the signed zero of the imaginary part."""
    return complex(1.0 - z.real, -z.imag)


def _connection_01(a, b, c, z, depth):
    coeff_a, coeff_b = connection_coeffs_01(a, b, c)
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
    nterm = _terminating_order((a, b), (c,))
    if nterm is not None:
        return _pfq_series((a, b), (c,), z, nterm)
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
        return _pfq_series((a, b), (c,), z, None)
    # the connection is logarithmic on an integer c-a-b and cancels near one: sum the series
    s = to_complex(c) - to_complex(a) - to_complex(b)
    near_log = abs(zc) <= 0.9 and abs(s - round(s.real)) < 0.01
    if abs(_one_minus(zc)) <= 0.7 and not near_log:
        return _connection_01(a, b, c, zc, depth)
    if zc.real < 0.5 and abs(zc / (zc - 1.0)) <= 0.8:
        return _pfaff(a, b, c, zc, depth)
    if abs(zc) <= 0.95:
        return _pfq_series((a, b), (c,), z, None)
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


def hyp2f1_log_pair(a: Scalar, b: Scalar, z: Scalar):
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
    for n in range(SERIES_MAX_TERMS):
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


def _integer_offset_3f2(big_a, big_b, big_c, beta, k: int, z: Scalar):
    """3F2(A, B, beta+k; C, beta; z) = prod_{t<k} (beta+t+theta) F / (beta)_k,
    F = 2F1(A, B; C; z), theta = z d/dz, on the binary values of real
    parameters: ``dfinite.apply`` steps F through each (1-z)^(-1)
    [(beta+t)(1-z) + (1-z) theta] to (p F + q F') / (1-z)^k, with int p and
    q; p(z), q(z) and (1-z)^k (beta)_k are exact, each coefficient rounded once."""
    if not k:
        return hyp2f1(big_a, big_b, big_c, z)
    params = [to_complex(v).real for v in (big_a, big_b, big_c)]
    sn, sd = to_complex(beta).real.as_integer_ratio()
    ops = [(0, -1, sn + t * sd, -sn - t * sd, 1, 1) for t in range(k)]
    # (p F + q F') / ((1-z)^k den): h = 0 keeps p0 = 0, and q0 = -k
    *_, den, p, q = dfinite.apply((0, 0, 0, 0, 1, [1], []), params, ops, sd)
    (nr, dr), (ni, di) = ((zc := to_complex(z)).real.as_integer_ratio(), zc.imag.as_integer_ratio())
    big_d = math.lcm(dr, di)
    nr, ni, poch = nr * (big_d // dr), ni * (big_d // di), math.prod(op[2] for op in ops)
    # D^(k+1) p(z), q(z) and w(z), w = (1-z)^k prod_t (sn + t sd); p has degree k, q k + 1
    (pr, pi), (qr, qi), (wr, wi) = [
        _gaussian_horner(c + [0] * (k + 2 - len(c)), nr, ni, big_d)
        for c in (p, q, [(-1) ** i * math.comb(k, i) * poch for i in range(k + 1)])]
    # (beta)_k = poch / sd^k, and AB/C = an bn cd / (ad bd cn): a zero part of
    # cq takes the sign of C
    (an, ad), (bn, bd), (cn, cd) = [x.as_integer_ratio() for x in params]
    norm, pn = (wr * wr + wi * wi) * den, sd ** k
    qn, qnorm = an * bn * cd * pn, norm * ad * bd * cn
    try:
        cp = complex(pn * (pr * wr + pi * wi) / norm, pn * (pi * wr - pr * wi) / norm)
        cq = complex(qn * (qr * wr + qi * wi) / qnorm, qn * (qi * wr - qr * wi) / qnorm)
    except (OverflowError, ZeroDivisionError):
        raise ParamError(f"3F2 at z = {z}: a pole at z = 1, or a double overflow") from None
    return cp * hyp2f1(big_a, big_b, big_c, z) + cq * hyp2f1(big_a + 1, big_b + 1, big_c + 1, z)


def hyp3f2(a1: Scalar, a2: Scalar, a3: Scalar, b1: Scalar, b2: Scalar, z: Scalar):
    """Generalized hypergeometric 3F2 at argument z.

    A terminating series is summed as it stands.  Real parameters with an
    upper one exceeding a lower one by an integer k >= 0 take one route at
    every z, the exact reduction onto 2F1(A, B; C; z) and its derivative
    (``_integer_offset_3f2``), which reaches wherever the 2F1 does.  A
    complex parameter (nonzero imaginary part), or no such pair, takes the
    direct series at |z| <= 0.9 and raises ConvergenceError beyond it.
    """
    uppers, lowers = (a1, a2, a3), (b1, b2)
    nterm = _terminating_order(uppers, lowers)
    if nterm is not None:
        return _pfq_series(uppers, lowers, z, nterm)
    # of the (upper, lower) pairs with an integer offset k >= 0, the largest
    # k takes the largest upper parameter out of the 2F1
    pairs = []
    for i, av in enumerate(uppers):
        for j, bv in enumerate(lowers):
            k = integer_difference(av, bv)
            if k is not None and k >= 0:
                pairs.append((k, i, j))
    if pairs and all(to_complex(x).imag == 0 for x in (*uppers, *lowers)):
        k, i, j = max(pairs)
        big_a, big_b = [uppers[t] for t in range(3) if t != i]
        return _integer_offset_3f2(big_a, big_b, lowers[1 - j], lowers[j], k, z)
    if abs(to_complex(z)) <= 0.9:
        return _pfq_series(uppers, lowers, z, None)
    why = "the reduction needs real parameters" if pairs else "no integer-offset pair"
    raise ConvergenceError(f"3F2 at z = {z}: |z| > 0.9 and {why}")


def beta_complete(a: Scalar, b: Scalar):
    """beta(a, b) = Gamma(a) Gamma(b) / Gamma(a+b); PoleError when a, b or
    a+b is a pole of Gamma."""
    apb = to_complex(a) + to_complex(b)
    if is_nonpositive_integer(a) or is_nonpositive_integer(b) or is_nonpositive_integer(apb):
        raise PoleError(f"beta({a}, {b}) hits gamma poles")
    return gamma(a) * gamma(b) / gamma(apb)


def beta_incomplete(a: Scalar, b: Scalar, z: Scalar):
    """B(a, b; z) = (z^a / a) 2F1(a, 1-b; a+1; z)."""
    if is_nonpositive_integer(a):
        raise ParamError(f"incomplete beta needs a not in -N0, got a = {a}")
    f = hyp2f1(a, 1 - b, a + 1, z)
    return cpow(z, a) / a * f
