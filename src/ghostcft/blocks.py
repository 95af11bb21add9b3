"""Conformal-block evaluators on the cross-ratio line.

Two closely related containers, both linear combinations (``LinComb``)
whose like terms merge as a sum is built:

* PowerSum -- an exact finite sum  sum_i c_i eta^{p_i} (1-eta)^{q_i} with
  rational (or numeric) coefficients and exponents, keyed by (p, q).  Closed
  under d/deta and under multiplication by eta^a (1-eta)^b, which is what
  the charge-shift recursion needs to run in exact rational arithmetic.
  ``canonical()`` picks the unique representative of an exact sum: it splits
  the sum into exponent classes, each eta^P (1-eta)^Q times a polynomial
  with int coefficients over one int denominator (``classes()``, sorted by
  class), and reduces each class (``from_classes()``).  The exact recursion
  steps those int coefficients through all its steps and reduces once at the
  end, so it returns only the terms of the closed form at any depth.

* BlockSum -- a sum of c * eta^p (1-eta)^q * payload(eta), keyed by
  (p, q, kind, params), where each payload is one of {1, 2F1(a,b;c;eta),
  3F2(...; -eta/(1-eta)), B(a,b;eta)}.  The same closure properties hold
  (payload derivatives shift parameters), so the recursion and the
  second-order BPZ operator evaluate analytically, with no finite
  differencing; a k-step numeric recursion carries (k+1)^2 merged terms
  (a numeric sum has no canonical form).  ``values_at`` evaluates a
  sequence of sums at one eta and evaluates each distinct payload once,
  in a payload dict its caller owns: ``BlockSum.value`` passes a fresh one,
  and ``correlators.WardForm`` keeps one per eta for H, H' and H''.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate as prefix_sums
from math import comb, gcd, lcm
from typing import Optional, Sequence, Tuple

from . import specfun
from .errors import ParamError, PoleError
from .lincomb import LinComb
from .scalars import Scalar, all_exact, as_fraction, cpow, is_exact, to_complex


def _strip_zero_ends(nums: list) -> Tuple[int, list]:
    """(lo, nums[lo:hi]): the coefficients without the zeros at either end,
    and the number lo of leading zeros dropped."""
    lo, hi = 0, len(nums)
    while lo < hi and nums[lo] == 0:
        lo += 1
    while hi > lo and nums[hi - 1] == 0:
        hi -= 1
    return lo, nums[lo:hi]


class PowerSum(LinComb):
    """Canonical sum of c * eta^p (1-eta)^q terms keyed by (p, q)."""

    __slots__ = ()

    # bound here, not inherited: the benchmark tracer patches these names in
    # the class's own __dict__
    __init__ = LinComb.__init__
    is_zero = LinComb.is_zero
    __add__ = LinComb.__add__
    __sub__ = LinComb.__sub__
    scale = LinComb.scale

    @classmethod
    def single(cls, coeff: Scalar, p: Scalar, q: Scalar = 0) -> "PowerSum":
        return cls({(p, q): coeff})

    @classmethod
    def zero(cls) -> "PowerSum":
        return cls({})

    def mul_power(self, dp: Scalar, dq: Scalar = 0) -> "PowerSum":
        return self.map_keys(lambda key: (key[0] + dp, key[1] + dq))

    def deriv(self) -> "PowerSum":
        out: dict = {}
        for (p, q), c in self.terms.items():
            for key, val in (((p - 1, q), c * p), ((p, q - 1), -c * q)):
                if val != 0:
                    out[key] = out.get(key, 0) + val
        return PowerSum(out)

    def eval(self, eta: Scalar) -> Scalar:
        """The sum at eta.  An exact sum at a real float eta is summed per
        exponent class: the polynomial is evaluated exactly at Fraction(eta)
        and rounded once, then multiplied by eta^P (1-eta)^Q, so its
        alternating terms do not cancel in double precision."""
        one_minus = 1 - eta
        total: Scalar = 0
        if type(eta) is float and self.is_exact():
            n, d = eta.as_integer_ratio()
            for p_frac, q_frac, p0, q0, den, nums in self.classes():
                deg = len(nums) - 1
                poly = sum(c * n**i * d**(deg - i) for i, c in enumerate(nums)) / (den * d**deg)
                total = total + poly * cpow(eta, p_frac + p0) * cpow(one_minus, q_frac + q0)
            return total
        for (p, q), c in self.terms.items():
            total = total + c * cpow(eta, p) * cpow(one_minus, q)
        return total

    def eta_polynomial(self, base_p: Scalar, base_q: Scalar):
        """Coefficients [a0, a1, ...] with self = eta^base_p (1-eta)^base_q
        * sum_k a_k eta^k; requires every term to match that shape."""
        coeffs: dict = {}
        for (p, q), c in self.terms.items():
            if q != base_q:
                raise ValueError("terms do not share the (1-eta) exponent")
            k = p - base_p
            if not (is_exact(k) and k >= 0 and as_fraction(k).denominator == 1):
                raise ValueError("term exponent is not base_p + integer")
            coeffs[int(k)] = c
        deg = max(coeffs) if coeffs else 0
        return [coeffs.get(k, Fraction(0)) for k in range(deg + 1)]

    def is_exact(self) -> bool:
        return all(
            all_exact(p, q, c) for (p, q), c in self.terms.items()
        )

    def classes(self) -> list:
        """The exact sum split by exponent class (p mod 1, q mod 1), sorted
        by class, so the split does not depend on the order of the terms.

        The monomials eta^p (1-eta)^q are overcomplete across integer
        exponent shifts.  Within a class every term is brought to the
        class-minimal q by expanding surplus (1-eta) powers, so the class is
        eta^P (1-eta)^Q sum_k a_k eta^k with a_0 != 0.  It is returned as
        (p_frac, q_frac, p0, q0, den, nums) with P = p_frac + p0,
        Q = q_frac + q0 and a_k = nums[k] / den: ``den`` is a positive int,
        ``nums`` a list of ints, and gcd(den, *nums) = 1.  A class whose
        terms cancel is left out."""
        # split each exponent once: the class is keyed by the fractional
        # parts, and the loops below work on int offsets alone
        groups: dict = {}
        for (p, q), c in self.terms.items():
            pf, qf = as_fraction(p), as_fraction(q)
            p_int = pf.numerator // pf.denominator
            q_int = qf.numerator // qf.denominator
            groups.setdefault((pf - p_int, qf - q_int), []).append(
                (p_int, q_int, as_fraction(c)))
        out = []
        for (p_frac, q_frac), entries in sorted(groups.items()):
            q_min = min(q for _p, q, _c in entries)
            den = lcm(*(c.denominator for _p, _q, c in entries))
            flat: dict = {}
            get = flat.get
            for p, q, c in entries:
                m = q - q_min
                num = c.numerator * (den // c.denominator)
                for i in range(m + 1):
                    flat[p + i] = get(p + i, 0) + num * comb(m, i)
                    num = -num
            flat = {p: c for p, c in flat.items() if c != 0}
            if flat:
                p0 = min(flat)
                nums = [flat.get(p, 0) for p in range(p0, max(flat) + 1)]
                g = gcd(den, *nums)
                out.append((p_frac, q_frac, p0, q_min, den // g, [c // g for c in nums]))
        return out

    @classmethod
    def from_classes(cls, classes) -> "PowerSum":
        """The canonical sum of classes given as by ``classes()``, each with
        any polynomial nums / den: zero end coefficients are dropped and
        every factor (1-eta) of the polynomial is divided out, leaving the
        unique representative that vanishes at neither eta = 0 nor 1."""
        out: dict = {}
        for p_frac, q_frac, p0, q0, den, nums in classes:
            lo, nums = _strip_zero_ends(nums)
            p0 += lo
            # A(1) = 0: A(eta) = (1-eta) B(eta) with B_j = a_0 + ... + a_j
            while len(nums) > 1 and sum(nums) == 0:
                nums = list(prefix_sums(nums[:-1]))
                q0 += 1
            q = q_frac + q0
            for k, c in enumerate(nums):
                if c != 0:
                    out[(p_frac + (p0 + k), q)] = Fraction(c, den)
        return cls(out)

    def canonical(self) -> "PowerSum":
        """Unique normal form for exact sums: ``classes()`` reduced by
        ``from_classes()``."""
        if not self.is_exact():
            raise ValueError("canonical form is defined for exact sums")
        return PowerSum.from_classes(self.classes())

    def equals(self, other: "PowerSum") -> bool:
        """Structural equality modulo the integer-shift redundancy."""
        return self.canonical().terms == other.canonical().terms

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (p, q), c in sorted(self.terms.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
            bits.append(f"({c})*e^({p})*(1-e)^({q})")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"PowerSum[{self.to_text()}]"

    def to_blocksum(self) -> "BlockSum":
        return BlockSum({(p, q, "pow", ()): c for (p, q), c in self.terms.items()})


def _payload_value(kind: str, params: Tuple[Scalar, ...], eta: Scalar) -> Scalar:
    """The payload of a BlockSum term at eta.

    kind: 'pow' (payload 1), '2f1' (params (a,b,c), argument eta),
    '3f2w' (params (a1,a2,a3,b1,b2), argument -eta/(1-eta)),
    'incbeta' (params (a,b), argument eta).
    """
    if kind == "pow":
        return 1
    if kind == "2f1":
        a, b, c = params
        return specfun.hyp2f1(a, b, c, eta)
    if kind == "3f2w":
        w = -to_complex(eta) / (1 - to_complex(eta))
        return specfun.hyp3f2(*params, w)
    if kind == "incbeta":
        a, b = params
        return specfun.beta_incomplete(a, b, eta)
    raise ParamError(f"unknown payload kind {kind!r}")


def values_at(sums: Sequence["BlockSum"], eta: Scalar, payloads: dict) -> list:
    """The value of each sum in ``sums`` at eta, as a list of complex.

    ``payloads``, owned by the caller, holds payloads at this eta only,
    keyed by (kind, params, the types of params); each is evaluated the
    first time a term of any sum needs it.  The types are in the key
    because an exact parameter can take another route through ``specfun``
    than an equal float.  Each term is c * eta^p, times (1-eta)^q when
    q != 0, times its payload, added in the order of the sum."""
    one_minus = 1 - to_complex(eta)
    out = []
    for bs in sums:
        total = 0j
        for (p, q, kind, params), c in bs.terms.items():
            # a factor (1-eta)^0 or a payload 1 is skipped, not multiplied in
            term = c * cpow(eta, p)
            if q != 0:
                term = term * cpow(one_minus, q)
            if kind != "pow":
                key = (kind, params, tuple(map(type, params)))
                payload = payloads.get(key)
                if payload is None:
                    payload = payloads[key] = _payload_value(kind, params, eta)
                term = term * payload
            total += term  # an exact term converts to complex here
        out.append(total)
    return out


class BlockSum(LinComb):
    """Sum of c * eta^p (1-eta)^q * payload(eta) keyed by (p, q, kind,
    params); closed under d/deta and prefactor shifts."""

    __slots__ = ()

    # bound here, not inherited: the benchmark tracer patches these names in
    # the class's own __dict__
    __init__ = LinComb.__init__
    __add__ = LinComb.__add__
    __sub__ = LinComb.__sub__
    scale = LinComb.scale

    @classmethod
    def constant(cls, value: Scalar) -> "BlockSum":
        return cls({(0, 0, "pow", ()): value})

    @classmethod
    def power(cls, coeff: Scalar, p: Scalar, q: Scalar = 0) -> "BlockSum":
        return cls({(p, q, "pow", ()): coeff})

    @classmethod
    def hyp2f1(cls, coeff: Scalar, p: Scalar, q: Scalar, a, b, c) -> "BlockSum":
        return cls({(p, q, "2f1", (a, b, c)): coeff})

    @classmethod
    def hyp3f2w(cls, coeff: Scalar, p: Scalar, q: Scalar, uppers, lowers) -> "BlockSum":
        return cls({(p, q, "3f2w", (*uppers, *lowers)): coeff})

    @classmethod
    def incomplete_beta(cls, coeff: Scalar, p: Scalar, q: Scalar, a, b) -> "BlockSum":
        return cls({(p, q, "incbeta", (a, b)): coeff})

    def mul_power(self, dp: Scalar, dq: Scalar = 0) -> "BlockSum":
        return self.map_keys(lambda key: (key[0] + dp, key[1] + dq, key[2], key[3]))

    def deriv(self) -> "BlockSum":
        out: dict = {}

        def add(key, c):
            out[key] = out.get(key, 0) + c

        for (p, q, kind, params), c in self.terms.items():
            if p != 0:
                add((p - 1, q, kind, params), c * p)
            if q != 0:
                add((p, q - 1, kind, params), -c * q)
            if kind == "2f1":
                a, b, cc = params
                if cc == 0:
                    raise PoleError(f"d/deta of the payload 2F1({a}, {b}; {cc}; eta) "
                                    "divides by its lower parameter c = 0")
                add((p, q, "2f1", (a + 1, b + 1, cc + 1)), c * a * b / cc)
            elif kind == "3f2w":
                a1, a2, a3, b1, b2 = params
                if b1 * b2 == 0:
                    raise PoleError(f"d/deta of the payload 3F2({a1}, {a2}, {a3}; {b1}, {b2}; "
                                    "-eta/(1-eta)) divides by its lower parameters b1 * b2 = 0")
                # d/deta 3F2(w(eta)) = 3F2'(w) * w'(eta), w' = -1/(1-eta)^2
                add((p, q - 2, "3f2w", (a1 + 1, a2 + 1, a3 + 1, b1 + 1, b2 + 1)),
                    -(c * a1 * a2 * a3 / (b1 * b2)))
            elif kind == "incbeta":
                a, b = params
                add((p + a - 1, q + b - 1, "pow", ()), c)
        return BlockSum(out)

    def value(self, eta: Scalar) -> complex:
        """The sum at eta, as a complex.  A payload that several terms
        share, at different (p, q), is evaluated once; nothing is kept
        between calls."""
        return values_at((self,), eta, {})[0]

    def exact_value_terminating(self, eta: Scalar):
        """Exact evaluation when every payload terminates and inputs are exact."""
        one_minus = Fraction(1) - as_fraction(eta)
        total = Fraction(0)
        for (p, q, kind, params), c in self.terms.items():
            total = total + c * cpow(eta, p) * cpow(one_minus, q) * _payload_value(
                kind, params, eta)
        return total

    def is_exact(self) -> bool:
        return all(
            all_exact(c, p, q, *params) for (p, q, _kind, params), c in self.terms.items()
        )

    def try_powersum(self) -> Optional[PowerSum]:
        if any(kind != "pow" for (_p, _q, kind, _params) in self.terms):
            return None
        return PowerSum({(p, q): c for (p, q, _kind, _params), c in self.terms.items()})

    def __repr__(self) -> str:
        return f"BlockSum<{len(self.terms)} terms>"


def as_blocksum(block) -> BlockSum:
    if isinstance(block, BlockSum):
        return block
    if isinstance(block, PowerSum):
        return block.to_blocksum()
    raise TypeError(f"not a block: {block!r}")


def exact_series(block, order: int, base_p=None) -> Tuple[Fraction, list]:
    """Expand an exact block around eta=0 as eta^p0 * sum_k a_k eta^k.

    Every exponent and parameter must be rational; 2F1 payloads expand with
    exact Pochhammer coefficients; (1-eta)^q uses the generalized binomial
    series.  Returns (p0, [a_0 ... a_order]).
    """
    bs = as_blocksum(block)
    prefs = []
    for p, _q, kind, _params in bs.terms:
        if kind not in ("pow", "2f1"):
            raise ValueError(f"exact series not supported for payload {kind}")
        prefs.append(as_fraction(p))
    if not prefs:
        return Fraction(0), [Fraction(0)] * (order + 1)
    p0 = min(prefs) if base_p is None else as_fraction(base_p)
    coeffs = [Fraction(0)] * (order + 1)
    for (p, q, kind, params), coeff in bs.terms.items():
        shift = as_fraction(p) - p0
        if shift.denominator != 1 or shift < 0:
            raise ValueError("term exponents differ by non-integers")
        shift_i = int(shift)
        qf = as_fraction(q)
        cf = as_fraction(coeff)
        # (1-eta)^q coefficients
        binom = [Fraction(1)]
        for m in range(1, order + 1):
            binom.append(binom[-1] * (qf - m + 1) / m * -1)
        if kind == "pow":
            payload = [Fraction(1)] + [Fraction(0)] * order
        else:
            a, b, c = map(as_fraction, params)
            payload = [Fraction(1)]
            term = Fraction(1)
            for n in range(order):
                if c + n == 0:
                    raise ValueError("2F1 series pole in exact expansion")
                term = term * (a + n) * (b + n) / ((c + n) * (n + 1))
                payload.append(term)
        for k in range(shift_i, order + 1):
            acc = Fraction(0)
            for m in range(k - shift_i + 1):
                acc += binom[m] * payload[k - shift_i - m]
            coeffs[k] += cf * acc
    return p0, coeffs
