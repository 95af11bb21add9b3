"""The gamma_0-localized mode algebra and its charge-shift automorphisms.

Adjoining the formal inverse of gamma_0 gives an associative algebra with

    [b_m, g0^p] = -p delta_{m,0} g0^{p-1},   [g_m, g0^p] = 0,   p in Z.

Conjugation by gamma_0^k extends to the one-parameter family of
automorphisms Theta_k, k rational here, which fixes every ghost mode except
b_0, where Theta_k(b_0) = b_0 + k g0^{-1}.  Charges shift uniformly by k
while L_0 is untouched.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from ..errors import ContextError
from ..lincomb import LinComb, accumulate
from .expr import BETA, GAMMA, Mode, ModeExpr, Word, is_annihilator, mode, normal_order

LocalKey = Tuple[int, Word]  # (gamma_0 power, gamma_0-free ghost word)


class LocalExpr(LinComb):
    """Linear combination of g0^p * (normal-ordered gamma_0-free word)."""

    __slots__ = ()
    exact = True

    @classmethod
    def zero(cls) -> "LocalExpr":
        return cls({})

    @classmethod
    def one(cls, coeff=Fraction(1)) -> "LocalExpr":
        return cls({(0, ()): Fraction(coeff)})

    @classmethod
    def g0_power(cls, p: int, coeff=Fraction(1)) -> "LocalExpr":
        return cls({(int(p), ()): Fraction(coeff)})

    @classmethod
    def of_mode(cls, m: Mode) -> "LocalExpr":
        fam, n = m
        if fam == GAMMA and n == 0:
            return cls.g0_power(1)
        return cls({(0, (m,)): Fraction(1)})

    @classmethod
    def beta(cls, n: int) -> "LocalExpr":
        return cls.of_mode(mode(BETA, n))

    @classmethod
    def gamma(cls, n: int) -> "LocalExpr":
        return cls.of_mode(mode(GAMMA, n))

    def __repr__(self) -> str:
        if not self.terms:
            return "LocalExpr[0]"
        bits = []
        for (p, w), c in sorted(
            self.terms.items(), key=lambda kv: (kv[0][0], len(kv[0][1]), kv[0][1])
        ):
            body = "*".join(f"{m[0]}[{m[1]}]" for m in w) or "1"
            g0 = f"g0^{p}*" if p else ""
            bits.append(f"({c})*{g0}{body}")
        return "LocalExpr[" + " + ".join(bits) + "]"

    def __mul__(self, other: "LocalExpr") -> "LocalExpr":
        out: Dict[LocalKey, Fraction] = {}
        for (p1, w1), c1 in self.terms.items():
            for (p2, w2), c2 in other.terms.items():
                accumulate(out, _normalize_product(p1, w1, p2, w2).terms, c1 * c2)
        return LocalExpr(out)

    def commutator(self, other: "LocalExpr") -> "LocalExpr":
        return self * other - other * self


def _normalize_product(p1: int, w1: Word, p2: int, w2: Word) -> LocalExpr:
    """Normalize g0^{p1} w1 g0^{p2} w2 into canonical LocalExpr form."""
    # move g0^{p2} leftwards through w1: only b_0 factors interact,
    # b_0 g0^p = g0^p b_0 - p g0^{p-1}.
    if p2 == 0:
        merged = _normal_order_word(w1 + w2)
        return LocalExpr({(p1, w): c for w, c in merged.items()})
    # find the rightmost b_0 in w1; if none, the powers merge
    for idx in range(len(w1) - 1, -1, -1):
        if w1[idx] == (BETA, 0):
            left, right = w1[:idx], w1[idx + 1 :]
            # b_0 g0^{p2} = g0^{p2} b_0 - p2 g0^{p2-1}
            return _normalize_product(p1, left, p2, ((BETA, 0),) + right + w2) - (
                _normalize_product(p1, left, p2 - 1, right + w2).scale(p2))
    merged = _normal_order_word(w1 + w2)
    return LocalExpr({(p1 + p2, w): c for w, c in merged.items()})


def _normal_order_word(word: Word) -> Dict[Word, Fraction]:
    """Normal order a gamma_0-free ghost word; contractions may produce
    gamma_0 modes only through [b_0, g_0], which cannot appear here."""
    expr = normal_order(ModeExpr({word: Fraction(1)}))
    out: Dict[Word, Fraction] = {}
    for w, c in expr.terms.items():
        if any(m == (GAMMA, 0) for m in w):
            raise ContextError("gamma_0 leaked into a gamma_0-free word")
        out[w] = c
    return out


def localized_twist(e: LocalExpr, k) -> LocalExpr:
    """Theta_k: b_0 -> b_0 + k g0^{-1}; all other modes and g0^{+-1} fixed."""
    if not isinstance(e, LocalExpr):
        raise ContextError(
            "localized_twist needs the localized algebra (g0 invertible); "
            "wrap the expression in LocalExpr first"
        )
    kf = Fraction(k)
    out: Dict[LocalKey, Fraction] = {}
    for (p, w), c in e.terms.items():
        factor = LocalExpr.g0_power(p, c)
        for m in w:
            if m == (BETA, 0):
                piece = LocalExpr.beta(0) + LocalExpr.g0_power(-1, kf)
            else:
                piece = LocalExpr.of_mode(m)
            factor = factor * piece
        accumulate(out, factor.terms)
    return LocalExpr(out)

