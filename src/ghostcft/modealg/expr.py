"""Operator-level expressions in the ghost mode algebra.

Words are tuples of modes applied right-to-left (the rightmost factor acts
first).  The two generating families are b (weight-1 ghost) and g (weight-0
ghost) with the single non-trivial bracket [b_m, g_n] = -delta_{m+n} 1.

Normal ordering puts annihilation modes (b_n with n >= 0, g_n with n >= 1)
to the right of creation modes.  The zero modes split as: b_0 annihilation,
g_0 creation, which is the convention that makes the charge zero mode act as
g_0 b_0 on relaxed vectors and so reproduces the charge eigenvalues of the
ghost primaries.  Composite symbols J/L/Ls may appear in words; they are
opaque here and expand only when acting on states.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from ..lincomb import LinComb, accumulate

BETA = "b"
GAMMA = "g"
CURRENT = "J"
VIRASORO = "L"
SINGLET = "Ls"

_GHOST_FAMILIES = (BETA, GAMMA)
_COMPOSITE_FAMILIES = (CURRENT, VIRASORO, SINGLET)

Mode = Tuple[str, int]
Word = Tuple[Mode, ...]


def mode(family: str, n: int) -> Mode:
    return (family, int(n))


def is_annihilator(m: Mode) -> bool:
    fam, n = m
    if fam == BETA:
        return n >= 0
    if fam == GAMMA:
        return n >= 1
    raise ValueError(f"normal ordering undefined for family {fam!r}")


def bracket_ghost(x: Mode, y: Mode):
    """[x, y] for ghost modes; returns a scalar multiple of the identity."""
    (fx, nx), (fy, ny) = x, y
    if fx == BETA and fy == GAMMA and nx + ny == 0:
        return Fraction(-1)
    if fx == GAMMA and fy == BETA and nx + ny == 0:
        return Fraction(1)
    return Fraction(0)


def _current_squared(vec: LinComb, n: int, top: int, current) -> LinComb:
    """(JJ)_n v = sum_a :J_a J_{n-a}: v with current(v, k) = J_k v.

    Each pair acts once, as J_lo J_hi v with the larger index hi acting
    first, lo = n - hi and weight 2 (1 when lo = hi), for
    hi = ceil(n/2) .. top.  The sum is exact because J_hi v = 0 for every
    hi > top:

    - a ghost monomial on phi_j^ell whose creators all have |index| <= d
      takes top = d + max(d, |ell|), as states._quadratic_action does per
      monomial.  J_hi acts as a derivation; J_hi phi = 0 for
      hi >= 1, and [J_hi, x] for a creator x of index k >= -d is a mode of
      index p = hi + k > max(d, |ell|).  Moving right, that mode meets no
      creator of index -p (|-p| > d) and then annihilates phi_j^ell, since
      b_p phi = 0 for p > -ell and g_p phi = 0 for p > ell.
    - a JLVector whose PBW words have grade (sum of |index|) <= g takes
      top = g.  Every index in a PBW word is negative, so the grade is the
      L_0 level above |j, h>, and J_hi lowers the level by hi; no vector
      lies below level 0.
    """
    parts = []
    for hi in range(-(-n // 2), top + 1):
        inner = current(vec, hi)
        if inner.is_zero():
            continue
        lo = n - hi
        parts.append((current(inner, lo), 1 if lo == hi else 2))
    return vec._sum(parts)


def _singlet(vec: LinComb, n: int, virasoro, current_squared, current) -> LinComb:
    """Ls_n v = L_n v + (1/2)(JJ)_n v - ((n+1)/2) J_n v, with each composite
    acting as action(v, n)."""
    return vec._sum(((virasoro(vec, n), 1), (current_squared(vec, n), Fraction(1, 2)),
                     (current(vec, n), Fraction(-(n + 1), 2))))


_FAMILY_ORDER = {BETA: 0, GAMMA: 1}


def _creator_key(m: Mode):
    # creation modes sorted by family then descending index
    return (_FAMILY_ORDER[m[0]], -m[1])


def _annihilator_key(m: Mode):
    return (_FAMILY_ORDER[m[0]], m[1])


class ModeExpr(LinComb):
    """Finite linear combination of words with exact rational coefficients."""

    __slots__ = ()
    exact = True

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls) -> "ModeExpr":
        return cls({})

    @classmethod
    def one(cls, coeff=Fraction(1)) -> "ModeExpr":
        return cls({(): Fraction(coeff)})

    @classmethod
    def of(cls, *modes: Mode) -> "ModeExpr":
        return cls({tuple(modes): Fraction(1)})

    @classmethod
    def beta(cls, n: int) -> "ModeExpr":
        return cls.of(mode(BETA, n))

    @classmethod
    def gamma(cls, n: int) -> "ModeExpr":
        return cls.of(mode(GAMMA, n))

    @classmethod
    def current(cls, n: int) -> "ModeExpr":
        return cls.of(mode(CURRENT, n))

    @classmethod
    def virasoro(cls, n: int) -> "ModeExpr":
        return cls.of(mode(VIRASORO, n))

    # -- algebra ---------------------------------------------------------
    def __mul__(self, other: "ModeExpr") -> "ModeExpr":
        out: Dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                key = w1 + w2
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return ModeExpr(out)

    def is_pure_ghost(self) -> bool:
        return all(m[0] in _GHOST_FAMILIES for w in self.terms for m in w)

    # -- serialization ---------------------------------------------------
    def to_text(self) -> str:
        if not self.terms:
            return "0"
        def word_key(w: Word):
            return (len(w), tuple((m[0], m[1]) for m in w))
        bits = []
        for w in sorted(self.terms, key=word_key):
            c = self.terms[w]
            body = "*".join(f"{m[0]}[{m[1]}]" for m in w) if w else "1"
            bits.append(f"({c})*{body}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"ModeExpr[{self.to_text()}]"

def normal_order(expr: ModeExpr) -> ModeExpr:
    """Normal order a pure-ghost expression (idempotent, linear)."""
    if not expr.is_pure_ghost():
        raise ValueError("normal ordering is defined for pure b/g words only")
    out: Dict[Word, Fraction] = {}
    work = list(expr.terms.items())
    while work:
        word, coeff = work.pop()
        if coeff == 0:
            continue
        swap_at = None
        for i in range(len(word) - 1):
            if is_annihilator(word[i]) and not is_annihilator(word[i + 1]):
                swap_at = i
                break
        if swap_at is None:
            canon = _canonical_sorted(word)
            out[canon] = out.get(canon, Fraction(0)) + coeff
            continue
        i = swap_at
        x, y = word[i], word[i + 1]
        swapped = word[:i] + (y, x) + word[i + 2 :]
        work.append((swapped, coeff))
        delta = bracket_ghost(x, y)
        if delta != 0:
            contracted = word[:i] + word[i + 2 :]
            work.append((contracted, coeff * delta))
    return ModeExpr(out)


def _canonical_sorted(word: Word) -> Word:
    """Sort the creator and annihilator segments (members commute)."""
    creators = sorted((m for m in word if not is_annihilator(m)), key=_creator_key)
    annih = sorted((m for m in word if is_annihilator(m)), key=_annihilator_key)
    return tuple(creators) + tuple(annih)


def commutator(x: ModeExpr, y: ModeExpr) -> ModeExpr:
    """normal_order(xy - yx) for pure-ghost expressions.

    Commutators involving the composite families are exercised at the state
    level (see modealg.checks), where the bilinear expansions are finite.
    """
    return normal_order(x * y - y * x)


def spectral_flow_map(expr: ModeExpr, ell: int) -> ModeExpr:
    """The flow automorphism: b_n -> b_{n-ell}, g_n -> g_{n+ell},
    J_n -> J_n + ell delta_{n,0}, L_n -> L_n - ell J_n - ell(ell-1)/2 delta_{n,0}."""
    out: Dict[Word, Fraction] = {}
    for word, coeff in expr.terms.items():
        factor = ModeExpr.one(coeff)
        for fam, n in word:
            if fam == BETA:
                piece = ModeExpr.beta(n - ell)
            elif fam == GAMMA:
                piece = ModeExpr.gamma(n + ell)
            elif fam == CURRENT:
                piece = ModeExpr.current(n)
                if n == 0:
                    piece = piece + ModeExpr.one(Fraction(ell))
            elif fam == VIRASORO:
                piece = ModeExpr.virasoro(n) + ModeExpr.current(n).scale(-ell)
                if n == 0:
                    piece = piece + ModeExpr.one(Fraction(-ell * (ell - 1), 2))
            else:
                raise ValueError(f"spectral flow of {fam!r} modes is not defined")
            factor = factor * piece
        accumulate(out, factor.terms)
    return ModeExpr(out)
