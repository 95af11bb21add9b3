"""Universal-envelope actions of the current/Virasoro pair on a highest
weight vector, using only the displayed brackets

    [J_m, J_n] = -m delta_{m+n},
    [L_m, J_n] = -m(m+1)/2 delta_{m+n} - n J_{m+n},
    [L_m, L_n] = (m-n) L_{m+n} + (c/12) m(m^2-1) delta_{m+n},  c = 2,

and J_n v = j delta_{n,0} v, L_n v = h delta_{n,0} v for n >= 0.  This layer
lets the two displayed forms of the degenerate vector at charge 1/2 be
compared before any expansion into ghost modes.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..lincomb import LinComb
from .expr import CURRENT, VIRASORO, Mode, _current_squared, _singlet, mode

_RANK = {CURRENT: 0, VIRASORO: 1}

Word = Tuple[Mode, ...]

CENTRAL_CHARGE = Fraction(2)


class JLVector(LinComb):
    """Exact vector J_{a_1}..J_{a_p} L_{b_1}..L_{b_q} |j, h> in PBW form."""

    __slots__ = ("j", "h")
    exact = True

    def __init__(self, j, h, terms: Optional[Dict[Word, Fraction]] = None):
        self.j = Fraction(j)
        self.h = Fraction(h)
        LinComb.__init__(self, terms)

    @classmethod
    def highest_weight(cls, j, h) -> "JLVector":
        return cls(j, h, {(): Fraction(1)})

    def base(self) -> Tuple[Fraction, Fraction]:
        return (self.j, self.h)

    def _like(self, terms: Dict[Word, Fraction]) -> "JLVector":
        return JLVector(self.j, self.h, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "JLVector[0]"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            body = "*".join(f"{f}[{n}]" for f, n in w) or "1"
            bits.append(f"({self.terms[w]})*{body}|{self.j},{self.h}>")
        return "JLVector[" + " + ".join(bits) + "]"


def _bracket(x: Mode, y: Mode) -> List[Tuple[Fraction, Optional[Mode]]]:
    """[x, y] as a list of (coefficient, mode-or-identity)."""
    (fx, m), (fy, n) = x, y
    out: List[Tuple[Fraction, Optional[Mode]]] = []
    if fx == CURRENT and fy == CURRENT:
        if m + n == 0:
            out.append((Fraction(-m), None))
    elif fx == VIRASORO and fy == CURRENT:
        if m + n == 0:
            out.append((Fraction(-m * (m + 1), 2), None))
        out.append((Fraction(-n), mode(CURRENT, m + n)))
    elif fx == CURRENT and fy == VIRASORO:
        for c, md in _bracket(y, x):
            out.append((-c, md))
    else:  # Virasoro pair, central charge 2
        out.append((Fraction(m - n), mode(VIRASORO, m + n)))
        if m + n == 0:
            out.append((CENTRAL_CHARGE * m * (m * m - 1) / 12, None))
    return [(c, md) for c, md in out if c != 0]


def _canonical_before(x: Mode, head: Mode) -> bool:
    return (_RANK[x[0]], x[1]) <= (_RANK[head[0]], head[1])


def apply_mode(x: Mode, vec: JLVector) -> JLVector:
    """Exact action of J_n or L_n, reducing to PBW canonical form."""
    out: Dict[Word, Fraction] = {}
    for word, coeff in vec.terms.items():
        _mode_times_word(x, word, vec, coeff, out)
    return vec._like(out)


def _mode_times_word(x: Mode, word: Word, proto: JLVector, coeff, out) -> None:
    """out += coeff * x word |j, h>, in PBW form."""
    fam, n = x
    if not word:
        if n == 0:
            eigen = proto.j if fam == CURRENT else proto.h
            out[()] = out.get((), 0) + coeff * eigen
        elif n < 0:
            out[(x,)] = out.get((x,), 0) + coeff
        return
    head, rest = word[0], word[1:]
    if n < 0 and _canonical_before(x, head):
        key = (x,) + word
        out[key] = out.get(key, 0) + coeff
        return
    # x head rest = head (x rest) + [x, head] rest
    inner: Dict[Word, Fraction] = {}
    _mode_times_word(x, rest, proto, coeff, inner)
    for w, c in inner.items():
        if c:
            _mode_times_word(head, w, proto, c, out)
    for c, md in _bracket(x, head):
        if md is None:
            out[rest] = out.get(rest, 0) + coeff * c
        else:
            _mode_times_word(md, rest, proto, coeff * c, out)


def apply_current(vec: JLVector, n: int) -> JLVector:
    return apply_mode(mode(CURRENT, n), vec)


def apply_virasoro(vec: JLVector, n: int) -> JLVector:
    return apply_mode(mode(VIRASORO, n), vec)


def apply_current_squared(vec: JLVector, n: int) -> JLVector:
    """(JJ)_n = sum_a :J_a J_{n-a}:, the larger index acting first."""
    grade = max((sum(abs(k) for _f, k in w) for w in vec.terms), default=0)
    return _current_squared(vec, n, grade, apply_current)


def apply_singlet(vec: JLVector, n: int) -> JLVector:
    """Ls_n = L_n + (1/2)(JJ)_n - ((n+1)/2) J_n."""
    return _singlet(vec, n, apply_virasoro, apply_current_squared, apply_current)
