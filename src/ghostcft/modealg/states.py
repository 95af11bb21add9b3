"""Exact actions of mode expressions and composite modes on ghost states.

A ghost primary phi_j^ell is annihilated by b_{n-ell} and g_{n+ell} for
n >= 1, while b_{-ell} phi_j^ell = j phi_{j+1}^ell and
g_{ell} phi_j^ell = phi_{j-1}^ell.  States are exact rational combinations
of creation-mode monomials on charge-shifted primaries.

Composite modes are the bilinears

    J_n = sum_a :b_a g_{n-a}:,    L_n = sum_c c :b_{n-c} g_c:,
    Ls_n = L_n + (1/2) sum_a :J_a J_{n-a}: - (n+1)/2 J_n.

J and L act as derivations through their free-field brackets

    [J_n, b_k] = b_{n+k},        [J_n, g_k] = -g_{n+k},
    [L_n, b_k] = -k b_{n+k},     [L_n, g_k] = -(n+k) g_{n+k},

so that X_n x_1..x_r phi = sum_i x_1..[X_n, x_i]..x_r phi + x_1..x_r X_n phi,
where the mode [X_n, x_i] moves right to phi, contracting with the creators
after it.  Only the last term needs the bilinears, and on a bare primary
they sum to a closed form: X_n phi = 0 for n >= 1,
J_0 phi_j = (j - ell) phi_j, L_0 phi_j = (j ell - ell(ell+1)/2) phi_j, and
for n <= -1

    J_n phi_j = b_{n-ell} phi_{j-1} + j g_{n+ell} phi_{j+1}
                + sum_{c=n+ell+1}^{ell-1} g_c b_{n-c} phi_j,
    L_n phi_j = ell b_{n-ell} phi_{j-1} + (n+ell) j g_{n+ell} phi_{j+1}
                + sum_{c=n+ell+1}^{ell-1} c g_c b_{n-c} phi_j.

J and L need no mode window.  (JJ)_n sums :J_a J_{n-a}: over
|a| <= depth + |n| + |ell| + 6, where depth is the largest |index| of a
creator in the state; its boundary terms must vanish, else TruncationError.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import TruncationError
from ..lincomb import LinComb, accumulate
from .expr import (
    BETA, CURRENT, GAMMA, SINGLET, VIRASORO, Mode, ModeExpr, Word, _singlet, jj_pairs, mode,
)

Monomial = Tuple[Mode, ...]  # sorted creation modes
StateKey = Tuple[Monomial, int]  # (creators, charge shift)


def _sort_monomial(modes: Iterable[Mode]) -> Monomial:
    return tuple(sorted(modes, key=lambda m: (m[0], -m[1])))


class GhostState(LinComb):
    """Exact vector in (a spectral flow of) a relaxed module.

    base charge j (exact rational), flow ell; terms map (creators, k) to the
    coefficient of creators * phi_{j+k}^ell.
    """

    __slots__ = ("j", "ell")
    exact = True

    def __init__(self, j, ell: int = 0, terms: Optional[Dict[StateKey, Fraction]] = None):
        self.j = Fraction(j)
        self.ell = int(ell)
        LinComb.__init__(self, terms)

    @classmethod
    def primary(cls, j, ell: int = 0) -> "GhostState":
        return cls(j, ell, {((), 0): Fraction(1)})

    def base(self) -> Tuple[Fraction, int]:
        return (self.j, self.ell)

    def _like(self, terms: Dict[StateKey, Fraction]) -> "GhostState":
        return GhostState(self.j, self.ell, terms)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (mono, k) in sorted(self.terms, key=lambda key: (len(key[0]), key[0], key[1])):
            c = self.terms[(mono, k)]
            body = "*".join(f"{m[0]}[{m[1]}]" for m in mono)
            head = f"{body}*" if body else ""
            bits.append(f"({c})*{head}phi[{self.j}+{k}]^{self.ell}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"GhostState[{self.to_text()}]"

    def max_depth(self) -> int:
        depth = 0
        for (mono, _k) in self.terms:
            for (_fam, n) in mono:
                depth = max(depth, abs(n))
        return depth


def _apply_ghost_mode(state: GhostState, m: Mode) -> GhostState:
    """Apply a single b/g mode exactly."""
    fam, n = m
    j, ell = state.j, state.ell
    out: Dict[StateKey, Fraction] = {}

    def add(key: StateKey, val: Fraction):
        if val != 0:
            out[key] = out.get(key, Fraction(0)) + val

    for (mono, shift), coeff in state.terms.items():
        if fam == BETA:
            # contractions with gamma creators: [b_n, g_x] = -delta_{n+x}
            for idx, (mf, mx) in enumerate(mono):
                if mf == GAMMA and mx == -n:
                    reduced = mono[:idx] + mono[idx + 1 :]
                    add((reduced, shift), -coeff)
            if n <= -ell - 1:
                add((_sort_monomial(mono + (m,)), shift), coeff)
            elif n == -ell:
                add((mono, shift + 1), coeff * (j + shift))
            # n >= 1 - ell: annihilates the primary
        elif fam == GAMMA:
            # contractions with beta creators: [g_n, b_x] = +delta_{n+x}
            for idx, (mf, mx) in enumerate(mono):
                if mf == BETA and mx == -n:
                    reduced = mono[:idx] + mono[idx + 1 :]
                    add((reduced, shift), coeff)
            if n <= ell - 1:
                add((_sort_monomial(mono + (m,)), shift), coeff)
            elif n == ell:
                add((mono, shift - 1), coeff)
            # n >= ell + 1: annihilates the primary
        else:
            raise ValueError(f"not a ghost mode: {m}")
    return state._like(out)


def apply_word(state: GhostState, word: Word) -> GhostState:
    """Apply a word of modes, rightmost first; composites expand."""
    current = state
    for m in reversed(word):
        fam, n = m
        if fam in (BETA, GAMMA):
            current = _apply_ghost_mode(current, m)
        elif fam == CURRENT:
            current = act_current(current, n)
        elif fam == VIRASORO:
            current = act_virasoro(current, n)
        elif fam == SINGLET:
            current = act_singlet(current, n)
        else:
            raise ValueError(f"cannot act with mode family {fam!r}")
    return current


def act(expr: ModeExpr, state: GhostState) -> GhostState:
    out: Dict[StateKey, Fraction] = {}
    for word, coeff in expr.terms.items():
        accumulate(out, apply_word(state, word).terms, coeff)
    return state._like(out)


def _on_primary(j: Fraction, ell: int, n: int, weight, eigenvalue):
    """X_n phi_j^ell for X_n = sum_c weight(c) :b_{n-c} g_c:, as
    (creators, charge shift, coefficient) triples."""
    if n > 0:
        return ()
    if n == 0:
        return (((), 0, eigenvalue(j, ell)),)
    out = [((mode(BETA, n - ell),), -1, weight(ell)),
           ((mode(GAMMA, n + ell),), 1, weight(n + ell) * j)]
    out += [((mode(BETA, n - c), mode(GAMMA, c)), 0, weight(c)) for c in range(n + ell + 1, ell)]
    return out


def _derivation(state: GhostState, n: int, weight, eigenvalue) -> GhostState:
    """X_n = sum_c weight(c) :b_{n-c} g_c: acting as the derivation
    X_n x_1..x_r phi = sum_i x_1..[X_n, x_i]..x_r phi + x_1..x_r X_n phi;
    eigenvalue(j, ell) is X_0 on phi_j^ell."""
    j, ell = state.j, state.ell
    out: Dict[StateKey, Fraction] = {}
    for (mono, shift), coeff in state.terms.items():
        for i, (fam, k) in enumerate(mono):
            # [X_n, b_k] = weight(-k) b_{n+k},  [X_n, g_k] = -weight(n+k) g_{n+k}
            c = weight(-k) if fam == BETA else -weight(n + k)
            if not c:
                continue
            c *= coeff
            m = n + k
            rest = mono[:i] + mono[i + 1 :]
            # x_m moves right to phi, contracting with the creators after it:
            # [b_m, g_{-m}] = -1, [g_m, b_{-m}] = +1
            conj, sign, zero_grade = (GAMMA, -1, -ell) if fam == BETA else (BETA, 1, ell)
            for a in range(i + 1, len(mono)):
                if mono[a] == (conj, -m):
                    key = (mono[:i] + mono[i + 1 : a] + mono[a + 1 :], shift)
                    out[key] = out.get(key, 0) + sign * c
            if m < zero_grade:
                key = (_sort_monomial(rest + ((fam, m),)), shift)
            elif m == zero_grade:
                if fam == BETA:  # b_{-ell} phi_j = j phi_{j+1}
                    key, c = (rest, shift + 1), c * (j + shift)
                else:  # g_ell phi_j = phi_{j-1}
                    key = (rest, shift - 1)
            else:
                continue
            out[key] = out.get(key, 0) + c
        for extra, dshift, c in _on_primary(j + shift, ell, n, weight, eigenvalue):
            key = (_sort_monomial(mono + extra) if extra else mono, shift + dshift)
            out[key] = out.get(key, 0) + c * coeff
    return state._like(out)


def act_current(state: GhostState, n: int) -> GhostState:
    """J_n = sum_a :b_a g_{n-a}: acting exactly."""
    return _derivation(state, n, lambda c: 1, lambda j, ell: j - ell)


def act_virasoro(state: GhostState, n: int) -> GhostState:
    """L_n = sum_c c :b_{n-c} g_c: acting exactly."""
    return _derivation(state, n, lambda c: c,
                       lambda j, ell: ell * j - Fraction(ell * (ell + 1), 2))


def act_current_squared(state: GhostState, n: int) -> GhostState:
    """(JJ)_n = sum_{|a| <= w} :J_a J_{n-a}:, the larger index acting first,
    with w = depth + |n| + |ell| + 6."""
    w = state.max_depth() + abs(n) + abs(state.ell) + 6
    out: Dict[StateKey, Fraction] = {}
    for lo, hi, mult, edge in jj_pairs(n, w):
        inner = act_current(state, hi)
        if inner.is_zero():
            continue
        piece = act_current(inner, lo)
        if edge and not piece.is_zero():
            raise TruncationError("JJ window boundary term non-zero")
        accumulate(out, piece.terms, mult)
    return state._like(out)


def act_singlet(state: GhostState, n: int) -> GhostState:
    """Ls_n = L_n + (1/2)(JJ)_n - ((n+1)/2) J_n."""
    return _singlet(state, n, act_virasoro, act_current_squared, act_current)


def act_flowed(state: GhostState, m: Mode, ell: int) -> GhostState:
    """Action on the flow image sigma^ell(v): A_n sigma^ell v =
    sigma^ell(sigma^{-ell}(A_n) v)."""
    from .expr import spectral_flow_map

    expr = spectral_flow_map(ModeExpr.of(m), -ell)
    return act(expr, state)


def creation_modes(ell: int, max_level: int) -> List[Mode]:
    """Creation modes for phi^ell with |L0 grade| = |index| <= max_level."""
    out: List[Mode] = []
    for n in range(-ell - 1, -ell - 1 - max_level, -1):
        if abs(n) <= max_level + abs(ell):
            out.append(mode(BETA, n))
    for n in range(ell - 1, ell - 1 - max_level, -1):
        if abs(n) <= max_level + abs(ell):
            out.append(mode(GAMMA, n))
    return out


def basis_states(j, ell: int, max_level: int, max_factors: int = 3) -> List[GhostState]:
    """Creation monomials on phi_j^ell with total |index| <= max_level and at
    most max_factors factors; deterministic order."""
    gens = creation_modes(ell, max_level)
    seen = set()
    states: List[GhostState] = []

    def rec(start: int, chosen: Tuple[Mode, ...], weight: int):
        key = _sort_monomial(chosen)
        if key not in seen:
            seen.add(key)
            states.append(GhostState(j, ell, {(key, 0): Fraction(1)}))
        if len(chosen) >= max_factors:
            return
        for idx in range(start, len(gens)):
            m = gens[idx]
            new_weight = weight + abs(m[1])
            if new_weight > max_level:
                continue
            rec(idx, chosen + (m,), new_weight)

    rec(0, (), 0)
    return states
