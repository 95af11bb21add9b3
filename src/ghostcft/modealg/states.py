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

No action needs a mode window.  (JJ)_n sums the pairs J_lo J_hi, hi acting
first, up to hi = d + max(d, |ell|), with d the largest |index| of a creator
in the state: past that bound J_hi vanishes on the state (the proof is at
expr._current_squared).

Arithmetic runs on integers.  A state keeps its exact ``Fraction`` terms
and, built once, its integer form: one denominator den > 0 and an int
numerator per term, with gcd(den, numerators) = 1.  For j = p/q every
coefficient of J_n or L_n on one monomial times phi_{j+k}^ell lies in
Z/(2q), so that unit action is a list of int numerators over 2q; an action
sums them against the state's numerators and reduces once.  Sums, scalings
and the (JJ)_n and Ls_n combinations add integer forms over a common
denominator.  Within one bracket check (checks._brackets_hold) the unit
actions are memoised per (J or L, n, j, ell, monomial, k); the memo is
dropped when the check returns or raises.  Outside a check nothing is
remembered.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Tuple

from ..lincomb import LinComb, accumulate
from .expr import (
    BETA, CURRENT, GAMMA, SINGLET, VIRASORO, Mode, ModeExpr, Word, _current_squared, _singlet,
    mode,
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

    __slots__ = ("j", "ell", "_ints")

    def __init__(self, j, ell: int = 0, terms: Optional[Dict[StateKey, Fraction]] = None):
        self.j = Fraction(j)
        self.ell = int(ell)
        self._ints = None
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

    def _integer_form(self) -> Tuple[int, Dict[StateKey, int]]:
        """(den, nums): the terms are nums[key] / den, with den > 0 and
        gcd(den, *nums) = 1; built on first use."""
        if self._ints is None:
            den = lcm(*(c.denominator for c in self.terms.values()))
            self._ints = (den, {key: c.numerator * (den // c.denominator)
                                for key, c in self.terms.items()})
        return self._ints

    def _from_ints(self, den: int, nums: Dict[StateKey, int]) -> "GhostState":
        """The state with terms nums[key] / den, reduced once."""
        g = gcd(den, *nums.values())
        den //= g
        ints = {key: c // g for key, c in nums.items() if c}
        out = self._like({key: Fraction(c, den) for key, c in ints.items()})
        out._ints = (den, ints)
        return out

    def _sum(self, parts) -> "GhostState":
        """sum of factor * state over the (state, factor) pairs, on integer
        forms over one common denominator."""
        forms = []
        for state, factor in parts:
            assert state.base() == self.base(), "incompatible base"
            if not isinstance(factor, (int, Fraction)):
                factor = Fraction(factor)
            den, nums = state._integer_form()
            forms.append((den * factor.denominator, factor.numerator, nums))
        den = lcm(*(d for d, _f, _nums in forms))
        out: Dict[StateKey, int] = {}
        get = out.get
        for d, f, nums in forms:
            f *= den // d
            for key, c in nums.items():
                out[key] = get(key, 0) + f * c
        return self._from_ints(den, out)

    def _combine(self, other: "GhostState", factor) -> "GhostState":
        return self._sum(((self, 1), (other, factor)))

    def scale(self, factor) -> "GhostState":
        return self._sum(((self, factor),))

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


def _unit_action(op: str, n: int, key: StateKey, j: Fraction,
                 ell: int) -> Tuple[Tuple[StateKey, int], ...]:
    """X_n on mono * phi_{j+shift}^ell for key = (mono, shift) and X = J (op
    CURRENT, weight 1) or L (op VIRASORO, weight c), as (key, numerator)
    pairs over 2q, with j = p/q: every coefficient of the derivation lies in
    Z/(2q)."""
    mono, shift = key
    q = j.denominator
    charge = j.numerator + q * shift  # q (j + shift)
    two_q = 2 * q
    current = op == CURRENT
    weight = (lambda c: 1) if current else (lambda c: c)
    out: Dict[StateKey, int] = {}
    for i, (fam, k) in enumerate(mono):
        # [X_n, b_k] = weight(-k) b_{n+k},  [X_n, g_k] = -weight(n+k) g_{n+k}
        m = n + k
        c = weight(-k) if fam == BETA else -weight(m)
        if not c:
            continue
        rest = mono[:i] + mono[i + 1 :]
        # x_m moves right to phi, contracting with the creators after it:
        # [b_m, g_{-m}] = -1, [g_m, b_{-m}] = +1
        conj, sign, zero_grade = (GAMMA, -1, -ell) if fam == BETA else (BETA, 1, ell)
        for a in range(i + 1, len(mono)):
            if mono[a] == (conj, -m):
                image = (mono[:i] + mono[i + 1 : a] + mono[a + 1 :], shift)
                out[image] = out.get(image, 0) + sign * c * two_q
        if m < zero_grade:
            image, c = (_sort_monomial(rest + ((fam, m),)), shift), c * two_q
        elif m == zero_grade:
            if fam == BETA:  # b_{-ell} phi_j = j phi_{j+1}
                image, c = (rest, shift + 1), 2 * c * charge
            else:  # g_ell phi_j = phi_{j-1}
                image, c = (rest, shift - 1), c * two_q
        else:
            continue
        out[image] = out.get(image, 0) + c
    # X_n on the bare primary phi_{j+shift}^ell
    if n == 0:
        # J_0 phi_j = (j - ell) phi_j,  L_0 phi_j = (j ell - ell(ell+1)/2) phi_j
        eigen = 2 * (charge - q * ell) if current else 2 * ell * charge - q * ell * (ell + 1)
        out[key] = out.get(key, 0) + eigen
    elif n < 0:
        primary = [((mode(BETA, n - ell),), -1, weight(ell) * two_q),
                   ((mode(GAMMA, n + ell),), 1, 2 * weight(n + ell) * charge)]
        primary += [((mode(BETA, n - c), mode(GAMMA, c)), 0, weight(c) * two_q)
                    for c in range(n + ell + 1, ell)]
        for extra, dshift, c in primary:
            image = (_sort_monomial(mono + extra), shift + dshift)
            out[image] = out.get(image, 0) + c
    return tuple((image, c) for image, c in out.items() if c)


# The unit actions of one check run, keyed by (op, n, p, q, ell) for the
# base charge j = p/q and then by (mono, shift); None outside a run.
_UNITS: ContextVar[Optional[dict]] = ContextVar("ghostcft_unit_actions", default=None)


@contextmanager
def _memoised():
    """Within the block, J_n and L_n look up their action on each monomial
    in one memo, dropped when the block ends (also on a raise)."""
    token = _UNITS.set({})
    try:
        yield
    finally:
        _UNITS.reset(token)


def _derivation(state: GhostState, n: int, op: str) -> GhostState:
    """X_n = sum_c weight(c) :b_{n-c} g_c: acting as the derivation
    X_n x_1..x_r phi = sum_i x_1..[X_n, x_i]..x_r phi + x_1..x_r X_n phi,
    on the integer form of the state: the numerators of each unit action
    (over 2q) are summed with the state's numerators (over den), and the
    result is reduced once."""
    j, ell = state.j, state.ell
    den, nums = state._integer_form()
    memo = _UNITS.get()
    outer = (op, n, j.numerator, j.denominator, ell)
    units = {} if memo is None else memo.setdefault(outer, {})
    out: Dict[StateKey, int] = {}
    get = out.get
    for key, a in nums.items():
        unit = units.get(key)
        if unit is None:
            unit = units[key] = _unit_action(op, n, key, j, ell)
        for image, c in unit:
            out[image] = get(image, 0) + a * c
    return state._from_ints(den * 2 * j.denominator, out)


def act_current(state: GhostState, n: int) -> GhostState:
    """J_n = sum_a :b_a g_{n-a}: acting exactly."""
    return _derivation(state, n, CURRENT)


def act_virasoro(state: GhostState, n: int) -> GhostState:
    """L_n = sum_c c :b_{n-c} g_c: acting exactly."""
    return _derivation(state, n, VIRASORO)


def act_current_squared(state: GhostState, n: int) -> GhostState:
    """(JJ)_n = sum_a :J_a J_{n-a}:, the larger index acting first."""
    d = state.max_depth()
    return _current_squared(state, n, d + max(d, abs(state.ell)), act_current)


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
    return ([mode(BETA, n) for n in range(-ell - 1, -ell - 1 - max_level, -1)]
            + [mode(GAMMA, n) for n in range(ell - 1, ell - 1 - max_level, -1)])


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
