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
first, on each monomial up to hi = d + max(d, |ell|), with d the largest
|index| of a creator in that monomial: past that bound J_hi vanishes on it
(the proof is at expr._current_squared).

Arithmetic runs on integers.  A state stores its reduced integer form: one
denominator den > 0 and an int numerator per term, with gcd(den,
numerators) = 1 and no zero numerator.  That form is canonical, so ==,
hash and is_zero read it directly.  The exact ``Fraction`` terms
are a view built from it on the first read of ``terms`` (by to_text, the
ghost-mode actions or a caller) and then kept; a state that is only summed,
scaled, compared or acted on by J, L, (JJ) and Ls never builds it.

J_n or L_n on one monomial times phi_{j+k}^ell gives each image a
coefficient A + B (j + k), with integers A and B that depend on neither the
charge j nor the shift k: contractions and moved creators give A, the
b_{-ell} ladder and the g_{n+ell} primary term give B, and the J_0 and L_0
eigenvalues give both.  So one table of these unit actions, keyed by (J or
L, n, monomial, ell), serves every state of every charge; it lives for the
process and holds at most a fixed number of entries (least recently used
go first).  With j = p/q an action sums A q + B (p + q k) against the
state's numerators over q and reduces once.

(JJ)_n and Ls_n have a second table of the same kind, built from the first:
composing J_hi (coefficient A1 + B1 x, x = j + k, moving the shift by ds1)
with J_lo taken at the moved charge (A2 + B2 (x + ds1)) gives each image a
coefficient (C0 + C1 x + C2 x^2) / 2 with integers C0, C1, C2, and Ls_n
adds the entries of L_n and J_n.  An action sums (C0 q + C1 X) q + C2 X^2,
X = p + q k, against the numerators over 2 q^2 and reduces once.  Sums and
scalings add integer forms over a common denominator.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Tuple

from ..lincomb import LinComb, accumulate
from .expr import (
    BETA, CURRENT, GAMMA, SINGLET, VIRASORO, Mode, ModeExpr, Word, mode, spectral_flow_map,
)

Monomial = Tuple[Mode, ...]  # sorted creation modes
StateKey = Tuple[Monomial, int]  # (creators, charge shift)
CURRENT_SQUARED = "JJ"  # the quadratic table's key for (JJ)_n; not a mode family


def _sort_monomial(modes: Iterable[Mode]) -> Monomial:
    return tuple(sorted(modes, key=lambda m: (m[0], -m[1])))


class GhostState(LinComb):
    """Exact vector in (a spectral flow of) a relaxed module.

    base charge j (exact rational), flow ell; the coefficient of
    creators * phi_{j+k}^ell is nums[key] / den for key = (creators, k).
    ``terms`` maps each key to that coefficient as a Fraction.
    """

    __slots__ = ("j", "ell", "_den", "_nums", "_view")

    def __init__(self, j, ell: int = 0, terms: Optional[Dict[StateKey, Fraction]] = None):
        """terms: int or Fraction coefficients; zeros are dropped."""
        self.j = Fraction(j)
        self.ell = int(ell)
        view = {key: c for key, c in (terms or {}).items() if c}
        den = lcm(*(c.denominator for c in view.values()))
        self._den = den
        self._nums = {key: c.numerator * (den // c.denominator) for key, c in view.items()}
        self._view = view

    @classmethod
    def primary(cls, j, ell: int = 0) -> "GhostState":
        return cls(j, ell, {((), 0): Fraction(1)})

    @property
    def terms(self) -> Dict[StateKey, Fraction]:
        """nums[key] / den per key, built on first read and then kept."""
        if self._view is None:
            den = self._den
            self._view = {key: Fraction(c, den) for key, c in self._nums.items()}
        return self._view

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

    def __eq__(self, other) -> bool:
        if type(other) is not GhostState:
            return NotImplemented
        return (self.base() == other.base() and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self):
        return hash((self.base(), self._den, frozenset(self._nums.items())))

    def is_zero(self) -> bool:
        return not self._nums

    def _from_ints(self, den: int, nums: Dict[StateKey, int]) -> "GhostState":
        """The state with terms nums[key] / den (den > 0), reduced once; it
        builds no Fraction until its terms are read."""
        g = gcd(den, *nums.values())
        out = GhostState.__new__(GhostState)
        out.j, out.ell = self.j, self.ell
        out._den = den // g
        out._nums = {key: c // g for key, c in nums.items() if c}
        out._view = None
        return out

    def _sum(self, parts) -> "GhostState":
        """sum of factor * state over the (state, factor) pairs, on integer
        forms over one common denominator."""
        forms = []
        for state, factor in parts:
            assert state.base() == self.base(), "incompatible base"
            if not isinstance(factor, (int, Fraction)):
                factor = Fraction(factor)
            den, nums = state._den, state._nums
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


@lru_cache(maxsize=1 << 16)
def _unit_action(op: str, n: int, mono: Monomial,
                 ell: int) -> Tuple[Tuple[Monomial, int, int, int], ...]:
    """X_n on mono * phi_{j+shift}^ell for X = J (op CURRENT, weight 1) or
    L (op VIRASORO, weight c), as (image, dshift, A, B) entries: the
    coefficient of image * phi_{j+shift+dshift}^ell is A + B (j + shift),
    with integers A and B that depend on neither j nor shift.  One table
    serves every charge for the life of the process, up to a fixed number
    of entries: at most 2^16, about 1.1 KB each, so up to about 70 MB when
    full.  `modealg-verify --level 10 --states 10000` fills about 21 500."""
    current = op == CURRENT
    weight = (lambda c: 1) if current else (lambda c: c)
    out: Dict[Tuple[Monomial, int], Tuple[int, int]] = {}

    def add(image: Monomial, dshift: int, a: int, b: int = 0) -> None:
        a0, b0 = out.get((image, dshift), (0, 0))
        out[(image, dshift)] = (a0 + a, b0 + b)

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
                add(mono[:i] + mono[i + 1 : a] + mono[a + 1 :], 0, sign * c)
        if m < zero_grade:
            add(_sort_monomial(rest + ((fam, m),)), 0, c)
        elif m == zero_grade:
            if fam == BETA:  # b_{-ell} phi_j = j phi_{j+1}
                add(rest, 1, 0, c)
            else:  # g_ell phi_j = phi_{j-1}
                add(rest, -1, c)
    # X_n on the bare primary phi_{j+shift}^ell
    if n == 0:
        # J_0 phi_j = (j - ell) phi_j,  L_0 phi_j = (j ell - ell(ell+1)/2) phi_j
        add(mono, 0, *((-ell, 1) if current else (-(ell * (ell + 1) // 2), ell)))
    elif n < 0:
        add(_sort_monomial(mono + (mode(BETA, n - ell),)), -1, weight(ell))
        add(_sort_monomial(mono + (mode(GAMMA, n + ell),)), 1, 0, weight(n + ell))
        for c in range(n + ell + 1, ell):
            add(_sort_monomial(mono + (mode(BETA, n - c), mode(GAMMA, c))), 0, weight(c))
    return tuple((image, dshift, a, b) for (image, dshift), (a, b) in out.items() if a or b)


def _derivation(state: GhostState, n: int, op: str) -> GhostState:
    """X_n = sum_c weight(c) :b_{n-c} g_c: acting as the derivation
    X_n x_1..x_r phi = sum_i x_1..[X_n, x_i]..x_r phi + x_1..x_r X_n phi,
    on the integer form of the state: with j = p/q, each table entry of a
    monomial on phi_{j+shift} gives the numerator A q + B (p + q shift) over
    q, summed against the state's numerators (over den); the result is
    reduced once."""
    p, q = state.j.numerator, state.j.denominator
    ell = state.ell
    out: Dict[StateKey, int] = {}
    get = out.get
    for (mono, shift), a in state._nums.items():
        charge = p + q * shift  # q (j + shift)
        for image, dshift, ca, cb in _unit_action(op, n, mono, ell):
            c = ca * q + cb * charge
            if c:  # a term zero at this charge adds no key, nor moves one
                key = (image, shift + dshift)
                out[key] = get(key, 0) + a * c
    return state._from_ints(state._den * q, out)


def act_current(state: GhostState, n: int) -> GhostState:
    """J_n = sum_a :b_a g_{n-a}: acting exactly."""
    return _derivation(state, n, CURRENT)


def act_virasoro(state: GhostState, n: int) -> GhostState:
    """L_n = sum_c c :b_{n-c} g_c: acting exactly."""
    return _derivation(state, n, VIRASORO)


@lru_cache(maxsize=1 << 14)
def _quadratic_action(op: str, n: int, mono: Monomial,
                      ell: int) -> Tuple[Tuple[Monomial, int, int, int, int], ...]:
    """(JJ)_n (op CURRENT_SQUARED) or Ls_n (op SINGLET) on
    mono * phi_{j+shift}^ell, as (image, dshift, C0, C1, C2) entries: the
    coefficient of image * phi_{j+shift+dshift}^ell is (C0 + C1 x + C2 x^2) / 2
    with x = j + shift, and integers C0, C1, C2 that depend on neither j nor
    shift.  (JJ)_n sums J_lo J_hi with weight 2 (1 when lo = hi) for
    hi = ceil(n/2) .. d + max(d, |ell|), d the largest |index| in mono; each
    product of two unit entries is quadratic in x.  Like _unit_action, one
    table serves every charge for the life of the process, up to a fixed
    number of entries.  An entry holds about 24 terms: 2.4 KB at
    `modealg-verify --level 8 --states 10000`, which fills 2 825 entries,
    and 3.1 KB at `--level 10 --states 10000`, which fills 5 098 (bytes
    freed by cache_clear over cache_info's count).  That is about four unit
    entries' worth, so the bound is a quarter of theirs, 2^14 entries: about
    50 MB when full."""
    # the entries are over 2: those of (JJ)_n doubled, or 2 Ls_n =
    # 2 L_n + (JJ)_n - (n+1) J_n
    jj_scale = 2 if op == CURRENT_SQUARED else 1
    out: Dict[Tuple[Monomial, int], List[int]] = {}

    def add(image: Monomial, dshift: int, c0: int, c1: int, c2: int = 0) -> None:
        acc = out.setdefault((image, dshift), [0, 0, 0])
        acc[0] += c0
        acc[1] += c1
        acc[2] += c2

    d = max((abs(k) for _fam, k in mono), default=0)
    for hi in range(-(-n // 2), d + max(d, abs(ell)) + 1):
        lo = n - hi
        w = jj_scale * (1 if lo == hi else 2)
        for im1, ds1, a1, b1 in _unit_action(CURRENT, hi, mono, ell):
            for im2, ds2, a2, b2 in _unit_action(CURRENT, lo, im1, ell):
                a2 += b2 * ds1  # J_lo acts at the moved charge x + ds1
                add(im2, ds1 + ds2, w * a1 * a2, w * (a1 * b2 + b1 * a2), w * b1 * b2)
    if op == SINGLET:
        for image, dshift, a, b in _unit_action(VIRASORO, n, mono, ell):
            add(image, dshift, 2 * a, 2 * b)
        for image, dshift, a, b in _unit_action(CURRENT, n, mono, ell):
            add(image, dshift, -(n + 1) * a, -(n + 1) * b)
    return tuple((image, dshift, *c) for (image, dshift), c in out.items() if any(c))


def _quadratic(state: GhostState, n: int, op: str) -> GhostState:
    """(JJ)_n or Ls_n on the integer form of the state in one pass: with
    j = p/q and X = p + q shift, each table entry of a monomial gives the
    numerator (C0 q + C1 X) q + C2 X^2 over 2 q^2, summed against the
    state's numerators (over den); the result is reduced once."""
    p, q = state.j.numerator, state.j.denominator
    ell = state.ell
    out: Dict[StateKey, int] = {}
    get = out.get
    for (mono, shift), a in state._nums.items():
        charge = p + q * shift  # q (j + shift)
        square = charge * charge
        for image, dshift, c0, c1, c2 in _quadratic_action(op, n, mono, ell):
            c = (c0 * q + c1 * charge) * q + c2 * square
            if c:
                key = (image, shift + dshift)
                out[key] = get(key, 0) + a * c
    return state._from_ints(state._den * 2 * q * q, out)


def act_current_squared(state: GhostState, n: int) -> GhostState:
    """(JJ)_n = sum_a :J_a J_{n-a}:, the larger index acting first."""
    return _quadratic(state, n, CURRENT_SQUARED)


def act_singlet(state: GhostState, n: int) -> GhostState:
    """Ls_n = L_n + (1/2)(JJ)_n - ((n+1)/2) J_n."""
    return _quadratic(state, n, SINGLET)


def act_flowed(state: GhostState, m: Mode, ell: int) -> GhostState:
    """Action on the flow image sigma^ell(v): A_n sigma^ell v =
    sigma^ell(sigma^{-ell}(A_n) v)."""
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
