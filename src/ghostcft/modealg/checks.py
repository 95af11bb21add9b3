"""Verification routines for the mode algebra: the degenerate (null) vector
at charge 1/2, commutator suites on states and flow conditions."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import jl
from .expr import BETA, GAMMA, Mode, ModeExpr, mode
from .states import (
    GhostState,
    act,
    act_current,
    act_flowed,
    act_singlet,
    act_virasoro,
)


@dataclass
class NullVectorReport:
    """Outcome of the charge-1/2 degenerate-vector construction."""

    singlet_form_matches: bool
    vanishes_on_charge_half: bool
    nonzero_on_generic_charge: bool
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = (
            self.singlet_form_matches
            and self.vanishes_on_charge_half
            and self.nonzero_on_generic_charge
        )


def _chi_direct(vec, virasoro, current):
    """(L_{-1}^2 - (1/2) L_{-2} + J_{-1} L_{-1}) v, with L_n and J_n acting
    as virasoro(v, n) and current(v, n)."""
    lm1 = virasoro(vec, -1)
    out = virasoro(lm1, -1)
    out = out - virasoro(vec, -2).scale(Fraction(1, 2))
    out = out + current(lm1, -1)
    return out


def _chi_singlet_jl(vec: jl.JLVector) -> jl.JLVector:
    """(Ls_{-1}^2 - (1/2) Ls_{-2}) v in the J/L envelope."""
    out = jl.apply_singlet(jl.apply_singlet(vec, -1), -1)
    return out - jl.apply_singlet(vec, -2).scale(Fraction(1, 2))


def chi_state(state: GhostState) -> GhostState:
    """(L_{-1}^2 - (1/2) L_{-2} + J_{-1} L_{-1}) acting through the ghost
    bilinears on a ghost state."""
    return _chi_direct(state, act_virasoro, act_current)


def chi_null_check(generic_charge=Fraction(1, 4)) -> NullVectorReport:
    """Construct the charge-1/2 degenerate vector both ways, compare them
    before expansion, then expand into ghost modes and test vanishing."""
    hw = jl.JLVector.highest_weight(Fraction(1, 2), 0)
    singlet_form = _chi_singlet_jl(hw)
    direct_form = _chi_direct(hw, jl.apply_virasoro, jl.apply_current)
    matches = (singlet_form - direct_form).is_zero() and not direct_form.is_zero()

    vanishes = chi_state(GhostState.primary(Fraction(1, 2))).is_zero()
    nonzero = not chi_state(GhostState.primary(Fraction(generic_charge))).is_zero()
    return NullVectorReport(matches, vanishes, nonzero)


# ----------------------------------------------------------------------
# commutator verification on states
# ----------------------------------------------------------------------

Action = Callable[[GhostState, int], GhostState]


def _brackets_hold(states: Iterable[GhostState], index_range, x: Action, y: Action,
                   want: Callable[[GhostState, int, int], Optional[GhostState]]) -> bool:
    """[X_m, Y_n] s == want(s, m, n) for every state s and m, n in
    index_range, with X_m = x(., m) and Y_n = y(., n); a want of None skips
    the pair.  X_m s and Y_n s are computed once per state; J, L and Ls
    each look their action on a monomial up in one of states' two tables
    (J and L in the unit table, Ls in the quadratic one built from it),
    which hold nothing a check sets up or has to drop."""
    for s in states:
        xs: dict = {}
        ys: dict = {}
        for m in index_range:
            for n in index_range:
                expected = want(s, m, n)
                if expected is None:
                    continue
                if m not in xs:
                    xs[m] = x(s, m)
                if n not in ys:
                    ys[n] = y(s, n)
                if x(ys[n], m) - y(xs[m], n) != expected:
                    return False
    return True


def check_jj_commutators(states: Iterable[GhostState], index_range=range(-3, 4)) -> bool:
    """[J_m, J_n] = -m delta_{m+n} on every state."""
    return _brackets_hold(states, index_range, act_current, act_current,
                          lambda s, m, n: s.scale(Fraction(-m) if m + n == 0 else 0))


def check_lj_commutators(states: Iterable[GhostState], index_range=range(-3, 4)) -> bool:
    """[L_m, J_n] = -m(m+1)/2 delta_{m+n} - n J_{m+n} on every state."""

    def want(s, m, n):
        out = act_current(s, m + n).scale(Fraction(-n))
        return out + s.scale(Fraction(-m * (m + 1), 2)) if m + n == 0 else out

    return _brackets_hold(states, index_range, act_virasoro, act_current, want)


def check_virasoro(states: Iterable[GhostState], central: Fraction,
                   action: Action, index_range=range(-3, 4)) -> bool:
    """[X_m, X_n] = (m-n) X_{m+n} + (c/12) m(m^2-1) delta_{m+n} on states."""
    central = Fraction(central)

    def want(s, m, n):
        if m >= n:
            return None
        out = action(s, m + n).scale(Fraction(m - n))
        return out + s.scale(central * m * (m * m - 1) / 12) if m + n == 0 else out

    return _brackets_hold(states, index_range, action, action, want)


def check_singlet_commutes_with_current(states: Iterable[GhostState],
                                        index_range=range(-3, 4)) -> bool:
    """[Ls_m, J_n] = 0 on every state."""
    return _brackets_hold(states, index_range, act_singlet, act_current,
                          lambda s, m, n: s.scale(0))


def check_mode_commutators_under_L(states: Iterable[GhostState],
                                   index_range=range(-2, 3)) -> bool:
    """[L_m, b_n] = -n b_{m+n} and [L_m, g_n] = -(m+n) g_{m+n} on states."""
    states = list(states)
    # [L_m, x_n] = -(n + a m) x_{m+n}, with a = 0 for b and a = 1 for g
    for ghost, a in ((ModeExpr.beta, 0), (ModeExpr.gamma, 1)):
        def y(s, n):
            return act(ghost(n), s)

        if not _brackets_hold(states, index_range, act_virasoro, y,
                              lambda s, m, n: y(s, m + n).scale(Fraction(-(n + a * m)))):
            return False
    return True


def check_flow_vacuum_conditions() -> bool:
    """Annihilation pattern of the minus-one flow of the vacuum: b_n kills
    it for n >= 1 and g_n for n >= 0, while g_{-1} acts non-trivially.

    Both realizations are tested: the twisted action on the vacuum vector
    (A_n sigma^{-1}(v) = sigma^{-1}(sigma(A_n) v)) and the intrinsic
    charge-0, flow -1 primary."""
    vacuum = GhostState.primary(0, ell=0)  # b_0 kills it since j = 0
    intrinsic = GhostState.primary(0, ell=-1)
    for n in range(1, 5):
        if not act_flowed(vacuum, mode(BETA, n), -1).is_zero():
            return False
        if not act(ModeExpr.beta(n), intrinsic).is_zero():
            return False
    for n in range(0, 5):
        if not act_flowed(vacuum, mode(GAMMA, n), -1).is_zero():
            return False
        if not act(ModeExpr.gamma(n), intrinsic).is_zero():
            return False
    if act_flowed(vacuum, mode(GAMMA, -1), -1).is_zero():
        return False
    if act(ModeExpr.gamma(-1), intrinsic).is_zero():
        return False
    return True
