"""State-level mode algebra: primary actions, composite modes, the
charge-1/2 degenerate vector, flows, the localized twist and the Kac locus."""
from fractions import Fraction

import pytest

from ghostcft.errors import TruncationError
from ghostcft.modealg import (
    BETA,
    GAMMA,
    GhostState,
    JLVector,
    LocalExpr,
    ModeExpr,
    act,
    act_current,
    act_current_squared,
    act_singlet,
    act_virasoro,
    apply_word,
    basis_states,
    check_flow_vacuum_conditions,
    check_jj_commutators,
    check_lj_commutators,
    check_mode_commutators_under_L,
    check_singlet_commutes_with_current,
    check_virasoro,
    chi_null_check,
    chi_state,
    kac_locus_check,
    localized_twist,
)
from ghostcft.modealg import checks, states
from ghostcft.modealg.jl import apply_singlet, apply_virasoro, apply_current
from ghostcft.modealg.localized import (
    charge_zero_mode_localized,
    virasoro_zero_window,
)

half = Fraction(1, 2)


# ----------------------------------------------------------------------
# primary actions (the defining relations)
# ----------------------------------------------------------------------


def test_primary_ladder_actions():
    phi = GhostState.primary(Fraction(5, 3))
    down = act(ModeExpr.gamma(0), phi)
    assert down == GhostState(Fraction(5, 3), 0, {((), -1): Fraction(1)})
    up = act(ModeExpr.beta(0), phi)
    assert up == GhostState(Fraction(5, 3), 0, {((), 1): Fraction(5, 3)})


def test_primary_annihilation():
    phi = GhostState.primary(Fraction(5, 3))
    assert act(ModeExpr.beta(1), phi).is_zero()
    assert act(ModeExpr.gamma(2), phi).is_zero()
    flowed = GhostState.primary(half, ell=2)
    assert act(ModeExpr.beta(-1), flowed).is_zero()  # b_{n-l}, n>=1
    assert act(ModeExpr.gamma(3), flowed).is_zero()  # g_{n+l}, n>=1
    assert not act(ModeExpr.gamma(1), flowed).is_zero()  # creator for l=2


def test_charge_and_weight_eigenvalues():
    # J_0 phi = (j - l) phi and L_0 phi = (j l - l(l+1)/2) phi
    for j, ell in [(half, 0), (Fraction(5, 3), 1), (Fraction(3, 2), 2), (0, -1)]:
        phi = GhostState.primary(j, ell=ell)
        assert act_current(phi, 0) == phi.scale(Fraction(j) - ell)
        weight = Fraction(j) * ell - Fraction(ell * (ell + 1), 2)
        assert act_virasoro(phi, 0) == phi.scale(weight)
    # the example (j, l) = (3/2, 2) has weight exactly 0
    assert act_virasoro(GhostState.primary(Fraction(3, 2), ell=2), 0).is_zero()


def test_singlet_zero_mode_weight():
    # Ls_0 phi_j = j(j-1)/2 phi_j on relaxed primaries
    for j in (half, Fraction(1, 4), Fraction(-2, 3)):
        phi = GhostState.primary(j)
        assert act_singlet(phi, 0) == phi.scale(Fraction(j) * (Fraction(j) - 1) / 2)


def test_translation_annihilates_vacuum():
    assert act_virasoro(GhostState.primary(0), -1).is_zero()
    # but not a generic relaxed primary
    assert not act_virasoro(GhostState.primary(half), -1).is_zero()


# ----------------------------------------------------------------------
# composite commutator suites (exact, level-capped bases)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def level_basis():
    sts = basis_states(Fraction(1, 3), 0, max_level=6, max_factors=2)
    return sts[:8]


def test_current_current_commutators(level_basis):
    assert check_jj_commutators(level_basis, range(-3, 4))


def test_virasoro_current_commutators(level_basis):
    assert check_lj_commutators(level_basis, range(-3, 4))


def test_virasoro_central_charge_two(level_basis):
    assert check_virasoro(level_basis[:5], Fraction(2), act_virasoro, range(-3, 4))


def test_singlet_central_charge_minus_two(level_basis):
    assert check_virasoro(level_basis[:4], Fraction(-2), act_singlet, range(-3, 4))


def test_singlet_commutes_with_current(level_basis):
    assert check_singlet_commutes_with_current(level_basis[:4], range(-3, 4))


def test_ghost_mode_weights_under_virasoro(level_basis):
    assert check_mode_commutators_under_L(level_basis[:4], range(-2, 3))


_J, _L = act_current, act_virasoro
_PERTURBATIONS = {
    "J*2": ("act_current", lambda s, n: _J(s, n).scale(2)),
    "L+J": ("act_virasoro", lambda s, n: _L(s, n) + _J(s, n)),
}
_CHECKS = {
    "jj": lambda sts, w: checks.check_jj_commutators(sts, w),
    "lj": lambda sts, w: checks.check_lj_commutators(sts, w),
    "virasoro-c2": lambda sts, w: checks.check_virasoro(sts, 2, checks.act_virasoro, w),
    "singlet-cm2": lambda sts, w: checks.check_virasoro(sts, -2, checks.act_singlet, w),
    "singlet-current": lambda sts, w: checks.check_singlet_commutes_with_current(sts, w),
    "ghost-under-L": lambda sts, w: checks.check_mode_commutators_under_L(sts, w),
}


@pytest.mark.parametrize("check, perturbation", [
    ("jj", "J*2"), ("lj", "J*2"), ("lj", "L+J"), ("virasoro-c2", "L+J"),
    ("singlet-cm2", "J*2"), ("singlet-cm2", "L+J"), ("singlet-current", "L+J"),
    ("ghost-under-L", "L+J"),
])
def test_checks_fail_on_perturbed_action(monkeypatch, check, perturbation):
    """Each bracket check holds on the true actions and fails once J is
    doubled or L is replaced by L + J (in every module that acts with it)."""
    sts = basis_states(Fraction(1, 3), 0, max_level=2, max_factors=2)[:3]
    window = range(-2, 3)
    assert _CHECKS[check](sts, window)
    name, action = _PERTURBATIONS[perturbation]
    for module in (states, checks):
        monkeypatch.setattr(module, name, action)
    assert _CHECKS[check](sts, window) is False


def test_commutators_on_flowed_basis():
    sts = basis_states(Fraction(1, 3), 2, max_level=5, max_factors=2)[:4]
    assert check_jj_commutators(sts, range(-2, 3))
    assert check_virasoro(sts, Fraction(2), act_virasoro, range(-2, 3))


def test_jj_window_boundary_term_raises(monkeypatch):
    # (JJ)_n sums over a finite window and raises when a term at its edge
    # does not vanish; narrowed to |a| <= 1, the window of (JJ)_0 on
    # b_-1 phi has the edge term J_-1 J_1 b_-1 phi, which is not zero
    state = GhostState(Fraction(1, 3), 0, {(((BETA, -1),), 0): Fraction(1)})
    assert not act_current(act_current(state, 1), -1).is_zero()
    full = act_current_squared(state, 0)
    assert full == _reference_current_squared(state, 0)
    jj_pairs = states.jj_pairs
    monkeypatch.setattr(states, "jj_pairs", lambda n, w: jj_pairs(n, 1))
    with pytest.raises(TruncationError):
        act_current_squared(state, 0)
    with pytest.raises(TruncationError):
        act_singlet(state, 0)


# ----------------------------------------------------------------------
# the derivation-form actions against the windowed bilinear sum
# ----------------------------------------------------------------------


def _bilinear(state, b_idx, g_idx):
    """:b_{b_idx} g_{g_idx}: on state, the annihilator acting first."""
    if b_idx >= 0 and g_idx <= 0:
        return apply_word(state, ((GAMMA, g_idx), (BETA, b_idx)))
    return apply_word(state, ((BETA, b_idx), (GAMMA, g_idx)))


def _reference_width(state, n):
    return state.max_depth() + abs(n) + abs(state.ell) + 4


def _reference_current(state, n):
    """J_n = sum_{|a| <= w} :b_a g_{n-a}:, the boundary terms vanishing."""
    w = _reference_width(state, n)
    total = state.scale(0)
    for a in range(-w, w + 1):
        piece = _bilinear(state, a, n - a)
        assert abs(a) < w or piece.is_zero()
        total = total + piece
    return total


def _reference_virasoro(state, n):
    """L_n = sum_{|c| <= w} c :b_{n-c} g_c:, the boundary terms vanishing."""
    w = _reference_width(state, n)
    total = state.scale(0)
    for c in range(-w, w + 1):
        piece = _bilinear(state, n - c, c).scale(c)
        assert abs(c) < w or piece.is_zero()
        total = total + piece
    return total


def _reference_current_squared(state, n):
    """(JJ)_n = sum_{|a| <= w} :J_a J_{n-a}:, the larger index acting first."""
    w = _reference_width(state, n) + 2
    total = state.scale(0)
    for a in range(-w, w + 1):
        lo, hi = min(a, n - a), max(a, n - a)
        piece = _reference_current(_reference_current(state, hi), lo)
        assert abs(a) < w or piece.is_zero()
        total = total + piece
    return total


def _reference_singlet(state, n):
    return (
        _reference_virasoro(state, n)
        + _reference_current_squared(state, n).scale(half)
        - _reference_current(state, n).scale(Fraction(n + 1, 2))
    )


def _oracle_states(ell):
    """Multi-term states on phi_j^ell, with terms at charge shifts k != 0 and
    monomials holding both a b and a g creator, so that the bracket images
    can contract."""
    j = Fraction(2, 7)
    monos = [next(iter(s.terms))[0] for s in basis_states(j, ell, max_level=4, max_factors=3)]
    mixed = [m for m in monos if {fam for fam, _n in m} == {BETA, GAMMA}]
    yield GhostState(j, ell, {(mixed[0], 0): Fraction(3), (monos[1], 1): Fraction(-1, 2)})
    yield GhostState(j, ell, {(mixed[-1], -1): Fraction(1), (monos[2], 0): Fraction(2, 5),
                               ((), 2): Fraction(-3, 4)})


@pytest.mark.parametrize("ell", [-1, 0, 1, 2])
def test_actions_match_windowed_bilinear_sum(ell):
    for state in _oracle_states(ell):
        for n in range(-3, 4):
            assert act_current(state, n) == _reference_current(state, n)
            assert act_virasoro(state, n) == _reference_virasoro(state, n)
            assert act_current_squared(state, n) == _reference_current_squared(state, n)
            assert act_singlet(state, n) == _reference_singlet(state, n)


# ----------------------------------------------------------------------
# the charge-1/2 degenerate vector
# ----------------------------------------------------------------------


def test_chi_null_report():
    rep = chi_null_check()
    assert rep.singlet_form_matches
    assert rep.vanishes_on_charge_half
    assert rep.nonzero_on_generic_charge
    assert rep.ok


def test_chi_vanishes_only_on_kac_charge():
    assert chi_state(GhostState.primary(half)).is_zero()
    assert not chi_state(GhostState.primary(Fraction(1, 4))).is_zero()
    assert not chi_state(GhostState.primary(Fraction(2, 3))).is_zero()


def test_chi_singlet_vs_direct_before_expansion():
    hw = JLVector.highest_weight(half, 0)
    singlet_form = apply_singlet(apply_singlet(hw, -1), -1) - apply_singlet(
        hw, -2
    ).scale(half)
    lm1 = apply_virasoro(hw, -1)
    direct = (
        apply_virasoro(lm1, -1)
        - apply_virasoro(hw, -2).scale(half)
        + apply_current(lm1, -1)
    )
    assert singlet_form == direct
    assert not direct.is_zero()


# ----------------------------------------------------------------------
# flows, localization, Kac locus
# ----------------------------------------------------------------------


def test_flow_vacuum_conditions():
    assert check_flow_vacuum_conditions()


def test_localized_twist_defining_relations():
    b0 = LocalExpr.beta(0)
    got = localized_twist(b0, Fraction(3, 2))
    assert got == b0 + LocalExpr.g0_power(-1, Fraction(3, 2))
    assert localized_twist(LocalExpr.gamma(3), Fraction(3, 2)) == LocalExpr.gamma(3)
    assert localized_twist(LocalExpr.beta(-2), 2) == LocalExpr.beta(-2)
    assert localized_twist(b0, 0) == b0


def test_localized_twist_charge_and_weight():
    j0_part = charge_zero_mode_localized()
    for k in (Fraction(-3, 2), Fraction(-1), half, Fraction(2)):
        shifted = localized_twist(j0_part, k)
        assert shifted - j0_part == LocalExpr.one(k)
    l0 = virasoro_zero_window(5)
    for k in (Fraction(-3, 2), Fraction(-1), half, Fraction(2)):
        assert localized_twist(l0, k) == l0


def test_localized_twist_automorphism(rng):
    samples = [
        LocalExpr.beta(0) * LocalExpr.gamma(1),
        LocalExpr.beta(-1) * LocalExpr.beta(0) + LocalExpr.g0_power(-2, Fraction(2, 3)),
        LocalExpr.gamma(0) * LocalExpr.beta(0) * LocalExpr.beta(0),
        LocalExpr.beta(2) * LocalExpr.g0_power(-1),
    ]
    for k in (Fraction(-3, 2), Fraction(-1), half, Fraction(2)):
        for x in samples:
            for y in samples:
                assert localized_twist(x * y, k) == localized_twist(
                    x, k
                ) * localized_twist(y, k)
                assert localized_twist(x.commutator(y), k) == localized_twist(
                    x, k
                ).commutator(localized_twist(y, k))


def test_localized_relations():
    # [b_m, g0^{-1}] = delta_{m,0} g0^{-2}
    got = LocalExpr.beta(0).commutator(LocalExpr.g0_power(-1))
    assert got == LocalExpr.g0_power(-2)
    assert LocalExpr.beta(1).commutator(LocalExpr.g0_power(-1)).is_zero()
    assert LocalExpr.gamma(2).commutator(LocalExpr.g0_power(-1)).is_zero()
    assert LocalExpr.g0_power(1) * LocalExpr.g0_power(-1) == LocalExpr.one()


def test_localized_twist_requires_context():
    from ghostcft.errors import ContextError

    with pytest.raises(ContextError):
        localized_twist(ModeExpr.beta(0), 1)  # plain expression, no g0^{-1}


def test_kac_locus_quarter_integer_scan():
    charges = [Fraction(q, 4) for q in range(-12, 13)]
    charges += [Fraction(201, 2), Fraction(-150), Fraction(250), Fraction(803, 4)]
    for j in charges:
        assert kac_locus_check(j) == ((2 * j).denominator == 1)


def test_state_serialization_deterministic():
    phi = GhostState.primary(half)
    s = act_virasoro(phi, -2) + act_current(phi, -1).scale(Fraction(1, 3))
    text = s.to_text()
    assert text == (act_virasoro(phi, -2) + act_current(phi, -1).scale(Fraction(1, 3))).to_text()
    assert "phi[1/2" in text
