"""State-level mode algebra: primary actions, composite modes, the
charge-1/2 degenerate vector, flows and the localized twist."""
import inspect
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghostcft.modealg import (
    BETA,
    CURRENT,
    GAMMA,
    VIRASORO,
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
    localized_twist,
)
from ghostcft.lincomb import accumulate
from ghostcft.modealg import checks, states
from ghostcft.modealg.jl import (
    apply_current,
    apply_current_squared,
    apply_singlet,
    apply_virasoro,
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


_UNIT_TABLE = states._unit_action


def _doubled_current(op, n, mono, ell):
    """The unit table with J_n's entries doubled: J_n becomes 2 J_n."""
    entries = _UNIT_TABLE(op, n, mono, ell)
    if op != CURRENT:
        return entries
    return tuple((image, dshift, 2 * a, 2 * b) for image, dshift, a, b in entries)


def _virasoro_plus_current(op, n, mono, ell):
    """The unit table with J_n's entries added to L_n's: L_n becomes L_n + J_n."""
    entries = _UNIT_TABLE(op, n, mono, ell)
    return entries + _UNIT_TABLE(CURRENT, n, mono, ell) if op == VIRASORO else entries


def _clear_tables():
    states._unit_action.cache_clear()
    states._quadratic_action.cache_clear()


_PERTURBATIONS = {"J*2": _doubled_current, "L+J": _virasoro_plus_current}
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
    """Each bracket check holds on the true actions and fails once the unit
    table doubles J or replaces L by L + J; J and L read that table, and so
    do (JJ) and Ls, whose quadratic table is built from it again."""
    sts = basis_states(Fraction(1, 3), 0, max_level=2, max_factors=2)[:3]
    window = range(-2, 3)
    assert _CHECKS[check](sts, window)
    _clear_tables()
    monkeypatch.setattr(states, "_unit_action", _PERTURBATIONS[perturbation])
    try:
        assert _CHECKS[check](sts, window) is False
    finally:
        monkeypatch.undo()
        _clear_tables()


def test_commutators_on_flowed_basis():
    sts = basis_states(Fraction(1, 3), 2, max_level=5, max_factors=2)[:4]
    assert check_jj_commutators(sts, range(-2, 3))
    assert check_virasoro(sts, Fraction(2), act_virasoro, range(-2, 3))


# ----------------------------------------------------------------------
# the derivation-form actions against the windowed bilinear sum
# ----------------------------------------------------------------------


def _bilinear(state, b_idx, g_idx):
    """:b_{b_idx} g_{g_idx}: on state, the annihilator acting first."""
    if b_idx >= 0 and g_idx <= 0:
        return apply_word(state, ((GAMMA, g_idx), (BETA, b_idx)))
    return apply_word(state, ((BETA, b_idx), (GAMMA, g_idx)))


def _depth(state):
    """The largest |index| of a creator in the state."""
    return max((abs(k) for mono, _shift in state.terms for _fam, k in mono), default=0)


def _reference_width(state, n):
    return _depth(state) + abs(n) + abs(state.ell) + 4


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
    """(JJ)_n = sum_{|a| <= w} :J_a J_{n-a}:, the larger index acting first;
    J_hi vanishes on the state for hi > 2d + |ell|, so every term with
    |a| > 2d + |ell| + |n| does."""
    w = 2 * _depth(state) + abs(state.ell) + abs(n) + 2
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


def _monomial(*modes, j=Fraction(1, 3), ell=0):
    return GhostState(j, ell, {(states._sort_monomial(modes), 0): Fraction(1)})


@pytest.mark.parametrize("state, n", [
    (_monomial((BETA, -6), (GAMMA, -6)), -3),
    (_monomial((BETA, -7), (GAMMA, -7)), -3),
    (_monomial((BETA, -7), (GAMMA, -6)), 0),
    (_monomial((BETA, -12), (GAMMA, -11)), 3),
    (_monomial((BETA, -12), (GAMMA, -11)), 4),
])
def test_current_squared_on_deep_states(state, n):
    # deep creators need pairs J_lo J_hi with |lo| far past depth + |n|
    assert act_current_squared(state, n) == _reference_current_squared(state, n)


def test_current_squared_on_deep_jl_vector():
    vec = JLVector.highest_weight(Fraction(1, 3), Fraction(2, 7))
    for _ in range(5):
        vec = apply_virasoro(vec, -1)
    # J_a vanishes on a level-5 vector for a > 5, so |a| <= 7 holds every term
    want = vec.scale(0)
    for a in range(-7, 8):
        piece = apply_current(apply_current(vec, max(a, -a)), min(a, -a))
        assert abs(a) < 7 or piece.is_zero()
        want = want + piece
    assert apply_current_squared(vec, 0) == want


def test_current_squared_and_singlet_on_seeded_basis_sample(rng):
    for ell in (-1, 0, 1, 2):
        basis = basis_states(Fraction(2, 7), ell, max_level=8, max_factors=2)
        for state in rng.sample(basis, 5):
            n = rng.randint(-3, 3)
            assert act_current_squared(state, n) == _reference_current_squared(state, n)
            assert act_singlet(state, n) == _reference_singlet(state, n)


# ----------------------------------------------------------------------
# the integer kernel against the Fraction derivation it replaced
# ----------------------------------------------------------------------


def _on_primary_reference(j, ell, n, weight, eigenvalue):
    if n > 0:
        return ()
    if n == 0:
        return (((), 0, eigenvalue(j, ell)),)
    out = [(((BETA, n - ell),), -1, weight(ell)),
           (((GAMMA, n + ell),), 1, weight(n + ell) * j)]
    out += [(((BETA, n - c), (GAMMA, c)), 0, weight(c)) for c in range(n + ell + 1, ell)]
    return out


def _derivation_reference(state, n, weight, eigenvalue):
    """X_n = sum_c weight(c) :b_{n-c} g_c: as a derivation, term by term in
    Fractions."""
    j, ell = state.j, state.ell
    out = {}
    for (mono, shift), coeff in state.terms.items():
        for i, (fam, k) in enumerate(mono):
            c = weight(-k) if fam == BETA else -weight(n + k)
            if not c:
                continue
            c *= coeff
            m = n + k
            rest = mono[:i] + mono[i + 1 :]
            conj, sign, zero_grade = (GAMMA, -1, -ell) if fam == BETA else (BETA, 1, ell)
            for a in range(i + 1, len(mono)):
                if mono[a] == (conj, -m):
                    key = (mono[:i] + mono[i + 1 : a] + mono[a + 1 :], shift)
                    out[key] = out.get(key, 0) + sign * c
            if m < zero_grade:
                key = (states._sort_monomial(rest + ((fam, m),)), shift)
            elif m == zero_grade:
                if fam == BETA:
                    key, c = (rest, shift + 1), c * (j + shift)
                else:
                    key = (rest, shift - 1)
            else:
                continue
            out[key] = out.get(key, 0) + c
        for extra, dshift, c in _on_primary_reference(j + shift, ell, n, weight, eigenvalue):
            key = (states._sort_monomial(mono + extra) if extra else mono, shift + dshift)
            out[key] = out.get(key, 0) + c * coeff
    return state._like(out)


def _current_ref(state, n):
    return _derivation_reference(state, n, lambda c: 1, lambda j, ell: j - ell)


def _virasoro_ref(state, n):
    return _derivation_reference(state, n, lambda c: c,
                                 lambda j, ell: ell * j - Fraction(ell * (ell + 1), 2))


def _current_squared_ref(state, n):
    d = _depth(state)
    out = {}
    for hi in range(-(-n // 2), d + max(d, abs(state.ell)) + 1):
        inner = _current_ref(state, hi)
        if not inner.is_zero():
            lo = n - hi
            accumulate(out, _current_ref(inner, lo).terms, 1 if lo == hi else 2)
    return state._like(out)


def _singlet_ref(state, n):
    out = {}
    accumulate(out, _virasoro_ref(state, n).terms)
    accumulate(out, _current_squared_ref(state, n).terms, half)
    accumulate(out, _current_ref(state, n).terms, Fraction(-(n + 1), 2))
    return state._like(out)


_KERNEL_PAIRS = {"act_current": (act_current, _current_ref),
                 "act_virasoro": (act_virasoro, _virasoro_ref),
                 "act_current_squared": (act_current_squared, _current_squared_ref),
                 "act_singlet": (act_singlet, _singlet_ref)}
# j = 0, negative charges and denominators 1..7
_KERNEL_CHARGES = [Fraction(0), Fraction(-2), Fraction(3), Fraction(-1, 2), Fraction(2, 3),
                   Fraction(-5, 4), Fraction(7, 5), Fraction(5, 6), Fraction(-9, 7)]


def _seeded_states(rng, ell, count):
    """Multi-term states on phi_j^ell over several charge shifts, with
    coefficients of several denominators."""
    for _ in range(count):
        j = rng.choice(_KERNEL_CHARGES)
        monos = [next(iter(s.terms))[0] for s in basis_states(j, ell, max_level=3, max_factors=3)]
        terms = {(rng.choice(monos), rng.randint(-2, 2)): Fraction(rng.randint(-9, 9) or 1,
                                                                   rng.randint(1, 7))
                 for _ in range(rng.randint(2, 4))}
        yield GhostState(j, ell, terms)


@pytest.mark.parametrize("ell", range(-3, 4))
def test_kernel_matches_the_fraction_derivation(rng, ell):
    for state in _seeded_states(rng, ell, 3):
        for n in range(-4, 5):
            for kernel, reference in _KERNEL_PAIRS.values():
                got, want = kernel(state, n), reference(state, n)
                assert got == want
                assert got.to_text() == want.to_text()


def test_check_run_over_two_charges_matches_the_reference(monkeypatch):
    """Inside one check run the unit table serves states of two charges that
    share their monomials; every action of the run matches the reference."""
    sts = (basis_states(Fraction(1, 3), 1, max_level=2, max_factors=2)[:3]
           + basis_states(Fraction(-2, 5), 1, max_level=2, max_factors=2)[:3])
    seen = []
    for name, (kernel, _reference) in _KERNEL_PAIRS.items():
        def recorded(state, n, _name=name, _kernel=kernel):
            out = _kernel(state, n)
            seen.append((_name, state, n, out))
            return out

        for module in (states, checks):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorded)
    assert checks.check_virasoro(sts, -2, checks.act_singlet, range(-2, 3))
    assert checks.check_lj_commutators(sts, range(-2, 3))
    assert {state.j for _name, state, _n, _out in seen} == {Fraction(1, 3), Fraction(-2, 5)}
    for name, state, n, out in seen:
        want = _KERNEL_PAIRS[name][1](state, n)
        assert out == want and out.to_text() == want.to_text()


# the monomials of basis_states up to level 4, per flow
_TABLE_MONOS = {ell: [next(iter(s.terms))[0] for s in basis_states(0, ell, max_level=4)]
                for ell in range(-3, 4)}


@st.composite
def _table_draws(draw, max_flow=2):
    """A state on phi_j^ell (|ell| <= max_flow) of one to three basis
    monomials up to level 4 at shifts -3..3, a second charge to warm the
    table at, and n in -4..4; the charges have denominators up to 97 and
    take 0 and negative values."""
    charge = st.builds(Fraction, st.integers(-300, 300), st.integers(1, 97))
    j, other = draw(charge), draw(charge)
    ell = draw(st.integers(-max_flow, max_flow))
    terms = draw(st.dictionaries(
        st.tuples(st.sampled_from(_TABLE_MONOS[ell]), st.integers(-3, 3)),
        st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7)),
        min_size=1, max_size=3))
    return GhostState(j, ell, terms), other, draw(st.integers(-4, 4))


@settings(max_examples=80, deadline=None)
@given(_table_draws())
@example((GhostState(0, 1, {(((BETA, -3), (GAMMA, -1)), -1): Fraction(2, 3),
                            (((GAMMA, 0),), 2): Fraction(-1)}), Fraction(-7, 97), -2))
@example((GhostState(Fraction(-5, 3), -2, {(((BETA, 1),), 3): Fraction(1)}), Fraction(0), 0))
def test_unit_table_matches_the_fraction_derivation(draw):
    """J_n and L_n by table lookup equal the term-by-term Fraction
    derivation, with the table warmed at another charge and from empty."""
    state, other, n = draw
    warm = GhostState(other, state.ell, {key: Fraction(1) for key in state.terms})
    for kernel, reference in ((act_current, _current_ref), (act_virasoro, _virasoro_ref)):
        kernel(warm, n)
        want = reference(state, n)
        assert kernel(state, n) == want
        states._unit_action.cache_clear()
        got = kernel(state, n)
        assert got == want and got.to_text() == want.to_text()


@settings(max_examples=80, deadline=None)
@given(_table_draws(max_flow=3))
@example((GhostState(0, 1, {(((BETA, -3), (GAMMA, -1)), -1): Fraction(2, 3),
                            (((GAMMA, 0),), 2): Fraction(-1)}), Fraction(-7, 97), -2))
@example((GhostState(Fraction(-5, 3), -3, {(((BETA, 2),), 3): Fraction(1)}), Fraction(0), 0))
def test_quadratic_table_matches_the_fraction_derivation(draw):
    """(JJ)_n and Ls_n by quadratic-table lookup equal the pair sum and the
    singlet combination of the term-by-term Fraction derivation, with both
    tables warmed at another charge and from empty."""
    state, other, n = draw
    warm = GhostState(other, state.ell, {key: Fraction(1) for key in state.terms})
    for kernel, reference in ((act_current_squared, _current_squared_ref),
                              (act_singlet, _singlet_ref)):
        kernel(warm, n)
        want = reference(state, n)
        assert kernel(state, n) == want
        _clear_tables()
        got = kernel(state, n)
        assert got == want and got.to_text() == want.to_text()


def test_a_check_that_raises_leaves_the_unit_table_sound():
    """The unit table outlives every check: one that raises midway leaves
    the next check on the same states with its right verdict, true or
    false, and the table holds a bounded number of entries."""
    sts = basis_states(Fraction(1, 3), 0, max_level=2, max_factors=2)[:2]

    def fails(s, m, n):
        act_current(s, m)  # fills the table first
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        checks._brackets_hold(sts, range(-1, 2), act_current, act_current, fails)
    assert checks.check_jj_commutators(sts, range(-1, 2))
    assert checks.check_virasoro(sts, 2, act_virasoro, range(-2, 3))
    assert not checks.check_virasoro(sts, 3, act_virasoro, range(-2, 3))
    assert isinstance(states._unit_action.cache_info().maxsize, int)


# ----------------------------------------------------------------------
# the stored integer form and the Fraction view built from it
# ----------------------------------------------------------------------


def _integer_forms(rng, count):
    """(j, ell, den, nums) forms: fixed edge cases (empty, all zero, one
    negative unreduced term), then seeded draws with a common factor, zero
    and negative numerators and sometimes no term at all."""
    key = (((BETA, -1), (GAMMA, -2)), 1)
    yield Fraction(1, 3), 0, 5, {}
    yield Fraction(1, 3), 0, 4, {key: 0, ((), 0): 0}
    yield Fraction(-2, 5), 1, 6, {key: -4}
    for _ in range(count):
        j, ell = rng.choice(_KERNEL_CHARGES), rng.randint(-2, 2)
        monos = [next(iter(s.terms))[0] for s in basis_states(j, ell, max_level=3, max_factors=3)]
        g = rng.randint(1, 6)
        nums = {(rng.choice(monos), rng.randint(-2, 2)): g * rng.randint(-9, 9)
                for _ in range(rng.randint(0, 5))}
        yield j, ell, g * rng.randint(1, 12), nums


def test_integer_form_and_fraction_terms_build_the_same_state(rng):
    for j, ell, den, nums in _integer_forms(rng, 300):
        lazy = GhostState(j, ell)._from_ints(den, dict(nums))
        eager = GhostState(j, ell, {key: Fraction(c, den) for key, c in nums.items()})
        # before the lazy state's terms are first read
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        assert lazy.is_zero() == eager.is_zero() == (not any(nums.values()))
        assert list(lazy.terms.items()) == list(eager.terms.items())
        assert lazy.to_text() == eager.to_text()


def test_singlet_bracket_check_builds_no_fraction_view(monkeypatch):
    """The Ls bracket check reads every intermediate state as an integer
    form: no state but the inputs has its terms read, so none builds them."""
    sts = basis_states(Fraction(1, 3), 0, max_level=4, max_factors=2)
    terms = inspect.getattr_static(GhostState, "terms")
    read = []

    class Counted:
        def __get__(self, obj, cls=None):
            if obj is not None:
                read.append(obj)
            return terms.__get__(obj, cls)

        def __set__(self, obj, value):  # a settable terms stays settable
            terms.__set__(obj, value)

    monkeypatch.setattr(GhostState, "terms", Counted())
    assert check_virasoro(sts, -2, act_singlet, range(-2, 3))
    assert not [s for s in read if not any(s is t for t in sts)]


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
# flows and localization
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


def _charge_zero_mode_localized():
    """The zero-mode part g0 b0 of the charge operator (the only piece of J_0
    that Theta_k moves)."""
    return LocalExpr.gamma(0) * LocalExpr.beta(0)


def _virasoro_zero_window(window):
    """L_0's bilinear sum truncated to |index| <= window; contains no b_0,
    hence is fixed by every Theta_k."""
    out = {}
    for c in range(1, window + 1):
        accumulate(out, (LocalExpr.beta(-c) * LocalExpr.gamma(c)).terms, c)
        accumulate(out, (LocalExpr.gamma(-c) * LocalExpr.beta(c)).terms, -c)
    return LocalExpr(out)


def test_localized_twist_charge_and_weight():
    j0_part = _charge_zero_mode_localized()
    for k in (Fraction(-3, 2), Fraction(-1), half, Fraction(2)):
        shifted = localized_twist(j0_part, k)
        assert shifted - j0_part == LocalExpr.one(k)
    l0 = _virasoro_zero_window(5)
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


def test_state_serialization_deterministic():
    phi = GhostState.primary(half)
    s = act_virasoro(phi, -2) + act_current(phi, -1).scale(Fraction(1, 3))
    text = s.to_text()
    assert text == (act_virasoro(phi, -2) + act_current(phi, -1).scale(Fraction(1, 3))).to_text()
    assert "phi[1/2" in text
