"""Operator-level mode algebra: normal ordering, commutators, spectral flow,
serialization."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostcft.modealg.expr import (
    BETA,
    GAMMA,
    ModeExpr,
    commutator,
    mode,
    normal_order,
    spectral_flow_map,
)

b, g = ModeExpr.beta, ModeExpr.gamma


def test_basic_bracket():
    # [b_m, g_n] = -delta_{m+n}
    for m in range(-3, 4):
        for n in range(-3, 4):
            got = commutator(b(m), g(n))
            want = ModeExpr.one(Fraction(-1)) if m + n == 0 else ModeExpr.zero()
            assert got == want
    assert commutator(b(2), b(5)).is_zero()
    assert commutator(g(-1), g(1)).is_zero()


def test_normal_order_example():
    # g_1 b_{-1} = b_{-1} g_1 + 1
    got = normal_order(g(1) * b(-1))
    want = normal_order(b(-1) * g(1)) + ModeExpr.one()
    assert got == want
    assert ((BETA, -1), (GAMMA, 1)) in got.terms
    assert got.terms[()] == 1


def test_normal_order_commuting_family_sorted():
    # commuting annihilators are reordered canonically (ascending index)
    got = normal_order(b(5) * b(2))
    assert got == ModeExpr.of((BETA, 2), (BETA, 5))
    assert normal_order(b(2) * b(5)) == got
    # creators sort descending within a family
    got = normal_order(b(-1) * b(-3))
    assert got == ModeExpr.of((BETA, -1), (BETA, -3))


_random_words = st.lists(
    st.tuples(st.sampled_from([BETA, GAMMA]), st.integers(-3, 3)),
    min_size=0,
    max_size=4,
)


@given(_random_words, _random_words)
@settings(max_examples=60, deadline=None)
def test_normal_order_idempotent_and_linear(w1, w2):
    x = ModeExpr({tuple(w1): Fraction(3, 2)})
    y = ModeExpr({tuple(w2): Fraction(-2, 5)})
    nx = normal_order(x)
    assert normal_order(nx) == nx
    assert normal_order(x + y) == normal_order(x) + normal_order(y)


@given(_random_words, _random_words)
@settings(max_examples=40, deadline=None)
def test_commutator_antisymmetry(w1, w2):
    x = ModeExpr({tuple(w1): Fraction(1)})
    y = ModeExpr({tuple(w2): Fraction(1)})
    assert commutator(x, y) == commutator(y, x).scale(-1)


def test_commutator_jacobi(rng):
    for _ in range(15):
        words = []
        for _k in range(3):
            length = rng.randrange(1, 3)
            words.append(
                tuple(
                    (rng.choice([BETA, GAMMA]), rng.randrange(-2, 3))
                    for _ in range(length)
                )
            )
        x, y, z = (ModeExpr({w: Fraction(1)}) for w in words)
        total = (
            commutator(x, commutator(y, z))
            + commutator(y, commutator(z, x))
            + commutator(z, commutator(x, y))
        )
        assert total.is_zero()


def test_commutator_requires_pure_ghost():
    with pytest.raises(ValueError):
        commutator(ModeExpr.current(0), ModeExpr.current(1))


def test_spectral_flow_basics():
    assert spectral_flow_map(b(0), 1) == b(-1)
    assert spectral_flow_map(g(0), 1) == g(1)
    # J_0 -> J_0 + l, L_0 -> L_0 - l J_0 - l(l-1)/2
    got = spectral_flow_map(ModeExpr.current(0), 2)
    assert got == ModeExpr.current(0) + ModeExpr.one(Fraction(2))
    got = spectral_flow_map(ModeExpr.virasoro(0), 2)
    want = (
        ModeExpr.virasoro(0)
        + ModeExpr.current(0).scale(-2)
        + ModeExpr.one(Fraction(-1))
    )
    assert got == want
    got = spectral_flow_map(ModeExpr.virasoro(3), 2)
    assert got == ModeExpr.virasoro(3) + ModeExpr.current(3).scale(-2)


def test_spectral_flow_identity_and_inverse(rng):
    for _ in range(10):
        word = tuple(
            (rng.choice([BETA, GAMMA]), rng.randrange(-3, 4))
            for _ in range(rng.randrange(1, 4))
        )
        x = ModeExpr({word: Fraction(rng.randrange(1, 5), rng.randrange(1, 4))})
        assert spectral_flow_map(x, 0) == x
        for ell in (-2, 1, 3):
            assert spectral_flow_map(spectral_flow_map(x, ell), -ell) == x


def test_spectral_flow_preserves_commutators(rng):
    for _ in range(10):
        x = ModeExpr.of(
            (rng.choice([BETA, GAMMA]), rng.randrange(-2, 3)),
            (rng.choice([BETA, GAMMA]), rng.randrange(-2, 3)),
        )
        y = ModeExpr.of((rng.choice([BETA, GAMMA]), rng.randrange(-2, 3)))
        for ell in (-1, 2):
            lhs = commutator(spectral_flow_map(x, ell), spectral_flow_map(y, ell))
            rhs = normal_order(spectral_flow_map(commutator(x, y), ell))
            assert lhs == rhs


def test_serialization_deterministic():
    x = ModeExpr.of((BETA, -1), (GAMMA, 2)) + ModeExpr.of((GAMMA, 0))
    y = ModeExpr.of((GAMMA, 0)) + ModeExpr.of((BETA, -1), (GAMMA, 2))
    assert x.to_text() == y.to_text()
