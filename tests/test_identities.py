"""The summation identity and the flow-2 block-sum forms."""
import random
from fractions import Fraction

import pytest

from conftest import rel_err
from ghostcft import identities as idn
from ghostcft import specfun as sf

half = Fraction(1, 2)


def draw_case(rng, kmax=6):
    """Random identity instance away from the 3F2 lower-parameter poles."""
    while True:
        k = rng.randrange(0, kmax + 1)
        alpha = rng.uniform(-3, 3)
        a = rng.uniform(-3, 3)
        b = rng.uniform(-3, 3)
        c = rng.uniform(0.3, 3)
        eta = rng.choice([0.1, 0.3, 0.5, 0.7])
        beta = alpha - a + c
        if abs(beta - round(beta)) < 0.05 and round(beta) <= 0:
            continue
        return idn.IdentityCase(k, alpha, a, b, c, eta)


def test_lhs_base_cases():
    case = idn.IdentityCase(0, 0.77, 0.3, 0.6, 1.4, 0.45)
    assert rel_err(idn.appb_lhs(case), sf.hyp2f1(0.3, 0.6, 1.4, 0.45)) < 1e-13
    case1 = idn.IdentityCase(1, 0.77, 0.3, 0.6, 1.4, 0.45)
    want = 0.77 * sf.hyp2f1(0.3, 0.6, 1.4, 0.45) + (1.4 - 0.3) * sf.hyp2f1(
        -0.7, 0.6, 1.4, 0.45
    )
    assert rel_err(idn.appb_lhs(case1), want) < 1e-13


def test_lhs_finite_sum_oracle(rng):
    # term-by-term against an independently coded sum
    import math

    for _ in range(5):
        case = draw_case(rng, kmax=3)
        total = 0j
        for m in range(case.k + 1):
            coeff = math.comb(case.k, m)
            poch_alpha = 1.0
            for t in range(case.k - m):
                poch_alpha *= case.alpha + t
            poch_ca = 1.0
            for t in range(m):
                poch_ca *= (case.c - case.a) + t
            total += coeff * poch_alpha * poch_ca * sf.hyp2f1(
                case.a - m, case.b, case.c, case.eta
            )
        assert rel_err(idn.appb_lhs(case), total) < 1e-11


def test_rhs_k0_is_pfaff():
    # k=0 collapses the 3F2 and leaves exactly Pfaff's transform
    case = idn.IdentityCase(0, 1.23, 0.3, 0.6, 1.4, 0.45)
    got = idn.appb_rhs(case)
    z = -0.45 / (1 - 0.45)
    want = (1 - 0.45) ** (-0.6) * sf.hyp2f1(1.4 - 0.3, 0.6, 1.4, z)
    assert rel_err(got, want) < 1e-13
    assert idn.identity_gap(case) < 1e-12


def test_identity_over_seeded_draws(rng):
    worst = 0.0
    for _ in range(50):
        case = draw_case(rng)
        worst = max(worst, idn.identity_gap(case))
    assert worst < 1e-9


def test_lhs_polynomial_in_alpha():
    """For fixed k the sum is a degree-<=k polynomial in alpha: values at
    k+1 nodes interpolate a k+2-th node exactly."""
    rng = random.Random(7)
    k = 4
    a, b, c, eta = 0.3, 0.6, 1.4, 0.45

    def value(alpha):
        return idn.appb_lhs(idn.IdentityCase(k, alpha, a, b, c, eta))

    nodes = [0.0, 0.5, 1.0, 1.5, 2.0]
    vals = [value(x) for x in nodes]

    def lagrange(x):
        total = 0j
        for i, xi in enumerate(nodes):
            li = 1.0
            for j, xj in enumerate(nodes):
                if i != j:
                    li *= (x - xj) / (xi - xj)
            total += vals[i] * li
        return total

    probe = 2.7
    assert rel_err(lagrange(probe), value(probe)) < 1e-9


def test_blocksum_forms_random(rng):
    for _ in range(10):
        k = rng.randrange(0, 4)
        j1 = rng.uniform(-1.2, 1.2)
        j2 = rng.uniform(-1.2, 1.2)
        j4 = 1.5 - j1 - j2
        if abs(2 * j4 - round(2 * j4)) < 0.05:
            continue
        eta = rng.uniform(0.05, 0.79)
        verdict = idn.blocksum_check_l2(k, j1, j2, j4, eta)
        assert verdict.passes, (k, j1, j2, j4, eta, verdict)


def test_blocksum_cases_carry_exact_parameters():
    j1, j2 = Fraction(7, 20), Fraction(4, 5)
    j4 = Fraction(3, 2) - j1 - j2
    first, second = idn.blocksum_cases(2, j1, j2, j4, Fraction(3, 10))
    assert (first.alpha, first.a, first.b, first.c) == (half - j4, half, 1 - j1, j4 + half)
    assert (second.alpha, second.a, second.b, second.c) == (
        half - j4, 1 - j4, j2, Fraction(3, 2) - j4)
    for case in (first, second):
        assert all(isinstance(p, Fraction) for p in (case.alpha, case.a, case.b, case.c))
    # the first form sits at alpha = 1 - c, the second at alpha = c - 1
    assert first.alpha == 1 - first.c and second.alpha == second.c - 1


def test_blocksum_k0_first_is_pfaff():
    j1, j2 = 0.35, 0.8
    j4 = 1.5 - j1 - j2
    eta = 0.4
    first, _ = idn.blocksum_cases(0, j1, j2, j4, eta)
    # the left side is the plain block payload; the right its Pfaff transform
    assert rel_err(idn.appb_lhs(first), sf.hyp2f1(0.5, -j1 + 1, j4 + 0.5, eta)) < 1e-13
    assert idn.identity_gap(first) < 1e-12


def test_blocksum_second_prefactor_k1():
    # the closed side's (-j4+1)_k/(1/2)_k prefactor is (beta)_k/(1/2)_k,
    # beta = alpha - a + c, checked exactly at k = 1
    j1, j2 = Fraction(7, 20), Fraction(4, 5)
    j4 = Fraction(3, 2) - j1 - j2
    _, second = idn.blocksum_cases(1, j1, j2, j4, 0.3)
    beta = second.alpha - second.a + second.c
    assert sf.pochhammer(beta, 1) / sf.pochhammer(half, 1) == (-j4 + 1) / half
    assert idn.identity_gap(second) < 1e-12
    assert idn.blocksum_check_l2(1, j1, j2, j4, 0.3).second_gap < 1e-12


def test_identity_case_validation():
    with pytest.raises(ValueError):
        idn.IdentityCase(-1, 0.5, 0.3, 0.6, 1.4, 0.3)
