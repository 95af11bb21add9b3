"""Special-function kernel tests.

Expected values are produced by independent oracles defined at the top
(direct series summation, finite differences, gamma functional equations)
and frozen as literals where the spec pins them.
"""
import cmath
import math
from fractions import Fraction

import pytest

from conftest import assert_close, rel_err
from ghostcft import specfun as sf
from ghostcft.errors import (
    BranchCutError,
    ConvergenceError,
    DegenerateError,
    ParamError,
    PoleError,
)

# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------


def series_2f1_oracle(a, b, c, z, terms=2000):
    """Brute-force partial sum of the defining series, independent of the
    kernel's region dispatch and transformation graph."""
    total = 0j
    coeff = 1.0 + 0j
    zc = complex(z)
    for n in range(terms):
        piece = coeff * zc**n
        total += piece
        if n > 6 and abs(piece) < 1e-18 * max(1.0, abs(total)):
            break
        coeff *= (a + n) * (b + n) / ((c + n) * (n + 1))
    return total


def finite_sum_3f2_oracle(a1, a2, a3, b1, b2, z, nmax):
    total = 0j
    coeff = 1.0 + 0j
    zc = complex(z)
    for n in range(nmax + 1):
        total += coeff * zc**n
        coeff *= (a1 + n) * (a2 + n) * (a3 + n) / ((b1 + n) * (b2 + n) * (n + 1))
    return total


def central_diff(f, z, h=1e-6):
    return (f(z + h) - f(z - h)) / (2 * h)


def richardson_diff(f, z, h=1e-4):
    d1 = central_diff(f, z, h)
    d2 = central_diff(f, z, h / 2)
    return (4 * d2 - d1) / 3


# ----------------------------------------------------------------------
# gamma
# ----------------------------------------------------------------------


def test_gamma_small_integers():
    assert_close(sf.gamma(1), 1.0, 1e-14)
    assert_close(sf.gamma(5), 24.0, 1e-14)


def test_gamma_half_from_reflection_oracle():
    # reflection at z=1/2 gives gamma(1/2)^2 = pi
    val = sf.gamma(0.5)
    assert_close(val * val, math.pi, 1e-13)
    assert_close(val, 1.7724538509055160273, 1e-13)


def test_gamma_poles():
    for z in (0, -1, -2, -7, 0.0, -3.0):
        with pytest.raises(PoleError):
            sf.gamma(z)


def test_gamma_large_argument_against_math_gamma():
    # t^(z-1/2) overflows from Re z = 143, Gamma itself only past 171.6
    for z in (142.5, 143.0, 150.5, 171.5):
        assert rel_err(sf.gamma(z), math.gamma(z)) < 1e-13
    for z in (171.7, 180.3, 1e6):
        with pytest.raises(ParamError, match="overflow"):
            sf.gamma(z)


def test_gamma_recurrence_oracle(rng):
    for _ in range(50):
        z = complex(rng.uniform(-40, 40), rng.uniform(-30, 30))
        if abs(z.imag) < 1e-3 and abs(z.real - round(z.real)) < 1e-2:
            continue
        assert rel_err(sf.gamma(z + 1), z * sf.gamma(z)) < 1e-12


def test_gamma_duplication_oracle(rng):
    sqrt_pi = math.sqrt(math.pi)
    for _ in range(50):
        z = complex(rng.uniform(0.2, 20), rng.uniform(-10, 10))
        lhs = sf.gamma(2 * z)
        rhs = sf.gamma(z) * sf.gamma(z + 0.5) * 2 ** (2 * z - 1) / sqrt_pi
        assert rel_err(lhs, rhs) < 1e-12


def test_gamma_reflection_oracle(rng):
    for _ in range(50):
        z = complex(rng.uniform(-20, 20), rng.uniform(0.1, 10))
        lhs = sf.gamma(z) * sf.gamma(1 - z)
        rhs = cmath.pi / cmath.sin(cmath.pi * z)
        assert rel_err(lhs, rhs) < 1e-12


def test_gamma_next_to_its_poles_against_mpmath(rng):
    # z = n + delta, n <= 0, |delta| from 1e-9 to 0.1: sin(pi z) taken as it
    # stands would lose about log10(|n| / |delta|) digits; the reflection
    # reduces it to sin(pi delta), so every draw keeps 1e-13
    import mpmath as mp

    for _ in range(300):
        z = rng.randint(-30, 0) + rng.choice((-1, 1)) * 10 ** rng.uniform(-9, -1)
        with mp.workdps(40):
            want = complex(mp.gamma(z))
        assert abs(sf.gamma(z) - want) <= 1e-13 * abs(want), z


# ----------------------------------------------------------------------
# pochhammer
# ----------------------------------------------------------------------


def test_pochhammer_values():
    x = Fraction(7, 3)
    assert sf.pochhammer(x, 0) == 1
    assert sf.pochhammer(2, 3) == 24  # 2*3*4
    assert sf.pochhammer(-2, 3) == 0
    assert sf.pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert isinstance(sf.pochhammer(Fraction(1, 2), 3), Fraction)


def test_pochhammer_gamma_consistency(rng):
    for _ in range(20):
        a = rng.uniform(0.1, 5)
        n = rng.randrange(0, 8)
        assert rel_err(sf.pochhammer(a, n), sf.gamma(a + n) / sf.gamma(a)) < 1e-12


# ----------------------------------------------------------------------
# 2F1
# ----------------------------------------------------------------------


def test_hyp2f1_at_zero():
    assert sf.hyp2f1(0.3, 1.7, 2.2, 0.0) == 1
    assert sf.hyp2f1(Fraction(1, 3), Fraction(2, 5), Fraction(5, 4), Fraction(0)) == 1


def test_hyp2f1_b_equals_c_binomial():
    # 2F1(a, b; b; z) = (1-z)^(-a)
    assert_close(sf.hyp2f1(1, 5, 5, 0.5), 2.0, 1e-13)
    assert_close(sf.hyp2f1(0.7, 2.3, 2.3, 0.2), (1 - 0.2) ** (-0.7), 1e-12)


def test_hyp2f1_log_value():
    # 2F1(1,1;2;z) = -log(1-z)/z; frozen from the series oracle
    want = series_2f1_oracle(1, 1, 2, 0.5)
    assert abs(want - 1.3862943611198906) < 1e-14
    assert_close(sf.hyp2f1(1, 1, 2, 0.5), 1.3862943611198906, 1e-13)


def test_hyp2f1_terminating_exact():
    val = sf.hyp2f1(Fraction(-2), Fraction(1, 2), Fraction(3), Fraction(1, 3))
    assert isinstance(val, Fraction)
    # oracle: 1 + (-2)(1/2)/3 * (1/3) + [(-2)(-1)(1/2)(3/2)/(3*4*2!)] * (1/9)
    assert val == 1 + Fraction(-1, 9) + Fraction(1, 144)


def test_terminating_series_stop_at_their_last_term():
    # the lower parameter -2 is zero at n = 2, the order where the series
    # ends: a loop that formed one term too many would divide by it
    assert_close(sf.hyp2f1(-2, 0.3, -2, 0.5), 1.19875, 1e-15)
    assert sf.hyp2f1(-2, Fraction(3, 10), -2, Fraction(1, 2)) == Fraction(959, 800)
    assert_close(sf.hyp2f1(-2, 0.3, -2, 0.5 + 0.1j), 1.1968 + 0.0495j, 1e-15)
    assert_close(sf.hyp3f2(-2, 0.3, 0.4, -2, 1.5, 0.5), 1.04728, 1e-15)
    exact = sf.hyp3f2(-2, Fraction(3, 10), Fraction(2, 5), -2, Fraction(3, 2), Fraction(1, 2))
    assert exact == Fraction(13091, 12500)


def test_hyp2f1_param_errors():
    with pytest.raises(ParamError):
        sf.hyp2f1(0.5, 0.7, -2, 0.3)  # c pole, non-terminating
    with pytest.raises(ParamError):
        sf.hyp2f1(-5, 0.7, -2, 0.3)  # terminates after the c pole
    # terminating before the pole is fine
    assert sf.hyp2f1(-2, 0.7, -5, 0.5) is not None


def test_hyp2f1_branch_cut_guard():
    with pytest.raises(BranchCutError):
        sf.hyp2f1(0.3, 0.7, 1.9, 1.3)
    up = sf.hyp2f1(0.3, 0.7, 1.9, complex(1.3, +0.0))
    dn = sf.hyp2f1(0.3, 0.7, 1.9, complex(1.3, -0.0))
    assert abs(up - dn) > 1e-3  # genuinely different sides
    assert rel_err(up.conjugate(), dn) < 1e-13


def test_hyp2f1_matches_series_oracle_moderate_z(rng):
    for _ in range(40):
        a = rng.uniform(-2, 2)
        b = rng.uniform(-2, 2)
        c = rng.uniform(0.3, 3)
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
        assert rel_err(sf.hyp2f1(a, b, c, z), series_2f1_oracle(a, b, c, z)) < 1e-12


def test_hyp2f1_degenerate_strict_vs_eps():
    # integer c - a - b where only the 0->1 connection serves (|z| > 0.9) raises
    with pytest.raises(DegenerateError):
        sf.hyp2f1(0.25, 0.75, 2.0, 0.92)


@pytest.mark.parametrize("gap", [0.0, 1e-3, 1e-6])
@pytest.mark.parametrize("z", [0.75, 0.9, -4.0])
def test_hyp2f1_near_integer_c_minus_a_minus_b(gap, z):
    # off the degenerate locus by gap the 0->1 connection cancels to about
    # eps/gap, and on it (gap 0) it is logarithmic; within |z| <= 0.9 (-4
    # through Pfaff, to 0.8) the series serves
    import mpmath as mp

    a, b = 0.5, 0.6436
    c = a + b + gap
    with mp.workdps(30):
        want = complex(mp.hyp2f1(a, b, c, z))
    assert rel_err(sf.hyp2f1(a, b, c, z), want) < 1e-14


def test_hyp2f1_far_negative_axis():
    # Pfaff maps z<0 into (0,1): compare against Pfaff of the series oracle
    a, b, c = 0.3, 0.7, 1.9
    for z in (-1.5, -4.0, -30.0):
        w = z / (z - 1.0)
        want = (1 - z) ** (-b) * series_2f1_oracle(c - a, b, c, w, terms=5000)
        assert rel_err(sf.hyp2f1(a, b, c, z), want) < 1e-10


def test_hyp2f1_deriv_values():
    a, b, c = 0.7, 1.3, 2.1
    assert_close(sf.hyp2f1_deriv(a, b, c, 0.0), a * b / c, 1e-13)
    # terminating b=-1: F = 1 - a z / c, derivative constant -a/c
    assert_close(sf.hyp2f1_deriv(a, -1, c, 0.37), -a / c, 1e-13)


def test_hyp2f1_deriv_matches_finite_difference():
    a, b, c = 1.0, 1.0, 2.0
    got = sf.hyp2f1_deriv(a, b, c, 0.5)
    want = central_diff(lambda z: sf.hyp2f1(a, b, c, z), 0.5, h=1e-6)
    assert abs(got - want) < 1e-8


def test_hyp2f1_deriv_richardson(rng):
    for _ in range(15):
        a = rng.uniform(-1.5, 1.5)
        b = rng.uniform(-1.5, 1.5)
        c = rng.uniform(0.4, 2.5)
        z = rng.uniform(0.05, 0.6)
        got = sf.hyp2f1_deriv(a, b, c, z)
        want = richardson_diff(lambda t: sf.hyp2f1(a, b, c, t), z)
        assert rel_err(got, want) < 1e-7


def test_hyp2f1_second_derivative_shift():
    a, b, c, z = 0.4, 1.1, 1.8, 0.3
    got = sf.hyp2f1_deriv(a, b, c, z, order=2)
    f1 = lambda t: sf.hyp2f1_deriv(a, b, c, t)
    want = richardson_diff(f1, z)
    assert rel_err(got, want) < 1e-7


# ----------------------------------------------------------------------
# connection coefficients
# ----------------------------------------------------------------------


def test_connection_coeffs_direct_gamma():
    # generic parameters: both coefficients match the explicit gamma ratios
    a, b, c = 0.5, 0.5, 2.3
    ca, cb = sf.connection_coeffs_01(a, b, c)
    g = sf.gamma
    assert_close(ca, g(c) * g(c - a - b) / (g(c - a) * g(c - b)), 1e-13)
    assert_close(cb, g(c) * g(a + b - c) / (g(a) * g(b)), 1e-13)
    # (1/2, 1/2, 2) sits on the degenerate locus c-a-b = 1
    with pytest.raises(DegenerateError):
        sf.connection_coeffs_01(0.5, 0.5, 2.0)


def test_connection_coeffs_gauss_sum_rule():
    # for c-a-b > 0 the z->1 limit of the first term is the Gauss value:
    # series-at-1 oracle vs coefficient A (terms decay like n^(-1-(c-a-b)))
    a, b, c = 0.3, 0.45, 4.05
    ca, _ = sf.connection_coeffs_01(a, b, c)
    want = series_2f1_oracle(a, b, c, 1.0, terms=30_000)
    assert rel_err(ca, want) < 1e-9


def test_connection_coeffs_ab_symmetry():
    p1 = sf.connection_coeffs_01(0.3, 0.8, 1.7)
    p2 = sf.connection_coeffs_01(0.8, 0.3, 1.7)
    assert p1 == p2


def test_connection_identity_at_half(rng):
    # 0->1 connection evaluated at z=0.5 matches the direct series
    for _ in range(25):
        a = rng.uniform(-1.5, 1.5)
        b = rng.uniform(-1.5, 1.5)
        c = rng.uniform(0.3, 2.5)
        if abs((c - a - b) - round(c - a - b)) < 1e-3:
            continue
        ca, cb = sf.connection_coeffs_01(a, b, c)
        u = 0.5
        rhs = ca * sf.hyp2f1(a, b, a + b - c + 1, u) + cb * u ** (
            c - a - b
        ) * sf.hyp2f1(c - a, c - b, c - a - b + 1, u)
        assert rel_err(series_2f1_oracle(a, b, c, 0.5), rhs) < 1e-9


# ----------------------------------------------------------------------
# transformation invariants
# ----------------------------------------------------------------------


def test_pfaff_invariant(rng):
    for _ in range(40):
        a = rng.uniform(-2, 2)
        b = rng.uniform(-2, 2)
        c = rng.uniform(0.3, 3)
        z = complex(rng.uniform(-0.55, 0.55), rng.uniform(-0.3, 0.3))
        lhs = sf.hyp2f1(a, b, c, z)
        rhs = (1 - z) ** (-b) * sf.hyp2f1(c - a, b, c, z / (z - 1))
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_euler_invariant(rng):
    for _ in range(40):
        a = rng.uniform(-2, 2)
        b = rng.uniform(-2, 2)
        c = rng.uniform(0.3, 3)
        z = complex(rng.uniform(-0.55, 0.55), rng.uniform(-0.3, 0.3))
        lhs = sf.hyp2f1(a, b, c, z)
        rhs = (1 - z) ** (c - a - b) * sf.hyp2f1(c - a, c - b, c, z)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_ab_symmetry_bit_for_bit(rng):
    for _ in range(20):
        a = rng.uniform(-2, 2)
        b = rng.uniform(-2, 2)
        c = rng.uniform(0.3, 3)
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3))
        assert sf.hyp2f1(a, b, c, z) == sf.hyp2f1(b, a, c, z)


def test_gauss_contiguous_relations(rng):
    """All six expressions of the contiguous-relation chain agree."""
    F = sf.hyp2f1
    for _ in range(30):
        a = rng.uniform(-1.8, 1.8)
        b = rng.uniform(-1.8, 1.8)
        c = rng.uniform(0.5, 3)
        z = rng.uniform(0.05, 0.8)
        f = F(a, b, c, z)
        e1 = a * (F(a + 1, b, c, z) - f)
        e2 = ((c - a) * F(a - 1, b, c, z) + (a + b * z - c) * f) / (1 - z)
        e3 = b * (F(a, b + 1, c, z) - f)
        e4 = ((c - b) * F(a, b - 1, c, z) + (a * z + b - c) * f) / (1 - z)
        e5 = (c - 1) * (F(a, b, c - 1, z) - f)
        e6 = (
            z
            / c
            * ((c - a) * (c - b) * F(a, b, c + 1, z) + c * (a + b - c) * f)
            / (1 - z)
        )
        scale = 1 + abs(e1)
        for other in (e2, e3, e4, e5, e6):
            assert abs(e1 - other) < 1e-9 * scale


# ----------------------------------------------------------------------
# 3F2
# ----------------------------------------------------------------------


def test_hyp3f2_at_zero():
    assert sf.hyp3f2(0.3, 0.4, 0.5, 1.2, 1.3, 0.0) == 1


def test_hyp3f2_parameter_cancellation():
    got = sf.hyp3f2(0.3, 0.4, 1.2, 1.2, 1.3, 0.37)
    want = sf.hyp2f1(0.3, 0.4, 1.3, 0.37)
    assert rel_err(got, want) < 1e-12


def test_hyp3f2_terminating_finite_sum():
    got = sf.hyp3f2(0.3, 0.4, -2, 1.2, 1.3, 0.3)
    want = finite_sum_3f2_oracle(0.3, 0.4, -2, 1.2, 1.3, 0.3, 2)
    assert rel_err(got, want) < 1e-13


def test_hyp3f2_series_vs_bruteforce(rng):
    for _ in range(25):
        ps = [rng.uniform(-1.5, 1.5) for _ in range(3)]
        qs = [rng.uniform(0.4, 2.5) for _ in range(2)]
        z = rng.uniform(-0.85, 0.85)
        got = sf.hyp3f2(*ps, *qs, z)
        want = finite_sum_3f2_oracle(*ps, *qs, z, 800)
        assert rel_err(got, want) < 1e-10


def test_hyp3f2_collapse_far_argument():
    # integer-offset pair: third upper = second lower + k.  Real z inside the
    # unit disk and below -1, and a complex z with |z| > 1 off the cut, against
    # mpmath on the scale of max(|v|, 1); a parameter passed as a complex with
    # zero imaginary part counts as real and takes the same route.  The second
    # set has an integer b1 - a1 - a2, the 2F1's log case
    import mpmath as mp

    for a1, a2, b1, b2 in ((0.3, 0.4, 1.2, 0.9), (0.25, 0.75, 2.0, 0.9)):
        for k in range(4):
            for z in (0.6, 0.85, -1.5, -4.0, complex(-1.2, 1.1)):
                got = sf.hyp3f2(a1, a2, b2 + k, b1, b2, z)
                with mp.workdps(30):
                    want = complex(mp.hyp3f2(a1, a2, b2 + k, b1, b2, z))
                assert rel_err(got, want) <= 1e-12, (a1, k, z)
                assert sf.hyp3f2(complex(a1), a2, b2 + k, b1, complex(b2), z) == got


def test_hyp3f2_param_and_convergence_errors():
    with pytest.raises(ParamError):
        sf.hyp3f2(0.3, 0.4, 0.5, -1.0, 1.3, 0.2)
    with pytest.raises(ConvergenceError):
        sf.hyp3f2(0.3, 0.4, 0.5, 1.2, 1.3, -3.0)  # no collapse pair
    # a complex parameter with an integer-offset pair: the direct series
    # within |z| <= 0.9, a ConvergenceError naming the reason beyond it
    a1 = complex(0.3, 0.2)
    got = sf.hyp3f2(a1, 0.4, 2.9, 1.2, 0.9, -0.8)
    assert rel_err(got, finite_sum_3f2_oracle(a1, 0.4, 2.9, 1.2, 0.9, -0.8, 2000)) < 1e-12
    with pytest.raises(ConvergenceError, match="needs real parameters"):
        sf.hyp3f2(a1, 0.4, 2.9, 1.2, 0.9, -1.5)


# ----------------------------------------------------------------------
# beta functions
# ----------------------------------------------------------------------


def test_beta_complete_values():
    assert_close(sf.beta_complete(1, 1), 1.0, 1e-13)
    assert_close(sf.beta_complete(0.5, 0.5), math.pi, 1e-12)
    assert_close(sf.beta_complete(2, 3), Fraction(1, 12), 1e-13)


def test_beta_complete_poles_and_regularization():
    # a pole of Gamma(a), Gamma(b) or Gamma(a+b) each raises
    for a, b in ((-1, 0.5), (0.5, 0), (0.3, -0.3), (-2, 1)):
        with pytest.raises(PoleError):
            sf.beta_complete(a, b)


def test_beta_incomplete_basics(rng):
    assert sf.beta_incomplete(0.7, 1.3, 0.0) == 0
    assert_close(sf.beta_incomplete(1, 1, 0.42), 0.42, 1e-13)
    for _ in range(10):
        a = rng.uniform(0.2, 2)
        b = rng.uniform(0.2, 2)
        assert rel_err(sf.beta_incomplete(a, b, 1.0), sf.beta_complete(a, b)) < 1e-11


def test_beta_incomplete_connection_identity(rng):
    # B(a,b;z) = beta(a,b) - z^a (1-z)^b / b * 2F1(1, a+b; b+1; 1-z)
    for _ in range(30):
        a = rng.uniform(0.1, 2.5)
        b = rng.uniform(0.1, 2.5)
        z = rng.uniform(0.1, 0.9)
        lhs = sf.beta_incomplete(a, b, z)
        rhs = sf.beta_complete(a, b) - z**a * (1 - z) ** b / b * sf.hyp2f1(
            1, a + b, b + 1, 1 - z
        )
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_beta_incomplete_param_error():
    with pytest.raises(ParamError):
        sf.beta_incomplete(-1, 0.5, 0.3)


# ----------------------------------------------------------------------
# regularized / log-degenerate modes
# ----------------------------------------------------------------------


def test_hyp2f1_regularized_matches_ratio():
    a, b, z = 0.3, 0.7, 0.4
    got = sf.hyp2f1_regularized(a, b, 1.7, z)
    want = sf.hyp2f1(a, b, 1.7, z) / sf.gamma(1.7)
    assert rel_err(got, want) < 1e-12


def test_hyp2f1_regularized_at_pole_limit():
    # compare the c=-2 limit against the ratio evaluated just off the pole
    a, b, z = 0.3, 0.7, 0.4
    got = sf.hyp2f1_regularized(a, b, -2, z)
    eps = 1e-5
    f = lambda e: sf.hyp2f1(a, b, -2 + e, z) / sf.gamma(-2 + e)
    want = 2 * f(eps / 2) - f(eps)
    assert rel_err(got, want) < 1e-8


def test_log_pair_solves_hypergeometric_ode():
    a, b, z = 0.3, 0.7, 0.2
    y1, y2 = sf.hyp2f1_log_pair(a, b, z)
    assert rel_err(y1, sf.hyp2f1(a, b, 1.0, z)) < 1e-12
    h = 1e-5
    f = lambda t: sf.hyp2f1_log_pair(a, b, t)[1]
    d1 = (f(z + h) - f(z - h)) / (2 * h)
    d2 = (f(z + h) - 2 * f(z) + f(z - h)) / h**2
    res = z * (1 - z) * d2 + (1 - (a + b + 1) * z) * d1 - a * b * y2
    assert abs(res) < 1e-5
