"""PowerSum / BlockSum algebra: closure, derivatives, canonical forms,
exact series expansion."""
from fractions import Fraction

import pytest

from conftest import assert_close
from ghostcft.blocks import BlockSum, PowerSum, as_blocksum, exact_series

half = Fraction(1, 2)


def fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_powersum_merge_and_zero():
    ps = PowerSum({(half, Fraction(0)): Fraction(2)})
    ps2 = ps + PowerSum({(half, Fraction(0)): Fraction(-2)})
    assert ps2.is_zero()
    tot = ps + ps.scale(3)
    assert tot.terms == {(half, Fraction(0)): Fraction(8)}


def test_mul_power_adds_colliding_float_keys():
    # 0.1 + 0.2 != 0.3 as floats, but both exponents shift to 1.3
    ps = PowerSum({(0.1 + 0.2, 0): 1.0, (0.3, 0): 1.0}).mul_power(1)
    assert ps.terms == {(1.3, 0): 2.0}
    bs = (BlockSum.power(1.0, 0.1 + 0.2) + BlockSum.power(1.0, 0.3)).mul_power(1)
    assert bs.terms == {(1.3, 0, "pow", ()): 2.0}


def test_blocksum_merges_like_terms():
    bs = BlockSum.hyp2f1(1.0, 0.5, 0, 0.3, 0.4, 1.2) + BlockSum.hyp2f1(
        2.0, 0.5, 0, 0.3, 0.4, 1.2)
    assert bs.terms == {(0.5, 0, "2f1", (0.3, 0.4, 1.2)): 3.0}
    assert (bs - bs.scale(1.0)).is_zero()


def test_powersum_derivative_matches_fd():
    ps = PowerSum.single(Fraction(3, 2), half, Fraction(-1, 4)) + PowerSum.single(
        Fraction(-2, 3), Fraction(7, 5), Fraction(2)
    )
    d = ps.deriv()
    got = complex(d.eval(0.3))
    want = fd(lambda x: complex(ps.eval(x)), 0.3)
    assert abs(got - want) < 1e-9


def test_powersum_mul_power_and_eval_exact():
    ps = PowerSum.single(Fraction(2), Fraction(1), Fraction(1))
    shifted = ps.mul_power(2, -1)
    assert shifted.terms == {(Fraction(3), Fraction(0)): Fraction(2)}
    assert shifted.eval(Fraction(1, 3)) == 2 * Fraction(1, 27)


def test_powersum_eta_polynomial():
    ps = PowerSum(
        {
            (half, Fraction(1)): Fraction(3),
            (half + 2, Fraction(1)): Fraction(-1, 2),
        }
    )
    coeffs = ps.eta_polynomial(half, Fraction(1))
    assert coeffs == [Fraction(3), Fraction(0), Fraction(-1, 2)]
    with pytest.raises(ValueError):
        ps.eta_polynomial(half, Fraction(0))


def test_powersum_canonical_kills_redundancy():
    # (1-eta) eta^p == eta^p - eta^{p+1}
    a = PowerSum.single(Fraction(1), half, Fraction(1))
    b = PowerSum(
        {(half, Fraction(0)): Fraction(1), (half + 1, Fraction(0)): Fraction(-1)}
    )
    assert a.terms != b.terms
    assert a.equals(b)
    assert a.canonical().terms == b.canonical().terms
    # canonical is idempotent and value-preserving
    c = a.canonical()
    assert c.canonical() == c
    assert abs(complex(a.eval(0.4)) - complex(c.eval(0.4))) < 1e-15


def test_blocksum_payload_derivatives_match_fd():
    cases = [
        BlockSum.hyp2f1(1.0, 1.0, 0.0, 0.65, 0.5, 1.85),
        BlockSum.hyp3f2w(1.0, 0.7, -0.2, (0.3, 0.4, 0.5), (1.2, 1.3)),
        BlockSum.incomplete_beta(2.0, 0.5, 0.0, 0.8, 1.4),
        BlockSum.power(1.3, 0.4, -0.2) + BlockSum.power(0.7, 1.1, 0.3),
    ]
    for bs in cases:
        d = bs.deriv()
        got = d.value(0.3)
        want = fd(bs.value, 0.3)
        assert abs(got - want) < 2e-9


def test_blocksum_second_derivative_closure():
    bs = BlockSum.hyp2f1(1.0, 1.0, 0.0, 0.65, 0.5, 1.85)
    d2 = bs.deriv().deriv()
    h = 1e-4
    want = (bs.value(0.3 + h) - 2 * bs.value(0.3) + bs.value(0.3 - h)) / h**2
    assert abs(d2.value(0.3) - want) < 1e-6


def test_blocksum_exactness_flag():
    exact = BlockSum.hyp2f1(Fraction(1), Fraction(1), Fraction(0), half, half, Fraction(5, 4))
    assert exact.is_exact()
    assert not BlockSum.hyp2f1(1.0, 1, 0, 0.5, 0.5, 1.25).is_exact()
    assert exact.deriv().is_exact()


def test_as_blocksum_and_try_powersum():
    ps = PowerSum.single(Fraction(1), half)
    bs = as_blocksum(ps)
    back = bs.try_powersum()
    assert back == ps
    assert BlockSum.hyp2f1(1, 0, 0, 0.5, 0.5, 1.25).try_powersum() is None


def test_exact_series_power_and_2f1():
    ps = PowerSum.single(Fraction(1), half, Fraction(3, 2))
    p0, coeffs = exact_series(ps, 8)
    assert p0 == half
    assert coeffs[0] == 1 and coeffs[1] == Fraction(-3, 2)
    val = sum(float(c) * 0.2 ** (k + 0.5) for k, c in enumerate(coeffs))
    assert abs(val - complex(ps.eval(0.2)).real) < 1e-8

    bs = BlockSum.hyp2f1(Fraction(1), Fraction(0), Fraction(0), half, half, Fraction(5, 4))
    p0, coeffs = exact_series(bs, 6)
    assert p0 == 0
    # 2F1 series: 1 + ab/c z + ...
    assert coeffs[0] == 1
    assert coeffs[1] == half * half / Fraction(5, 4)


def test_exact_series_detects_incompatible_offsets():
    ps = PowerSum(
        {(half, Fraction(0)): Fraction(1), (Fraction(1, 3), Fraction(0)): Fraction(1)}
    )
    with pytest.raises(ValueError):
        exact_series(ps, 4)
