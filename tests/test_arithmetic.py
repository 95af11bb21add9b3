"""The arithmetic rule: every constant is written once, as an exact number.
Exact inputs give exact (Fraction or int) results, an exact sub-expression
stays exact inside a mixed input, and all-float inputs give the bits of the
float formulas."""
import random
from fractions import Fraction

import pytest

from ghostcft import correlators as co
from ghostcft import kzbpz as kz
from ghostcft import specfun as sf
from ghostcft.blocks import BlockSum, PowerSum

EXACT = (int, Fraction)
j1, j2, j3, j4 = Fraction(3, 10), Fraction(2, 5), Fraction(1, 2), Fraction(9, 5)


def _leaves(x):
    if isinstance(x, PowerSum):
        for (p, q), c in x.terms.items():
            yield from (p, q, c)
    elif isinstance(x, BlockSum):
        for (p, q, _kind, params), c in x.terms.items():
            yield from (p, q, c, *params)
    elif isinstance(x, (tuple, list)):
        for v in x:
            yield from _leaves(v)
    elif isinstance(x, dict):
        yield from _leaves(list(x.values()))
    else:
        yield x


@pytest.mark.parametrize("name, result", [
    ("weight", lambda: co.GhostPrimary(j4, 3).weight),
    ("weight-int", lambda: co.GhostPrimary(2, 3).weight),
    ("three_point_exponents", lambda: co.three_point_exponents(j1, j2, Fraction(13, 10), 2)),
    ("blocks_l2_params", lambda: co.blocks_l2_params(j1, j2, j4)),
    ("fourpoint_blocksums", lambda: co.fourpoint_blocksums(2, j1, j2, j4)),
    ("block_l3_powersum", lambda: co.block_l3_powersum(j1, j2, j4)),
    ("poly_Pk_polysum", lambda: co.poly_Pk_polysum(4, j1, j4)),
    ("poly_Pk", lambda: co.poly_Pk(4, j1, j4, Fraction(2, 7))),
    ("poly_Pk_hypergeometric", lambda: co.poly_Pk_hypergeometric(4, j1, j4, Fraction(2, 7))),
    ("ward_exponents", lambda: co.ward_exponents(*co.standard_frame_data(j1, j2, j3, j4, 3))),
    ("standard_frame_data", lambda: co.standard_frame_data(j1, j2, j3, j4, 3)),
    ("pochhammer", lambda: sf.pochhammer(j1, 4)),
    ("pochhammer-empty", lambda: sf.pochhammer(j1, 0)),
    ("hyp2f1-terminating", lambda: sf.hyp2f1(-3, j2, j4, Fraction(1, 3))),
    ("hyp2f1_deriv", lambda: sf.hyp2f1_deriv(-3, j2, j4, Fraction(1, 3), order=2)),
    ("hyp3f2-terminating", lambda: sf.hyp3f2(-3, j1, j2, j4, Fraction(7, 3), Fraction(1, 3))),
    ("beta_incomplete", lambda: sf.beta_incomplete(2, 3, Fraction(1, 3))),
    ("PowerSum.eval", lambda: PowerSum({(2, Fraction(3)): j1, (1, -1): j2}).eval(Fraction(1, 3))),
    ("eta_polynomial", lambda: co.poly_Pk_polysum(3, j1, j4).eta_polynomial(0, 0)),
    ("recursion_iterate", lambda: kz.recursion_iterate(
        co.block_l3_powersum(j1, j2, j4), (j1, j2, j3, j4), 3, 3)),
    ("recursion_step-int-charges", lambda: kz.recursion_step(
        PowerSum.single(1, 2), (1, 2, 2, -1), 1)),
])
def test_exact_inputs_give_exact_results(name, result):
    leaves = list(_leaves(result()))
    assert leaves
    assert all(isinstance(v, EXACT) for v in leaves), (name, leaves)


def test_exact_sub_expression_stays_exact_in_mixed_input():
    e12, e13, e23 = co.three_point_exponents(0.3, Fraction(1, 2), Fraction(1, 3), 1)
    assert e12 == 0 and isinstance(e12, Fraction)
    assert e13 == Fraction(1, 6) and isinstance(e13, Fraction)
    assert isinstance(e23, float)


def _same_bits(got, want):
    return type(got) in (float, Fraction) and float(got).hex() == want.hex()


def test_float_inputs_keep_the_float_formula_bits():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c, d = (rng.uniform(-3, 3) for _ in range(4))
        ell = rng.randint(1, 3)
        want = ((c - 0.5 * ell) * (ell - 1),
                -b - (c - 0.5 * (ell + 1)) * ell,
                -a - (c - 0.5 * (ell + 1)) * ell)
        got = co.three_point_exponents(a, b, c, ell)
        assert all(_same_bits(g, w) for g, w in zip(got, want))

        want = ((-a + 1.0, 0.5, d + 0.5), (b, -d + 1.0, -d + 1.0 + 0.5))
        got = co.blocks_l2_params(a, b, d)
        assert all(_same_bits(g, w) for g, w in zip(got[0] + got[1], want[0] + want[1]))

        qs = [a, b, c, d]
        hs = [0.0, 0.0, 0.0, rng.uniform(-3, 3)]
        h = (1.0 / 3.0) * sum(hs)
        got = co.ward_exponents(qs, hs)
        for (i, k), e in got.items():
            want = h - (hs[i - 1] + hs[k - 1]) + 0.5 * (qs[i - 1] + qs[k - 1])
            assert _same_bits(e, want)
