"""dfinite.apply against the Taylor series of the element it steps.

The oracle expands the element before and after the operators with
``blocks.exact_series`` (the 2F1 series, its derivative
(ab/c) 2F1(a+1, b+1; c+1) and the binomial series of (1-x)^Q, all exact)
and applies each operator to the input series term by term; nothing in it
shares the banded recurrence."""
from fractions import Fraction
from itertools import accumulate
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from ghostcft import dfinite
from ghostcft.blocks import BlockSum, exact_series

ORDER = 30

_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
_lower = _rationals.filter(lambda c: not (c.denominator == 1 and c <= 0))
_ints = st.integers(-9, 9)


@st.composite
def _runs(draw):
    """(element, params, ops, w): a 2F1 element A u + B u' or a power block,
    and one to three operators, each of the 3F2's shape (h = 0, n = -1) or
    the charge shift's (h = l, n = 0)."""
    power = draw(st.booleans())
    params = (0, 0, 0) if power else tuple(draw(_rationals) for _ in range(2)) + (draw(_lower),)
    fracs = [Fraction(draw(st.integers(0, 11)), 12) for _ in range(2)]
    nums = draw(st.lists(_ints, min_size=1, max_size=4))
    bnums = None if power else draw(st.lists(_ints, max_size=4))
    element = (*fracs, draw(st.integers(-2, 2)), draw(st.integers(-2, 2)),
               draw(st.integers(1, 30)), nums, bnums)
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from([(0, -1), (1, 0), (2, 0), (3, 0)]))
        ops.append((*shape, draw(_ints), draw(_ints), draw(_ints), draw(st.integers(1, 12))))
    return element, params, ops, draw(st.integers(1, 12))


def _block(element, params) -> BlockSum:
    """The element as a BlockSum in u = 2F1(a, b; c; x) and
    u' = (ab/c) 2F1(a+1, b+1; c+1; x), or in powers for u = 1."""
    p_frac, q_frac, p0, q0, den, nums, bnums = element
    p, q = p_frac + p0, q_frac + q0
    if bnums is None:
        return BlockSum({(p + i, q, "pow", ()): Fraction(x, den) for i, x in enumerate(nums)})
    a, b, c = params
    du = (a + 1, b + 1, c + 1)
    terms = {(p + i, q, "2f1", params): Fraction(x, den) for i, x in enumerate(nums)}
    terms.update(((p + i, q, "2f1", du), Fraction(x, den) * a * b / c) for i, x in enumerate(bnums))
    return BlockSum(terms)


def _applied(p, series, op, w):
    """x^h (1-x)^n [(c0 + c1 x) / w + d (1-x) theta] / g on x^p sum_k s_k x^k,
    term by term: (p + h, the coefficients to the same order)."""
    h, n, c0, c1, d, g = op
    theta = [(p + k) * s for k, s in enumerate(series)]
    lower = [0] + series[:-1]
    out = [Fraction(c0 * s + c1 * s1, w) + d * (t - t1)
           for s, s1, t, t1 in zip(series, lower, theta, [0] + theta[:-1])]
    if n == -1:  # 1/(1-x) = 1 + x + x^2 + ...
        out = list(accumulate(out))
    return p + h, [x / g for x in out]


@given(_runs())
@settings(max_examples=80, deadline=None)
def test_apply_matches_the_operators_on_the_taylor_series(run):
    element, params, ops, w = run
    p, series = exact_series(_block(element, params), ORDER, element[0] + element[2])
    for op in ops:
        p, series = _applied(p, series, op, w)
    stepped = dfinite.reduced(dfinite.apply(element, params, ops, w))
    if stepped is None:
        assert not any(series)
        return
    p_frac, q_frac, p0, q0, den, nums, bnums = stepped
    assert p_frac + p0 >= p and (bnums is None) == (element[6] is None)
    assert exact_series(_block(stepped, params), ORDER, p) == (p, series)
    # the normal form of PowerSum.classes(), with B alongside A
    lists = [nums] if bnums is None else [nums, bnums]
    assert den > 0 and gcd(den, *nums, *(bnums or ())) == 1
    assert all(xs[-1] for xs in lists if xs) and any(xs[0] for xs in lists if xs)
