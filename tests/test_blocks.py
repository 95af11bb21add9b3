"""PowerSum / BlockSum algebra: closure, derivatives, canonical forms,
exact series expansion."""
import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_close
from ghostcft import correlators as co
from ghostcft import kzbpz as kz
from ghostcft.blocks import (BlockSum, PowerSum, _payload_value, as_blocksum, exact_series,
                             values_at)
from ghostcft.errors import GhostCftError, PoleError
from ghostcft.scalars import cpow, is_exact, to_complex

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


def _canonical_reference(ps):
    """The straightforward normal form, kept as the oracle for canonical():
    Fraction exponents throughout, binomials built by recurrence, classes in
    sorted order."""
    groups: dict = {}
    for (p, q), c in ps.terms.items():
        pf, qf = Fraction(p), Fraction(q)
        groups.setdefault((pf % 1, qf % 1), []).append((pf, qf, Fraction(c)))
    out: dict = {}
    for _key, entries in sorted(groups.items()):
        q_min = min(q for _p, q, _c in entries)
        flat: dict = {}
        for p, q, c in entries:
            m = int(q - q_min)
            binom = Fraction(1)
            for i in range(m + 1):
                flat[p + i] = flat.get(p + i, Fraction(0)) + c * binom * (-1) ** i
                binom = binom * (m - i) / (i + 1)
        flat = {p: c for p, c in flat.items() if c != 0}
        if not flat:
            continue
        p0 = min(flat)
        deg = int(max(flat) - p0)
        coeffs = [flat.get(p0 + k, Fraction(0)) for k in range(deg + 1)]
        while len(coeffs) > 1 and sum(coeffs) == 0:
            acc = Fraction(0)
            quotient = []
            for c in coeffs[:-1]:
                acc += c
                quotient.append(acc)
            coeffs = quotient
            q_min += 1
        for k, c in enumerate(coeffs):
            if c != 0:
                key = (p0 + k, q_min)
                out[key] = out.get(key, Fraction(0)) + c
    return PowerSum(out)


def _random_exact_sum(rng):
    """Exponents in Z/2 (four classes), ints or Fractions, with redundant
    representations: (1-eta) factors written out as A - eta A, and a zero
    written as c eta^(1/2) (1-eta) - c (eta^(1/2) - eta^(3/2))."""
    terms = {}
    for _ in range(rng.randint(1, 7)):
        p = Fraction(rng.randint(-6, 6), 2)
        q = Fraction(rng.randint(-4, 4), 2)
        if p.denominator == 1 and rng.random() < 0.5:
            p = int(p)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        terms[(p, q)] = terms.get((p, q), 0) + c
    ps = PowerSum(terms)
    if rng.random() < 0.5:
        ps = ps.mul_power(0, -rng.randint(1, 2))
        for _ in range(rng.randint(1, 3)):
            ps = ps - ps.mul_power(1)
    if rng.random() < 0.3:
        c = Fraction(rng.randint(1, 5))
        ps = ps + PowerSum.single(c, half, 1) - PowerSum(
            {(half, 0): c, (half + 1, 0): -c})
    return ps


def _exact_value(ps, r, s):
    """ps at eta = r^2 with 1 - eta = s^2: exact for exponents in Z/2."""
    total = Fraction(0)
    for (p, q), c in ps.terms.items():
        total += c * Fraction(r) ** int(2 * p) * Fraction(s) ** int(2 * q)
    return total


def test_powersum_canonical_matches_reference(rng):
    # eta = 9/25, 1 - eta = 16/25 and eta = 25/169, 1 - eta = 144/169
    points = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)))
    for _ in range(300):
        ps = _random_exact_sum(rng)
        got, want = ps.canonical(), _canonical_reference(ps)
        assert list(got.terms.items()) == list(want.terms.items()), ps
        assert got.to_text() == want.to_text()
        assert got.canonical().terms == got.terms
        for r, s in points:
            assert _exact_value(got, r, s) == _exact_value(ps, r, s)


def test_powersum_canonical_ignores_insertion_order(rng):
    # the same multi-class sum with its terms inserted in reverse order has
    # the same canonical terms, in the same order, and the same float value
    checked = 0
    while checked < 300:
        ps = _random_exact_sum(rng)
        if len(ps.classes()) < 2:
            continue
        checked += 1
        reverse = PowerSum(dict(reversed(list(ps.terms.items()))))
        got, want = reverse.canonical(), ps.canonical()
        assert list(got.terms.items()) == list(want.terms.items()), ps
        assert repr(got.eval(0.37)) == repr(want.eval(0.37)), ps


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


def test_exact_series_of_zero_keeps_the_base_exponent():
    # a block that is zero, such as u' = (ab/c) 2F1(a+1, b+1; c+1) at a = 0,
    # expands at the base exponent it is given, like any other block
    zero = BlockSum.hyp2f1(Fraction(0), Fraction(0), Fraction(0), 1, 1, 2)
    assert exact_series(zero, 3, base_p=1) == (1, [0] * 4)
    assert exact_series(zero, 3) == (0, [0] * 4)


def test_exact_series_detects_incompatible_offsets():
    ps = PowerSum(
        {(half, Fraction(0)): Fraction(1), (Fraction(1, 3), Fraction(0)): Fraction(1)}
    )
    with pytest.raises(ValueError):
        exact_series(ps, 4)


def _value_reference(bs, eta):
    """BlockSum.value term by term, each payload evaluated afresh: the
    reference the shared-payload loop must match bit for bit."""
    one_minus = 1 - to_complex(eta)
    total = 0j
    for (p, q, kind, params), c in bs.terms.items():
        term = c * cpow(eta, p)
        if q != 0:
            term = term * cpow(one_minus, q)
        if kind != "pow":
            term = term * _payload_value(kind, params, eta)
        total += term
    return total


def _outcome(fn, *args):
    """repr of the result, or the type and message of the raise."""
    try:
        return repr(fn(*args))
    except GhostCftError as exc:
        return type(exc).__name__, str(exc)


def _recursed_blocks(rng):
    """Recursion outputs from float charges at depths 0 to 4: both flow-2
    blocks and the flow-3 power block (the recursion takes powers and 2F1
    payloads, not the incomplete-beta block)."""
    for ell in (2, 3):
        j1, j2 = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6)
        charges = (j1, j2, half, ell - j1 - j2 - 0.5)
        blocks = (co.fourpoint_blocksums(2, j1, j2, charges[3]) if ell == 2
                  else [co.block_l3_powersum(j1, j2, charges[3]).to_blocksum()])
        for block in blocks:
            for k in range(5):
                yield kz.recursion_iterate(block, charges, ell, k)


def test_blocksum_value_matches_the_termwise_reference(rng):
    a, b, c = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1.2, 2)
    shared = (
        # one payload of each kind at several (p, q)
        BlockSum.hyp2f1(1.3, 0.5, 0, a, b, c) + BlockSum.hyp2f1(-0.7, 1.5, 0.25, a, b, c)
        + BlockSum.hyp2f1(0.2, -0.5, 1, a + 1, b + 1, c + 1)
        + BlockSum.hyp3f2w(0.9, 0.1, 0.3, (a, b, 0.5), (c, 1.7))
        + BlockSum.hyp3f2w(-1.1, 1.1, -0.2, (a, b, 0.5), (c, 1.7))
        + BlockSum.incomplete_beta(0.4, 0, 0.5, 0.8, 1.4)
        + BlockSum.incomplete_beta(0.6, 1, 0, 0.8, 1.4)
        + BlockSum.power(2.0, 0.3, 0)
    )
    mixed = BlockSum({  # equal-valued exact and float parameters
        (0, 0, "2f1", (half, Fraction(1, 3), Fraction(3, 2))): 1,
        (1, 0, "2f1", (0.5, Fraction(1, 3), 1.5)): 1,
        (half, 1, "2f1", (Fraction(-2), half, Fraction(3, 2))): Fraction(2, 3),
        (Fraction(3, 2), 1, "2f1", (-2.0, 0.5, 1.5)): Fraction(2, 3),
        # at an exact eta these two payloads differ in the last bit
        (2, 0, "2f1", (Fraction(3, 8), Fraction(-4), Fraction(7, 4))): 1,
        (3, 0, "2f1", (0.375, -4.0, 1.75)): 1,
    })
    pow_only = PowerSum({(Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-2, 2), 3)):
                         Fraction(rng.randint(1, 9), 7) for _ in range(6)}).to_blocksum()
    pow_float = PowerSum({(rng.uniform(-1, 2), rng.uniform(-1, 1)): rng.uniform(-2, 2)
                          for _ in range(6)}).to_blocksum()
    sums = [shared, shared.deriv(), mixed, pow_only, pow_float, *_recursed_blocks(rng)]
    per_class = 0
    for bs in sums:
        exact = all(is_exact(c) and is_exact(p) and is_exact(q)
                    for (p, q, _kind, _params), c in bs.terms.items())
        for eta in (0.3, 0.71, 0.4 + 0.2j, complex(1.6, -0.0), Fraction(1, 3), Fraction(9, 10)):
            if type(eta) is Fraction and bs is not mixed and not bs.is_exact():
                continue
            if exact and type(eta) is float:
                # summed once per (payload, class), each class rounded once
                assert_close(bs.value(eta), _value_reference(bs, eta), 1e-13)
                per_class += 1
                continue
            assert _outcome(bs.value, eta) == _outcome(_value_reference, bs, eta), (bs.terms, eta)
    assert per_class > 20
    # one loop over several sums shares their payloads and keeps every bit
    for eta in (0.3, 0.4 + 0.2j):
        jet = [shared, shared.deriv(), shared.deriv().deriv()]
        assert list(map(repr, values_at(jet, eta, {}))) == [
            repr(_value_reference(bs, eta)) for bs in jet]


def test_exact_sum_at_an_exact_eta_keeps_exact_payloads():
    eta = Fraction(1, 3)
    bs = (BlockSum.hyp2f1(Fraction(3, 4), 1, 0, Fraction(-3), half, Fraction(5, 2))
          + BlockSum.hyp2f1(Fraction(-1, 5), 2, 1, Fraction(-3), half, Fraction(5, 2))
          + BlockSum.power(Fraction(7, 3), Fraction(-1), 2))
    payloads: dict = {}
    (got,) = values_at([bs], eta, payloads)
    assert repr(got) == repr(bs.value(eta)) == repr(_value_reference(bs, eta))
    assert len(payloads) == 1
    assert all(type(v) is Fraction for v in payloads.values())
    assert_close(got, bs.exact_value_terminating(eta), 1e-15)


def test_deriv_refuses_a_zero_lower_parameter():
    with pytest.raises(PoleError, match="c = 0"):
        BlockSum.hyp2f1(1, 0, 0, Fraction(-6), Fraction(17, 2), Fraction(0)).deriv()
    with pytest.raises(PoleError, match="b1 \\* b2 = 0"):
        BlockSum.hyp3f2w(1.0, 0, 0, (0.3, 0.4, 0.5), (1.2, 0.0)).deriv()


_TWENTIETHS = st.integers(1, 19).map(lambda n: Fraction(n, 20))


@given(_TWENTIETHS, _TWENTIETHS, st.booleans(), st.integers(0, 1), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_recursion_hands_over_the_split_the_sum_would_make(j1, j2, exact, which, k):
    # the split kzbpz._payload_blocksum makes of its stepped classes is the
    # one the recursed sum would make of its own terms, in the same order, so
    # either sums the same bits
    if not exact:
        j1, j2 = float(j1), float(j2)
    charges = (j1, j2, half, 2 - j1 - j2 - half)
    block = co.fourpoint_blocksums(2, j1, j2, charges[3])[which]
    try:
        out = kz.recursion_iterate(block, charges, 2, k)
    except GhostCftError:
        return
    handed = out._plan  # set by the recursion, before any evaluation
    rebuilt = BlockSum(out.terms)
    assert handed == rebuilt._payload_classes()
    for eta in (0.05, 0.3, 0.71, 0.95):
        assert _outcome(out.value, eta) == _outcome(rebuilt.value, eta)


def test_a_kept_split_gives_the_same_bits_at_every_visit(rng):
    sums = [*_recursed_blocks(rng), *(_random_exact_sum(rng).to_blocksum() for _ in range(20))]
    for bs in sums:
        first = bs.value(0.3)
        bs.value(0.71)
        assert repr(bs.value(0.3)) == repr(first)
        ps = bs.try_powersum()
        if ps is not None and ps.is_exact():
            first = ps.eval(0.3)
            ps.eval(0.71)
            assert repr(ps.eval(0.3)) == repr(first)


def test_eval_leaves_the_split_unchanged(rng):
    for _ in range(50):
        ps = _random_exact_sum(rng)
        classes, canonical = copy.deepcopy(ps.classes()), ps.canonical().terms
        ps.eval(0.3)
        ps.eval(0.71)
        assert ps.classes() == classes == PowerSum(ps.terms).classes()
        assert ps.canonical().terms == canonical
        bs = ps.to_blocksum()
        split = copy.deepcopy(bs._payload_classes())
        bs.value(0.3)
        assert bs._payload_classes() == split
