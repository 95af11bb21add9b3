"""Correlator closed forms: selection rules, 2-/3-point functions, block
families, the log regime, monodromy data, bulk combinations, the
charge-shift polynomial and the general-charge block formulas."""
import cmath
import math
import warnings
from fractions import Fraction

import pytest

from conftest import assert_close, rel_err
from ghostcft import correlators as co
from ghostcft import specfun as sf
from ghostcft.blocks import BlockSum, PowerSum
from ghostcft.errors import (
    ChargeError,
    DegenerateError,
    PoleError,
    UnsupportedShape,
    VanishingConstantRequired,
)

half = Fraction(1, 2)


# ----------------------------------------------------------------------
# selection rules
# ----------------------------------------------------------------------


def _spec(*pairs):
    return co.CorrelatorSpec([co.GhostPrimary(j, l) for j, l in pairs])


def test_selection_one_sided_flows():
    v = co.selection_rule(_spec((half, 0), (half, 0)))
    assert v.zero and v.reason == "all-flows-nonpositive"
    v = co.selection_rule(_spec((half, 1), (half, 2), (0.3, 1), (0.1, 1)))
    assert v.zero and v.reason == "all-flows-positive"


def test_selection_charge_violation():
    v = co.selection_rule(_spec((0.3, 0), (0.4, 1)))
    assert v.zero and v.reason == "charge-violation"


def test_selection_ell_window():
    charges = (0.1, 0.2, 0.3)
    j4 = 5 - sum(charges)
    v = co.selection_rule(
        _spec((0.1, 0), (0.2, 0), (0.3, 0), (j4, 5))
    )
    assert v.zero and v.reason == "ell-window"
    v = co.selection_rule(_spec((0.1, 0), (0.2, 0), (2.7, 3)))
    assert v.zero and v.reason == "ell-window"


def test_selection_maybe_nonzero_and_shape_guard():
    v = co.selection_rule(_spec((half, 0), (half, 1)))
    assert not v.zero
    # conserved charge but a flow pattern off the standard shape
    with pytest.raises(UnsupportedShape):
        co.selection_rule(_spec((1.5, 1), (0.2, 0), (0.3, 0), (1.0, 2)))


# ----------------------------------------------------------------------
# 2- and 3-point functions
# ----------------------------------------------------------------------


def test_two_point_frozen_value():
    v = co.two_point(co.GhostPrimary(half, 0), co.GhostPrimary(half, 1), 4, 0)
    assert_close(v, 2.0, 1e-14)  # 4^(1/2)


def test_two_point_charge_violation_zero():
    assert co.two_point(co.GhostPrimary(0.3, 0), co.GhostPrimary(0.4, 1), 2, 0) == 0
    assert co.two_point(co.GhostPrimary(0.3, 0), co.GhostPrimary(0.7, 0), 2, 0) == 0


def test_two_point_special_form(rng):
    for _ in range(10):
        j = rng.uniform(-1.5, 1.5)
        w1, w2 = 3.3, 1.1
        v = co.two_point(co.GhostPrimary(j, 0), co.GhostPrimary(1 - j, 1), w1, w2)
        assert_close(v, (w1 - w2) ** j, 1e-12)


def test_three_point_exponents_l1():
    # at ell=1 the exponents are (0, -j2-(j3-1), -j1-(j3-1)); with j3 = 1
    # this is the plain (0, -j2, -j1) pattern
    e12, e13, e23 = co.three_point_exponents(0.3, 0.45, 1.0, 1)
    assert abs(e12) < 1e-15
    assert_close(e13, -0.45, 1e-14)
    assert_close(e23, -0.3, 1e-14)
    e12, e13, e23 = co.three_point_exponents(0.3, 0.45, 0.25, 1)
    assert_close(e13, -0.45 - (0.25 - 1), 1e-14)
    assert_close(e23, -0.3 - (0.25 - 1), 1e-14)


def test_three_point_vanishes_beyond_flow_two():
    assert co.three_point(0.3, 0.45, 2.25, 3, 3.0, 1.5, 0.2) == 0
    assert co.three_point(0.3, 0.45, 3.25, 4, 3.0, 1.5, 0.2) == 0


def test_three_point_ward_residuals():
    # the closed form satisfies the special-conformal identity
    from ghostcft.kzbpz import sample_insertions, ward_residuals

    j1, j2, ell = 0.3, 0.45, 2
    j3 = ell - j1 - j2
    charges = [j1, j2, j3 - ell]
    weights = [0, 0, j3 * ell - ell * (ell + 1) / 2]
    form = co.WardForm(charges, weights)
    reports = ward_residuals(form, charges, weights, sample_insertions(3))
    assert max(rep.max_abs for rep in reports.values()) < 1e-12


def test_ward_form_below_four_points_takes_a_constant_h_only():
    charges, weights = co.standard_frame_data(0.3, 0.45, 1.25, 2)
    with pytest.raises(UnsupportedShape):
        co.WardForm(charges, weights, BlockSum.power(1, 0.5, 0))
    ws = [3.0, 1.5, 0.2]
    form = co.WardForm(charges, weights, BlockSum.constant(Fraction(3, 2)))
    assert form.value(ws) == 1.5 * co.WardForm(charges, weights).value(ws)


# ----------------------------------------------------------------------
# block families
# ----------------------------------------------------------------------


def test_block_l1_values():
    assert_close(co.block_l1(0.5, 0.25), 0.5, 1e-14)
    assert co.block_l1(0, 0.73) == 1
    # satisfies d F = (j3/eta) F
    j3, eta, h = 0.37, 0.3, 1e-6
    d = (co.block_l1(j3, eta + h) - co.block_l1(j3, eta - h)) / (2 * h)
    assert rel_err(d, j3 / eta * co.block_l1(j3, eta)) < 1e-8


def test_blocks_l1_match_their_blocksums():
    j2, j4 = 0.35, 0.27
    power = BlockSum.power(1, 0.5, 0)
    beta = BlockSum.incomplete_beta(1, 0.5, 0, -j4 + 0.5, -j2 + 0.5)
    for eta in (0.13, 0.5, 0.81):
        b1, b2 = co.blocks_l1(j2, j4, eta)
        assert_close(b1, power.value(eta), 1e-14)
        assert_close(b2, beta.value(eta), 1e-12)


def test_blocks_l2_leading_exponents():
    j1, j2 = 0.35, 0.8
    j4 = 1.5 - j1 - j2
    eta = 1e-6
    b1, b2 = co.blocks_l2(j1, j2, j4, eta)
    assert rel_err(b1, eta) < 1e-5
    assert rel_err(b2, eta ** (-j4 + 1.5)) < 1e-5


def test_blocks_l2_terminating_case():
    # j1 = 1 makes the first block exactly eta
    j1, j2 = 1.0, 0.8
    j4 = 1.5 - j1 - j2
    b1, _ = co.blocks_l2(j1, j2, j4, 0.42)
    assert_close(b1, 0.42, 1e-14)


def test_blocks_l2_degenerate_guard():
    with pytest.raises(DegenerateError):
        co.blocks_l2(0.3, 0.7, 1.5, 0.3)


def test_block_l3_reductions():
    j1, j2 = 0.35, 0.8
    j4 = 2.5 - j1 - j2
    eta = 0.37
    full = co.block_l3_general(j1, j2, j4, eta, 1.0, 0.0)
    assert_close(full, co.block_l3(j1, j2, j4, eta), 1e-14)
    # zero-exponent corner: j4 = 2 and j2 = 1/2 give a constant
    assert_close(co.block_l3(0.0, 0.5, 2.0, 0.9), 1.0, 1e-14)
    b1, b2 = co.blocks_l3(j1, j2, j4, eta)
    assert_close(
        b2, co.block_l3(j1, j2, j4, eta) * sf.beta_incomplete(j4 - 0.5, j2 - 0.5, eta),
        1e-12,
    )


# ----------------------------------------------------------------------
# log regime
# ----------------------------------------------------------------------


def test_log_blocks_requires_half_integer():
    with pytest.raises(ChargeError):
        co.log_blocks_l2(0.3, 0.7, 0.4, 0.01)


def test_log_partner_behaves_like_log():
    # the log partner divided by the regular block approximates log(eta)
    j1 = 0.3
    j4h = Fraction(1, 2)
    j2 = 1.5 - j1 - float(j4h)
    for eta in (1e-4, 1e-5):
        reg, logp = co.log_blocks_l2(j1, j2, j4h, eta)
        ratio = (logp / reg).real
        assert abs(ratio - math.log(eta)) < 0.05 * abs(math.log(eta))


def test_log_singularity_ratio_matches_log():
    j1 = 0.3
    j2 = 1.5 - j1 - 0.5
    for eps in (1e-3, 1e-4):
        got = co.log_singularity_ratio(j1, j2, half, eps, 1e-4, 1e-6)
        want = math.log(1e-6) / math.log(1e-4)
        assert abs(got - want) <= 0.02 * abs(want)


# ----------------------------------------------------------------------
# monodromy and bulk data
# ----------------------------------------------------------------------


def test_monodromy_ratio_frozen_value():
    # gamma-oracle value at (1/4, 1/2, 3/4): -[(1/4)G(1/4)^2/G(3/4)^2]^2
    g14 = sf.gamma(0.25)
    g34 = sf.gamma(0.75)
    want = -((0.25 * g14**2 / g34**2) ** 2)
    got = co.monodromy_ratio_l2(0.25, 0.5, 0.75)
    assert rel_err(got, want) < 1e-12
    assert abs(got.real + 4.7892679494926091) < 1e-6


def test_monodromy_ratio_symmetric_and_poles():
    a = co.monodromy_ratio_l2(0.3, 0.45, 0.75)
    b = co.monodromy_ratio_l2(0.45, 0.3, 0.75)
    assert rel_err(a, b) < 1e-12
    with pytest.raises(PoleError):
        co.monodromy_ratio_l2(1.0, 0.45, 0.75)
    with pytest.raises(PoleError):
        co.monodromy_ratio_l2(0.3, 0.45, 1.5)


def test_monodromy_ratio_finite_near_half_integers(rng):
    # approaching j4 in Z+1/2 the ratio stays finite and non-zero
    for eps in (1e-2, 1e-3):
        for base in (0.5, 1.5):
            j4 = base + eps
            j1 = 0.3
            j2 = 1.5 - j1 - j4
            val = co.monodromy_ratio_l2(j1, j2, j4)
            assert 1e-6 < abs(val) < 1e6


def test_monodromy_grid_finite(rng):
    for _ in range(20):
        j1 = rng.uniform(0.05, 0.95)
        j2 = rng.uniform(0.05, 0.95)
        j4 = 1.5 - j1 - j2
        if min(abs(j4 - round(j4)), abs(j4 - 0.5 - round(j4 - 0.5))) < 0.03:
            continue
        val = co.monodromy_ratio_l2(j1, j2, j4)
        assert 0 < abs(val) < 1e8


def test_bulk_real_and_single_valued():
    j1, j2 = 0.35, 0.8
    j4 = 1.5 - j1 - j2
    v = co.bulk_l2(j1, j2, j4, 0.62, 1.0)
    assert abs(v.imag) < 1e-12
    for n in (1, -2):
        w = co.bulk_l2(j1, j2, j4, 0.62, 1.0, winding0=n)
        assert abs(v - w) < 1e-9 * abs(v)
    # a deliberate off-diagonal coefficient breaks invariance
    a = co.bulk_l2(j1, j2, j4, 0.62, 1.0, winding0=0, alpha12=0.1)
    b = co.bulk_l2(j1, j2, j4, 0.62, 1.0, winding0=1, alpha12=0.1)
    assert abs(a - b) > 1e-3


def test_bulk_crossterm_vanishes(rng):
    for _ in range(12):
        j1 = rng.uniform(0.05, 0.7)
        j2 = rng.uniform(0.05, 0.7)
        j4 = 1.5 - j1 - j2
        if min(abs(j4 - round(j4)), abs(2 * j4 - round(2 * j4))) < 0.03:
            continue
        for eta in (0.9, 0.97):
            assert co.bulk_l2_crossterm_residual(j1, j2, j4, eta) < 1e-10


def test_bulk_crossterm_recursed_k_independent():
    j1, j2 = 0.35, 0.8
    j4 = 1.5 - j1 - j2
    for k in (0, 1, 2):
        for eta in (0.9, 0.97):
            val = co.bulk_l2_crossterm_recursed(k, j1, j2, j4, eta)
            assert abs(val) < 1e-10


def test_bulk_three_point_limit():
    # j2 -> 0 with the power block switched off leaves |eta|^{2 j1}
    j1 = 0.4
    j4 = 1.5 - j1
    eta = 0.3
    f2 = sf.hyp2f1(0.0, -j4 + 1, -j4 + 1.5, eta)  # = 1
    val = abs(eta ** (-j4 + 1.5) * f2) ** 2
    assert rel_err(val, eta ** (2 * j1)) < 1e-12


# ----------------------------------------------------------------------
# charge-shift polynomial
# ----------------------------------------------------------------------


def test_poly_pk_base_cases():
    assert co.poly_Pk(0, 0.3, 0.7, 0.4) == 1
    want = -2 * ((0.7 - 1) + (1.5 - 0.3) * 0.4)
    assert_close(co.poly_Pk(1, 0.3, 0.7, 0.4), want, 1e-14)


def test_poly_pk_hypergeometric_equality_exact():
    j1, j4, eta = Fraction(1, 3), Fraction(7, 5), Fraction(2, 7)
    for k in range(7):
        assert co.poly_Pk(k, j1, j4, eta) == co.poly_Pk_hypergeometric(k, j1, j4, eta)


def test_poly_pk_hypergeometric_equality_numeric(rng):
    for _ in range(10):
        j1 = rng.uniform(-1.5, 1.5)
        j4 = rng.uniform(-1.5, 1.5)
        eta = rng.uniform(0.05, 0.9)
        for k in range(7):
            a = co.poly_Pk(k, j1, j4, eta)
            b = co.poly_Pk_hypergeometric(k, j1, j4, eta)
            assert rel_err(a, b) < 1e-10


def test_poly_pk_degree_and_leading_coefficient():
    j1, j4 = Fraction(1, 3), Fraction(7, 5)
    for k in range(5):
        ps = co.poly_Pk_polysum(k, j1, j4)
        coeffs = ps.eta_polynomial(Fraction(0), Fraction(0))
        assert len(coeffs) == k + 1
        want_lead = (
            Fraction((-1) ** k * 2**k, co.double_factorial_odd(k))
            * sf.pochhammer(-j1 + Fraction(3, 2), k)
        )
        assert coeffs[-1] == want_lead


# ----------------------------------------------------------------------
# general-charge block formulas
# ----------------------------------------------------------------------


def test_conj_block_l3_reduces_at_probe_charge():
    j1, j2 = 0.35, 0.8
    j4 = 3 - j1 - j2 - 0.5
    eta = 0.37
    got = co.conj_block_l3(j1, j2, 0.5, j4, eta)
    want = co.block_l3(j1, j2, j4, eta)
    assert rel_err(got, want) < 1e-12


def test_conj_block_l3_powersum_matches_numeric():
    j1, j2 = Fraction(7, 20), Fraction(4, 5)
    for j3 in (half, Fraction(5, 2), Fraction(9, 2)):
        j4 = 3 - j1 - j2 - j3
        ps = co.conj_block_l3_powersum(j1, j2, j3, j4)
        assert ps.is_exact()
        for eta in (0.2, 0.37, 0.6):
            want = co.conj_block_l3(float(j1), float(j2), float(j3), float(j4), eta)
            assert rel_err(complex(ps.eval(eta)), want) < 1e-12


def test_conj_block_l3_minus_half_prefactor():
    # the j3 = -1/2 member carries 1/(2(j4-1)) relative to the base constant
    j1, j2 = 0.35, 0.8
    j4 = 3 - j1 - j2 + 0.5
    eta = 0.37
    got = co.conj_block_l3(j1, j2, -0.5, j4, eta)
    want = (
        1.0
        / (2 * (j4 - 1))
        * eta ** (-j4)
        * (1 - eta) ** (-j2 + 0.5)
        * sf.hyp2f1(-j1 + 1.5, 1.0, -j4 + 2, eta)
    )
    assert rel_err(got, want) < 1e-11


def test_conj_block_l3_regularized_lattice():
    # -j3-j4+3/2 in -N0: the regularized route stays finite and matches the
    # eps-limit in j4
    j1 = 0.3
    j3 = 2.5
    j4 = 0.0  # c_low = -j3-j4+3/2 = -1
    j2 = 3 - j1 - j3 - j4
    eta = 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", co.ConjecturalChargeWarning)
        got = co.conj_block_l3(j1, j2, j3, j4, eta)
        eps = 1e-6
        up = co.conj_block_l3(j1, j2 - eps, j3, j4 + eps, eta)
        dn = co.conj_block_l3(j1, j2 - eps / 2, j3, j4 + eps / 2, eta)
    assert cmath.isfinite(got)
    assert rel_err(got, 2 * dn - up) < 1e-6


def test_conj_block_l3_vanishing_constant_flag():
    # j1 - j4 in Z+1/2 must surface a flag, not a number
    j1 = 0.3
    j4 = j1 + 0.5
    j3 = 1.5
    j2 = 3 - j1 - j3 - j4
    with pytest.raises(VanishingConstantRequired):
        co.conj_block_l3(j1, j2, j3, j4, 0.3)
    # j1 - j3 integral likewise
    with pytest.raises(VanishingConstantRequired):
        co.conj_block_l3(1.5, 3 - 1.5 - 1.5 - 0.7, 1.5, 0.7, 0.3)


def test_conj_block_l3_warns_off_lattice():
    j1, j2 = 0.35, 0.8
    j3 = 0.63
    j4 = 3 - j1 - j2 - j3
    with pytest.warns(co.ConjecturalChargeWarning):
        co.conj_block_l3(j1, j2, j3, j4, 0.3)


def test_conj_blocks_l2_reduce_at_probe_charge():
    j1, j2 = 0.35, 0.8
    j4 = 2 - j1 - j2 - 0.5
    eta = 0.37
    b1c, b2c = co.conj_blocks_l2(j1, j2, 0.5, j4, eta)
    b1, b2 = co.blocks_l2(j1, j2, j4, eta)
    assert rel_err(b1c, b1) < 1e-10
    assert rel_err(b2c, b2) < 1e-10


def test_conj_blocks_l2_small_eta_normalization():
    j1, j2 = 0.35, 0.8
    k = 2
    j3 = 0.5 + k
    j4 = 2 - j1 - j2 - j3
    eta = 1e-5
    b1, _ = co.conj_blocks_l2(j1, j2, j3, j4, eta)
    assert rel_err(b1 / eta ** (2 * j3), 1.0) < 1e-4


# ----------------------------------------------------------------------
# specialization maps
# ----------------------------------------------------------------------


def test_specialize_round_trip_power_block():
    j1, j2, j3 = Fraction(3, 10), Fraction(2, 5), Fraction(27, 100)
    j4 = 1 - j1 - j2 - j3
    block = PowerSum.single(Fraction(1), j3)
    h = co.h_from_specialized(block, j1, j2, j3, j4, 1)
    back = co.specialize(h, j1, j2, j3, j4, 1)
    assert back.equals(block)


def test_unspecialize_round_trip_values():
    j1, j2 = 0.35, 0.8
    j4 = 1.5 - j1 - j2
    for blk in co.blocks_l2_blocksums(j1, j2, j4):
        F = co.unspecialize_block(blk, j1, j2, 0.5, j4, 2)
        for eta in (0.17, 0.42, 0.73):
            direct = blk.value(eta)
            assert rel_err(co.specialize_wardform_exact(F, eta), direct) < 1e-12
            assert rel_err(co.specialize_wardform_numeric(F, eta), direct) < 1e-5


def test_unspecialized_block_satisfies_ward_identities():
    from ghostcft.kzbpz import sample_insertions, ward_max_residual

    j1, j2, j3 = 0.3, 0.45, 0.27
    j4 = 1 - j1 - j2 - j3
    F = co.unspecialize_block(PowerSum.single(1.0, j3), j1, j2, j3, j4, 1)
    res = ward_max_residual(F, F.charges, F.weights, sample_insertions(4))
    assert res < 1e-10


def test_bra_limit_scaling_convention():
    # w1^(2h1 - q1) F(w1, 1, eta, 0) converges as w1 grows
    j1, j2 = 0.35, 0.8
    j4 = 1.5 - j1 - j2
    blk = co.blocks_l2_blocksums(j1, j2, j4)[0]
    F = co.unspecialize_block(blk, j1, j2, 0.5, j4, 2)
    vals = [co.specialize_wardform_numeric(F, 0.37, w1) for w1 in (1e5, 1e7)]
    want = blk.value(0.37)
    assert abs(vals[1] - want) < abs(vals[0] - want) < 1e-3 * abs(want)


# ----------------------------------------------------------------------
# shared payloads: one H-jet per eta
# ----------------------------------------------------------------------

_FLOW2 = (0.3, 0.4, half, 0.8)


def _flow2_form():
    j1, j2, j3, j4 = _FLOW2
    return co.unspecialize_block(co.fourpoint_blocksums(2, j1, j2, j4)[0], *_FLOW2, 2)


def test_ward_form_matches_a_fresh_form_in_any_call_order():
    from ghostcft.kzbpz import sample_insertions

    ws1, ws2 = sample_insertions(4)[:2]
    # eta = 1.6 on the cut [1, oo), reached from above and from below: the
    # memo must tell the two signed zeros of Im eta apart
    below = [complex(-3.0, 0.0), complex(1.0, 0.0), complex(2.0, 0.0), complex(0.0, 0.0)]
    above = [complex(-3.0, -0.0), complex(1.0, 0.0), complex(2.0, -0.0), complex(0.0, -0.0)]
    calls = {"value": lambda f, ws: f.value(ws),
             "d": lambda f, ws: [f.d(i, ws) for i in range(4)],
             "d2": lambda f, ws: [f.d2(i, ws) for i in range(4)]}
    for points in ((ws1, ws2, ws1), (below, above, below)):
        for order in (("d2", "value", "d"), ("value", "d", "d2")):
            form = _flow2_form()
            for ws in points:
                for name in order:
                    assert repr(calls[name](form, ws)) == repr(calls[name](_flow2_form(), ws))


def test_each_payload_is_evaluated_once_per_eta(monkeypatch):
    from ghostcft import kzbpz as kz

    seen = []
    hyp2f1 = sf.hyp2f1

    def counted(*args):
        seen.append(args)
        return hyp2f1(*args)

    # the sums of the jet that a WardForm hands to values_at
    summed = []
    values_at = co.values_at

    def summing(sums, eta, payloads):
        summed.extend(sums)
        return values_at(sums, eta, payloads)

    def calls(run):
        seen.clear()
        summed.clear()
        run()
        return len(seen)

    monkeypatch.setattr(sf, "hyp2f1", counted)
    monkeypatch.setattr(co, "values_at", summing)
    points = kz.sample_insertions(4)
    form = _flow2_form()
    # 3 payloads per point: 2F1(a + m, b + m; c + m) for m = 0, 1, 2
    assert calls(lambda: kz.bpz_residual(form, 2, form.charges, form.weights, points)) == 15
    # H, H' and H'' summed once per point
    assert len(summed) == 15
    form = _flow2_form()
    assert calls(lambda: kz.ward_residuals(form, form.charges, form.weights, points)) == 10
    # H and H' summed once per point
    assert len(summed) == 10
    j1, j2, _j3, j4 = _FLOW2
    recursed = kz.recursion_iterate(co.fourpoint_blocksums(2, j1, j2, j4)[0], _FLOW2, 2, 3)
    assert calls(lambda: recursed.value(0.3)) == 4
