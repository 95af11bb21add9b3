"""Residual engines and the charge-shift recursion."""
from fractions import Fraction
from math import comb

import pytest

from conftest import assert_close, rel_err
from ghostcft import correlators as co
from ghostcft import kzbpz as kz
from ghostcft.blocks import BlockSum, PowerSum, exact_series
from ghostcft.errors import ChargeError, DivisionByZeroCharge, MissingCompanion

half = Fraction(1, 2)


# ----------------------------------------------------------------------
# Ward residuals
# ----------------------------------------------------------------------


def _ward_case(n, rng, ell=2):
    """Charge-conserving N-point data plus a WardForm with a random H."""
    if n == 1:
        return [0.0], [0.0], co.WardForm([0.0], [0.0])
    charges = [rng.uniform(-1, 1) for _ in range(n - 1)]
    if n == 4:
        j4 = ell - sum(charges)
        cs, ws = co.standard_frame_data(*charges, j4, ell)
        h_block = BlockSum.power(rng.uniform(0.5, 1.5), rng.uniform(-0.7, 0.7),
                                 rng.uniform(-0.7, 0.7))
        return cs, ws, co.WardForm(cs, ws, h_block)
    if n == 3:
        j3 = ell - sum(charges)
        cs = [charges[0], charges[1], j3 - ell]
        ws = [0.0, 0.0, j3 * ell - ell * (ell + 1) / 2]
        return cs, ws, co.WardForm(cs, ws)
    j2 = 1 - charges[0]
    cs = [charges[0], j2 - 1]
    ws = [0.0, j2 - 1]
    return cs, ws, co.WardForm(cs, ws)


def test_ward_residuals_n1_to_n4(rng):
    for n in (1, 2, 3, 4):
        for _ in range(5):
            cs, ws, form = _ward_case(n, rng)
            res = kz.ward_max_residual(form, cs, ws, kz.sample_insertions(max(n, 1)))
            assert res < 1e-9, (n, res)


def test_ward_translation_two_point_tight():
    cs, ws = [0.37, 1 - 0.37 - 1], [0.0, 1 - 0.37 - 1]
    form = co.WardForm(cs, ws)
    reports = kz.ward_residuals(form, cs, ws, kz.sample_insertions(2))
    assert reports["L-1"].max_abs < 1e-12


def test_ward_detector_flags_wrong_exponent():
    # perturbing one exponent must blow past 1e-3
    j1, j2, j3 = 0.3, 0.45, 0.27
    j4 = 1 - j1 - j2 - j3
    cs, ws = co.standard_frame_data(j1, j2, j3, j4, 1)
    exps = co.ward_exponents(cs, ws)
    exps[(1, 2)] = exps[(1, 2)] + 0.05
    form = co.WardForm(cs, ws, exponents=exps)
    res = kz.ward_max_residual(form, cs, ws, kz.sample_insertions(4))
    assert res > 1e-3


def test_ward_residuals_from_plain_callable():
    # numeric-derivative path: the 2-point closed form as a bare function
    j1 = 0.37
    fn = lambda w1, w2: (w1 - w2) ** j1
    cs = [j1, -j1]
    ws = [0.0, 0.0 + (1 - j1) * 1 - 1]
    res = kz.ward_residuals(fn, cs, [0.0, j1 * 0 + (1 - j1) - 1], kz.sample_insertions(2))
    assert res["L-1"].max_abs < 1e-9


# ----------------------------------------------------------------------
# charge-shift (KZ) residuals
# ----------------------------------------------------------------------


def test_kz_m2_two_point(rng):
    for _ in range(5):
        j1 = rng.uniform(-1.2, 1.2)
        rep = kz.kz_residual_m2(kz.TwoPointFamily(), (j1, 1 - j1))
        assert rep.max_abs < 1e-12


def test_kz_m2_three_point(rng):
    for ell in (1, 2):
        for _ in range(5):
            j1 = rng.uniform(-1.2, 1.2)
            j2 = rng.uniform(0.1, 1.2)
            j3 = ell - j1 - j2
            rep = kz.kz_residual_m2(kz.ThreePointFamily(ell), (j1, j2, j3))
            assert rep.max_abs < 1e-10, (ell, rep.max_abs)


def test_kz_m2_four_point_flow_one(rng):
    for _ in range(5):
        j1, j2, j3 = (rng.uniform(-0.8, 0.8) for _ in range(3))
        j4 = 1 - j1 - j2 - j3
        rep = kz.kz_residual_m2(kz.FourPointL1Family(), (j1, j2, j3, j4))
        assert rep.max_abs < 1e-10


def test_kz_m1_four_point_flow_one(rng):
    j1, j2, j3 = 0.3, 0.45, 0.27
    j4 = 1 - j1 - j2 - j3
    rep = kz.kz_residual_m1_l1(kz.FourPointL1Family(), (j1, j2, j3, j4))
    assert rep.max_abs < 1e-10


def test_kz_m1_m2_ward_consistency():
    """Summing the per-field first-order identities and the last-field one
    telescopes to translation invariance; all three residual families agree
    to 1e-9 on the flow-1 4-point solution."""
    j1, j2, j3 = 0.3, 0.45, 0.27
    j4 = 1 - j1 - j2 - j3
    fam = kz.FourPointL1Family()
    charges = (j1, j2, j3, j4)
    points = kz.sample_insertions(4)
    m1 = kz.kz_residual_m1_l1(fam, charges, points).max_abs
    m2 = kz.kz_residual_m2(fam, charges, points).max_abs
    form = fam.base(charges)
    trans = kz.ward_residuals(form, form.charges, form.weights, points)["L-1"].max_abs
    assert max(m1, m2, trans) < 1e-9


def test_non_finite_residual_fails():
    rep = kz.kz_decoupled_residual(PowerSum.single(1, Fraction(27, 100)), float("nan"))
    assert len(rep.samples) == len(kz.DEFAULT_ETA_POINTS)
    assert rep.max_abs == float("inf")
    assert rep.passes is False


def test_shifted_constant_refuses_zero_charge():
    fam = kz.ThreePointFamily(2)
    with pytest.raises(DivisionByZeroCharge):
        fam.shifted_constant(1, (0, Fraction(1, 2), Fraction(3, 2)))
    with pytest.raises(DivisionByZeroCharge):
        fam.shifted_constant(2, (2.645, 0.0, -0.645))


def test_missing_companion_surfaces():
    fam = kz.ThreePointFamily(2)
    with pytest.raises(MissingCompanion):
        fam.companion(3, (0.3, 0.45, 1.25))


def test_specialized_flow_one_identities():
    j3 = Fraction(27, 100)
    blk = PowerSum.single(Fraction(1), j3)
    shifted = PowerSum.single(Fraction(1), j3 + 1)
    assert kz.kz_specialized_j0_residual(blk, shifted).max_abs < 1e-13
    assert kz.kz_specialized_m1_residual(blk, shifted, j3).max_abs < 1e-12
    assert kz.kz_decoupled_residual(blk, j3).max_abs < 1e-13


def test_fourpoint_constant_relations_exact():
    charges = (Fraction(3, 10), Fraction(2, 5), Fraction(27, 100),
               1 - Fraction(97, 100))
    assert kz.kz_fourpoint_constant_relations(charges)


# ----------------------------------------------------------------------
# BPZ residuals
# ----------------------------------------------------------------------


def test_bpz_two_point():
    F = kz.TwoPointFamily().base((0.5, 0.5))
    rep = kz.bpz_residual(F, 0, F.charges, F.weights)
    assert rep.max_abs < 1e-12


def test_bpz_requires_probe_charge():
    F = kz.TwoPointFamily().base((0.3, 0.7))
    with pytest.raises(ChargeError):
        kz.bpz_residual(F, 0, F.charges, F.weights)


def test_bpz_three_point_flows(rng):
    for ell in (1, 2):
        j2 = rng.uniform(0.2, 1.2)
        j3 = ell - 0.5 - j2
        fam = kz.ThreePointFamily(ell)
        F = fam.base((0.5, j2, j3))
        rep = kz.bpz_residual(
            F, 0, F.charges, F.weights, rhs=kz.threept_bpz_rhs(j2, ell)
        )
        assert rep.max_abs < 1e-10, (ell, rep.max_abs)


def test_bpz_three_point_flow_three_rhs_nonzero():
    # the ell=3 right side is genuinely non-zero: using it the residual is
    # tiny, dropping it the residual is large (the vanishing mechanism)
    j2 = 0.8
    j3 = 3 - 0.5 - j2
    q = [0.5, j2, j3 - 3]
    h = [0.0, 0.0, j3 * 3 - 6]
    e12, e13, e23 = co.three_point_exponents(0.5, j2, j3, 3)
    form = co.WardForm(q, h, exponents={(1, 2): e12, (1, 3): e13, (2, 3): e23})
    with_rhs = kz.bpz_residual(form, 0, q, h, rhs=kz.threept_bpz_rhs(j2, 3))
    without = kz.bpz_residual(form, 0, q, h)
    assert with_rhs.max_abs < 1e-10
    assert without.max_abs > 1e-4


def test_bpz_four_point_blocks_all_flows(rng):
    for _ in range(3):
        j1 = rng.uniform(0.1, 0.8)
        j2 = rng.uniform(0.1, 0.8)
        for ell in (1, 2, 3):
            j4 = ell - j1 - j2 - 0.5
            if ell == 2 and abs(2 * j4 - round(2 * j4)) < 0.05:
                continue
            if ell == 1:
                blocks = [
                    BlockSum.power(1, 0.5, 0),
                    BlockSum.incomplete_beta(1, 0.5, 0, -j4 + 0.5, -j2 + 0.5),
                ]
            elif ell == 2:
                blocks = list(co.blocks_l2_blocksums(j1, j2, j4))
            else:
                blocks = [
                    BlockSum.power(1, -j4 + 2, -j2 + 0.5),
                    BlockSum.incomplete_beta(1, -j4 + 2, -j2 + 0.5, j4 - 0.5, j2 - 0.5),
                ]
            for blk in blocks:
                F = co.unspecialize_block(blk, j1, j2, 0.5, j4, ell)
                rep = kz.bpz_residual(F, 2, F.charges, F.weights)
                assert rep.max_abs < 1e-8, (ell, rep.max_abs)


# ----------------------------------------------------------------------
# 3-point constraint verdicts
# ----------------------------------------------------------------------


def test_threept_constraint_relations_hold():
    j1, j2 = Fraction(3, 10), Fraction(2, 5)
    # flow 3 at charges (1, 1, 1) leaves no cross monomial at all
    for charges, ell in [((j1, j2, 1 - j1 - j2), 1), ((j1, j2, 2 - j1 - j2), 2),
                         ((1, 1, 1), 3)]:
        v = kz.threept_constraint_check(*charges, ell)
        assert v.kind == "relations-hold"


def test_threept_constraint_must_vanish_with_monomial():
    j1, j2 = Fraction(3, 10), Fraction(2, 5)
    for ell in (3, 4):
        v = kz.threept_constraint_check(j1, j2, ell - j1 - j2, ell)
        assert v.kind == "must-vanish"
        a, b = v.violating_monomial
        assert a >= 1 and b >= 1 and a + b == ell


def test_threept_shifted_constants_flow_two():
    j1, j2 = Fraction(3, 10), Fraction(2, 5)
    j3 = 2 - j1 - j2
    c1, c2 = kz.threept_shifted_constants(j1, j2, j3, 2)
    assert c1 == (j3 - 1) / j1
    assert c2 == -(j3 - 1) / j2
    # flow 1: all constants equal
    c1, c2 = kz.threept_shifted_constants(j1, j2, 1 - j1 - j2, 1)
    assert c1 == 1 and c2 == 1


# ----------------------------------------------------------------------
# the charge-shift recursion
# ----------------------------------------------------------------------


def test_recursion_flow_one_exact_power():
    j1, j2 = Fraction(3, 10), Fraction(2, 5)
    j4 = 1 - j1 - j2 - half
    out = kz.recursion_step(PowerSum.single(Fraction(1), half), (j1, j2, half, j4), 1)
    assert out.equals(PowerSum.single(Fraction(1), Fraction(3, 2)))
    out5 = kz.recursion_iterate(
        PowerSum.single(Fraction(1), half), (j1, j2, half, j4), 1, 5
    )
    assert out5.equals(PowerSum.single(Fraction(1), half + 5))


def test_recursion_flow_three_exact_polynomials():
    j1, j2 = Fraction(3, 10), Fraction(2, 5)
    j4 = 3 - j1 - j2 - half
    cur = co.block_l3_powersum(j1, j2, j4)
    for k in (1, 2, 3):
        cur = kz.recursion_step(cur, (j1, j2, half + (k - 1), j4 - (k - 1)), 3)
        want = co.poly_Pk_polysum(k, j1, j4).mul_power(-j4 + 3 * k + 2, -j2 + half)
        assert cur.equals(want), k


def test_recursion_exact_stays_canonical_deep(rng):
    # every exact step returns its canonical form, so k = 40 stays at the
    # k + 1 terms of the closed form instead of (k+1)^2 raw ones
    sets = []
    while len(sets) < 3:
        j1, j2 = Fraction(rng.randint(1, 19), 20), Fraction(rng.randint(1, 19), 20)
        if (2 * j1 + j2).denominator != 1:
            sets.append((j1, j2))
    for j1, j2 in sets:
        j4 = 3 - j1 - j2 - half
        cur = co.block_l3_powersum(j1, j2, j4)
        for k in range(1, 41):
            cur = kz.recursion_step(cur, (j1, j2, half + (k - 1), j4 - (k - 1)), 3)
            assert cur.canonical().terms == cur.terms, (j1, j2, k)
            if k in (10, 20, 40):
                want = co.conj_block_l3_powersum(j1, j2, half + k, j4 - k).canonical()
                assert cur.terms == want.terms, (j1, j2, k)


def test_recursion_exact_flow_one_deep_is_one_term():
    j1, j2, j3 = Fraction(1, 4), Fraction(1, 5), Fraction(3, 20)
    out = kz.recursion_iterate(
        PowerSum.single(Fraction(1), j3), (j1, j2, j3, 1 - j1 - j2 - j3), 1, 40)
    assert out.terms == {(j3 + 40, 0): 1}


def test_recursion_flow_three_backward_lattice_exact():
    # the j3 = -1/2 member returns the probe-charge block exactly
    for j1t in (Fraction(3, 2), Fraction(5, 2)):
        j2t = Fraction(2, 5)
        j4m = 3 - j1t - j2t + half
        c_low = -j4m + 2
        # terminating 2F1(-j1+3/2, 1; c_low; eta) as an exact PowerSum
        a = -j1t + Fraction(3, 2)
        coeffs = {}
        term = Fraction(1)
        n = 0
        while True:
            coeffs[(Fraction(n), Fraction(0))] = term
            if a + n == 0:
                break
            term = term * (a + n) * (1 + n) / ((c_low + n) * (n + 1))
            n += 1
        blkm = (
            PowerSum(coeffs)
            .scale(Fraction(1, 2) / (j4m - 1))
            .mul_power(-j4m, -j2t + half)
        )
        out = kz.recursion_step(blkm, (j1t, j2t, -half, j4m), 3)
        assert out.equals(co.block_l3_powersum(j1t, j2t, j4m - 1))


def test_recursion_flow_three_backward_generic_series():
    # generic rational charges: exact rational series agreement to order 60
    j1, j2 = Fraction(3, 10), Fraction(2, 5)
    j4m = 3 - j1 - j2 + half
    blkm = BlockSum.hyp2f1(
        Fraction(1, 2) / (j4m - 1), -j4m, -j2 + half,
        -j1 + Fraction(3, 2), Fraction(1), -j4m + 2,
    )
    out = kz.recursion_step(blkm, (j1, j2, -half, j4m), 3)
    assert out.is_exact()
    want = co.block_l3_powersum(j1, j2, j4m - 1).to_blocksum()
    p0g, cg = exact_series(out, 60)
    p0w, cw = exact_series(want, 60, base_p=p0g)
    assert p0g == p0w and cg == cw


def test_recursion_flow_two_matches_conjecture(rng):
    j1, j2 = 0.35, 0.8
    j4 = 1.5 - j1 - j2
    blk1, blk2 = co.blocks_l2_blocksums(j1, j2, j4)
    eta = 0.33
    import warnings

    for k in (0, 1, 2, 3):
        got1 = kz.recursion_iterate(blk1, (j1, j2, 0.5, j4), 2, k).value(eta)
        got2 = kz.recursion_iterate(blk2, (j1, j2, 0.5, j4), 2, k).value(eta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", co.ConjecturalChargeWarning)
            c1, c2 = co.conj_blocks_l2(j1, j2, 0.5 + k, j4 - k, eta)
        assert rel_err(got1, c1) < 1e-10
        assert rel_err(got2, c2) < 1e-10


def test_recursion_flow_three_matches_conjecture(rng):
    import warnings

    for _ in range(3):
        j1 = rng.uniform(0.1, 0.6)
        j2 = rng.uniform(0.1, 0.9)
        j4 = 3 - j1 - j2 - 0.5
        blk = BlockSum.power(1.0, -j4 + 2, -j2 + 0.5)
        eta = rng.uniform(0.1, 0.6)
        for k in (0, 1, 2, 3, 4):
            got = kz.recursion_iterate(blk, (j1, j2, 0.5, j4), 3, k).value(eta)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", co.ConjecturalChargeWarning)
                want = co.conj_block_l3(j1, j2, 0.5 + k, j4 - k, eta)
            assert rel_err(got, want) < 1e-10


def test_recursion_flow_one_numeric_colliding_exponents():
    # float exponents that differ in the last bit meet after a shift; their
    # coefficients must add, not overwrite each other
    charges = (0.18, 0.86, 1.54, -1.58)
    out = kz.recursion_iterate(PowerSum.single(1.0, 1.54), charges, 1, 8)
    for eta in (0.2, 0.4, 0.6):
        want = eta ** (1.54 + 8)
        assert abs(complex(out.eval(eta)) - want) <= 1e-12 * want


def test_recursion_deep_numeric(rng):
    # k = 20 steps keep (k+1)^2 merged terms.  At eta <= 0.2 the sums and
    # the closed forms agree to 1e-9; at larger eta both lose digits to
    # cancellation as k grows.
    k = 20
    for _ in range(3):
        j4 = 0.5  # flow-2 blocks degenerate at half-odd-integer j4
        while abs(2 * j4 - round(2 * j4)) < 0.05:
            j1, j2 = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.9)
            j4 = 1.5 - j1 - j2
        etas = [rng.uniform(0.05, 0.2) for _ in range(2)]
        for which, blk in enumerate(co.blocks_l2_blocksums(j1, j2, j4)):
            out = kz.recursion_iterate(blk, (j1, j2, 0.5, j4), 2, k)
            assert len(out.terms) == (k + 1) ** 2
            for eta in etas:
                want = co.conj_blocks_l2(j1, j2, 0.5 + k, j4 - k, eta)[which]
                assert abs(out.value(eta) - want) <= 1e-9 * abs(want)
        j4 = 2.5 - j1 - j2
        blk = BlockSum.power(1.0, -j4 + 2, -j2 + 0.5)
        out = kz.recursion_iterate(blk, (j1, j2, 0.5, j4), 3, k)
        assert len(out.terms) == (k + 1) ** 2
        for eta in etas:
            want = co.conj_block_l3(j1, j2, 0.5 + k, j4 - k, eta)
            assert abs(out.value(eta) - want) <= 1e-9 * abs(want)


def test_recursion_linearity_and_modes_agree():
    j1, j2 = Fraction(7, 20), Fraction(4, 5)
    j4 = 3 - j1 - j2 - half
    blk = co.block_l3_powersum(j1, j2, j4)
    scaled = kz.recursion_step(blk.scale(Fraction(5, 3)), (j1, j2, half, j4), 3)
    plain = kz.recursion_step(blk, (j1, j2, half, j4), 3)
    assert scaled.equals(plain.scale(Fraction(5, 3)))
    # exact vs numeric arithmetic
    blk_n = BlockSum.power(1.0, -float(j4) + 2, -float(j2) + 0.5)
    out_n = kz.recursion_step(blk_n, (float(j1), float(j2), 0.5, float(j4)), 3)
    assert abs(complex(plain.eval(0.37)) - out_n.value(0.37)) < 1e-11


def test_recursion_guards():
    blk = PowerSum.single(Fraction(1), half)
    with pytest.raises(DivisionByZeroCharge):
        kz.recursion_step(blk, (half, half, 0, half), 1)


def _step_reference(block, charges, ell):
    """The generic exact step followed by the canonical form, kept as the
    oracle for the per-class step of recursion_step: every intermediate sum
    is built, and the classes of the last one are reduced in sorted order."""
    j1, j2, j3, j4 = map(Fraction, charges)
    inv_j3 = 1 / j3
    a_coeff = co.GhostPrimary(j4, ell).weight + j1 + (ell - 1) * j2
    b_coeff = (ell - 1) * j3
    d = block.deriv()
    t = d.mul_power(1) - d
    t = t + block.scale(a_coeff)
    if b_coeff != 0:
        t = t + block.scale(b_coeff).mul_power(-1)
    t = t.mul_power(ell + 1).scale(-inv_j3)
    t = t - block.scale(j2 * inv_j3).mul_power(ell + 1)
    groups: dict = {}
    for (p, q), c in t.terms.items():
        pf, qf = Fraction(p), Fraction(q)
        p_int = pf.numerator // pf.denominator
        q_int = qf.numerator // qf.denominator
        groups.setdefault((pf - p_int, qf - q_int), []).append((p_int, q_int, Fraction(c)))
    out: dict = {}
    for (p_frac, q_frac), entries in sorted(groups.items()):
        q_min = min(q for _p, q, _c in entries)
        flat: dict = {}
        for p, q, c in entries:
            m = q - q_min
            for i in range(m + 1):
                flat[p + i] = flat.get(p + i, 0) + c * comb(m, i)
                c = -c
        flat = {p: c for p, c in flat.items() if c != 0}
        if not flat:
            continue
        p0 = min(flat)
        coeffs = [flat.get(p, 0) for p in range(p0, max(flat) + 1)]
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
                out[(p_frac + p0 + k, q_frac + q_min)] = c
    return PowerSum(out)


def _random_step_input(rng):
    """An exact sum of one to three exponent classes (mostly one), with int
    or Fraction exponents, often written redundantly; sometimes empty."""
    classes = [(Fraction(rng.randint(0, 5), 6), Fraction(rng.randint(0, 3), 4))
               for _ in range(rng.choice((1, 1, 1, 2, 3)))]
    terms = {}
    for _ in range(rng.randint(0, 6)):
        p_frac, q_frac = rng.choice(classes)
        p, q = p_frac + rng.randint(-3, 3), q_frac + rng.randint(-2, 2)
        if p.denominator == 1 and rng.random() < 0.5:
            p = int(p)
        if q.denominator == 1 and rng.random() < 0.5:
            q = int(q)
        terms[(p, q)] = terms.get((p, q), 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    ps = PowerSum(terms)
    if rng.random() < 0.3:  # the same sum with a (1-eta) factor written out
        ps = ps.mul_power(0, -1) - ps.mul_power(1, -1)
    return ps


def _random_step_charges(rng):
    def charge():
        return Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 5, 10, 20)))

    j3 = charge()
    while j3 == 0:
        j3 = charge()
    return charge(), charge(), j3, charge()


def test_recursion_step_matches_the_generic_step(rng):
    third, quarter = Fraction(1, 3), Fraction(1, 4)
    cases = [
        (PowerSum.zero(), (third, quarter, half, quarter), 2),
        # b = P: the leading coefficient B_0 vanishes
        (PowerSum.single(Fraction(1), 0), (third, quarter, half, quarter), 1),
        # b + Q + a + j2 = 0: B = (P/j3)(1-eta), a factor (1-eta) to divide out
        (PowerSum.single(Fraction(1), third), (half, quarter, half, quarter), 1),
        # two classes: the generic step builds the eta^(1/2) class first, the
        # sorted class order puts the constant class first
        (PowerSum({(0, 0): Fraction(1), (half, 0): Fraction(1)}),
         (third, quarter, half, quarter), 1),
        # the flow-3 probe block
        (co.block_l3_powersum(third, quarter, 3 - third - quarter - half),
         (third, quarter, half, 3 - third - quarter - half), 3),
    ]
    got_b0 = kz.recursion_step(*cases[1])
    assert got_b0.terms == {(2, 0): Fraction(1, 3)}
    assert kz.recursion_step(*cases[2]).terms == {(third + 1, 1): 2 * third}
    for _ in range(300):
        cases.append((_random_step_input(rng), _random_step_charges(rng), rng.randint(1, 3)))
    n_classes = [len(block.classes()) for block, _c, _l in cases]
    # the zero sum, one class and several, all on the per-class step
    assert n_classes.count(0) > 5 and n_classes.count(1) > 150 and max(n_classes) > 1
    for block, charges, ell in cases:
        got = kz.recursion_step(block, charges, ell)
        want = _step_reference(block, charges, ell)
        assert repr(list(got.terms.items())) == repr(list(want.terms.items())), (
            block, charges, ell)


def test_report_json_schema():
    rep = kz.kz_residual_m2(kz.TwoPointFamily(), (0.37, 0.63), tolerance=1e-10)
    import json

    payload = json.loads(rep.to_json())
    assert set(payload) == {"operator", "tolerance", "max_residual", "pass", "samples"}
    assert payload["pass"] is True


# ----------------------------------------------------------------------
# the shared residual loop: wrong inputs fail, one sample layout
# ----------------------------------------------------------------------


class _ScaledCompanion:
    """A family whose companions carry 1.1 times the right constant."""

    def __init__(self, family):
        self.family = family
        self.ell = family.ell

    def base(self, charges):
        return self.family.base(charges)

    def companion(self, i, charges):
        form = self.family.companion(i, charges)
        return co.WardForm(form.charges, form.weights, form.h.scale(1.1), form.exponents)


_FOUR_L1 = (0.3, 0.45, 0.27, 1 - 0.3 - 0.45 - 0.27)


@pytest.mark.parametrize("family, charges", [
    (kz.TwoPointFamily(), (0.37, 0.63)),
    (kz.ThreePointFamily(1), (0.3, 0.45, 0.25)),
    (kz.ThreePointFamily(2), (0.3, 0.45, 1.25)),
    (kz.FourPointL1Family(), _FOUR_L1),
])
def test_kz_m2_flags_wrong_companion_constant(family, charges):
    assert kz.kz_residual_m2(family, charges).passes
    rep = kz.kz_residual_m2(_ScaledCompanion(family), charges)
    assert rep.passes is False and rep.max_abs > 1e-3


def test_kz_m1_flags_wrong_companion_constant():
    fam = kz.FourPointL1Family()
    assert kz.kz_residual_m1_l1(fam, _FOUR_L1).passes
    rep = kz.kz_residual_m1_l1(_ScaledCompanion(fam), _FOUR_L1)
    assert rep.passes is False and rep.max_abs > 1e-3


def test_eta_sweeps_flag_wrong_j3():
    j3, wrong = Fraction(27, 100), Fraction(27, 100) + Fraction(1, 4)
    blk = PowerSum.single(Fraction(1), j3)
    shifted = PowerSum.single(Fraction(1), j3 + 1)
    reports = [
        kz.kz_specialized_m1_residual(blk, shifted, wrong),
        kz.kz_specialized_j0_residual(blk, PowerSum.single(Fraction(1), wrong + 1)),
        kz.kz_decoupled_residual(blk, wrong),
    ]
    for rep in reports:
        assert rep.passes is False and rep.max_abs > 1e-3, rep.operator


def _all_engine_reports():
    """One report of each residual engine, on inputs that pass."""
    fam = kz.FourPointL1Family()
    j3 = Fraction(27, 100)
    blk = PowerSum.single(Fraction(1), j3)
    shifted = PowerSum.single(Fraction(1), j3 + 1)
    form = fam.base(_FOUR_L1)
    bpz_form = co.unspecialize_block(co.fourpoint_blocksums(2, 0.3, 0.4, 0.8)[0],
                                     0.3, 0.4, 0.5, 0.8, 2)
    return [
        *kz.ward_residuals(form, form.charges, form.weights).values(),
        kz.kz_residual_m2(fam, _FOUR_L1),
        kz.kz_residual_m1_l1(fam, _FOUR_L1),
        kz.kz_specialized_m1_residual(blk, shifted, j3),
        kz.kz_specialized_j0_residual(blk, shifted),
        kz.kz_decoupled_residual(blk, j3),
        kz.bpz_residual(bpz_form, 2, bpz_form.charges, bpz_form.weights),
    ]


def test_report_sample_layout():
    layouts = {"kz-m1": ["ws", "i", "residual"], "kz-m1-specialized": ["eta", "residual"],
               "kz-j0-specialized": ["eta", "residual"], "kz-l1-decoupled": ["eta", "residual"]}
    import json

    reports = _all_engine_reports()
    assert len(reports) == 10
    for rep in reports:
        payload = json.loads(rep.to_json())
        assert payload["pass"] is True, rep.operator
        want = layouts.get(rep.operator, ["ws", "residual"])
        assert payload["samples"] and all(list(s) == want for s in payload["samples"])
        assert payload["max_residual"] == max(s["residual"] for s in payload["samples"])


def test_engine_tolerance_defaults_come_from_one_table():
    import inspect

    engines = {"ward": kz.ward_residuals, "kz-m2": kz.kz_residual_m2,
               "kz-m1": kz.kz_residual_m1_l1, "bpz": kz.bpz_residual,
               "kz-j0": kz.kz_specialized_j0_residual,
               "kz-decoupled": kz.kz_decoupled_residual}
    assert set(engines) == set(kz.DEFAULT_TOLERANCES)
    for op, fn in engines.items():
        default = inspect.signature(fn).parameters["tolerance"].default
        assert default == kz.DEFAULT_TOLERANCES[op], op
    m1 = inspect.signature(kz.kz_specialized_m1_residual).parameters["tolerance"].default
    assert m1 == kz.DEFAULT_TOLERANCES["kz-m1"]


def test_relative_gap_scale():
    from ghostcft.scalars import relative_gap

    assert relative_gap(0.25) == 0.25
    assert relative_gap(-0.25, 0.5, 0.1j) == 0.25
    assert relative_gap(3.0, 10.0, -20.0) == 3.0 / 20.0
    assert relative_gap(Fraction(1, 2), Fraction(4)) == Fraction(1, 8)
