"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -s` to see
the lines; the assertions gate the suite either way."""
import math
import random
import warnings
from fractions import Fraction

import pytest

from ghostcft import correlators as co
from ghostcft import identities as idn
from ghostcft import kzbpz as kz
from ghostcft import modealg
from ghostcft import specfun as sf
from ghostcft.blocks import BlockSum, PowerSum

half = Fraction(1, 2)
SEED = 42


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}" + (f"  ({detail})" if detail else ""))
    return ok


# ----------------------------------------------------------------------
# 1. mode-algebra exactness
# ----------------------------------------------------------------------


def test_criterion_1_mode_algebra():
    rep = modealg.chi_null_check()
    ok = rep.ok
    vac = modealg.GhostState.primary(0)
    ok &= modealg.act_virasoro(vac, -1).is_zero()

    # displayed bracket of the generating modes, operator level
    from ghostcft.modealg.expr import ModeExpr, commutator

    ok &= commutator(ModeExpr.beta(2), ModeExpr.gamma(-2)) == ModeExpr.one(
        Fraction(-1)
    )
    ok &= commutator(ModeExpr.beta(1), ModeExpr.gamma(2)).is_zero()

    states = modealg.basis_states(Fraction(1, 3), 0, max_level=6, max_factors=2)
    probe = states[:6]
    rng = range(-3, 4)
    ok &= modealg.check_jj_commutators(probe, rng)
    ok &= modealg.check_lj_commutators(probe, rng)
    ok &= modealg.check_virasoro(probe[:4], Fraction(2), modealg.act_virasoro, rng)
    ok &= modealg.check_virasoro(probe[:3], Fraction(-2), modealg.act_singlet, rng)
    ok &= modealg.check_singlet_commutes_with_current(probe[:3], rng)
    assert _line(1, "mode algebra exact (null vector, brackets, c=2/-2)", ok)


# ----------------------------------------------------------------------
# 2. Ward suite
# ----------------------------------------------------------------------


def test_criterion_2_ward_suite():
    rng = random.Random(SEED)
    worst = 0.0
    draws = 0
    while draws < 20:
        n = rng.choice([1, 2, 3, 4])
        if n == 1:
            cs, ws = [0.0], [0.0]
            form = co.WardForm(cs, ws)
        elif n == 2:
            j1 = rng.uniform(-1, 1)
            j2 = 1 - j1
            cs, ws = [j1, j2 - 1], [0.0, j2 - 1]
            form = co.WardForm(cs, ws)
        elif n == 3:
            ell = rng.choice([1, 2])
            j1, j2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
            j3 = ell - j1 - j2
            cs = [j1, j2, j3 - ell]
            ws = [0.0, 0.0, j3 * ell - ell * (ell + 1) / 2]
            form = co.WardForm(cs, ws)
        else:
            ell = rng.choice([1, 2, 3])
            j1, j2, j3 = (rng.uniform(-1, 1) for _ in range(3))
            j4 = ell - j1 - j2 - j3
            cs, ws = co.standard_frame_data(j1, j2, j3, j4, ell)
            h_block = BlockSum.power(
                rng.uniform(0.5, 1.5), rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)
            )
            form = co.WardForm(cs, ws, h_block)
        pts = kz.sample_insertions(max(n, 1), count=3, seed=rng.randrange(10**6))
        worst = max(worst, kz.ward_max_residual(form, cs, ws, pts))
        draws += 1
    ok = worst < 1e-9
    assert _line(2, "Ward suite N=1..4", ok, f"max residual {worst:.2e}")


# ----------------------------------------------------------------------
# 3. KZ suite
# ----------------------------------------------------------------------


def test_criterion_3_kz_suite():
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(5):
        j1 = rng.uniform(-1.2, 1.2)
        worst = max(worst, kz.kz_residual_m2(kz.TwoPointFamily(), (j1, 1 - j1)).max_abs)
    for ell in (1, 2):
        for _ in range(5):
            j1, j2 = rng.uniform(-1, 1), rng.uniform(0.1, 1)
            worst = max(
                worst,
                kz.kz_residual_m2(
                    kz.ThreePointFamily(ell), (j1, j2, ell - j1 - j2)
                ).max_abs,
            )
    for _ in range(5):
        j1, j2, j3 = (rng.uniform(-0.8, 0.8) for _ in range(3))
        worst = max(
            worst,
            kz.kz_residual_m2(
                kz.FourPointL1Family(), (j1, j2, j3, 1 - j1 - j2 - j3)
            ).max_abs,
        )
    ok = worst < 1e-10

    verdict = kz.threept_constraint_check(
        Fraction(3, 10), Fraction(2, 5), 3 - Fraction(7, 10), 3
    )
    ok &= verdict.kind == "must-vanish"
    verdict4 = kz.threept_constraint_check(
        Fraction(3, 10), Fraction(2, 5), 4 - Fraction(7, 10), 4
    )
    ok &= verdict4.kind == "must-vanish"

    decoupled = kz.kz_decoupled_residual(
        PowerSum.single(Fraction(1), Fraction(27, 100)), Fraction(27, 100)
    ).max_abs
    ok &= decoupled < 1e-12
    assert _line(
        3, "KZ suite (2pt, 3pt l=1,2, 4pt l=1, MustVanish, decoupling)", ok,
        f"max residual {worst:.2e}, decoupled {decoupled:.2e}",
    )


# ----------------------------------------------------------------------
# 4. BPZ suite
# ----------------------------------------------------------------------


def test_criterion_4_bpz_suite():
    rng = random.Random(SEED)
    worst = 0.0

    # 2-point
    F = kz.TwoPointFamily().base((0.5, 0.5))
    worst = max(worst, kz.bpz_residual(F, 0, F.charges, F.weights).max_abs)

    # 3-point flows 1 and 2 with the explicit right side
    for ell in (1, 2):
        for _ in range(3):
            j2 = rng.uniform(0.2, 1.2)
            fam = kz.ThreePointFamily(ell)
            F = fam.base((0.5, j2, ell - 0.5 - j2))
            worst = max(
                worst,
                kz.bpz_residual(
                    F, 0, F.charges, F.weights, rhs=kz.threept_bpz_rhs(j2, ell)
                ).max_abs,
            )

    # all 4-point blocks, 20 admissible draws spread over the flows
    draws = 0
    while draws < 20:
        ell = rng.choice([1, 2, 3])
        j1, j2 = rng.uniform(0.1, 0.8), rng.uniform(0.1, 0.8)
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
                BlockSum.incomplete_beta(
                    1, -j4 + 2, -j2 + 0.5, j4 - 0.5, j2 - 0.5
                ),
            ]
        pts = kz.sample_insertions(4, count=2, seed=rng.randrange(10**6))
        for blk in blocks:
            F = co.unspecialize_block(blk, j1, j2, 0.5, j4, ell)
            worst = max(
                worst, kz.bpz_residual(F, 2, F.charges, F.weights, pts).max_abs
            )
        draws += 1
    ok = worst < 1e-8
    assert _line(4, "BPZ suite (2pt, 3pt, all 4pt blocks)", ok,
                 f"max residual {worst:.2e}")


# ----------------------------------------------------------------------
# 5. recursion reproduction (exact arithmetic)
# ----------------------------------------------------------------------


def test_criterion_5_recursion_exact():
    j1, j2 = Fraction(3, 10), Fraction(2, 5)

    j4 = 1 - j1 - j2 - half
    out = kz.recursion_step(PowerSum.single(Fraction(1), half), (j1, j2, half, j4), 1)
    ok = out.equals(PowerSum.single(Fraction(1), Fraction(3, 2)))

    j4 = 3 - j1 - j2 - half
    cur = co.block_l3_powersum(j1, j2, j4)
    for k in (1, 2, 3):
        cur = kz.recursion_step(cur, (j1, j2, half + (k - 1), j4 - (k - 1)), 3)
        want = co.poly_Pk_polysum(k, j1, j4).mul_power(-j4 + 3 * k + 2, -j2 + half)
        ok &= cur.equals(want)

    # the backward check: j3 = -1/2 input returns the probe-charge block.
    # Exactly (PowerSum) on the terminating lattice, and exactly through
    # order-60 rational series coefficients at generic rational charges.
    j4m = 3 - Fraction(3, 2) - j2 + half
    blkm = PowerSum.single(Fraction(1, 2) / (j4m - 1), -j4m, -j2 + half)
    outm = kz.recursion_step(blkm, (Fraction(3, 2), j2, -half, j4m), 3)
    ok &= outm.equals(co.block_l3_powersum(Fraction(3, 2), j2, j4m - 1))

    from ghostcft.blocks import exact_series

    j4m = 3 - j1 - j2 + half
    blkg = BlockSum.hyp2f1(
        Fraction(1, 2) / (j4m - 1), -j4m, -j2 + half,
        -j1 + Fraction(3, 2), Fraction(1), -j4m + 2,
    )
    outg = kz.recursion_step(blkg, (j1, j2, -half, j4m), 3)
    p0g, cg = exact_series(outg, 60)
    p0w, cw = exact_series(
        co.block_l3_powersum(j1, j2, j4m - 1).to_blocksum(), 60, base_p=p0g
    )
    ok &= outg.is_exact() and p0g == p0w and cg == cw
    assert _line(5, "recursion reproduction (exact rational)", ok)


# ----------------------------------------------------------------------
# 6. conjectured blocks vs recursion, polynomial vs 2F1 form
# ----------------------------------------------------------------------


def test_criterion_6_conjectured_blocks():
    rng = random.Random(SEED)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", co.ConjecturalChargeWarning)
        for _ in range(4):
            j1, j2 = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.9)
            eta = rng.uniform(0.1, 0.5)
            j4 = 3 - j1 - j2 - 0.5
            blk = BlockSum.power(1.0, -j4 + 2, -j2 + 0.5)
            for k in (0, 1, 2, 3):
                got = kz.recursion_iterate(blk, (j1, j2, 0.5, j4), 3, k).value(eta)
                want = co.conj_block_l3(j1, j2, 0.5 + k, j4 - k, eta)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
            j4 = 2 - j1 - j2 - 0.5
            if abs(2 * j4 - round(2 * j4)) < 0.05:
                continue
            b1, b2 = co.blocks_l2_blocksums(j1, j2, j4)
            for k in (0, 1, 2, 3):
                got1 = kz.recursion_iterate(b1, (j1, j2, 0.5, j4), 2, k).value(eta)
                got2 = kz.recursion_iterate(b2, (j1, j2, 0.5, j4), 2, k).value(eta)
                c1, c2 = co.conj_blocks_l2(j1, j2, 0.5 + k, j4 - k, eta)
                worst = max(worst, abs(got1 - c1) / max(1.0, abs(c1)))
                worst = max(worst, abs(got2 - c2) / max(1.0, abs(c2)))
    ok = worst < 1e-10

    poly_ok = True
    for k in range(7):
        a = co.poly_Pk(k, Fraction(1, 3), Fraction(7, 5), Fraction(2, 7))
        b = co.poly_Pk_hypergeometric(k, Fraction(1, 3), Fraction(7, 5), Fraction(2, 7))
        poly_ok &= a == b
        x = co.poly_Pk(k, 0.22, -0.4, 0.61)
        y = co.poly_Pk_hypergeometric(k, 0.22, -0.4, 0.61)
        poly_ok &= abs(x - y) <= 1e-10 * max(1.0, abs(x))
    ok &= poly_ok
    assert _line(6, "conjectured blocks match recursion; P_k = 2F1 form", ok,
                 f"worst {worst:.2e}")


# ----------------------------------------------------------------------
# 7. monodromy
# ----------------------------------------------------------------------


def test_criterion_7_monodromy():
    rng = random.Random(SEED)
    worst = 0.0
    draws = 0
    while draws < 20:
        j1, j2 = rng.uniform(0.05, 0.7), rng.uniform(0.05, 0.7)
        j4 = 1.5 - j1 - j2
        if min(abs(j4 - round(j4)), abs(2 * j4 - round(2 * j4))) < 0.03:
            continue
        for eta in (0.9, 0.97):
            worst = max(worst, co.bulk_l2_crossterm_residual(j1, j2, j4, eta))
        draws += 1
    ok = worst < 1e-10

    got = co.monodromy_ratio_l2(0.25, 0.5, 0.75)
    ok &= abs(got.real - (-4.7892679494926091)) < 1e-6 and abs(got.imag) < 1e-9
    assert _line(7, "monodromy cross-terms vanish; frozen ratio value", ok,
                 f"worst cross-term {worst:.2e}")


# ----------------------------------------------------------------------
# 8. logarithmic singularity
# ----------------------------------------------------------------------


def test_criterion_8_log_singularity():
    j1 = 0.3
    j2 = 1.5 - j1 - 0.5
    eta1, eta2 = 1e-4, 1e-6
    want = math.log(eta2) / math.log(eta1)
    ok = True
    details = []
    for eps in (1e-3, 1e-4):
        got = co.log_singularity_ratio(j1, j2, half, eps, eta1, eta2)
        details.append(f"eps={eps:.0e}: ratio {got:.4f} vs {want:.4f}")
        ok &= abs(got - want) <= 0.02 * abs(want)
    assert _line(8, "log-eta behaviour at half-odd-integer charge", ok,
                 "; ".join(details))


# ----------------------------------------------------------------------
# 9. the summation identity
# ----------------------------------------------------------------------


def test_criterion_9_summation_identity():
    rng = random.Random(SEED)
    worst = 0.0
    draws = 0
    while draws < 50:
        k = rng.randrange(0, 7)
        alpha, a, b = (rng.uniform(-3, 3) for _ in range(3))
        c = rng.uniform(0.3, 3)
        eta = rng.choice([0.1, 0.3, 0.5, 0.7])
        beta = alpha - a + c
        if abs(beta - round(beta)) < 0.05 and round(beta) <= 0:
            continue
        worst = max(worst, idn.identity_gap(idn.IdentityCase(k, alpha, a, b, c, eta)))
        draws += 1
    ok = worst < 1e-9

    case0 = idn.IdentityCase(0, 1.23, 0.3, 0.6, 1.4, 0.45)
    z = -0.45 / 0.55
    pfaff = (1 - 0.45) ** (-0.6) * sf.hyp2f1(1.4 - 0.3, 0.6, 1.4, z)
    ok &= abs(idn.appb_rhs(case0) - pfaff) < 1e-12

    blocksum_worst = 0.0
    done = 0
    while done < 8:
        k = rng.randrange(0, 4)
        j1, j2 = rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
        j4 = 1.5 - j1 - j2
        if abs(2 * j4 - round(2 * j4)) < 0.05:
            continue
        v = idn.blocksum_check_l2(k, j1, j2, j4, rng.uniform(0.1, 0.75))
        blocksum_worst = max(blocksum_worst, v.first_gap, v.second_gap)
        done += 1
    ok &= blocksum_worst < 1e-9
    assert _line(9, "summation identity k<=6 and block sums k<=3", ok,
                 f"worst {worst:.2e} / {blocksum_worst:.2e}")


# ----------------------------------------------------------------------
# 10. special-function kernel invariants
# ----------------------------------------------------------------------


def test_criterion_10_kernel_invariants():
    rng = random.Random(SEED)
    worst = 0.0
    fd_worst = 0.0
    F = sf.hyp2f1
    for _ in range(40):
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        c = rng.uniform(0.3, 3)
        z = complex(rng.uniform(-0.55, 0.55), rng.uniform(-0.25, 0.25))
        f = F(a, b, c, z)
        scale = 1 + abs(f)
        pfaff = (1 - z) ** (-b) * F(c - a, b, c, z / (z - 1))
        euler = (1 - z) ** (c - a - b) * F(c - a, c - b, c, z)
        worst = max(worst, abs(f - pfaff) / scale, abs(f - euler) / scale)

        zr = rng.uniform(0.05, 0.8)
        fr = F(a, b, c, zr)
        e1 = a * (F(a + 1, b, c, zr) - fr)
        e2 = ((c - a) * F(a - 1, b, c, zr) + (a + b * zr - c) * fr) / (1 - zr)
        e3 = b * (F(a, b + 1, c, zr) - fr)
        e4 = ((c - b) * F(a, b - 1, c, zr) + (a * zr + b - c) * fr) / (1 - zr)
        e5 = (c - 1) * (F(a, b, c - 1, zr) - fr)
        e6 = (
            zr / c * ((c - a) * (c - b) * F(a, b, c + 1, zr) + c * (a + b - c) * fr)
            / (1 - zr)
        )
        sc = 1 + abs(e1)
        worst = max(worst, *(abs(e1 - other) / sc for other in (e2, e3, e4, e5, e6)))

        # 0 -> 1 connection at z = 1/2
        if abs((c - a - b) - round(c - a - b)) > 1e-3:
            ca, cb = sf.connection_coeffs_01(a, b, c)
            rhs = ca * F(a, b, a + b - c + 1, 0.5) + cb * 0.5 ** (c - a - b) * F(
                c - a, c - b, c - a - b + 1, 0.5
            )
            worst = max(worst, abs(F(a, b, c, 0.5) - rhs) / (1 + abs(rhs)))

        # derivative vs Richardson differences
        zd = rng.uniform(0.1, 0.6)
        got = sf.hyp2f1_deriv(a, b, c, zd)
        h = 1e-4
        d1 = (F(a, b, c, zd + h) - F(a, b, c, zd - h)) / (2 * h)
        d2 = (F(a, b, c, zd + h / 2) - F(a, b, c, zd - h / 2)) / h
        fd = (4 * d2 - d1) / 3
        fd_worst = max(fd_worst, abs(got - fd) / (1 + abs(got)))

        # incomplete-beta connection
        aa, bb = rng.uniform(0.1, 2.5), rng.uniform(0.1, 2.5)
        zz = rng.uniform(0.1, 0.9)
        lhs = sf.beta_incomplete(aa, bb, zz)
        rhs = sf.beta_complete(aa, bb) - zz**aa * (1 - zz) ** bb / bb * F(
            1, aa + bb, bb + 1, 1 - zz
        )
        worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
    ok = worst < 1e-9 and fd_worst < 1e-7
    assert _line(10, "kernel invariants (Pfaff/Euler/contiguous/connection)",
                 ok, f"worst {worst:.2e}, fd {fd_worst:.2e}")
