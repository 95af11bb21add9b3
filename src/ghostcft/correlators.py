"""Closed-form ghost correlators and conformal blocks.

Selection rules, the 2- and 3-point functions, every 4-point block family
(power-law, hypergeometric and incomplete-beta), bulk combinations with the
monodromy-fixed coefficient ratio, the charge-shift polynomial family, the
general-charge block formulas, and the w-space Ward-frame evaluator that
carries exact first and second derivatives for the residual engines.

Conventions: the standard correlator puts flow 0 on the first N-1 fields and
flow ell > 0 on the last; insertions specialize to (oo, 1, eta, 0), with the
field at infinity contracted against w^(2h-j).
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import specfun
from .blocks import BlockSum, PowerSum, as_blocksum, values_at
from .errors import (
    ChargeError,
    DegenerateError,
    ParamError,
    PoleError,
    UnsupportedShape,
    VanishingConstantRequired,
)
from .scalars import (
    Scalar,
    as_fraction,
    cpow,
    is_exact,
    is_half_odd_integer,
    is_integer,
    relative_gap,
    to_complex,
)

HALF = Fraction(1, 2)
CHARGE_TOL = 1e-12


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GhostPrimary:
    """Ghost primary phi_j^ell: charge j, flow ell."""

    j: Scalar
    ell: int = 0

    @property
    def weight(self) -> Scalar:
        return self.j * self.ell - self.ell * (self.ell + 1) // 2

    @property
    def j0_charge(self) -> Scalar:
        return self.j - self.ell


@dataclass
class CorrelatorSpec:
    """The ordered fields of a correlator; selection_rule reads their
    charges and flows."""

    fields: Sequence[GhostPrimary]

    def ghosts(self) -> List[GhostPrimary]:
        out = []
        for f in self.fields:
            if not isinstance(f, GhostPrimary):
                raise UnsupportedShape("selection rules apply to ghost primaries")
            out.append(f)
        return out


@dataclass(frozen=True)
class Verdict:
    zero: bool
    reason: Optional[str] = None

    @classmethod
    def maybe_nonzero(cls) -> "Verdict":
        return cls(False, None)

    @classmethod
    def zero_because(cls, reason: str) -> "Verdict":
        return cls(True, reason)


def selection_rule(spec: CorrelatorSpec) -> Verdict:
    """Vanishing rules: one-sided flows, charge conservation, and the flow
    window of the standard shape (0,...,0,ell)."""
    fields = spec.ghosts()
    n = len(fields)
    flows = [f.ell for f in fields]
    if all(l <= 0 for l in flows):
        return Verdict.zero_because("all-flows-nonpositive")
    if all(l >= 1 for l in flows):
        return Verdict.zero_because("all-flows-positive")
    total = sum(f.j0_charge for f in fields)
    if not charge_conserved(total):
        return Verdict.zero_because("charge-violation")
    if n > 2:
        if any(l != 0 for l in flows[:-1]) or flows[-1] <= 0:
            raise UnsupportedShape(
                "only the standard flow pattern (0, ..., 0, ell>0) is "
                "supported for N > 2"
            )
        ell = flows[-1]
        if n == 3 and ell not in (1, 2):
            return Verdict.zero_because("ell-window")
        if n == 4 and ell not in (1, 2, 3):
            return Verdict.zero_because("ell-window")
    return Verdict.maybe_nonzero()


def charge_conserved(total: Scalar) -> bool:
    if is_exact(total):
        return total == 0
    return abs(to_complex(total)) <= CHARGE_TOL


# ----------------------------------------------------------------------
# 2- and 3-point functions
# ----------------------------------------------------------------------


def two_point(p1: GhostPrimary, p2: GhostPrimary, w1: Scalar, w2: Scalar) -> Scalar:
    """w12^(-((2l-1) i - l^2)) when i+j = 1 and l+m = 1, else exact 0."""
    sel_charge = p1.j + p2.j - 1
    if p1.ell + p2.ell != 1 or not charge_conserved(sel_charge):
        return 0
    expo = -((2 * p1.ell - 1) * p1.j - p1.ell**2)
    return cpow(w1 - w2, expo)


def three_point_exponents(j1, j2, j3, ell: int):
    e12 = (j3 - HALF * ell) * (ell - 1)
    e13 = -j2 - (j3 - HALF * (ell + 1)) * ell
    e23 = -j1 - (j3 - HALF * (ell + 1)) * ell
    return e12, e13, e23


def three_point(j1, j2, j3, ell: int, w1, w2, w3) -> Scalar:
    """w12^.. w13^.. w23^.. for ell in {1, 2}; exact 0 for ell > 2 or
    charge violation."""
    if ell > 2 or ell <= 0:
        return 0
    if not charge_conserved(j1 + j2 + j3 - ell):
        return 0
    e12, e13, e23 = three_point_exponents(j1, j2, j3, ell)
    return cpow(w1 - w2, e12) * cpow(w1 - w3, e13) * cpow(w2 - w3, e23)


# ----------------------------------------------------------------------
# specialized 4-point blocks (j3 = 1/2 BPZ families and the ell=1 solution)
# ----------------------------------------------------------------------


def block_l1(j3: Scalar, eta: Scalar) -> Scalar:
    """eta^{j3}: the general-charge flow-1 solution."""
    return cpow(eta, j3)


def fourpoint_blocksums(ell: int, j1, j2, j4) -> Tuple[BlockSum, BlockSum]:
    """The two 4-point blocks of flow ell with the probe charge 1/2 at the
    third insertion, as BlockSums in eta:

        ell = 1:  eta^(1/2)  and  eta^(1/2) B(-j4+1/2, -j2+1/2; eta);
        ell = 2:  eta 2F1(-j1+1, 1/2; j4+1/2; eta)  and
                  eta^(-j4+3/2) 2F1(j2, -j4+1; -j4+3/2; eta);
        ell = 3:  eta^(-j4+2) (1-eta)^(-j2+1/2)  and the same times
                  B(j4-1/2, j2-1/2; eta).

    The flow-2 pair is exact for exact charges; flow 1 does not depend on
    j1.  Raises ValueError for any other ell."""
    if ell == 1:
        return (
            BlockSum.power(1, 0.5, 0),
            BlockSum.incomplete_beta(
                1, 0.5, 0, -to_complex(j4) + 0.5, -to_complex(j2) + 0.5),
        )
    if ell == 2:
        (a1, b1, c1), (a2, b2, c2) = blocks_l2_params(j1, j2, j4)
        # the second block's eta exponent -j4 + 3/2 is its lower parameter c2
        return (BlockSum.hyp2f1(1, 1, 0, a1, b1, c1),
                BlockSum.hyp2f1(1, c2, 0, a2, b2, c2))
    if ell == 3:
        j2c, j4c = to_complex(j2), to_complex(j4)
        p, q = -j4c + 2, -j2c + 0.5
        return (
            BlockSum.power(1, p, q),
            BlockSum.incomplete_beta(1, p, q, j4c - 0.5, j2c - 0.5),
        )
    raise ValueError("4-point blocks exist for ell in {1, 2, 3}")


def blocks_l1(j2, j4, eta) -> Tuple[Scalar, Scalar]:
    """The two flow-1 blocks at probe charge 1/2 (fourpoint_blocksums)."""
    return tuple(b.value(eta) for b in fourpoint_blocksums(1, None, j2, j4))


def blocks_l2_params(j1, j2, j4):
    return (
        (-j1 + 1, HALF, j4 + HALF),
        (j2, -j4 + 1, -j4 + 1 + HALF),
    )


def blocks_l2(j1, j2, j4, eta) -> Tuple[Scalar, Scalar]:
    """The two flow-2 blocks at probe charge 1/2 (fourpoint_blocksums).

    Raises DegenerateError for j4 in Z+1/2 (the log regime)."""
    if is_half_odd_integer(j4):
        raise DegenerateError(
            f"j4 = {j4} is half-odd-integer: the blocks degenerate into the "
            "log regime (use log_blocks_l2)"
        )
    return tuple(b.value(eta) for b in fourpoint_blocksums(2, j1, j2, j4))


def blocks_l2_blocksums(j1, j2, j4) -> Tuple[BlockSum, BlockSum]:
    return fourpoint_blocksums(2, j1, j2, j4)


def block_l3(j1, j2, j4, eta) -> Scalar:
    """Monodromy-selected flow-3 block: eta^(-j4+2) (1-eta)^(-j2+1/2)."""
    return fourpoint_blocksums(3, j1, j2, j4)[0].value(eta)


def block_l3_powersum(j1, j2, j4) -> PowerSum:
    return PowerSum.single(1, -j4 + 2, -j2 + HALF)


def block_l3_general(j1, j2, j4, eta, alpha1: Scalar, alpha2: Scalar) -> Scalar:
    """Pre-monodromy flow-3 family: alpha1 times the power block plus alpha2
    times the incomplete-beta block."""
    power, beta = fourpoint_blocksums(3, j1, j2, j4)
    return (power.scale(alpha1) + beta.scale(alpha2)).value(eta)


def blocks_l3(j1, j2, j4, eta) -> Tuple[Scalar, Scalar]:
    """The two flow-3 blocks (power and incomplete-beta)."""
    return tuple(b.value(eta) for b in fourpoint_blocksums(3, j1, j2, j4))


# ----------------------------------------------------------------------
# log regime (flow 2, j4 in Z + 1/2)
# ----------------------------------------------------------------------


def log_blocks_l2(j1, j2, j4, eta, eps: float = 1e-3) -> Tuple[complex, complex]:
    """At half-odd-integer j4 the two Frobenius exponents collide; the pair
    returned is (regular block, log partner), the latter from the Richardson
    limit of (block1 - block2)/eps along j4 + eps."""
    if not is_half_odd_integer(j4):
        raise ChargeError(f"log regime requires j4 in Z+1/2, got {j4}")
    j4c = to_complex(j4)

    def diff(e):
        b1, b2 = blocks_l2(j1, j2, j4c + e, eta)
        return (b1 - b2) / e

    regular = blocks_l2(j1, j2, j4c + eps, eta)[0]
    log_partner = 2 * diff(eps / 2) - diff(eps)
    return regular, log_partner


def log_singularity_ratio(j1, j2, j4_half, eps: float, eta1: float, eta2: float) -> float:
    """g(eta2)/g(eta1) for g = (block1 - block2)/eta at j4 = j4_half + eps;
    approaches log(eta2)/log(eta1) as eta -> 0."""
    j4 = to_complex(j4_half) + eps

    def g(eta):
        b1, b2 = blocks_l2(j1, j2, j4, eta)
        return (b1 - b2) / eta

    return abs(g(eta2)) / abs(g(eta1))


# ----------------------------------------------------------------------
# monodromy and the bulk correlator (flow 2)
# ----------------------------------------------------------------------


def monodromy_ratio_l2(j1, j2, j4) -> complex:
    """alpha22/alpha11 = -[beta(j1,j2) beta(1/2,-j4+1)] /
    [beta(-j1+1,-j2+1) beta(1/2,j4)]."""
    for v in (j1, j2, j4):
        if is_integer(v):
            raise PoleError(f"monodromy ratio undefined at integer charge {v}")
    if is_half_odd_integer(j4):
        raise PoleError(f"monodromy ratio formula degenerates at j4 = {j4}")
    num = specfun.beta_complete(j1, j2) * specfun.beta_complete(
        0.5, -to_complex(j4) + 1
    )
    den = specfun.beta_complete(
        -to_complex(j1) + 1, -to_complex(j2) + 1
    ) * specfun.beta_complete(0.5, j4)
    return -num / den


def bulk_l2(j1, j2, j4, eta, alpha11: float, winding0: int = 0,
            alpha12: complex = 0) -> complex:
    """Single-valued bulk combination |eta|^2 (a11 |F1|^2 +
    a22 |eta|^(-2 j4 + 1) |F2|^2) with a22 fixed by the monodromy ratio.

    winding0 tracks analytic continuation eta -> e^(2 pi i n) eta (with the
    conjugate rotating oppositely); the optional alpha12 cross term breaks
    single-valuedness and exists as a detector control."""
    alpha22 = monodromy_ratio_l2(j1, j2, j4) * alpha11
    b1, b2 = (b.value(to_complex(eta)) for b in fourpoint_blocksums(2, j1, j2, j4))
    # chiral monodromy phases around 0: b1 ~ eta^1, b2 ~ eta^{-j4+3/2};
    # the antiholomorphic side winds oppositely, i.e. conjugate phases
    ph1 = cmath.exp(2j * cmath.pi * winding0 * 1)
    ph2 = cmath.exp(2j * cmath.pi * winding0 * (-to_complex(j4) + 1.5))
    b1w, b2w = b1 * ph1, b2 * ph2
    b1bar = (b1 * ph1).conjugate()
    b2bar = (b2 * ph2).conjugate()
    total = alpha11 * b1w * b1bar + alpha22 * b2w * b2bar
    if alpha12 != 0:
        total = total + alpha12 * b1w * b2bar
    return total


def bulk_l2_crossterm_residual(j1, j2, j4, eta) -> float:
    """The branch-crossing terms in the expansion of the bulk correlator
    around eta = 1, relative to the size of their two contributions; they
    vanish identically when alpha22/alpha11 takes the monodromy-fixed value
    (alpha11 = 1 here)."""
    alpha22 = monodromy_ratio_l2(j1, j2, j4)
    (a1, b1, c1), (a2, b2, c2) = blocks_l2_params(j1, j2, j4)
    x = 1 - to_complex(eta)
    g1 = specfun.hyp2f1(a1, b1, a1 + b1 - c1 + 1, x)
    h1 = specfun.hyp2f1(c1 - a1, c1 - b1, c1 - a1 - b1 + 1, x)
    g2 = specfun.hyp2f1(a2, b2, a2 + b2 - c2 + 1, x)
    h2 = specfun.hyp2f1(c2 - a2, c2 - b2, c2 - a2 - b2 + 1, x)
    ca1, cb1 = specfun.connection_coeffs_01(a1, b1, c1)
    ca2, cb2 = specfun.connection_coeffs_01(a2, b2, c2)
    t1 = ca1 * cb1 * g1 * h1
    t2 = alpha22 * cpow(to_complex(eta), 1 - 2 * to_complex(j4)) * ca2 * cb2 * g2 * h2
    return relative_gap(t1 + t2, t1, t2)


def recursed_l2_terms(k: int, j1, j2, j4):
    """The two k-recursed flow-2 finite sums as lists of (weight, (a, b, c)),
    m = 0..k, each term weight * 2F1(a, b; c; eta):

        first:   C(k,m) (-j4+1/2)_{k-m} (j4)_m / (1/2)_k,   (-m+1/2, -j1+1; j4+1/2),
        second:  C(k,m) (-j4+1/2)_{k-m} (1/2)_m / (1/2)_k,  (-j4-m+1, j2; -j4+3/2)."""
    j1c, j2c, j4c = map(to_complex, (j1, j2, j4))
    norm = specfun.pochhammer(0.5, k)
    first, second = [], []
    for m in range(k + 1):
        lead = math.comb(k, m) * specfun.pochhammer(-j4c + 0.5, k - m)
        first.append((lead * specfun.pochhammer(j4c, m) / norm,
                      (-m + 0.5, -j1c + 1, j4c + 0.5)))
        second.append((lead * specfun.pochhammer(0.5, m) / norm,
                       (-j4c - m + 1, j2c, -j4c + 1.5)))
    return first, second


def bulk_l2_crossterm_recursed(k: int, j1, j2, j4, eta) -> complex:
    """Branch-mixing coefficient around eta = 1 for the k-recursed flow-2
    blocks, with the coefficient ratio still taken from the base charges
    (alpha11 = 1).  Termwise 0->1 splits of the finite sums; vanishes for
    every k when the ratio is the monodromy-fixed one."""
    alpha22 = monodromy_ratio_l2(j1, j2, j4)
    j4c = to_complex(j4)
    x = 1 - to_complex(eta)
    etac = to_complex(eta)

    def split(terms):
        analytic = branch = 0j
        for m, (d, (a, b, c)) in enumerate(terms):
            ca, cb = specfun.connection_coeffs_01(a, b, c)
            g = specfun.hyp2f1(a, b, a + b - c + 1, x)
            h = specfun.hyp2f1(c - a, c - b, c - a - b + 1, x)
            analytic += d * ca * g
            branch += d * cb * x**m * h
        return analytic, branch

    first, second = recursed_l2_terms(k, j1, j2, j4)
    p_one, q_one = split(first)
    p_two, q_two = split(second)
    pi1 = 2 * k + 1
    pi2 = 2 * k - j4c + 1.5
    return cpow(etac, 2 * pi1) * p_one * q_one + alpha22 * cpow(
        etac, 2 * pi2
    ) * p_two * q_two


# ----------------------------------------------------------------------
# the charge-shift polynomial family and the general-charge conjectures
# ----------------------------------------------------------------------


def double_factorial_odd(k: int):
    """(2k-1)!! with (-1)!! = 1."""
    out = 1
    for t in range(1, 2 * k, 2):
        out *= t
    return out


def poly_Pk(k: int, j1, j4, eta) -> Scalar:
    """(-1)^k 2^k/(2k-1)!! sum_i C(k,i) (-j1+3/2)_i (j4-k)_{k-i} eta^i."""
    pref, poly = _poly_Pk_parts(k, j1, j4)
    return pref * poly.eval(eta)


def poly_Pk_polysum(k: int, j1, j4) -> PowerSum:
    """Exact PowerSum form of the charge-shift polynomial."""
    pref, poly = _poly_Pk_parts(k, j1, j4)
    return poly.scale(pref)


def _poly_Pk_parts(k: int, j1, j4) -> Tuple[Scalar, PowerSum]:
    """The prefactor (-1)^k 2^k/(2k-1)!! and the sum it multiplies; a float
    sum cancels, so poly_Pk applies the prefactor once, after summing."""
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    pref = Fraction((-1) ** k * 2**k, double_factorial_odd(k))
    terms = {}
    binom = 1
    for i in range(k + 1):
        coeff = (
            binom
            * specfun.pochhammer(-j1 + Fraction(3, 2), i)
            * specfun.pochhammer(j4 - k, k - i)
        )
        terms[(i, 0)] = coeff
        binom = binom * (k - i) // (i + 1)
    return pref, PowerSum(terms)


def poly_Pk_hypergeometric(k: int, j1, j4, eta) -> Scalar:
    """The same polynomial as a terminating 2F1:
    [(-j4+1)_k / (1/2)_k] 2F1(-j1+3/2, -k; -j4+1; eta)."""
    pref = specfun.pochhammer(-j4 + 1, k) / specfun.pochhammer(HALF, k)
    return pref * specfun.hyp2f1(-j1 + 1 + HALF, -k, -j4 + 1, eta)


def l3_constant_must_vanish(j1, j3, j4) -> bool:
    """Validity of the general flow-3 block requires the constant to vanish
    when j1 - j4 in Z + 1/2 or j1 - j3 in Z."""
    return is_half_odd_integer(to_complex(j1) - to_complex(j4)) or is_integer(
        to_complex(j1) - to_complex(j3)
    )


class ConjecturalChargeWarning(UserWarning):
    """General-charge blocks away from the half-odd-integer probe lattice
    are interpolation conjectures."""


def _warn_if_conjectural(j3) -> None:
    if not is_half_odd_integer(j3):
        warnings.warn(
            f"j3 = {j3} is off the half-odd-integer lattice; the block value "
            "is conjectural",
            ConjecturalChargeWarning,
            stacklevel=3,
        )


def conj_block_l3(j1, j2, j3, j4, eta) -> complex:
    """General-charge flow-3 block:

        [beta(1/2,-j4+1)/beta(j3,-j3-j4+3/2)] eta^(2 j3 - j4 + 1)
          (1-eta)^(-j2+1/2) 2F1(-j1+3/2, -j3+1/2; -j3-j4+3/2; eta),

    evaluated through the regularized 2F1 so the -j3-j4+3/2 in -N0 cases are
    finite.  Charges requiring a vanishing constant raise instead."""
    if not charge_conserved(j1 + j2 + j3 + j4 - 3):
        return 0
    if l3_constant_must_vanish(j1, j3, j4):
        raise VanishingConstantRequired(
            "the block formula needs a vanishing constant at these charges "
            f"(j1 - j4 = {to_complex(j1)-to_complex(j4)}, "
            f"j1 - j3 = {to_complex(j1)-to_complex(j3)})"
        )
    _warn_if_conjectural(j3)
    j1c, j2c, j3c, j4c = map(to_complex, (j1, j2, j3, j4))
    c_low = -j3c - j4c + 1.5
    # beta ratio with the regularizing Gamma(c_low) folded into 2F1/Gamma:
    # beta(1/2,-j4+1)/beta(j3, c_low) * 2F1 = beta(1/2,-j4+1) Gamma(-j4+3/2)
    #   / Gamma(j3) * [2F1 / Gamma(c_low)]
    pref = (
        specfun.beta_complete(0.5, -j4c + 1)
        * specfun.gamma(-j4c + 1.5)
        / specfun.gamma(j3c)
    )
    reg = specfun.hyp2f1_regularized(-j1c + 1.5, -j3c + 0.5, c_low, eta)
    return (
        pref
        * cpow(eta, 2 * j3c - j4c + 1)
        * cpow(1 - to_complex(eta), -j2c + 0.5)
        * reg
    )


def conj_block_l3_powersum(j1, j2, j3, j4) -> PowerSum:
    """Exact PowerSum form at half-odd-integer j3 (terminating 2F1)."""
    j1f, j2f, j3f, j4f = map(as_fraction, (j1, j2, j3, j4))
    k = j3f - HALF
    if k.denominator != 1 or k < 0:
        raise ChargeError("exact form needs j3 in {1/2, 3/2, ...}")
    k = int(k)
    base_j4 = j4f + k  # the probe-lattice label
    return poly_Pk_polysum(k, j1f, base_j4).mul_power(-base_j4 + 3 * k + 2, -j2f + HALF)


def conj_blocks_l2(j1, j2, j3, j4, eta) -> Tuple[complex, complex]:
    """General-charge flow-2 blocks:

      block1 = eta^(2 j3) (1-eta)^(j1-1)
               3F2(j3+j4-1/2, -j1+1, j3; j3+j4, 1/2; -eta/(1-eta))
      block2 = [beta(1/2, 1-j4)/beta(j3, 3/2-j3-j4)] eta^(j3-j4+1)
               (1-eta)^(-j2) 3F2(1/2, j2, -j4+1; j1+j2, j1+j2-1/2; .)

    The block2 prefactor is written so that the half-odd-integer lattice
    reproduces the charge-shift recursion (the printed source form does
    not; see the ledger note)."""
    if not charge_conserved(j1 + j2 + j3 + j4 - 2):
        return 0, 0
    _warn_if_conjectural(j3)
    j1c, j2c, j3c, j4c = map(to_complex, (j1, j2, j3, j4))
    w = -to_complex(eta) / (1 - to_complex(eta))
    blk1 = (
        cpow(eta, 2 * j3c)
        * cpow(1 - to_complex(eta), j1c - 1)
        * specfun.hyp3f2(j3c + j4c - 0.5, -j1c + 1, j3c, j3c + j4c, 0.5, w)
    )
    pref = specfun.beta_complete(0.5, 1 - j4c) / specfun.beta_complete(
        j3c, 1.5 - j3c - j4c
    )
    blk2 = (
        pref
        * cpow(eta, j3c - j4c + 1)
        * cpow(1 - to_complex(eta), -j2c)
        * specfun.hyp3f2(0.5, j2c, -j4c + 1, j1c + j2c, j1c + j2c - 0.5, w)
    )
    return blk1, blk2


# ----------------------------------------------------------------------
# Ward-frame w-space evaluator
# ----------------------------------------------------------------------

_PAIRS4 = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
# eta = w12 w34 / (w13 w24) as a product of pairwise powers
_ETA_EXPONENTS = {(1, 2): 1, (3, 4): 1, (1, 3): -1, (2, 4): -1}
# the BlockSum key of a constant term
_CONSTANT_KEY = (0, 0, "pow", ())


def ward_exponents(charges: Sequence[Scalar], weights: Sequence[Scalar]):
    """The pairwise exponents of the N <= 4 translation/scaling solutions."""
    n = len(charges)
    if n == 1:
        return {}
    if n == 2:
        return {(1, 2): -2 * weights[0] + charges[0]}
    if n == 3:
        h1, h2, h3 = weights
        q1, q2, q3 = charges
        return {
            (1, 2): -h1 - h2 + h3 - q3,
            (1, 3): -h1 + h2 - h3 - q2,
            (2, 3): h1 - h2 - h3 - q1,
        }
    if n == 4:
        h = Fraction(1, 3) * sum(weights)
        out = {}
        for (a, b) in _PAIRS4:
            out[(a, b)] = (
                h
                - (weights[a - 1] + weights[b - 1])
                + HALF * (charges[a - 1] + charges[b - 1])
            )
        return out
    raise UnsupportedShape(f"closed Ward frames cover N <= 4, got N = {n}")


class WardForm:
    """F(w) = H(eta(w)) * prod_{a<b} w_ab^{e_ab} with exact analytic first
    and second derivatives in each insertion point.

    charges/weights are the zero-mode data of the N fields; H is a BlockSum
    (constant for N < 4).  Values and derivatives evaluate anywhere off the
    coincidence divisor.

    ``value``, ``d`` and ``d2`` take H, H' and H'' at eta from
    ``blocks.values_at`` and share its payloads: the form remembers the
    payloads and the values of H, H' and H'' at the eta of its last call
    only, and a call at another eta replaces them.  So the calls of one
    residual point sum each of H, H' and H'' at most once and evaluate each
    distinct payload once."""

    def __init__(self, charges, weights, h_block: Optional[BlockSum] = None,
                 exponents=None):
        self.charges = list(charges)
        self.weights = list(weights)
        self.n = len(self.charges)
        self.exponents = dict(
            exponents if exponents is not None else ward_exponents(charges, weights)
        )
        self.h = as_blocksum(h_block) if h_block is not None else BlockSum.constant(1)
        h1 = self.h.deriv()
        self._jet = (self.h, h1, h1.deriv())
        # the payloads and values of the jet at the last eta, keyed by its
        # repr, which tells the two signed zeros of Im eta (the sides of
        # [1, oo)) apart
        self._eta_key = None
        self._payloads: dict = {}
        self._values: list = []
        if self.n < 4:
            # no cross ratio: H must be a constant, frozen here
            if any(key != _CONSTANT_KEY for key in self.h.terms):
                raise UnsupportedShape("N < 4 Ward forms take a constant H only")
            self._const = to_complex(self.h.terms.get(_CONSTANT_KEY, 0))

    # -- helpers ----------------------------------------------------------
    def _h_jet(self, eta: complex, order: int) -> list:
        """[H, H', H''][:order + 1] at eta."""
        key = repr(eta)
        if key != self._eta_key:
            self._eta_key, self._payloads, self._values = key, {}, []
        have = len(self._values)
        if have <= order:
            self._values += values_at(self._jet[have:order + 1], eta, self._payloads)
        return self._values[:order + 1]

    @staticmethod
    def _eta(ws):
        return ((ws[0] - ws[1]) * (ws[2] - ws[3])) / ((ws[0] - ws[2]) * (ws[1] - ws[3]))

    def _prefactor(self, ws) -> complex:
        out = 1 + 0j
        for (a, b), e in self.exponents.items():
            out *= cpow(ws[a - 1] - ws[b - 1], e)
        # each power fits a double (cpow raises otherwise), their product may not
        if not cmath.isfinite(out):
            raise ParamError("the Ward prefactor prod (w_a - w_b)^e_ab overflows "
                             f"double precision at w = {ws}")
        return out

    @staticmethod
    def _log_derivative(exponents, i: int, ws) -> complex:
        """d_i log prod_{a<b} w_ab^{e_ab}."""
        out = 0j
        for (a, b), e in exponents.items():
            if a - 1 == i:
                out += to_complex(e) / (ws[a - 1] - ws[b - 1])
            elif b - 1 == i:
                out -= to_complex(e) / (ws[a - 1] - ws[b - 1])
        return out

    @staticmethod
    def _log_derivative_prime(exponents, i: int, ws) -> complex:
        """d_i of _log_derivative(exponents, i)."""
        out = 0j
        for (a, b), e in exponents.items():
            if i in (a - 1, b - 1):
                out -= to_complex(e) / (ws[a - 1] - ws[b - 1]) ** 2
        return out

    # -- evaluation --------------------------------------------------------
    def value(self, ws) -> complex:
        ws = [to_complex(w) for w in ws]
        pre = self._prefactor(ws)
        if self.n < 4:
            return self._const * pre
        eta = self._eta(ws)
        (hval,) = self._h_jet(eta, 0)
        return hval * pre

    def d(self, i: int, ws) -> complex:
        ws = [to_complex(w) for w in ws]
        pre = self._prefactor(ws)
        dlog = self._log_derivative(self.exponents, i, ws)
        if self.n < 4:
            return self._const * dlog * pre
        eta = self._eta(ws)
        lam = self._log_derivative(_ETA_EXPONENTS, i, ws)
        hval, hder = self._h_jet(eta, 1)
        return (hder * eta * lam + hval * dlog) * pre

    def d2(self, i: int, ws) -> complex:
        ws = [to_complex(w) for w in ws]
        pre = self._prefactor(ws)
        dlog = self._log_derivative(self.exponents, i, ws)
        dlog_p = self._log_derivative_prime(self.exponents, i, ws)
        if self.n < 4:
            return self._const * (dlog * dlog + dlog_p) * pre
        eta = self._eta(ws)
        lam = self._log_derivative(_ETA_EXPONENTS, i, ws)
        lam_p = self._log_derivative_prime(_ETA_EXPONENTS, i, ws)
        eta_i = eta * lam
        eta_ii = eta * (lam * lam + lam_p)
        h0, h1, h2 = self._h_jet(eta, 2)
        return (
            h2 * eta_i * eta_i
            + h1 * (eta_ii + 2 * eta_i * dlog)
            + h0 * (dlog_p + dlog * dlog)
        ) * pre


# ----------------------------------------------------------------------
# specialization maps
# ----------------------------------------------------------------------


def standard_frame_data(*charges_and_ell):
    """(charges, weights) of the standard N-point correlator with flows
    (0, ..., 0, ell), called as standard_frame_data(j1, ..., jN, ell) for
    N in {2, 3, 4}: the zero-mode charges (j1, ..., jN - ell) and the
    weights (0, ..., 0, jN ell - ell(ell+1)/2)."""
    *js, ell = charges_and_ell
    if not 2 <= len(js) <= 4:
        raise UnsupportedShape(f"the standard frame covers N in {{2, 3, 4}}, got N = {len(js)}")
    last = GhostPrimary(js[-1], ell)
    return [*js[:-1], last.j0_charge], [0] * (len(js) - 1) + [last.weight]


def specialized_prefactor_exponents(j1, j2, j3, j4, ell: int):
    """(p, q) with  G(eta) = eta^p (1-eta)^q H(eta)  in the frame
    (oo, 1, eta, 0); p = e_34 and q = e_23 of the Ward exponents."""
    charges, weights = standard_frame_data(j1, j2, j3, j4, ell)
    e = ward_exponents(charges, weights)
    return e[(3, 4)], e[(2, 3)]


def specialize(h_block, j1, j2, j3, j4, ell: int):
    """Ward H-function -> specialized correlator G(eta)."""
    p, q = specialized_prefactor_exponents(j1, j2, j3, j4, ell)
    return h_block.mul_power(p, q)


def h_from_specialized(block, j1, j2, j3, j4, ell: int):
    """Specialized correlator G(eta) -> Ward H-function."""
    p, q = specialized_prefactor_exponents(j1, j2, j3, j4, ell)
    return block.mul_power(-p, -q)


def unspecialize(h_block, j1, j2, j3, j4, ell: int) -> WardForm:
    """Ward H-function -> the full 4-point function of (w1..w4)."""
    charges, weights = standard_frame_data(j1, j2, j3, j4, ell)
    return WardForm(charges, weights, as_blocksum(h_block))


def unspecialize_block(block, j1, j2, j3, j4, ell: int) -> WardForm:
    """Specialized block G(eta) -> the full 4-point function."""
    h = h_from_specialized(as_blocksum(block), j1, j2, j3, j4, ell)
    return unspecialize(h, j1, j2, j3, j4, ell)


def specialize_wardform_numeric(form: WardForm, eta, w1: float = 1.0e7) -> complex:
    """lim w1^(2 h1 - q1) F(w1, 1, eta, 0) by direct large-w1 evaluation."""
    scale = cpow(w1, 2 * to_complex(form.weights[0]) - to_complex(form.charges[0]))
    return scale * form.value([w1, 1.0, eta, 0.0])


def specialize_wardform_exact(form: WardForm, eta) -> complex:
    """The same limit read off exactly from the exponent bookkeeping."""
    e = form.exponents
    pre = cpow(eta, e[(3, 4)]) * cpow(1 - to_complex(eta), e[(2, 3)])
    return form.h.value(eta) * pre
