"""Residual engines for the Ward, charge-shift (KZ), algebraic-KZ and
second-order (BPZ) constraints, the 3-point constant recursions, and the
charge-shift recursion algorithm.

The recursion operates in the specialized frame (oo, 1, eta, 0), where the
w-space identity collapses to

    G_{j3+1, j4-1}(eta) = -(eta^(l+1)/j3) [ (eta-1) G'
        + (h4l + j1 + (l-1) j2 + (l-1) j3 / eta) G ]
        - (j2/j3) eta^(l+1) G_comp(eta),

with h4l = j4 l - l(l+1)/2 the flowed weight of phi_{j4}^l.  The j1-shift
companion of the w-space identity scales out at the infinite insertion; the
j2-shift companion enters through the last term and, by the algebraic-KZ
identification of the specialized shifted correlators, is the input block
itself (for flow 1 that identification is the displayed equality of
shifted correlators; it is what reproduces every higher-flow closed form).

Each exponent class of the block, A u + B u' for a 2F1 payload u, steps
through all k operators in one exact kernel, ``dfinite.apply``.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple, Union

from . import dfinite
from .blocks import BlockSum, PowerSum, as_blocksum
from .correlators import (
    HALF,
    GhostPrimary,
    WardForm,
    charge_conserved,
    standard_frame_data,
    unspecialize_block,
    ward_exponents,
)
from .errors import ChargeError, DivisionByZeroCharge, MissingCompanion, ParamError, PoleError
from .scalars import Scalar, all_exact, as_fraction, cpow, relative_gap, to_complex

# Deterministic cross-ratio samples used by every residual sweep.
DEFAULT_ETA_POINTS: Tuple[complex, ...] = (
    0.13 + 0j,
    0.27 + 0.11j,
    0.5 + 0j,
    0.62 - 0.2j,
    0.81 + 0j,
)

DEFAULT_SEED = 42

# Default tolerance of each residual engine, keyed by its CLI --op name.
DEFAULT_TOLERANCES = {"ward": 1e-9, "kz-m2": 1e-10, "kz-m1": 1e-10,
                      "kz-j0": 1e-12, "kz-decoupled": 1e-12, "bpz": 1e-8}


def sample_insertions(n: int, count: int = 5, seed: int = DEFAULT_SEED) -> List[List[float]]:
    """Seeded real insertion points 4 > w_1 > ... > w_n > -4, each at least
    0.35 from the next."""
    rng = random.Random(seed)
    out: List[List[float]] = []
    while len(out) < count:
        ws = sorted((rng.uniform(-4.0, 4.0) for _ in range(n)), reverse=True)
        if all(ws[i] - ws[i + 1] >= 0.35 for i in range(n - 1)):
            out.append(ws)
    return out


@dataclass
class ResidualReport:
    """Sampled residuals of one operator identity."""

    operator: str
    max_abs: float = field(default=0.0, init=False)
    samples: List[dict] = field(default_factory=list, init=False)
    tolerance: Optional[float] = None

    def add(self, where: dict, residual: float) -> None:
        """Record one sample (where it was taken, then its residual); a
        non-finite residual makes max_abs infinite, so the report fails."""
        self.samples.append({**where, "residual": residual})
        self.max_abs = max(self.max_abs, residual if math.isfinite(residual) else math.inf)

    @property
    def passes(self) -> Optional[bool]:
        if self.tolerance is None:
            return None
        return self.max_abs <= self.tolerance

    def to_json(self) -> str:
        return json.dumps(
            {
                "operator": self.operator,
                "tolerance": self.tolerance,
                "max_residual": self.max_abs,
                "pass": self.passes,
                "samples": self.samples,
            },
            default=str,
        )


class NumericDerivatives:
    """value/d/d2 adapter for plain callables via Richardson central
    differences (step 1e-5)."""

    def __init__(self, fn: Callable[..., complex], n: int, h: float = 1e-5):
        self.fn = fn
        self.n = n
        self.h = h

    def value(self, ws) -> complex:
        return self.fn(*ws)

    def _shift(self, ws, i, delta):
        out = list(ws)
        out[i] = out[i] + delta
        return out

    def d(self, i: int, ws) -> complex:
        h = self.h

        def central(step):
            up = self.fn(*self._shift(ws, i, step))
            dn = self.fn(*self._shift(ws, i, -step))
            return (up - dn) / (2 * step)

        d1, d2 = central(h), central(h / 2)
        return (4 * d2 - d1) / 3

    def d2(self, i: int, ws) -> complex:
        h = self.h * 10

        def second(step):
            up = self.fn(*self._shift(ws, i, step))
            dn = self.fn(*self._shift(ws, i, -step))
            return (up - 2 * self.fn(*ws) + dn) / step**2

        s1, s2 = second(h), second(h / 2)
        return (4 * s2 - s1) / 3


def _as_form(F, n: int):
    if hasattr(F, "value") and hasattr(F, "d"):
        return F
    return NumericDerivatives(F, n)


# ----------------------------------------------------------------------
# Ward residuals
# ----------------------------------------------------------------------


def ward_residuals(F, charges, weights, points=None,
                   tolerance: float = DEFAULT_TOLERANCES["ward"]):
    """Residuals of the four zero-mode identities on sampled insertions.

    The scaling and special-conformal identities carry the h - q/2 shift of
    the asymmetric conformal structure."""
    n = len(charges)
    form = _as_form(F, n)
    points = points if points is not None else sample_insertions(n)
    qs = [to_complex(q) for q in charges]
    hs = [to_complex(h) for h in weights]
    shifted = [hs[i] - qs[i] / 2 for i in range(n)]
    reports = {
        name: ResidualReport(name, tolerance=tolerance)
        for name in ("J0", "L-1", "L0", "L1")
    }
    for ws in points:
        wsc = [to_complex(w) for w in ws]
        val = form.value(wsc)
        ders = [form.d(i, wsc) for i in range(n)]
        res = {
            "J0": sum(qs) * val,
            "L-1": sum(ders),
            "L0": sum(wsc[i] * ders[i] for i in range(n)) + sum(shifted) * val,
            "L1": sum(
                wsc[i] ** 2 * ders[i] + 2 * shifted[i] * wsc[i] * val
                for i in range(n)
            ),
        }
        for name, r in res.items():
            reports[name].add({"ws": [str(w) for w in ws]},
                              relative_gap(r, val, *(ders if name != "J0" else ())))
    return reports


def ward_max_residual(F, charges, weights, points=None) -> float:
    reports = ward_residuals(F, charges, weights, points)
    return max(rep.max_abs for rep in reports.values())


# ----------------------------------------------------------------------
# correlator families (closed forms with their constant chains)
# ----------------------------------------------------------------------


class TwoPointFamily:
    """<phi_{j1} phi_{j2}^1> = w12^{j1}; the shift relation keeps the
    constant, 1."""

    ell = 1

    def base(self, charges) -> WardForm:
        q, h = standard_frame_data(*charges, self.ell)
        return WardForm(q, h, BlockSum.constant(1))

    def companion(self, i: int, charges) -> WardForm:
        j1, j2 = charges
        assert i == 1
        return self.base((j1 + 1, j2 - 1))


class ThreePointFamily:
    """The flow-1/2 3-point forms with the displayed constant recursions,
    from the constant 1 at the base charges."""

    def __init__(self, ell: int):
        if ell not in (1, 2):
            raise ChargeError("non-vanishing 3-point functions need ell in {1,2}")
        self.ell = ell

    def _form(self, j1, j2, j3, constant) -> WardForm:
        q, h = standard_frame_data(j1, j2, j3, self.ell)
        return WardForm(q, h, BlockSum.constant(constant))

    def base(self, charges) -> WardForm:
        j1, j2, j3 = charges
        return self._form(j1, j2, j3, 1)

    def shifted_constant(self, i: int, charges) -> Scalar:
        j1, j2, j3 = charges
        if self.ell == 1:
            return 1
        name, divisor = ("j1", j1) if i == 1 else ("j2", j2)
        if divisor == 0:
            raise DivisionByZeroCharge(f"the shifted constant divides by {name} = 0")
        if i == 1:
            return (j3 - 1) / j1
        return -(j3 - 1) / j2

    def companion(self, i: int, charges) -> WardForm:
        j1, j2, j3 = charges
        c = self.shifted_constant(i, charges)
        if i == 1:
            return self._form(j1 + 1, j2, j3 - 1, c)
        if i == 2:
            return self._form(j1, j2 + 1, j3 - 1, c)
        raise MissingCompanion(f"no shift index {i} for N=3")


class FourPointL1Family:
    """The flow-1 4-point solution eta^{j3}, with constant 1."""

    ell = 1

    def specialized(self, charges) -> PowerSum:
        return PowerSum.single(1, charges[2])

    def base(self, charges) -> WardForm:
        return unspecialize_block(self.specialized(charges), *charges, 1)

    def companion(self, i: int, charges) -> WardForm:
        j1, j2, j3, j4 = charges
        shifts = {1: (j1 + 1, j2, j3), 2: (j1, j2 + 1, j3), 3: (j1, j2, j3 + 1)}
        if i not in shifts:
            raise MissingCompanion(f"no shift index {i} for N=4")
        a, b, c = shifts[i]
        return unspecialize_block(PowerSum.single(1, c), a, b, c, j4 - 1, 1)


def kz_residual_m2(family, charges, points=None,
                   tolerance: float = DEFAULT_TOLERANCES["kz-m2"]) -> ResidualReport:
    """Residual of the charge-shift identity

        [d_N + (l-1) sum_i j_i / w_iN] F = -sum_i (j_i / w_iN^{l+1}) F_i,

    with the companions F_i supplied by the family (MissingCompanion when it
    cannot produce one)."""
    ell = family.ell
    n = len(charges)
    base = family.base(charges)
    companions = {i: family.companion(i, charges) for i in range(1, n)}
    points = points if points is not None else sample_insertions(n)
    report = ResidualReport("kz-m2", tolerance=tolerance)
    for ws in points:
        wsc = [to_complex(w) for w in ws]
        lhs = base.d(n - 1, wsc)
        val = base.value(wsc)
        for i in range(1, n):
            lhs += (ell - 1) * to_complex(charges[i - 1]) / (
                wsc[i - 1] - wsc[n - 1]
            ) * val
        rhs = 0j
        for i in range(1, n):
            rhs -= (
                to_complex(charges[i - 1])
                / (wsc[i - 1] - wsc[n - 1]) ** (ell + 1)
                * companions[i].value(wsc)
            )
        report.add({"ws": [str(w) for w in ws]}, relative_gap(lhs - rhs, lhs, rhs, val))
    return report


def kz_residual_m1_l1(family, charges, points=None,
                      tolerance: float = DEFAULT_TOLERANCES["kz-m1"]) -> ResidualReport:
    """Residual of the flow-1 first-order identities
    d_i F = j_i / w_iN^2 * F_i for i = 1..N-1 (w-space)."""
    if family.ell != 1:
        raise ChargeError("the i-th-field first-order identity is flow-1 only")
    n = len(charges)
    base = family.base(charges)
    points = points if points is not None else sample_insertions(n)
    report = ResidualReport("kz-m1", tolerance=tolerance)
    for ws in points:
        wsc = [to_complex(w) for w in ws]
        for i in range(1, n):
            lhs = base.d(i - 1, wsc)
            comp = family.companion(i, charges)
            rhs = (
                to_complex(charges[i - 1])
                / (wsc[i - 1] - wsc[n - 1]) ** 2
                * comp.value(wsc)
            )
            report.add({"ws": [str(w) for w in ws], "i": i}, relative_gap(lhs - rhs, lhs, rhs))
    return report


# ----------------------------------------------------------------------
# specialized flow-1 identities on blocks G(eta)
# ----------------------------------------------------------------------


def _eta_sweep(label: str, tolerance: float, lhs, rhs) -> ResidualReport:
    """The residual report of lhs(eta) = rhs(eta) over DEFAULT_ETA_POINTS."""
    report = ResidualReport(label, tolerance=tolerance)
    for eta in DEFAULT_ETA_POINTS:
        left, right = lhs(eta), rhs(eta)
        report.add({"eta": str(eta)}, relative_gap(left - right, left, right))
    return report


def kz_specialized_m1_residual(block, block_shifted, j3,
                               tolerance: float = DEFAULT_TOLERANCES["kz-m1"]
                               ) -> ResidualReport:
    """d_eta G_{j3,j4} = (j3/eta^2) G_{j3+1,j4-1} in the frame (oo,1,eta,0)."""
    shifted = as_blocksum(block_shifted)
    return _eta_sweep(
        "kz-m1-specialized", tolerance, as_blocksum(block).deriv().value,
        lambda eta: to_complex(j3) / to_complex(eta) ** 2 * shifted.value(eta))


def kz_specialized_j0_residual(block, block_shifted,
                               tolerance: float = DEFAULT_TOLERANCES["kz-j0"]
                               ) -> ResidualReport:
    """G_{j3,j4} = (1/eta) G_{j3+1,j4-1}: the algebraic identity at flow 1."""
    shifted = as_blocksum(block_shifted)
    return _eta_sweep("kz-j0-specialized", tolerance, as_blocksum(block).value,
                      lambda eta: shifted.value(eta) / to_complex(eta))


def kz_decoupled_residual(block, j3,
                          tolerance: float = DEFAULT_TOLERANCES["kz-decoupled"]
                          ) -> ResidualReport:
    """d_eta G = (j3/eta) G: the first-order identity after eliminating the
    shifted block with the algebraic identity."""
    g = as_blocksum(block)
    return _eta_sweep("kz-l1-decoupled", tolerance, g.deriv().value,
                      lambda eta: to_complex(j3) / to_complex(eta) * g.value(eta))


# ----------------------------------------------------------------------
# BPZ residuals
# ----------------------------------------------------------------------


def bpz_apply(F, i: int, charges, weights, ws) -> complex:
    """[d_i^2 + sum_k q_k/w_ik d_i - (1/2) sum_k (d_k / w_ik + h_k / w_ik^2)] F."""
    n = len(charges)
    form = _as_form(F, n)
    wsc = [to_complex(w) for w in ws]
    out = form.d2(i, wsc)
    val = form.value(wsc)
    di = form.d(i, wsc)
    for k in range(n):
        if k == i:
            continue
        wik = wsc[i] - wsc[k]
        out += to_complex(charges[k]) / wik * di
        out -= 0.5 * (form.d(k, wsc) / wik + to_complex(weights[k]) * val / wik**2)
    return out


def bpz_residual(F, i: int, charges, weights, points=None, rhs=None,
                 tolerance: float = DEFAULT_TOLERANCES["bpz"],
                 label: str = "bpz") -> ResidualReport:
    """Residual of the second-order constraint at the charge-1/2 insertion i
    (0-based); rhs, when given, is the explicit right side (ws -> value)."""
    q_i = charges[i]
    if not charge_conserved(q_i - HALF):
        raise ChargeError(f"the probe insertion must carry charge 1/2, got {q_i}")
    n = len(charges)
    points = points if points is not None else sample_insertions(n)
    report = ResidualReport(label, tolerance=tolerance)
    form = _as_form(F, n)
    for ws in points:
        wsc = [to_complex(w) for w in ws]
        lhs = bpz_apply(F, i, charges, weights, wsc)
        want = rhs(wsc) if rhs is not None else 0j
        report.add({"ws": [str(w) for w in ws]}, relative_gap(lhs - want, form.value(wsc), want))
    return report


def threept_bpz_rhs(j2, ell: int):
    """The explicit right side of the 3-point second-order constraint with
    the probe at the first insertion; vanishes for ell in {1, 2}."""
    j2c = to_complex(j2)

    def rhs(ws) -> complex:
        w12 = ws[0] - ws[1]
        w13 = ws[0] - ws[2]
        w23 = ws[1] - ws[2]
        pref = (
            (ell - 1)
            * (ell - 2)
            * (j2c - ell / 2.0)
            * (j2c - (ell - 1) / 2.0)
        )
        return (
            pref
            * cpow(w12, -j2c * (ell - 1) + (ell**2 - 2 * ell - 3) / 2.0)
            * cpow(w13, j2c * (ell - 1) - (ell**2 - 2 * ell + 4) / 2.0)
            * cpow(w23, j2c * ell - (ell**2 - 2 * ell - 3) / 2.0)
        )

    return rhs


# ----------------------------------------------------------------------
# 3-point constraint verdicts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ThreePtVerdict:
    kind: str  # "relations-hold" or "must-vanish"
    violating_monomial: Optional[Tuple[int, int]] = None


def threept_constraint_check(j1, j2, j3, ell: int) -> ThreePtVerdict:
    """Expand the polynomial identity behind the 3-point charge-shift
    constraint.  For flows 1 and 2 the displayed constant recursions solve
    it exactly; for ell >= 3 an unmatched cross monomial w13^a w23^b, when
    one is left, forces every constant to vanish."""
    j1f, j2f, j3f = map(as_fraction, (j1, j2, j3))
    if j1f + j2f + j3f != ell:
        raise ChargeError("charges must satisfy j1 + j2 + j3 = ell")
    h3 = GhostPrimary(j3f, ell).weight
    fam_a = j1f + j2f * (ell - 1) + h3
    fam_b = j1f * (ell - 1) + j2f + h3
    # LHS = C (w13 - w23)^{ell-1} (fam_a w13 + fam_b w23): coefficients of
    # w13^{ell-a} w23^{a}
    coeffs = {}
    binom = 1
    for t in range(ell):  # (w13 - w23)^(ell-1) term t
        c = Fraction(binom) * (-1) ** t
        coeffs[(ell - t, t)] = coeffs.get((ell - t, t), Fraction(0)) + c * fam_a
        coeffs[(ell - t - 1, t + 1)] = (
            coeffs.get((ell - t - 1, t + 1), Fraction(0)) + c * fam_b
        )
        binom = binom * (ell - 1 - t) // (t + 1)
    cross = {
        key: val for key, val in coeffs.items() if key[0] >= 1 and key[1] >= 1 and val != 0
    }
    if cross:
        return ThreePtVerdict("must-vanish", sorted(cross)[0])
    # pure monomials fix the companion constants:
    #   -j2 C(j1, j2+1, j3-1) = coeffs[(ell, 0)] C
    #   -j1 C(j1+1, j2, j3-1) = coeffs[(0, ell)] C
    # (for ell >= 3 no cross monomial means fam_a = fam_b = 0, so every
    # coefficient vanishes and the companion constants are zero)
    return ThreePtVerdict("relations-hold")


# ----------------------------------------------------------------------
# the charge-shift recursion
# ----------------------------------------------------------------------

Block = Union[PowerSum, BlockSum]


def _charge_shift_ops(charges, ell: int, k: int):
    """The k steps, charges (j3 + t, j4 - t) at step t, as ``dfinite``
    operators over their w: eta^l [-(l-1) - (a_t + j2) eta / (j3+t)
    + (1-eta) theta / (j3+t)] (the module docstring, theta = eta d/deta), with
    a_t = h4l(j4 - t) + j1 + (l-1) j2, on the binary value of a float charge."""
    j1, j2, j3, j4 = map(Fraction, charges)
    if j3.denominator == 1 and -k < j3 <= 0:
        raise DivisionByZeroCharge("the shifted charge j3 must be non-zero")
    lead = GhostPrimary(j4, ell).weight + j1 + ell * j2  # a_0 + j2 = an / ad, and w = ad
    jn, jd, an, ad = j3.numerator, j3.denominator, lead.numerator, lead.denominator
    return [(ell, 0, (1 - ell) * (jn + t * jd) * ad, (ell * t * ad - an) * jd, jd, jn + t * jd)
            for t in range(k)], ad


def _payload_blocksum(stepped, u, params) -> BlockSum:
    """Stepped classes A u + B u' as a BlockSum in u and u' = (ab/c) 2F1(a+1,
    b+1; c+1; eta), with the split ``BlockSum._payload_classes`` would make."""
    lift, du, terms, split = params[0] * params[1] / params[2], tuple(x + 1 for x in u), {}, {}
    for p_frac, q_frac, p0, q0, den, *lists in stepped:
        for pars, coeffs, (sn, sd) in zip((u, du), lists, ((1, 1), lift.as_integer_ratio())):
            # the payload's part of the class, reduced as classes() reduces it
            part = dfinite.reduced((p_frac, q_frac, p0, q0, den * sd, [x * sn for x in coeffs], None))
            if part:
                split.setdefault(("2f1", pars, tuple(map(type, pars))), []).append(part)
                terms.update(((p_frac + (part[2] + i), q_frac + q0, "2f1", pars),
                              Fraction(x, part[4])) for i, x in enumerate(part[5]) if x)
    out = BlockSum(terms)
    out._plan = list(split.items()) if len(terms) > 1 else None
    return out


def recursion_step(block: Block, charges, ell: int) -> Block:
    """One step (j1, j2, j3, j4) -> (j1, j2, j3+1, j4-1), whose companion is
    the block itself (the module docstring): ``recursion_iterate`` at k = 1."""
    return recursion_iterate(block, charges, ell, 1)


def recursion_iterate(block: Block, charges, ell: int, k: int) -> Block:
    """k steps, charges marching (j3 + t, j4 - t), exact for exact and float
    (real) input alike.  A PowerSum comes back canonical, a BlockSum of powers
    as one, and a BlockSum of one 2F1 payload u as A u + B u'; any other
    payload raises ParamError, a 2F1 on a pole of its lower parameter
    PoleError; k = 0 returns the block.  Float charges that conserve to 1e-12
    (``charge_conserved``) run with j4 = l - j1 - j2 - j3, exactly."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if not k:
        return block
    if not all_exact(*charges) and charge_conserved(sum(charges) - ell):
        j1, j2, j3 = map(Fraction, charges[:3])
        charges = (j1, j2, j3, ell - j1 - j2 - j3)
    powers = block.try_powersum() if isinstance(block, BlockSum) else block
    # a power block is u = 1 with no B; a 2F1 block u starts from B = 0
    if powers is None:
        (kind, u), *rest = payloads = {key[2:] for key in block.terms}
        if kind != "2f1" or rest:
            raise ParamError(f"the recursion takes powers or one 2F1 payload, not {payloads}")
        params = a, b, c = tuple(map(Fraction, u))
        if c <= 0 and c.denominator == 1 and not any(c < x <= 0 and x.denominator == 1
                                                      for x in (a, b)):
            raise PoleError(f"the recursion's payload 2F1({u[0]}, {u[1]}; {u[2]}; eta) sits on "
                            "a pole: 2F1 has one at the lower parameter c = 0 and at each "
                            "negative integer c")
        coeffs, start = {key[:2]: x for key, x in block.terms.items()}, []
    else:
        coeffs, u, params, start = powers.terms, None, (0, 0, 0), None
    exact = PowerSum({tuple(map(Fraction, key)): Fraction(x) for key, x in coeffs.items()})
    ops, w = _charge_shift_ops(charges, ell, k)
    stepped = [out for cls in exact.classes()
               if (out := dfinite.reduced(dfinite.apply((*cls[:6], start), params, ops, w)))]
    if u is not None:
        return _payload_blocksum(stepped, u, params)
    out = PowerSum.from_classes(stepped)
    return out if powers is block else out.to_blocksum()
