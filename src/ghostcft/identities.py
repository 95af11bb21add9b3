"""The finite hypergeometric sums behind the flow-2 blocks and the closed
form that turns them into a single generalized hypergeometric value.

The core identity:

    sum_{m=0}^k C(k,m) (alpha)_{k-m} (c-a)_m 2F1(a-m, b; c; eta)
      = (alpha-a+c)_k (1-eta)^(-b)
        3F2(c-a, b, alpha-a+c+k; c, alpha-a+c; -eta/(1-eta)),

verified by evaluating both sides: the left sums k+1 contiguous 2F1s at
eta, the right applies the exact operator prod_{t<k} (beta+t+theta) to one
2F1 at -eta/(1-eta) and its derivative.  The block sums set alpha = 1-c or c-1.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Tuple

from . import specfun
from .correlators import HALF
from .errors import ParamError
from .scalars import Scalar, cpow, relative_gap, to_complex


@dataclass(frozen=True)
class IdentityCase:
    """One instance of the summation identity."""

    k: int
    alpha: Scalar
    a: Scalar
    b: Scalar
    c: Scalar
    eta: Scalar

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be a non-negative integer")


def appb_lhs(case: IdentityCase) -> complex:
    """Finite sum of parameter-shifted Gauss functions."""
    al, a, b, c = map(to_complex, (case.alpha, case.a, case.b, case.c))
    total = 0j
    for m in range(case.k + 1):
        total += (
            math.comb(case.k, m)
            * specfun.pochhammer(al, case.k - m)
            * specfun.pochhammer(c - a, m)
            * specfun.hyp2f1(a - m, b, c, case.eta)
        )
    return total


def appb_rhs(case: IdentityCase) -> complex:
    """(alpha-a+c)_k (1-eta)^(-b) 3F2(...; -eta/(1-eta))."""
    al, a, b, c = map(to_complex, (case.alpha, case.a, case.b, case.c))
    beta = al - a + c
    etac = to_complex(case.eta)
    w = -etac / (1 - etac)
    pref = specfun.pochhammer(beta, case.k) * cpow(1 - etac, -b)
    return pref * specfun.hyp3f2(c - a, b, beta + case.k, c, beta, w)


def identity_gap(case: IdentityCase) -> float:
    """The gap between the two sides; ParamError when a side overflows a
    double (the Pochhammer symbols do from k of about 276)."""
    lhs, rhs = appb_lhs(case), appb_rhs(case)
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        raise ParamError(f"identity at k = {case.k}: a side is not finite in double precision")
    return relative_gap(lhs - rhs, lhs, rhs)


@dataclass(frozen=True)
class BlockSumVerdict:
    first_gap: float
    second_gap: float
    tolerance: float

    @property
    def passes(self) -> bool:
        return max(self.first_gap, self.second_gap) <= self.tolerance


def blocksum_cases(k: int, j1, j2, j4, eta) -> Tuple[IdentityCase, IdentityCase]:
    """The two flow-2 block-sum forms as instances of the identity:
    (alpha, a, b, c) = (1/2-j4, 1/2, 1-j1, j4+1/2), at alpha = 1-c, and
    (1/2-j4, 1-j4, j2, 3/2-j4), at alpha = c-1.  Exact charges give exact
    parameters."""
    return (IdentityCase(k, HALF - j4, HALF, 1 - j1, j4 + HALF, eta),
            IdentityCase(k, HALF - j4, 1 - j4, j2, 1 + HALF - j4, eta))


def blocksum_check_l2(k: int, j1, j2, j4, eta, tolerance: float = 1e-9
                      ) -> BlockSumVerdict:
    """Verify both displayed flow-2 block-sum equalities, each side divided
    by (1/2)_k as the displayed forms are."""
    norm = specfun.pochhammer(0.5, k)
    gaps = []
    for case in blocksum_cases(k, j1, j2, j4, eta):
        lhs, rhs = appb_lhs(case) / norm, appb_rhs(case) / norm
        gaps.append(relative_gap(lhs - rhs, lhs, rhs))
    return BlockSumVerdict(*gaps, tolerance)
