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
from .correlators import recursed_l2_terms
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


def _finite_sum(terms, eta) -> complex:
    """sum weight * 2F1(a, b; c; eta) over the (weight, (a, b, c)) terms."""
    total = 0j
    for weight, params in terms:
        total += weight * specfun.hyp2f1(*params, eta)
    return total


def blocksum_first(k: int, j1, j2, j4, eta) -> Tuple[complex, complex]:
    """LHS/RHS of the first flow-2 block-sum form."""
    j1c, j4c = to_complex(j1), to_complex(j4)
    etac = to_complex(eta)
    lhs = _finite_sum(recursed_l2_terms(k, j1, j2, j4)[0], etac)
    w = -etac / (1 - etac)
    rhs = cpow(1 - etac, j1c - 1) * specfun.hyp3f2(
        j4c, -j1c + 1, k + 0.5, j4c + 0.5, 0.5, w
    )
    return lhs, rhs


def blocksum_second(k: int, j1, j2, j4, eta) -> Tuple[complex, complex]:
    """LHS/RHS of the second flow-2 block-sum form (with the
    (-j4+1)_k/(1/2)_k prefactor on the closed side)."""
    j2c, j4c = to_complex(j2), to_complex(j4)
    etac = to_complex(eta)
    lhs = _finite_sum(recursed_l2_terms(k, j1, j2, j4)[1], etac)
    w = -etac / (1 - etac)
    pref = specfun.pochhammer(-j4c + 1, k) / specfun.pochhammer(0.5, k)
    rhs = pref * cpow(1 - etac, -j2c) * specfun.hyp3f2(
        0.5, j2c, -j4c + k + 1, -j4c + 1.5, -j4c + 1, w
    )
    return lhs, rhs


def blocksum_check_l2(k: int, j1, j2, j4, eta, tolerance: float = 1e-9
                      ) -> BlockSumVerdict:
    """Verify both displayed flow-2 block-sum equalities."""
    l1, r1 = blocksum_first(k, j1, j2, j4, eta)
    l2, r2 = blocksum_second(k, j1, j2, j4, eta)
    return BlockSumVerdict(relative_gap(l1 - r1, l1, r1), relative_gap(l2 - r2, l2, r2),
                           tolerance)
