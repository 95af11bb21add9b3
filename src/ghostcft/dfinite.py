"""Exact first-order operators on span{u, u'}, u a solution of
x (1-x) u'' = (s x - r) u' + m u, the equation of 2F1(a, b; c; x) with
m = ab, s = a + b + 1, r = c (D-finite closure; Stanley, Europ. J. Combin.
1 (1980)).  An element is a class tuple (p_frac, q_frac, p0, q0, den, A, B)
of ``PowerSum.classes()``, x^P (1-x)^Q (A(x) u + B(x) u') / den with
P = p_frac + p0, Q = q_frac + q0, A and B int lists (lowest degree first)
and den > 0; a power block is u = 1 with B None.  theta = x d/dx takes it to
x^P (1-x)^(Q-1) (U u + V u') / den,

    U = (1-x) (P A + theta A) - Q x A + m B,
    V = (1-x) (P B + theta B + x A) - Q x B + (s x - r) B.

An operator is an int tuple (h, n, c0, c1, d, g), g != 0, with c0 and c1 over
an int w > 0 shared by a run: x^h (1-x)^n [(c0 + c1 x) / w + d (1-x) theta] / g
gives x^(P+h) (1-x)^(Q+n) (A' u + B' u') / (g den) with
A' = (c0 + c1 x) A / w + d U and B' = (c0 + c1 x) B / w + d V.
"""
from __future__ import annotations

from math import gcd, lcm


def reduced(element):
    """The element as ``PowerSum.classes()`` gives a class (den > 0, no zero
    end coefficient in A or B, no leading zero in both, gcd(den, *A, *B) = 1),
    or None when it is zero."""
    p_frac, q_frac, p0, q0, den, a, b = element
    lists = [a] if b is None else [a, b]
    ends = [[i for i, x in enumerate(nums) if x] for nums in lists]
    if not any(ends):
        return None
    lo = min(nonzero[0] for nonzero in ends if nonzero)
    lists = [nums[lo:nonzero[-1] + 1] if nonzero else [] for nums, nonzero in zip(lists, ends)]
    g = gcd(den, *lists[0], *lists[-1]) * (-1 if den < 0 else 1)
    a, *b = [[x // g for x in nums] for nums in lists]
    return (p_frac, q_frac, p0 + lo, q0, den // g, a, b[0] if b else None)


def apply(element, params, ops, w: int):
    """The element after each operator of ``ops`` in turn, not ``reduced``
    (den has the sign of the product of the gs), for u with params =
    (a, b, c), exact or the binary values of floats ((0, 0, 0) for u = 1).
    A step is a banded recurrence on ints in units of 1/L, L the denominator
    of P, Q, a, b, c and w, fixed for the run; B steps as the coefficient of
    den(a) u', so that L need not hold den(ab)."""
    p_frac, q_frac, p0, q0, den, a, b = element
    (pfn, pfd), (qfn, qfd), (an, ad), (bn, bd), (cn, cd) = [
        x.as_integer_ratio() for x in (p_frac, q_frac, *params)]
    big_l = lcm(pfd, qfd, ad, bd, cd, w)
    pf, qf = pfn * (big_l // pfd), qfn * (big_l // qfd)
    # L / den(a), L / w, L m den(a), L s and L r
    nu, scale = big_l // ad, big_l // w
    mn, sn, rn = an * bn * (big_l // bd), an * nu + bn * (big_l // bd) + big_l, cn * (big_l // cd)
    if b is not None:
        den, a = den * ad, [x * ad for x in a]
    for h, n, c0, c1, d, g in ops:
        # A'_i = (x0 + i dL) a_i + (y0 - i dL) a_(i-1) + L d m den(a) b_i, B' alike
        pn, dl, den = pf + p0 * big_l, d * big_l, den * (big_l * g)
        x0, y0 = c0 * scale + d * pn, c1 * scale - d * (pn + qf + (q0 - 1) * big_l)
        if b is None:
            a = [(x0 + i * dl) * c + (y0 - i * dl) * prev
                 for i, (c, prev) in enumerate(zip(a + [0], [0] + a))]
            while a and not a[-1]:  # a zero top coefficient
                a.pop()
        else:
            # zero-padded to the length of B', so that a[-2], a[-1] and b[-1] read 0
            top = max(len(a) + 2, len(b) + 1)
            ap, bp = a + [0] * (top - len(a)), b + [0] * (top - len(b))
            dm, dv, xb, yb = d * mn, d * nu, x0 - d * rn, y0 + d * sn
            a, b = ([(x0 + i * dl) * ap[i] + (y0 - i * dl) * ap[i - 1] + dm * bp[i]
                     for i in range(top - 1)],
                    [(xb + i * dl) * bp[i] + (yb - i * dl) * bp[i - 1]
                     + dv * (ap[i - 1] - ap[i - 2]) for i in range(top)])
        p0, q0 = p0 + h, q0 + n
    return (p_frac, q_frac, p0, q0, den, a, b if b is None else [x * ad for x in b])
