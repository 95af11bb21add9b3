"""Output checks for every job, run outside the timed region.

Each job's outcome is one of

* ``ok``    - the value is within tolerance of its oracle, or the check holds;
* ``fail``  - the job raised (counted in ``fail_frac``);
* ``wrong`` - the value is outside tolerance (counted in ``wrong_frac``).

An outcome is *unexpected* (``Outcome.bad``) when it is not one of the
defects the seed code is known to have (``KNOWN_RAISES``, ``KNOWN_MISSES``):
a raise of another class or in another job kind than listed, a miss in a
kind with no known miss or past its kind's envelope, an exact check that
fails, or a CLI command that exits with another code than its report
explains.  Unexpected outcomes are the benchmark's ``failed`` count and make
``correct`` false.

Oracles: mpmath (30 digits) for the special functions and every closed-form
block; exact ``PowerSum`` equality with the closed forms for the exact
recursion; the general-charge closed forms for the numeric recursion; a
derivation-rule expansion and charge/weight selection rules for the
mode-algebra actions.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import NamedTuple, Optional

import mpmath as mp

from ghostcft import blocks as bl
from ghostcft import correlators as co
from ghostcft import modealg as ma
from ghostcft.errors import ConvergenceError
from workloads import HYP2F1_REGIONS, Raised

mp.mp.dps = 30

TOL = 1e-10       # relative tolerance for every floating-point value
GAP_TOL = 1e-9    # the summation identity, at the CLI's default tolerance

# The defects the seed code is known to have, per job kind; NOTES.md has the
# survey they come from.  A raise is a known defect only for the exception
# classes listed for its kind, and a value outside tolerance only for the
# kinds in KNOWN_MISSES, up to the kind's envelope: the error relative to
# max(|value|, 1), the relative error for the kinds in RELATIVE_ENVELOPE, a
# residual or gap on its own scale.  Every other raise or miss is unexpected.
# - 2F1 raises ConvergenceError for |z| > 1 with Re z >= 0.5 and around
#   e^{+-i pi/3}, where its continuation chain runs out;
# - 2F1 loses digits where a continuation meets a near-integer c - a - b
#   (the error grows like 1/distance to the integer, until DegenerateError
#   takes over at 1e-12); 3F2 inherits it through its collapse onto 2F1, and
#   conj_block_l3 through its regular 2F1 at eta > 0.7 (one miss in 86 800
#   draws: c - a - b = 0.031 on a value of 1.2e-5, so its envelope is on the
#   relative error);
# - log_blocks_l2 evaluates its regular block at j4 + 1e-3;
# - the summation identity's gap inherits the 2F1 tail;
# - the numeric flow-3 recursion at k = 5 drifts from the closed form as its
#   16 807 terms are summed (about 2e-22 absolute on values of 1e-13 to
#   1e-11, so up to 5e-10 relative); its envelope is on the relative error,
#   the scale of 1 being far above its values.
KNOWN_RAISES = {
    "hyp2f1.outside": (ConvergenceError,),
    "hyp2f1.sixth-root": (ConvergenceError,),
}
KNOWN_MISSES = {
    "hyp2f1.pfaff": 1e-3, "hyp2f1.outside": 1e-3, "hyp2f1.sixth-root": 1e-3,
    "hyp2f1.terminating": 1e-3, "hyp3f2": 1e-3,
    "conj_block_l3": 1e-6, "log_blocks_l2": 1e-2,
    "identity_gap": 1.0, "cli.identity-check": 1.0,
    "recursion_numeric_deep": 1e-6,
}
RELATIVE_ENVELOPE = {"conj_block_l3", "recursion_numeric_deep"}


def _known_miss(kind: str, err: float) -> bool:
    return err <= KNOWN_MISSES.get(kind, -1.0)


class Outcome(NamedTuple):
    status: str           # "ok", "fail" or "wrong"
    bad: bool             # not a known defect of the seed code
    err: Optional[float]  # relative error against a numeric oracle


OK = Outcome("ok", False, None)


def _mp(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    if isinstance(x, complex):
        return mp.mpc(x.real, x.imag)
    if isinstance(x, mp.mpc):
        return x
    return mp.mpf(x)


def _errors(got, want):
    """(relative error, error relative to max(|want|, 1)) of got."""
    got = mp.mpc(_mp(got))
    want = mp.mpc(want)
    diff = abs(got - want)
    rel = diff / abs(want) if want != 0 else diff
    return float(rel), float(diff / max(abs(want), 1))


def _compare(kind: str, pairs) -> Outcome:
    """Wrong past TOL in relative error; a known miss within the kind's
    envelope in error relative to max(|value|, 1) (in relative error for the
    kinds in RELATIVE_ENVELOPE), so that a value near a zero, where double
    precision cannot hold relative accuracy, is measured on the scale of 1."""
    errs = [_errors(g, w) for g, w in pairs]
    rel = max(r for r, _m in errs)
    mixed = max(m for _r, m in errs)
    if not math.isfinite(rel):
        return Outcome("wrong", True, rel)
    if rel <= TOL:
        return Outcome("ok", False, rel)
    measure = rel if kind in RELATIVE_ENVELOPE else mixed
    return Outcome("wrong", not _known_miss(kind, measure), rel)


def _holds(ok: bool) -> Outcome:
    return OK if ok else Outcome("wrong", True, None)


def _residual(kind: str, value: float, tolerance: float) -> Outcome:
    """A scaled residual or gap: ok within tolerance, else a miss, known up
    to the kind's envelope."""
    if value <= tolerance:
        return Outcome("ok", False, value)
    return Outcome("wrong", not _known_miss(kind, value), value)


def check(job, result) -> Outcome:
    if isinstance(result, Raised):
        known = type(result.exc) in KNOWN_RAISES.get(job.kind, ())
        return Outcome("fail", not known, None)
    return CHECKS[job.kind](job.args, result)


CHECKS = {}


def checker(*kinds):
    def register(fn):
        for kind in kinds:
            CHECKS[kind] = fn
        return fn
    return register


# ----------------------------------------------------------------------
# mpmath closed forms
# ----------------------------------------------------------------------

# An exact zero (a terminating series that cancels) has no relative
# accuracy to converge to; past 2^-ZEROPREC mpmath returns 0 instead.
ZEROPREC = 300


def f21(a, b, c, z):
    if all(isinstance(x, Fraction) for x in (a, b, c, z)) and a <= 0 and a.denominator == 1:
        return _terminating_exact(a, b, c, z)
    return mp.hyp2f1(_mp(a), _mp(b), _mp(c), _mp(z), zeroprec=ZEROPREC)


def _terminating_exact(a, b, c, z):
    """2F1(-m, b; c; z) as the exact finite sum, for exact inputs."""
    total = term = Fraction(1)
    for n in range(int(-a)):
        term = term * (a + n) * (b + n) * z / ((c + n) * (n + 1))
        total += term
    return _mp(total)


def f32(a1, a2, a3, b1, b2, z):
    return mp.hyp3f2(*map(_mp, (a1, a2, a3, b1, b2, z)), zeroprec=ZEROPREC)


def binc(a, b, z):
    """B(a, b; z) = z^a / a * 2F1(a, 1-b; a+1; z)."""
    a, b, z = _mp(a), _mp(b), _mp(z)
    return mp.power(z, a) / a * f21(a, 1 - b, a + 1, z)


def blocks_l2(j1, j2, j4, eta):
    j1, j2, j4, eta = map(_mp, (j1, j2, j4, eta))
    return (eta * f21(1 - j1, 0.5, j4 + 0.5, eta),
            mp.power(eta, 1.5 - j4) * f21(j2, 1 - j4, 1.5 - j4, eta))


def monodromy_ratio(j1, j2, j4):
    j1, j2, j4 = map(_mp, (j1, j2, j4))
    return -(mp.beta(j1, j2) * mp.beta(0.5, 1 - j4)) / (mp.beta(1 - j1, 1 - j2) * mp.beta(0.5, j4))


def _hyp2f1_checker(kind):
    def check_hyp2f1(a, got):
        return _compare(kind, [(got, f21(*a))])
    return check_hyp2f1


for _region in HYP2F1_REGIONS:
    CHECKS[f"hyp2f1.{_region}"] = _hyp2f1_checker(f"hyp2f1.{_region}")


@checker("hyp3f2")
def _(a, got):
    return _compare("hyp3f2", [(got, f32(*a))])


@checker("beta_incomplete")
def _(a, got):
    return _compare("beta_incomplete", [(got, binc(*a))])


@checker("blocks_l2")
def _(a, got):
    return _compare("blocks_l2", zip(got, blocks_l2(*a)))


@checker("blocks_l3")
def _(a, got):
    j1, j2, j4, eta = a
    e = _mp(eta)
    power = mp.power(e, 2 - _mp(j4)) * mp.power(1 - e, 0.5 - _mp(j2))
    return _compare("blocks_l3", zip(got, (power, power * binc(_mp(j4) - 0.5, _mp(j2) - 0.5, e))))


@checker("conj_blocks_l2")
def _(a, got):
    j1, j2, j3, j4, eta = map(_mp, a)
    w = -eta / (1 - eta)
    b1 = (mp.power(eta, 2 * j3) * mp.power(1 - eta, j1 - 1)
          * f32(j3 + j4 - 0.5, 1 - j1, j3, j3 + j4, 0.5, w))
    pref = mp.beta(0.5, 1 - j4) / mp.beta(j3, 1.5 - j3 - j4)
    b2 = (pref * mp.power(eta, j3 - j4 + 1) * mp.power(1 - eta, -j2)
          * f32(0.5, j2, 1 - j4, j1 + j2, j1 + j2 - 0.5, w))
    return _compare("conj_blocks_l2", zip(got, (b1, b2)))


def conj_block_l3(j1, j2, j3, j4, eta):
    j1, j2, j3, j4, eta = map(_mp, (j1, j2, j3, j4, eta))
    c_low = 1.5 - j3 - j4
    pref = mp.beta(0.5, 1 - j4) * mp.gamma(1.5 - j4) * mp.rgamma(j3)
    reg = f21(1.5 - j1, 0.5 - j3, c_low, eta) * mp.rgamma(c_low)
    return pref * mp.power(eta, 2 * j3 - j4 + 1) * mp.power(1 - eta, 0.5 - j2) * reg


@checker("conj_block_l3")
def _(a, got):
    return _compare("conj_block_l3", [(got, conj_block_l3(*a))])


@checker("log_blocks_l2")
def _(a, got):
    # only the regular block has an oracle; the log partner must be finite
    regular, partner = got
    if not (math.isfinite(partner.real) and math.isfinite(partner.imag)):
        return Outcome("wrong", True, None)
    return _compare("log_blocks_l2", [(regular, blocks_l2(*a)[0])])


@checker("bulk_l2")
def _(a, got):
    j1, j2, j4, eta, alpha11 = a
    b1, b2 = blocks_l2(j1, j2, j4, eta)
    want = _mp(alpha11) * (abs(b1) ** 2 + monodromy_ratio(j1, j2, j4) * abs(b2) ** 2)
    return _compare("bulk_l2", [(got, want)])


@checker("monodromy_ratio_l2")
def _(a, got):
    return _compare("monodromy_ratio_l2", [(got, monodromy_ratio(*a))])


@checker("identity_gap")
def _(a, got):
    return _residual("identity_gap", got, GAP_TOL)


def _reports(kind, reports) -> Outcome:
    """Residual reports at their own tolerances; the worst one decides."""
    return max((_residual(kind, rep.max_abs, rep.tolerance) for rep in reports),
               key=lambda o: (o.bad, o.status != "ok"))


@checker("ward_residuals")
def _(a, got):
    return _reports("ward_residuals", got.values())


@checker("kz_residual_m2", "kz_residual_m1_l1", "bpz_residual")
def _(a, got):
    return _reports("residual", [got])


# ----------------------------------------------------------------------
# charge-shift recursion
# ----------------------------------------------------------------------

def _exact_target(block, charges, ell, k):
    j1, j2, j3, j4 = charges
    if ell == 1:
        return bl.PowerSum.single(Fraction(1), j3 + k)
    return co.conj_block_l3_powersum(j1, j2, j3 + k, j4 - k)


@checker("recursion_exact")
def _(a, got):
    return _holds(got.terms == _exact_target(*a).canonical().terms)


def _recursion_numeric_checker(kind):
    def check_recursion(a, got):
        _block, (j1, j2, j3, j4), ell, k, etas, which = a
        if ell == 2:
            want = [co.conj_blocks_l2(j1, j2, j3 + k, j4 - k, eta)[which] for eta in etas]
        else:
            want = [co.conj_block_l3(j1, j2, j3 + k, j4 - k, eta) for eta in etas]
        return _compare(kind, zip(got, (_mp(w) for w in want)))
    return check_recursion


for _kind in ("recursion_numeric", "recursion_numeric_deep"):
    CHECKS[_kind] = _recursion_numeric_checker(_kind)


# ----------------------------------------------------------------------
# the README commands
# ----------------------------------------------------------------------

def _argv_value(argv, flag):
    for i, tok in enumerate(argv):
        if tok == flag:
            return argv[i + 1]
        if tok.startswith(flag + "="):
            return tok[len(flag) + 1:]
    raise KeyError(flag)


@checker("cli.identity-check")
def _(a, got):
    if got.code not in (0, 1):
        return Outcome("wrong", True, None)
    rows = json.loads(got.out)["rows"]
    gap = max(max(row.get("gap", 0.0), row.get("gap1", 0.0), row.get("gap2", 0.0))
              for row in rows)
    if got.code == 1 and gap <= GAP_TOL:  # exit 1 must name a miss
        return Outcome("wrong", True, gap)
    return _residual("cli.identity-check", gap, GAP_TOL)


@checker("cli.residual")
def _(a, got):
    if got.code not in (0, 1):
        return Outcome("wrong", True, None)
    payload = json.loads(got.out)
    reports = payload if isinstance(payload, list) else [payload]
    if got.code == 1 and all(rep["pass"] for rep in reports):  # exit 1 must name a miss
        return Outcome("wrong", True, None)
    return max((_residual("cli.residual", rep["max_residual"], rep["tolerance"])
                for rep in reports), key=lambda o: (o.bad, o.status != "ok"))


@checker("cli.eval", "cli.modealg-verify")
def _(a, got):
    if got.code != 0:
        return Outcome("wrong", True, None)
    payload = json.loads(got.out)
    return _holds(payload.get("pass", True) is True)


@checker("cli.scan")
def _(a, got):
    (argv,) = a
    if got.code != 0:
        return Outcome("wrong", True, None)
    rows = list(csv.reader(io.StringIO(got.out)))
    count = int(_argv_value(argv, "--eta-grid").split(",")[2])
    values = [float(x) for row in rows[1:] for x in row]
    return _holds(len(rows) == count + 1 and all(map(math.isfinite, values)))


@checker("cli.recurse")
def _(a, got):
    (argv,) = a
    if got.code != 0:
        return Outcome("wrong", True, None)
    payload = json.loads(got.out)
    j1, j2, j3, j4 = (Fraction(c) for c in _argv_value(argv, "--charges").split(","))
    k = int(_argv_value(argv, "--k"))
    want = co.conj_block_l3_powersum(j1, j2, j3 + k, j4 - k).canonical().to_text()
    return _holds(payload["exact"] is True and payload["block"] == want)


# ----------------------------------------------------------------------
# mode algebra
# ----------------------------------------------------------------------

def _grades(state):
    """{(J0 charge, L0 weight)} over the terms of a state."""
    j, ell = state.j, state.ell
    out = set()
    for (mono, shift) in state.terms:
        charge = j + shift - ell + sum(1 if fam == "b" else -1 for fam, _n in mono)
        weight = (j + shift) * ell - Fraction(ell * (ell + 1), 2) - sum(n for _f, n in mono)
        out.add((charge, weight))
    return out


def _selection_ok(state, n, result) -> bool:
    """A mode of index n keeps the charge and lowers the L0 weight by n."""
    ((charge, weight),) = _grades(state)
    return _grades(result) <= {(charge, weight - n)}


def _bracket(kind, n, fam, k):
    """[X_n, x_k] for X = J or L and a ghost mode x_k: (coefficient, mode)."""
    if kind == "act_current":
        return (1, ("b", n + k)) if fam == "b" else (-1, ("g", n + k))
    return (-k, ("b", n + k)) if fam == "b" else (-(n + k), ("g", n + k))


def derivation_oracle(kind, state, n):
    """X_n on a monomial through the derivation rule
    X_n x_1..x_r phi = sum_i x_1..[X_n, x_i]..x_r phi + x_1..x_r X_n phi,
    with the package's action used only on the bare primary."""
    act = getattr(ma, kind)
    total = state._like({})
    for (mono, shift), coeff in state.terms.items():
        prim = ma.GhostState(state.j, state.ell, {((), shift): Fraction(1)})
        piece = ma.apply_word(act(prim, n), mono)
        for i, (fam, k) in enumerate(mono):
            c, y = _bracket(kind, n, fam, k)
            if c:
                piece = piece + ma.apply_word(prim, mono[:i] + (y,) + mono[i + 1:]).scale(c)
        total = total + piece.scale(coeff)
    return total


def _derivation_checker(kind):
    def check_action(a, got):
        state, n = a
        return _holds(_selection_ok(state, n, got) and got == derivation_oracle(kind, state, n))
    return check_action


CHECKS["act_current"] = _derivation_checker("act_current")
CHECKS["act_virasoro"] = _derivation_checker("act_virasoro")


@checker("act_singlet", "act_current_squared")
def _(a, got):
    state, n = a
    return _holds(_selection_ok(state, n, got))


@checker("localized_twist")
def _(a, got):
    e, k = a
    return _holds(ma.localized_twist(got, -k) == e)


@checker("chi_null_check")
def _(a, got):
    return _holds(got.ok)


@checker("check_virasoro_c2", "check_virasoro_cm2", "check_jj_commutators",
         "check_lj_commutators", "check_singlet_commutes_with_current")
def _(a, got):
    return _holds(got is True)


# ----------------------------------------------------------------------
# bit-identity between runs
# ----------------------------------------------------------------------

def fingerprint(result) -> str:
    """A string that changes whenever any digit of the result does."""
    if isinstance(result, Raised):
        return f"!{type(result.exc).__name__}: {result.exc}"
    if isinstance(result, (ma.GhostState, bl.PowerSum)):
        return result.to_text()
    if isinstance(result, dict):
        return "{" + ", ".join(f"{k}: {fingerprint(v)}" for k, v in result.items()) + "}"
    if isinstance(result, tuple) and not hasattr(result, "_fields"):
        return "(" + ", ".join(fingerprint(v) for v in result) + ")"
    if hasattr(result, "to_json"):
        return result.to_json()
    return repr(result)
