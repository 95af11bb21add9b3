"""Seeded job streams for the three benchmark workloads.

A job is one call into a public entry point of ghostcft (or one README
command run in-process through ``cli.main``).  Each workload is a fixed
*round* of job slots; the seed only draws the values inside a slot (charges,
states, arguments), never the slot's kind or size, so every seed issues the
same mix of work.  Rounds are generated lazily from ``(seed, workload,
round)``, so the same seed always gives the same inputs.

Runners look package functions up on their modules at call time, so the
tracer's wrappers (installed by replacing module attributes) see every call.
"""
from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
import warnings
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple

from ghostcft import blocks as bl
from ghostcft import cli
from ghostcft import correlators as co
from ghostcft import identities as idn
from ghostcft import kzbpz as kz
from ghostcft import modealg as ma
from ghostcft import specfun as sf

HALF = Fraction(1, 2)

# The general-charge closed forms warn on every call off the probe lattice.
warnings.simplefilter("ignore", co.ConjecturalChargeWarning)


class Job(NamedTuple):
    kind: str
    args: tuple


RUNNERS: Dict[str, Callable[[tuple], object]] = {}


def runner(kind: str):
    def register(fn):
        RUNNERS[kind] = fn
        return fn
    return register


class Raised(NamedTuple):
    """Stands in for a job's result when the job raised."""
    exc: Exception


def run_job(job: Job):
    """The job's result, or Raised when the call raised."""
    try:
        return RUNNERS[job.kind](job.args)
    except Exception as exc:  # a raise is an outcome to check, not a crash
        return Raised(exc)


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def _rng(seed: int, *tags) -> random.Random:
    return random.Random("/".join(str(t) for t in (seed, *tags)))


def _frac(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    """A rational p/den with lo <= p <= hi, never an integer."""
    while True:
        p = rng.randint(lo, hi)
        if p % den:
            return Fraction(p, den)


def _off_integer(rng: random.Random, lo: float, hi: float, gap: float = 0.05) -> float:
    while True:
        x = rng.uniform(lo, hi)
        if abs(x - round(x)) > gap:
            return x


# ======================================================================
# modealg: composite-mode actions and bracket checks (exact Fractions)
# ======================================================================

# Charges j = p/5: one denominator, so that Fraction sizes do not depend on the seed.
_CHARGES = [Fraction(p, 5) for p in range(-4, 10) if p % 5]


class ModealgInputs:
    """Basis states per (j, ell, level), built once per key."""

    def __init__(self):
        self._basis: Dict[tuple, list] = {}

    def basis(self, j, ell: int, level: int) -> list:
        key = (j, ell, level)
        if key not in self._basis:
            self._basis[key] = ma.basis_states(j, ell, max_level=level, max_factors=2)
        return self._basis[key]

    def state(self, rng: random.Random, ell: int, level: int):
        """A basis monomial on phi_j^ell of exactly the given level, with two
        factors (one at level 1), so that its cost does not depend on the seed."""
        j = rng.choice(_CHARGES)
        shape = (level, min(level, 2))
        return rng.choice([s for s in self.basis(j, ell, level) if _shape(s) == shape])


def _shape(state):
    """(level, number of factors) of a basis monomial."""
    ((mono, _k),) = state.terms
    return sum(abs(n) for _fam, n in mono), len(mono)


def _local_word(rng: random.Random):
    e = ma.LocalExpr.one()
    for _ in range(rng.randint(2, 4)):
        pick = rng.random()
        if pick < 0.4:
            factor = ma.LocalExpr.beta(rng.randint(-2, 2))
        elif pick < 0.8:
            factor = ma.LocalExpr.gamma(rng.randint(-2, 2))
        else:
            factor = ma.LocalExpr.g0_power(rng.choice((-1, 1)))
        e = e * factor
    return e


# One slot per job of the round: (kind, flow ell, state level, size).  For
# an action the size is |n| (the seed draws the sign); for a check it is
# (number of states, index window).  The seed draws the charge j and the
# monomials.  The sizes are fixed so that every seed does the same work, and
# they are graded so that p50 and p90 fall inside groups of similar jobs
# (cumulative share in brackets), not on the step between two groups.
MODEALG_ROUND = [
    # [0, 40%): single actions, twists, the null vector, a c = 2 check
    ("act_current", 0, 3, 2), ("act_current", 1, 2, 1), ("act_current", 0, 4, 3),
    ("act_virasoro", 0, 3, 2), ("act_virasoro", 2, 2, 1), ("act_virasoro", 1, 4, 3),
    ("localized_twist", 0, 0, None), ("localized_twist", 0, 0, None),
    ("chi_null_check", 0, 0, None),
    ("check_virasoro_c2", 0, 2, (1, range(-1, 2))),
    # [40%, 72%): composite quadratic actions and J/J, L/J brackets (p50)
    ("act_singlet", 0, 2, 1), ("act_singlet", 2, 2, 1),
    ("act_current_squared", 1, 2, 1), ("act_current_squared", 0, 2, 1),
    ("check_jj_commutators", 1, 2, (1, range(-1, 2))),
    ("check_jj_commutators", 0, 2, (1, range(-1, 2))),
    ("check_lj_commutators", 0, 2, (1, range(-1, 2))),
    ("check_lj_commutators", 2, 2, (1, range(-1, 2))),
    # [72%, 84%): wider brackets on small windows
    ("check_virasoro_c2", 0, 2, (2, range(-2, 3))),
    ("check_virasoro_cm2", 0, 1, (1, range(0, 2))),
    ("check_singlet_commutes_with_current", 0, 1, (1, range(0, 2))),
    # [84%, 96%): the singlet brackets on a full window (p90)
    ("check_virasoro_cm2", 0, 1, (1, range(-1, 2))),
    ("check_virasoro_cm2", 0, 2, (1, range(-1, 2))),
    ("check_singlet_commutes_with_current", 0, 2, (1, range(-1, 2))),
    # [96%, 100%): the README command
    ("cli.modealg-verify", 0, 0, ["--level", "2", "--states", "2", "--index-range", "1"]),
]


def modealg_round(seed: int, r: int, inputs: ModealgInputs) -> List[Job]:
    jobs = []
    for slot, (kind, ell, level, size) in enumerate(MODEALG_ROUND):
        rng = _rng(seed, "modealg", r, slot)
        if kind.startswith("act_"):
            state = inputs.state(rng, ell, level)
            jobs.append(Job(kind, (state, size * rng.choice((-1, 1)))))
        elif kind == "localized_twist":
            jobs.append(Job(kind, (_local_word(rng), rng.choice(_CHARGES))))
        elif kind == "chi_null_check":
            jobs.append(Job(kind, (rng.choice([c for c in _CHARGES if c != HALF]),)))
        elif kind == "cli.modealg-verify":
            jobs.append(Job(kind, (["modealg-verify", *size],)))
        else:
            count, window = size
            states = tuple(inputs.state(rng, ell, level) for _ in range(count))
            jobs.append(Job(kind, (states, window)))
    return jobs


for _name in ("act_current", "act_virasoro", "act_singlet", "act_current_squared"):
    runner(_name)(lambda a, _n=_name: getattr(ma, _n)(*a))


@runner("localized_twist")
def _(a):
    return ma.localized_twist(*a)


@runner("chi_null_check")
def _(a):
    return ma.chi_null_check(*a)


@runner("check_virasoro_c2")
def _(a):
    states, window = a
    return ma.check_virasoro(states, Fraction(2), ma.act_virasoro, window)


@runner("check_virasoro_cm2")
def _(a):
    states, window = a
    return ma.check_virasoro(states, Fraction(-2), ma.act_singlet, window)


for _name in ("check_jj_commutators", "check_lj_commutators",
              "check_singlet_commutes_with_current"):
    runner(_name)(lambda a, _n=_name: getattr(ma, _n)(*a))


# ======================================================================
# block-eval: special functions, closed-form blocks, residual engines
# ======================================================================

GRID_POINTS = 16  # eta values per fixed parameter set on the dense grids


def _hyp_params(rng: random.Random):
    a = rng.uniform(-3, 3)
    b = rng.uniform(-3, 3)
    c = _off_integer(rng, -2.5, 3)
    return a, b, c


def _polar(rng: random.Random, rlo: float, rhi: float, alo: float, ahi: float) -> complex:
    return cmath.rect(rng.uniform(rlo, rhi), rng.uniform(alo, ahi))


# The 2F1 regions, one slot each; a 2F1 job's kind names its region, so that
# the known defects can be told apart from a new one (verify.KNOWN_RAISES).
HYP2F1_REGIONS = ("series", "connection", "pfaff", "outside", "sixth-root", "terminating")


def _specfun_job(region: str, rng: random.Random, r: int) -> Job:
    kind = f"hyp2f1.{region}"
    if region == "series":
        return Job(kind, (*_hyp_params(rng), _polar(rng, 0.05, 0.7, -math.pi, math.pi)))
    if region == "connection":
        while True:
            a, b, c = _hyp_params(rng)
            if abs((c - a - b) - round(c - a - b)) > 0.05:
                break
        z = 1 - _polar(rng, 0.1, 0.69, -math.pi, math.pi)
        return Job(kind, (a, b, c, z))
    if region == "pfaff":
        # Re z < 0.5 with |z/(z-1)| <= 0.8 and |z| > 0.7
        while True:
            z = complex(rng.uniform(-3.5, -0.7), rng.uniform(-1.0, 1.0))
            if abs(z / (z - 1)) <= 0.8:
                break
        return Job(kind, (*_hyp_params(rng), z))
    if region == "outside":
        # |z| > 1 away from the real cut; includes the Re z > 0.5 zone that
        # has no 1/z map and raises
        sign = rng.choice((-1, 1))
        z = _polar(rng, 1.05, 2.0, 0.1, math.pi - 0.1)
        return Job(kind, (*_hyp_params(rng), z if sign > 0 else z.conjugate()))
    if region == "sixth-root":
        # around e^{+-i pi/3}, where the continuation chain runs out
        sign = rng.choice((-1, 1))
        z = _polar(rng, 0.9, 1.5, math.radians(40), math.radians(75))
        return Job(kind, (*_hyp_params(rng), z if sign > 0 else z.conjugate()))
    if region == "terminating":
        m = rng.randint(1, 8)
        if r % 2:
            b = _frac(rng, -29, 29, 10)
            c = _frac(rng, 1, 40, 10)
            z = _frac(rng, -19, 19, 10)
            return Job(kind, (Fraction(-m), b, c, z))
        return Job(kind, (float(-m), rng.uniform(-3, 3), _off_integer(rng, 0.1, 4),
                              rng.uniform(-2, 2)))
    if region == "hyp3f2":
        a1, a2 = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        b1, b2 = _off_integer(rng, 0.4, 2.5), _off_integer(rng, 0.4, 2.5)
        if r % 2:
            # integer-offset pair: the collapse onto 2F1 continuations
            return Job("hyp3f2", (a1, a2, b2 + rng.randint(0, 3), b1, b2, rng.uniform(-4.0, -1.0)))
        return Job("hyp3f2", (a1, a2, rng.uniform(-1.5, 1.5), b1, b2,
                              _polar(rng, 0.05, 0.9, -math.pi, math.pi)))
    if region == "beta":
        if r % 2:
            return Job("beta_incomplete", (_frac(rng, 1, 25, 10), _frac(rng, 1, 25, 10),
                                           _frac(rng, 1, 19, 20)))
        return Job("beta_incomplete", (rng.uniform(0.1, 2.5), rng.uniform(0.1, 2.5),
                                       rng.uniform(0.05, 0.95)))
    raise ValueError(region)


def _grid_eta(seed: int, kind: str, r: int):
    """Fixed parameters for GRID_POINTS consecutive rounds; eta walks a grid."""
    g, i = divmod(r, GRID_POINTS)
    return _rng(seed, "block-eval", kind, g), 0.05 + 0.85 * i / (GRID_POINTS - 1)


def _l2_charges(rng: random.Random):
    """Conserved flow-2 charges (j1 + j2 + 1/2 + j4 = 2) away from the log
    regime (j4 not in Z + 1/2) and from integer charges."""
    while True:
        j1, j2 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        j4 = 1.5 - j1 - j2
        if abs(2 * j4 - round(2 * j4)) > 0.1:
            return j1, j2, j4


def _grid_job(kind: str, seed: int, r: int) -> Job:
    rng, eta = _grid_eta(seed, kind, r)
    if kind == "blocks_l2":
        return Job(kind, (*_l2_charges(rng), eta))
    if kind == "blocks_l3":
        while True:
            j1, j2 = rng.uniform(0.1, 0.9), _off_integer(rng, 0.6, 1.4, 0.1)
            j4 = 2.5 - j1 - j2
            if abs(j4 - 0.5 - round(j4 - 0.5)) > 0.1:
                return Job(kind, (j1, j2, j4, eta))
    if kind == "conj_blocks_l2":
        j1, j2 = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.9)
        j3 = 0.5 + rng.randint(0, 3)
        return Job(kind, (j1, j2, j3, 2 - j1 - j2 - j3, 0.05 + 0.4 * (eta - 0.05) / 0.85))
    if kind == "conj_block_l3":
        j1, j2 = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.9)
        j3 = rng.uniform(0.6, 3.4)
        return Job(kind, (j1, j2, j3, 3 - j1 - j2 - j3, eta))
    if kind == "log_blocks_l2":
        j4 = HALF
        j1 = rng.uniform(0.1, 0.9)
        return Job(kind, (j1, 1.5 - j1 - 0.5, j4, eta))
    if kind == "bulk_l2":
        j1, j2, j4 = _l2_charges(rng)
        return Job(kind, (j1, j2, j4, complex(eta, rng.uniform(-0.3, 0.3)), rng.uniform(0.5, 2.0)))
    if kind == "monodromy_ratio_l2":
        # no eta: a fresh charge set every call
        return Job(kind, _l2_charges(_rng(seed, "block-eval", kind, r)))
    if kind == "identity_gap":
        while True:
            k = rng.randint(0, 6)
            alpha, a, b = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)
            c = rng.uniform(0.3, 3)
            beta = alpha - a + c
            if not (abs(beta - round(beta)) < 0.05 and beta < 0.5):
                break
        return Job(kind, (idn.IdentityCase(k, alpha, a, b, c, min(eta, 0.75)),))
    raise ValueError(kind)


def _conserved(rng: random.Random, n: int, total: float) -> list:
    """n charges summing to total (the last one absorbs the flow)."""
    head = [rng.uniform(-0.5, 1.0) for _ in range(n - 1)]
    return head + [total - sum(head)]


def _ward_job(rng: random.Random) -> Job:
    """The Ward residual set on a seeded 2-, 3- or 4-point WardForm."""
    n = rng.choice((2, 3, 4))
    ell = 1 if n == 2 else rng.randint(1, 3)  # 2-point forms exist at flow 1 only
    charges = _conserved(rng, n, ell)
    if n == 4:
        h_block = bl.BlockSum.power(rng.uniform(0.5, 1.5), rng.uniform(-0.7, 0.7),
                                    rng.uniform(-0.7, 0.7))
        cs, ws = co.standard_frame_data(*charges, ell)
    elif n == 3:
        h_block = bl.BlockSum.constant(1)
        j1, j2, j3 = charges
        cs, ws = [j1, j2, j3 - ell], [0, 0, j3 * ell - ell * (ell + 1) / 2]
    else:
        h_block = bl.BlockSum.constant(1)
        j1, j2 = charges
        cs, ws = [j1, j2 - ell], [0, j2 * ell - ell * (ell + 1) / 2]
    form = co.WardForm(cs, ws, h_block)
    points = kz.sample_insertions(n, seed=rng.randint(0, 10**6))
    return Job("ward_residuals", (form, cs, ws, points))


def _kz_job(rng: random.Random) -> Job:
    pick = rng.randint(0, 2)
    points_seed = rng.randint(0, 10**6)
    if pick == 0:
        charges = tuple(_conserved(rng, 2, 1))
        return Job("kz_residual_m2", ("two", 1, charges, points_seed))
    if pick == 1:
        ell = rng.choice((1, 2))
        charges = tuple(_conserved(rng, 3, ell))
        return Job("kz_residual_m2", ("three", ell, charges, points_seed))
    charges = tuple(_conserved(rng, 4, 1))
    return Job("kz_residual_m1_l1", (charges, points_seed))


def _bpz_job(rng: random.Random) -> Job:
    """The BPZ residual of a seeded 4-point block at the charge-1/2 slot."""
    ell = rng.choice((1, 2, 3))
    j3 = 0.5
    while True:
        j1, j2 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        j4 = ell - j1 - j2 - j3
        if abs(2 * j4 - round(2 * j4)) > 0.1:
            break
    if ell == 1:
        blk = rng.choice((
            bl.BlockSum.power(1, 0.5, 0),
            bl.BlockSum.incomplete_beta(1, 0.5, 0, -j4 + 0.5, -j2 + 0.5),
        ))
    elif ell == 2:
        blk = rng.choice(co.blocks_l2_blocksums(j1, j2, j4))
    else:
        blk = rng.choice((
            bl.BlockSum.power(1, -j4 + 2, -j2 + 0.5),
            bl.BlockSum.incomplete_beta(1, -j4 + 2, -j2 + 0.5, j4 - 0.5, j2 - 0.5),
        ))
    form = co.unspecialize_block(blk, j1, j2, j3, j4, ell)
    points = kz.sample_insertions(4, seed=rng.randint(0, 10**6))
    return Job("bpz_residual", (form, 2, form.charges, form.weights, points))


def _charges_arg(*values) -> str:
    """--charges=v1,v2,... (the = form: a leading minus sign is not an option)."""
    return "--charges=" + ",".join(v if isinstance(v, str) else repr(v) for v in values)


def _cli_block_job(slot: int, rng: random.Random) -> Job:
    seed_arg = str(rng.randint(0, 10**6))
    if slot == 0:
        j1, j2, j4 = _l2_charges(rng)
        op = rng.choice(("blocks-l2", "conj-l2", "monodromy-ratio", "two-point", "selection"))
        argv = ["eval", "--op", op]
        if op == "two-point":
            pair = str(_frac(rng, 1, 9, 10)), str(_frac(rng, 1, 9, 10))
            argv += ["--ell", "1", _charges_arg(*pair), "--w1", "4", "--w2", "0"]
        elif op == "selection":
            argv += ["--ell", str(rng.randint(1, 5)),
                     _charges_arg(*(f"{rng.uniform(-1, 3):.3f}" for _ in range(4)))]
        elif op == "conj-l2":
            j3 = 0.5 + rng.randint(0, 2)
            j1, j2 = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.9)
            argv += ["--ell", "2", _charges_arg(j1, j2, j3, 2 - j1 - j2 - j3),
                     "--eta", repr(rng.uniform(0.05, 0.45))]
        else:
            argv += ["--ell", "2", _charges_arg(j1, j2, 0.5, j4),
                     "--eta", repr(rng.uniform(0.05, 0.9))]
        return Job("cli.eval", (argv,))
    if slot == 1:
        op = rng.choice(("ward", "kz-m2", "bpz"))
        if op == "ward":
            n = rng.choice((2, 3, 4))
            ell = 1 if n == 2 else rng.randint(1, 3)
            argv = ["residual", "--op", op, "--ell", str(ell),
                    _charges_arg(*_conserved(rng, n, ell))]
        elif op == "kz-m2":
            argv = ["residual", "--op", op, "--ell", "2", _charges_arg(*_conserved(rng, 3, 2))]
        else:
            j1, j2, j4 = _l2_charges(rng)
            argv = ["residual", "--op", op, "--ell", "2", _charges_arg(j1, j2, "1/2", j4)]
        return Job("cli.residual", (argv + ["--seed", seed_arg],))
    if slot == 2:
        argv = ["identity-check", "--k", str(rng.randint(2, 4)), "--draws", str(rng.randint(4, 8)),
                "--seed", seed_arg]
        return Job("cli.identity-check", (argv,))
    j1, j2, j4 = _l2_charges(rng)
    argv = ["scan", "--ell", "2", _charges_arg(j1, j2), "--j4=" + repr(j4),
            "--eta-grid", f"0.01,{rng.uniform(0.5, 0.9):.3f},{rng.randint(8, 16)}"]
    return Job("cli.scan", (argv,))


BLOCK_EVAL_ROUND = [
    ("specfun", "series"), ("grid", "blocks_l2"),
    ("specfun", "connection"), ("grid", "blocks_l3"),
    ("specfun", "pfaff"), ("grid", "conj_blocks_l2"),
    ("specfun", "outside"), ("grid", "conj_block_l3"),
    ("specfun", "sixth-root"), ("grid", "log_blocks_l2"),
    ("specfun", "terminating"), ("grid", "bulk_l2"),
    ("specfun", "hyp3f2"), ("grid", "monodromy_ratio_l2"),
    ("specfun", "beta"), ("grid", "identity_gap"),
    ("residual", "ward"), ("residual", "kz"), ("residual", "bpz"), ("residual", "ward"),
    ("cli", 0), ("cli", 1), ("cli", 2), ("cli", 3),
]


def block_eval_round(seed: int, r: int, _inputs=None) -> List[Job]:
    jobs = []
    for slot, (group, what) in enumerate(BLOCK_EVAL_ROUND):
        rng = _rng(seed, "block-eval", r, slot)
        if group == "specfun":
            jobs.append(_specfun_job(what, rng, r))
        elif group == "grid":
            jobs.append(_grid_job(what, seed, r))
        elif group == "residual":
            jobs.append({"ward": _ward_job, "kz": _kz_job, "bpz": _bpz_job}[what](rng))
        else:
            jobs.append(_cli_block_job(what, rng))
    return jobs


for _region in HYP2F1_REGIONS:
    runner(f"hyp2f1.{_region}")(lambda a: sf.hyp2f1(*a))


@runner("hyp3f2")
def _(a):
    return sf.hyp3f2(*a)


@runner("beta_incomplete")
def _(a):
    return sf.beta_incomplete(*a)


for _name in ("blocks_l2", "blocks_l3", "conj_blocks_l2", "conj_block_l3",
              "log_blocks_l2", "bulk_l2", "monodromy_ratio_l2"):
    runner(_name)(lambda a, _n=_name: getattr(co, _n)(*a))


@runner("identity_gap")
def _(a):
    return idn.identity_gap(*a)


@runner("ward_residuals")
def _(a):
    form, cs, ws, points = a
    return kz.ward_residuals(form, cs, ws, points, tolerance=1e-9)


@runner("kz_residual_m2")
def _(a):
    fam, ell, charges, points_seed = a
    family = kz.TwoPointFamily() if fam == "two" else kz.ThreePointFamily(ell)
    points = kz.sample_insertions(len(charges), seed=points_seed)
    return kz.kz_residual_m2(family, charges, points, tolerance=1e-10)


@runner("kz_residual_m1_l1")
def _(a):
    charges, points_seed = a
    points = kz.sample_insertions(4, seed=points_seed)
    return kz.kz_residual_m1_l1(kz.FourPointL1Family(), charges, points, tolerance=1e-10)


@runner("bpz_residual")
def _(a):
    form, i, charges, weights, points = a
    return kz.bpz_residual(form, i, charges, weights, points, tolerance=1e-8)


for _name in ("cli.eval", "cli.residual", "cli.identity-check", "cli.scan",
              "cli.recurse", "cli.modealg-verify"):
    runner(_name)(lambda a: run_cli(a[0]))


# ======================================================================
# charge-shift: the recursion at fixed depths, exact and numeric
# ======================================================================

CHARGE_SHIFT_ETAS = 3  # .value() points per numeric job


def _l3_exact_charges(rng: random.Random):
    """Rational (j1, j2) with the flow-3 constant allowed at j3 = 1/2."""
    while True:
        j1, j2 = _frac20(rng, 1, 19), _frac20(rng, 1, 19)
        if (2 * j1 + j2).denominator != 1:
            return j1, j2


def _etas(rng: random.Random, n: int):
    """n points spread over [0.1, 0.45], each within 0.02 of a fixed centre,
    so the series lengths (and the job's cost) do not depend on the seed."""
    width = 0.35 / n
    return tuple(0.1 + width * (i + 0.5) + rng.uniform(-0.02, 0.02) for i in range(n))


def _frac20(rng: random.Random, lo: int, hi: int) -> Fraction:
    """p/20 in lowest terms with denominator exactly 20, lo <= p <= hi."""
    while True:
        p = rng.randint(lo, hi)
        if math.gcd(p, 20) == 1:
            return Fraction(p, 20)


# (kind, depth) per slot; the seed draws the charges and the eta points.
# Graded like MODEALG_ROUND (cumulative share in brackets).
CHARGE_SHIFT_ROUND = [
    # [0, 32%): short recursions and the README command
    ("exact_l1", 8), ("exact_l1", 12), ("exact_l1", 16),
    ("cli.recurse_exact", 2), ("cli.recurse_exact", 3),
    ("numeric_l2_1", 2), ("numeric_l2_2", 2), ("numeric_l3", 3),
    # [32%, 64%): exact flow-3 at k = 6 with canonical() (p50)
    *[("exact_l3", 6)] * 8,
    # [64%, 84%): exact flow-3 at k = 7
    *[("exact_l3", 7)] * 5,
    # [84%, 96%): numeric flow-2 at k = 3, 343 terms, .value() at 3 eta (p90)
    ("numeric_l2_1", 3), ("numeric_l2_2", 3), ("numeric_l2_1", 3),
    # [96%, 100%): numeric flow-3 at k = 5, 16 807 terms, one .value()
    ("numeric_l3_deep", 5),
]


def charge_shift_round(seed: int, r: int, _inputs=None) -> List[Job]:
    jobs = []
    for slot, (kind, k) in enumerate(CHARGE_SHIFT_ROUND):
        rng = _rng(seed, "charge-shift", r, slot)
        if kind == "exact_l1":
            j1, j2, j3 = _frac20(rng, 1, 19), _frac20(rng, 1, 19), _frac20(rng, 1, 39)
            charges = (j1, j2, j3, 1 - j1 - j2 - j3)
            block = bl.PowerSum.single(Fraction(1), j3)
            jobs.append(Job("recursion_exact", (block, charges, 1, k)))
        elif kind == "exact_l3":
            j1, j2 = _l3_exact_charges(rng)
            j4 = 3 - j1 - j2 - HALF
            charges = (j1, j2, HALF, j4)
            jobs.append(Job("recursion_exact", (co.block_l3_powersum(j1, j2, j4), charges, 3, k)))
        elif kind == "cli.recurse_exact":
            j1, j2 = _l3_exact_charges(rng)
            j4 = 3 - j1 - j2 - HALF
            argv = ["recurse", "--ell", "3", _charges_arg(str(j1), str(j2), "1/2", str(j4)),
                    "--k", str(k)]
            jobs.append(Job("cli.recurse", (argv,)))
        elif kind.startswith("numeric_l2"):
            while True:
                j1, j2 = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.9)
                j4 = 2 - j1 - j2 - 0.5
                if abs(2 * j4 - round(2 * j4)) > 0.05:
                    break
            which = int(kind[-1]) - 1
            blk = co.blocks_l2_blocksums(j1, j2, j4)[which]
            jobs.append(Job("recursion_numeric",
                            (blk, (j1, j2, 0.5, j4), 2, k, _etas(rng, CHARGE_SHIFT_ETAS), which)))
        else:
            j1, j2 = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.9)
            j4 = 3 - j1 - j2 - 0.5
            blk = bl.BlockSum.power(1.0, -j4 + 2, -j2 + 0.5)
            deep = kind == "numeric_l3_deep"
            jobs.append(Job("recursion_numeric_deep" if deep else "recursion_numeric",
                            (blk, (j1, j2, 0.5, j4), 3, k,
                             _etas(rng, 1 if deep else CHARGE_SHIFT_ETAS), None)))
    return jobs


@runner("recursion_exact")
def _(a):
    block, charges, ell, k = a
    return kz.recursion_iterate(block, charges, ell, k).canonical()


@runner("recursion_numeric")
@runner("recursion_numeric_deep")
def _(a):
    block, charges, ell, k, etas, _which = a
    out = kz.recursion_iterate(block, charges, ell, k)
    return tuple(out.value(eta) for eta in etas)


# ======================================================================

class Workload(NamedTuple):
    name: str
    round_jobs: Callable  # (seed, round index, inputs) -> List[Job]
    make_inputs: Callable[[], object]


WORKLOADS = {
    "modealg": Workload("modealg", modealg_round, ModealgInputs),
    "block-eval": Workload("block-eval", block_eval_round, lambda: None),
    "charge-shift": Workload("charge-shift", charge_shift_round, lambda: None),
}

# Rounds replayed under the tracer: a fixed amount of work (a few seconds on
# the seed code), so counts compare across versions.
TRACE_ROUNDS = {"modealg": 3, "block-eval": 100, "charge-shift": 4}

ROUND_SIZE = {"modealg": len(MODEALG_ROUND), "block-eval": len(BLOCK_EVAL_ROUND),
              "charge-shift": len(CHARGE_SHIFT_ROUND)}
