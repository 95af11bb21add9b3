"""Command-line front end: evaluation, residual sweeps, recursion, identity
checks, grid scans and mode-algebra verification.

Exit status: 0 when everything holds within tolerance, 1 on any failed
check, 2 on usage errors, on input the evaluators reject (a
GhostCftError or ValueError) and on a report that would carry a nan or
inf; any other exception propagates with its traceback.  Output files are written atomically.  All random
draws come from a seeded generator (default seed 42).
"""
from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import os
import random
import re
import sys
import warnings
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set

from . import correlators as co
from . import identities as idn
from . import kzbpz as kz
from . import modealg
from .blocks import PowerSum
from .errors import ChargeError, ConvergenceError, GhostCftError, UnsupportedShape
from .scalars import all_exact, is_half_odd_integer, parse_charge, to_complex


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        _atomic_write(output, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _charges(text: str):
    return [parse_charge(tok) for tok in text.split(",") if tok.strip()]


def _eta_grid(text: str) -> List[float]:
    bits = text.split(",")
    if len(bits) != 3:
        raise argparse.ArgumentTypeError("eta-grid needs start,stop,count")
    start, stop, count = float(bits[0]), float(bits[1]), int(bits[2])
    if count < 2:
        raise argparse.ArgumentTypeError("grid count must be >= 2")
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count)]


def _json(payload, command: str) -> str:
    """payload as indented JSON; a nan or inf in it raises ConvergenceError
    naming the command, so that no report prints a value that is not
    finite."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        raise ConvergenceError(f"{command} gave a value that is not finite") from None


def _report_json(reports, command: str) -> str:
    payload = [json.loads(rep.to_json()) for rep in reports]
    return _json(payload if len(payload) > 1 else payload[0], command)


# ----------------------------------------------------------------------
# the op table: each op's shapes, premises and runner, written once
# ----------------------------------------------------------------------


class _Op(NamedTuple):
    """One op: ``shapes`` maps each charge count from 1 up that it takes to
    the flows it runs there (_ANY: no bound); ``probe`` holds the flows at
    which it assumes the probe charge 1/2 at insertion _PROBE[N]."""

    name: str  # as typed: "eval --op blocks-l2", "recurse --block 2", "scan"
    shapes: Optional[Dict[int, Optional[Set[int]]]]
    run: Callable  # (args, charges, flow) -> what the subcommand emits
    conserves: bool = False  # assumes j1 + ... + jN = the flow
    probe: Set[int] = frozenset()
    eta: bool = False  # needs --eta


_ANY = None
# the insertion, by charge count, that carries the probe charge 1/2 of the
# second-order constraint: the first of two or three, the third of four
_PROBE = {2: 0, 3: 0, 4: 2}


def _either(values) -> str:
    *rest, last = sorted(values)
    return f"{', '.join(map(str, rest))} or {last}" if rest else str(last)


def _check(op: _Op, charges, ell, eta=None) -> int:
    """Apply op's record before any evaluation and return the flow it runs
    (ell None: the op's one flow, else 1).  UnsupportedShape names a charge
    count, flow or missing --eta it does not run; ChargeError a premise."""
    n = len(charges)
    if op.shapes is _ANY and n < 1:
        raise UnsupportedShape(f"{op.name} takes at least 1 charge; got {n}")
    if op.shapes is not _ANY and n not in op.shapes:
        raise UnsupportedShape(f"{op.name} takes {_either(op.shapes)} charges; got {n}")
    flows = _ANY if op.shapes is _ANY else op.shapes[n]
    if ell is None:
        ell = min(flows) if flows is not _ANY and len(flows) == 1 else 1
    if flows is not _ANY and ell not in flows:
        raise UnsupportedShape(f"{op.name} on {n} charges runs flow {_either(flows)}; "
                               f"got --ell {ell}")
    if op.eta and eta is None:
        raise UnsupportedShape(f"{op.name} needs --eta")
    if op.conserves and not co.charge_conserved(sum(charges) - ell):
        raise ChargeError(f"{op.name} assumes charge conservation, j1 + ... + jN = {ell} "
                          f"(the flow); these charges sum to {sum(charges)}")
    if ell in op.probe and not co.charge_conserved(charges[_PROBE[n]] - co.HALF):
        raise ChargeError(f"{op.name} at flow {ell} assumes the probe charge "
                          f"j{_PROBE[n] + 1} = 1/2; got {charges[_PROBE[n]]}")
    return ell


def _run(args, name):
    """Check the command against op ``name``'s record, then run the op."""
    op, charges = _OPS[name], _charges(args.charges)
    ell = _check(op, charges, args.ell, getattr(args, "eta", None))
    return op.run(args, charges, ell)


def _finite(name: str, eta, *values):
    """values, unless one is a float that is not finite: ConvergenceError
    then names the op and eta, so that no nan or inf is printed."""
    for v in values:
        if isinstance(v, (float, complex)) and not cmath.isfinite(v):
            where = "" if eta is None else f" at eta = {eta}"
            raise ConvergenceError(f"{name}{where} gave {v}, which is not finite")
    return values


def _value(args, *values) -> dict:
    """An eval op's one value, or its two blocks, as strings."""
    values = _finite(f"eval --op {args.op}", args.eta, *values)
    return dict(zip(("value",) if len(values) == 1 else ("block1", "block2"), map(str, values)))


def _two_point(args, js, ell) -> dict:
    p1, p2 = co.GhostPrimary(js[0], 0), co.GhostPrimary(js[1], ell)
    return _value(args, co.two_point(p1, p2, args.w1, args.w2))


def _selection(args, js, ell) -> dict:
    flows = [0] * (len(js) - 1) + [ell]
    spec = co.CorrelatorSpec([co.GhostPrimary(j, l) for j, l in zip(js, flows)])
    verdict = co.selection_rule(spec)
    return {"zero": verdict.zero, "reason": verdict.reason}


def _ward(args, js, ell):
    rng = random.Random(args.seed)
    h_block = None  # the WardForm default, H = 1
    if len(js) == 4:
        h_block = PowerSum.single(rng.uniform(0.5, 1.5), rng.uniform(-0.7, 0.7),
                                  rng.uniform(-0.7, 0.7))
    cs, ws = co.standard_frame_data(*js, ell)
    form = co.WardForm(cs, ws, h_block)
    points = kz.sample_insertions(len(js), seed=args.seed)
    return list(kz.ward_residuals(form, cs, ws, points, tolerance=args.tolerance).values())


def _kz_family(n, ell):
    """The charge-shift family of n charges at flow ell."""
    return {2: kz.TwoPointFamily, 3: lambda: kz.ThreePointFamily(ell),
            4: kz.FourPointL1Family}[n]()


def _kz(residual, args, js, ell):
    """kz-m2 or kz-m1: one residual over the family's charge shifts."""
    points = kz.sample_insertions(len(js), seed=args.seed)
    return [residual(_kz_family(len(js), ell), tuple(js), points, tolerance=args.tolerance)]


def _kz_j0(args, js, ell):
    fam = kz.FourPointL1Family()
    j1, j2, j3, j4 = js
    blk, shifted = fam.specialized(js), fam.specialized((j1, j2, j3 + 1, j4 - 1))
    return [kz.kz_specialized_j0_residual(blk, shifted, tolerance=args.tolerance)]


def _kz_decoupled(args, js, ell):
    blk = kz.FourPointL1Family().specialized(js)
    return [kz.kz_decoupled_residual(blk, js[2], tolerance=args.tolerance)]


def _bpz(args, js, ell):
    n = len(js)
    points = kz.sample_insertions(n, seed=args.seed)
    if n < 4:
        F = _kz_family(n, ell).base(tuple(js))
        rhs = kz.threept_bpz_rhs(js[1], ell) if n == 3 else None
        label = f"bpz-3pt-l{ell}" if n == 3 else "bpz-2pt"
        return [kz.bpz_residual(F, 0, F.charges, F.weights, points, rhs=rhs,
                                tolerance=args.tolerance, label=label)]
    names = ("block1", "block2") if ell == 2 else ("power", "beta")
    reports = []
    for name, blk in zip(names, co.fourpoint_blocksums(ell, js[0], js[1], js[3])):
        F = co.unspecialize_block(blk, *js, ell)
        reports.append(kz.bpz_residual(F, 2, F.charges, F.weights, points,
                                       tolerance=args.tolerance, label=f"bpz-4pt-l{ell}-{name}"))
    return reports


def _recurse(args, js, ell) -> dict:
    j1, j2, j3, j4 = js
    if ell == 2:
        block = co.fourpoint_blocksums(2, j1, j2, j4)[args.block - 1]
    else:  # flow 1's eta^j3, or flow 3's monodromy-selected power block
        block = kz.FourPointL1Family().specialized(js) if ell == 1 else co.block_l3_powersum(
            j1, j2, j4)
    result = kz.recursion_iterate(block, (j1, j2, j3, j4), ell, args.k)
    payload = {
        "ell": ell,
        "k": args.k,
        "charges": [str(c) for c in js],
        "final_charges": [str(j1), str(j2), str(j3 + args.k), str(j4 - args.k)],
        # float charges run exactly on their binary values, but are not exact
        "exact": isinstance(result, PowerSum) and all_exact(*js),
    }
    if payload["exact"]:
        payload["block"] = result.canonical().to_text()
    if args.eta_grid:
        values = []
        for eta in args.eta_grid:
            v = to_complex(result.eval(eta)) if isinstance(result, PowerSum) else result.value(eta)
            _finite(f"recurse --block {args.block}", eta, v)
            values.append({"eta": eta, "re": v.real, "im": v.imag})
        payload["values"] = values
    return payload


def _scan(args, js, ell) -> str:
    j1, j2 = js
    j4 = parse_charge(args.j4)
    log_regime = is_half_odd_integer(j4)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["eta_re", "eta_im", "block1_re", "block1_im", "block2_re", "block2_im"]
    )
    # build the flow-2 pair once, not at each eta
    pair = None if log_regime else co.fourpoint_blocksums(2, j1, j2, j4)
    for eta in args.eta_grid:
        if eta == 0:
            continue
        if log_regime:
            b1, b2 = co.log_blocks_l2(j1, j2, j4, eta)
        else:
            b1, b2 = (b.value(eta) for b in pair)
        b1, b2 = _finite("scan", eta, to_complex(b1), to_complex(b2))
        writer.writerow(
            [f"{eta:.12g}", "0", f"{b1.real:.15g}", f"{b1.imag:.15g}",
             f"{b2.real:.15g}", f"{b2.imag:.15g}"]
        )
    return buf.getvalue()


_OPS = {op.name: op for op in (
    _Op("eval --op two-point", {2: _ANY}, _two_point),
    _Op("eval --op three-point", {3: _ANY},
        lambda a, js, ell: _value(a, co.three_point(*js, ell, a.w1, a.w2, a.w3))),
    _Op("eval --op block-l1", {4: {1}}, lambda a, js, ell: _value(a, co.block_l1(js[2], a.eta)),
        eta=True),
    _Op("eval --op blocks-l2", {4: {2}},
        lambda a, js, ell: _value(a, *co.blocks_l2(js[0], js[1], js[3], a.eta)),
        probe={2}, eta=True),
    _Op("eval --op block-l3", {4: {3}},
        lambda a, js, ell: _value(a, co.block_l3(js[0], js[1], js[3], a.eta)),
        probe={3}, eta=True),
    _Op("eval --op conj-l3", {4: {3}}, lambda a, js, ell: _value(a, co.conj_block_l3(*js, a.eta)),
        eta=True),
    _Op("eval --op conj-l2", {4: {2}}, lambda a, js, ell: _value(a, *co.conj_blocks_l2(*js, a.eta)),
        eta=True),
    _Op("eval --op monodromy-ratio", {4: {2}},
        lambda a, js, ell: _value(a, co.monodromy_ratio_l2(js[0], js[1], js[3])), probe={2}),
    _Op("eval --op selection", _ANY, _selection),
    # the two-point function in the standard frame vanishes unless the flows
    # sum to 1, so on two charges every op checks flow 1 only
    _Op("residual --op ward", {2: {1}, 3: _ANY, 4: _ANY}, _ward),
    _Op("residual --op kz-m2", {2: {1}, 3: {1, 2}, 4: {1}}, functools.partial(_kz, kz.kz_residual_m2),
        conserves=True),
    _Op("residual --op kz-m1", {2: {1}, 3: {1}, 4: {1}}, functools.partial(_kz, kz.kz_residual_m1_l1),
        conserves=True),
    _Op("residual --op kz-j0", {4: {1}}, _kz_j0),
    _Op("residual --op kz-decoupled", {4: {1}}, _kz_decoupled),
    _Op("residual --op bpz", {2: {1}, 3: {1, 2}, 4: {1, 2, 3}}, _bpz, conserves=True,
        probe={1, 2, 3}),
    # --block picks the block recurse runs: 2 is the second flow-2 block
    _Op("recurse --block 1", {4: {1, 2, 3}}, _recurse, conserves=True, probe={2, 3}),
    _Op("recurse --block 2", {4: {2}}, _recurse, conserves=True, probe={2}),
    _Op("scan", {2: {2}}, _scan),
)}


# ----------------------------------------------------------------------
# subcommands eval, residual, recurse and scan: one op each
# ----------------------------------------------------------------------


def cmd_eval(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", co.ConjecturalChargeWarning)
        report = {"op": args.op, **_run(args, f"eval --op {args.op}")}
    for w in caught:
        if issubclass(w.category, co.ConjecturalChargeWarning):
            report["conjectural"] = True
        else:  # shown as it would have been outside the block
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    _emit(_json(report, f"eval --op {args.op}"), args.output)
    return 0


def cmd_residual(args) -> int:
    if args.tolerance is None:  # the engine's own default
        args.tolerance = kz.DEFAULT_TOLERANCES[args.op]
    name = f"residual --op {args.op}"
    reports = _run(args, name)
    _emit(_report_json(reports, name), args.output)
    return 0 if all(rep.passes for rep in reports) else 1


def cmd_recurse(args) -> int:
    name = f"recurse --block {args.block}"
    _emit(_json(_run(args, name), name), args.output)
    return 0


def cmd_scan(args) -> int:
    _emit(_run(args, "scan"), args.output)
    return 0


# ----------------------------------------------------------------------
# subcommand: identity-check
# ----------------------------------------------------------------------


def cmd_identity_check(args) -> int:
    rng = random.Random(args.seed)
    rows = []
    ok = True
    for trial in range(args.draws):
        k = rng.randrange(0, args.k + 1)
        alpha = rng.uniform(-3, 3)
        a = rng.uniform(-3, 3)
        b = rng.uniform(-3, 3)
        c = rng.uniform(0.3, 3)
        eta = rng.choice([0.1, 0.3, 0.5, 0.7])
        beta = alpha - a + c
        if abs(beta - round(beta)) < 0.05 and beta < 0.5:
            continue
        gap = idn.identity_gap(idn.IdentityCase(k, alpha, a, b, c, eta))
        passed = gap <= args.tolerance
        ok = ok and passed
        rows.append(
            {"trial": trial, "k": k, "alpha": alpha, "a": a, "b": b, "c": c,
             "eta": eta, "gap": gap, "pass": passed}
        )
    # block-sum forms for k <= 3
    for k in range(0, 4):
        j1 = rng.uniform(-1.2, 1.2)
        j2 = rng.uniform(-1.2, 1.2)
        j4 = 1.5 - j1 - j2
        if abs(2 * j4 - round(2 * j4)) < 0.05:
            continue
        eta = rng.uniform(0.1, 0.75)
        verdict = idn.blocksum_check_l2(k, j1, j2, j4, eta, tolerance=args.tolerance)
        ok = ok and verdict.passes
        rows.append(
            {"blocksum_k": k, "j1": j1, "j2": j2, "j4": j4, "eta": eta,
             "gap1": verdict.first_gap, "gap2": verdict.second_gap,
             "pass": verdict.passes}
        )
    payload = {"tolerance": args.tolerance, "pass": ok, "rows": rows}
    _emit(_json(payload, "identity-check"), args.output)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# subcommand: modealg-verify
# ----------------------------------------------------------------------


def cmd_modealg_verify(args) -> int:
    level = args.level
    rep = modealg.chi_null_check()
    states = modealg.basis_states(Fraction(1, 3), 0, max_level=level, max_factors=2)
    window = range(-args.index_range, args.index_range + 1)
    # the two singlet checks, the costliest, see half the states (at least 2)
    full, half = states[: args.states], states[: max(2, args.states // 2)]
    brackets = {
        "jj_commutators": (full, modealg.check_jj_commutators),
        "lj_commutators": (full, modealg.check_lj_commutators),
        "virasoro_c2": (full, lambda sts, w: modealg.check_virasoro(
            sts, Fraction(2), modealg.act_virasoro, w)),
        "singlet_c_minus2": (half, lambda sts, w: modealg.check_virasoro(
            sts, Fraction(-2), modealg.act_singlet, w)),
        "singlet_commutes_with_current": (half, modealg.check_singlet_commutes_with_current),
    }
    results = {
        "null_vector": {
            "singlet_form_matches": rep.singlet_form_matches,
            "vanishes_on_charge_half": rep.vanishes_on_charge_half,
            "nonzero_on_generic_charge": rep.nonzero_on_generic_charge,
        },
        **{name: check(sts, window) for name, (sts, check) in brackets.items()},
        "flow_vacuum_conditions": modealg.check_flow_vacuum_conditions(),
    }
    ok = rep.ok and all(
        v is True for k, v in results.items() if isinstance(v, bool)
    )
    # full and half are prefixes of states; the level of a basis monomial
    # is the sum of its |index|
    levels = (sum(abs(n) for _fam, n in mono) for s in max(full, half, key=len)
              for (mono, _k) in s.terms)
    payload = {"level": level, "pass": ok, "results": results,
               "states_checked": {name: len(sts) for name, (sts, _check) in brackets.items()},
               "max_level_checked": max(levels)}
    _emit(_json(payload, "modealg-verify"), args.output)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _op_choices(command: str):
    """The --op values of a subcommand, in the order of the table."""
    prefix = f"{command} --op "
    return tuple(name[len(prefix):] for name in _OPS if name.startswith(prefix))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; main() runs cmd_<subcommand>."""
    p = argparse.ArgumentParser(
        prog="ghostcft",
        description="Evaluate and verify ghost-system correlators and blocks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    shared = {
        "charges": dict(required=True, help="comma list; exact fractions like 3/4 allowed"),
        "ell": dict(type=int, default=1),
        "tolerance": dict(type=float, default=1e-9),
        "seed": dict(type=int, default=42),
    }

    def common(sp, *flags):
        """--output, plus the shared flags the subcommand reads."""
        for flag in flags:
            sp.add_argument(f"--{flag}", **shared[flag])
        sp.add_argument("--output", help="write result to this path (atomic)")

    sp = sub.add_parser("eval", help="evaluate a closed form")
    sp.add_argument("--op", required=True, choices=_op_choices("eval"))
    sp.add_argument("--eta", type=complex)
    sp.add_argument("--w1", type=float, default=2.0)
    sp.add_argument("--w2", type=float, default=1.0)
    sp.add_argument("--w3", type=float, default=0.0)
    common(sp, "charges", "ell")
    # without --ell a block op runs its own flow; two-point, three-point and
    # selection run flow 1
    sp.set_defaults(ell=None)

    sp = sub.add_parser("residual", help="run a residual sweep")
    sp.add_argument("--op", required=True, choices=_op_choices("residual"))
    common(sp, "charges", "ell", "tolerance", "seed")
    sp.set_defaults(tolerance=None)

    sp = sub.add_parser("recurse", help="iterate the charge-shift recursion")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--block", type=int, default=1, choices=(1, 2))
    sp.add_argument("--eta-grid", type=_eta_grid)
    common(sp, "charges", "ell")

    sp = sub.add_parser("identity-check", help="verify the summation identity")
    sp.add_argument("--k", type=int, default=6)
    sp.add_argument("--draws", type=int, default=50)
    common(sp, "tolerance", "seed")

    sp = sub.add_parser("scan", help="emit block values over an eta grid")
    sp.add_argument("--j4", required=True)
    sp.add_argument("--eta-grid", type=_eta_grid, required=True)
    common(sp, "charges", "ell")
    sp.set_defaults(ell=2)

    sp = sub.add_parser("modealg-verify", help="run the mode-algebra suite")
    sp.add_argument("--level", type=int, default=4)
    sp.add_argument("--states", type=int, default=5)
    sp.add_argument("--index-range", type=int, default=2)
    common(sp)

    return p


def _attach_lists(argv: Sequence[str]) -> List[str]:
    """argv with the comma lists "--charges -0.3,1.3" and "--eta-grid
    -0.5,0.9,3" written as "--charges=-0.3,1.3": argparse takes a value that
    starts with '-' for an option unless it is a single negative number."""
    out: List[str] = []
    for tok in argv:
        if out and out[-1] in ("--charges", "--eta-grid") and re.match(r"-[\d.]", tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


# the least value of each bounded flag: below it a report would pass on an
# empty level, state list, index window or draw, or fail every check
_LEAST = {"level": 0, "states": 1, "index_range": 0, "k": 0, "draws": 0, "tolerance": 0}


def _check_bounds(args) -> None:
    for dest, least in _LEAST.items():
        value = getattr(args, dest, None)
        if value is not None and not least <= value < math.inf:
            raise UnsupportedShape(f"{args.command} needs a finite --{dest.replace('_', '-')} "
                                   f">= {least}; got {value}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(_attach_lists(sys.argv[1:] if argv is None else argv))
    try:
        _check_bounds(args)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (GhostCftError, ValueError) as exc:  # bad input; any other raise is a bug
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
