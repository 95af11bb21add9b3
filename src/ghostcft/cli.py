"""Command-line front end: evaluation, residual sweeps, recursion, identity
checks, grid scans and mode-algebra verification.

Exit status: 0 when everything holds within tolerance, 1 on any failed
check, 2 on usage errors and on input the evaluators reject (a
GhostCftError or ValueError); any other exception propagates with its
traceback.  Output files are written atomically.  All random
draws come from a seeded generator (default seed 42).
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import re
import sys
import warnings
from fractions import Fraction
from typing import List, Optional, Sequence

from . import correlators as co
from . import identities as idn
from . import kzbpz as kz
from . import modealg
from .blocks import PowerSum
from .errors import ChargeError, GhostCftError, UnsupportedShape
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


def _report_json(reports) -> str:
    payload = [json.loads(rep.to_json()) for rep in reports]
    return json.dumps(payload if len(payload) > 1 else payload[0], indent=2)


# ----------------------------------------------------------------------
# subcommand: eval
# ----------------------------------------------------------------------


# the flow each block op of eval evaluates
_EVAL_FLOW = {"block-l1": 1, "blocks-l2": 2, "block-l3": 3, "conj-l3": 3, "conj-l2": 2,
              "monodromy-ratio": 2}


def cmd_eval(args) -> int:
    charges = _charges(args.charges)
    flow = _EVAL_FLOW.get(args.op)
    if flow is not None and args.ell not in (None, flow):
        raise ValueError(f"--op {args.op} evaluates flow {flow}; got --ell {args.ell}")
    ell = 1 if args.ell is None else args.ell
    if args.eta is None and args.op in ("block-l1", "blocks-l2", "block-l3", "conj-l3", "conj-l2"):
        raise ValueError(f"--op {args.op} needs --eta")
    eta = complex(args.eta) if args.eta is not None else None
    out = {}
    if args.op == "two-point":
        j1, j2 = charges
        p1 = co.GhostPrimary(j1, 0)
        p2 = co.GhostPrimary(j2, ell)
        val = co.two_point(p1, p2, args.w1, args.w2)
        out = {"op": args.op, "value": str(val)}
    elif args.op == "three-point":
        j1, j2, j3 = charges
        val = co.three_point(j1, j2, j3, ell, args.w1, args.w2, args.w3)
        out = {"op": args.op, "value": str(val)}
    elif args.op == "block-l1":
        (j3,) = charges[:1]
        out = {"op": args.op, "value": str(co.block_l1(j3, eta))}
    elif args.op == "blocks-l2":
        j1, j2, _j3, j4 = charges
        b1, b2 = co.blocks_l2(j1, j2, j4, eta)
        out = {"op": args.op, "block1": str(b1), "block2": str(b2)}
    elif args.op == "block-l3":
        j1, j2, _j3, j4 = charges
        out = {"op": args.op, "value": str(co.block_l3(j1, j2, j4, eta))}
    elif args.op == "conj-l3":
        j1, j2, j3, j4 = charges
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", co.ConjecturalChargeWarning)
            val = co.conj_block_l3(j1, j2, j3, j4, eta)
        out = {"op": args.op, "value": str(val)}
    elif args.op == "conj-l2":
        j1, j2, j3, j4 = charges
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", co.ConjecturalChargeWarning)
            b1, b2 = co.conj_blocks_l2(j1, j2, j3, j4, eta)
        out = {"op": args.op, "block1": str(b1), "block2": str(b2)}
    elif args.op == "monodromy-ratio":
        j1, j2, _j3, j4 = charges
        out = {"op": args.op, "value": str(co.monodromy_ratio_l2(j1, j2, j4))}
    elif args.op == "selection":
        fields = []
        flows = [0] * (len(charges) - 1) + [ell]
        for j, l in zip(charges, flows):
            fields.append(co.GhostPrimary(j, l))
        verdict = co.selection_rule(co.CorrelatorSpec(fields))
        out = {"op": args.op, "zero": verdict.zero, "reason": verdict.reason}
    else:
        raise SystemExit(2)
    _emit(json.dumps(out, indent=2), args.output)
    return 0


# ----------------------------------------------------------------------
# subcommand: residual
# ----------------------------------------------------------------------


def _ward_reports(charges, ell, tolerance, seed):
    rng = random.Random(seed)
    n = len(charges)
    h_block = None  # the WardForm default, H = 1
    if n == 4:
        h_block = PowerSum.single(rng.uniform(0.5, 1.5), rng.uniform(-0.7, 0.7),
                                  rng.uniform(-0.7, 0.7))
    if 2 <= n <= 4:
        cs, ws = co.standard_frame_data(*charges, ell)
    else:
        cs, ws = list(charges), [0] * n
    form = co.WardForm(cs, ws, h_block)
    points = kz.sample_insertions(n, seed=seed)
    reports = kz.ward_residuals(form, cs, ws, points, tolerance=tolerance)
    return list(reports.values())


def _kz_family(charges, ell):
    n = len(charges)
    if n == 2:
        return kz.TwoPointFamily()
    if n == 3:
        return kz.ThreePointFamily(ell)
    if n == 4:
        if ell != 1:
            raise ValueError("kz residual families cover the flow-1 4-point case")
        return kz.FourPointL1Family()
    raise ValueError(f"no charge-shift family for N = {n}")


def _bpz_reports(charges, ell, tolerance, seed):
    n = len(charges)
    points = kz.sample_insertions(n, seed=seed)
    reports = []
    if n == 2:
        j1, j2 = charges
        F = kz.TwoPointFamily().base((j1, j2))
        reports.append(
            kz.bpz_residual(F, 0, F.charges, F.weights, points,
                            tolerance=tolerance, label="bpz-2pt")
        )
    elif n == 3:
        j1, j2, j3 = charges
        fam = kz.ThreePointFamily(ell) if ell in (1, 2) else None
        if fam is None:
            raise ValueError("3-point forms exist for ell in {1, 2}")
        F = fam.base((j1, j2, j3))
        reports.append(
            kz.bpz_residual(
                F, 0, F.charges, F.weights, points,
                rhs=kz.threept_bpz_rhs(j2, ell), tolerance=tolerance,
                label=f"bpz-3pt-l{ell}",
            )
        )
    else:
        j1, j2, j3, j4 = charges
        blocks = co.fourpoint_blocksums(ell, j1, j2, j4)
        names = ("block1", "block2") if ell == 2 else ("power", "beta")
        for name, blk in zip(names, blocks):
            F = co.unspecialize_block(blk, j1, j2, j3, j4, ell)
            reports.append(
                kz.bpz_residual(F, 2, F.charges, F.weights, points,
                                tolerance=tolerance, label=f"bpz-4pt-l{ell}-{name}")
            )
    return reports


def cmd_residual(args) -> int:
    charges = _charges(args.charges)
    if args.tolerance is None:  # the engine's own default
        args.tolerance = kz.DEFAULT_TOLERANCES[args.op]
    # the first-order identities and the two-point family exist at flow 1 only
    if args.ell != 1 and args.op in ("kz-m1", "kz-j0", "kz-decoupled"):
        raise ValueError(f"--op {args.op} checks a flow-1 identity; got --ell {args.ell}")
    if args.ell != 1 and args.op in ("kz-m2", "bpz") and len(charges) == 2:
        raise ValueError(f"--op {args.op} on two charges checks the flow-1 two-point "
                         f"function; got --ell {args.ell}")
    # the charge-shift and BPZ forms assume conservation, sum_i j_i = flow
    if args.op in ("kz-m2", "kz-m1", "bpz") and not co.charge_conserved(sum(charges) - args.ell):
        raise ChargeError(f"--op {args.op} assumes charge conservation, j1 + ... + jN = "
                          f"{args.ell} (the flow); these charges sum to {sum(charges)}")
    if args.op == "ward":
        reports = _ward_reports(charges, args.ell, args.tolerance, args.seed)
    elif args.op == "kz-m2":
        fam = _kz_family(charges, args.ell)
        points = kz.sample_insertions(len(charges), seed=args.seed)
        reports = [kz.kz_residual_m2(fam, tuple(charges), points,
                                     tolerance=args.tolerance)]
    elif args.op == "kz-m1":
        fam = _kz_family(charges, 1)
        points = kz.sample_insertions(len(charges), seed=args.seed)
        reports = [kz.kz_residual_m1_l1(fam, tuple(charges), points,
                                        tolerance=args.tolerance)]
    elif args.op == "kz-j0":
        j1, j2, j3, j4 = charges
        fam = kz.FourPointL1Family()
        blk = fam.specialized((j1, j2, j3, j4))
        shifted = fam.specialized((j1, j2, j3 + 1, j4 - 1))
        reports = [
            kz.kz_specialized_j0_residual(blk, shifted, tolerance=args.tolerance)
        ]
    elif args.op == "kz-decoupled":
        j1, j2, j3, j4 = charges
        blk = kz.FourPointL1Family().specialized((j1, j2, j3, j4))
        reports = [kz.kz_decoupled_residual(blk, j3, tolerance=args.tolerance)]
    elif args.op == "bpz":
        reports = _bpz_reports(charges, args.ell, args.tolerance, args.seed)
    else:
        raise SystemExit(2)
    _emit(_report_json(reports), args.output)
    return 0 if all(rep.passes for rep in reports) else 1


# ----------------------------------------------------------------------
# subcommand: recurse
# ----------------------------------------------------------------------


def cmd_recurse(args) -> int:
    charges = _charges(args.charges)
    if len(charges) != 4:
        raise ValueError("recurse needs four charges j1,j2,j3,j4")
    j1, j2, j3, j4 = charges
    exact = all_exact(j1, j2, j3, j4)
    ell = args.ell
    if ell not in (1, 2, 3):
        raise ValueError("recursion families exist for ell in {1, 2, 3}")
    if args.block == 2 and ell != 2:
        raise ValueError(f"--block 2 picks the second flow-2 block; at --ell {ell} recurse "
                         f"runs the flow-{ell} power block")
    if not co.charge_conserved(sum(charges) - ell):
        raise ChargeError(f"recurse assumes charge conservation, j1 + j2 + j3 + j4 = {ell} "
                          f"(the flow); these charges sum to {sum(charges)}")
    if ell == 1:
        block = kz.FourPointL1Family(Fraction(1) if exact else 1.0).specialized(charges)
    elif ell == 2:
        block = co.fourpoint_blocksums(2, j1, j2, j4)[args.block - 1]
    else:
        # the monodromy-selected power block; exact inputs keep it exact
        block = (
            co.block_l3_powersum(j1, j2, j4)
            if exact
            else co.fourpoint_blocksums(3, j1, j2, j4)[0]
        )
    result = kz.recursion_iterate(block, (j1, j2, j3, j4), ell, args.k)
    payload = {
        "ell": ell,
        "k": args.k,
        "charges": [str(c) for c in charges],
        "final_charges": [str(j1), str(j2), str(j3 + args.k), str(j4 - args.k)],
        "exact": isinstance(result, PowerSum) and result.is_exact(),
    }
    if isinstance(result, PowerSum):
        payload["block"] = result.canonical().to_text() if result.is_exact() else result.to_text()
    if args.eta_grid:
        values = []
        for eta in args.eta_grid:
            v = to_complex(result.eval(eta)) if isinstance(result, PowerSum) else result.value(eta)
            values.append({"eta": eta, "re": v.real, "im": v.imag})
        payload["values"] = values
    _emit(json.dumps(payload, indent=2), args.output)
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
    _emit(json.dumps(payload, indent=2), args.output)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# subcommand: scan
# ----------------------------------------------------------------------


def cmd_scan(args) -> int:
    if args.ell != 2:
        raise ValueError(f"scan emits the flow-2 blocks; got --ell {args.ell}, need 2")
    charges = _charges(args.charges)
    j1, j2 = charges[:2]
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
        b1, b2 = to_complex(b1), to_complex(b2)
        writer.writerow(
            [f"{eta:.12g}", "0", f"{b1.real:.15g}", f"{b1.imag:.15g}",
             f"{b2.real:.15g}", f"{b2.imag:.15g}"]
        )
    _emit(buf.getvalue(), args.output)
    return 0


# ----------------------------------------------------------------------
# subcommand: modealg-verify
# ----------------------------------------------------------------------


def cmd_modealg_verify(args) -> int:
    # below these bounds the report would pass on an empty level, state list
    # or index window
    for flag, value, least in (("--level", args.level, 0), ("--states", args.states, 1),
                               ("--index-range", args.index_range, 0)):
        if value < least:
            raise UnsupportedShape(f"modealg-verify needs {flag} >= {least}; got {value}")
    level = args.level
    rep = modealg.chi_null_check()
    states = modealg.basis_states(Fraction(1, 3), 0, max_level=level, max_factors=2)
    window = range(-args.index_range, args.index_range + 1)
    results = {
        "null_vector": {
            "singlet_form_matches": rep.singlet_form_matches,
            "vanishes_on_charge_half": rep.vanishes_on_charge_half,
            "nonzero_on_generic_charge": rep.nonzero_on_generic_charge,
        },
        "jj_commutators": modealg.check_jj_commutators(states[: args.states], window),
        "lj_commutators": modealg.check_lj_commutators(states[: args.states], window),
        "virasoro_c2": modealg.check_virasoro(
            states[: args.states], Fraction(2), modealg.act_virasoro, window
        ),
        "singlet_c_minus2": modealg.check_virasoro(
            states[: max(2, args.states // 2)], Fraction(-2), modealg.act_singlet, window
        ),
        "singlet_commutes_with_current": modealg.check_singlet_commutes_with_current(
            states[: max(2, args.states // 2)], window
        ),
        "flow_vacuum_conditions": modealg.check_flow_vacuum_conditions(),
    }
    ok = rep.ok and all(
        v is True for k, v in results.items() if isinstance(v, bool)
    )
    payload = {"level": level, "pass": ok, "results": results}
    _emit(json.dumps(payload, indent=2), args.output)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


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
    sp.add_argument("--op", required=True,
                    choices=("two-point", "three-point", "block-l1", "blocks-l2",
                             "block-l3", "conj-l3", "conj-l2", "monodromy-ratio",
                             "selection"))
    sp.add_argument("--eta", type=complex)
    sp.add_argument("--w1", type=float, default=2.0)
    sp.add_argument("--w2", type=float, default=1.0)
    sp.add_argument("--w3", type=float, default=0.0)
    common(sp, "charges", "ell")
    # without --ell a block op runs its own flow; two-point, three-point and
    # selection run flow 1
    sp.set_defaults(ell=None)

    sp = sub.add_parser("residual", help="run a residual sweep")
    sp.add_argument("--op", required=True,
                    choices=("ward", "kz-m2", "kz-m1", "kz-j0", "kz-decoupled",
                             "bpz"))
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(_attach_lists(sys.argv[1:] if argv is None else argv))
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (GhostCftError, ValueError) as exc:  # bad input; any other raise is a bug
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
