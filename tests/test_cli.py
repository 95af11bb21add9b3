"""Command-line interface: exit codes, report schemas, file emission."""
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ghostcft import cli
from ghostcft import correlators as co
from ghostcft import kzbpz as kz
from ghostcft.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_residual_bpz_example(capsys):
    code, out = run(
        capsys, "residual", "--op", "bpz", "--ell", "2",
        "--charges", "0.3,0.4,1/2,0.8",
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 2
    for rep in payload:
        assert set(rep) == {"operator", "tolerance", "max_residual", "pass", "samples"}
        assert rep["pass"] is True
        assert rep["max_residual"] < 1e-8


def test_residual_ward_and_kz(capsys):
    code, out = run(
        capsys, "residual", "--op", "ward", "--ell", "1",
        "--charges", "0.3,0.45,0.27,-0.02",
    )
    assert code == 0
    code, out = run(
        capsys, "residual", "--op", "kz-m2", "--ell", "2",
        "--charges", "0.3,0.45,1.25",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_residual"] < 1e-10


@pytest.mark.parametrize("op, charges", [
    ("ward", "0.3,0.45,0.27,-0.02"), ("kz-m2", "0.3,0.45,1.25"),
    ("kz-m1", "0.3,0.45,0.27,-0.02"), ("kz-j0", "0.3,0.45,0.27,-0.02"),
    ("kz-decoupled", "0.3,0.45,0.27,-0.02"), ("bpz", "0.3,0.4,1/2,0.8"),
])
def test_residual_default_tolerance_is_the_engine_table(capsys, op, charges):
    from ghostcft.kzbpz import DEFAULT_TOLERANCES

    ell = "2" if op in ("kz-m2", "bpz") else "1"
    code, out = run(capsys, "residual", "--op", op, "--ell", ell, "--charges", charges)
    payload = json.loads(out)
    reports = payload if isinstance(payload, list) else [payload]
    assert code == 0
    assert {rep["tolerance"] for rep in reports} == {DEFAULT_TOLERANCES[op]}


def test_scan_emits_csv_columns(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _ = run(
        capsys, "scan", "--ell", "2", "--charges", "0.35,0.8",
        "--j4", "0.5001", "--eta-grid", "1e-6,0.5,50",
        "--output", str(out_path),
    )
    assert code == 0
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == [
        "eta_re", "eta_im", "block1_re", "block1_im", "block2_re", "block2_im",
    ]
    assert len(rows) == 51
    # near-log growth: (block1-block2)/(eta * eps) ~ log(eta) at j4 = 1/2+eps
    first = rows[1]
    eta0, b1, b2 = float(first[0]), float(first[2]), float(first[4])
    import math

    ratio = (b1 - b2) / (eta0 * 1e-4)
    assert abs(ratio - math.log(eta0)) < 0.1 * abs(math.log(eta0))


def test_scan_log_regime_exact_half(capsys, tmp_path):
    out_path = tmp_path / "scan_log.csv"
    code, _ = run(
        capsys, "scan", "--ell", "2", "--charges", "0.35,0.8",
        "--j4", "1/2", "--eta-grid", "1e-5,0.4,20",
        "--output", str(out_path),
    )
    assert code == 0
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert len(rows) == 21


def test_recurse_exact_output(capsys):
    code, out = run(
        capsys, "recurse", "--ell", "1", "--charges", "3/10,2/5,1/2,-1/5",
        "--k", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["block"] == "(1)*e^(7/2)*(1-e)^(0)"
    assert payload["final_charges"][2] == "7/2"


def test_recurse_numeric_flow_one(capsys):
    code, out = run(
        capsys, "recurse", "--ell", "1", "--charges=0.18,0.86,1.54,-1.58",
        "--k", "8", "--eta-grid", "0.2,0.6,3",
    )
    assert code == 0
    values = json.loads(out)["values"]
    assert len(values) == 3
    for v in values:
        want = v["eta"] ** (1.54 + 8)
        assert abs(complex(v["re"], v["im"]) - want) <= 1e-12 * want


_FLOW2_K20 = ["--ell", "2", "--charges", "0.3,0.4,0.5,0.8", "--k", "20",
              "--eta-grid", "0.2,0.8,3"]
_FLOW3_K40 = ["--ell", "3", "--charges", "0.3,0.4,0.5,1.8", "--k", "40",
              "--eta-grid", "0.2,0.6,3"]


@pytest.mark.parametrize("argv, eta, want", [
    # 60-digit mpmath values of the general-charge 3F2 blocks at j3 = 41/2
    (_FLOW2_K20, 0.8, -6.0903570235101998e-06),
    ([*_FLOW2_K20, "--block", "2"], 0.8, -5.3947473027712521e-06),
    # the exact recursion at the binary values of j1, j2, j3 and their exact
    # complement j4 = 3 - j1 - j2 - j3, summed at 60 digits
    (_FLOW3_K40, 0.4, 2.0788241486630208e-56),
    (_FLOW3_K40, 0.6, 1.3518489086276881e-41),
])
def test_recurse_float_charges_at_depth(capsys, argv, eta, want):
    # float charges run through the exact kernel on their binary values, j4
    # completed; summed termwise in double, the same blocks lose every digit
    code, out = run(capsys, "recurse", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is False and "block" not in payload
    (got,) = [complex(v["re"], v["im"]) for v in payload["values"] if v["eta"] == eta]
    assert abs(got - want) <= 1e-12 * abs(want)


def test_recurse_completes_float_j4_exactly(capsys):
    # 0.3 + 0.4 + 0.5 + 1.8 misses 3 by 5.6e-17 in binary, and 40 steps
    # amplify the miss to 1.8e-5; j4 runs as the exact complement instead
    code, out = run(capsys, "recurse", *_FLOW3_K40)
    assert code == 0
    j1, j2, j3 = Fraction(0.3), Fraction(0.4), Fraction(1, 2)
    j4 = 3 - j1 - j2 - j3
    want = co.conj_block_l3_powersum(j1, j2, j3 + 40, j4 - 40)
    values = json.loads(out)["values"]
    assert len(values) == 3
    for v in values:
        expected = complex(want.eval(v["eta"]))
        assert abs(complex(v["re"], v["im"]) - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("charges, want", [
    # 50-digit mpmath values of both general-charge blocks at eta = 0.45,
    # on the charges' binary values: 3F2s with an offset-30 and an offset-20
    # pair at w = -9/11
    ("0.2,0.7,30.5,-29.4", (-1.340052328820904e-23, -1.9579489518423154e-23)),
    ("0.3,0.4,20.5,-19.2", (-2.6152032777253573e-16, -3.8154853703171211e-16)),
])
def test_eval_conj_l2_at_deep_lattice_charges(capsys, charges, want):
    code, out = run(capsys, "eval", "--op", "conj-l2", "--ell", "2",
                    "--charges", charges, "--eta", "0.45")
    assert code == 0
    payload = json.loads(out)
    for key, value in zip(("block1", "block2"), want):
        assert abs(complex(payload[key]) - value) <= 1e-12 * abs(value)


def test_identity_check_passes(capsys):
    code, out = run(capsys, "identity-check", "--k", "4", "--draws", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert any("blocksum_k" in row for row in payload["rows"])


def test_identity_check_refuses_an_overflowing_depth(capsys):
    # past k of about 276 the Pochhammer symbols overflow a double: the draw is
    # refused by name rather than reported as "gap": NaN, which is not JSON
    assert main(["identity-check", "--k", "400", "--draws", "4", "--seed", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: identity at k = ") and err.count("\n") == 1


def test_eval_selection(capsys):
    code, out = run(
        capsys, "eval", "--op", "selection", "--ell", "5",
        "--charges", "0.1,0.2,0.3,4.4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["zero"] is True and payload["reason"] == "ell-window"


def test_eval_two_point(capsys):
    code, out = run(
        capsys, "eval", "--op", "two-point", "--ell", "1",
        "--charges", "1/2,1/2", "--w1", "4", "--w2", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(complex(payload["value"]) - 2) < 1e-12


def test_modealg_verify(capsys):
    code, out = run(
        capsys, "modealg-verify", "--level", "3", "--states", "3",
        "--index-range", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["results"]["null_vector"]["vanishes_on_charge_half"] is True


def test_modealg_verify_reports_what_it_checked(capsys):
    brackets = ("jj_commutators", "lj_commutators", "virasoro_c2", "singlet_c_minus2",
                "singlet_commutes_with_current")
    # up to level 4 with at most two creators, from b_-1..b_-4 and
    # g_-1..g_-4: the primary, 8 single modes and 14 pairs
    code, out = run(capsys, "modealg-verify", "--level", "4", "--states", "10000")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["states_checked"] == dict.fromkeys(brackets, 23)
    assert payload["max_level_checked"] == 4
    # by default five states are checked, the two singlet checks see
    # max(2, 5 // 2), and the fifth, b_-1 b_-3, is at level 4 though
    # --level is 8
    code, out = run(capsys, "modealg-verify", "--level", "8")
    payload = json.loads(out)
    assert list(payload["states_checked"].values()) == [5, 5, 5, 2, 2]
    assert payload["max_level_checked"] == 4


def test_eval_marks_an_off_lattice_charge_conjectural(capsys):
    argv = ["eval", "--op", "conj-l2", "--ell", "2", "--eta", "0.3"]
    code, out = run(capsys, *argv, "--charges", "0.3,0.4,0.7,0.6")
    assert code == 0
    assert json.loads(out)["conjectural"] is True
    code, out = run(capsys, *argv, "--charges", "0.3,0.4,1/2,0.8")
    assert set(json.loads(out)) == {"op", "block1", "block2"}


def test_readme_commands(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("ghostcft ")
    ]
    assert commands
    for argv in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if out.startswith(("{", "[")):
            json.loads(out, parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


@pytest.mark.parametrize("argv", [
    ["recurse", "--ell", "1", "--charges", "-0.3,1.3,1/2,-1/2", "--k", "2"],
    ["residual", "--op", "ward", "--ell", "1", "--charges", "-1/2,3/2"],
    ["eval", "--op", "two-point", "--charges", "-.25,1.25"],
])
def test_negative_charges_need_no_equals_sign(capsys, argv):
    i = argv.index("--charges")
    joined = argv[:i] + [f"--charges={argv[i + 1]}"] + argv[i + 2:]
    code, out = run(capsys, *argv)
    assert code == 0
    assert (code, out) == run(capsys, *joined)


@pytest.mark.parametrize("argv", [
    ["recurse", "--ell", "2", "--charges", "0.3,0.4,1/2,0.8", "--k", "2",
     "--eta-grid", "-0.5,0.9,3"],
    ["scan", "--charges", "0.3,0.4", "--j4", "0.8", "--eta-grid", "-0.5,0.9,3"],
])
def test_negative_eta_grid_needs_no_equals_sign(capsys, argv):
    i = argv.index("--eta-grid")
    joined = argv[:i] + [f"--eta-grid={argv[i + 1]}"] + argv[i + 2:]
    code, out = run(capsys, *argv)
    assert code == 0
    assert (code, out) == run(capsys, *joined)


def test_usage_error_exit_code(capsys):
    for argv in (
        ["residual", "--op", "nonsense", "--charges", "1"],
        # flags the subcommand does not read
        ["modealg-verify", "--level", "2", "--seed", "7"],
        ["recurse", "--ell", "1", "--charges", "3/10,2/5,1/2,-1/5", "--k", "1",
         "--tolerance", "1e-3"],
        ["identity-check", "--k", "2", "--draws", "2", "--ell", "2"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


def test_configuration_error_exit_code(capsys):
    # 4-point kz family needs flow 1
    code = main(["residual", "--op", "kz-m2", "--ell", "2",
                 "--charges", "0.3,0.4,0.5,0.8"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["residual", "--op", "ward", "--ell", "1", "--charges", "0.3,abc"],
    ["residual", "--op", "ward", "--ell", "1", "--charges", "1/0,0.4"],
    ["eval", "--op", "blocks-l2", "--ell", "2", "--charges", "0.3,0.4,1/2,0.8"],
    ["eval", "--op", "two-point", "--charges", "nan,1/2"],
    ["eval", "--op", "two-point", "--charges", "inf,0.4"],
    ["eval", "--op", "monodromy-ratio", "--ell", "2", "--charges=180.3,0.4,0.5,-179.2"],
    ["residual", "--op", "bpz", "--ell", "4", "--charges=0.3,0.4,1/2,2.8"],
    ["recurse", "--ell", "4", "--charges=0.3,0.4,0.5,-0.2", "--k", "1"],
    # a power that overflows a double, and a companion constant over j2 = 0
    ["residual", "--op", "ward", "--ell", "1", "--charges", "400,-399"],
    ["residual", "--op", "kz-m2", "--ell", "2", "--charges", "1,0/5,1"],
    # powers that each fit a double, with a product that does not
    ["residual", "--op", "ward", "--ell", "2", "--charges=1/2,-0.157,2.091,-210.6753253402907"],
    # scan emits the flow-2 blocks only
    ["scan", "--ell", "3", "--charges", "0.35,0.8", "--j4", "0.6", "--eta-grid", "0.1,0.5,3"],
    # a flag naming a flow other than the one the op runs
    ["eval", "--op", "blocks-l2", "--ell", "3", "--charges", "0.3,0.4,1/2,0.8", "--eta", "0.3"],
    ["residual", "--op", "kz-m1", "--ell", "3", "--charges", "0.3,0.45,0.27,-0.02"],
    ["residual", "--op", "kz-j0", "--ell", "3", "--charges", "0.3,0.45,0.27,-0.02"],
    ["residual", "--op", "kz-decoupled", "--ell", "3", "--charges", "0.3,0.45,0.27,-0.02"],
    ["residual", "--op", "kz-m2", "--ell", "3", "--charges", "0.37,0.63"],
    ["residual", "--op", "bpz", "--ell", "3", "--charges", "1/2,1/2"],
    ["recurse", "--ell", "1", "--charges", "3/10,2/5,1/2,-1/5", "--k", "1", "--block", "2"],
    ["recurse", "--ell", "3", "--charges", "3/10,2/5,1/2,9/5", "--k", "1", "--block", "2"],
    # charges that break the conservation the op assumes (sum = flow)
    ["residual", "--op", "kz-m2", "--charges=-7/4,-9/11,7/6", "--seed", "32"],
    ["residual", "--op", "kz-m1", "--charges=8/8,-5/3,-9/12"],
    ["residual", "--op", "bpz", "--ell", "2", "--charges", "0.3,0.4,1/2,0.9"],
    ["recurse", "--ell", "3", "--charges", "1/3,2/7,1/2,1/2", "--k", "2"],
    # a recursion step differentiates a 2F1 payload whose lower parameter is 0
    ["recurse", "--ell", "2", "--charges=15,-5,1/2,-17/2", "--k", "9"],
    # a probe charge j3 = 39/2, where the flow-2 block assumes 1/2
    ["recurse", "--ell", "2", "--charges=-37/4,-7/4,39/2,-13/2", "--k", "9",
     "--eta-grid", "0.05,0.95,4"],
    # 0 ** p with Re p < 0 at eta = 1
    ["recurse", "--ell", "3", "--charges=0.083252,1.856,0.5,0.560748", "--k", "1",
     "--eta-grid", "0.2,1.0,3"],
    # a mode-algebra suite over an empty index window, no state, a negative level
    ["modealg-verify", "--index-range", "-1"],
    ["modealg-verify", "--states", "0"],
    ["modealg-verify", "--level", "-1"],
    # a probe charge other than 1/2 where the op's block assumes it
    ["eval", "--op", "blocks-l2", "--charges", "0.3,0.4,7,0.8", "--eta", "0.3"],
    ["eval", "--op", "block-l3", "--charges", "0.3,0.4,0.7,1.6", "--eta", "0.3"],
    ["eval", "--op", "monodromy-ratio", "--charges", "0.3,0.4,0.6,0.7"],
    ["recurse", "--ell", "2", "--charges", "0.3,0.4,0.6,0.7", "--k", "1",
     "--eta-grid", "0.2,0.4,2"],
    ["recurse", "--ell", "3", "--charges", "0.3,0.4,0.6,1.7", "--k", "1"],
    # the standard-frame two-point function is 0 unless the flows sum to 1
    ["residual", "--op", "ward", "--ell", "2", "--charges", "0.3,1.7"],
    ["residual", "--op", "ward", "--ell", "0", "--charges", "0.3,-0.3"],
    # a flag below its bound (test_flag_below_its_bound_is_refused_by_name)
    ["identity-check", "--k", "-1"],
    ["identity-check", "--draws", "-3"],
    ["residual", "--op", "ward", "--tolerance", "-1", "--charges", "0.3,0.7"],
    ["residual", "--op", "ward", "--tolerance", "nan", "--charges", "0.3,0.7"],
    ["identity-check", "--tolerance", "inf"],
    # a 2F1 at a first parameter of order 1e5 sums to nan: refused, not printed
    ["eval", "--op", "blocks-l2", "--ell", "2", "--charges", "100000.0,-7/11,1/2,0.8",
     "--eta", "0.3"],
    ["scan", "--ell", "2", "--charges", "100000.0,-7/11", "--j4", "1/2",
     "--eta-grid", "0.1,0.9,4"],
    ["recurse", "--ell", "2", "--charges", "5000.0,-4998.7,1/2,0.2", "--k", "1",
     "--eta-grid", "0.1,0.9,3"],
])
def test_bad_input_exit_code(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert out == ""  # no partial report, so no NaN or Infinity on stdout


@pytest.mark.parametrize("op, flow, charges", [
    ("block-l1", "1", "0.3,0.4,1/2,0.8"), ("blocks-l2", "2", "0.3,0.4,1/2,0.8"),
    ("block-l3", "3", "0.3,0.4,1/2,1.8"), ("conj-l3", "3", "0.3,0.45,3/2,0.75"),
    ("conj-l2", "2", "0.3,0.4,1/2,0.8"), ("monodromy-ratio", "2", "0.3,0.4,1/2,0.8"),
])
def test_eval_block_op_runs_its_own_flow(capsys, op, flow, charges):
    # with no --ell a block op runs; --ell may only name the flow it runs
    argv = ["eval", "--op", op, "--charges", charges, "--eta", "0.3"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert (code, out) == run(capsys, *argv, "--ell", flow)


@pytest.mark.parametrize("flag, argv", [
    # an empty randrange, fewer draws than asked, a tolerance that fails or
    # passes every check, a recursion that would run backwards
    ("--k", ["identity-check", "--k", "-1"]),
    ("--draws", ["identity-check", "--draws", "-3"]),
    ("--tolerance", ["residual", "--op", "ward", "--tolerance", "-1", "--charges", "0.3,0.7"]),
    ("--tolerance", ["residual", "--op", "ward", "--tolerance", "nan", "--charges", "0.3,0.7"]),
    ("--tolerance", ["identity-check", "--tolerance", "inf"]),
    ("--k", ["recurse", "--ell", "1", "--charges", "3/10,2/5,1/2,-1/5", "--k", "-1"]),
])
def test_flag_below_its_bound_is_refused_by_name(capsys, flag, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {argv[0]} needs a finite {flag} >= ")
    assert out == ""


def test_zero_lower_parameter_still_reaches_the_pole_error(capsys):
    # j3 = 1/2 meets the probe premise, so the refusal is the recursion step's
    assert main(["recurse", "--ell", "2", "--charges=15,-5,1/2,-17/2", "--k", "9"]) == 2
    assert "lower parameter c = 0" in capsys.readouterr().err


@pytest.mark.parametrize("charges", ["3/10,2/5,1/2,-1/5", "0.2,0.3,0.7,-0.2"])
def test_eval_block_l1_is_the_flow_one_recursion_at_depth_zero(capsys, charges):
    # both read j3 as the third charge
    code, out = run(capsys, "eval", "--op", "block-l1", "--charges", charges, "--eta", "0.3")
    assert code == 0
    value = complex(json.loads(out)["value"])
    code, out = run(capsys, "recurse", "--ell", "1", "--k", "0", "--charges", charges,
                    "--eta-grid", "0.3,0.5,2")
    assert code == 0
    first = json.loads(out)["values"][0]
    assert first["eta"] == 0.3
    assert abs(value - complex(first["re"], first["im"])) <= 1e-15 * abs(value)


# the flags each subcommand needs besides the op, its charges and --ell
_EXTRA = {"eval": ["--eta", "0.3"], "residual": [], "recurse": ["--k", "1"],
          "scan": ["--j4", "0.8", "--eta-grid", "0.1,0.5,3"]}


def _argv(name, charges, ell):
    """A command of op ``name`` on charges meeting its premises at flow ell:
    the probe charge 1/2 where it has one, and j1 + ... + jN = ell."""
    js = [Fraction(3, 10), Fraction(9, 20), Fraction(1, 2), Fraction(7, 10), Fraction(1, 5)]
    js = js[:charges]
    if 2 <= charges <= 4:
        js[cli._PROBE[charges]] = Fraction(1, 2)
    if js:
        js[-1] += ell - sum(js)
    words = name.split()
    return words + _EXTRA[words[0]] + ["--ell", str(ell),
                                       "--charges=" + ",".join(map(str, js))]


def _outside_the_table():
    for name, op in cli._OPS.items():
        if op.shapes is None:  # any count from 1 up, at any flow
            yield pytest.param(name, _argv(name, 0, 1), "at least 1 charge; got 0",
                               id=f"{name}-N0")
            continue
        for n in range(7):
            if n not in op.shapes:
                yield pytest.param(name, _argv(name, n, 1), "charges; got",
                                   id=f"{name}-N{n}")
            elif op.shapes[n] is not None:
                for ell in set(range(5)) - op.shapes[n]:
                    yield pytest.param(name, _argv(name, n, ell), "runs flow",
                                       id=f"{name}-N{n}-ell{ell}")


@pytest.mark.parametrize("name, argv, rule", [
    *_outside_the_table(),
    pytest.param("eval --op two-point", ["eval", "--op", "two-point", "--charges", "1,2,3"],
                 "charges; got", id="fuzz-two-point-3"),
    pytest.param("eval --op block-l1", ["eval", "--op", "block-l1", "--ell", "1",
                                        "--charges", "0.3,9,9"], "charges; got",
                 id="fuzz-block-l1-3"),
    pytest.param("residual --op ward", ["residual", "--op", "ward", "--ell", "1",
                                        "--charges", "1/2"], "charges; got",
                 id="fuzz-ward-1"),
])
def test_shapes_outside_the_op_table_are_refused(capsys, name, argv, rule):
    assert main(argv) == 2, argv
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {name} ") and rule in err
    assert "unpack" not in err
    assert out == ""


def _inside_the_table():
    for name, op in cli._OPS.items():
        for n, flows in (op.shapes or {4: None}).items():
            for ell in sorted(flows or {1}):
                yield pytest.param(_argv(name, n, ell), id=f"{name}-N{n}-ell{ell}")


@pytest.mark.parametrize("argv", _inside_the_table())
def test_every_shape_in_the_op_table_runs(capsys, argv):
    assert main(argv) == 0, argv
    assert capsys.readouterr().err == ""


def _readme_row(name, n, op):
    flows = None if op.shapes is None else op.shapes[n]
    premises = ["`--eta`"] if op.eta else []
    if op.conserves:
        premises.append("conservation")
    probe = op.probe if flows is None else op.probe & flows
    if probe:
        rule = f"j{cli._PROBE[n] + 1} = 1/2"
        if probe != flows:
            rule += " at flow " + " or ".join(map(str, sorted(probe)))
        premises.append(rule)
    cells = [f"`{name}`", "1 or more" if n is None else str(n),
             "any" if flows is None else ", ".join(map(str, sorted(flows))),
             "; ".join(premises) or "none"]
    return "| " + " | ".join(cells) + " |"


def test_readme_op_table_matches_the_cli():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line.rstrip() for line in readme.splitlines() if line.startswith("| `")]
    want = [_readme_row(name, n, op) for name, op in cli._OPS.items()
            for n in (op.shapes or {None: None})]
    assert [re.sub(r" +\|", " |", r) for r in rows] == want


def _nan_report(*args, tolerance=None, label="planted", **kwargs):
    rep = kz.ResidualReport(label, tolerance=tolerance)
    rep.add({"sample": 0}, float("nan"))
    return rep


@pytest.mark.parametrize("plant, argv", [
    # a prefactor that is NaN at every sample makes every Ward residual NaN
    (lambda mp: mp.setattr(co.WardForm, "_prefactor", lambda self, ws: complex("nan")),
     ["residual", "--op", "ward", "--ell", "1", "--charges", "0.3,0.45,0.27,-0.02"]),
    # a residual engine that returns NaN, looked up where the op table runs it
    (lambda mp: mp.setattr(kz, "bpz_residual", _nan_report),
     ["residual", "--op", "bpz", "--ell", "2", "--charges", "0.3,0.4,1/2,0.8"]),
    (lambda mp: mp.setattr(cli.idn, "identity_gap", lambda case: float("nan")),
     ["identity-check", "--draws", "2"]),
], ids=["ward", "bpz", "identity-check"])
def test_nan_residual_is_refused_not_printed(capsys, monkeypatch, tmp_path, plant, argv):
    """A report that would carry a nan or inf (a NaN residual makes the
    report's max_residual infinite) is refused with a named error and exit
    2: nothing is printed, and no --output file is written."""
    plant(monkeypatch)
    command = " ".join(argv[:3]) if argv[0] == "residual" else argv[0]
    output = tmp_path / "report.json"
    for extra in ([], ["--output", str(output)]):
        code = main(argv + extra)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {command} gave a value that is not finite\n"
    assert not list(tmp_path.iterdir())


def test_commands_in_one_process_match_each_alone(capsys):
    # the parser is built once per process; a refused command in between
    # leaves nothing behind for the next one
    commands = [
        ["residual", "--op", "bpz", "--ell", "2", "--charges", "0.3,0.4,1/2,0.8"],
        ["residual", "--op", "kz-m1", "--charges=8/8,-5/3,-9/12"],
        ["modealg-verify", "--level", "2", "--states", "2"],
    ]

    def outcome(argv):
        code = main(argv)
        return (code,) + capsys.readouterr()

    together = [outcome(argv) for argv in commands]
    assert [r[0] for r in together] == [0, 2, 0]
    script = ("import sys; from ghostcft.cli import main; "
              "sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    for argv, got in zip(commands, together):
        alone = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                               capture_output=True, text=True)
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv


def test_programming_error_propagates(monkeypatch):
    import ghostcft.cli as cli

    def broken(args):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr(cli, "cmd_modealg_verify", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["modealg-verify", "--level", "2"])


def test_atomic_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run(
        capsys, "residual", "--op", "kz-m2", "--charges", "0.37,0.63",
        "--output", str(out_path),
    )
    assert code == 0
    assert out_path.exists()
    assert not (tmp_path / "report.json.tmp").exists()
    payload = json.loads(out_path.read_text())
    assert payload["pass"] is True


def test_deterministic_outputs_for_fixed_seed(capsys):
    code1, out1 = run(
        capsys, "residual", "--op", "bpz", "--ell", "2",
        "--charges", "0.3,0.4,1/2,0.8", "--seed", "7",
    )
    code2, out2 = run(
        capsys, "residual", "--op", "bpz", "--ell", "2",
        "--charges", "0.3,0.4,1/2,0.8", "--seed", "7",
    )
    assert (code1, out1) == (code2, out2)
