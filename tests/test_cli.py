"""Command-line interface: exit codes, report schemas, file emission."""
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_identity_check_passes(capsys):
    code, out = run(capsys, "identity-check", "--k", "4", "--draws", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert any("blocksum_k" in row for row in payload["rows"])


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
    ["recurse", "--ell", "2", "--charges=-37/4,-7/4,39/2,-13/2", "--k", "9",
     "--eta-grid", "0.05,0.95,4"],
    # 0 ** p with Re p < 0 at eta = 1
    ["recurse", "--ell", "3", "--charges=0.083252,1.856,0.5,0.560748", "--k", "1",
     "--eta-grid", "0.2,1.0,3"],
    # a mode-algebra suite over an empty index window, no state, a negative level
    ["modealg-verify", "--index-range", "-1"],
    ["modealg-verify", "--states", "0"],
    ["modealg-verify", "--level", "-1"],
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


def test_nan_residual_fails_its_report(capsys, monkeypatch):
    # a NaN residual, planted through a prefactor that is NaN at every
    # sample, must fail its report, not pass
    from ghostcft.correlators import WardForm

    monkeypatch.setattr(WardForm, "_prefactor", lambda self, ws: complex("nan"))
    code, out = run(capsys, "residual", "--op", "ward", "--ell", "1",
                    "--charges", "0.3,0.45,0.27,-0.02")
    reports = {rep["operator"]: rep for rep in json.loads(out)}
    residuals = [s["residual"] for s in reports["L-1"]["samples"]]
    assert any(r != r for r in residuals)
    assert reports["L-1"]["pass"] is False
    assert reports["L-1"]["max_residual"] == float("inf")
    assert code == 1


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
