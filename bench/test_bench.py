"""Smoke test for the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.load_package()

import tracer  # noqa: E402  (needs the package on the path)
import verify  # noqa: E402
import workloads  # noqa: E402
from ghostcft.errors import (ChargeError, ConvergenceError, DegenerateError,  # noqa: E402
                             TruncationError)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
pytestmark = pytest.mark.filterwarnings("ignore::ghostcft.correlators.ConjecturalChargeWarning")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    """One round per run, one setup probe, one traced round."""
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(workloads, "TRACE_ROUNDS", dict.fromkeys(workloads.WORKLOADS, 1))


def test_benchmark_json_names_what_the_run_prints():
    spec = _spec()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    report_line, last_line = capsys.readouterr().out.strip().splitlines()[-2:]
    last = json.loads(last_line)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == workloads.ROUND_SIZE[workload]
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    report = json.loads(report_line)
    assert report["provenance"]["seed"] == 3
    assert {"python", "commit", "nproc", "loadavg_start"} <= set(report["provenance"])
    assert {"fail_frac", "wrong_frac"} <= set(report["end_to_end"])
    if trace:
        assert report["traced_result_mismatches"] == []
        assert report["hand_count_mismatches"] == []


def test_block_eval_keeps_the_known_defects(tiny, capsys):
    run.main(["--workload", "block-eval", "--seed", "3", "--seconds", "0.5", "--trace", "0"])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-2])
    assert report["end_to_end"]["fail_frac"]["value"] > 0  # the 2F1 continuation gap
    assert report["end_to_end"]["wrong_frac"]["value"] > 0  # log_blocks_l2's offset


def _job(kind, seed=3):
    """The first job of this kind in round 0 of any workload."""
    for wl in workloads.WORKLOADS.values():
        for job in wl.round_jobs(seed, 0, wl.make_inputs()):
            if job.kind == kind:
                return job
    raise LookupError(kind)


@pytest.mark.parametrize("kind, exc", [
    ("hyp2f1.outside", ConvergenceError("no continuation")),
    ("hyp2f1.sixth-root", ConvergenceError("no continuation")),
])
def test_known_raises_are_not_unexpected(kind, exc):
    outcome = verify.check(_job(kind), workloads.Raised(exc))
    assert outcome.status == "fail" and not outcome.bad


@pytest.mark.parametrize("kind, exc", [
    ("hyp2f1.series", ConvergenceError("new")),  # a region that did not raise
    ("hyp2f1.outside", DegenerateError("new")),  # a class the region did not raise
    ("act_current", TruncationError("new")),
    ("recursion_exact", ChargeError("new")),
    ("blocks_l2", ValueError("new")),
])
def test_other_raises_are_unexpected(kind, exc):
    outcome = verify.check(_job(kind), workloads.Raised(exc))
    assert outcome.status == "fail" and outcome.bad


def test_a_drift_in_a_kind_without_known_misses_is_unexpected():
    job = _job("blocks_l2")
    b1, b2 = workloads.run_job(job)
    assert verify.check(job, (b1, b2)).status == "ok"
    outcome = verify.check(job, (b1 * (1 + 1e-3), b2))
    assert outcome.status == "wrong" and outcome.bad


def test_a_known_miss_stays_known_within_its_envelope_only():
    job = _job("log_blocks_l2")
    regular, partner = workloads.run_job(job)
    outcome = verify.check(job, (regular, partner))
    assert outcome.status == "wrong" and not outcome.bad  # the j4 + 1e-3 offset
    outcome = verify.check(job, (regular * 1.5, partner))
    assert outcome.status == "wrong" and outcome.bad


def test_hand_count():
    assert tracer.hand_count_check() == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "modealg",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
