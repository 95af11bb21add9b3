"""ghostcft benchmark: run one workload from one seed and print its metrics.

    python3 bench/run.py --workload modealg --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One closed-loop caller (one process, one thread) issues whole rounds of the
workload's jobs back to back until ``--seconds`` of job time have passed,
then checks every job's output against its oracle.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same untimed jobs are replayed with spans around every public function
of each layer, and the metrics are the per-layer ones.  The line before it
holds the full report: provenance, every end-to-end metric with its sample
count, and the outcome counts.  ``NOTES.md`` describes the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

from tracer import LAYERS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_SAMPLES = 11  # fresh processes timed for setup_s
MIN_JOBS = 100     # so that p90 has at least ten samples beyond it

# Machine speed drifts by +-15% over seconds on a shared host.  Every
# CALIBRATE_EVERY seconds of job time the run times a fixed reference loop,
# and each job's time is scaled by REFERENCE_S / (that loop's time, averaged
# over the samples before and after the job): times are reported as they
# would read on a machine that runs the loop in REFERENCE_S.  The report
# line keeps the raw numbers too.
CALIBRATE_EVERY = 0.1
REFERENCE_S = 0.006

# setup_s is mostly imports, which track the machine's speed differently from
# arithmetic; it is scaled the same way by a reference of its own kind, the
# import of a fixed set of standard-library modules in the same fresh
# process, just before the set-up (SETUP_REFERENCE_S on the reference
# machine).
SETUP_REFERENCE = ("email.message", "email.parser", "xml.dom.minidom", "unittest", "pydoc")
SETUP_REFERENCE_S = 0.03

# The metrics of the last output line, with their units (BENCHMARK.json
# lists the same names).
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
              "ok_frac": "frac", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.{name}": unit for layer in LAYERS
       for name, unit in (("calls", "count"), ("errors", "count"), ("self_frac", "frac"))},
    "specfun.hyp2f1.calls": "count", "specfun.hyp2f1.self_frac": "frac",
    "specfun.hyp3f2.self_frac": "frac", "specfun.beta_incomplete.self_frac": "frac",
    "specfun.max_rel_err": "rel", "specfun.distinct_params_frac": "frac",
    "blocks.max_terms": "count", "blocks.terms_built": "count",
    "blocks.useful_term_frac": "frac", "blocks.value.self_frac": "frac",
    "blocks.canonical.self_frac": "frac",
    "modealg.act.self_frac": "frac", "modealg.checks.self_frac": "frac",
    "modealg.max_state_terms": "count", "modealg.state_terms_built": "count",
    "modealg.zero_result_frac": "frac",
    "kzbpz.recursion_step.calls": "count", "kzbpz.recursion_step.self_frac": "frac",
    "kzbpz.residual.self_frac": "frac", "correlators.wardform.self_frac": "frac",
    "trace.traced_s": "s", "trace.overhead_frac": "frac",
}


def load_package():
    """Import ghostcft from this checkout's src/, and nothing else."""
    init = os.path.join(SRC, "ghostcft", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: {init} not found; run from the root of a ghostcft checkout")
    sys.path.insert(0, SRC)
    import ghostcft
    if os.path.abspath(ghostcft.__file__) != init:
        sys.exit(f"error: imported ghostcft from {ghostcft.__file__}, not {init}")


def reference_loop() -> float:
    """Seconds taken by a fixed loop of Fraction, dict and complex arithmetic,
    the kinds of work ghostcft does."""
    t0 = time.perf_counter()
    acc, table, z = Fraction(0), {}, 0j
    for i in range(1, 1500):
        acc += Fraction(1, i % 37 + 1)
        table[i % 50] = table.get(i % 50, 0) + i
        z = z * 0.5 + complex(i, -i) / (i + 1)
    return time.perf_counter() - t0


def import_reference() -> float:
    """Seconds to import SETUP_REFERENCE here.  The modules are dropped from
    sys.modules afterwards, so ghostcft still pays for any it imports."""
    before = set(sys.modules)
    t0 = time.perf_counter()
    for name in SETUP_REFERENCE:
        importlib.import_module(name)
    seconds = time.perf_counter() - t0
    for name in set(sys.modules) - before:
        del sys.modules[name]
    return seconds


def setup_once(workload: str, seed: int):
    """Seconds for import ghostcft, input generation and one warm-up job,
    and the reference import's time right before."""
    reference = import_reference()
    t0 = time.perf_counter()
    load_package()
    import workloads
    wl = workloads.WORKLOADS[workload]
    jobs = wl.round_jobs(seed, 0, wl.make_inputs())
    workloads.run_job(jobs[0])
    return time.perf_counter() - t0, reference


def measure_setup(workload: str, seed: int) -> list:
    """setup_once in SETUP_SAMPLES fresh processes, one after another:
    [(raw seconds, reference-import seconds)]."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed:\n{proc.stderr}")
        samples.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return samples


def provenance(seed: int, load: tuple) -> dict:
    digest = hashlib.sha256()
    for base, _dirs, files in sorted(os.walk(os.path.join(SRC, "ghostcft"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load,
    }




class Run:
    """What the timed loop keeps: raw and scaled seconds per job, outcome
    counts, and for the rounds that the traced run replays, the results'
    fingerprints and the worst special-function error.  Nothing else grows
    with the number of jobs, so peak memory is the program's."""

    def __init__(self):
        self.raw, self.durations = array("d"), array("d")
        self.outcomes = Counter()  # (kind, status, unexpected) -> jobs
        self.unexpected = []
        self.prints = []
        self.specfun_max_err = 0.0
        self.rounds = self.jobs = 0
        self.references = [reference_loop()]
        self._pending = []

    def record(self, job, result, outcome, replayed: bool):
        import verify
        self.outcomes[job.kind, outcome.status, outcome.bad] += 1
        if outcome.bad and len(self.unexpected) < 20:
            self.unexpected.append({"kind": job.kind, "outcome": outcome._asdict(),
                                    "result": verify.fingerprint(result)[:300]})
        if replayed:
            self.prints.append(verify.fingerprint(result))
            if (job.kind.startswith(("hyp2f1.", "hyp3f2", "beta_incomplete"))
                    and outcome.err is not None):
                self.specfun_max_err = max(self.specfun_max_err, outcome.err)

    def count(self, status=None, bad=None) -> int:
        return sum(n for (_k, st, b), n in self.outcomes.items()
                   if status in (None, st) and bad in (None, b))

    def add_time(self, seconds: float):
        """Queue a raw job time; scale the queue at the next calibration."""
        self.jobs += 1
        self._pending.append(seconds)
        if sum(self._pending) >= CALIBRATE_EVERY:
            self.calibrate()

    def calibrate(self):
        self.references.append(reference_loop())
        speed = REFERENCE_S / ((self.references[-2] + self.references[-1]) / 2)
        self.raw.extend(self._pending)
        self.durations.extend(d * speed for d in self._pending)
        self._pending = []


def timed_loop(wl, seed: int, seconds: float, keep_rounds: int) -> Run:
    """Whole rounds back to back until `seconds` of job time have passed.

    Only the jobs are timed.  Between rounds (untimed) the next round is
    generated and the last one is checked and dropped, so memory does not
    grow with the number of jobs run.  The first job of round 0 has already
    run once as the warm-up."""
    import verify
    import workloads
    run = Run()
    inputs = wl.make_inputs()
    batch = wl.round_jobs(seed, 0, inputs)
    workloads.run_job(batch[0])
    elapsed = 0.0
    clock, run_job = time.perf_counter, workloads.run_job
    while True:
        results = []
        for job in batch:
            t0 = clock()
            result = run_job(job)
            dt = clock() - t0
            results.append(result)
            elapsed += dt
            run.add_time(dt)
        for job, result in zip(batch, results):
            run.record(job, result, verify.check(job, result), run.rounds < keep_rounds)
        run.rounds += 1
        if elapsed >= seconds and run.jobs >= MIN_JOBS and run.rounds >= keep_rounds:
            run.calibrate()
            return run
        batch = wl.round_jobs(seed, run.rounds, inputs)


def traced_replay(jobs):
    """Run the jobs again under the tracer; (results, tracer)."""
    import workloads
    from tracer import Tracer
    tracer = Tracer().install()
    results = []
    try:
        for i, job in enumerate(jobs):
            span = tracer.begin_job(i, job.kind)
            result = workloads.run_job(job)
            tracer.end_job(span, isinstance(result, workloads.Raised))
            results.append(result)
    finally:
        tracer.uninstall()
    return results, tracer


def metric(value, unit, **extra):
    return {"value": value, "unit": unit, **extra}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("modealg", "block-eval", "charge-shift"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_once(args.workload, args.seed)))
        return 0

    load = os.getloadavg()
    load_package()
    prov = provenance(args.seed, load)
    setup = measure_setup(args.workload, args.seed)

    import workloads
    wl = workloads.WORKLOADS[args.workload]
    trace_rounds = workloads.TRACE_ROUNDS[args.workload] if args.trace else 0
    run = timed_loop(wl, args.seed, args.seconds, trace_rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(run.durations)
    n_fail, n_wrong, n_bad = run.count("fail"), run.count("wrong"), run.count(bad=True)
    wall, raw_wall = sum(run.durations), sum(run.raw)
    ms = sorted(d * 1e3 for d in run.durations)
    raw_ms = sorted(d * 1e3 for d in run.raw)
    setup_raw = statistics.median(t for t, _ref in setup)
    e2e = {
        "setup_s": metric(statistics.median(t * SETUP_REFERENCE_S / ref for t, ref in setup),
                          "s", samples=len(setup), raw=setup_raw),
        "jobs_per_s": metric(attempted / wall, "1/s", samples=attempted, seconds=wall,
                             raw=attempted / raw_wall, raw_seconds=raw_wall),
        "job_p50_ms": metric(statistics.median(ms), "ms", samples=attempted,
                             raw=statistics.median(raw_ms)),
        "job_p90_ms": metric(statistics.quantiles(ms, n=10)[8], "ms", samples=attempted,
                             raw=statistics.quantiles(raw_ms, n=10)[8]),
        "ok_frac": metric((attempted - n_fail - n_wrong) / attempted, "frac", samples=attempted),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "fail_frac": metric(n_fail / attempted, "frac", samples=attempted),
        "wrong_frac": metric(n_wrong / attempted, "frac", samples=attempted),
    }
    by_kind = {}
    for (kind, status, bad), n in sorted(run.outcomes.items()):
        row = by_kind.setdefault(kind, {"ok": 0, "fail": 0, "wrong": 0, "unexpected": 0})
        row[status] += n
        row["unexpected"] += n * bad
    report = {"workload": args.workload, "provenance": prov, "rounds": run.rounds,
              "reference_loop_s": {"target": REFERENCE_S,
                                   "median": statistics.median(run.references),
                                   "samples": len(run.references)},
              "end_to_end": e2e, "outcomes": by_kind, "unexpected": run.unexpected}
    correct = n_bad == 0

    if args.trace:
        import verify
        from tracer import hand_count_check
        hand = hand_count_check()
        inputs = wl.make_inputs()
        jobs = [job for r in range(trace_rounds) for job in wl.round_jobs(args.seed, r, inputs)]
        before = reference_loop()
        traced, tracer = traced_replay(jobs)
        speed = REFERENCE_S / ((before + reference_loop()) / 2)
        mismatched = [i for i, res in enumerate(traced)
                      if verify.fingerprint(res) != run.prints[i]]
        layer, traced_wall = tracer.layer_metrics()
        layer["specfun.max_rel_err"] = run.specfun_max_err
        layer["trace.traced_s"] = traced_wall * speed
        layer["trace.overhead_frac"] = traced_wall * speed / sum(run.durations[:len(jobs)]) - 1
        per_layer = {name: metric(layer[name], unit) for name, unit in PER_LAYER.items()}
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl.gz")
        tracer.dump(spans_path)
        report.update({"traced_jobs": len(jobs), "spans": len(tracer.spans),
                       "spans_file": os.path.relpath(spans_path, ROOT),
                       "hand_count_mismatches": hand, "traced_result_mismatches": mismatched[:20],
                       "per_layer": per_layer})
        correct = correct and not hand and not mismatched
        metrics = per_layer
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}

    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_bad,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
