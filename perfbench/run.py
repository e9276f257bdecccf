"""Cold-start benchmark of the `cobalt` command line.

    python3 perfbench/run.py --workload schur --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout that holds `src/cobalt`; nothing
needs installing.  One client runs the workload's job list again and
again (a closed loop: each job starts after the previous one exits)
for about --seconds, at least MIN_PASSES times.  Every job is a
real `cobalt` argv run in a child forked from a process that has only
imported `cobalt.cli` (see jobs.py).

--trace 0 reports the end-to-end metrics: wall_s, cpu_s and peak_rss_mb
as medians over passes, and setup_s, the median time of a fresh
interpreter that imports cobalt.cli.  The three times are scaled to the
speed of a reference machine by the calibration timed before every job
(calibrate.py); the raw times are in the run record.  --trace 1 runs
untraced passes for --seconds, then two traced passes, and reports the
per-layer metrics of tracer.py plus trace.overhead, traced over
untraced wall_s.

Every output is checked (jobs.problems); a job that fails counts in
"failed".  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  A full record of the run, with
per-job times and exit codes, goes to .bench_build/perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
PYCACHE = BUILD / "pycache"

sys.pycache_prefix = str(PYCACHE)

from calibrate import REFERENCE_S, Calibrator  # noqa: E402
from jobs import Runner, child_env, import_cli, problems  # noqa: E402
from tracer import EXPECTED, PER_LAYER, PassTrace, Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs  # noqa: E402

MIN_PASSES = 3
# No pass starts after this many seconds, so a much slower or hanging
# program still ends the run well within three minutes.
HARD_STOP_S = 100
TRACED_PASSES = 2
# Setup is timed between passes, so its samples spread over the run.
SETUP_PER_PASS = 2
END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


def time_setup():
    """Seconds for a fresh interpreter to start and import cobalt.cli."""
    start = time.perf_counter()
    # No timeout: with one, subprocess polls and rounds waits to 50 ms.
    subprocess.run([sys.executable, "-c", "import cobalt.cli"],
                   env=child_env(SRC, PYCACHE), cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - start


def load_references(workload, seed):
    """Committed exit codes and stdout hashes, for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    path = HERE / "references.json"
    if not path.is_file():
        return []
    return json.loads(path.read_text()).get(workload, {}).get("jobs", [])


class Run:
    """One benchmark run: the job list, its passes and their verdicts."""

    def __init__(self, runner, calibrator, jobs, references):
        self.runner = runner
        self.calibrator = calibrator
        self.jobs = jobs
        self.references = references
        self.first_sha = None
        self.records = []       # one dict per pass
        self.failures = []
        self.timed_out = False

    def one_pass(self, label):
        calibration = []
        outcomes = []
        for index, job in enumerate(self.jobs):
            calibration.append(self.calibrator.measure())
            outcome = self.runner.run(job)
            reference = None
            if self.references is not None:
                reference = (self.references[index]
                             if index < len(self.references)
                             else {"argv": None})
            first = self.first_sha[index] if self.first_sha else None
            found = problems(job, outcome, reference, first)
            if found:
                self.failures.append({"pass": label, "argv": job.argv,
                                      "problems": found})
            outcomes.append((outcome, found))
            if outcome.timed_out:
                self.timed_out = True
                break
        if self.first_sha is None and not self.timed_out:
            self.first_sha = [o.sha256 for o, _ in outcomes]
        self.records.append({
            "label": label,
            "calibration_s": calibration,
            "wall_s": sum(o.seconds for o, _ in outcomes),
            "cpu_s": sum(o.cpu_s for o, _ in outcomes),
            "peak_rss_mb": max(o.rss_mb for o, _ in outcomes),
            "jobs": [{"argv": o.argv, "seconds": o.seconds, "cpu_s": o.cpu_s,
                      "rss_mb": o.rss_mb, "code": o.code, "sha256": o.sha256,
                      "ok": not found} for o, found in outcomes]})
        return outcomes

    @property
    def attempted(self):
        return sum(len(r["jobs"]) for r in self.records)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def traced_checks(workload, traces, tracer):
    """Why the traced passes cannot be trusted; empty when they can."""
    found = [f"cannot find {key}" for key in tracer.missing]
    first = traces[0]
    for key in EXPECTED[workload]:
        if first.calls(key) == 0:
            found.append(f"{key} recorded no call on {workload}")

    def counts(trace):
        calls = {}
        for (key, _), rec in trace.spans.items():
            calls[key] = calls.get(key, 0) + rec[0]
        return calls, trace.counters, trace.distinct, trace.errors

    if any(counts(t) != counts(first) for t in traces[1:]):
        found.append("traced passes disagree on counts")
    return found


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "cobalt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def benchmark(args, workdir):
    jobs = make_jobs(args.workload, args.seed)
    for job in jobs:
        job.write_files(workdir)
    if not args.trace:
        time_setup()        # writes the bytecode cache
    setup = []
    # Forked before cobalt is imported: see calibrate.py.
    calibrator = Calibrator()
    try:
        runner = Runner(import_cli(SRC), workdir)
    except BaseException:
        calibrator.close()
        raise
    run = Run(runner, calibrator, jobs,
              load_references(args.workload, args.seed))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "commit": commit(), "source_sha256": source_digest(),
              "python": platform.python_version(),
              "nproc": os.cpu_count(), "platform": platform.platform()}
    try:
        # Start a pass only if a typical one still ends within --seconds.
        start = time.perf_counter()
        durations = []
        while not run.timed_out:
            elapsed = time.perf_counter() - start
            if run.records and elapsed > HARD_STOP_S:
                break
            if len(durations) >= MIN_PASSES and \
                    elapsed + statistics.median(durations) > args.seconds:
                break
            began = time.perf_counter()
            run.one_pass(f"untraced-{len(run.records)}")
            if not args.trace:
                setup += [time_setup() for _ in range(SETUP_PER_PASS)]
            durations.append(time.perf_counter() - began)
        timed = list(run.records)
        walls = [r["wall_s"] for r in timed]
        self_checks = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            runner.tracer = tracer
            traces = []
            while len(traces) < TRACED_PASSES and not run.timed_out:
                trace = PassTrace()
                for outcome, _ in run.one_pass(f"traced-{len(traces)}"):
                    if outcome.trace is not None:
                        trace.add(outcome.trace)
                traces.append(trace)
            units = dict(PER_LAYER)
            everything = {}
            if len(traces) == TRACED_PASSES:
                self_checks = traced_checks(args.workload, traces, tracer)
                everything = layer_metrics(traces, tracer.group_of)
                traced_walls = [r["wall_s"] for r in run.records[len(timed):]]
                everything["trace.overhead"] = \
                    statistics.median(traced_walls) / statistics.median(walls)
                record["spans"] = traces[0].span_rows()
        else:
            scale = REFERENCE_S / statistics.median(
                c for r in timed for c in r["calibration_s"])
            record["scale"] = scale
            everything = {
                "wall_s": statistics.median(walls) * scale,
                "cpu_s": statistics.median(r["cpu_s"] for r in timed) * scale,
                "peak_rss_mb": statistics.median(
                    r["peak_rss_mb"] for r in timed),
                "setup_s": statistics.median(setup) * scale}
            units = dict(END_TO_END)
    finally:
        runner.close()
        calibrator.close()
    absent = [name for name in units if name not in everything]
    if absent:
        self_checks.append(f"metrics not produced: {', '.join(absent)}")
    metrics = {name: {"value": everything.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    record.update(setup_s=setup, passes=run.records, failures=run.failures,
                  self_checks=self_checks, metrics=metrics)
    return run, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cobalt" / "cli.py").is_file():
        print(f"perfbench: no cobalt sources under {SRC}", file=sys.stderr)
        return 2

    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    try:
        run, record = benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))

    walls = [r["wall_s"] for r in run.records
             if r["label"].startswith("untraced")]
    q1, q2, q3 = quartiles(walls)
    print(f"{args.workload} seed {args.seed}: {len(run.jobs)} jobs, "
          f"{len(walls)} untraced passes, wall_s median {q2:.4f} "
          f"(quartiles {q1:.4f}, {q3:.4f})")
    for failure in run.failures[:10]:
        print(f"FAILED {failure['pass']} {' '.join(failure['argv'])}: "
              f"{'; '.join(failure['problems'])}", file=sys.stderr)
    for problem in record["self_checks"]:
        print(f"SELF-CHECK {problem}", file=sys.stderr)
    print(f"record: {out.relative_to(ROOT)}")
    failed = len(run.failures)
    print(json.dumps({"correct": failed == 0 and not record["self_checks"],
                      "attempted": run.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
