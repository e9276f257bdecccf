"""Every function the benchmark tracer expects is reached by its workload.

`perfbench/tracer.py` lists in EXPECTED the functions each workload
must call; the traced benchmark fails a run in which one records no
call.  Here the tracer is loaded by path, unchanged, and installed in a
fresh interpreter, which runs each workload's seed-0 job list from
`perfbench/workloads.py` once, one forked child per job as the
benchmark does.  A refactor that routes a workload around an expected
function then fails this test, and not only the traced benchmark.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, sys, tempfile
from pathlib import Path

root = Path(sys.argv[1])
sys.path.insert(0, str(root / "perfbench"))
from jobs import Runner, import_cli, problems
from tracer import EXPECTED, PassTrace, Tracer
from workloads import make_jobs

cli = import_cli(root / "src")
tracer = Tracer()
tracer.install()
report = {"missing": tracer.missing, "unreached": {}, "failed": []}
with tempfile.TemporaryDirectory() as workdir:
    runner = Runner(cli, workdir)
    runner.tracer = tracer
    for workload, expected in EXPECTED.items():
        jobs = make_jobs(workload, 0)
        for job in jobs:
            job.write_files(Path(workdir))
        trace = PassTrace()
        for job in jobs:
            outcome = runner.run(job)
            if outcome.trace is not None:
                trace.add(outcome.trace)
            found = problems(job, outcome)
            if found:
                report["failed"].append([job.argv, found])
        report["unreached"][workload] = [
            key for key in expected if trace.calls(key) == 0]
    runner.close()
print(json.dumps(report))
"""


def test_every_expected_function_records_a_call():
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT)],
                         capture_output=True, text=True, timeout=600,
                         cwd=ROOT)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["missing"] == []
    assert report["failed"] == []
    unreached = report["unreached"]
    assert unreached and {w: keys for w, keys in unreached.items()
                          if keys} == {}
