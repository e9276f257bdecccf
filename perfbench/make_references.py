"""Record the expected exit code and stdout SHA-256 of every job of each
workload's default seed in references.json.

    python3 perfbench/make_references.py

run.py compares default-seed runs against this file.  Regenerate it only
when the job lists change, or when a change to cobalt is meant to change
its output, and say which in that change.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from jobs import Runner, import_cli, problems
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs


def main():
    cli = import_cli(run.SRC)
    run.BUILD.mkdir(parents=True, exist_ok=True)
    references, bad = {}, []
    for workload in sorted(WORKLOADS):
        workdir = Path(tempfile.mkdtemp(prefix="refs-", dir=run.BUILD))
        runner = Runner(cli, workdir)
        entries = []
        try:
            for job in make_jobs(workload, DEFAULT_SEED):
                job.write_files(workdir)
                outcome = runner.run(job)
                bad += [f"{' '.join(job.argv)}: {p}"
                        for p in problems(job, outcome)]
                entries.append({"argv": job.argv, "code": outcome.code,
                                "sha256": outcome.sha256})
        finally:
            runner.close()
            shutil.rmtree(workdir, ignore_errors=True)
        references[workload] = {"seed": DEFAULT_SEED, "jobs": entries}
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    path = run.HERE / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
