"""Run `cobalt` jobs, one forked child per job, and judge their output.

The parent imports `cobalt.cli` and nothing else of the library runs in
it.  Each job then forks a child from that state, so the library's
process-wide caches (the `grassmannian` lru_cache, each GrassRing's
degree cache, the partition-count table) start empty for every job, as
they do for a user who runs the command.  Interpreter start and import
are measured apart, as setup_s.
"""

import hashlib
import json
import os
import signal
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

JOB_TIMEOUT_S = 60
# Exit code of a child whose job raised instead of returning.
TRACEBACK_CODE = 70


def child_env(src, pycache):
    """Environment of a fresh interpreter that imports cobalt from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def import_cli(src):
    """Import cobalt.cli from `src` into this process."""
    sys.path.insert(0, str(src))
    import cobalt.cli
    return cobalt.cli


@dataclass
class Outcome:
    argv: list
    seconds: float
    cpu_s: float
    rss_mb: float
    code: int        # exit code, or -signal when the child was killed
    stdout: bytes
    stderr: bytes
    trace: dict      # the tracer's dump, when the job ran traced

    @property
    def sha256(self):
        return hashlib.sha256(self.stdout).hexdigest()

    @property
    def timed_out(self):
        return self.code == -signal.SIGALRM


class Runner:
    """Forks one child per job from a process that imported cobalt.cli."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir
        self.tracer = None
        self._out = tempfile.TemporaryFile(dir=workdir, buffering=0)
        self._err = tempfile.TemporaryFile(dir=workdir, buffering=0)
        self._trace = tempfile.TemporaryFile(dir=workdir, buffering=0)

    def close(self):
        for fh in (self._out, self._err, self._trace):
            fh.close()

    def run(self, job):
        for fh in (self._out, self._err, self._trace):
            fh.seek(0)
            fh.truncate()
        sys.stdout.flush()
        sys.stderr.flush()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            self._child(job.argv)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        trace = None
        if self.tracer is not None:
            self._trace.seek(0)
            raw = self._trace.read()
            trace = json.loads(raw) if raw else None
        return Outcome(job.argv, seconds, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status),
                       self._read(self._out), self._read(self._err), trace)

    @staticmethod
    def _read(fh):
        fh.seek(0)
        return fh.read()

    def _child(self, argv):
        code = TRACEBACK_CODE
        try:
            os.dup2(self._out.fileno(), 1)
            os.dup2(self._err.fileno(), 2)
            os.chdir(self.workdir)
            signal.alarm(JOB_TIMEOUT_S)
            if self.tracer is not None:
                self.tracer.reset()
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) \
                    else int(exc.code is not None)
            if self.tracer is not None:
                self._trace.write(json.dumps(self.tracer.dump()).encode())
        except BaseException:
            traceback.print_exc()
            code = TRACEBACK_CODE
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)


def _lookup(report, path):
    """Values at `path` in a JSON report; "*" matches every list element."""
    values = [report]
    for key in path:
        out = []
        for value in values:
            if key == "*" and isinstance(value, list):
                out.extend(value)
            elif isinstance(value, dict) and key in value:
                out.append(value[key])
        values = out
    return values


def problems(job, outcome, reference=None, first_sha=None):
    """Why `outcome` is not a correct run of `job`; empty when it is."""
    found = []
    if outcome.timed_out:
        return [f"timed out after {JOB_TIMEOUT_S} s"]
    if b"Traceback (most recent call last)" in outcome.stderr:
        found.append("raised a traceback")
    if outcome.code != job.code:
        found.append(f"exit code {outcome.code}, expected {job.code}")
    if reference is not None:
        if reference["argv"] != job.argv:
            found.append("argv differs from the reference job")
        elif reference["code"] != outcome.code \
                or reference["sha256"] != outcome.sha256:
            found.append("output differs from the reference")
    if first_sha is not None and first_sha != outcome.sha256:
        found.append("output differs from the first pass")
    if outcome.code in (0, 1) and not found:
        try:
            report = json.loads(outcome.stdout)
        except ValueError:
            return found + ["stdout is not JSON"]
        for path, want in job.must:
            got = _lookup(report, path)
            if not got or any(value != want for value in got):
                found.append(f"{'/'.join(map(str, path))} is {got}, "
                             f"expected {want}")
    return found
