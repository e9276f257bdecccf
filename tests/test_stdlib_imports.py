"""The standard-library modules that `src/cobalt` imports stay fixed.

The benchmark harness forks every job from one process and keeps a
bytecode cache of what `import cobalt.cli` loads, so the set of
standard modules the package imports, at the top of a file or inside a
function, moves every job's `peak_rss_mb` and `wall_s`.  A prototype
that dropped `dataclasses` from the package raised `schur`
`peak_rss_mb` from 16.0 to 18.6 MB on every run, though no code got
slower; a per-job rise of that kind (`wall_s` and `cpu_s` up about
21 % on every workload, `setup_s` flat) is not import time.  A change
that must add or drop an import re-measures the benchmark first and
then updates STDLIB here.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cobalt"

STDLIB = {"csv", "dataclasses", "fractions", "functools", "itertools",
          "json", "math", "operator", "os", "random", "struct", "sys",
          "time", "types", "typing"}


def _imported(tree):
    """Top-level names of the absolute imports anywhere in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_src_imports_exactly_the_pinned_standard_modules():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_imported(ast.parse(path.read_text(encoding="utf-8"))))
    found.discard("cobalt")
    assert found == STDLIB
