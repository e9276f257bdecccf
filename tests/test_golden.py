"""Byte-identity guard: fixed CLI commands keep their exit code and stdout.

`golden_outputs.json` maps each command to its exit code and the SHA-256
of its stdout.  A refactor that must not change any report runs these
commands against the recorded hashes.  To record them again, for a
change that is meant to alter output, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of the JSON file.
"""

import hashlib
import io
import json
import os
import pathlib
import tempfile
from contextlib import redirect_stdout

from cobalt.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_outputs.json")

# x + y - 2*beta*x*y over Q[beta, 1/beta], read by `hopf --induced`
LAW_FILE = {
    "ring": {"base": "Q",
             "generators": [{"name": "beta", "adams_degree": 1,
                             "invertible": True}],
             "relations": []},
    "law": {"order": 3, "exact": True,
            "coefficients": [{"i": 1, "j": 1, "value": "-2*beta"}]},
}

# Z[t]/(2t^2) with the relation 6e: integer preimages with witnesses
TORSION_MODULE = {
    "ring": {"base": "Z",
             "generators": [{"name": "t", "adams_degree": 1}],
             "relations": ["2*t^2"]},
    "generators": [{"name": "e", "adams_degree": 0}],
    "relations": [{"e": 6}],
}

# two generators over Q[beta]: rational preimages
RATIONAL_MODULE = {
    "ring": {"base": "Q",
             "generators": [{"name": "beta", "adams_degree": 1}],
             "relations": []},
    "generators": [{"name": "e", "adams_degree": 0},
                   {"name": "f", "adams_degree": 1}],
    "relations": [{"e": "3*beta^2", "f": "2*beta"}, {"f": "beta^2"}],
}

# the additive law over Q[t]: the two units stay apart
ADDITIVE_LAW_FILE = {
    "ring": {"base": "Q",
             "generators": [{"name": "t", "adams_degree": 1}],
             "relations": []},
    "law": "additive",
}

# Z[u, t] with u in degree 0: every enumeration meets the exponent bound
DEGREE_ZERO_MODULE = {
    "ring": {"base": "Z",
             "generators": [{"name": "u", "adams_degree": 0},
                            {"name": "t", "adams_degree": 1}],
             "relations": ["u*t - 2*t"]},
    "generators": [{"name": "e", "adams_degree": 0}],
    "relations": [{"e": "3*u"}],
}

# Z[c, 1/c] with c in degree -1: coefficients for `oriented --coeff`
LAURENT_COEFF = {"base": "Z",
                 "generators": [{"name": "c", "adams_degree": -1,
                                 "invertible": True}],
                 "relations": []}

# Z[beta, 1/beta] with generators in degrees 0 and 1: products cross the
# signed beta field, and p = 2, 3 fail at stage 0 while p = 5 is regular
LAURENT_MODULE = {
    "ring": {"base": "Z",
             "generators": [{"name": "beta", "adams_degree": 1,
                             "invertible": True}],
             "relations": []},
    "generators": [{"name": "e", "adams_degree": 0},
                   {"name": "f", "adams_degree": 1}],
    "relations": [{"e": "2*beta", "f": "4"}, {"f": "6*beta^2"}],
}

# Q[s, t]/(s^2 - 2t): an empty coefficient table is the additive law,
# and every stage runs over the rational base
Q_RELATION_LAW = {
    "ring": {"base": "Q",
             "generators": [{"name": "s", "adams_degree": 1},
                            {"name": "t", "adams_degree": 2}],
             "relations": ["s^2 - 2*t"]},
    "order": 4,
    "coefficients": [],
}

# the multiplicative law over Q[beta, 1/beta, t] with |t| = 2
LAURENT_T_LAW = {
    "ring": {"base": "Q",
             "generators": [{"name": "beta", "adams_degree": 1,
                             "invertible": True},
                            {"name": "t", "adams_degree": 2}],
             "relations": []},
    "law": "multiplicative",
}

# the additive law over Z[x, y] with |x| = 3, |y| = -3: x*y has degree 0,
# so the degree-0 component has infinite rank
BALANCED_LAW = {
    "ring": {"base": "Z",
             "generators": [{"name": "x", "adams_degree": 3},
                            {"name": "y", "adams_degree": -3}],
             "relations": []},
    "order": 4,
    "coefficients": [],
}

# the additive law over Z[x, y] with |x| = 2, |y| = -3: x^3*y^2 has
# degree 0, and every degree is reached past any exponent bound
COPRIME_LAW = {
    "ring": {"base": "Z",
             "generators": [{"name": "x", "adams_degree": 2},
                            {"name": "y", "adams_degree": -3}],
             "relations": []},
    "order": 4,
    "coefficients": [],
}

# Z[beta, 1/beta] with |beta| = 2 and generators in degrees 0 and 1,
# torsion on the degree-1 one only: even and odd degrees answer apart,
# and p = 2 fails at stage 0 in an odd degree
EVEN_ODD_MODULE = {
    "ring": {"base": "Z",
             "generators": [{"name": "beta", "adams_degree": 2,
                             "invertible": True}],
             "relations": []},
    "generators": [{"name": "e", "adams_degree": 0},
                   {"name": "f", "adams_degree": 1}],
    "relations": [{"f": 2}],
}

# Z[beta, 1/beta] with |beta| = -3: a unit of negative degree
MINUS_THREE_MODULE = {
    "ring": {"base": "Z",
             "generators": [{"name": "beta", "adams_degree": -3,
                             "invertible": True}],
             "relations": []},
    "generators": [{"name": "e", "adams_degree": 0},
                   {"name": "f", "adams_degree": 1}],
    "relations": [{"e": 6}, {"f": "3*beta"}],
}

# the free module over Q[beta, 1/beta, t] with |t| = 2: a unit and a
# free generator, so every degree meets the exponent bound
LAURENT_T_MODULE = {
    "ring": LAURENT_T_LAW["ring"],
}

INPUT_FILES = {"law": LAW_FILE, "torsion": TORSION_MODULE,
               "rational": RATIONAL_MODULE, "additive": ADDITIVE_LAW_FILE,
               "degree_zero": DEGREE_ZERO_MODULE,
               "laurent_coeff": LAURENT_COEFF,
               "laurent_module": LAURENT_MODULE,
               "q_relation_law": Q_RELATION_LAW,
               "laurent_t_law": LAURENT_T_LAW,
               "balanced_law": BALANCED_LAW, "coprime_law": COPRIME_LAW,
               "even_odd_module": EVEN_ODD_MODULE,
               "minus_three_module": MINUS_THREE_MODULE,
               "laurent_t_module": LAURENT_T_MODULE}


def _fgl_commands():
    out = []
    for law in ("additive", "multiplicative", "universal-q"):
        for n in range(2, 9):
            for p in (2, 3):
                height = max(h for h in range(3) if p ** h <= n)
                out.append(["fgl", "--law", law, "--N", str(n), "--check",
                            "--p-series", str(p),
                            "--landweber", str(p), str(height)])
    return out


COMMANDS = _fgl_commands() + [
    ["hopf", "--N", str(n)] for n in range(2, 7)
] + [
    ["hopf", "--N", "3", "--induced", "{law}"],
    ["landweber", "--law", "multiplicative", "--primes", "2,3",
     "--height", "2", "--window", "-4:4"],
    ["cobordism", "--field", "F4", "--window", "-3:3,-2:2", "--verify"],
    ["cobordism", "--field", "Q", "--window", "-400:400,-200:200"],
    ["cobordism", "--field", "number:2,1", "--verify"],
    ["cobordism", "--field", "F9", "--verify", "--format", "csv"],
    # an imaginary quadratic field, signature (r1, r2) = (0, 1)
    ["cobordism", "--field", "number:0,1", "--window", "-6:6,-3:3",
     "--verify"],
    # the universal-law and hopf sizes of the `formal` benchmark workload
    ["fgl", "--law", "universal-q", "--N", "9", "--check",
     "--p-series", "2", "--landweber", "2", "3"],
    ["fgl", "--law", "universal-q", "--N", "10", "--check",
     "--p-series", "3", "--landweber", "3", "2"],
    ["hopf", "--N", "7"],
    ["hopf", "--N", "8"],
    # larger universal-law checks and the full verification suite
    ["fgl", "--law", "universal-q", "--N", "11", "--check",
     "--p-series", "3", "--landweber", "3", "2"],
    ["fgl", "--law", "universal-q", "--N", "12", "--check",
     "--p-series", "2", "--landweber", "2", "3"],
    ["hopf", "--N", "9"],
    # larger Hopf checks, whose ring maps group many terms per factor
    ["hopf", "--N", "10"],
    ["hopf", "--N", "11"],
    ["hopf", "--N", "12"],
    # the universal law past the benchmark sizes: reversion of the log,
    # the associativity check and one p-series per prime
    ["fgl", "--law", "universal-q", "--N", "13", "--check",
     "--p-series", "2", "--landweber", "2", "3"],
    ["fgl", "--law", "universal-q", "--N", "14", "--check",
     "--p-series", "3", "--landweber", "3", "2"],
    ["hopf", "--N", "13"],
    ["verify-all", "--seed", "0"],
    ["landweber", "--module", "{torsion}", "--law", "additive",
     "--primes", "2,3,5", "--height", "2", "--window", "-2:6"],
    ["landweber", "--module", "{rational}", "--law", "multiplicative",
     "--primes", "2,3", "--height", "2", "--window", "-1:4"],
    ["hopf", "--N", "3", "--induced", "{additive}"],
    ["landweber", "--module", "{degree_zero}", "--law", "additive",
     "--primes", "2,3", "--height", "2", "--window", "-2:3"],
] + [
    # Thom classes, Schur bases and a Laurent coefficient ring
    ["oriented", "--n", str(n), "--d", str(d), "--thom"]
    for n, d in ((2, 1), (4, 2), (6, 3))
] + [
    ["oriented", "--n", "5", "--d", "2"],
    ["oriented", "--coeff", "{laurent_coeff}", "--n", "4", "--d", "2",
     "--thom"],
    # the presentations behind graded components, Landweber stages and
    # the Hopf collapse check
    ["landweber", "--module", "{laurent_module}", "--law", "multiplicative",
     "--primes", "2,3,5", "--height", "2", "--window", "-3:3"],
    ["hopf", "--N", "4", "--induced", "{law}"],
    ["verify-all", "--seed", "7"],
    # the rational route through Landweber stages and the Hopf collapse
    ["landweber", "--law", "{q_relation_law}", "--primes", "2,3",
     "--height", "1", "--window", "-2:6"],
    ["hopf", "--N", "2", "--induced", "{laurent_t_law}"],
    # components of infinite rank over generators of opposite degree
    ["landweber", "--law", "{balanced_law}", "--primes", "2,3",
     "--height", "1", "--window", "0:0"],
    ["landweber", "--law", "{coprime_law}", "--primes", "2,3",
     "--height", "1", "--window", "-3:3"],
    # Landweber stages over rings with units of degree 2, -3 and 1
    ["landweber", "--module", "{even_odd_module}", "--law", "multiplicative",
     "--primes", "2,3,5", "--height", "2", "--window", "-2:5"],
    ["landweber", "--module", "{minus_three_module}", "--law",
     "multiplicative", "--primes", "2,3,5", "--height", "2",
     "--window", "-4:4"],
    ["landweber", "--module", "{laurent_t_module}", "--law",
     "multiplicative", "--primes", "2,3", "--height", "1", "--window", "-3:3"],
    ["landweber", "--law", "multiplicative", "--primes", "2,3,5",
     "--height", "3", "--window", "-200:200"],
] + [
    # every Grassmannian check on every box the default size limit admits
    ["grass", "--n", str(n), "--d", str(d), "--verify", "all"]
    for n in range(9) for d in range(n + 1)
] + [
    # the complex check with no restriction target, and with r = n
    ["grass", "--n", "3", "--d", "3", "--verify", "complex"],
    ["grass", "--n", "4", "--d", "0", "--verify", "complex"],
]


def _run(argv, directory):
    """Exit code and stdout hash of argv, run inside `directory` with each
    placeholder "{name}" replaced by the file name of that input, so a
    report that quotes an input path reads the same on every run."""
    argv = [f"{a[1:-1]}.json" if a[1:-1] in INPUT_FILES else a
            for a in argv]
    buffer = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(buffer):
            code = main(argv)
    finally:
        os.chdir(cwd)
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    return {"exit": code, "sha256": digest}


def _write_inputs(directory):
    for name, doc in INPUT_FILES.items():
        (pathlib.Path(directory) / f"{name}.json").write_text(json.dumps(doc))


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    _write_inputs(tmp_path)
    assert sorted(golden) == sorted(" ".join(a) for a in COMMANDS)
    for argv in COMMANDS:
        assert _run(argv, tmp_path) == golden[" ".join(argv)], argv


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        _write_inputs(directory)
        table = {" ".join(a): _run(a, directory) for a in COMMANDS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
