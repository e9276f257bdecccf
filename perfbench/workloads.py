"""Seeded job lists for the benchmark workloads.

A job is one `cobalt` command line, the JSON input files it reads, the
exit code it must return, and facts its JSON report must hold.  The
program sees only the generated argv and files; the workload seed is an
argument of the benchmark alone.

Each workload is a fixed core of the jobs that dominate its time plus
jobs the seed draws from a pool of cheap ones (about 0.02 to 0.08 s
each on the machine the core was chosen on).  The seed also draws the
inputs of the core jobs where that leaves their cost alone, and the
order of the list.  So different seeds run different inputs, while the
time of one pass barely depends on the seed: a spread across seeds is a
spread of the machine, not of the draw.

Why each workload exists, and which layer it isolates, is in README.md.
"""

import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# Every job here finished within a few seconds at the commit that
# introduced the benchmark.  Inputs the size guards admit but that do
# not finish in a job budget are listed under "Frontier" in README.md.
GRID = [(n, d) for n in range(2, 8) for d in range(1, n)]
CHECKS = ("complex", "identities", "pairing")


@dataclass
class Job:
    argv: list
    code: int = 0
    files: dict = field(default_factory=dict)   # file name -> JSON document
    must: list = field(default_factory=list)    # (path, value) in the report

    def write_files(self, directory):
        for name, doc in self.files.items():
            (directory / name).write_text(json.dumps(doc, sort_keys=True))


def _grass(n, d, verify):
    return Job(["grass", "--n", str(n), "--d", str(d), "--verify", verify],
               must=[(("checks", "*", "pass"), True)])


# -- schur ---------------------------------------------------------------


def _coefficient_ring(rng):
    """A free coefficient presentation over Z with 1 to 3 generators."""
    gens = []
    for i in range(rng.randint(1, 3)):
        gens.append({"name": f"c{i}", "adams_degree": rng.randint(-2, 3),
                     "invertible": rng.random() < 0.5})
    return {"base": "Z", "generators": gens, "relations": []}


def _oriented(rng, name):
    n, d = rng.choice(GRID)
    return Job(["oriented", "--coeff", name, "--n", str(n), "--d", str(d),
                "--thom"],
               files={name: _coefficient_ring(rng)},
               must=[(("zero_section", "ok"), True)])


def schur_jobs(rng):
    core = [_grass(7, d, check) for check in ("complex", "pairing")
            for d in (2, 3, 4)]
    core += [_grass(6, d, "products") for d in (2, 3)]
    heavy = {tuple(job.argv) for job in core}
    cheap = [(n, d, check) for n, d in GRID for check in CHECKS]
    cheap += [(n, d, "products") for n, d in GRID if n <= 6]
    cheap = [spec for spec in cheap if tuple(_grass(*spec).argv) not in heavy]
    jobs = core + [_grass(*rng.choice(cheap)) for _ in range(10)]
    jobs += [_oriented(rng, f"coeff-{i}.json") for i in range(6)]
    rng.shuffle(jobs)
    return jobs


# -- formal --------------------------------------------------------------


def _universal(order, p_series, landweber):
    prime, height = landweber
    return Job(["fgl", "--law", "universal-q", "--N", str(order), "--check",
                "--p-series", str(p_series),
                "--landweber", str(prime), str(height)],
               must=[(("axioms", "ok"), True)])


def _small_law(rng):
    law = rng.choice(["additive", "multiplicative"])
    order = rng.randint(6, 24)
    prime = rng.choice([2, 3, 5, 7])
    height = rng.randint(1, 3)
    argv = ["fgl", "--law", law, "--N", str(order), "--check",
            "--p-series", str(rng.choice([2, 3, 5, 7])),
            "--landweber", str(prime), str(height)]
    return Job(argv, must=[(("axioms", "ok"), True)])


def formal_jobs(rng):
    # The two universal-law jobs always share the p-series primes {2, 3}
    # and the Landweber pairs {(2, 3), (3, 2)}; the seed only decides
    # which order gets which, so the pass cost stays put.
    series = rng.sample([2, 3], 2)
    pairs = rng.sample([(2, 3), (3, 2)], 2)
    jobs = [_universal(order, p, pair)
            for order, p, pair in zip((9, 10), series, pairs)]
    jobs += [Job(["hopf", "--N", str(order)],
                 must=[(("axioms", "pass"), True)]) for order in (7, 8, 9)]
    jobs += [_small_law(rng) for _ in range(8)]
    rng.shuffle(jobs)
    return jobs


# -- verdicts ------------------------------------------------------------


def _laurent(base):
    return {"base": base,
            "generators": [{"name": "beta", "adams_degree": 1,
                            "invertible": True}],
            "relations": []}


def _module(rng, name):
    """A module over Z[beta^+-1] with torsion, or a free one over Q[beta^+-1].

    Over Z a prime fails at stage 0 exactly when it divides a torsion
    order, and every other prime is regular; over Q every prime is.
    """
    over_z = rng.random() < 0.6
    count = rng.randint(1, 3)
    generators = [{"name": f"e{i}", "adams_degree": rng.randint(-3, 3)}
                  for i in range(count)]
    torsion = {}
    if over_z:
        for gen in rng.sample(generators, rng.randint(1, count)):
            torsion[gen["name"]] = rng.choice([2, 3, 4, 5, 6, 9])
    relations = [{name: order} for name, order in torsion.items()]
    primes = sorted(rng.sample([2, 3, 5, 7], rng.randint(1, 3)))
    exact = {p: all(order % p for order in torsion.values()) for p in primes}
    must = [(("verdicts", str(p), "exact"), ok) for p, ok in exact.items()]
    doc = {"ring": _laurent("Z" if over_z else "Q"),
           "generators": generators, "relations": relations}
    argv = ["landweber", "--module", name, "--law", "multiplicative",
            "--primes", ",".join(map(str, primes)),
            "--height", str(rng.randint(1, 2)),
            "--window", f"{-rng.randint(3, 6)}:{rng.randint(3, 6)}"]
    return Job(argv, code=0 if all(exact.values()) else 1,
               files={name: doc}, must=must)


def _induced(rng, name):
    """hopf --induced on a multiplicative law over Q[beta^+-1].

    The law is named, or written as F = x + y + c*beta*x*y for a drawn
    c != 0; either way the two units collapse.
    """
    if rng.random() < 0.5:
        law = "multiplicative"
    else:
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        law = {"order": 4, "exact": True,
               "coefficients": [{"i": 1, "j": 1, "value": f"{c}*beta"}]}
    return Job(["hopf", "--N", "3", "--induced", name],
               files={name: {"ring": _laurent("Q"), "law": law}},
               must=[(("collapse_identifies_units",), True)])


def verdicts_jobs(rng):
    jobs = [Job(["verify-all", "--seed", str(rng.randrange(10 ** 6))],
                must=[(("pass",), True)]),
            _induced(rng, "law.json"),
            Job(["landweber", "--law", "multiplicative", "--primes", "2,3,5",
                 "--height", "3",
                 "--window", f"{-rng.randint(30, 40)}:{rng.randint(30, 40)}"],
                must=[(("exact",), True)])]
    jobs += [_module(rng, f"module-{i}.json") for i in range(8)]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "schur": schur_jobs,
    "formal": formal_jobs,
    "verdicts": verdicts_jobs,
}


def make_jobs(workload, seed):
    """The job list of one workload for one seed; same seed, same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
