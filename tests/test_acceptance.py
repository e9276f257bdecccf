"""The full acceptance suite: one test per criterion, exact checks only.

Each test runs the corresponding check from cobalt.verify (plus any
extra routes the criterion demands), records a scoreboard line, and
asserts both the verdict and the time budget.
"""

import time

from conftest import record_acceptance
from lr_oracle import oracle_multiply

from cobalt import verify
from cobalt.grassmann import grassmannian, partitions_in_box


def _run(name, budget, fn, *args, **kwargs):
    start = time.monotonic()
    result = fn(*args, **kwargs)
    elapsed = time.monotonic() - start
    record_acceptance(name, result["pass"] and elapsed < budget,
                      elapsed, budget)
    assert result["pass"], result["details"]
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    return result


def test_c01_grassmann_ranks():
    _run("1 grassmann ranks (n<=7)", 10, verify.check_grassmann_ranks, 7)


def test_c02_restriction_complex():
    _run("2 restriction complex (n<=6)", 30,
         verify.check_restriction_complex, 6)


def test_c03_determinant_identities():
    _run("3 determinant identities (n<=6)", 10,
         verify.check_determinant_identities, 6)


def test_c04_structure_constants():
    start = time.monotonic()
    result = verify.check_structure_constants(5)
    strips_ok = True
    for n in range(1, 6):
        for d in range(n + 1):
            G = grassmannian(n, d)
            box = partitions_in_box(d, n - d)
            for a in box:
                for b in box:
                    if G.multiply(a, b) != oracle_multiply(a, b, d, n - d):
                        strips_ok = False
    elapsed = time.monotonic() - start
    passed = result["pass"] and strips_ok
    record_acceptance("4 structure constants (n<=5, two oracles)",
                      passed and elapsed < 10, elapsed, 10)
    assert result["pass"], result["details"]
    assert strips_ok
    assert result["details"]["pinned_pieri"]
    assert elapsed < 10, f"structure constants took {elapsed:.1f}s, budget 10s"


def test_c05_gram_matrices():
    _run("5 gram pairing matrices (n<=6)", 60,
         verify.check_gram_matrices, 6)


def test_c06_fgl_axioms():
    result = _run("6 formal group law axioms", 20,
                  verify.check_fgl_axioms, 8, 10)
    assert result["details"]["results"][
        "chern_exp_carries_additive_to_multiplicative"]


def test_c07_landweber_suite():
    result = _run("7 landweber regularity suite", 60,
                  verify.check_landweber_suite, seed=0, perturbations=5)
    assert result["details"]["cases"] == 11


def test_c08_zero_section():
    _run("8 thom zero-section identities (n<=6)", 60,
         verify.check_zero_section, 6)


def test_c09_hopf_algebroid():
    result = _run("9 hopf algebroid axioms (N<=6)", 60,
                  verify.check_hopf_algebroid, 6, 12)
    assert result["details"]["negative_control"]
    assert result["details"]["poincare"][:6] == [1, 2, 5, 10, 20, 36]


def test_c10_cobordism_tables():
    result = _run("10 cobordism dimension tables", 5,
                  verify.check_cobordism_tables)
    assert set(result["details"]["number_fields"]) == {
        "r1=1,r2=0", "r1=0,r2=1", "r1=2,r2=1"}
