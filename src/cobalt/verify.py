"""One-shot verification suite behind `cobalt verify-all`.

Each function runs one acceptance-grade check and returns a dict
{"name", "pass", "details"} with deterministic, JSON-ready content.
All checks are exact; the only randomness is the seeded perturbation
pass in the regularity suite.  Where a question has a production route
elsewhere, the check here is its independent oracle: the cobordism
table of `tables` (the route) against `cobordism_report`, which reads
each cell off K-theory (the oracle).
"""

import random

from . import tables
from .fgl import (
    chern_reparam,
    fgl_additive,
    fgl_check_axioms,
    fgl_multiplicative,
    fgl_universal_rational,
    is_pushforward,
)
from .grassmann import (
    complex_report,
    determinant_identities,
    gram_report,
    grassmannian,
    products_report,
    verify_ranks,
)
from .hopf import (
    cooperations_poincare,
    mumu_rational_truncated,
    verify_hopf_axioms,
)
from .landweber import (
    ModulePresentation,
    check_regular,
    perturb_sequence,
    sequence_for_prime,
)
from .oriented import zero_section_report
from .rings import laurent_ring, polynomial_ring
from .tables import DimExpr, FieldDescriptor


def _grid(name, check, max_n, proper=False):
    """Run check(n, d) -> (ok, witness) on every 0 <= d <= n <= max_n,
    only d < n when proper; each failure is {"n", "d", "witness"}."""
    failures = []
    for n in range(max_n + 1):
        for d in range(n if proper else n + 1):
            ok, witness = check(n, d)
            if not ok:
                failures.append({"n": n, "d": d, "witness": witness})
    return {"name": name, "pass": not failures,
            "details": {"max_n": max_n, "failures": failures}}


def check_grassmann_ranks(max_n=7):
    """Graded ranks of every R(n, d) against binomial/partition counts."""
    return _grid("grassmann_ranks", verify_ranks, max_n)


def check_restriction_complex(max_n=6):
    """Exactness of the inclusion/restriction complex per degree."""
    return _grid("restriction_complex", complex_report, max_n, proper=True)


def check_determinant_identities(max_n=6):
    """Padding and prepending identities for Schur determinants."""
    return _grid("determinant_identities", determinant_identities, max_n,
                 proper=True)


def check_structure_constants(max_n=5):
    """Ring structure constants against the tableau-counting route."""
    result = _grid("structure_constants", products_report, max_n)
    pinned = grassmannian(4, 2).multiply((1,), (1,)) == {(2,): 1, (1, 1): 1}
    result["details"]["pinned_pieri"] = pinned
    result["pass"] = result["pass"] and pinned
    return result


def check_gram_matrices(max_n=6):
    """Complement-pairing Gram matrices are permutation matrices."""
    return _grid("gram_matrices", gram_report, max_n)


def check_fgl_axioms(order=8, chern_order=10):
    """Law axioms to the stated order; exp carries additive to
    multiplicative."""
    results = {}
    Z = polynomial_ring("Z", [])
    kgl = laurent_ring("Z", "beta")
    results["additive"] = fgl_check_axioms(fgl_additive(Z, order),
                                           order=order)["ok"]
    results["multiplicative"] = fgl_check_axioms(
        fgl_multiplicative(kgl, order), order=order)["ok"]
    results["universal_rational"] = fgl_check_axioms(
        fgl_universal_rational(order), order=order)["ok"]

    kq = laurent_ring("Q", "beta")
    phi = chern_reparam(kq, chern_order)
    results["chern_exp_carries_additive_to_multiplicative"] = \
        is_pushforward(fgl_additive(kq, chern_order),
                       fgl_multiplicative(kq, chern_order), phi)
    return {"name": "fgl_axioms", "pass": all(results.values()),
            "details": {"order": order, "chern_order": chern_order,
                        "results": results}}


def regularity_cases():
    """The fixed suite of regularity verdicts, one entry per case.

    `tests/test_landweber.py` runs the same table plus its own cases.
    """
    cases = []

    kgl = laurent_ring("Z", "beta")
    kgl_law = fgl_multiplicative(kgl, order=6)
    for p in (2, 3, 5):
        cases.append({
            "label": f"KGL p={p}",
            "module": ModulePresentation.free(kgl),
            "law": kgl_law, "prime": p, "height": 3,
            "window": (-6, 6),
            "expected": ["regular", "regular",
                         "quotient_vanishes", "quotient_vanishes"],
            "exact": True})

    rationals = polynomial_ring("Q", [])
    rational_law = fgl_additive(rationals, order=6)
    for p in (2, 3):
        cases.append({
            "label": f"Q additive p={p}",
            "module": ModulePresentation.free(rationals),
            "law": rational_law, "prime": p, "height": 1,
            "window": (0, 4),
            "expected": ["regular", "quotient_vanishes"],
            "exact": True})

    integers = polynomial_ring("Z", [])
    additive = fgl_additive(integers, order=6)
    for p in (2, 3, 5, 7):
        cases.append({
            "label": f"Z additive p={p}",
            "module": ModulePresentation.free(integers),
            "law": additive, "prime": p, "height": 1,
            "window": (0, 4),
            "expected": ["regular", "fails"],
            "exact": False})

    for p in (2, 3):
        torsion = ModulePresentation(integers, [("e", 0)], [{"e": p}])
        cases.append({
            "label": f"Z/{p} p={p}",
            "module": torsion,
            "law": additive, "prime": p, "height": 0,
            "window": (0, 4),
            "expected": ["fails"],
            "exact": False})
    return cases


def check_landweber_suite(seed=0, perturbations=5):
    """Fixed regularity verdicts plus seeded perturbation invariance."""
    failures = []
    cases = regularity_cases()
    for index, case in enumerate(cases):
        sequence = sequence_for_prime(case["law"], case["prime"],
                                      case["height"])
        verdict = check_regular(case["module"], sequence, case["prime"],
                                case["window"])
        statuses = [s.status for s in verdict.stages]
        if statuses != case["expected"]:
            failures.append({"case": case["label"], "got": statuses})
            continue
        if verdict.exact != case["exact"]:
            failures.append({"case": case["label"],
                             "exact": verdict.exact})
            continue
        rng = random.Random(seed * 1000003 + index)
        for trial in range(perturbations):
            other = perturb_sequence(case["module"], sequence, rng)
            again = check_regular(case["module"], other, case["prime"],
                                  case["window"])
            if [s.status for s in again.stages] != statuses:
                failures.append({"case": case["label"],
                                 "perturbation": trial})
                break
    return {"name": "landweber_suite", "pass": not failures,
            "details": {"seed": seed, "perturbations": perturbations,
                        "cases": len(cases), "failures": failures}}


def _zero_section(n, d):
    """zero_section_report as (ok, witness), the witness the two identities."""
    report = zero_section_report(n, d)
    return report["ok"], None if report["ok"] else {
        "restriction": report["restriction"],
        "zero_section": report["zero_section"]}


def check_zero_section(max_n=6):
    """Thom class restriction and zero-section identities."""
    return _grid("thom_zero_section", _zero_section, max_n, proper=True)


def check_hopf_algebroid(max_order=6, poincare_degree=12):
    """Algebroid axioms, a corruption control, and cooperations dims."""
    details = {"orders": {}, "negative_control": False}
    ok = True
    for N in range(2, max(max_order, 4) + 1):
        H = mumu_rational_truncated(N)
        if N <= max_order:
            report = verify_hopf_axioms(H)
            details["orders"][str(N)] = report.ok
            ok = ok and report.ok
        if N == 4:
            # the order-4 presentation, with one comultiplication value
            # changed, must fail; corrupted here, it is built only once
            H.comult["b2"] = H.comult["b2"] + H.square.ring.gen("bL2")
            details["negative_control"] = not verify_hopf_axioms(H).ok
    ok = ok and details["negative_control"]

    dims = cooperations_poincare(poincare_degree)
    conv = [sum(tables.partition_count(i) * tables.partition_count(k - i)
                for i in range(k + 1)) for k in range(poincare_degree + 1)]
    details["poincare"] = dims
    poincare_ok = dims == conv
    details["poincare_matches_convolution"] = poincare_ok
    ok = ok and poincare_ok
    return {"name": "hopf_algebroid", "pass": ok, "details": details}


def _odd_k_rank(field, n):
    """K_n(F) (x) Q for odd n >= 1: the units at n = 1, then Borel's rank,
    r1 + r2 for n = 1 mod 4 and r2 for n = 3 mod 4; 0 over a finite
    field, whose K_n is finite for n >= 1 (Quillen)."""
    if field.kind == "finite":
        return DimExpr()
    if n == 1:
        return DimExpr(units_mult=1)
    return DimExpr(q_mult=field.r1 + field.r2 if n % 4 == 1 else field.r2)


def _cobordism_cell(field, p, q):
    """MGL^{p,q}(F) (x) Q read off K-theory: K_0(F) (x) Q = Q times the
    Lazard ring at even p, and P(m) copies of K_n(F) (x) Q at
    (1 - 2m, q) with n = 2(q + m) - 1 >= 1."""
    if p % 2 == 0:
        return DimExpr(q_mult=tables.lazard_rank(p, q))
    m = (1 - p) // 2
    n = 2 * (q + m) - 1
    if m < 0 or n < 1:
        return DimExpr()
    return _odd_k_rank(field, n).scaled(tables.partition_count(m))


def cobordism_report(field, p_range, q_range):
    """The production table of `field` against the K-theory oracle on
    the window, cell by cell."""
    table = tables.mgl_rational_table(field, p_range, q_range)
    mismatches = []
    for (p, q), entry in sorted(table.items()):
        want = _cobordism_cell(field, p, q)
        if entry != want:
            mismatches.append({"p": p, "q": q, "table": entry.render(),
                               "oracle": want.render()})
    return {
        "field": field.label,
        "window": {"p": list(p_range), "q": list(q_range)},
        "entries_checked": len(table),
        "mismatches": mismatches,
        "pass": not mismatches,
    }


def check_cobordism_tables():
    """Cobordism tables of three number fields and of F5 against the
    K-theory oracle."""
    window = (-10, 10), (-5, 5)
    details = {"number_fields": {
        f"r1={r1},r2={r2}": cobordism_report(
            FieldDescriptor.number_field(r1, r2), *window)["pass"]
        for r1, r2 in ((1, 0), (0, 1), (2, 1))}}
    details["finite_field"] = cobordism_report(
        FieldDescriptor.finite(5), *window)["pass"]
    ok = all(details["number_fields"].values()) and details["finite_field"]
    return {"name": "cobordism_tables", "pass": ok, "details": details}


ALL_CHECKS = [
    check_grassmann_ranks,
    check_restriction_complex,
    check_determinant_identities,
    check_structure_constants,
    check_gram_matrices,
    check_fgl_axioms,
    check_landweber_suite,
    check_zero_section,
    check_hopf_algebroid,
    check_cobordism_tables,
]
