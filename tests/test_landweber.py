"""Stagewise regularity verdicts on the built-in suite and custom modules."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cobalt.errors import InhomogeneousRelation, InputError
from cobalt.fgl import fgl_additive, fgl_multiplicative, fgl_universal_rational
from cobalt.landweber import (
    ModulePresentation,
    _Analyzer,
    _Truncated,
    check_exact,
    check_regular,
    default_exponent_bound,
    perturb_sequence,
    sequence_for_prime,
)
from cobalt.rings import (
    GenSpec,
    Polynomial,
    Ring,
    degree_lattice,
    lattice_truncated,
    laurent_ring,
    polynomial_ring,
)

from cobalt import landweber, snf
from cobalt.verify import regularity_cases

import presentation_oracle
from echelon_oracle import pivot_columns as oracle_pivot_columns


def statuses(verdict):
    return [s.status for s in verdict.stages]


# The shared table of `verify-all`, plus the cases it lacks: LQ, HZ and
# Z/p on the window (-2, 2), and KU_(p).
def _suite():
    cases = [(case["label"].split(" p=")[0], case["module"], case["law"],
              case["prime"], case["height"], case["window"], case["expected"])
             for case in regularity_cases()]
    lq = fgl_universal_rational(order=6)
    cases += [("LQ", ModulePresentation.free(lq.ring), lq, p, 1, (0, 5),
               ["regular", "quotient_vanishes"]) for p in (2, 3, 5)]
    integers = polynomial_ring("Z", [])
    hz = fgl_additive(integers)
    cases += [("HZ", ModulePresentation.free(integers), hz, p, 1, (-2, 2),
               ["regular", "fails"]) for p in (2, 3)]
    cases += [(f"Z/{p} on (-2, 2)",
               ModulePresentation(integers, [("e", 0)], [{"e": p}]), hz, p, 0,
               (-2, 2), ["fails"]) for p in (2, 3)]
    for p in (2, 3):
        local = Ring("Z", [], localized_at=p)
        cases.append((f"KU_({p})", ModulePresentation.free(local),
                      fgl_multiplicative(local, beta=1), p, 1, (-2, 2),
                      ["regular", "regular"]))
    return cases


# (name, module, law, prime, height, window, expected stage statuses)
SUITE = _suite()


@pytest.mark.parametrize(
    "name, module, law, p, height, window, expected", SUITE,
    ids=[f"{case[0].replace('/', '_')}-{case[3]}" for case in SUITE])
def test_builtin_suite_all_expected(name, module, law, p, height, window,
                                    expected):
    verdict = check_regular(module, sequence_for_prime(law, p, height), p,
                            window)
    assert statuses(verdict) == expected


def test_kgl_statuses():
    ring = laurent_ring("Z", "beta")
    law = fgl_multiplicative(ring)
    module = ModulePresentation.free(ring)
    for p in (2, 3):
        seq = sequence_for_prime(law, p, 3)
        verdict = check_regular(module, seq, p, (-6, 6))
        assert statuses(verdict) == ["regular", "regular",
                                     "quotient_vanishes", "quotient_vanishes"]
        assert verdict.exact


def test_hz_fails_with_witness():
    ring = polynomial_ring("Z", [])
    law = fgl_additive(ring)
    module = ModulePresentation.free(ring)
    verdict = check_regular(module, sequence_for_prime(law, 2, 1), 2, (-2, 2))
    assert statuses(verdict) == ["regular", "fails"]
    assert verdict.stages[1].witness_degree == 0
    assert not verdict.exact
    # one more stage stays broken
    verdict = check_regular(module, sequence_for_prime(law, 2, 2), 2, (-2, 2))
    assert statuses(verdict) == ["regular", "fails", "fails"]


def test_rational_witness_skips_preimages_in_the_source():
    # over Q with e0 = 0 and x*e1 = 0, both degree-0 basis vectors are
    # killed by x; only e1 is a witness, since e0 is already zero
    ring = polynomial_ring("Q", [("x", 1)])
    x = ring.gen("x")
    module = ModulePresentation(ring, [("e0", 0), ("e1", 0)],
                                [{"e0": 1}, {"e1": x}])
    verdict = check_regular(module, [x], 2, (0, 2))
    assert statuses(verdict) == ["fails"]
    assert verdict.stages[0].witness_degree == 0
    assert verdict.stages[0].detail.endswith("coordinates [0, 1]")


def test_rational_unit_stage_computes_no_smith_form(monkeypatch):
    # over Q[beta^+-1] the stage-0 element p is a nonzero constant, a
    # unit, so stage 0 is regular without a preimage or Smith form
    ring = laurent_ring("Q", "beta")
    beta = ring.gen("beta")
    module = ModulePresentation(ring, [("e", 0), ("f", 1)],
                                [{"e": beta, "f": -1}])
    calls = []
    smith = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form",
                        lambda *args: calls.append(args) or smith(*args))
    # beta is a unit too, but not a constant: its stage computes
    verdict = check_regular(module, [beta], 3, (-2, 2))
    assert statuses(verdict) == ["regular"]
    assert calls
    calls.clear()
    verdict = check_regular(module, [ring.const(3)], 3, (-2, 2))
    assert statuses(verdict) == ["regular"]
    assert calls == []


def test_p_local_unit_stage_computes_no_smith_form(monkeypatch):
    # over Z_(3) the constant 2 is a unit: its stage is regular without a
    # preimage or Smith form, while the constant 3 is not a unit there
    ring = Ring("Z", [GenSpec("beta", 1, True)], localized_at=3)
    module = ModulePresentation(ring, [("e", 0), ("f", 1)],
                                [{"e": 4 * ring.gen("beta"), "f": -2}])
    calls = []
    smith = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form",
                        lambda *args: calls.append(args) or smith(*args))
    verdict = check_regular(module, [ring.const(2)], 3, (-2, 2))
    assert statuses(verdict) == ["regular"]
    assert calls == []
    verdict = check_regular(module, [ring.const(3)], 3, (-2, 2))
    assert statuses(verdict) == ["regular"]
    assert calls


def test_torsion_module_fails_at_stage_zero():
    ring = polynomial_ring("Z", [])
    module = ModulePresentation(ring, [("e", 0)], [{"e": 5}])
    verdict = check_regular(module, [5], 5, (-1, 1))
    assert statuses(verdict) == ["fails"]
    assert verdict.stages[0].witness_degree == 0


def test_ku_p_local_is_exact():
    for p in (2, 3, 5):
        ring = Ring("Z", [], localized_at=p)
        law = fgl_multiplicative(ring, beta=1)
        module = ModulePresentation.free(ring)
        seq = sequence_for_prime(law, p, 1)
        assert seq[1] == ring.const((-1) ** (p + 1))
        verdict = check_regular(module, seq, p, (-2, 2))
        assert statuses(verdict) == ["regular", "regular"]


def test_p_local_sees_other_primes_as_units():
    ring = Ring("Z", [], localized_at=3)
    module = ModulePresentation(ring, [("e", 0)], [{"e": 2}])
    # e is killed by 2, a 3-local unit, so the module is locally zero
    verdict = check_regular(module, [3], 3, (-1, 1))
    assert statuses(verdict) == ["quotient_vanishes"]


def test_nilpotent_multiplier_fails():
    ring = polynomial_ring("Z", [("t", 1)])
    ring.impose(ring.gen("t") ** 2)
    module = ModulePresentation.free(ring)
    verdict = check_regular(module, [2, ring.gen("t")], 2, (-1, 3))
    assert statuses(verdict) == ["regular", "fails"]
    assert verdict.stages[1].witness_degree == 1


def test_window_inconclusive():
    ring = laurent_ring("Z", "beta")
    law = fgl_multiplicative(ring)
    module = ModulePresentation.free(ring)
    seq = sequence_for_prime(law, 2, 1)
    verdict = check_regular(module, seq, 2, (0, 0))
    assert statuses(verdict) == ["regular", "window_inconclusive"]
    assert "window" in verdict.stages[1].detail


def test_rational_paths():
    ring = polynomial_ring("Q", [("x", 1)])
    module = ModulePresentation.free(ring)
    verdict = check_regular(module, [2, ring.gen("x")], 2, (0, 3))
    assert statuses(verdict) == ["regular", "quotient_vanishes"]

    killed = ModulePresentation(ring, [("e", 0)], [{"e": ring.gen("x")}])
    verdict = check_regular(killed, [ring.gen("x")], 2, (0, 2))
    assert statuses(verdict) == ["fails"]
    assert verdict.stages[0].witness_degree == 0


def test_check_exact_driver():
    ring = laurent_ring("Z", "beta")
    law = fgl_multiplicative(ring)
    module = ModulePresentation.free(ring)
    verdicts, exact = check_exact(module, law, (2, 3), 2, (-6, 6))
    assert exact
    assert set(verdicts) == {2, 3}

    hz = polynomial_ring("Z", [])
    verdicts, exact = check_exact(ModulePresentation.free(hz),
                                  fgl_additive(hz), (2,), 1, (-2, 2))
    assert not exact


def test_perturbation_invariance():
    ring = laurent_ring("Z", "beta")
    law = fgl_multiplicative(ring)
    module = ModulePresentation.free(ring)
    seq = sequence_for_prime(law, 3, 3)
    base = statuses(check_regular(module, seq, 3, (-6, 6)))
    rng = random.Random(99)
    for _ in range(3):
        alt = perturb_sequence(module, seq, rng)
        assert statuses(check_regular(module, alt, 3, (-6, 6))) == base


def test_seeded_suite_with_perturbations():
    # two degree-matched perturbations per case, one seeded RNG per case
    for index, (name, module, law, p, height, window, expected) in \
            enumerate(SUITE, 1):
        seq = sequence_for_prime(law, p, height)
        assert statuses(check_regular(module, seq, p, window)) == expected
        rng = random.Random(42 * 1000003 + index)
        for _ in range(2):
            alt = perturb_sequence(module, seq, rng)
            assert statuses(check_regular(module, alt, p, window)) == \
                expected, (name, p)


def test_input_validation():
    ring = polynomial_ring("Z", [("t", 1)])
    module = ModulePresentation.free(ring)
    with pytest.raises(InputError):
        check_regular(module, [2], 2, (3, 1))
    with pytest.raises(InputError):
        check_regular(module, [ring.gen("t") + 1], 2, (0, 1))
    with pytest.raises(InputError):
        ModulePresentation(ring, [("e", 0)], [{"bogus": 2}])
    with pytest.raises(InhomogeneousRelation):
        ModulePresentation(ring, [("e", 0), ("f", 1)],
                           [{"e": 2, "f": 3}])
    with pytest.raises(InputError):
        ModulePresentation(ring, [("e", 0), ("e", 1)])
    # degrees are integers, as in the JSON loader: no truncation of
    # 1.5 to 1, and no bool or numeric string
    for degree in (1.5, True, "2"):
        with pytest.raises(InputError):
            ModulePresentation(ring, [("e", degree)])


# -- one degree's presentation against the oracle -------------------------

_RINGS = {
    "Z[t, s]": lambda: polynomial_ring("Z", [("t", 1), ("s", 2)]),
    "Q[t]": lambda: polynomial_ring("Q", [("t", 1)]),
    "Z[beta^+-1]": lambda: laurent_ring("Z", "beta"),
    "Z[beta^+-1, t]": lambda: Ring("Z", [GenSpec("beta", 1, True),
                                         GenSpec("t", 2)]),
    "Z[u, t], |u| = 0": lambda: polynomial_ring("Z", [("u", 0), ("t", 1)]),
    "Z[x, y], |y| = -3": lambda: polynomial_ring("Z", [("x", 2),
                                                      ("y", -3)]),
}


def _homogeneous(data, ring, degree):
    """A drawn element of one degree, possibly zero."""
    monos, _ = ring.monomials_of_degree(degree, 2)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(monos),
                                max_size=len(monos)))
    return Polynomial(ring, dict(zip(monos, coeffs)))


def _elements(analyzer, stage):
    """The elements of one stage in the order the analyzer presents them:
    ring relations times the generators, module relations, then v_0..
    v_{stage-1} times the generators."""
    return (analyzer.times_generators(analyzer.ring.relations)
            + analyzer.module.relations
            + analyzer.times_generators(analyzer.sequence[:stage]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_degree_lattice_matches_oracle(data):
    ring = _RINGS[data.draw(st.sampled_from(sorted(_RINGS)))]()
    for _ in range(data.draw(st.integers(0, 2))):
        rel = _homogeneous(data, ring, data.draw(st.integers(1, 3)))
        if not rel.is_zero():
            ring.impose(rel)
    degrees = data.draw(st.lists(st.integers(-2, 2), min_size=1,
                                 max_size=3))
    generators = [(f"e{i}", d) for i, d in enumerate(degrees)]
    relations = []
    for _ in range(data.draw(st.integers(0, 2))):
        rel_degree = data.draw(st.integers(-1, 3))
        relations.append({name: _homogeneous(data, ring, rel_degree - d)
                          for name, d in generators})
    module = ModulePresentation(ring, generators, relations)
    sequence = [_homogeneous(data, ring, data.draw(st.integers(0, 2)))
                for _ in range(2)]
    stage = data.draw(st.integers(0, 2))
    bound = data.draw(st.integers(0, 4))
    degree = data.draw(st.integers(-3, 3))

    analyzer = _Analyzer(module, sequence, (degree, degree), bound)
    elements = _elements(analyzer, stage)
    carrier, rows, truncated = degree_lattice(
        ring, degree, module.generators, elements, bound)
    assert degree_lattice(ring, degree, None, elements, bound) == \
        presentation_oracle.reached(ring, degree, elements, bound)
    # the flag without the rows
    assert lattice_truncated(ring, degree, module.generators, elements,
                             bound) == truncated
    assert lattice_truncated(ring, degree, None, elements, bound) == \
        degree_lattice(ring, degree, None, elements, bound)[2]
    # the enumerated coordinates, then any a product reached past them;
    # a product gets past them only where an enumeration left one out
    enumerated = [(name, m) for name, d in generators
                  for m in ring.monomials_of_degree(degree - d, bound)[0]]
    flagged = any(ring.monomials_of_degree(degree - d, bound)[1]
                  for _, d in generators)
    assert carrier[:len(enumerated)] == enumerated
    assert truncated or len(carrier) == len(enumerated)
    assert flagged or len(carrier) == len(enumerated)
    try:
        expected = presentation_oracle.lattice(module, sequence, degree,
                                               stage, bound)
    except presentation_oracle.Truncated:
        assert truncated
        with pytest.raises(_Truncated):
            analyzer.presentation(degree, stage)
        return
    assert not truncated
    assert (carrier, rows) == expected
    assert analyzer.presentation(degree, stage) == expected


def test_a_product_past_an_unflagged_enumeration_sets_truncated():
    """Over Z[beta^+-1, t] with |t| = 2 and bound 0, degree 0 lists only
    1, yet t*beta^-2 has degree 0 too, so the enumeration is flagged.
    The product of t*beta^-2 with the generator lands outside the
    carrier, is appended to it and sets `truncated`."""
    ring = Ring("Z", [GenSpec("beta", 1, True), GenSpec("t", 2)])
    v = ring.gen("t") * ring.gen("beta_inv") ** 2
    assert ring.monomials_of_degree(0, 0) == ([(0, 0, 0)], True)
    carrier, rows, truncated = degree_lattice(
        ring, 0, [("e", 0)], [(0, {"e": v})], 0)
    assert carrier == [("e", (0, 0, 0)), ("e", (0, 1, 2))]
    assert rows == [[0, 1]]
    assert truncated


def test_a_component_of_infinite_rank_is_never_regular():
    """Over Z[x, y] with |x| = 3, |y| = -3 every (xy)^k has degree 0.  The
    window 0:0 lists four of them at the default bound, so stage 0 of
    [2, xy] is inconclusive, not regular."""
    ring = polynomial_ring("Z", [("x", 3), ("y", -3)])
    xy = ring.gen("x") * ring.gen("y")
    verdict = check_regular(ModulePresentation.free(ring), [2, xy], 2,
                            (0, 0))
    assert statuses(verdict)[0] == "window_inconclusive"


def test_degree_lattice_widens_the_ring_to_the_bound():
    """A bound past the stored exponents of the ring's packing widens it
    first, so the key shift by t^19999 stays exact."""
    ring = polynomial_ring("Z", [("t", 1)])
    module = ModulePresentation(ring, [("e", 0)], [{"e": ring.gen("t")}])
    width = ring.pack.width
    carrier, rows, truncated = degree_lattice(
        ring, 20000, module.generators, module.relations, 20000)
    assert (carrier, rows, truncated) == ([("e", (20000,))], [[1]], False)
    assert ring.pack.width > width
    assert (carrier, rows) == presentation_oracle.lattice(
        module, [], 20000, 0, 20000)


@pytest.mark.parametrize("case", regularity_cases(),
                         ids=lambda case: case["label"])
def test_block_lattices_match_one_call(case):
    """Stage by stage, the analyzer's block-built presentation has exactly
    the rows one degree_lattice call over all of the stage's elements
    gives; the row order fixes the kernel basis, hence the witnesses."""
    module = case["module"]
    sequence = sequence_for_prime(case["law"], case["prime"], case["height"])
    lo, hi = case["window"]
    bound = default_exponent_bound(module, sequence, case["window"])
    analyzer = _Analyzer(module, sequence, case["window"], bound)
    for stage in range(len(sequence) + 1):
        for degree in range(lo, hi + 1):
            carrier, rows, truncated = degree_lattice(
                module.ring, degree, module.generators,
                _elements(analyzer, stage), bound)
            assert not truncated
            assert analyzer.presentation(degree, stage) == (carrier, rows)
            # the echelon grown stage by stage factors the same module
            echelon = analyzer.echelon(degree, stage)
            assert echelon.pivots == sorted(oracle_pivot_columns(rows))
            if module.ring.base == "Q":
                assert echelon.quotient_is_zero() == \
                    (len(oracle_pivot_columns(rows)) == len(carrier))
            else:
                assert echelon.quotient_is_zero() == \
                    snf.quotient_is_zero(len(carrier), rows,
                                         module.ring.localized_at)


# -- one answer per class of degrees mod the unit period ----------------------


def _unit_power(ring, k):
    return ring.gen("u") ** k if k >= 0 else ring.gen("u_inv") ** -k


def _laurent_module(data):
    """A drawn module over Z, Z_(p) or Q with a unit u, |u| in +-1..3, and
    maybe a free generator t.  Each relation has a term c*u^k e_i, |k| up
    to 16, so its multipliers can reach past the exponent bound in some
    window degrees and not in others."""
    base, local = data.draw(st.sampled_from(
        [("Z", None), ("Z", 2), ("Z", 3), ("Q", None)]))
    unit = data.draw(st.sampled_from([1, -1, 2, -2, 3, -3]))
    specs = [GenSpec("u", unit, True)]
    if data.draw(st.booleans()):
        specs.append(GenSpec("t", data.draw(st.sampled_from([1, 2, -1]))))
    ring = Ring(base, specs, localized_at=local)
    degrees = data.draw(st.lists(st.integers(-2, 2), min_size=1,
                                 max_size=2))
    generators = [(f"e{i}", d) for i, d in enumerate(degrees)]
    relations = []
    for _ in range(data.draw(st.integers(0, 2))):
        name, d = data.draw(st.sampled_from(generators))
        k = data.draw(st.integers(-16, 16))
        rel = {other: _homogeneous(data, ring, d + k * unit - e)
               for other, e in generators}
        rel[name] = rel[name] + data.draw(st.integers(-3, 3)) * \
            _unit_power(ring, k)
        relations.append(rel)
    return ModulePresentation(ring, generators, relations)


def _sequence_element(data, ring):
    """A constant, a unit monomial or a drawn homogeneous element."""
    kind = data.draw(st.sampled_from(["constant", "unit", "drawn"]))
    if kind == "constant":
        return ring.const(data.draw(st.sampled_from([0, 1, -1, 2, 3, 6])))
    if kind == "unit":
        return _unit_power(ring, data.draw(st.integers(-2, 2)))
    return _homogeneous(data, ring, data.draw(st.integers(-3, 3)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sharing_per_class_keeps_every_verdict(data):
    """Deciding each stage once per class of degrees mod the unit period
    gives the verdict of the degree-by-degree route, witnesses and
    details included."""
    module = _laurent_module(data)
    sequence = [_sequence_element(data, module.ring)
                for _ in range(data.draw(st.integers(1, 3)))]
    lo = data.draw(st.integers(-6, 3))
    window = (lo, lo + data.draw(st.integers(0, 12)))
    assert landweber.unit_period(module.ring) > 0
    shared = check_regular(module, sequence, 2, window).to_dict()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(landweber, "unit_period", lambda ring: 0)
        assert check_regular(module, sequence, 2, window).to_dict() == shared


def _far_relation_module():
    """Z*e/(2*u^-8*e) over Z[u^+-1], |u| = 1."""
    ring = Ring("Z", [GenSpec("u", 1, True)])
    return ModulePresentation(ring, [("e", 0)],
                              [{"e": 2 * ring.gen("u_inv") ** 8}])


def test_a_shared_degree_past_the_bound_keeps_the_stage_inconclusive(
        monkeypatch):
    """Over Z[u^+-1], |u| = 1, every window degree shares the answers of
    the first one, -4, where 2 is not injective.  But with the bound
    fixed at 6, the multipliers of the relation 2*u^-8*e reach past it
    from degree -1 on, so the stage is inconclusive, as degree by
    degree."""
    module = _far_relation_module()
    monkeypatch.setattr(landweber, "default_exponent_bound",
                        lambda *args: 6)
    verdict = check_regular(module, [2], 2, (-4, 2))
    assert statuses(verdict) == ["window_inconclusive"]
    assert check_regular(module, [2], 2, (-4, -2)).stages[0].witness_degree \
        == -4


def test_the_bound_covers_the_module_relations():
    """The default bound adds the largest |module relation degree|, 8
    for 2*u^-8*e, so the window -4:2 decides: 2 is not injective at -4,
    where e generates Z/2."""
    module = _far_relation_module()
    assert default_exponent_bound(module, [module.ring.const(2)],
                                  (-4, 2)) == 14
    stage = check_regular(module, [2], 2, (-4, 2)).stages[0]
    assert (stage.status, stage.witness_degree) == ("fails", -4)
    assert stage.detail.endswith("[1]")


def test_kgl_echelons_do_not_grow_with_the_window(monkeypatch):
    """Z[beta^+-1] has one class of degrees, so a KGL verdict factors
    as many lattices on the window -60:60 as on -6:6."""
    built = []
    lattice = snf.Lattice
    monkeypatch.setattr(snf, "Lattice",
                        lambda *args: built.append(args) or lattice(*args))
    counts = []
    for window in ((-6, 6), (-60, 60)):
        ring = laurent_ring("Z", "beta")
        built.clear()
        _, exact = check_exact(ModulePresentation.free(ring),
                               fgl_multiplicative(ring), (2, 3, 5), 3, window)
        assert exact
        counts.append(len(built))
    assert counts[0] == counts[1]
