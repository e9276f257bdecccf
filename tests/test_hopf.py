"""Universal rational Hopf algebroid, axiom verification, induced
presentations, and cooperations dimensions."""

from fractions import Fraction

import pytest

from cobalt.errors import AxiomsFail, InputError
from cobalt.fgl import (
    FormalGroupLaw,
    fgl_additive,
    fgl_multiplicative,
    fgl_universal_rational,
    pushforward,
)
from cobalt.hopf import (
    HopfAlgebroidPresentation,
    TensorCube,
    TensorSquare,
    cooperations_poincare,
    induced_hopf,
    mumu_rational_truncated,
    verify_hopf_axioms,
)
from cobalt.rings import GenSpec, Ring, laurent_ring, polynomial_ring
from cobalt.series import TruncSeries
from cobalt.fgl import universal_log


def trivial_hopf_algebroid(specs=(("t", 1),), N=4):
    """Gamma = A with every structure map the identity."""
    A = polynomial_ring("Q", list(specs))
    names = [g.name for g in A.gens]
    identity = {name: A.gen(name) for name in names}
    square = TensorSquare(
        A, {name: ("L", name) for name in names}, dict(identity),
        dict(identity))
    cube = TensorCube(A, dict(identity), dict(identity))
    return HopfAlgebroidPresentation(
        A, A, dict(identity), dict(identity), dict(identity), N,
        square, dict(identity), cube, dict(identity))


def test_right_unit_fixtures():
    H = mumu_rational_truncated(4)
    G = H.Gamma
    m1, m2, b1, b2 = (G.gen(n) for n in ("m1", "m2", "b1", "b2"))
    assert H.eta_L["m1"] == m1
    assert H.eta_R["m1"] == m1 - b1
    assert H.eta_R["m2"] == m2 - b2 - 2 * m1 * b1 + 2 * b1 * b1


def test_right_unit_defining_property():
    # independent route: log_R o b literally reproduces log_L
    H = mumu_rational_truncated(6)
    G = H.Gamma
    N = H.N
    b = TruncSeries(G, N, {1: G.one()})
    log_R = TruncSeries(G, N, {1: G.one()})
    for i in range(1, N):
        b = b + TruncSeries(G, N, {i + 1: G.gen(f"b{i}")})
        log_R = log_R + TruncSeries(G, N, {i + 1: H.eta_R[f"m{i}"]})
    assert log_R.compose(b) == universal_log(G, N)


def test_counit_and_comult_fixtures():
    H = mumu_rational_truncated(4)
    assert H.counit["b1"].is_zero()
    assert H.counit["m2"] == H.A.gen("m2")
    T2 = H.square.ring
    bL1, bL2, bR1, bR2 = (T2.gen(n) for n in ("bL1", "bL2", "bR1", "bR2"))
    assert H.comult["b1"] == bL1 + bR1
    assert H.comult["b2"] == bL2 + 2 * bL1 * bR1 + bR2
    assert H.comult["m1"] == T2.gen("m1")


def test_conjugation_fixtures():
    H = mumu_rational_truncated(4)
    G = H.Gamma
    m1, b1, b2 = (G.gen(n) for n in ("m1", "b1", "b2"))
    assert H.conjugation["b1"] == -b1
    assert H.conjugation["b2"] == 2 * b1 * b1 - b2
    assert H.conjugation["m1"] == m1 - b1


def test_axioms_pass():
    for N in (2, 3, 4, 6):
        report = verify_hopf_axioms(mumu_rational_truncated(N))
        assert report.ok, report.to_dict()
    names = {c.name for c in
             verify_hopf_axioms(mumu_rational_truncated(3)).checks}
    assert names == {
        "counit_left_unit", "counit_right_unit",
        "left_counit_law", "right_counit_law",
        "left_unit_compatibility", "right_unit_compatibility",
        "coassociativity",
        "conjugation_involution",
        "conjugation_swaps_left_unit", "conjugation_swaps_right_unit",
    }


def test_corrupted_comult_detected():
    H = mumu_rational_truncated(4)
    T2 = H.square.ring
    H.comult["b2"] = H.comult["b2"] + T2.gen("bL2")
    report = verify_hopf_axioms(H)
    assert not report.ok
    failing = {c.name: c for c in report.checks if not c.ok}
    assert "right_counit_law" in failing
    assert ("b2", 2) in failing["right_counit_law"].witnesses


def test_trivial_algebroid_passes():
    report = verify_hopf_axioms(trivial_hopf_algebroid())
    assert report.ok
    assert any(c.name == "coassociativity" for c in report.checks)


def test_truncation_floor():
    with pytest.raises(InputError):
        mumu_rational_truncated(1)
    with pytest.raises(InputError):
        induced_hopf(polynomial_ring("Q", []), None, 1)


def test_induced_multiplicative_relation():
    A = laurent_ring("Q", "beta")
    law = fgl_multiplicative(A, order=5)
    ih = induced_hopf(A, law, 4)
    big = ih.ring
    bL, bR = big.gen("beta_L"), big.gen("beta_R")
    b1 = big.gen("b1")
    degree_one = [p for i, j, p in ih.relation_sources if i == j == 1]
    assert degree_one == [2 * b1 - bL + bR]
    assert ih.eta_L["beta"] == bL
    assert ih.eta_R["beta"] == bR
    assert ih.counit["beta_L"] == A.gen("beta")
    assert ih.counit["b2"].is_zero()


def test_induced_relations_match_direct_expansion():
    # numeric dual route: specialize the symbolic relations and compare
    # with a pushforward computed from scratch over Q
    A = laurent_ring("Q", "beta")
    law = fgl_multiplicative(A, order=6)
    N = 5
    ih = induced_hopf(A, law, N)
    Q = polynomial_ring("Q", [])
    beta_l = Fraction(2)
    bs = {1: Fraction(5), 2: Fraction(-3), 3: Fraction(7),
          4: Fraction(1, 2)}
    images = {
        "beta_L": Q.const(beta_l), "beta_L_inv": Q.const(1 / beta_l),
    }
    for i, c in bs.items():
        images[f"b{i}"] = Q.const(c)
    # the degree-one relation pins beta_R = beta_L - 2 b1
    beta_r = beta_l - 2 * bs[1]
    images["beta_R"] = Q.const(beta_r)
    images["beta_R_inv"] = Q.const(1 / beta_r)

    phi = TruncSeries(Q, N, {1: Q.one()})
    for i, c in bs.items():
        phi = phi + TruncSeries(Q, N, {i + 1: Q.const(c)})
    pushed = pushforward(fgl_multiplicative(Q, order=N, beta=beta_l), phi)
    target = fgl_multiplicative(Q, order=N, beta=beta_r)
    for i, j, poly in ih.relation_sources:
        want = pushed.coefficient(i, j) - target.coefficient(i, j)
        assert poly.map_to(Q, images) == want


def test_induced_additive_kills_coordinate_changes():
    # pushing x + y along b gives x + y + 2 b1 xy + ..., so the
    # matching relations force every b_i; rationally the additive law
    # has no strict automorphisms
    A = polynomial_ring("Q", [])
    law = fgl_additive(A, order=8)
    ih = induced_hopf(A, law, 5)
    assert [g.name for g in ih.ring.gens] == ["b1", "b2", "b3", "b4"]
    b1 = ih.ring.gen("b1")
    degree_one = [p for i, j, p in ih.relation_sources if i == j == 1]
    assert degree_one == [2 * b1]
    # every b_i lies in the relation ideal
    degrees = {p.adams_degree() for p in ih.relations}
    assert degrees == {1, 2, 3, 4}
    assert ih.collapse_identifies_units()  # vacuous: no unit generators


def test_induced_universal_relations_eliminate_right_copy():
    # over the universal rational law the relation set is solved by the
    # right unit of the universal Hopf algebroid: substituting
    # m_R -> eta_R(m)(m_L, b) kills every relation identically
    N = 5
    H = mumu_rational_truncated(N)
    A = polynomial_ring("Q", [(f"m{i}", i) for i in range(1, N)])
    law = fgl_universal_rational(N)
    assert [g.name for g in law.ring.gens] == [g.name for g in A.gens]
    ih = induced_hopf(law.ring, law, N)
    big = ih.ring
    m1L, m1R, b1 = big.gen("m1_L"), big.gen("m1_R"), big.gen("b1")
    degree_one = [p for i, j, p in ih.relation_sources if i == j == 1]
    assert degree_one == [-2 * m1L + 2 * b1 + 2 * m1R]

    gamma_to_big = {f"m{i}": big.gen(f"m{i}_L") for i in range(1, N)}
    gamma_to_big.update({f"b{i}": big.gen(f"b{i}") for i in range(1, N)})
    images = {f"m{i}_L": big.gen(f"m{i}_L") for i in range(1, N)}
    images.update({f"b{i}": big.gen(f"b{i}") for i in range(1, N)})
    images.update({f"m{i}_R": H.eta_R[f"m{i}"].map_to(big, gamma_to_big)
                   for i in range(1, N)})
    for _, _, poly in ih.relation_sources:
        assert poly.map_to(big, images).is_zero()
    assert ih.collapse_identifies_units()


def test_collapse_identifies_units():
    A = laurent_ring("Q", "beta")
    law = fgl_multiplicative(A, order=5)
    ih = induced_hopf(A, law, 4)
    assert ih.collapse_identifies_units()
    report = ih.to_dict()
    assert report["truncation"] == 4
    assert any("b1" in r for r in report["relations"])


def test_induced_relations_are_the_last_imposed():
    """induced_hopf imposes both copies of the algebra's relations, then
    the law relations it reports; the collapse check reads them all from
    the ring, each with its own degree."""
    A = Ring("Q", [GenSpec("beta", 1, True), GenSpec("t", 2)])
    A.impose("t - 3*beta^2")
    ih = induced_hopf(A, fgl_multiplicative(A, order=5), 4)
    assert ih.relations
    assert ih.ring.relations[2:] == ih.relations
    assert [str(r) for r in ih.ring.relations[:2]] == \
        ["-3*beta_L^2 + t_L", "-3*beta_R^2 + t_R"]
    assert ih.ring.relation_degrees == \
        [p.adams_degree() for p in ih.ring.relations]
    # a zero relation of the algebra puts two degrees None first, and
    # the collapse check skips them
    A = laurent_ring("Q", "beta")
    A.impose(A.zero())
    ih = induced_hopf(A, fgl_multiplicative(A, order=5), 4)
    assert ih.ring.relation_degrees[:2] == [None, None]
    assert ih.collapse_identifies_units()


def test_induced_rejects_bad_law():
    Q = polynomial_ring("Q", [])
    x = TruncSeries.variable(Q, 6, 2, 0)
    y = TruncSeries.variable(Q, 6, 2, 1)
    lopsided = FormalGroupLaw(Q, x + y + x * x * y, 6, exact=True)
    with pytest.raises(AxiomsFail):
        induced_hopf(Q, lopsided, 4)
    with pytest.raises(InputError):
        induced_hopf(laurent_ring("Q", "beta"), fgl_additive(Q, 6), 4)


def test_cooperations_poincare():
    dims = cooperations_poincare(12)
    assert dims == [1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481, 752, 1165]
    assert cooperations_poincare(0) == [1]


def test_hopf_axiom_products_are_grouped(monkeypatch):
    """The axiom check at N = 12 multiplies at most 65,034 term pairs in
    `Ring.dot`: its ring maps share each image power among the terms
    that end in it.  Multiplying every term out alone took 108,255."""
    H = mumu_rational_truncated(12)
    pairs = []
    dot = Ring.dot

    def counting_dot(ring, operands):
        def each():
            for a, b in operands:
                pairs.append(len(a.terms) * len(b.terms))
                yield a, b
        return dot(ring, each())

    monkeypatch.setattr(Ring, "dot", counting_dot)
    assert verify_hopf_axioms(H).ok
    assert sum(pairs) <= 65_034
