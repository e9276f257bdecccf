"""Schur modules over general coefficients, projective bundle rings,
and the Thom class identities."""

import pytest

from cobalt.errors import DegreeMismatch, InputError
from cobalt.grassmann import grassmannian, partitions_in_box
from cobalt.oriented import (
    FreeModuleOnSchur,
    ProjBundleRing,
    tautological_bundle,
    thom_class,
    zero_section_report,
)
from cobalt.rings import laurent_ring, polynomial_ring


def test_bundle_reduction_fixture():
    # base R(4, 2), r = 2, c_i = x_i: x^3 = x1 x^2 - x2 x
    P = tautological_bundle(4, 2)
    base = P.base
    x1, x2 = base.gen("x1"), base.gen("x2")
    assert P.rank == 2
    cube = P.element({3: 1})
    assert cube == P.element({2: x1, 1: -x2})
    # x^4 folds twice: x^4 = x1 x^3 - x2 x^2 = (x1^2 - x2) x^2 - x1 x2 x
    fourth = P.element({4: 1})
    assert fourth == P.element({2: x1 * x1 - x2, 1: -(x1 * x2)})


def test_bundle_arithmetic():
    P = tautological_bundle(4, 2)
    x = P.x()
    assert x * x * x == P.element({3: 1})
    assert (x + 1) * (x - 1) == x * x - P.one()
    assert (2 * x).coefficient(1) == P.base.const(2)
    th = x * x - P.base.gen("x1") * x + P.include(P.base.gen("x2"))
    assert th == thom_class(4, 2)[1]


def test_companion_matrix():
    P = tautological_bundle(4, 2)
    base = P.base
    x1, x2 = base.gen("x1"), base.gen("x2")
    zero, one = base.zero(), base.one()
    assert P.x_matrix() == [
        [zero, zero, zero],
        [one, zero, -x2],
        [zero, one, x1],
    ]
    assert P.is_companion()
    for n in range(1, 6):
        for d in range(n):
            assert tautological_bundle(n, d).is_companion()


def test_zero_chern_class():
    # rank 1 with c1 = 0: base[x]/(x^2)
    base = polynomial_ring("Z", [("t", 1)])
    P = ProjBundleRing(base, [0])
    x = P.x()
    assert (x * x).vec == [base.zero(), base.zero()]
    assert ((1 + x) * (1 - x)).vec == [base.one(), base.zero()]


def test_degree_mismatch():
    base = polynomial_ring("Z", [("t", 1)])
    t = base.gen("t")
    with pytest.raises(DegreeMismatch):
        ProjBundleRing(base, [t * t])
    with pytest.raises(DegreeMismatch):
        ProjBundleRing(base, [t, t])
    ProjBundleRing(base, [t, t * t])  # correct degrees pass


def test_foreign_elements_rejected():
    P = tautological_bundle(4, 2)
    Q = tautological_bundle(3, 1)
    with pytest.raises(InputError):
        P.x() + Q.x()
    base = polynomial_ring("Z", [("t", 1)])
    with pytest.raises(InputError):
        P.element({0: base.gen("t")})


def test_schur_module_matches_integer_constants():
    consts = polynomial_ring("Z", [])
    for n in range(1, 7):
        for d in range(n + 1):
            G = grassmannian(n, d)
            M = FreeModuleOnSchur(consts, n, d)
            assert M.rank == G.rank
            for a in partitions_in_box(d, n - d):
                for b in partitions_in_box(d, n - d):
                    prod = M.schur_class(a) * M.schur_class(b)
                    want = {lam: consts.const(c)
                            for lam, c in G.multiply(a, b).items()}
                    assert prod.coords == want


def test_schur_module_over_laurent():
    kgl = laurent_ring("Z", "b")
    b = kgl.gen("b")
    M = FreeModuleOnSchur(kgl, 2, 1)
    assert M.rank == 2
    s1 = M.schur_class((1,))
    # in the 1 x 1 box Delta_1^2 reduces to zero
    assert (s1 * s1).is_zero()
    assert ((b * s1) * s1).is_zero()
    assert (b * s1 + s1) - s1 == b * s1


def test_pieri_persists_after_base_change():
    kgl = laurent_ring("Z", "b")
    b = kgl.gen("b")
    M = FreeModuleOnSchur(kgl, 4, 2)
    s1 = M.schur_class((1,))
    assert s1 * s1 == M.element({(2,): 1, (1, 1): 1})
    assert (b * s1) * (b * s1) == M.element({(2,): b * b, (1, 1): b * b})
    top = M.schur_class((2, 2))
    assert (s1 * top).is_zero()


def test_schur_module_str():
    consts = polynomial_ring("Z", [])
    M = FreeModuleOnSchur(consts, 4, 2)
    e = M.element({(2, 1): 3, (): 1})
    assert str(e) == "1 + (3)*D21"
    assert str(M.zero()) == "0"


def test_thom_class_fixtures():
    bundle, th = thom_class(2, 1)
    x1 = bundle.base.gen("x1")
    assert th.vec == [-x1, bundle.base.one()]
    assert th.coefficient(1) == bundle.base.one()

    bundle4, th4 = thom_class(4, 2)
    assert th4.coefficient(2) == bundle4.base.one()
    assert th4.coefficient(1) == -bundle4.base.gen("x1")
    assert th4.coefficient(0) == bundle4.base.gen("x2")


def test_zero_section_fixtures():
    rep = zero_section_report(2, 1)
    assert rep["ok"] and rep["restriction"] and rep["zero_section"]
    # sign check by hand: r = 1 odd, so the value at x = 0 is -x1
    _, big_th = thom_class(3, 2)
    big = grassmannian(3, 2)
    assert big_th.at_zero() == -big.ring.gen("x1")

    rep4 = zero_section_report(4, 2)
    assert rep4["ok"]
    _, big_th4 = thom_class(5, 3)
    big4 = grassmannian(5, 3)
    assert big_th4.at_zero() == big4.ring.gen("x2")

    with pytest.raises(InputError):
        zero_section_report(3, 3)


def test_zero_section_small_sweep():
    for n in range(1, 6):
        for d in range(n):
            assert zero_section_report(n, d)["ok"]
