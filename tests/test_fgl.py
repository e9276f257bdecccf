"""Formal group laws: axioms, logarithms, p-series, reparametrization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobalt.errors import (
    InputError,
    MissingBeta,
    NotQAlgebra,
    TruncationTooSmall,
)
from cobalt.fgl import (
    FormalGroupLaw,
    chern_reparam,
    fgl_additive,
    fgl_check_axioms,
    fgl_from_log,
    fgl_log,
    fgl_multiplicative,
    fgl_universal_rational,
    is_pushforward,
    landweber_generators,
    p_series,
    pushforward,
    universal_log,
    universal_log_ring,
)
from cobalt.rings import laurent_ring, polynomial_ring
from cobalt.series import TruncSeries

from mseries_oracle import _MSeries


def mult_ring(base="Z"):
    return laurent_ring(base, "beta")


def test_additive_axioms():
    ring = polynomial_ring("Z", [])
    f = fgl_additive(ring)
    verdict = fgl_check_axioms(f)
    assert verdict["ok"], verdict


def test_multiplicative_axioms_and_coefficients():
    ring = mult_ring()
    f = fgl_multiplicative(ring)
    verdict = fgl_check_axioms(f)
    assert verdict["ok"], verdict
    assert f.coefficient(1, 1) == -ring.gen("beta")
    assert f.coefficient(2, 1).is_zero()
    # exact laws answer far beyond their support
    assert f.coefficient(5, 7).is_zero()


def test_multiplicative_needs_beta():
    with pytest.raises(MissingBeta):
        fgl_multiplicative(polynomial_ring("Z", []))
    f = fgl_multiplicative(polynomial_ring("Z", []), beta=1)
    assert fgl_check_axioms(f, graded=False)["ok"]
    assert not fgl_check_axioms(f)["graded"]


def test_universal_rational_first_coefficients():
    f = fgl_universal_rational(order=4)
    ring = f.ring
    m1, m2, m3 = ring.gen("m1"), ring.gen("m2"), ring.gen("m3")
    assert f.coefficient(1, 1) == -2 * m1
    assert f.coefficient(2, 1) == 4 * m1 ** 2 - 3 * m2
    assert f.coefficient(1, 2) == 4 * m1 ** 2 - 3 * m2
    assert f.coefficient(2, 2) == -20 * m1 ** 3 + 24 * m1 * m2 - 6 * m3
    assert f.coefficient(3, 1) == -8 * m1 ** 3 + 12 * m1 * m2 - 4 * m3
    verdict = fgl_check_axioms(f)
    assert verdict["ok"], verdict


def test_universal_specializes_to_multiplicative():
    # m_i -> beta^i / (i+1) turns the universal log into the
    # multiplicative one, so the law becomes x + y - beta x y
    order = 6
    f = fgl_universal_rational(order)
    target = mult_ring("Q")
    beta = target.gen("beta")
    images = {}
    power = target.one()
    for i in range(1, order):
        power = power * beta
        images[f"m{i}"] = power * Fraction(1, i + 1)
    g = fgl_multiplicative(target, order, beta=beta)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            got = f.coefficient(i, j).map_to(target, images)
            assert got == g.coefficient(i, j), (i, j, got)


def test_log_of_universal_is_the_log():
    order = 7
    ring = universal_log_ring(order)
    log = universal_log(ring, order)
    f = fgl_from_log(log)
    assert fgl_log(f) == log
    assert log.is_homogeneous()


def test_log_of_multiplicative():
    ring = mult_ring("Q")
    beta = ring.gen("beta")
    f = fgl_multiplicative(ring, beta=beta)
    log = fgl_log(f, order=5)
    # -log(1 - beta x)/beta = sum beta^(k-1) x^k / k
    for k in range(1, 6):
        assert log.coeff(k) == beta ** (k - 1) * Fraction(1, k)
    with pytest.raises(NotQAlgebra):
        fgl_log(fgl_multiplicative(mult_ring("Z")))


def test_chern_reparam_coefficients():
    ring = mult_ring("Q")
    beta = ring.gen("beta")
    phi = chern_reparam(ring, 4)
    assert phi.coeff(1) == ring.one()
    assert phi.coeff(2) == -beta * Fraction(1, 2)
    assert phi.coeff(3) == beta ** 2 * Fraction(1, 6)
    assert phi.coeff(4) == -(beta ** 3) * Fraction(1, 24)
    assert phi.is_homogeneous()


def test_chern_reparam_carries_additive_to_multiplicative():
    ring = mult_ring("Q")
    add = fgl_additive(ring, order=10)
    mult = fgl_multiplicative(ring, order=10)
    phi = chern_reparam(ring, 10)
    assert is_pushforward(add, mult, phi, order=10)
    pushed = pushforward(add, phi)
    for i in range(11):
        for j in range(11 - i):
            assert pushed.coefficient(i, j) == mult.coefficient(i, j)


def test_pushforward_round_trip_seeded():
    order = 6
    f = fgl_universal_rational(order)
    ring = f.ring
    rng = random.Random(5)
    coeffs = {1: ring.one()}
    for k in range(2, order + 1):
        # graded coefficient of degree k - 1 built from the m's
        c = ring.zero()
        if k - 1 < order:
            c = ring.gen(f"m{k-1}") * rng.randint(-3, 3)
        coeffs[k] = c
    phi = TruncSeries(ring, order, coeffs)
    g = pushforward(f, phi)
    assert is_pushforward(f, g, phi)
    assert fgl_check_axioms(g)["ok"]
    back = pushforward(g, phi.revert())
    for i in range(order + 1):
        for j in range(order + 1 - i):
            assert back.coefficient(i, j) == f.coefficient(i, j)


def test_p_series_additive():
    ring = polynomial_ring("Z", [])
    f = fgl_additive(ring)
    for p in (2, 3, 5):
        s = p_series(f, p, 6)
        assert s.coeff(1) == ring.const(p)
        assert all(k == (1,) for k in s.coeffs)


def test_p_series_multiplicative():
    ring = mult_ring()
    beta = ring.gen("beta")
    f = fgl_multiplicative(ring)
    s = p_series(f, 2, 8)
    assert s.coeff(1) == ring.const(2)
    assert s.coeff(2) == -beta
    assert s.coeff(3).is_zero()
    s = p_series(f, 3, 8)
    # 3-series: (1 - (1 - beta x)^3)/beta
    assert s.coeff(1) == ring.const(3)
    assert s.coeff(2) == -3 * beta
    assert s.coeff(3) == beta ** 2
    assert s.coeff(4).is_zero()


def test_landweber_generators_multiplicative():
    ring = mult_ring()
    beta = ring.gen("beta")
    f = fgl_multiplicative(ring)
    for p in (2, 3, 5):
        gens = landweber_generators(f, p, 2)
        assert gens[0] == ring.const(p)
        assert gens[1] == (-1) ** (p + 1) * beta ** (p - 1)
        assert gens[2].is_zero()


def test_landweber_generators_additive():
    ring = polynomial_ring("Z", [])
    f = fgl_additive(ring)
    gens = landweber_generators(f, 3, 2)
    assert gens[0] == ring.const(3)
    assert gens[1].is_zero()
    assert gens[2].is_zero()


def test_truncation_guard():
    f = fgl_universal_rational(order=4)
    with pytest.raises(TruncationTooSmall):
        p_series(f, 3, 9)
    with pytest.raises(TruncationTooSmall):
        landweber_generators(f, 3, 2)
    with pytest.raises(TruncationTooSmall):
        f.coefficient(4, 4)


def test_formal_sum_composition_property_seeded():
    # [a+b](x) = F([a](x), [b](x)) for the universal law
    f = fgl_universal_rational(order=6)
    for a, b in [(1, 1), (1, 2), (2, 3)]:
        lhs = p_series(f, a + b, 6)
        rhs = f.formal_sum(p_series(f, a, 6), p_series(f, b, 6))
        assert lhs == rhs


def test_strictness_guard():
    ring = mult_ring("Q")
    f = fgl_additive(ring)
    bad = TruncSeries(ring, 5, {1: 2})
    with pytest.raises(InputError):
        pushforward(f, bad)


# -- associativity: the one-sided check against both substitutions ----------

def _explicitly_associative(f, order):
    """F(F(x, y), z) == F(x, F(y, z)), substituted by the oracle series."""
    F = _MSeries(f.ring, 2, order, f.series.coeffs)
    x, y, z = (_MSeries.variable(f.ring, 3, order, t) for t in range(3))
    return F.subst([F.subst([x, y]), z]) == F.subst([x, F.subst([y, z])])


def _law(ring, coeffs, order, exact):
    series = TruncSeries(ring, order, {(1, 0): 1, (0, 1): 1, **coeffs},
                         nvars=2)
    return FormalGroupLaw(ring, series, order, exact=exact)


QA = polynomial_ring("Q", [("a", 1)])
_qa_coefficients = st.dictionaries(
    st.integers(0, 2), st.builds(Fraction, st.integers(-3, 3),
                                 st.integers(1, 2)),
    max_size=2).map(lambda terms: QA.poly({(e,): c for e, c in terms.items()}))


@st.composite
def _bivariate_laws(draw):
    """A truncated x + y + .. over Q[a], symmetric in half the cases.

    Half of the symmetric ones are built from a logarithm, so they are
    associative with many terms.
    """
    order = draw(st.integers(2, 5))
    if draw(st.booleans()) and draw(st.booleans()):
        log = {1: 1}
        for k in range(2, order + 1):
            log[k] = draw(_qa_coefficients)
        return fgl_from_log(TruncSeries(QA, order, log))
    keys = st.tuples(st.integers(0, order), st.integers(0, order)).filter(
        lambda e: 2 <= sum(e) <= order)
    coeffs = draw(st.dictionaries(keys, _qa_coefficients, max_size=4))
    if draw(st.booleans()):
        mirrored = {}
        for (i, j), c in coeffs.items():
            if (j, i) not in mirrored:
                mirrored[i, j] = mirrored[j, i] = c
        coeffs = mirrored
    return _law(QA, coeffs, order, exact=False)


@settings(max_examples=100, deadline=None)
@given(_bivariate_laws())
def test_associativity_matches_both_substitutions(f):
    verdict = fgl_check_axioms(f, graded=False)
    assert verdict["associative"] == _explicitly_associative(f, f.order)


def test_commutative_but_not_associative():
    ring = polynomial_ring("Z", [])
    f = _law(ring, {(2, 1): 1, (1, 2): 1}, 3, exact=True)
    verdict = fgl_check_axioms(f, graded=False)
    assert verdict["commutative"] is True
    assert verdict["associative"] is False
    assert not _explicitly_associative(f, 9)


def test_not_commutative_takes_both_substitutions():
    ring = polynomial_ring("Z", [])
    f = _law(ring, {(2, 1): 1}, 3, exact=True)
    verdict = fgl_check_axioms(f, graded=False)
    assert verdict["commutative"] is False
    assert verdict["associative"] is False
    assert not _explicitly_associative(f, 9)
