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
from cobalt.rings import Ring, laurent_ring, polynomial_ring
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


def _composed_law(log):
    """exp(log x + log y) by composition, every power of the bivariate
    series formed in full: the oracle of `fgl_from_log`."""
    x, y = (TruncSeries.variable(log.ring, log.order, 2, t) for t in (0, 1))
    return log.revert().compose(log.compose(x) + log.compose(y))


@pytest.mark.parametrize("order", range(2, 13))
def test_law_from_the_log_power_table_matches_composition(order):
    log = universal_log(universal_log_ring(order), order)
    assert fgl_from_log(log).series == _composed_law(log)


def test_law_from_a_fraction_log_over_a_laurent_ring():
    ring = mult_ring("Q")
    beta, beta_inv = ring.gen("beta"), ring.gen("beta_inv")
    # -log(1 - beta x)/beta gives x + y - beta x y
    log = TruncSeries(ring, 8, {k: beta ** (k - 1) * Fraction(1, k)
                                for k in range(1, 9)})
    f = fgl_from_log(log)
    assert f.series == _composed_law(log)
    assert f.series == fgl_multiplicative(ring).series.truncate(8)
    # a linear coefficient other than 1, gaps, and negative powers
    log = TruncSeries(ring, 9, {
        1: Fraction(2, 3), 2: beta * Fraction(-1, 2), 4: beta_inv * 5,
        5: beta ** 4 * Fraction(5, 9) + beta_inv ** 2, 7: Fraction(1, 7)})
    assert fgl_from_log(log).series == _composed_law(log)


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


def test_a_law_forms_one_p_series_per_prime(monkeypatch):
    """`--p-series 3 --landweber 3 2` at N = 10 forms [3](x) once: the
    v_n are read off a truncation of the longer series."""
    sums = []
    formal_sum = FormalGroupLaw.formal_sum
    monkeypatch.setattr(FormalGroupLaw, "formal_sum",
                        lambda f, u, v: sums.append(u.order)
                        or formal_sum(f, u, v))
    f = fgl_universal_rational(10)
    series = p_series(f, 3, 10)
    gens = landweber_generators(f, 3, 2)
    assert sums == [10, 10]
    assert gens == [f.ring.const(3), series.coeff(3), series.coeff(9)]
    assert p_series(f, 3, 9) == series.truncate(9)
    fresh = fgl_universal_rational(10)      # a ring of its own
    assert str(p_series(fresh, 3, 9)) == str(series.truncate(9))
    assert str(p_series(f, 2, 4)) == str(p_series(fresh, 2, 4))
    assert sums[2:] == [9, 9, 4, 4]


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
ZA = polynomial_ring("Z", [("a", 3)])
# Q[a], Z[a] with |a| = 3, and Laurent rings over Z and Q
BASES = [QA, ZA, laurent_ring("Z", "beta"), laurent_ring("Q", "beta")]


def _coefficients(ring):
    """Polynomials with up to two terms c * g^e in the first generator g,
    e in -2..2 when g is invertible."""
    g = ring.gens[0]
    low = -2 if g.invertible else 0
    powers = st.integers(low, 2).map(
        lambda e: ring.gen(g.name) ** e if e >= 0
        else ring.gen(g.name + "_inv") ** -e)
    values = st.integers(-3, 3) if ring.base == "Z" else st.builds(
        Fraction, st.integers(-3, 3), st.integers(1, 2))
    return st.lists(st.tuples(powers, values), max_size=2).map(
        lambda terms: sum((p * v for p, v in terms), ring.zero()))


def _symmetric(draw, coeffs):
    """`coeffs` mirrored to (j, i) in half the draws."""
    if not draw(st.booleans()):
        return coeffs
    mirrored = {}
    for (i, j), c in coeffs.items():
        if (j, i) not in mirrored:
            mirrored[i, j] = mirrored[j, i] = c
    return mirrored


def _associative_law(draw, ring, coefficient, order):
    """exp(log x + log y) over a Q base, else x + y + c*x*y, truncated."""
    if ring.base == "Q" and draw(st.booleans()):
        log = {1: 1}
        for k in range(2, order + 1):
            log[k] = draw(coefficient)
        return fgl_from_log(TruncSeries(ring, order, log))
    return _law(ring, {(1, 1): draw(coefficient)}, order, exact=False)


@st.composite
def _bivariate_laws(draw):
    """A law x + y + .. over one of BASES, of order 2 to 7 or exact.

    A third are built associative (from a logarithm or multiplicative),
    a third are random tables, exact ones (support at most 3, checked on
    the s^2 route) among them, and a third are associative laws with a
    symmetric term added, commutative and built to fail.
    """
    ring = draw(st.sampled_from(BASES))
    coefficient = _coefficients(ring)
    nonzero = coefficient.filter(lambda c: not c.is_zero())
    order = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["associative", "table", "broken"]))
    if kind == "associative":
        return _associative_law(draw, ring, coefficient, order)
    exact = draw(st.booleans())
    if exact:
        order = draw(st.integers(2, 3))
    keys = st.tuples(st.integers(0, order), st.integers(0, order)).filter(
        lambda e: 2 <= sum(e) <= order)
    if kind == "table":
        coeffs = draw(st.dictionaries(keys, nonzero, min_size=1,
                                      max_size=4))
        return _law(ring, _symmetric(draw, coeffs), order, exact)
    if exact:
        coeffs = {(1, 1): draw(coefficient)}
    else:
        coeffs = _associative_law(draw, ring, coefficient,
                                  order).series.coeffs
    i, j = draw(keys)
    c = draw(nonzero)
    coeffs = dict(coeffs)
    for key in {(i, j), (j, i)}:
        coeffs[key] = coeffs.get(key, ring.zero()) + c
    return _law(ring, coeffs, order, exact)


def _check_order(f):
    """The order `fgl_check_axioms` checks by default: s^2 for an exact
    law of support degree s."""
    if not f.exact:
        return f.order
    return max(i + j for i, j in f.series.coeffs) ** 2


@settings(max_examples=150, deadline=None)
@given(_bivariate_laws())
def test_associativity_matches_both_substitutions(f):
    verdict = fgl_check_axioms(f, graded=False)
    assert verdict["associative"] == _explicitly_associative(
        f, _check_order(f))


def _twisted(order, exact=False):
    """x + y - 2a(x^3 y + x y^3) over Z[a], |a| = 3: commutative, and
    its coefficients at i >= j agree with their (y, z) swaps, but
    F(F(x, y), z) has 3x^2yz without xyz^2 at degree 4."""
    return _law(ZA, {(3, 1): -2 * ZA.gen("a"), (1, 3): -2 * ZA.gen("a")},
                order, exact)


@pytest.mark.parametrize("order, exact",
                         [(4, False), (5, False), (6, False), (4, True)])
def test_a_symmetric_half_does_not_make_a_law_associative(order, exact):
    f = _twisted(order, exact)
    verdict = fgl_check_axioms(f)
    assert verdict["unit"] and verdict["commutative"] and verdict["graded"]
    assert verdict["associative"] is False
    assert not _explicitly_associative(f, _check_order(f))


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


# -- Ring.dot work of the universal law ------------------------------------

def _term_products(monkeypatch):
    """The list that collects the term products of every `Ring.dot`."""
    products = []
    dot = Ring.dot

    def counting_dot(ring, operands):
        def each():
            for a, b in operands:
                products.append(len(a.terms) * len(b.terms))
                yield a, b
        return dot(ring, each())

    monkeypatch.setattr(Ring, "dot", counting_dot)
    return products


def test_reversion_forms_each_power_coefficient_once(monkeypatch):
    """Reverting the universal log at N = 12 multiplies at most 3,336
    term pairs in one pass over the degrees; composing the whole series
    once per degree took 8,444."""
    log = universal_log(universal_log_ring(12), 12)
    products = _term_products(monkeypatch)
    log.revert()
    assert sum(products) <= 3_336


def test_associativity_forms_half_of_the_triple_law(monkeypatch):
    """The axiom check of the universal law at N = 12 multiplies at most
    46,697 term pairs: it forms F(F(x, y), z) only at x-exponent >=
    y-exponent.  Substituting the whole trivariate series took 112,250."""
    f = fgl_universal_rational(12)
    products = _term_products(monkeypatch)
    assert fgl_check_axioms(f)["ok"]
    assert sum(products) <= 46_697


def test_the_law_from_its_log_forms_no_full_bivariate_power(monkeypatch):
    """The universal law at N = 12 multiplies at most 11,466 term pairs:
    the log-power table and two contractions at a >= b.  Composing exp
    with log x + log y, every power of that series formed in full, took
    27,912."""
    products = _term_products(monkeypatch)
    fgl_universal_rational(12)
    assert sum(products) <= 11_466
