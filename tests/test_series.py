"""Truncated series: inversion, composition, reversion fixtures."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cobalt.errors import (
    BadLeadingCoefficient,
    CobaltError,
    InputError,
    NonUnitConstantTerm,
    NonzeroConstantInner,
    NotQAlgebra,
)
from cobalt.hopf import _copies
from cobalt.rings import laurent_ring, polynomial_ring
from cobalt.series import TruncSeries

from mseries_oracle import (
    _compose_outer,
    _from_univariate,
    _MSeries,
    _to_univariate,
    inverse_pairs,
    normal_form,
)
from revert_oracle import revert_by_composition


@pytest.fixture
def elem_ring():
    return polynomial_ring("Z", [("x1", 1), ("x2", 2), ("x3", 3)])


def test_geometric_inverse(elem_ring):
    ring = elem_ring
    x1, x2, x3 = (ring.gen(n) for n in ("x1", "x2", "x3"))
    f = TruncSeries(ring, 3, {0: 1, 1: x1, 2: x2, 3: x3})
    g = f.invert()
    assert g.coeff(0) == ring.one()
    assert g.coeff(1) == -x1
    assert g.coeff(2) == x1 ** 2 - x2
    assert g.coeff(3) == -(x1 ** 3) + 2 * x1 * x2 - x3
    assert (f * g).coeffs == {(0,): ring.one()}


def test_invert_requires_unit():
    ring = polynomial_ring("Z", [("x", 1)])
    with pytest.raises(NonUnitConstantTerm):
        TruncSeries(ring, 3, {0: 2}).invert()
    with pytest.raises(NonUnitConstantTerm):
        TruncSeries(ring, 3, {0: ring.gen("x"), 1: 1}).invert()
    qring = polynomial_ring("Q", [("x", 1)])
    inv = TruncSeries(qring, 2, {0: 2}).invert()
    assert inv.coeff(0) == qring.const(Fraction(1, 2))


def test_invert_negative_unit():
    ring = polynomial_ring("Z", [("x", 1)])
    x = ring.gen("x")
    f = TruncSeries(ring, 4, {0: -1, 1: x})
    assert (f * f.invert()).coeffs == {(0,): ring.one()}


def test_reversion_catalan():
    ring = polynomial_ring("Z", [])
    f = TruncSeries(ring, 5, {1: 1, 2: 1})       # x + x^2
    g = f.revert()
    want = {1: 1, 2: -1, 3: 2, 4: -5, 5: 14}
    for k, c in want.items():
        assert g.coeff(k) == ring.const(c)
    assert f.compose(g).coeffs == {(1,): ring.one()}
    assert g.compose(f).coeffs == {(1,): ring.one()}


def test_reversion_errors():
    ring = polynomial_ring("Z", [])
    with pytest.raises(BadLeadingCoefficient):
        TruncSeries(ring, 3, {0: 1, 1: 1}).revert()
    with pytest.raises(BadLeadingCoefficient):
        TruncSeries(ring, 3, {2: 1}).revert()
    with pytest.raises(BadLeadingCoefficient):
        TruncSeries(ring, 3, {1: 2}).revert()


def test_compose_requires_zero_constant():
    ring = polynomial_ring("Z", [])
    f = TruncSeries(ring, 3, {1: 1})
    with pytest.raises(NonzeroConstantInner):
        f.compose(TruncSeries(ring, 3, {0: 1, 1: 1}))


def test_compose_associative_seeded():
    ring = polynomial_ring("Q", [])
    rng = random.Random(11)
    for _ in range(10):
        def rand_series(strict=False):
            coeffs = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for k in range(1, 7)}
            if strict:
                coeffs[1] = Fraction(1)
            return TruncSeries(ring, 6, coeffs)
        f, g, h = rand_series(), rand_series(True), rand_series(True)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_reversion_round_trip_seeded():
    ring = polynomial_ring("Q", [])
    rng = random.Random(3)
    for _ in range(8):
        coeffs = {1: Fraction(1)}
        for k in range(2, 8):
            coeffs[k] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        f = TruncSeries(ring, 7, coeffs)
        g = f.revert()
        x = TruncSeries.variable(ring, 7)
        assert f.compose(g) == x
        assert g.compose(f) == x


def test_derivative_and_integration():
    qring = polynomial_ring("Q", [])
    f = TruncSeries(qring, 3, {0: 1, 1: 1, 2: 3})
    assert f.derivative().coeffs == TruncSeries(qring, 2, {0: 1, 1: 6}).coeffs
    anti = f.integrate()
    assert anti.coeff(1) == qring.one()
    assert anti.coeff(2) == qring.const(Fraction(1, 2))
    assert anti.coeff(3) == qring.const(1)
    assert anti.derivative() == f
    zring = polynomial_ring("Z", [])
    with pytest.raises(NotQAlgebra):
        TruncSeries(zring, 2, {1: 1}).integrate()


def test_homogeneity_convention():
    ring = polynomial_ring("Q", [("m1", 1), ("m2", 2)])
    log = TruncSeries(ring, 3, {1: 1, 2: ring.gen("m1"), 3: ring.gen("m2")})
    assert log.is_strict()
    assert log.is_homogeneous()
    bad = TruncSeries(ring, 3, {1: 1, 3: ring.gen("m1")})
    assert not bad.is_homogeneous()


def test_mixed_degree_coefficient_is_not_homogeneous():
    ring = laurent_ring("Q", "b")
    b = ring.gen("b")
    mixed = TruncSeries(ring, 3, {1: 1, 2: b + b ** 2})
    assert not mixed.is_homogeneous()
    assert TruncSeries(ring, 3, {1: 1, 2: b}).is_homogeneous()


def test_laurent_coefficients():
    ring = laurent_ring("Q", "b")
    b, binv = ring.gen("b"), ring.gen("b_inv")
    f = TruncSeries(ring, 4, {1: 1, 2: b})
    g = f.revert()
    # reversion of x + b x^2 is x - b x^2 + 2 b^2 x^3 - 5 b^3 x^4
    assert g.coeff(2) == -b
    assert g.coeff(3) == 2 * b ** 2
    assert g.coeff(4) == -5 * b ** 3
    assert g.is_homogeneous(series_degree=-1)  # b has degree 1
    # x + b x^3 puts degree 1 where degree 2 belongs; so does its reversion
    skewed = TruncSeries(ring, 4, {1: 1, 3: b}).revert()
    assert skewed.coeff(3) == -b
    assert not skewed.is_homogeneous(series_degree=-1)
    scaled = f * binv
    assert scaled.coeff(2) == ring.one()


def test_str_smoke():
    ring = polynomial_ring("Z", [("x1", 1)])
    f = TruncSeries(ring, 2, {0: 1, 1: -ring.gen("x1")})
    s = str(f)
    assert "O(x^3)" in s


def test_one_variable_operations_refuse_two():
    ring = polynomial_ring("Q", [])
    x, y = (TruncSeries.variable(ring, 3, 2, t) for t in range(2))
    f = 1 + x + y
    for operation in (f.invert, f.revert, f.derivative, f.integrate,
                      f.__str__):
        with pytest.raises(InputError):
            operation()
    with pytest.raises(InputError):
        f.coeff(1)                      # keys are (i, j) in two variables
    with pytest.raises(InputError):
        f + TruncSeries.variable(ring, 3)
    with pytest.raises(InputError):
        f.subst([TruncSeries.variable(ring, 3)])
    assert f.coeff((0, 1)) == ring.one()
    assert (x * y).coeffs == {(1, 1): ring.one()}


def test_truncation_drops_total_degree_past_the_order():
    ring = polynomial_ring("Z", [])
    f = TruncSeries(ring, 2, {(2, 1): 5, (1, 1): 3, (0, 2): 1}, nvars=2)
    assert f.coeffs == {(1, 1): ring.const(3), (0, 2): ring.one()}
    assert f.truncate(1).is_zero()
    assert TruncSeries(ring, 3, {4: 1, 3: 2}).truncate(2).is_zero()


# -- n variables against the old multivariate series ----------------------

QQ = polynomial_ring("Q", [])
# coefficient rings: constants, several terms over Q[a, b], and Laurent
# polynomials whose products must cancel beta * beta_inv
RINGS = [QQ, polynomial_ring("Q", [("a", 1), ("b", 2)]),
         laurent_ring("Z", "beta")]
_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _polynomials(ring):
    """Polynomials over `ring` with up to three terms."""
    if inverse_pairs(ring):
        # beta^e in normal form over the (beta, beta_inv) pair
        monomials = st.integers(-2, 2).map(
            lambda e: (e, 0) if e >= 0 else (0, -e))
        values = st.integers(-3, 3)
    else:
        monomials = st.tuples(*[st.integers(0, 2)] * len(ring.gens))
        values = st.integers(-3, 3) if ring.base == "Z" else _fractions
    return st.dictionaries(monomials, values, min_size=1,
                           max_size=3).map(ring.poly)


def _series_data(ring, nvars):
    """(order, coefficients) with zero constant term and random order."""
    def coefficients(order):
        exps = st.tuples(*[st.integers(0, order)] * nvars).filter(
            lambda e: 1 <= sum(e) <= order)
        return st.tuples(st.just(order),
                         st.dictionaries(exps, _polynomials(ring),
                                         max_size=8))
    return st.integers(1, 5).flatmap(coefficients)


def _one_ring(*nvars):
    """(ring, data, ..) with one series data item per entry of nvars."""
    return st.sampled_from(RINGS).flatmap(lambda ring: st.tuples(
        st.just(ring), *[_series_data(ring, n) for n in nvars]))


def _both(ring, data, nvars):
    """The same data as a TruncSeries and as an oracle _MSeries."""
    order, coeffs = data
    return (TruncSeries(ring, order, coeffs, nvars),
            _MSeries(ring, nvars, order, coeffs))


def _oracle_univariate(f):
    """What the oracle glue reads of a one-variable series."""
    return SimpleNamespace(ring=f.ring,
                           coeffs={k: c for (k,), c in f.coeffs.items()})


def _canonical(series):
    """Laurent monomials in normal form, integral coefficients as int."""
    ring = series.ring
    for c in series.coeffs.values():
        assert c.terms
        for exps, v in c.exponent_terms().items():
            assert normal_form(ring, exps) == exps, (exps, series)
            assert v != 0
            assert (type(v) is int) == (Fraction(v).denominator == 1)
    return True


def _same(new, old):
    return _canonical(new) and (new.nvars, new.order, new.coeffs) == \
        (old.nvars, old.order, old.coeffs)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), _one_ring(n, n))))
def test_product_matches_oracle(case):
    nvars, (ring, f_data, g_data) = case
    F, Fm = _both(ring, f_data, nvars)
    G, Gm = _both(ring, g_data, nvars)
    assert _same(F * G, Fm * Gm)
    assert _same(F * F, Fm * Fm)


@settings(max_examples=100, deadline=None)
@given(_one_ring(2, 1, 1))
def test_bivariate_subst_matches_oracle(case):
    ring, f_data, u_data, v_data = case
    F, Fm = _both(ring, f_data, 2)
    u, v = (TruncSeries(ring, order, coeffs) for order, coeffs in
            (u_data, v_data))
    old = Fm.subst([_from_univariate(_oracle_univariate(g), 1, 0, g.order)
                    for g in (u, v)])
    new = F.subst([u, v])
    assert _canonical(new)
    assert new == _to_univariate(old, old.order)


@settings(max_examples=100, deadline=None)
@given(_one_ring(2), st.integers(1, 5))
def test_trivariate_associativity_terms_match_oracle(case, order):
    ring, f_data = case
    F, Fm = _both(ring, f_data, 2)
    x, y, z = (TruncSeries.variable(ring, order, 3, t) for t in range(3))
    xm, ym, zm = (_MSeries.variable(ring, 3, order, t) for t in range(3))
    assert _same(F.subst([F.subst([x, y]), z]),
                 Fm.subst([Fm.subst([xm, ym]), zm]))


@settings(max_examples=100, deadline=None)
@given(_one_ring(1, 2))
def test_compose_with_bivariate_matches_oracle(case):
    ring, phi_data, g_data = case
    phi = TruncSeries(ring, *phi_data)
    G, Gm = _both(ring, g_data, 2)
    order = min(phi.order, G.order)
    assert _same(phi.compose(G),
                 _compose_outer(_oracle_univariate(phi), Gm, order))


def test_subst_restarts_when_a_product_widens_the_ring():
    ring = polynomial_ring("Z", [("x", 1), ("y", 1)])
    # the largest exponent a new ring stores
    c = ring.gen("x") ** ((1 << (ring.pack.width - 2)) - 1) * ring.gen("y")
    width = ring.pack.width
    f = TruncSeries(ring, 3, {1: c, 2: c, 3: 1})
    g = TruncSeries(ring, 3, {1: c, 2: 1})
    h = f.compose(g)
    assert ring.pack.width == 2 * width
    assert h.coeffs == {(1,): c ** 2, (2,): c + c ** 3,
                        (3,): 2 * c ** 2 + c ** 3}


# -- reversion in one pass against composition per degree -----------------

# Z and Q with one generator, a Laurent ring, and the Gamma ring of
# `hopf --N 4`, Q[m1..m3, b1..b3]
REVERT_RINGS = [polynomial_ring("Z", [("t", 1)]),
                polynomial_ring("Q", [("t", 1)]), laurent_ring("Q", "b"),
                _copies(4, "b")]
_FAULTS = ["constant", "zero linear", "non-unit linear"]


@st.composite
def _reversion_inputs(draw):
    """A one-variable series over a drawn ring, of order 1 to 9, with
    every or a few higher coefficients, and in a quarter of the draws
    one fault that reversion must refuse."""
    ring = draw(st.sampled_from(REVERT_RINGS))
    order = draw(st.integers(1, 9))
    coefficient = _polynomials(ring)
    degrees = list(range(2, order + 1))
    if draw(st.booleans()):
        degrees = draw(st.lists(st.sampled_from(degrees), max_size=3,
                                unique=True)) if degrees else []
    coeffs = {k: draw(coefficient) for k in degrees}
    coeffs[1] = draw(st.sampled_from([1, -1]) if ring.base == "Z" else
                     _fractions.filter(bool))
    fault = draw(st.sampled_from([None] * 9 + _FAULTS))
    if fault == "constant":
        coeffs[0] = draw(coefficient.filter(lambda c: not c.is_zero()))
    elif fault == "zero linear":
        del coeffs[1]
    elif fault == "non-unit linear":
        coeffs[1] = ring.gen(ring.gens[0].name) * coeffs[1] \
            if ring.base == "Q" else 2 * coeffs[1]
    return TruncSeries(ring, order, coeffs)


def _outcome(revert, f):
    """The reversion of f, or the type and message of its refusal."""
    try:
        return revert(f)
    except CobaltError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(_reversion_inputs())
def test_reversion_matches_composition_per_degree(f):
    got = _outcome(TruncSeries.revert, f)
    assert got == _outcome(revert_by_composition, f)
    if isinstance(got, TruncSeries):
        assert _canonical(got)
