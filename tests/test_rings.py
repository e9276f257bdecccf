"""Polynomial arithmetic, graded components, and the relation parser."""

import gc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from cobalt.errors import (
    CobaltError,
    ExpressionSyntaxError,
    InhomogeneousRelation,
    InputError,
    NotQAlgebra,
    UnknownIdentifier,
)
from cobalt.rings import (
    MAX_NESTING,
    GenSpec,
    Ring,
    degree_lattice,
    graded_component,
    laurent_ring,
    load_presentation,
    parse_expression,
    polynomial_ring,
)

from cobalt import snf
from cobalt.grassmann import partitions_of
from cobalt.lr import lr_coefficient

from echelon_oracle import pivot_columns as oracle_pivot_columns
from monomial_oracle import monomials_of_degree as oracle_monomials_of_degree
from monomial_oracle import past_bound
from mseries_oracle import _times, normal_form
import map_oracle


@pytest.fixture
def zxy():
    return polynomial_ring("Z", [("x", 1), ("y", 1)])


def test_construction_errors():
    with pytest.raises(InputError):
        Ring("R", [("x", 1)])
    with pytest.raises(InputError):
        polynomial_ring("Z", [("x", 1), ("x", 2)])
    with pytest.raises(InputError):
        Ring("Z", [GenSpec("g", 1, invertible=True), GenSpec("g_inv", -1)])


def test_coercion():
    zx = polynomial_ring("Z", [("x", 1)])
    qx = polynomial_ring("Q", [("x", 1)])
    assert zx.const(Fraction(4, 2)) == zx.const(2)
    with pytest.raises(NotQAlgebra):
        zx.const(Fraction(1, 2))
    assert qx.const(Fraction(1, 2)).constant_term() == Fraction(1, 2)
    # canonical form: integral values are ints over either base
    assert type(qx.coerce(Fraction(6, 3))) is int
    assert type(qx.coerce(True)) is int
    with pytest.raises(InputError):
        qx.coerce(0.5)
    half = qx.const(Fraction(1, 2))
    assert (half + half).exponent_terms() == {(0,): 1}
    assert type((half * 2).constant_term()) is int


def test_basic_arithmetic(zxy):
    x, y = zxy.gen("x"), zxy.gen("y")
    assert (x + y) * (x + y) == x ** 2 + 2 * x * y + y ** 2
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert (x - x).is_zero()
    assert str(x ** 2 + 2 * x * y + y ** 2) == "x^2 + 2*x*y + y^2"
    assert str(-x + 1) == "-x + 1"
    assert str(zxy.zero()) == "0"


def test_scalar_and_pow(zxy):
    x = zxy.gen("x")
    assert 3 * x == x + x + x
    assert (2 * x) ** 3 == 8 * x ** 3
    assert x ** 0 == zxy.one()
    with pytest.raises(InputError):
        x ** -1


def test_laurent_cancellation():
    ring = laurent_ring("Z", "b")
    b, binv = ring.gen("b"), ring.gen("b_inv")
    assert b * binv == ring.one()
    assert b ** 2 * binv == b
    assert (b + binv) * b == b ** 2 + 1
    assert ring.gens[1].adams_degree == -1


def test_degrees(zxy):
    x, y = zxy.gen("x"), zxy.gen("y")
    assert (x + y).adams_degree() == 1
    assert (x * y).adams_degree() == 2
    assert zxy.zero().adams_degree() is None
    with pytest.raises(InputError):
        (x + x * y).adams_degree()
    assert (x + x * y).homogeneous_part(2) == x * y


def test_map_to():
    src = polynomial_ring("Q", [("m", 1)])
    dst = laurent_ring("Q", "b")
    m = src.gen("m")
    image = (m * 2 + m ** 2).map_to(dst, {"m": dst.gen("b")})
    b = dst.gen("b")
    assert image == 2 * b + b ** 2
    with pytest.raises(InputError):
        m.map_to(dst, {})


def test_map_to_z_rejects_denominators():
    src = polynomial_ring("Q", [("m", 1)])
    dst = polynomial_ring("Z", [("t", 1)])
    half = src.gen("m") * Fraction(1, 2)
    with pytest.raises(NotQAlgebra):
        half.map_to(dst, {"m": dst.gen("t")})


def test_monomials_of_degree():
    ring = polynomial_ring("Z", [("x1", 1), ("x2", 2)])
    monos, active = ring.monomials_of_degree(4, 4)
    assert monos == [(4, 0), (2, 1), (0, 2)]
    assert not active
    monos, active = ring.monomials_of_degree(5, 3)
    assert (5, 0) not in monos
    assert active
    monos, active = ring.monomials_of_degree(-1, 3)
    assert monos == [] and not active


def test_monomials_of_degree_laurent():
    ring = laurent_ring("Z", "b")
    monos, active = ring.monomials_of_degree(0, 3)
    assert monos == [(0, 0)]
    assert not active
    monos, active = ring.monomials_of_degree(2, 3)
    assert monos == [(2, 0)]
    monos, active = ring.monomials_of_degree(-4, 3)
    assert monos == []
    assert active
    with pytest.raises(InputError):
        ring.monomials_of_degree(0, -1)


def test_monomial_listing_leaves_no_reference_cycle():
    rings = [polynomial_ring("Z", [("x", 1), ("y", 1), ("z", 1)]),
             Ring("Z", [GenSpec("b", 1, True), GenSpec("t", 2)])]
    gc.collect()
    gc.disable()
    try:
        for ring in rings:
            for _ in range(10):
                ring.monomials_of_degree(6, 6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_recursive_parsers_and_counts_leave_no_reference_cycle():
    ring = polynomial_ring("Z", [("x1", 1), ("x2", 2)])
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            parse_expression("-(x1 - 3)*(x1 + x2)^2", ring)
            partitions_of(6, 4, 4)
            lr_coefficient((2, 1), (2, 1), (3, 2, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def enumeration_rings(draw):
    """Up to 8 generators of degree -4..5, an inverse counting as one."""
    specs, width = [], 0
    for g, (degree, invertible) in enumerate(draw(st.lists(
            st.tuples(st.integers(-4, 5), st.booleans()), max_size=8))):
        width += 1 + invertible
        if width > 8:
            break
        specs.append(GenSpec(f"g{g}", degree, invertible))
    return Ring("Z", specs)


@settings(max_examples=300, deadline=None)
@given(enumeration_rings(), st.integers(-10, 12), st.integers(0, 4))
# y^2 has degree 2 but y^2 > bound
@example(Ring("Z", [GenSpec("x", 2), GenSpec("y", 1)]), 2, 1)
# b^-2 y has degree -1: only the pair's exponent is past the bound
@example(Ring("Z", [GenSpec("b", 1, True), GenSpec("y", 1)]), -1, 1)
# x^3 y^2 has degree 0: two exponents past the bound at once
@example(Ring("Z", [GenSpec("x", 2), GenSpec("y", -3)]), 0, 1)
# x^4 y^5 has degree 6
@example(Ring("Z", [GenSpec("x", 4), GenSpec("y", -2)]), 6, 3)
# no power of x has degree 7
@example(Ring("Z", [GenSpec("x", 2)]), 7, 2)
# x*y alone has degree 5: x^2 needs a cofactor of degree 1
@example(Ring("Z", [GenSpec("x", 2), GenSpec("y", 3)]), 5, 1)
def test_monomials_of_degree_matches_oracle(ring, degree, bound):
    assert ring.monomials_of_degree(degree, bound) == \
        oracle_monomials_of_degree(ring, degree, bound)
    witness = past_bound(ring, degree, bound)
    if witness is not None:
        assert ring.monomial_degree(witness) == degree
        assert max(witness) > bound
        assert witness == normal_form(ring, witness)


def test_graded_component_free():
    ring = polynomial_ring("Z", [("x", 1), ("y", 1)])
    report = graded_component(ring, 3)
    assert report.free_rank == 4
    assert report.torsion == []
    assert not report.truncated
    assert len(report.basis) == 4


def test_graded_component_flags_two_exponents_past_the_bound():
    # x^3 y^2 has degree 0: the component has infinite rank
    ring = polynomial_ring("Z", [("x", 2), ("y", -3)])
    assert graded_component(ring, 0, 1).truncated


def test_graded_component_torsion():
    ring = polynomial_ring("Z", [("x", 1)])
    ring.impose(2 * ring.gen("x"))
    report = graded_component(ring, 1)
    assert report.free_rank == 0
    assert report.torsion == [2]


def test_graded_component_with_relation():
    ring = polynomial_ring("Z", [("x", 1), ("y", 1)])
    ring.impose(ring.gen("x") ** 2 - ring.gen("y") ** 2)
    report = graded_component(ring, 2)
    assert report.free_rank == 2
    assert report.torsion == []
    assert len(report.basis) == 2
    report = graded_component(ring, 4)
    # monomials x^4..y^4 (5) modulo multiples x^2(x^2-y^2), xy(...), y^2(...)
    assert report.free_rank == 2


def test_graded_component_rational():
    ring = polynomial_ring("Q", [("x", 1)])
    ring.impose(ring.gen("x") * 2)
    report = graded_component(ring, 1)
    assert report.free_rank == 0
    assert report.torsion == []


def test_graded_component_truncation_flag():
    ring = polynomial_ring("Z", [("x", 1)])
    report = graded_component(ring, 5, exponent_bound=3)
    assert report.truncated
    assert "bound" in report.note


def test_graded_component_skips_a_zero_relation():
    ring = polynomial_ring("Z", [("x", 1), ("y", 2)])
    ring.impose("2*x^2 - y")
    before = graded_component(ring, 4)
    ring.impose(ring.zero())
    assert ring.relation_degrees == [2, None]
    assert graded_component(ring, 4) == before


def _old_component(ring, degree):
    """Free rank, torsion and basis by the route graded_component took
    before snf.Lattice: rational pivot columns (here by the Fraction
    oracle), then the Smith divisors of all rows, as p-parts over
    Z_(p) and none over Q."""
    rel_deg = max((abs(r.adams_degree() or 0) for r in ring.relations),
                  default=0)
    carrier, rows, truncated = degree_lattice(
        ring, degree, [(None, 0)],
        [(rel.adams_degree(), {None: rel}) for rel in ring.relations],
        max(1, abs(degree) + rel_deg))
    pivots = oracle_pivot_columns(rows)
    torsion = [] if ring.base == "Q" else snf.quotient_invariants(
        len(carrier), rows, ring.localized_at)[1]
    basis = [m for i, (_, m) in enumerate(carrier) if i not in pivots]
    return len(carrier) - len(pivots), torsion, basis, truncated


_COMPONENT_BASES = {"Z": ("Z", None), "Z_(2)": ("Z", 2), "Z_(3)": ("Z", 3),
                    "Q": ("Q", None)}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_graded_component_matches_the_smith_route(data):
    """Over Z, Z_(2), Z_(3) and Q, with relations that leave torsion
    (c * monomial plus a multiple of another monomial of the same
    degree; over Q with fractions too), every component of degree 0..5
    agrees with the Fraction-pivot + Smith form route."""
    base, p = _COMPONENT_BASES[data.draw(st.sampled_from(
        sorted(_COMPONENT_BASES)))]
    degrees = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    ring = Ring(base, [(f"x{i}", d) for i, d in enumerate(degrees)],
                localized_at=p)
    coefficients = [-4, -3, -2, 2, 3, 4, 6, 1]
    if base == "Q":
        coefficients += [Fraction(1, 2), Fraction(-2, 3)]
    for _ in range(data.draw(st.integers(1, 3))):
        rel_degree = data.draw(st.integers(1, 4))
        monos, _ = ring.monomials_of_degree(rel_degree, rel_degree)
        if not monos:
            continue
        terms = {}
        for m in data.draw(st.lists(st.sampled_from(monos), min_size=1,
                                    max_size=3)):
            terms[m] = terms.get(m, 0) + data.draw(
                st.sampled_from(coefficients))
        rel = ring.poly(terms)
        if not rel.is_zero():
            ring.impose(rel)
    for degree in range(6):
        report = graded_component(ring, degree)
        assert (report.free_rank, report.torsion, report.basis,
                report.truncated) == _old_component(ring, degree)


def test_degree_lattice_without_generators_sorts_the_reached_terms():
    ring = polynomial_ring("Z", [("t", 1), ("s", 2)])
    t, s = ring.gen("t"), ring.gen("s")
    elements = [(None, {None: ring.zero()}), (2, {None: t * t - s})]
    carrier, rows, truncated = degree_lattice(ring, 3, None, elements, 3)
    assert carrier == [(None, (1, 1)), (None, (3, 0))]
    assert rows == [[-1, 1]]
    assert not truncated


def test_degree_lattice_appends_a_term_the_bound_excluded():
    ring = polynomial_ring("Z", [("t", 1)])
    elements = [(1, {"e": ring.gen("t")})]
    carrier, rows, truncated = degree_lattice(ring, 2, [("e", 0)],
                                              elements, 1)
    assert carrier == [("e", (2,))]
    assert rows == [[1]]
    assert truncated


@pytest.mark.parametrize("build, degree", [
    (lambda: polynomial_ring("Z", [("t", 1), ("s", 2)]).impose("t^2 - s"),
     6),
    (lambda: Ring("Z", [GenSpec("beta", 1, True),
                        GenSpec("t", 2)]).impose("t - 3*beta^2"), 2),
])
def test_degree_lattice_memo_keeps_bounds_and_packings_apart(build, degree):
    """Calls on one ring, whose enumeration memo is warm, agree with
    calls on a fresh ring: across bounds at one degree, and after a
    widening moves the ring to a new packing."""
    def present(ring, bound):
        return degree_lattice(ring, degree, [(None, 0)],
                              [(2, {None: ring.relations[0]})], bound)

    expected = {bound: present(build(), bound) for bound in (1, 3)}
    assert expected[1] != expected[3]
    ring = build()
    for bound in (1, 3, 1):
        assert present(ring, bound) == expected[bound]
    ring.widen(2 * ring.pack.width)
    for bound in (3, 1):
        assert present(ring, bound) == expected[bound]


def brute_component_rank(ring, degree, bound):
    """Independent recount: enumerate monomials by brute product grid."""
    n = len(ring.gens)
    monos = set()
    for exps in product(range(bound + 1), repeat=n):
        if ring.monomial_degree(exps) == degree:
            monos.add(normal_form(ring, exps))
    monos = sorted(monos, reverse=True)
    pos = {m: i for i, m in enumerate(monos)}
    rows = []
    for rel in ring.relations:
        for exps in product(range(bound + 1), repeat=n):
            if ring.monomial_degree(exps) != degree - rel.adams_degree():
                continue
            prod = ring.poly({normal_form(ring, exps): 1}) * rel
            if any(e not in pos for e in prod.exponent_terms()):
                continue
            vec = [0] * len(monos)
            for e, c in prod.exponent_terms().items():
                vec[pos[e]] = int(c)
            rows.append(vec)
    return len(monos) - len(oracle_pivot_columns(rows))


def test_graded_component_against_bruteforce():
    ring = polynomial_ring("Z", [("a", 1), ("b", 2), ("c", 3)])
    ring.impose(ring.gen("a") * ring.gen("b") - ring.gen("c"),
                ring.gen("b") ** 2)
    for degree in range(7):
        report = graded_component(ring, degree)
        assert not report.truncated
        assert report.free_rank == brute_component_rank(ring, degree, degree + 4)


def test_inhomogeneous_relation():
    ring = polynomial_ring("Z", [("x", 1), ("y", 2)])
    with pytest.raises(InhomogeneousRelation) as err:
        ring.impose(ring.gen("x") + ring.gen("y"))
    assert err.value.term in ("x", "y")


def test_parser_round_trip():
    ring = polynomial_ring("Z", [("x1", 1), ("x2", 2)])
    poly = parse_expression("x1^2 - 2*x1*x2 + x2^2", ring)
    x1, x2 = ring.gen("x1"), ring.gen("x2")
    assert poly == x1 ** 2 - 2 * x1 * x2 + x2 ** 2
    assert parse_expression("-(x1 - 3)*(x1 + 3)", ring) == -(x1 ** 2) + 9
    assert parse_expression("7", ring) == ring.const(7)
    assert parse_expression("- - x1", ring) == x1


def test_parser_rejects_division():
    ring = polynomial_ring("Z", [("x1", 1)])
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x1/2", ring)
    assert err.value.position == 2


def test_parser_unknown_identifier():
    ring = polynomial_ring("Z", [("x1", 1)])
    with pytest.raises(UnknownIdentifier) as err:
        parse_expression("x1 + x9", ring)
    assert err.value.position == 5
    assert "x9" in str(err.value)


def test_parser_syntax_errors():
    ring = polynomial_ring("Z", [("x1", 1)])
    for bad in ["x1 +", "(x1", "x1^0", "x1^x1", "2x1", "x1 x1", "*x1", ""]:
        with pytest.raises(ExpressionSyntaxError):
            parse_expression(bad, ring)


def test_parser_positions_are_columns():
    ring = polynomial_ring("Z", [("x1", 1)])
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x1 ^ 0", ring)
    assert err.value.position == 5
    assert "column 6" in str(err.value)


_ATOMS = st.one_of(st.sampled_from(["x1", "x2", "x9", "_", "+", "-", "*",
                                     "^", "(", ")", " ", "/", "$", ".", "²",
                                     "é", "\t"]),
                   st.integers(0, 40).map(str))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ATOMS, max_size=30).map(" ".join))
@example("(" * 300 + "x1" + ")" * 300)
def test_the_parser_returns_a_polynomial_or_raises_an_input_error(text):
    ring = polynomial_ring("Z", [("x1", 1), ("x2", 2)])
    try:
        value = parse_expression(text, ring)
    except InputError:
        return
    assert value.ring is ring
    assert_canonical(value)


def test_parentheses_nested_too_deeply_are_refused_where_they_open():
    ring = polynomial_ring("Z", [("x1", 1)])
    deep = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert parse_expression(deep, ring) == ring.gen("x1")
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("-" + "(" + deep + ")", ring)
    assert err.value.position == MAX_NESTING + 1


def test_load_presentation():
    doc = {
        "base": "Z",
        "generators": [
            {"name": "x1", "adams_degree": 1},
            {"name": "b", "adams_degree": 1, "invertible": True},
        ],
        "relations": ["x1^2"],
    }
    ring = load_presentation(doc)
    assert [g.name for g in ring.gens] == ["x1", "b", "b_inv"]
    assert len(ring.relations) == 1
    assert ring.relations[0] == ring.gen("x1") ** 2


def test_load_presentation_errors():
    with pytest.raises(InputError):
        load_presentation({"base": "R", "generators": []})
    with pytest.raises(InputError):
        load_presentation({"base": "Z", "generators": [], "extra": 1})
    with pytest.raises(InputError):
        load_presentation({"base": "Z", "generators": [{"name": "x"}]})
    with pytest.raises(InhomogeneousRelation):
        load_presentation({
            "base": "Z",
            "generators": [{"name": "x", "adams_degree": 1},
                           {"name": "y", "adams_degree": 2}],
            "relations": ["x + y"],
        })


# Hypothesis data: polynomials are drawn as plain dicts so that the
# reference arithmetic below never goes through `Polynomial`.
ints = st.integers(min_value=-6, max_value=6)
rationals = st.one_of(ints, st.fractions(min_value=-6, max_value=6,
                                         max_denominator=4))
xy_monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))


def laurent_exponents(k):
    """b^k in normal form over the (b, b_inv) pair."""
    return (k, 0) if k >= 0 else (0, -k)


laurent_monomials = st.integers(-3, 3).map(laurent_exponents)

KINDS = {
    "Z[x,y]": (polynomial_ring("Z", [("x", 1), ("y", 1)]),
               xy_monomials, ints),
    "Q[x,y]": (polynomial_ring("Q", [("x", 1), ("y", 1)]),
               xy_monomials, rationals),
    "Z[b^+-1]": (laurent_ring("Z", "b"), laurent_monomials, ints),
}
QST = polynomial_ring("Q", [("s", 1), ("t", 1)])
ZC = laurent_ring("Z", "c")


def term_dicts(kind, count):
    _, monomials, values = KINDS[kind]
    return st.lists(st.dictionaries(monomials, values, max_size=5),
                    min_size=count, max_size=count)


def normal(kind, exps):
    if kind == "Z[b^+-1]":
        return laurent_exponents(exps[0] - exps[1])
    return exps


def reference_product(kind, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = normal(kind, tuple(x + y for x, y in zip(ea, eb)))
            out[e] = out.get(e, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return {e: c for e, c in out.items() if c}


def reference_sum(a, b):
    out = {e: Fraction(c) for e, c in a.items()}
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def assert_canonical(poly):
    for c in poly.terms.values():
        assert c != 0
        if Fraction(c).denominator == 1:
            assert type(c) is int, (c, poly)
        else:
            assert type(c) is Fraction, (c, poly)


def images_for(kind, data):
    """Images of the generators under a ring map that respects inverses."""
    if kind == "Z[b^+-1]":
        sign = data.draw(st.sampled_from([1, -1]))
        k = data.draw(st.integers(-2, 2))
        c = ZC.gen("c") if k >= 0 else ZC.gen("c_inv")
        c_inv = ZC.gen("c_inv") if k >= 0 else ZC.gen("c")
        return ZC, {"b": sign * c ** abs(k), "b_inv": sign * c_inv ** abs(k)}
    polys = data.draw(st.lists(
        st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                        rationals, max_size=3),
        min_size=2, max_size=2))
    return QST, {"x": QST.poly(polys[0]), "y": QST.poly(polys[1])}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    kind = data.draw(st.sampled_from(sorted(KINDS)))
    ring = KINDS[kind][0]
    a, b, c = (ring.poly(t) for t in data.draw(term_dicts(kind, 3)))
    assert (a + b) + c == a + (b + c)
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + ring.zero() == a and a * ring.one() == a
    assert (a - a).is_zero() and not (a - a).terms


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_products_and_sums_are_canonical(data):
    kind = data.draw(st.sampled_from(sorted(KINDS)))
    ring = KINDS[kind][0]
    da, db = data.draw(term_dicts(kind, 2))
    a, b = ring.poly(da), ring.poly(db)
    assert (a * b).exponent_terms() == reference_product(kind, da, db)
    assert (a + b).exponent_terms() == reference_sum(da, db)
    for poly in (a, b, a * b, a + b, a - b, -a, a * 3, a * Fraction(4, 2),
                 a - a, a ** 2):
        assert_canonical(poly)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_map_to_is_a_ring_map(data):
    kind = data.draw(st.sampled_from(sorted(KINDS)))
    ring = KINDS[kind][0]
    target, images = images_for(kind, data)
    a, b = (ring.poly(t) for t in data.draw(term_dicts(kind, 2)))
    fa, fb = a.map_to(target, images), b.map_to(target, images)
    assert (a * b).map_to(target, images) == fa * fb
    assert (a + b).map_to(target, images) == fa + fb
    for poly in (fa, fb, (a * b).map_to(target, images)):
        assert_canonical(poly)


# -- packed keys against the tuple kernel ---------------------------------
#
# A stored key keeps every |exponent| below 2^(w-2), and a product may
# reach twice that before the ring widens; `STORED` is the largest
# exponent a new ring stores.
STORED = (1 << (polynomial_ring("Z", []).pack.width - 2)) - 1


def signed_monomial(ring, specs, signed):
    """The normal-form exponent tuple of one signed exponent per declared
    generator of `ring` (negative ones on the implicit inverse)."""
    exps = [0] * len(ring.gens)
    for spec, e in zip(specs, signed):
        if spec.invertible and e < 0:
            exps[ring.index[spec.name + "_inv"]] = -e
        else:
            exps[ring.index[spec.name]] = abs(e)
    return tuple(exps)


@st.composite
def packed_rings(draw):
    """A fresh Z or Q ring on up to 6 generators, some invertible, and a
    strategy for term dicts whose exponents start near 0 or near the
    stored limit."""
    base = draw(st.sampled_from("ZQ"))
    specs = [GenSpec(f"g{i}", draw(st.integers(-2, 3)), draw(st.booleans()))
             for i in range(draw(st.integers(1, 6)))]
    ring = Ring(base, specs)
    size = st.one_of(st.integers(0, 3), st.integers(STORED - 2, STORED + 2))
    values = st.tuples(*[st.tuples(size, st.booleans()).map(
        lambda v: -v[0] if v[1] else v[0]) for _ in specs]).map(
            lambda v: signed_monomial(ring, specs, v))
    coefficients = rationals if base == "Q" else ints
    return ring, st.dictionaries(values, coefficients, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_products_match_the_tuple_kernel(data):
    ring, terms = data.draw(packed_rings())
    a, b = ring.poly(data.draw(terms)), ring.poly(data.draw(terms))
    a_text, a_hash, width = str(a), hash(a), ring.pack.width
    product = a * b
    assert product.exponent_terms() == _times(a, b).exponent_terms()
    assert product == _times(a, b)
    assert_canonical(product)
    # a widening keeps every older polynomial's value, print and hash
    assert ring.pack.width >= width
    assert str(a) == a_text and hash(a) == a_hash
    assert (a + product) - product == a
    # a sum of products, some operands left on an older packing
    pairs = [(ring.poly(data.draw(terms)), ring.poly(data.draw(terms)))
             for _ in range(data.draw(st.integers(0, 4)))]
    if data.draw(st.booleans()):
        ring.widen(2 * ring.pack.width)
    expected = {}
    for x, y in pairs:
        expected = reference_sum(expected, _times(x, y).exponent_terms())
    total = ring.dot(pairs)
    assert total.exponent_terms() == expected
    assert total.pack is ring.pack
    assert_canonical(total)


def test_a_product_past_the_stored_limit_widens_the_ring():
    ring = Ring("Z", [GenSpec("x", 1), GenSpec("y", 2),
                      GenSpec("b", 1, invertible=True)])
    x, y, b_inv = ring.gen("x"), ring.gen("y"), ring.gen("b_inv")
    old = y ** 3 + 2 * x
    width = ring.pack.width
    top = x ** STORED * b_inv ** STORED
    assert ring.pack.width == width
    assert top * x * b_inv == ring.poly({(STORED + 1, 0, 0, STORED + 1): 1})
    assert ring.pack.width == 2 * width
    assert old.pack is not ring.pack
    assert old * x == ring.poly({(1, 3, 0, 0): 1, (2, 0, 0, 0): 2})
    assert str(old) == "y^3 + 2*x"
    # x^(2^w - 1) is past the limit as soon as it is written down
    full = (1 << ring.pack.width) - 1
    assert (x ** full * x).exponent_terms() == {(full + 1, 0, 0, 0): 1}
    assert ring.pack.width == 4 * width
    assert (x ** full * x) == ring.poly({(full + 1, 0, 0, 0): 1})
    assert old * x ** full == x ** full * old


def test_map_to_widens_the_target_once_up_front():
    source = polynomial_ring("Z", [("x", 1), ("y", 1)])
    target = polynomial_ring("Z", [("s", 1), ("t", 1)])
    s, t = target.gen("s"), target.gen("t")
    images = {"x": t ** STORED, "y": s * t}
    early = {"x": t ** 5, "y": s * t}
    width = target.pack.width
    x, y = source.gen("x"), source.gen("y")
    image = (y + x ** 2 + y ** 3).map_to(target, images)
    assert target.pack.width == 2 * width
    assert image.exponent_terms() == {(1, 1): 1, (0, 2 * STORED): 1,
                                      (3, 3): 1}
    # images made before the widening are repacked when used
    assert early["y"].pack is not target.pack
    assert (y + x).map_to(target, early).exponent_terms() == \
        {(1, 1): 1, (0, 5): 1}


def test_map_to_of_a_polynomial_that_is_its_own_image():
    # x^2 maps to x^(2*STORED), so the ring widens before any product;
    # the image of y is the polynomial itself, repacked when it is used
    ring = polynomial_ring("Z", [("x", 1), ("y", 1)])
    x, y = ring.gen("x"), ring.gen("y")
    p = x ** 2 + y + x * y
    image = p.map_to(ring, {"x": x ** STORED, "y": p})
    assert image == x ** (2 * STORED) + p + x ** STORED * p


def test_map_to_of_its_own_image_decodes_again_after_a_widening():
    # p, left on the first packing, is the image of x: the first pass
    # repacks it, and y^5 -> z^(5 * 2^28) then widens the ring again
    ring = polynomial_ring("Z", [("x", 1), ("y", 1), ("z", 1)])
    x, y, z = (ring.gen(name) for name in "xyz")
    p = x ** 3 * y ** 5
    big = z ** (2 ** 28)
    assert p.pack is not ring.pack
    image = p.map_to(ring, {"x": p, "y": big})
    assert image.exponent_terms() == {(9, 15, 5 * 2 ** 28): 1}


def test_map_to_repacks_its_partial_sum_when_a_product_widens():
    # d is added first; the product of the images of a and b then passes
    # the stored limit and widens the target in the middle of the sum
    source = polynomial_ring("Z", [("a", 1), ("b", 1), ("c", 1), ("d", 1)])
    target = polynomial_ring("Z", [("s", 1), ("t", 1)])
    s, t = target.gen("s"), target.gen("t")
    images = {"a": t ** STORED + 1, "b": t ** STORED + s, "c": s + 1,
              "d": s + t}
    a, b, c, d = (source.gen(name) for name in "abcd")
    width = target.pack.width
    image = (d + 2 * a * b * c).map_to(target, images)
    assert target.pack.width == 2 * width
    assert image == map_oracle.map_to(d + 2 * a * b * c, target, images)
    assert image.pack is target.pack


# -- ring maps against the reference ------------------------------------------

OTHER = polynomial_ring("Q", [("u", 1)])


@st.composite
def free_rings(draw, prefix, max_gens):
    """A fresh Z or Q ring on 0..max_gens generators, some invertible."""
    specs = [GenSpec(f"{prefix}{i}", draw(st.integers(-2, 3)),
                     draw(st.booleans()))
             for i in range(draw(st.integers(0, max_gens)))]
    return Ring(draw(st.sampled_from("ZQ")), specs), specs


@st.composite
def terms_over(draw, ring, specs, size, max_terms):
    signed = st.tuples(*[st.integers(-size, size) for _ in specs])
    values = rationals if ring.base == "Q" else ints
    return draw(st.dictionaries(
        signed.map(lambda e: signed_monomial(ring, specs, e)), values,
        max_size=max_terms))


@st.composite
def ring_maps(draw):
    """A polynomial, a target ring and images for a ring map between
    fresh rings.  An image is 0, one term (inverses included), up to
    three terms, or a term near the stored limit whose powers widen the
    target; now and then one is missing or lies in another ring."""
    source, specs = draw(free_rings("g", 4))
    target, tspecs = draw(free_rings("t", 3))
    poly = source.poly(draw(terms_over(source, specs, 3, 6)))
    images = {}
    for gen in source.gens:
        kind = draw(st.sampled_from(
            ["zero", "monomial", "monomial", "terms", "terms", "large",
             "large", "missing", "other"]))
        if kind == "missing" and draw(st.booleans()):
            continue
        if kind == "other" and draw(st.booleans()):
            images[gen.name] = OTHER.gen("u")
            continue
        if kind == "zero":
            terms = {}
        elif kind == "large":
            big = signed_monomial(target, tspecs,
                                  [STORED - 1] * len(tspecs))
            terms = {big: 1}
            if draw(st.booleans()):
                terms.update(draw(terms_over(target, tspecs, 1, 2)))
        else:
            terms = draw(terms_over(target, tspecs, 2,
                                    1 if kind == "monomial" else 3))
            terms = terms or {(0,) * len(target.gens): 1}
        images[gen.name] = target.poly(terms)
    return poly, target, images


def outcome(thunk):
    """(value, None), or (None, (type, message)) of a refusal."""
    try:
        return thunk(), None
    except CobaltError as err:
        return None, (type(err), str(err))


@settings(max_examples=300, deadline=None)
@given(ring_maps())
@example((polynomial_ring("Q", [("m", 1)]).gen("m") * Fraction(1, 2),
          polynomial_ring("Z", [("t", 1)]), {}))
def test_map_to_matches_the_reference(case):
    poly, target, images = case
    got, raised = outcome(lambda: poly.map_to(target, images))
    if raised is None:
        # every key is a stored one, so a later product cannot carry
        pack = got.pack
        assert not any(pack.less_quarter(k) & pack.guard for k in got.terms)
    want, refused = outcome(lambda: map_oracle.map_to(poly, target, images))
    assert raised == refused
    if refused is None:
        assert got == want
        assert got.ring is target
        assert_canonical(got)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_keys_decode_at_every_width(data):
    """Each packing reads a key back to its exponents and degree; at
    w = 128, past the struct formats, exponents reach 2^62 and more."""
    ring, specs = data.draw(free_rings("g", 5))
    width = data.draw(st.sampled_from([16, 32, 64, 128]))
    ring.widen(width)
    pack = ring.pack
    assert pack.width == width and (pack.codec is None) == (width > 64)
    limit = (1 << (width - 2)) - 1     # the largest stored |exponent|
    size = st.one_of(st.integers(0, 3), st.integers(limit - 3, limit))
    signed = st.tuples(*[st.tuples(size, st.booleans()).map(
        lambda v: -v[0] if v[1] else v[0]) if spec.invertible else size
        for spec in specs])
    one, other = data.draw(signed), data.draw(signed)
    for exps in (signed_monomial(ring, specs, one),
                 signed_monomial(ring, specs, other)):
        key = pack.key(exps)
        assert pack.exponents(key) == exps
        assert type(pack.exponents(key)) is tuple
        assert pack.degree(key) == ring.monomial_degree(exps)
    # a product key, up to twice the stored limit, decodes as well
    both = signed_monomial(ring, specs, [x + y for x, y in zip(one, other)])
    key = pack.key(signed_monomial(ring, specs, one)) \
        + pack.key(signed_monomial(ring, specs, other)) - pack.offset
    assert pack.exponents(key) == both
    assert pack.degree(key) == ring.monomial_degree(both)
