"""Exact integer linear algebra: Smith form, lattices, saturations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobalt import snf
from echelon_oracle import pivot_columns as oracle_pivot_columns


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def determinant(a):
    """Determinant by Fraction elimination, independent of snf."""
    a = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for t in range(len(a)):
        pivot = next((i for i in range(t, len(a)) if a[i][t]), None)
        if pivot is None:
            return 0
        if pivot != t:
            a[t], a[pivot] = a[pivot], a[t]
            det = -det
        det *= a[t][t]
        for i in range(t + 1, len(a)):
            factor = a[i][t] / a[t][t]
            a[i] = [x - factor * y for x, y in zip(a[i], a[t])]
    return det


def check_factorization(a):
    """U * A * V = D, the divisor chain, and |det U| = |det V| = 1."""
    form = snf.smith_normal_form(a)
    m, n = len(a), len(a[0])
    d = mat_mul(mat_mul(form.u, a), form.v)
    for i in range(m):
        for j in range(n):
            assert d[i][j] == (form.divisors[i] if i == j else 0)
    assert abs(determinant(form.u)) == 1
    assert abs(determinant(form.v)) == 1
    nonzero = [x for x in form.divisors if x]
    assert form.divisors == nonzero + [0] * (min(m, n) - len(nonzero))
    assert all(x > 0 for x in nonzero)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    return form


def test_diag_example():
    form = snf.smith_normal_form([[2, 4], [6, 8]])
    assert form.divisors == [2, 4]


def test_divisor_chain_and_factors():
    form = check_factorization([[2, 0], [0, 3]])
    assert form.divisors == [1, 6]


def test_random_factorizations():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        check_factorization(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=m, max_size=m))))
def test_smith_form_certificate(matrix):
    check_factorization(matrix)


def test_zero_and_identity():
    form = snf.smith_normal_form([[0, 0], [0, 0]])
    assert form.divisors == [0, 0]
    assert form.rank == 0
    form = snf.smith_normal_form(snf.identity_matrix(3))
    assert form.divisors == [1, 1, 1]


def test_kernel_basis():
    a = [[1, 2, 3]]
    basis = snf.kernel_basis(a)
    assert len(basis) == 2
    for vec in basis:
        assert snf.mat_vec(a, vec) == [0]
    # kernel vectors span: rank of stacked matrix is 2
    assert snf.rational_rank(basis) == 2


def test_solve_int():
    assert snf.solve_int([[2]], [4]) == [2]
    assert snf.solve_int([[2]], [3]) is None
    a = [[1, 0], [0, 2]]
    x = snf.solve_int(a, [5, 6])
    assert snf.mat_vec(a, x) == [5, 6]
    assert snf.solve_int(a, [5, 7]) is None
    assert snf.solve_int([[1, 1]], [3]) is not None


def test_p_local_solutions():
    assert snf.has_solution_p_local([[2]], [3], 3)      # 2 is a unit mod 3
    assert not snf.has_solution_p_local([[2]], [3], 2)
    assert snf.has_solution_p_local([[6]], [3], 3)
    assert not snf.has_solution_p_local([[6]], [3], 2)
    assert snf.has_solution_p_local([[6]], [0], 2)


def test_lattice_contains():
    gens = [[2, 0], [0, 3]]
    assert snf.lattice_contains(gens, [4, 3])
    assert not snf.lattice_contains(gens, [1, 0])
    assert not snf.lattice_contains(gens, [3, 0], p=2)
    assert snf.lattice_contains(gens, [0, 1], p=2)   # 3 is a 2-local unit
    assert not snf.lattice_contains(gens, [0, 1], p=3)


def test_lattices_equal():
    a = [[2, 0], [0, 3]]
    b = [[2, 3], [2, -3]]
    assert not snf.lattices_equal(a, b)
    c = [[2, 0], [2, 3]]
    assert snf.lattices_equal(a, c)
    assert snf.lattices_equal([], [[0, 0]])


def test_lattices_equal_factors_each_side_once(monkeypatch):
    calls = []
    smith = snf.smith_normal_form

    def counted(matrix):
        calls.append(matrix)
        return smith(matrix)

    monkeypatch.setattr(snf, "smith_normal_form", counted)
    a = [[2, 0, 0, 1], [0, 3, 1, 0], [1, 1, 1, 1], [0, 0, 0, 5]]
    # another basis of the same lattice, by unimodular column operations
    b = [a[0], [x + y for x, y in zip(a[1], a[0])],
         [x - 2 * y for x, y in zip(a[2], a[1])],
         [x + y for x, y in zip(a[3], a[2])]]
    for p in (None, 2, 3):
        calls.clear()
        assert snf.lattices_equal(a, b, p)
        assert len(calls) == 2
    calls.clear()
    assert not snf.lattices_equal(a, b[:3])
    assert len(calls) <= 2


def test_quotient_invariants():
    free, torsion = snf.quotient_invariants(2, [[2, 0], [0, 3]])
    assert free == 0
    assert torsion == [6]
    free, torsion = snf.quotient_invariants(2, [[2, 0]])
    assert free == 1
    assert torsion == [2]
    free, torsion = snf.quotient_invariants(2, [[2, 0], [0, 3]], p=2)
    assert free == 0
    assert torsion == [2]
    free, torsion = snf.quotient_invariants(3, [])
    assert (free, torsion) == (3, [])


def test_quotient_is_zero():
    assert snf.quotient_is_zero(1, [[1]])
    assert not snf.quotient_is_zero(1, [[2]])
    assert snf.quotient_is_zero(1, [[2]], p=3)
    assert snf.quotient_is_zero(1, [[3]], p=2)
    assert not snf.quotient_is_zero(1, [[4]], p=2)
    assert not snf.quotient_is_zero(2, [[1, 0]])


def test_p_saturation():
    sat = snf.p_saturation([[2, 0], [0, 3]], 2, p=2)
    assert snf.lattice_contains(sat, [0, 1])
    assert snf.lattice_contains(sat, [2, 0])
    assert not snf.lattice_contains(sat, [1, 0])


def test_preimage_lattice():
    pre = snf.preimage_lattice([[2]], [[4]])
    assert snf.lattice_contains(pre, [2])
    assert not snf.lattice_contains(pre, [1])
    # map (x, y) -> x + y, target 3Z: preimage is {x + y in 3Z}
    pre = snf.preimage_lattice([[1, 1]], [[3]])
    assert snf.lattice_contains(pre, [1, 2])
    assert snf.lattice_contains(pre, [1, -1])
    assert not snf.lattice_contains(pre, [1, 1])


def test_rational_helpers():
    assert snf.rational_rank([[1, 2], [2, 4]]) == 1
    assert snf.rational_rank([[1, 2], [2, 5]]) == 2
    assert snf.rational_in_span([[1, 1, 0], [0, 0, 1]], [2, 2, 5])
    assert not snf.rational_in_span([[1, 1, 0]], [1, 0, 0])
    assert snf.rational_spans_equal([[1, 0], [0, 1]], [[1, 1], [1, -1]])
    assert not snf.rational_spans_equal([[1, 0]], [[1, 1], [1, -1]])


def _matrices(entries):
    """m x n matrices with 0 <= m, n <= 6, often with zero rows/columns."""
    def build(shape):
        m, n = shape
        row = st.lists(entries, min_size=n, max_size=n)
        zero_row = st.just([0] * n)
        return st.lists(st.one_of(row, row, zero_row), min_size=m,
                        max_size=m)

    def blank_columns(args):
        matrix, cols = args
        return [[0 if j in cols else x for j, x in enumerate(row)]
                for row in matrix]

    shapes = st.tuples(st.integers(0, 6), st.integers(0, 6))
    return st.tuples(shapes.flatmap(build),
                     st.sets(st.integers(0, 5), max_size=3)).map(
                         blank_columns)


_small_ints = st.integers(-4, 4)
_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


_bases = st.sampled_from(["Z", 2, 3, "Q"])


def _width(matrix):
    return len(matrix[0]) if matrix else 0


@settings(max_examples=150, deadline=None)
@given(_matrices(_small_ints), _bases)
def test_pivot_columns_match_oracle_on_integer_matrices(matrix, over):
    """The pivot columns depend on the rational row space alone, so they
    agree on every base."""
    pivots = snf.Lattice(matrix, _width(matrix), over).pivots
    assert pivots == sorted(oracle_pivot_columns(matrix))
    assert len(pivots) == snf.smith_normal_form(matrix).rank


@settings(max_examples=150, deadline=None)
@given(_matrices(st.one_of(_small_ints, _fractions)))
def test_pivot_columns_match_oracle_on_rational_matrices(matrix):
    lattice = snf.Lattice(snf.integer_rows(matrix), _width(matrix), "Q")
    assert lattice.pivots == sorted(oracle_pivot_columns(matrix))
    assert snf.rational_rank(matrix) == lattice.rank


def test_integer_rows_clears_denominators_per_row():
    rows = snf.integer_rows([[Fraction(1, 2), Fraction(1, 3), 1], [2, 0, 4],
                             [], [Fraction(-3, 4), 0, Fraction(5, 6)]])
    assert rows == [[3, 2, 6], [2, 0, 4], [], [-9, 0, 10]]


def test_determinism():
    a = [[3, 1, -2], [0, 4, 5], [7, -1, 2]]
    first = snf.smith_normal_form(a)
    second = snf.smith_normal_form([row[:] for row in a])
    assert first.divisors == second.divisors
    assert first.u == second.u
    assert first.v == second.v


def _preimage_cases(entries):
    """(matrix, target gens, x) with 1 <= m, n <= 4.

    One target generator is k * matrix @ x for a drawn k in 0..6, so x
    often lies in the preimage over Z_(p) or Q but not over Z.
    """
    def build(shape):
        m, n = shape
        return st.tuples(
            st.lists(st.lists(entries, min_size=n, max_size=n),
                     min_size=m, max_size=m),
            st.lists(st.lists(entries, min_size=m, max_size=m), max_size=3),
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            st.integers(0, 6))

    def join(case):
        matrix, gens, x, k = case
        return matrix, gens + [[k * y for y in snf.mat_vec(matrix, x)]], x

    shapes = st.tuples(st.integers(1, 4), st.integers(1, 4))
    return shapes.flatmap(build).map(join)


_primes = st.sampled_from([None, 2, 3])


@settings(max_examples=200, deadline=None)
@given(_preimage_cases(st.integers(-6, 6)), _primes)
def test_preimage_lattice_membership(case, p):
    matrix, gens, x = case
    pre = snf.preimage_lattice(matrix, gens, p)
    inside = snf.lattice_contains(gens, snf.mat_vec(matrix, x), p)
    assert snf.lattice_contains(pre, x, p) == inside
    # the generators span the p-saturated integer preimage itself
    assert snf.lattice_contains(pre, x) == inside


@settings(max_examples=100, deadline=None)
@given(_preimage_cases(st.one_of(st.integers(-4, 4), _fractions)))
def test_rational_preimage_membership(case):
    matrix, gens, x = case
    pre = snf.preimage_lattice(matrix, gens)
    assert snf.rational_in_span(pre, x) == \
        snf.rational_in_span(gens, snf.mat_vec(matrix, x))


def _vectors(n):
    return st.lists(st.integers(-6, 6), min_size=n, max_size=n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(_vectors(n), max_size=4), _vectors(n))), st.sampled_from([2, 3]))
def test_p_saturation_membership(case, p):
    gens, v = case
    sat = snf.p_saturation(gens, len(v), p)
    assert snf.lattice_contains(sat, v) == snf.lattice_contains(gens, v, p=p)


def _lattice_cases():
    """(gens, width, vec): at most 8 generators in Z^width, width <= 8.

    vec is drawn freely, or is k times an integer combination of the
    generators for a drawn k in 0..6, so it often lies in the lattice
    over Z_(p) but not over Z.
    """
    def build(shape):
        m, n = shape
        return st.tuples(st.lists(_vectors(n), min_size=m, max_size=m),
                         st.just(n), _vectors(n),
                         st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                         st.integers(0, 6), st.booleans())

    def join(case):
        gens, n, vec, coeffs, k, combine = case
        if combine:
            vec = [k * sum(c * g[j] for c, g in zip(coeffs, gens))
                   for j in range(n)]
        return gens, n, vec

    shapes = st.tuples(st.integers(0, 8), st.integers(0, 8))
    return shapes.flatmap(build).map(join)


def _check_echelon(lattice, width):
    """Echelon shape with positive pivots, on any base."""
    assert len(lattice.rows) == len(lattice.pivots) == lattice.rank
    assert lattice.pivots == sorted(set(lattice.pivots))
    assert lattice.leads == [row[col] for row, col
                             in zip(lattice.rows, lattice.pivots)]
    for row, col in zip(lattice.rows, lattice.pivots):
        assert len(row) == width and row[col] > 0 and not any(row[:col])


@settings(max_examples=300, deadline=None)
@given(_lattice_cases(), _primes)
def test_lattice_certificate(case, p):
    """Over Z (p None) and over Z_(p), against the one-shot Smith form
    routines with the same p."""
    gens, width, vec = case
    lattice = snf.Lattice(gens, width, "Z" if p is None else p)
    _check_echelon(lattice, width)
    assert lattice.pivots == sorted(oracle_pivot_columns(gens))
    # the same module: every input row reduces to zero, and every
    # echelon row lies in the span of gens over the same base
    assert all(lattice.contains(g) for g in gens)
    assert all(snf.lattice_contains(gens, row, p) for row in lattice.rows)
    assert lattice.contains(vec) == snf.lattice_contains(gens, vec, p)
    assert lattice.quotient_is_zero() == \
        snf.quotient_is_zero(width, gens, p)
    assert lattice.torsion() == snf.quotient_invariants(width, gens, p)[1]
    if p is None:
        assert lattice.torsion() == \
            [d for d in snf.smith_normal_form(gens).divisors if d > 1]
        # an echelon row is an integer combination of gens
        for row in lattice.rows:
            assert snf.solve_int(snf.columns_matrix(gens, width), row) \
                is not None


@settings(max_examples=200, deadline=None)
@given(_lattice_cases(), _primes)
def test_lattice_contains_with_a_factored_form(case, p):
    """A Smith form factored once answers as the one-shot test does,
    over Z (p None) and over Z_(p)."""
    gens, width, vec = case
    form = snf.smith_normal_form(snf.columns_matrix(gens, width))
    assert snf.lattice_contains(gens, vec, p, form=form) == \
        snf.lattice_contains(gens, vec, p)
    assert all(snf.lattice_contains(gens, g, p, form=form) for g in gens)


def _rational_cases():
    """(rows, width, vec): at most 8 Fraction rows in Q^width, width <= 8,
    vec drawn freely or a rational combination of the rows."""
    def build(shape):
        m, n = shape
        vector = st.lists(st.one_of(_small_ints, _fractions), min_size=n,
                          max_size=n)
        return st.tuples(st.lists(vector, min_size=m, max_size=m),
                         st.just(n), vector,
                         st.lists(_fractions, min_size=m, max_size=m),
                         st.booleans())

    def join(case):
        rows, n, vec, coeffs, combine = case
        if combine:
            vec = [sum(c * r[j] for c, r in zip(coeffs, rows))
                   for j in range(n)]
        return rows, n, vec

    shapes = st.tuples(st.integers(0, 8), st.integers(0, 8))
    return shapes.flatmap(build).map(join)


@settings(max_examples=300, deadline=None)
@given(_rational_cases())
def test_rational_lattice_against_fraction_ranks(case):
    """Over Q, against Gauss-Jordan elimination on Fractions: membership
    is a rank test, and the quotient vanishes at full rank."""
    rows, width, vec = case
    lattice = snf.Lattice(snf.integer_rows(rows), width, "Q")
    _check_echelon(lattice, width)
    rank = len(oracle_pivot_columns(rows))
    assert lattice.pivots == sorted(oracle_pivot_columns(rows))
    inside = not any(vec) or len(oracle_pivot_columns(rows + [vec])) == rank
    assert lattice.contains(snf.integer_rows([vec])[0]) == inside
    assert snf.rational_in_span(rows, vec) == inside
    assert lattice.quotient_is_zero() == (rank == width)
    assert lattice.torsion() == []


def test_lattice_edges():
    empty = snf.Lattice([], 3)
    assert (empty.rows, empty.pivots, empty.torsion()) == ([], [], [])
    assert empty.contains([0, 0, 0]) and not empty.contains([0, 1, 0])
    assert not snf.Lattice([], 3, 2).contains([0, 1, 0])
    assert not empty.quotient_is_zero()
    for over in ("Z", 2, "Q"):
        assert snf.Lattice([], 0, over).quotient_is_zero()
        assert snf.Lattice([[0, 0], [0, 0]], 2, over).rank == 0
    unit = snf.Lattice([[3, 1], [2, 1]], 2)
    assert unit.leads == [1, 1] and unit.quotient_is_zero()
    assert unit.torsion() == []
    two = snf.Lattice([[2, 0], [0, 3]], 2)
    assert not two.quotient_is_zero() and two.torsion() == [6]
    local = snf.Lattice([[2, 0], [0, 3]], 2, 2)
    assert not local.quotient_is_zero() and local.torsion() == [2]
    local = snf.Lattice([[2, 0], [0, 3]], 2, 5)
    assert local.quotient_is_zero() and local.torsion() == []
    rational = snf.Lattice([[2, 0], [0, 3]], 2, "Q")
    assert rational.rows == [[1, 0], [0, 1]] and rational.quotient_is_zero()


def test_lattice_units():
    """+-1 over Z, prime to p over Z_(p), nonzero over Q."""
    expected = {"Z": lambda x: abs(x) == 1, 2: lambda x: x % 2 != 0,
                3: lambda x: x % 3 != 0, "Q": lambda x: x != 0}
    for over, unit in expected.items():
        lattice = snf.Lattice([], 1, over)
        assert [x for x in range(-12, 13) if lattice.is_unit(x)] == \
            [x for x in range(-12, 13) if unit(x)]
    assert snf.Lattice([], 1, "Q").is_unit(Fraction(1, 2))


def test_lattice_divides_out_only_the_unit_part_of_a_content():
    """[6, 10] = 2 * [3, 5]: over Z_(3) and Q the factor 2 is a unit and
    is divided out, while over Z and Z_(2) it stays, and [3, 5] is not a
    member."""
    for over, row in (("Z", [6, 10]), (2, [6, 10]), (3, [3, 5]),
                      ("Q", [3, 5])):
        lattice = snf.Lattice([[6, 10]], 2, over)
        assert lattice.rows == [row]
        assert lattice.contains([3, 5]) == (row == [3, 5])
    # over Z_(3) the cofactor 2 of [3, 0] against [2, 1] is a unit, so
    # one cross-multiplication clears the column: 2 * [3, 0] - 3 * [2, 1]
    local = snf.Lattice([[2, 1], [3, 0]], 2, 3)
    assert local.rows == [[2, 1], [0, 3]] and local.torsion() == [3]
    # over Z_(2), 3 is a unit and [3, 0] is divided down to [1, 0]
    local = snf.Lattice([[2, 1], [3, 0]], 2, 2)
    assert local.rows == [[1, 0], [0, 1]] and local.quotient_is_zero()


def test_lattice_refuses_non_integer_entries():
    """A Fraction or a float is refused, not truncated towards 0; a
    rational matrix goes through integer_rows first."""
    for entry in (Fraction(1, 2), Fraction(4, 2), 0.5, 2.0):
        with pytest.raises(TypeError):
            snf.Lattice([[entry, 1]], 2, "Q")
    assert snf.Lattice(snf.integer_rows([[Fraction(1, 2), 1]]), 2,
                       "Q").rows == [[1, 2]]
