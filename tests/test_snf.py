"""Exact integer linear algebra: Smith form, lattices, saturations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobalt import snf
from echelon_oracle import pivot_columns as oracle_pivot_columns


def check_factorization(a):
    form = snf.smith_normal_form(a)
    m, n = len(a), len(a[0])
    d = snf.mat_mul(snf.mat_mul(form.u, a), form.v)
    for i in range(m):
        for j in range(n):
            want = form.divisors[i] if i == j and i < len(form.divisors) else 0
            assert d[i][j] == want
    assert snf.mat_mul(form.u, form.u_inv) == snf.identity_matrix(m)
    assert snf.mat_mul(form.v, form.v_inv) == snf.identity_matrix(n)
    for i in range(len(form.divisors) - 1):
        if form.divisors[i + 1]:
            assert form.divisors[i + 1] % max(form.divisors[i], 1) == 0
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


@settings(max_examples=150, deadline=None)
@given(_matrices(_small_ints))
def test_pivot_columns_match_oracle_on_integer_matrices(matrix):
    pivots = snf.pivot_columns(matrix)
    assert pivots == sorted(oracle_pivot_columns(matrix))
    assert len(pivots) == snf.smith_normal_form(matrix).rank


@settings(max_examples=150, deadline=None)
@given(_matrices(st.one_of(_small_ints, _fractions)))
def test_pivot_columns_match_oracle_on_rational_matrices(matrix):
    assert snf.pivot_columns(matrix) == \
        sorted(oracle_pivot_columns(matrix))


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
