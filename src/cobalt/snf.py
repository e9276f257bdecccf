"""Exact integer and rational linear algebra.

Matrices are lists of row lists with Python int entries (arbitrary
precision); rational matrices may also hold fractions.Fraction entries.
Two kernels do all the work:

- smith_normal_form returns the elementary divisors together with the
  unimodular transforms U and V, U * matrix * V diagonal.  Kernels,
  integer and p-local solutions and preimages are read off it, and so
  are the one-shot lattice_contains and quotient_invariants.
- Lattice factors a module once into a row echelon with positive
  pivots and no transforms, over Z, over Z localized at a prime p, or
  over Q, and answers membership, whether the quotient vanishes, the
  pivot columns and the torsion from it.  A module asked several
  questions is built once.  Ranks and rational spans are a Lattice over
  Q of the rows integer_rows clears of denominators.

preimage_lattice is the one preimage routine, for Z, for Z localized
at a prime p, and for Q (whose preimage is the rational span of the
integer one); p_saturation is one of its instances.

Lattices are represented as plain lists of generator vectors living in
Z^n; they need not be independent.  An optional prime p switches the
one-shot membership and quotient routines to p-local semantics:
integers coprime to p are treated as units.
"""

from dataclasses import dataclass
from math import gcd, lcm
from operator import index, mul


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def columns_matrix(cols, height):
    """Assemble a height x len(cols) matrix from column vectors."""
    return [[col[i] for col in cols] for i in range(height)]


@dataclass
class SmithForm:
    divisors: list           # elementary divisors d_1 | d_2 | ..., zeros last
    rows: int
    cols: int
    u: list                  # unimodular, rows x rows
    v: list                  # unimodular, cols x cols

    @property
    def rank(self):
        return sum(1 for d in self.divisors if d)


def smith_normal_form(matrix):
    """Smith normal form over Z.

    Returns a SmithForm with u * matrix * v diagonal, diagonal entries
    the canonical nonnegative elementary divisors d_1 | d_2 | ... followed
    by zeros.  Deterministic: the pivot is always the smallest nonzero
    entry in absolute value, ties broken by position.

    >>> smith_normal_form([[2, 4], [6, 8]]).divisors
    [2, 4]
    """
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = identity_matrix(m)
    v = identity_matrix(n)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_addmul(i, j, c):
        # row_i += c * row_j
        ai, aj = a[i], a[j]
        for t in range(n):
            ai[t] += c * aj[t]
        ui, uj = u[i], u[j]
        for t in range(m):
            ui[t] += c * uj[t]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def col_addmul(i, j, c):
        # col_i += c * col_j
        for r in a:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]

    divisors = []
    t = 0
    while t < m and t < n:
        # locate the minimal nonzero entry in the trailing block
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < abs(best[0])):
                    best = (x, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)

        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_addmul(i, t, -q)
                    if a[i][t]:
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_addmul(j, t, -q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # divisibility: pivot must divide the rest of the block
            pivot = a[t][t]
            offender = None
            for i in range(t + 1, m):
                row = a[i]
                for j in range(t + 1, n):
                    if row[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(t, offender, 1)
        if a[t][t] < 0:
            row_negate(t)
        divisors.append(a[t][t])
        t += 1

    divisors.extend([0] * (min(m, n) - len(divisors)))
    return SmithForm(divisors, m, n, u, v)


class Lattice:
    """The submodule of R^width spanned by integer `gens`, as a row
    echelon, for R = Z, Z_(p) or Q: `over` is "Z", a prime p, or "Q".

    The rows are computed once, with no transforms: column by column,
    the rows that reach a column are combined until one is left, and
    its pivot is made positive (the echelon half of the Hermite form;
    Cohen, GTM 138, section 2.4).  A row is cleared by Euclid's
    algorithm, or in one cross-multiplication when the cofactor is a
    unit of R, and each new row is divided by the part of its content
    that is a unit; over Z, whose units are +-1, neither applies.  The
    rows span the same R-module as `gens` and answer every question
    below.  `pivots` holds the pivot columns, `leads` the pivots.

    >>> lat = Lattice([[2, 4], [6, 8]], 2)
    >>> lat.rows, lat.contains([4, 4]), lat.contains([1, 0]), lat.torsion()
    ([[2, 4], [0, 4]], True, False, [2, 4])
    >>> local = Lattice([[2, 4], [6, 8]], 2, over=3)
    >>> local.rows, local.contains([1, 0]), local.quotient_is_zero()
    ([[1, 2], [0, 1]], True, True)
    >>> rational = Lattice([[2, 4, 1], [1, 2, 3], [3, 6, 4]], 3, over="Q")
    >>> rational.rows, rational.pivots, rational.torsion()
    ([[1, 2, 3], [0, 0, 1]], [0, 2], [])
    """

    def __init__(self, gens, width, over="Z"):
        self.width = width
        self.over = over
        self.rows = []
        self.pivots = []
        units = over != "Z"     # over Z, Euclid alone
        active = [list(map(index, g)) for g in gens if any(g)]
        if units:
            active = list(map(self._divide_units, active))
        for col in range(width):
            if not active:
                break
            hit = [row for row in active if row[col]]
            if not hit:
                continue
            active = [row for row in active if not row[col]]
            while len(hit) > 1:
                top = min(hit, key=lambda row: abs(row[col]))
                t = top[col]
                left = [top]
                for row in hit:
                    if row is top:
                        continue
                    x = row[col]
                    g = gcd(x, t) if units and x % t else 0
                    if g and self.is_unit(t // g):
                        a, b = t // g, x // g
                        row = [a * y - b * z for y, z in zip(row, top)]
                    else:
                        q = x // t
                        row = [y - q * z for y, z in zip(row, top)]
                    if units:
                        row = self._divide_units(row)
                    if row[col]:
                        left.append(row)
                    elif any(row):
                        active.append(row)
                hit = left
            top = hit[0]
            self.rows.append(top if top[col] > 0 else [-x for x in top])
            self.pivots.append(col)
        self.leads = [row[col] for row, col in zip(self.rows, self.pivots)]

    def _unit_part(self, x):
        """The largest positive unit of R dividing x != 0: 1 over Z, |x|
        over Q, and over Z_(p) |x| stripped of its factors p."""
        if self.over == "Z":
            return 1
        x = abs(x)
        if self.over != "Q":
            while x % self.over == 0:
                x //= self.over
        return x

    def _divide_units(self, row):
        content = gcd(*row)
        unit = self._unit_part(content) if content else 1
        return row if unit == 1 else [x // unit for x in row]

    def is_unit(self, x):
        """Is x a unit of R: +-1 over Z, prime to p over Z_(p), nonzero
        over Q?"""
        return x != 0 and self._unit_part(x) == abs(x)

    @property
    def rank(self):
        return len(self.rows)

    def contains(self, vec):
        """Is vec in the R-module, that is, is c*vec in the lattice over
        Z for some unit c of R?

        vec is reduced against the rows in pivot order; it lies in the
        module iff every pivot divides what is left in its column, after
        scaling vec by a unit of R where that makes it divide, and
        nothing is left at the end.
        """
        vec = list(vec)
        for row, col in zip(self.rows, self.pivots):
            x, d = vec[col], row[col]
            if not x:
                continue
            if x % d:
                scale = d // gcd(x, d)
                if not self.is_unit(scale):
                    return False
                vec = [scale * y for y in vec]
                x *= scale
            q = x // d
            vec = [y - q * z for y, z in zip(vec, row)]
        return not any(vec)

    def quotient_is_zero(self):
        """Is R^width / module zero?

        It is when the rank is the width and every pivot is a unit: the
        rows are then square and triangular, with a unit determinant.
        """
        return self.rank == self.width and all(map(self.is_unit, self.leads))

    def torsion(self):
        """The invariant factors of R^width / module that are not units:
        the Smith divisors of the echelon rows, each stripped of its
        unit part (its p-part over Z_(p), none over Q).

        [] when every pivot is a unit: the rows and the unit vectors of
        the other columns then form a triangular basis of R^width, so
        the quotient is free.
        """
        if all(map(self.is_unit, self.leads)):
            return []
        return [d // self._unit_part(d)
                for d in smith_normal_form(self.rows).divisors
                if not self.is_unit(d)]


def kernel_basis(matrix):
    """Integer basis of {x : matrix @ x = 0}, as a list of vectors."""
    if not matrix or not matrix[0]:
        return identity_matrix(len(matrix[0]) if matrix else 0)
    s = smith_normal_form(matrix)
    return [[s.v[i][j] for i in range(s.cols)] for j in range(s.rank, s.cols)]


def solve_int(matrix, rhs, form=None):
    """One integer solution x of matrix @ x = rhs, or None.

    `form`, if given, is the Smith form of `matrix`, factored once by a
    caller that solves for many right-hand sides.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if m == 0:
        return [0] * n
    if n == 0:
        return [] if all(x == 0 for x in rhs) else None
    s = smith_normal_form(matrix) if form is None else form
    w = mat_vec(s.u, rhs)
    rank = s.rank
    y = [0] * n
    for i in range(m):
        if i < rank:
            d = s.divisors[i]
            if w[i] % d:
                return None
            y[i] = w[i] // d
        elif w[i] != 0:
            return None
    return mat_vec(s.v, y)


def has_solution_p_local(matrix, rhs, p, form=None):
    """Does matrix @ x = rhs admit a solution over Z localized at p?

    Equivalent to: for every i, the i-th transformed entry is divisible
    by the p-part of the i-th divisor, and entries past the rank vanish
    exactly (denominators coprime to p cannot repair a free direction).
    `form`, if given, is the Smith form of `matrix`, as for solve_int.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if m == 0:
        return True
    if n == 0:
        return all(x == 0 for x in rhs)
    s = smith_normal_form(matrix) if form is None else form
    w = mat_vec(s.u, rhs)
    rank = s.rank
    for i in range(m):
        if i < rank:
            need = _p_valuation(s.divisors[i], p)
            if need and w[i] != 0 and _p_valuation(w[i], p) < need:
                return False
        elif w[i] != 0:
            return False
    return True


def _p_valuation(x, p):
    if x == 0:
        return None
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def lattice_contains(gens, vec, p=None, form=None):
    """Is vec in the sublattice of Z^n spanned by gens (p-locally if p)?

    `form`, if given, is the Smith form of columns_matrix(gens, len(vec)),
    factored once by a caller that tests many vectors.
    """
    if not gens:
        return all(x == 0 for x in vec)
    mat = columns_matrix(gens, len(vec))
    if p is None:
        return solve_int(mat, vec, form) is not None
    return has_solution_p_local(mat, vec, p, form)


def lattices_equal(gens_a, gens_b, p=None):
    """Do gens_a and gens_b span the same lattice (p-locally if p)?

    Each side's matrix is factored once, for all the other side's
    vectors.
    """
    return _all_contained(gens_a, gens_b, p) and \
        _all_contained(gens_b, gens_a, p)


def _all_contained(vecs, gens, p):
    """Does every vector of vecs lie in the lattice of gens?"""
    if not vecs:
        return True
    form = None
    if gens and vecs[0]:
        form = smith_normal_form(columns_matrix(gens, len(vecs[0])))
    return all(lattice_contains(gens, v, p, form) for v in vecs)


def quotient_invariants(ambient_rank, gens, p=None):
    """Invariants of Z^ambient_rank / <gens>.

    Returns (free_rank, torsion) where torsion lists the elementary
    divisors > 1.  With p set, divisors are reduced to their p-parts
    (Z_(p)-module invariants).
    """
    if ambient_rank == 0:
        return 0, []
    if not gens:
        return ambient_rank, []
    s = smith_normal_form(columns_matrix(gens, ambient_rank))
    divisors = [d for d in s.divisors if d]
    if p is not None:
        divisors = [p ** _p_valuation(d, p) for d in divisors]
    torsion = [d for d in divisors if d > 1]
    return ambient_rank - len(divisors), torsion


def quotient_is_zero(ambient_rank, gens, p=None):
    free, torsion = quotient_invariants(ambient_rank, gens, p=p)
    return free == 0 and not torsion


def p_saturation(gens, ambient_rank, p):
    """Generators of {v in Z^n : c*v in <gens> for some c coprime to p}."""
    return preimage_lattice(identity_matrix(ambient_rank), gens, p)


def preimage_lattice(matrix, target_gens, p=None):
    """Generators of {x : matrix @ x lies in <target_gens>} (p-locally if p).

    matrix maps Z^n -> Z^m; target_gens live in Z^m.  Without p, entries
    may be int or Fraction: each row of [matrix | -target] is cleared of
    denominators by integer_rows, which leaves the kernel unchanged, so
    over Q the rational span of the result is the rational preimage.

    With p set, the preimage is taken of the p-saturation Sat_p(L) of
    L = <target_gens>, the v with c*v in L for some c coprime to p.  Let
    c be the part of the last nonzero elementary divisor of L that is
    prime to p.  Every elementary divisor divides it, so c kills exactly
    the torsion of Z^m / L of order prime to p, and v lies in Sat_p(L)
    iff c*v lies in L.  Hence the p-local preimage is the integer
    preimage of L under c * matrix, and the computation stays in Z.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if m == 0:
        return identity_matrix(n)
    scale = 1
    if p is not None and target_gens:
        divisors = smith_normal_form(columns_matrix(target_gens, m)).divisors
        last = next((d for d in reversed(divisors) if d), 1)
        scale = last // p ** _p_valuation(last, p)
    stacked = integer_rows([[scale * x for x in matrix[i]]
                            + [-g[i] for g in target_gens]
                            for i in range(m)])
    return [vec[:n] for vec in kernel_basis(stacked) if any(vec[:n])]


# -- rational routines ---------------------------------------------------------

def integer_rows(matrix):
    """Scale each int or Fraction row by the lcm of its denominators.

    Each row only changes by a nonzero factor, so row spaces, ranks,
    pivots and kernels are unchanged.  A row of ints is returned as it
    is, not copied.
    """
    out = []
    for row in matrix:
        if set(map(type, row)) <= {int}:
            out.append(row)
            continue
        denom = lcm(1, *(x.denominator for x in row))
        out.append([x.numerator * (denom // x.denominator) for x in row])
    return out


def rational_rank(matrix):
    """Rank over Q of an int or Fraction matrix."""
    width = len(matrix[0]) if matrix else 0
    return Lattice(integer_rows(matrix), width, over="Q").rank


def rational_in_span(vectors, vec):
    """Is vec a rational combination of the given vectors?"""
    if not any(vec):
        return True
    vectors = list(vectors)
    return rational_rank(vectors + [vec]) == rational_rank(vectors)


def rational_spans_equal(vecs_a, vecs_b):
    vecs_a, vecs_b = list(vecs_a), list(vecs_b)
    rank = rational_rank(vecs_a)
    return rational_rank(vecs_b) == rank == rational_rank(vecs_a + vecs_b)
