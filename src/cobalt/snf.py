"""Exact integer and rational linear algebra.

Matrices are lists of row lists with Python int entries (arbitrary
precision); rational matrices may also hold fractions.Fraction entries.
Three kernels do all the work:

- smith_normal_form returns the elementary divisors together with the
  unimodular transforms U and V, U * matrix * V diagonal.  Kernels,
  integer and p-local solutions and preimages are read off it, and so
  are the one-shot lattice_contains and quotient_invariants.
- Lattice factors a lattice once into a row echelon over Z with
  positive pivots and no transforms, and answers membership (p-locally
  if asked), whether the quotient vanishes, the pivot columns and the
  torsion from it.  A lattice asked several questions is built once.
- pivot_columns is a fraction-free row echelon: rows are cleared of
  denominators by integer_rows and eliminated over Z.  Rank, pivots and
  rational spans are phrased through it.

preimage_lattice is the one preimage routine, for Z, for Z localized
at a prime p, and for Q (whose preimage is the rational span of the
integer one); p_saturation is one of its instances.

Lattices are represented as plain lists of generator vectors living in
Z^n; they need not be independent.  An optional prime p switches the
membership and quotient routines to p-local semantics: integers coprime
to p are treated as units.
"""

from dataclasses import dataclass
from math import gcd, lcm


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


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
    """The sublattice of Z^width spanned by `gens`, as a row echelon.

    The rows are computed once, with no transform matrices: column by
    column, the rows that reach a column are combined by Euclid's
    algorithm until one is left, and its pivot is made positive (the
    echelon half of the Hermite form; Cohen, GTM 138, section 2.4).  The
    rows are independent and span the same lattice as `gens`, so each
    question below is answered from them alone.  `pivots` holds the
    pivot columns and `leads` the pivot entries, all positive.

    >>> lat = Lattice([[2, 4], [6, 8]], 2)
    >>> lat.rows, lat.pivots
    ([[2, 4], [0, 4]], [0, 1])
    >>> lat.contains([4, 4]), lat.contains([1, 0]), lat.contains([1, 0], p=3)
    (True, False, True)
    >>> lat.quotient_is_zero(p=3), lat.torsion()
    (True, [2, 4])
    """

    def __init__(self, gens, width):
        self.width = width
        self.rows = []
        self.pivots = []
        active = [list(map(int, g)) for g in gens if any(g)]
        for col in range(width):
            if not active:
                break
            hit = [row for row in active if row[col]]
            if not hit:
                continue
            active = [row for row in active if not row[col]]
            while len(hit) > 1:
                top = min(hit, key=lambda row: abs(row[col]))
                left = [top]
                for row in hit:
                    if row is top:
                        continue
                    q = row[col] // top[col]
                    row = [x - q * y for x, y in zip(row, top)]
                    if row[col]:
                        left.append(row)
                    elif any(row):
                        active.append(row)
                hit = left
            top = hit[0]
            self.rows.append(top if top[col] > 0 else [-x for x in top])
            self.pivots.append(col)
        self.leads = [row[col] for row, col in zip(self.rows, self.pivots)]

    @property
    def rank(self):
        return len(self.rows)

    def contains(self, vec, p=None):
        """Is vec in the lattice, or with p set, is c*vec for some c
        coprime to p?

        vec is reduced against the rows in pivot order; it lies in the
        lattice iff every pivot divides what is left in its column and
        nothing is left at the end.  With p set, a pivot whose p-part
        divides the entry is made to divide it by scaling vec with a
        factor coprime to p.
        """
        vec = list(vec)
        for row, col in zip(self.rows, self.pivots):
            x, d = vec[col], row[col]
            if not x:
                continue
            if x % d:
                scale = d // gcd(x, d)
                if p is None or scale % p == 0:
                    return False
                vec = [scale * y for y in vec]
                x *= scale
            q = x // d
            vec = [y - q * z for y, z in zip(vec, row)]
        return not any(vec)

    def quotient_is_zero(self, p=None):
        """Is Z^width / lattice zero (localized at p when p is set)?

        It is when the rank is the width and every pivot is 1 (prime to
        p): the rows are then square and triangular, so the quotient's
        order is the product of the pivots.
        """
        if self.rank < self.width:
            return False
        if p is None:
            return all(d == 1 for d in self.leads)
        return all(d % p for d in self.leads)

    def torsion(self):
        """The elementary divisors > 1 of Z^width / lattice.

        None when every pivot is 1: the rows and the unit vectors of the
        other columns then form a triangular basis of Z^width, so the
        quotient is free.
        Otherwise they are the Smith divisors of the echelon rows.
        """
        if all(d == 1 for d in self.leads):
            return []
        return [d for d in smith_normal_form(self.rows).divisors if d > 1]


def kernel_basis(matrix):
    """Integer basis of {x : matrix @ x = 0}, as a list of vectors."""
    if not matrix or not matrix[0]:
        return identity_matrix(len(matrix[0]) if matrix else 0)
    s = smith_normal_form(matrix)
    return [[s.v[i][j] for i in range(s.cols)] for j in range(s.rank, s.cols)]


def solve_int(matrix, rhs):
    """One integer solution x of matrix @ x = rhs, or None."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if m == 0:
        return [0] * n
    if n == 0:
        return [] if all(x == 0 for x in rhs) else None
    s = smith_normal_form(matrix)
    w = mat_vec(s.u, rhs)
    y = [0] * n
    for i in range(m):
        if i < s.rank:
            d = s.divisors[i]
            if w[i] % d:
                return None
            y[i] = w[i] // d
        elif w[i] != 0:
            return None
    return mat_vec(s.v, y)


def has_solution_p_local(matrix, rhs, p):
    """Does matrix @ x = rhs admit a solution over Z localized at p?

    Equivalent to: for every i, the i-th transformed entry is divisible
    by the p-part of the i-th divisor, and entries past the rank vanish
    exactly (denominators coprime to p cannot repair a free direction).
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if m == 0:
        return True
    if n == 0:
        return all(x == 0 for x in rhs)
    s = smith_normal_form(matrix)
    w = mat_vec(s.u, rhs)
    for i in range(m):
        if i < s.rank:
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


def lattice_contains(gens, vec, p=None):
    """Is vec in the sublattice of Z^n spanned by gens (p-locally if p)?"""
    if not gens:
        return all(x == 0 for x in vec)
    mat = columns_matrix(gens, len(vec))
    if p is None:
        return solve_int(mat, vec) is not None
    return has_solution_p_local(mat, vec, p)


def lattices_equal(gens_a, gens_b, p=None):
    return (all(lattice_contains(gens_b, g, p=p) for g in gens_a)
            and all(lattice_contains(gens_a, g, p=p) for g in gens_b))


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
    pivots and kernels are unchanged.
    """
    out = []
    for row in matrix:
        denom = lcm(1, *(x.denominator for x in row))
        out.append([x.numerator * (denom // x.denominator) for x in row])
    return out


def pivot_columns(matrix):
    """Pivot columns of the row echelon form over Q, in increasing order.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968, with row
    contents in place of his exact divisions): rows are cleared of
    denominators, each step combines two integer rows with cofactors
    reduced by their gcd, and every new row is divided by its content,
    so entries stay as small as the row space allows.  The pivot
    columns, and hence the rank, depend only on the matrix.

    >>> pivot_columns([[2, 4, 1], [1, 2, 3], [3, 6, 4]])
    [0, 2]
    """
    rows = [row for row in integer_rows(matrix) if any(row)]
    width = len(matrix[0]) if matrix else 0
    pivots = []
    for col in range(width):
        if not rows:
            break
        hit = next((i for i, row in enumerate(rows) if row[col]), None)
        if hit is None:
            continue
        top = rows.pop(hit)
        pivots.append(col)
        remaining = []
        for row in rows:
            if row[col]:
                g = gcd(top[col], row[col])
                a, b = top[col] // g, row[col] // g
                row = [a * x - b * y for x, y in zip(row, top)]
                content = gcd(*row)
                if not content:
                    continue
                if content > 1:
                    row = [x // content for x in row]
            remaining.append(row)
        rows = remaining
    return pivots


def rational_rank(matrix):
    """Rank over Q of an int or Fraction matrix."""
    return len(pivot_columns(matrix))


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
