"""Schur calculus on Grassmannian cohomology rings, over Z throughout.

R(n, d) is the quotient of Z[x1..xr], r = n - d, deg x_i = i, by the
relations found in degrees d+1..n of the series inverse of
1 + x1 t + ... + xr t^r.  The Schur classes Delta_a, one per partition
a inside the d x r box, form a Z-basis; Delta_a is the d x d
determinant with (row, col) entry x_{a_row - row + col} (x_0 = 1,
x_k = 0 outside 0..r).  The ring builds each Delta_a by Pieri's rule
from classes built before (`GrassRing._schur`); the determinant,
`schur_polynomial`, is the independent route that
`determinant_identities` and the tests compare against.

Reduction to the Schur basis is Pieri straightening: x_i acts as the
one-row class Delta_(i), so multiplying by it adds a horizontal i-strip
to every shape, and shapes that leave the d x r box vanish (Fulton,
Young Tableaux, CUP 1997, section 9.4).  Each monomial is reduced by
growing the empty shape one generator at a time; no linear algebra is
involved.  A product Delta_a * Delta_b starts the same walk at shape a
and runs it over the monomials of Delta_b.
"""

import os
from functools import lru_cache

from .errors import BoundExceeded, InputError, PartitionOutOfBox
from .lr import lr_multiply
from .rings import Polynomial, Ring, GenSpec, graded_component
from .series import TruncSeries
from . import snf

DEFAULT_MAX_N = 8


def size_limit():
    """Largest allowed n, configurable through COBALT_MAX_N."""
    raw = os.environ.get("COBALT_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"COBALT_MAX_N must be an integer, got {raw!r}")


def partitions_of(total, rows, width):
    """Partitions of `total` with at most `rows` parts, parts <= width.

    Tuples are trimmed (no trailing zeros) and listed in descending
    lexicographic order.  Each list is built once per process; callers
    get a fresh copy of it.
    """
    return list(_partitions(total, rows, width))


@lru_cache(maxsize=None)
def _partitions(total, rows, width):
    if rows < 0 or width < 0:
        return () if total else ((),)
    out = []

    # rec is handed itself, not a closure over its own name, so a call
    # leaves no reference cycle for the collector
    def rec(rec, prefix, remaining, cap, slots):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if slots == 0 or cap * slots < remaining:
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(rec, prefix, remaining - part, part, slots - 1)
            prefix.pop()

    rec(rec, [], total, width, rows)
    return tuple(out)


def partitions_in_box(rows, width):
    """All partitions in the rows x width box, by size then lex-descending."""
    out = []
    for total in range(rows * width + 1):
        out.extend(_partitions(total, rows, width))
    return out


class GrassRing:
    """The ring R(n, d) with its Schur basis and exact reduction."""

    def __init__(self, n, d):
        if d < 0 or n < d:
            raise InputError(f"need 0 <= d <= n, got n={n}, d={d}")
        limit = size_limit()
        if n > limit:
            raise BoundExceeded(
                f"n={n} exceeds the size limit {limit}; "
                "set COBALT_MAX_N to raise it")
        self.n = n
        self.d = d
        self.r = n - d
        self.ring = Ring("Z", [GenSpec(f"x{i}", i)
                               for i in range(1, self.r + 1)])
        gen_series = TruncSeries(self.ring, n, {0: 1})
        for i in range(1, self.r + 1):
            gen_series = gen_series + TruncSeries(
                self.ring, n, {i: self.ring.gen(f"x{i}")})
        inverse = gen_series.invert()
        for j in range(d + 1, n + 1):
            c = inverse.coeff(j)
            if not c.is_zero():
                self.ring.impose(c)
        self._schur_cache = {}
        self._pieri_cache = {}      # (shape, k) -> tuple of shapes

    # -- combinatorics -------------------------------------------------------

    @property
    def rank(self):
        out = 1
        for i in range(1, self.d + 1):
            out = out * (self.n - self.d + i) // i
        return out

    @property
    def top(self):
        return (self.r,) * self.d if self.r else ()

    def check_partition(self, partition):
        partition = tuple(partition)
        trimmed = partition
        while trimmed and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        if any(a <= 0 for a in trimmed) or \
                any(trimmed[i] < trimmed[i + 1] for i in range(len(trimmed) - 1)):
            raise PartitionOutOfBox(f"{partition} is not a partition")
        if len(trimmed) > self.d or (trimmed and trimmed[0] > self.r):
            raise PartitionOutOfBox(
                f"{partition} does not fit the {self.d} x {self.r} box")
        return trimmed

    def partitions(self, degree=None):
        if degree is None:
            return partitions_in_box(self.d, self.r)
        return partitions_of(degree, self.d, self.r)

    def complement(self, partition):
        a = self.check_partition(partition)
        padded = list(a) + [0] * (self.d - len(a))
        comp = tuple(self.r - x for x in reversed(padded))
        return self.check_partition(comp)

    # -- Schur classes -------------------------------------------------------

    def schur(self, partition):
        """Determinantal representative of Delta_partition in Z[x1..xr]."""
        return self._schur(self.check_partition(partition))[0]

    def _schur(self, a):
        """Delta_a and its terms by exponent tuple, kept per ring.

        Built by Pieri's rule from classes built before, not as a
        determinant.  With k = a_1 and mu = (a_2, a_3, ...), the strip
        shapes of x_k * Delta_mu are a itself and shapes nu with
        nu_1 > k: a nu with nu_1 <= k has nu_i <= a_i in every row and
        the same size as a.  A strip that leaves the box has a first
        Jacobi-Trudi row x_{nu_1}, x_{nu_1 + 1}, ... of zeros, so
        Delta_a = x_k * Delta_mu - sum of Delta_nu over the other shapes
        of `_pieri(mu, k)`, an identity of polynomials, not only of
        classes (Macdonald, Symmetric Functions, I.3 and I.5).  The
        recursion ends: mu has fewer parts, and each nu a longer first
        row, at most r.
        """
        cached = self._schur_cache.get(a)
        if cached is not None:
            return cached
        if not a:
            poly = self.ring.one()
        else:
            k, mu = a[0], a[1:]
            minus_one = -self.ring.one()
            poly = self.ring.dot(
                [(self._schur(mu)[0], self.ring.gen(k - 1))]
                + [(self._schur(nu)[0], minus_one)
                   for nu in self._pieri(mu, k) if nu != a])
        cached = self._schur_cache[a] = poly, poly.exponent_terms()
        return cached

    def _pieri(self, shape, k):
        """Shapes in the box that add a horizontal k-strip to `shape`.

        Row i may grow up to the old length of row i - 1 (r for the
        first row), so no two added boxes share a column.  Results are
        kept per ring as tuples, since reduction asks for the same few
        (shape, k) pairs again and again.
        """
        cached = self._pieri_cache.get((shape, k))
        if cached is not None:
            return cached
        old = shape + (0,) * (self.d - len(shape))
        grown = [((), 0)]
        for row, base in enumerate(old):
            cap = old[row - 1] if row else self.r
            grown = [(prefix + (length,), added + length - base)
                     for prefix, added in grown
                     for length in range(base, min(cap, base + k - added) + 1)]
        cached = self._pieri_cache[shape, k] = tuple(
            tuple(x for x in prefix if x)
            for prefix, added in grown if added == k)
        return cached

    def reduce(self, poly):
        """Schur coordinates of a polynomial representative.

        Returns {partition: int} with zero coefficients omitted, ordered
        by degree and then as in `partitions(degree)`.  Any polynomial
        in Z[x1..xr] is accepted: each monomial starts at the empty
        shape and gains one horizontal i-strip per factor x_i.
        """
        if poly.ring is not self.ring:
            raise InputError("polynomial is not over this ring's presentation")
        return self._reduce(poly.exponent_terms(), ())

    def _reduce(self, terms, start):
        totals = {}
        for exps, c in terms.items():
            shapes = {start: c}
            for i, e in enumerate(exps, 1):
                for _ in range(e):
                    step = {}
                    for shape, coeff in shapes.items():
                        for mu in self._pieri(shape, i):
                            step[mu] = step.get(mu, 0) + coeff
                    shapes = step
            for lam, coeff in shapes.items():
                totals[lam] = totals.get(lam, 0) + coeff
        # by degree, then lex-descending: the order of partitions(degree)
        return {lam: totals[lam] for lam in sorted(
            (lam for lam, c in totals.items() if c),
            key=lambda lam: (-sum(lam), lam), reverse=True)}

    # -- products and the pairing ---------------------------------------------

    def multiply(self, a, b):
        """Structure constants: Delta_a * Delta_b = sum c^lam Delta_lam.

        The Pieri chain starts at shape a and runs over the monomials of
        Delta_b alone, so the product Delta_a * Delta_b is never expanded.
        """
        return self._multiply(self.check_partition(a),
                              self.check_partition(b))

    def _multiply(self, a, b):
        """`multiply` for trimmed partitions in the box, unchecked."""
        return self._reduce(self._schur(b)[1], a)

    def pairing(self, a, b):
        """Coefficient of the box-filling class in Delta_a * Delta_b."""
        a = self.check_partition(a)
        b = self.check_partition(b)
        if sum(a) + sum(b) != self.d * self.r:
            return 0
        return self._multiply(a, b).get(self.top, 0)

    def gram_matrix(self, degree):
        """Pairing matrix between degree and its complementary degree."""
        rows = self.partitions(degree)
        cols = self.partitions(self.d * self.r - degree)
        top = self.top
        matrix = [[self._multiply(a, b).get(top, 0) for b in cols]
                  for a in rows]
        return rows, cols, matrix

    def __repr__(self):
        return f"GrassRing(n={self.n}, d={self.d})"


@lru_cache(maxsize=None)
def grassmannian(n, d):
    return GrassRing(n, d)


def schur_polynomial(ring, partition, rows):
    """The rows x rows Schur determinant for a partition, entrywise
    x_{a_row - row + col}, evaluated by subset expansion.

    x_0 means 1 and x_k vanishes outside 0..width, width = number of
    ring generators.  The same partition padded into more rows is a
    different matrix with the same value, which `determinant_identities`
    checks.  This is the oracle route: `GrassRing` builds its classes by
    Pieri's rule and never calls it.
    """
    partition = tuple(partition)
    if len(partition) > rows:
        raise PartitionOutOfBox(
            f"{partition} has more than {rows} parts")
    width = len(ring.gens)
    a = list(partition) + [0] * (rows - len(partition))

    def entry(row, col):
        k = a[row] - row + col
        if k < 0 or k > width:
            return None
        if k == 0:
            return ring.one()
        return ring.gen(k - 1)

    full = (1 << rows) - 1
    table = {0: ring.one()}
    for mask in range(1, full + 1):
        row = bin(mask).count("1") - 1
        pairs = []
        seen = 0
        for col in range(rows):
            if not mask & (1 << col):
                continue
            e = entry(row, col)
            if e is not None:
                pairs.append((table[mask ^ (1 << col)],
                              -e if (row + seen) % 2 else e))
            seen += 1
        table[mask] = ring.dot(pairs)
    return table[full]


# -- the checks of one (n, d) ---------------------------------------------------
#
# Each returns (ok, witness): the witness is None when the check passes
# and a JSON value that locates the failure when it does not.


def _coordinates(G, poly, parts):
    """Schur coordinates of a polynomial over G, along the list `parts`."""
    coords = G.reduce(poly)
    return [coords.get(lam, 0) for lam in parts]


def complex_report(n, d):
    """Exactness of the standard complex at R(n, d).

    Three lattices in Schur coordinates are compared in every degree:
    the image of the degree-shifting inclusion from R(n-1, d-1), which
    sends Delta_mu to Delta_((r,) + mu) and so spans unit vectors (the
    prepend identity of `determinant_identities`), the kernel of the
    restriction to R(n-1, d), and the ideal generated by the top
    generator x_r.  The witness lists, in increasing order, the degrees
    where they differ.
    """
    G = grassmannian(n, d)
    r = G.r
    source = grassmannian(n - 1, d - 1) if d else None
    # R(n-1, d) exists exactly when r >= 1; restriction sends x_r to zero
    target = grassmannian(n - 1, d) if r else None
    if r:
        restrict = {f"x{i}": target.ring.gen(f"x{i}") for i in range(1, r)}
        restrict[f"x{r}"] = target.ring.zero()
        xr = G.ring.gen(f"x{r}")

    failing = []
    for degree in range(G.d * G.r + 1):
        parts = G.partitions(degree)
        tparts = target.partitions(degree) if r else []

        # kernel of restriction, from honest polynomial images
        kernel = snf.identity_matrix(len(parts))
        if tparts:
            kernel = snf.kernel_basis(snf.columns_matrix(
                [_coordinates(target, G.schur(lam).map_to(target.ring,
                                                          restrict), tparts)
                 for lam in parts], len(tparts)))

        # image of the inclusion: Delta_mu goes to Delta_((r,) + mu), the
        # unit vector of that shape (for r = 0, mu is the empty shape)
        image = [[int(lam == ((r,) + mu if r else mu)) for lam in parts]
                 for mu in (source.partitions(degree - r) if source else [])]

        # the ideal (x_r) in this degree from monomial multiples; for
        # r = 0 the empty product makes it the unit ideal
        ideal = snf.identity_matrix(len(parts))
        if r:
            mults, _ = G.ring.monomials_of_degree(degree - r, max(degree, 1))
            ideal = [_coordinates(G, Polynomial(G.ring, {m: 1}) * xr, parts)
                     for m in mults]

        if not (snf.lattices_equal(image, kernel)
                and snf.lattices_equal(kernel, ideal)):
            failing.append(degree)
    return not failing, failing or None


def determinant_identities(n, d):
    """Two exact polynomial identities behind the inclusion map.

    For every partition mu with at most d-1 rows in the box: padding mu
    into d rows does not change the Schur determinant, and prepending a
    full-width part multiplies it by x_r.  Checked as polynomial
    identities in Z[x1..xr], no reduction involved.  The witness is the
    first failure, as {"identity": "padding" or "prepend", "partition"}.
    """
    G = grassmannian(n, d)
    r = G.r
    if d == 0:
        return True, None
    for mu in partitions_in_box(d - 1, r):
        padded = schur_polynomial(G.ring, mu, d)
        if padded != schur_polynomial(G.ring, mu, d - 1):
            return False, {"identity": "padding", "partition": list(mu)}
        if r and schur_polynomial(G.ring, (r,) + mu, d) != \
                G.ring.gen(f"x{r}") * padded:
            return False, {"identity": "prepend", "partition": list(mu)}
    return True, None


def verify_ranks(n, d):
    """Graded components of the presentation against partition counts.

    The basis must have the binomial count of elements.  Then the
    generic component machinery (monomial carriers, relation lattices,
    Smith form) is compared with the Schur count; free ranks must match,
    with no torsion and no truncation, in every degree of the box and
    one degree beyond.  The witness is ["total rank", basis size, rank]
    or [degree, free rank, expected rank, torsion, truncated].
    """
    G = grassmannian(n, d)
    if len(G.partitions()) != G.rank:
        return False, ["total rank", len(G.partitions()), G.rank]
    for degree in range(G.d * G.r + 2):
        report = graded_component(G.ring, degree)
        expected = len(G.partitions(degree))
        if report.truncated or report.torsion or report.free_rank != expected:
            return False, [degree, report.free_rank, expected,
                           report.torsion, report.truncated]
    return True, None


def gram_report(n, d):
    """Pairing matrices in all complementary degrees.

    Expects each one to be the permutation matrix of the complement
    involution: unimodular, one nonzero entry per row and column, all
    entries 1, supported exactly on complementary pairs.  The witness
    is the first wrong entry, as the string of its (degree, row
    partition, column partition, entry, expected entry).
    """
    G = grassmannian(n, d)
    top = G.d * G.r
    for degree in range(top + 1):
        rows, cols, matrix = G.gram_matrix(degree)
        for i, a in enumerate(rows):
            comp = G.complement(a)
            for j, b in enumerate(cols):
                want = 1 if b == comp else 0
                if matrix[i][j] != want:
                    return False, str((degree, a, b, matrix[i][j], want))
    return True, None


def products_report(n, d):
    """Products of all pairs of basis classes against tableau counting.

    The witness lists, in basis order, every pair {"a", "b"} where
    Delta_a * Delta_b differs from the Littlewood-Richardson product.
    """
    G = grassmannian(n, d)
    box = G.partitions()
    bad = []
    for i, a in enumerate(box):
        for j in range(i, len(box)):
            # c^lam_ab = c^lam_ba: one tableau count for both orders
            want = lr_multiply(a, box[j], d, n - d)
            bad.extend((x, y) for x, y in {(i, j), (j, i)}
                       if G._multiply(box[x], box[y]) != want)
    failing = [{"a": list(box[i]), "b": list(box[j])} for i, j in sorted(bad)]
    return not failing, failing or None
