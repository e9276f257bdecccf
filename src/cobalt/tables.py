"""Rational dimension tables for algebraic cobordism over fields.

This module is the production route for MGL^{*,*}(F) (x) Q.  The graded
pieces of the Lazard ring have partition-count ranks, with cohomological
bidegree (-2i, -i) for a weight-i generator, and `motivic_ranks` is the
one place that knows the rational motivic cohomology of a field; the
table is their convolution.  The independent oracle, read off K-theory
cell by cell, is `verify.cobordism_report`.  All bookkeeping is exact;
infinite-dimensional entries stay symbolic as multiples of the
rationalized unit group.
"""

from .errors import BoundExceeded, InputError, WindowEmpty

_PARTITION_COUNTS = [1]


def partition_count(m):
    """Number of partitions of m by Euler's pentagonal recurrence."""
    if m < 0:
        return 0
    while len(_PARTITION_COUNTS) <= m:
        n = len(_PARTITION_COUNTS)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * _PARTITION_COUNTS[n - g1]
            if g2 <= n:
                total += sign * _PARTITION_COUNTS[n - g2]
            k += 1
        _PARTITION_COUNTS.append(total)
    return _PARTITION_COUNTS[m]


def lazard_rank(p, q):
    """Rank of the Lazard ring in cohomological bidegree (p, q)."""
    if p == 2 * q and p <= 0:
        return partition_count(-q)
    return 0


class FieldDescriptor:
    """A finite field F_q or a number field with signature (r1, r2)."""

    def __init__(self, kind, q=None, r1=None, r2=None):
        if kind not in ("finite", "number"):
            raise InputError(f"unknown field kind {kind!r}")
        self.kind = kind
        if kind == "finite":
            if not isinstance(q, int) or q < 2:
                raise InputError("a finite field needs a size q >= 2")
            self.q = q
            self.r1 = self.r2 = 0
        else:
            if not isinstance(r1, int) or not isinstance(r2, int) \
                    or r1 < 0 or r2 < 0 or r1 + 2 * r2 < 1:
                raise InputError(
                    "a number field needs r1, r2 >= 0 with r1 + 2*r2 >= 1")
            self.r1 = r1
            self.r2 = r2
            self.q = None

    @classmethod
    def finite(cls, q):
        return cls("finite", q=q)

    @classmethod
    def number_field(cls, r1, r2):
        return cls("number", r1=r1, r2=r2)

    @classmethod
    def rationals(cls):
        return cls.number_field(1, 0)

    @property
    def label(self):
        if self.kind == "finite":
            return f"F{self.q}"
        if (self.r1, self.r2) == (1, 0):
            return "Q"
        return f"number field (r1={self.r1}, r2={self.r2})"

    def __repr__(self):
        return f"FieldDescriptor({self.label})"


class DimExpr:
    """q_mult copies of Q plus units_mult copies of k^* tensor Q."""

    __slots__ = ("q_mult", "units_mult")

    def __init__(self, q_mult=0, units_mult=0):
        if q_mult < 0 or units_mult < 0:
            raise InputError("multiplicities must be nonnegative")
        self.q_mult = q_mult
        self.units_mult = units_mult

    def __add__(self, other):
        return DimExpr(self.q_mult + other.q_mult,
                       self.units_mult + other.units_mult)

    def scaled(self, k):
        return DimExpr(self.q_mult * k, self.units_mult * k)

    def is_zero(self):
        return self.q_mult == 0 and self.units_mult == 0

    def __eq__(self, other):
        if not isinstance(other, DimExpr):
            return NotImplemented
        return self.q_mult == other.q_mult \
            and self.units_mult == other.units_mult

    def render(self):
        parts = []
        if self.q_mult == 1:
            parts.append("Q")
        elif self.q_mult > 1:
            parts.append(f"Q^{self.q_mult}")
        if self.units_mult == 1:
            parts.append("k*(x)Q")
        elif self.units_mult > 1:
            parts.append(f"(k*(x)Q)^{self.units_mult}")
        return " + ".join(parts) if parts else "0"

    __repr__ = render


def motivic_ranks(field, bidegree):
    """Rational motivic cohomology H^{p,q}(F; Q) of the field.

    (0, 0) gives Q.  (1, 1) gives k* (x) Q, which is 0 over a finite
    field, since k* is finite.  For q >= 2, H^{1,q}(F; Q) is
    K_{2q-1}(F) (x) Q: over a number field its rank is Borel's, r1 + r2
    when 2q - 1 = 1 mod 4 (q odd) and r2 when 2q - 1 = 3 mod 4 (q even),
    and over a finite field it is 0.  Everything else is 0.

    >>> rationals = FieldDescriptor.rationals()
    >>> [motivic_ranks(rationals, (1, q)) for q in (2, 3)]
    [0, Q]
    >>> imaginary = FieldDescriptor.number_field(0, 1)
    >>> [motivic_ranks(imaginary, (1, q)) for q in (2, 3)]
    [Q, Q]
    """
    p, q = bidegree
    if (p, q) == (0, 0):
        return DimExpr(q_mult=1)
    if p != 1 or q < 1 or field.kind == "finite":
        return DimExpr()
    if q == 1:
        return DimExpr(units_mult=1)
    return DimExpr(q_mult=field.r1 + field.r2 if q % 2 else field.r2)


# mgl_rational_table refuses a window of more cells than this, a fixed
# bound and not an option: each cell is a DimExpr and then a rendered
# string, about 160 bytes before the report text.  The golden window
# -400:400,-200:200 has 321,201 cells; -1000:1000,-500:500 (2,003,001)
# took 5.3 s and reached 395 MB.
MAX_TABLE_CELLS = 10 ** 6


def mgl_rational_table(field, p_range, q_range):
    """Convolution table entry(p, q) = sum_m P(m) * ranks(p+2m, q+m)."""
    (p_lo, p_hi), (q_lo, q_hi) = p_range, q_range
    if p_lo > p_hi or q_lo > q_hi:
        raise WindowEmpty(f"empty window p in {p_range}, q in {q_range}")
    cells = (p_hi - p_lo + 1) * (q_hi - q_lo + 1)
    if cells > MAX_TABLE_CELLS:
        raise BoundExceeded(f"the window has {cells} cells, more than "
                            f"{MAX_TABLE_CELLS}")
    table = {}
    for p in range(p_lo, p_hi + 1):
        for q in range(q_lo, q_hi + 1):
            entry = DimExpr()
            # motivic_ranks vanishes unless p + 2m is 0 or 1, and the one
            # m >= 0 that gets there is (1 - p) // 2, for p <= 1 only
            if p <= 1:
                m = (1 - p) // 2
                entry = motivic_ranks(field, (p + 2 * m, q + m)).scaled(
                    partition_count(m))
            table[(p, q)] = entry
    return table
