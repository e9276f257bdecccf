"""Rational dimension tables for algebraic cobordism over fields.

The graded pieces of the Lazard ring have partition-count ranks, with
cohomological bidegree (-2i, -i) for a weight-i generator.  Tensoring
those ranks against the (hardcoded, standard) rational motivic
cohomology of a field gives the cobordism table by convolution; a
separate closed-form case table for number fields cross-checks every
window entry.  All bookkeeping is exact; infinite-dimensional entries
stay symbolic as multiples of the rationalized unit group.
"""

from .errors import InputError, WindowEmpty

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

    def effective(self, field):
        """Drop the units part over finite fields, where it vanishes."""
        if field.kind == "finite":
            return DimExpr(self.q_mult, 0)
        return self

    def is_zero(self):
        return self.q_mult == 0 and self.units_mult == 0

    def __eq__(self, other):
        if not isinstance(other, DimExpr):
            return NotImplemented
        return self.q_mult == other.q_mult \
            and self.units_mult == other.units_mult

    def __hash__(self):
        return hash((self.q_mult, self.units_mult))

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
    """Rational motivic cohomology of the field at one bidegree.

    Standard input data: (0,0) gives Q; (1,1) gives the rationalized
    units; (1,b) for odd b > 1 over a number field gives Q^{r2} when
    b = 3 mod 4 and Q^{r1+r2} when b = 1 mod 4; everything else is 0.
    """
    p, q = bidegree
    if (p, q) == (0, 0):
        return DimExpr(q_mult=1)
    if (p, q) == (1, 1):
        return DimExpr(units_mult=1)
    if field.kind == "number" and p == 1 and q > 1 and q % 2 == 1:
        if q % 4 == 3:
            return DimExpr(q_mult=field.r2)
        return DimExpr(q_mult=field.r1 + field.r2)
    return DimExpr()


def _validate_window(p_range, q_range):
    p_lo, p_hi = p_range
    q_lo, q_hi = q_range
    if p_lo > p_hi or q_lo > q_hi:
        raise WindowEmpty(f"empty window p in {p_range}, q in {q_range}")
    return p_lo, p_hi, q_lo, q_hi


def mgl_rational_table(field, p_range, q_range):
    """Convolution table entry(p, q) = sum_m P(m) * ranks(p+2m, q+m)."""
    p_lo, p_hi, q_lo, q_hi = _validate_window(p_range, q_range)
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


def _closed_form_number_field(r1, r2, p, q):
    """The case table for number fields, written out independently."""
    if p % 2 == 0:
        i = p // 2
        if q == i:
            return DimExpr(q_mult=partition_count(-i))
        return DimExpr()
    i = (p - 1) // 2
    b = q - i
    if b == 1:
        return DimExpr(units_mult=partition_count(-i))
    if b > 1 and b % 4 == 3:
        return DimExpr(q_mult=r2 * partition_count(-i))
    if b > 1 and b % 4 == 1:
        return DimExpr(q_mult=(r1 + r2) * partition_count(-i))
    return DimExpr()


def verify_finite_field_table(q, p_range, q_range):
    """Effective finite-field table: Q^{P(-i)} at (2i, i), else 0."""
    field = FieldDescriptor.finite(q)
    table = mgl_rational_table(field, p_range, q_range)
    mismatches = []
    for (p, w), entry in sorted(table.items()):
        eff = entry.effective(field)
        want = DimExpr(q_mult=lazard_rank(p, w))
        if eff != want:
            mismatches.append({
                "p": p, "q": w,
                "effective": eff.render(), "expected": want.render()})
    return {
        "field": field.label,
        "window": {"p": list(p_range), "q": list(q_range)},
        "entries_checked": len(table),
        "mismatches": mismatches,
        "pass": not mismatches,
    }


def verify_number_field_corollary(r1, r2, p_range, q_range):
    """Compare the convolution table against the closed case table."""
    field = FieldDescriptor.number_field(r1, r2)
    table = mgl_rational_table(field, p_range, q_range)
    mismatches = []
    flagged = []
    for (p, q), entry in sorted(table.items()):
        want = _closed_form_number_field(r1, r2, p, q)
        if entry != want:
            mismatches.append({
                "p": p, "q": q,
                "convolution": entry.render(),
                "closed_form": want.render()})
        if p % 2 == 1 and q == (p - 1) // 2 + 1 and (p - 1) // 2 > 0:
            # units row with positive weight: both sides vanish, noted
            flagged.append({"p": p, "q": q})
    return {
        "field": field.label,
        "window": {"p": list(p_range), "q": list(q_range)},
        "entries_checked": len(table),
        "mismatches": mismatches,
        "vanishing_units_rows": flagged,
        "pass": not mismatches,
    }
