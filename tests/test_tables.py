"""Partition counts, Lazard ranks, motivic input table, and the
cobordism convolution against its K-theory oracle in `verify`."""

import pytest

from cobalt import tables, verify
from cobalt.errors import InputError, WindowEmpty
from cobalt.tables import (
    DimExpr,
    FieldDescriptor,
    lazard_rank,
    mgl_rational_table,
    motivic_ranks,
    partition_count,
)


def brute_partitions(total, cap=None):
    if total == 0:
        return 1
    if total < 0:
        return 0
    if cap is None:
        cap = total
    return sum(brute_partitions(total - k, k)
               for k in range(1, min(cap, total) + 1))


def test_partition_count_against_brute_force():
    for m in range(31):
        assert partition_count(m) == brute_partitions(m)
    assert partition_count(0) == 1
    assert partition_count(5) == 7
    assert partition_count(-3) == 0
    assert partition_count(30) == 5604


def test_lazard_rank():
    assert lazard_rank(0, 0) == 1
    assert lazard_rank(-4, -2) == 2
    assert lazard_rank(-2, 0) == 0
    assert lazard_rank(2, 1) == 0
    assert lazard_rank(-3, -2) == 0
    for m in range(31):
        assert lazard_rank(-2 * m, -m) == partition_count(m)


def test_field_descriptor():
    assert FieldDescriptor.rationals().label == "Q"
    assert FieldDescriptor.finite(7).label == "F7"
    assert FieldDescriptor.number_field(2, 1).r1 == 2
    with pytest.raises(InputError):
        FieldDescriptor.number_field(0, 0)
    with pytest.raises(InputError):
        FieldDescriptor.finite(1)
    with pytest.raises(InputError):
        FieldDescriptor("p-adic")


def test_dim_expr():
    assert DimExpr().render() == "0"
    assert DimExpr(q_mult=1).render() == "Q"
    assert DimExpr(q_mult=2).render() == "Q^2"
    assert DimExpr(units_mult=1).render() == "k*(x)Q"
    assert DimExpr(units_mult=3).render() == "(k*(x)Q)^3"
    assert (DimExpr(1, 0) + DimExpr(0, 2)).render() == "Q + (k*(x)Q)^2"
    assert DimExpr(2, 1).scaled(3) == DimExpr(6, 3)
    with pytest.raises(InputError):
        DimExpr(-1, 0)


def test_motivic_ranks_table():
    q_field = FieldDescriptor.rationals()
    assert motivic_ranks(q_field, (0, 0)) == DimExpr(q_mult=1)
    assert motivic_ranks(q_field, (1, 1)) == DimExpr(units_mult=1)
    # K_9 (x) Q has rank r1 + r2 = 1, 9 = 1 mod 4
    assert motivic_ranks(q_field, (1, 5)) == DimExpr(q_mult=1)
    imag = FieldDescriptor.number_field(0, 1)
    assert motivic_ranks(imag, (1, 3)) == DimExpr(q_mult=1)
    assert motivic_ranks(q_field, (2, 1)) == DimExpr()
    # K_7 (x) Q has rank r2 = 0, 7 = 3 mod 4
    assert motivic_ranks(q_field, (1, 4)) == DimExpr()
    assert motivic_ranks(q_field, (1, 0)) == DimExpr()
    fq = FieldDescriptor.finite(9)
    assert motivic_ranks(fq, (0, 0)) == DimExpr(q_mult=1)
    # F9* is finite, and so is every K_n(F9) with n >= 1
    assert motivic_ranks(fq, (1, 1)) == DimExpr()
    assert motivic_ranks(fq, (1, 2)) == DimExpr()
    assert motivic_ranks(fq, (1, 5)) == DimExpr()


def test_borel_ranks_from_the_literature():
    """H^{1,q}(F; Q) = K_{2q-1}(F) (x) Q, of rank r1 + r2 for 2q - 1 = 1
    mod 4 and r2 for 2q - 1 = 3 mod 4 (Borel, Ann. Sci. ENS 7, 1974)."""
    q_field = FieldDescriptor.rationals()
    # K_3(Z) is finite (Z/48) and K_5(Z) = Z
    assert motivic_ranks(q_field, (1, 2)).render() == "0"
    assert motivic_ranks(q_field, (1, 3)).render() == "Q"
    # K_3 of an imaginary quadratic field has rank r2 = 1
    imag = FieldDescriptor.number_field(0, 1)
    assert motivic_ranks(imag, (1, 2)).render() == "Q"
    mixed = FieldDescriptor.number_field(2, 1)
    assert motivic_ranks(mixed, (1, 3)) == DimExpr(q_mult=3)
    assert motivic_ranks(mixed, (1, 2)) == DimExpr(q_mult=1)
    # the same cells through the table: (1 - 2m, q) reads H^{1, q+m}
    table = mgl_rational_table(q_field, (-1, 1), (1, 3))
    assert [table[(1, q)].render() for q in (1, 2, 3)] \
        == ["k*(x)Q", "0", "Q"]
    assert [table[(-1, q)].render() for q in (1, 2)] == ["0", "Q"]


def _weight_parity_rule(field, bidegree):
    """The misreading that applied the mod-4 test to the weight q, not to
    the K-degree 2q - 1: r2 at q = 3 mod 4, r1 + r2 at q = 1 mod 4, and 0
    at even q."""
    p, q = bidegree
    if field.kind == "number" and p == 1 and q >= 2:
        if q % 2 == 0:
            return DimExpr()
        return DimExpr(q_mult=field.r2 if q % 4 == 3
                       else field.r1 + field.r2)
    return motivic_ranks(field, bidegree)


def test_the_oracle_rejects_the_weight_parity_rule(monkeypatch):
    assert verify.check_cobordism_tables()["pass"]
    monkeypatch.setattr(tables, "motivic_ranks", _weight_parity_rule)
    result = verify.check_cobordism_tables()
    assert not result["pass"]
    assert not any(result["details"]["number_fields"].values())
    assert result["details"]["finite_field"]


def test_mgl_table_fixtures():
    q_field = FieldDescriptor.rationals()
    table = mgl_rational_table(q_field, (-4, 2), (-2, 6))
    assert table[(-2, -1)] == DimExpr(q_mult=1)
    assert table[(1, 5)] == DimExpr(q_mult=1)
    assert table[(0, 0)] == DimExpr(q_mult=1)
    assert table[(-4, -2)] == DimExpr(q_mult=2)
    assert table[(1, 1)] == DimExpr(units_mult=1)
    assert table[(-1, 0)] == DimExpr(units_mult=1)
    assert table[(2, 1)].is_zero()
    with pytest.raises(WindowEmpty):
        mgl_rational_table(q_field, (2, -2), (0, 1))


def test_mgl_table_reads_one_bidegree_per_cell(monkeypatch):
    field = FieldDescriptor.number_field(2, 1)
    calls = []

    def counted(f, bidegree):
        calls.append(bidegree)
        return motivic_ranks(f, bidegree)

    monkeypatch.setattr(tables, "motivic_ranks", counted)
    table = mgl_rational_table(field, (-30, 30), (-15, 15))
    # only p <= 1 can reach p + 2m in {0, 1}, with exactly one m >= 0
    assert len(calls) == 32 * 31
    assert all(p in (0, 1) for p, _ in calls)
    for (p, q), entry in table.items():
        convolution = DimExpr()
        for m in range(20):
            convolution = convolution + motivic_ranks(
                field, (p + 2 * m, q + m)).scaled(partition_count(m))
        assert entry == convolution, (p, q)


def test_finite_field_table_diagonal():
    fq = FieldDescriptor.finite(4)
    table = mgl_rational_table(fq, (-10, 10), (-5, 5))
    for (p, q), entry in table.items():
        if p == 2 * q and p <= 0:
            assert entry == DimExpr(q_mult=partition_count(-q))
        else:
            assert entry.is_zero()


def test_number_field_support_pattern():
    field = FieldDescriptor.number_field(2, 1)
    table = mgl_rational_table(field, (-10, 10), (-5, 5))
    for (p, q), entry in table.items():
        b = q - (p - 1) // 2
        if p % 2 == 0:
            assert entry.is_zero() == (p != 2 * q or p > 0)
        else:
            # r2 = 1, so K_{2b-1} (x) Q is nonzero at every weight b >= 1
            assert entry.is_zero() == (p > 1 or b < 1), (p, q)


def test_corollary_verification():
    fields = [FieldDescriptor.number_field(r1, r2)
              for r1, r2 in ((1, 0), (0, 1), (2, 1))]
    for field in fields + [FieldDescriptor.finite(5)]:
        report = verify.cobordism_report(field, (-10, 10), (-5, 5))
        assert report["pass"], report["mismatches"]
        assert report["entries_checked"] == 21 * 11
        assert list(report) == ["field", "window", "entries_checked",
                                "mismatches", "pass"]
    with pytest.raises(WindowEmpty):
        verify.cobordism_report(fields[0], (1, 0), (0, 0))
