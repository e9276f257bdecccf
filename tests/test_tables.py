"""Partition counts, Lazard ranks, motivic input table, and the
cobordism convolution against its closed form."""

import pytest

from cobalt import tables
from cobalt.errors import InputError, WindowEmpty
from cobalt.tables import (
    DimExpr,
    FieldDescriptor,
    lazard_rank,
    mgl_rational_table,
    motivic_ranks,
    partition_count,
    verify_number_field_corollary,
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
    fq = FieldDescriptor.finite(5)
    assert DimExpr(1, 4).effective(fq) == DimExpr(1, 0)
    assert DimExpr(1, 4).effective(FieldDescriptor.rationals()) \
        == DimExpr(1, 4)
    with pytest.raises(InputError):
        DimExpr(-1, 0)


def test_motivic_ranks_table():
    q_field = FieldDescriptor.rationals()
    assert motivic_ranks(q_field, (0, 0)) == DimExpr(q_mult=1)
    assert motivic_ranks(q_field, (1, 1)) == DimExpr(units_mult=1)
    # r1 + r2 = 1, 5 = 1 mod 4
    assert motivic_ranks(q_field, (1, 5)) == DimExpr(q_mult=1)
    # r2 = 0, 3 = 3 mod 4
    assert motivic_ranks(q_field, (1, 3)) == DimExpr()
    imag = FieldDescriptor.number_field(0, 1)
    assert motivic_ranks(imag, (1, 3)) == DimExpr(q_mult=1)
    assert motivic_ranks(q_field, (2, 1)) == DimExpr()
    assert motivic_ranks(q_field, (1, 4)) == DimExpr()
    fq = FieldDescriptor.finite(9)
    assert motivic_ranks(fq, (0, 0)) == DimExpr(q_mult=1)
    assert motivic_ranks(fq, (1, 1)) == DimExpr(units_mult=1)
    assert motivic_ranks(fq, (1, 5)) == DimExpr()


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
        eff = entry.effective(fq)
        if p == 2 * q and p <= 0:
            assert eff == DimExpr(q_mult=partition_count(-q))
        else:
            assert eff.q_mult == 0


def test_number_field_support_pattern():
    field = FieldDescriptor.number_field(2, 1)
    table = mgl_rational_table(field, (-10, 10), (-5, 5))
    for (p, q), entry in table.items():
        if entry.is_zero():
            continue
        if p % 2 == 0:
            assert p == 2 * q and p <= 0
        else:
            b = q - (p - 1) // 2
            assert b == 1 or (b > 1 and b % 2 == 1)


def test_corollary_verification():
    for r1, r2 in ((1, 0), (0, 1), (2, 1)):
        report = verify_number_field_corollary(
            r1, r2, (-10, 10), (-5, 5))
        assert report["pass"], report["mismatches"]
        assert report["entries_checked"] == 21 * 11
    report = verify_number_field_corollary(1, 0, (-6, 6), (-3, 3))
    assert all(row["q"] == (row["p"] - 1) // 2 + 1
               for row in report["vanishing_units_rows"])
    assert {(r["p"], r["q"]) for r in report["vanishing_units_rows"]} \
        == {(3, 2), (5, 3)}
