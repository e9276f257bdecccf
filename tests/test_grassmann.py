"""Schur basis, structure constants, duality pairing, and the
restriction complex."""

import pytest

from cobalt import grassmann
from cobalt.errors import BoundExceeded, InputError, PartitionOutOfBox
from cobalt.grassmann import (
    GrassRing,
    complex_report,
    determinant_identities,
    gram_report,
    grassmannian,
    partitions_in_box,
    partitions_of,
    products_report,
    schur_polynomial,
    size_limit,
    verify_ranks,
)
from cobalt.lr import lr_multiply
from cobalt.rings import Polynomial

from lattice_oracle import LatticeReducer
from lr_oracle import oracle_multiply


def test_partitions_in_box():
    assert partitions_in_box(2, 2) == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]
    assert partitions_of(3, 2, 2) == [(2, 1)]
    assert partitions_of(0, 2, 2) == [()]
    assert partitions_of(5, 2, 2) == []
    assert partitions_in_box(0, 3) == [()]
    assert partitions_in_box(3, 0) == [()]


def test_partition_lists_are_built_once_and_handed_out_as_copies():
    first = partitions_of(4, 2, 3)
    assert first == [(3, 1), (2, 2)]
    first.append("junk")
    assert partitions_of(4, 2, 3) == [(3, 1), (2, 2)]
    box = partitions_in_box(2, 2)
    box.clear()
    assert partitions_in_box(2, 2) == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]
    assert grassmann._partitions(4, 2, 3) is grassmann._partitions(4, 2, 3)


def test_rank_and_top():
    assert grassmannian(4, 2).rank == 6
    assert grassmannian(2, 1).rank == 2
    assert grassmannian(7, 3).rank == 35
    assert grassmannian(4, 2).top == (2, 2)
    assert grassmannian(3, 3).top == ()


def test_schur_fixtures():
    G = grassmannian(4, 2)
    x1, x2 = G.ring.gen("x1"), G.ring.gen("x2")
    assert G.schur(()) == G.ring.one()
    assert G.schur((1,)) == x1
    assert G.schur((1, 1)) == x1 ** 2 - x2
    assert G.schur((2,)) == x2
    assert G.schur((2, 1)) == x1 * x2
    assert G.schur((2, 2)) == x2 ** 2


def test_pieri_schur_classes_match_the_determinants():
    # every class of every box with n <= 8, built from smaller ones by
    # Pieri's rule, against the Jacobi-Trudi determinant
    for n in range(9):
        for d in range(n + 1):
            G = grassmannian(n, d)
            for a in G.partitions():
                assert G.schur(a) == schur_polynomial(G.ring, a, d), (n, d, a)


def test_relations_are_inverse_series():
    G = grassmannian(4, 2)
    x1, x2 = G.ring.gen("x1"), G.ring.gen("x2")
    # inverse series coefficients in degrees 3 and 4
    rels = {r.adams_degree(): r for r in G.ring.relations}
    assert rels[3] == -(x1 ** 3) + 2 * x1 * x2
    assert rels[4] == x1 ** 4 - 3 * x1 ** 2 * x2 + x2 ** 2


def test_check_partition():
    G = grassmannian(4, 2)
    assert G.check_partition((2, 1, 0)) == (2, 1)
    for bad in [(3,), (1, 1, 1), (1, 2), (-1,)]:
        with pytest.raises(PartitionOutOfBox):
            G.check_partition(bad)


def test_reduce_round_trip():
    G = grassmannian(5, 2)
    for lam in G.partitions():
        assert G.reduce(G.schur(lam)) == {lam: 1}
    # relations reduce to zero
    for rel in G.ring.relations:
        assert G.reduce(rel) == {}


def test_reduce_lists_shapes_in_partition_order():
    # by degree, then as partitions(degree) lists them
    G = grassmannian(7, 3)
    parts = G.partitions()
    for a in parts:
        for b in parts:
            product = G.multiply(a, b)
            assert list(product) == [lam for lam in parts if lam in product]


def test_pieri_fixture():
    G = grassmannian(4, 2)
    assert G.multiply((1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert G.multiply((2, 1), (1,)) == {(2, 2): 1}
    assert G.multiply((2, 2), (1,)) == {}


def test_structure_constants_against_oracle():
    for n in range(1, 5):
        for d in range(n + 1):
            G = grassmannian(n, d)
            parts = G.partitions()
            for a in parts:
                for b in parts:
                    got = G.multiply(a, b)
                    want = oracle_multiply(a, b, G.d, G.r)
                    assert got == want, (n, d, a, b, got, want)


def test_reduce_matches_lattice_oracle():
    # Pieri straightening against per-degree lattice solves, dict order
    # included: every product of basis classes, and every monomial
    # multiple of every relation up to one degree past the box
    for n in range(7):
        for d in range(n + 1):
            G = grassmannian(n, d)
            oracle = LatticeReducer(G)
            parts = G.partitions()
            for a in parts:
                for b in parts:
                    poly = G.schur(a) * G.schur(b)
                    assert list(G.reduce(poly).items()) == \
                        list(oracle.reduce(poly).items()), (n, d, a, b)
            top = G.d * G.r
            for rel in G.ring.relations:
                for degree in range(top + 2 - rel.adams_degree()):
                    mults, _ = G.ring.monomials_of_degree(degree,
                                                           max(degree, 1))
                    for m in mults:
                        poly = Polynomial(G.ring, {m: 1}) * rel
                        assert G.reduce(poly) == oracle.reduce(poly) == {}, \
                            (n, d, m, rel)


def test_multiply_matches_the_reduced_determinant_product():
    # multiply starts the Pieri chain at shape a; the old route reduces
    # the whole product Delta_a * Delta_b from the empty shape, and both
    # give the same dict, order included
    for n in range(7):
        for d in range(n + 1):
            G = grassmannian(n, d)
            parts = G.partitions()
            for a in parts:
                for b in parts:
                    old = G.reduce(G.schur(a) * G.schur(b))
                    assert list(G.multiply(a, b).items()) == \
                        list(old.items()), (n, d, a, b)
    G = grassmannian(4, 2)
    assert G.multiply((1, 0), (1,)) == G.multiply((1,), (1,))
    with pytest.raises(PartitionOutOfBox):
        G.multiply((3,), (1,))


def test_products_report(monkeypatch):
    assert products_report(4, 2) == (True, None)
    assert products_report(3, 3) == (True, None)
    # a wrong second route flags exactly the pairs with a nonzero product
    monkeypatch.setattr("cobalt.grassmann.lr_multiply",
                        lambda a, b, d, r: {})
    assert products_report(2, 1) == (False, [
        {"a": [], "b": []}, {"a": [], "b": [1]}, {"a": [1], "b": []}])


def test_products_report_counts_each_unordered_pair_once(monkeypatch):
    calls = []

    def counted(a, b, d, r):
        calls.append((a, b))
        return lr_multiply(a, b, d, r)

    monkeypatch.setattr("cobalt.grassmann.lr_multiply", counted)
    assert products_report(5, 2) == (True, None)
    k = grassmannian(5, 2).rank
    assert len(calls) == k * (k + 1) // 2
    assert len({frozenset(pair) for pair in calls}) == len(calls)


@pytest.mark.parametrize("bad", [((1,), (2, 1)), ((2, 1), (1,))])
def test_products_report_names_the_corrupted_order(monkeypatch, bad):
    # one tableau count serves both orders, but the Pieri product of
    # each order is still checked on its own
    G = grassmannian(5, 2)
    honest = GrassRing._multiply

    def corrupted(self, a, b):
        out = honest(self, a, b)
        if self is G and (a, b) == bad:
            out = dict(out)
            out[(3, 3)] = out.get((3, 3), 0) + 1
        return out

    monkeypatch.setattr(GrassRing, "_multiply", corrupted)
    assert products_report(5, 2) == (
        False, [{"a": list(bad[0]), "b": list(bad[1])}])


def test_oracle_symmetry():
    G = grassmannian(5, 2)
    parts = G.partitions()
    for a in parts:
        for b in parts:
            assert oracle_multiply(a, b, 2, 3) == oracle_multiply(b, a, 2, 3)


def test_complement_and_pairing():
    G = grassmannian(4, 2)
    assert G.complement((1,)) == (2, 1)
    assert G.complement(()) == (2, 2)
    assert G.pairing((1,), (2, 1)) == 1
    assert G.pairing((1,), (1, 1)) == 0
    assert G.pairing((1,), (1,)) == 0
    assert G.pairing((2, 2), ()) == 1


def test_gram_report():
    assert gram_report(4, 2) == (True, None)
    assert gram_report(5, 2) == (True, None)
    assert gram_report(3, 3) == (True, None)


def test_verify_ranks():
    for n, d in [(2, 1), (4, 2), (5, 2), (5, 3), (3, 0), (3, 3)]:
        ok, witness = verify_ranks(n, d)
        assert ok, witness


def test_determinant_identities():
    for n, d in [(2, 1), (4, 2), (5, 3), (5, 2), (4, 4)]:
        ok, witness = determinant_identities(n, d)
        assert ok, witness


def test_padding_identity_is_nontrivial():
    # same partition, different row count, same polynomial
    G = grassmannian(5, 3)
    assert schur_polynomial(G.ring, (2, 1), 3) == \
        schur_polynomial(G.ring, (2, 1), 2)


def test_complex_report(monkeypatch):
    for n, d in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (4, 4), (3, 0)]:
        assert complex_report(n, d) == (True, None), (n, d)
    # lattices that never agree fail every degree of the 2 x 2 box
    monkeypatch.setattr("cobalt.snf.lattices_equal", lambda a, b: False)
    assert complex_report(4, 2) == (False, [0, 1, 2, 3, 4])


def test_size_limit(monkeypatch):
    with pytest.raises(BoundExceeded):
        GrassRing(9, 2)
    monkeypatch.setenv("COBALT_MAX_N", "9")
    assert size_limit() == 9
    G = GrassRing(9, 2)
    assert G.rank == 36
    monkeypatch.setenv("COBALT_MAX_N", "junk")
    with pytest.raises(InputError):
        size_limit()


def test_bad_arguments():
    with pytest.raises(InputError):
        GrassRing(3, 4)
    with pytest.raises(InputError):
        GrassRing(-1, -1)
