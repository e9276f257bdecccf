"""Reference Schur reduction by integer linear algebra, for cobalt.grassmann.

The reduction that GrassRing.reduce used before Pieri straightening,
moved here unchanged: degree by degree, express a homogeneous
polynomial over the degree's monomial carrier and solve against
[Schur columns | relation-multiple columns] with snf.solve_int.  The
Schur coordinates of any representative are unique because the Schur
classes are independent modulo the relation lattice.  Slow, since the
Smith form of the degree's matrix is recomputed on every call, but it
shares nothing with the strip rule.
"""

from cobalt import snf
from cobalt.errors import IllFormed, InputError
from cobalt.rings import Polynomial


class LatticeReducer:
    """Schur coordinates in R(n, d) by per-degree lattice solves."""

    def __init__(self, G):
        self.G = G
        self.ring = G.ring
        self._degree_cache = {}

    def _degree_data(self, degree):
        """Carrier monomials, Schur columns and relation lattice at a degree."""
        if degree in self._degree_cache:
            return self._degree_cache[degree]
        bound = max(degree, 1)
        carrier, flagged = self.ring.monomials_of_degree(degree, bound)
        if flagged:
            raise IllFormed("unexpected truncation in a positively graded ring")
        position = {m: i for i, m in enumerate(carrier)}
        parts = self.G.partitions(degree)
        columns = []
        for lam in parts:
            columns.append(self._vectorize(self.G.schur(lam), position))
        lattice_start = len(columns)
        for rel in self.ring.relations:
            rel_degree = rel.adams_degree()
            mults, _ = self.ring.monomials_of_degree(
                degree - rel_degree, bound)
            for m in mults:
                prod = Polynomial(self.ring, {m: 1}) * rel
                columns.append(self._vectorize(prod, position))
        matrix = [[col[i] for col in columns] for i in range(len(carrier))]
        data = (carrier, position, parts, matrix, lattice_start)
        self._degree_cache[degree] = data
        return data

    def _vectorize(self, poly, position):
        vec = [0] * len(position)
        for exps, c in poly.exponent_terms().items():
            vec[position[exps]] = c
        return vec

    def reduce(self, poly):
        """Schur coordinates of a polynomial representative.

        Returns {partition: int} with zero coefficients omitted.  Splits
        into homogeneous parts, so any polynomial is accepted.
        """
        if poly.ring is not self.ring:
            raise InputError("polynomial is not over this ring's presentation")
        out = {}
        by_degree = {}
        for exps, c in poly.exponent_terms().items():
            by_degree.setdefault(self.ring.monomial_degree(exps), []).append(
                (exps, c))
        for degree, terms in sorted(by_degree.items()):
            carrier, position, parts, matrix, _ = self._degree_data(degree)
            vec = [0] * len(carrier)
            for exps, c in terms:
                vec[position[exps]] = c
            if not matrix or not matrix[0]:
                if any(vec):
                    raise IllFormed("nonzero class in an empty component")
                continue
            sol = snf.solve_int(matrix, vec)
            if sol is None:
                raise IllFormed("representative does not reduce; "
                                "presentation is inconsistent")
            for lam, c in zip(parts, sol):
                if c:
                    out[lam] = c
        return out
