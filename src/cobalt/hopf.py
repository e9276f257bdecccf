"""Truncated rational Hopf algebroids of formal group data.

The universal object pairs A = Q[m1..m_{N-1}] (log coefficients) with
Gamma = Q[m, b] (log coefficients plus a strict coordinate change
b(x) = x + b1 x^2 + ...).  Convention pinned here and throughout the
tests: b carries the right-unit law to the left-unit law on logs,
log_L = log_R o b.  So eta_R(m_k) is the x^(k+1) coefficient of
log_L o b^-1, and the same reverted series b^-1 is the conjugation's
coordinate change.  The opposite convention is reached by
substituting the inverse series for b.

Tensor squares Gamma (x)_A Gamma are presented as free rings: the
right copy of each m_i is eliminated against eta_R of the left copy,
leaving generators m, bL, bR (and bM for the triple).  Comultiplication
is series composition of the two b-copies; the conjugation inverts b
and swaps the units.  Axioms are verified as identities between
polynomials, never at sample points.
"""

from .errors import AxiomsFail, IllFormed, InputError
from .fgl import FormalGroupLaw, fgl_check_axioms, pushforward, universal_log
from .rings import GenSpec, Ring, degree_lattice, polynomial_ring
from .series import TruncSeries
from . import snf


class TensorSquare:
    """Gamma (x)_A Gamma with generator bookkeeping.

    origin maps each tensor-ring generator to ("L"|"R", gamma_gen);
    left/right give the two factor embeddings Gamma -> tensor ring as
    generator assignments.
    """

    def __init__(self, ring, origin, left, right):
        self.ring = ring
        self.origin = origin
        self.left = left
        self.right = right


class TensorCube:
    """The triple tensor ring with the two pushes of the square into it.

    push12 embeds the square as factors (1,2); push23 as factors (2,3).
    Both are generator assignments out of the square's ring.
    """

    def __init__(self, ring, push12, push23):
        self.ring = ring
        self.push12 = push12
        self.push23 = push23


class HopfAlgebroidPresentation:
    """(A, Gamma) with units, counit, comultiplication and conjugation."""

    def __init__(self, A, Gamma, eta_L, eta_R, counit, N,
                 square, comult, cube, conjugation):
        self.A = A
        self.Gamma = Gamma
        self.eta_L = eta_L
        self.eta_R = eta_R
        self.counit = counit
        self.N = N
        self.square = square
        self.comult = comult
        self.cube = cube
        self.conjugation = conjugation


def _copies(N, *b_copies):
    """Q[m1..m_{N-1}] followed by b1..b_{N-1} for each prefix given."""
    return polynomial_ring("Q", [(f"{p}{i}", i) for p in ("m",) + b_copies
                                 for i in range(1, N)])


def _renaming(ring, N, **names):
    """Send old_i to ring's new_i for every old=new pair and i < N."""
    return {f"{old}{i}": ring.gen(f"{new}{i}")
            for old, new in names.items() for i in range(1, N)}


def mumu_rational_truncated(N):
    """The truncated rational universal Hopf algebroid at order N."""
    if not isinstance(N, int) or N < 2:
        raise InputError("need a truncation order N >= 2")
    A = _copies(N)
    Gamma = _copies(N, "b")

    # log_R = log_L o b^-1 gives the right unit; b^-1 is also the
    # conjugation's coordinate change, so it is reverted once
    b = universal_log(Gamma, N, "b")
    b_inverse = b.revert()
    log_L = universal_log(Gamma, N)
    log_R = log_L.compose(b_inverse)
    if log_R.compose(b) != log_L:
        raise IllFormed("the right unit does not reproduce the log")
    eta_R = {f"m{k}": log_R.coeff(k + 1) for k in range(1, N)}

    eta_L = _renaming(Gamma, N, m="m")
    counit = _renaming(A, N, m="m")
    counit.update({f"b{i}": A.zero() for i in range(1, N)})

    # tensor square: free on m, bL, bR; the right-copy m is eliminated
    T2 = _copies(N, "bL", "bR")
    origin = {f"{new}{i}": (side, f"{old}{i}") for side, old, new in
              (("L", "m", "m"), ("L", "b", "bL"), ("R", "b", "bR"))
              for i in range(1, N)}
    left = _renaming(T2, N, m="m", b="bL")
    right = {m: r.map_to(T2, left) for m, r in eta_R.items()}
    right.update(_renaming(T2, N, b="bR"))
    square = TensorSquare(T2, origin, left, right)

    # comultiplication: compose the two copies of b
    composite = universal_log(T2, N, "bR").compose(universal_log(T2, N, "bL"))
    comult = _renaming(T2, N, m="m")
    comult.update({f"b{i}": composite.coeff(i + 1) for i in range(1, N)})

    # triple tensor ring for coassociativity
    T3 = _copies(N, "bL", "bM", "bR")
    push12 = _renaming(T3, N, m="m", bL="bL", bR="bM")
    to_left = _renaming(T3, N, m="m", b="bL")
    push23 = {m: r.map_to(T3, to_left) for m, r in eta_R.items()}
    push23.update(_renaming(T3, N, bL="bM", bR="bR"))
    cube = TensorCube(T3, push12, push23)

    # conjugation: invert the coordinate change, swap the units
    conjugation = dict(eta_R)
    conjugation.update(
        {f"b{i}": b_inverse.coeff(i + 1) for i in range(1, N)})

    return HopfAlgebroidPresentation(A, Gamma, eta_L, eta_R, counit, N,
                                     square, comult, cube, conjugation)


def verify_hopf_axioms(H):
    """Check the algebroid axioms as polynomial identities up to H.N.

    Each axiom is an identity per generator of A or Gamma; a generator
    of degree at most H.N where it fails is a witness.  Returns the JSON
    report {"pass", "checks": [{"name", "pass", "witnesses"?}]}.

    Each (polynomial, assignment) is mapped once per call: the
    conjugation holds the very eta_R objects, so the involution on the
    m_k and the swap of the right unit read the same images.
    """
    A, Gamma, T2, T3 = H.A, H.Gamma, H.square.ring, H.cube.ring
    comult, conj = H.comult, H.conjugation
    checks = []
    images = {}     # (id(poly), id(assignment)) -> (poly, its image)

    def image(poly, ring, assignment):
        key = id(poly), id(assignment)
        if key not in images:
            images[key] = poly, poly.map_to(ring, assignment)
        return images[key][1]

    def check(name, ring, holds):
        witnesses = [{"generator": g.name, "degree": g.adams_degree}
                     for g in ring.gens
                     if g.adams_degree <= H.N and not holds(g.name)]
        entry = {"name": name, "pass": not witnesses}
        if witnesses:
            entry["witnesses"] = witnesses
        checks.append(entry)

    # eps (x) 1, 1 (x) eps, Delta (x) 1 and 1 (x) Delta as assignments
    # out of the square's generators
    eps1, eps2, d1, d2 = {}, {}, {}, {}
    for t2g, (side, gg) in H.square.origin.items():
        if side == "L":
            eps1[t2g] = image(H.counit[gg], Gamma, H.eta_L)
            eps2[t2g] = Gamma.gen(gg)
            d1[t2g] = image(comult[gg], T3, H.cube.push12)
            d2[t2g] = H.cube.push12[t2g]
        else:
            eps1[t2g] = Gamma.gen(gg)
            eps2[t2g] = image(H.counit[gg], Gamma, H.eta_R)
            d1[t2g] = H.cube.push23[t2g]
            d2[t2g] = image(comult[gg], T3, H.cube.push23)

    # counit against the units: eps o eta = id on A
    for name, eta in (("counit_left_unit", H.eta_L),
                      ("counit_right_unit", H.eta_R)):
        check(name, A, lambda g: image(eta[g], A, H.counit) == A.gen(g))
    # (eps (x) 1) Delta = id and (1 (x) eps) Delta = id
    for name, eps in (("left_counit_law", eps1), ("right_counit_law", eps2)):
        check(name, Gamma,
              lambda g: image(comult[g], Gamma, eps) == Gamma.gen(g))
    # units are grouplike: Delta o eta = factor embedding o eta
    for name, eta, factor in (
            ("left_unit_compatibility", H.eta_L, H.square.left),
            ("right_unit_compatibility", H.eta_R, H.square.right)):
        check(name, A, lambda g: image(eta[g], T2, comult)
              == image(eta[g], T2, factor))
    # (Delta (x) 1) Delta = (1 (x) Delta) Delta in the triple ring
    check("coassociativity", Gamma,
          lambda g: image(comult[g], T3, d1) == image(comult[g], T3, d2))
    # the conjugation is an involution that swaps the units
    check("conjugation_involution", Gamma,
          lambda g: image(conj[g], Gamma, conj) == Gamma.gen(g))
    for name, eta, other in (
            ("conjugation_swaps_left_unit", H.eta_L, H.eta_R),
            ("conjugation_swaps_right_unit", H.eta_R, H.eta_L)):
        check(name, A, lambda g: image(eta[g], Gamma, conj) == other[g])
    return {"pass": all(c["pass"] for c in checks), "checks": checks}


# -- induced Hopf algebroids over a Landweber-style algebra ----------------


def _user_specs(ring):
    """The explicitly declared generators, minus implicit inverses."""
    return ring.gens[:len(ring.fields)]


def _transport_law(law, target, images, order):
    """The same law with coefficients pushed through a ring map."""
    src = law._at_order(order)
    coeffs = {e: c.map_to(target, images) for e, c in src.coeffs.items()}
    series = TruncSeries(target, order, coeffs, nvars=2)
    return FormalGroupLaw(target, series, order, exact=law.exact)


class InducedHopf:
    """A two-sided copy of an algebra joined by a strict isomorphism."""

    def __init__(self, ring, eta_L, eta_R, counit, relation_sources, N):
        self.ring = ring
        self.eta_L = eta_L
        self.eta_R = eta_R
        self.counit = counit
        self.relation_sources = relation_sources  # [(i, j, poly)]
        self.relations = [poly for _, _, poly in relation_sources]
        self.N = N

    def collapse_identifies_units(self):
        """Do the two units agree modulo the ring's relations and all b_i?

        The relations are both copies of the algebra's and the law
        relations `induced_hopf` imposed after them.  Checked per
        generator by rational span membership among multiples of the
        ideal generators with exponents at most |degree| + 2.  The
        bound can only hide a witness combination, never invent one, so
        a positive answer is exact.
        """
        ring = self.ring
        ideal = [(d, {None: h})
                 for h, d in zip(ring.relations, ring.relation_degrees)]
        ideal += [(i, {None: ring.gen(f"b{i}")}) for i in range(1, self.N)
                  if f"b{i}" in ring.index]
        for gname, image_l in self.eta_L.items():
            delta = image_l - self.eta_R[gname]
            if delta.is_zero():
                continue
            degree = delta.adams_degree()
            carrier, columns, _ = degree_lattice(
                ring, degree, None, ideal, abs(degree) + 2)
            terms = delta.exponent_terms()
            if not {m for _, m in carrier}.issuperset(terms):
                return False
            target = [terms.get(m, 0) for _, m in carrier]
            if not snf.rational_in_span(columns, target):
                return False
        return True

    def to_dict(self):
        return {
            "truncation": self.N,
            "generators": [
                {"name": g.name, "adams_degree": g.adams_degree}
                for g in _user_specs(self.ring)],
            "left_unit": {k: str(v) for k, v in sorted(self.eta_L.items())},
            "right_unit": {k: str(v) for k, v in sorted(self.eta_R.items())},
            "relations": sorted(str(r) for r in self.relations),
        }


def induced_hopf(A_pres, law, N):
    """Join two copies of an algebra along the universal strict iso.

    The result ring has left and right copies of every generator plus
    b_1..b_{N-1}; its relations say the pushforward of the left law
    along b equals the right law coefficientwise up to order N.
    """
    if not isinstance(N, int) or N < 2:
        raise InputError("need a truncation order N >= 2")
    if law.ring is not A_pres:
        raise InputError("the law must live over the given algebra")
    axioms = fgl_check_axioms(law)
    if not axioms["ok"]:
        raise AxiomsFail("the law fails the group-law axioms")

    specs = _user_specs(A_pres)
    gens = [GenSpec(f"{s.name}_L", s.adams_degree, s.invertible)
            for s in specs]
    gens += [GenSpec(f"b{i}", i) for i in range(1, N)]
    gens += [GenSpec(f"{s.name}_R", s.adams_degree, s.invertible)
             for s in specs]
    big = Ring(A_pres.base, gens, localized_at=A_pres.localized_at)

    to_left = {}
    to_right = {}
    for s in specs:
        to_left[s.name] = big.gen(f"{s.name}_L")
        to_right[s.name] = big.gen(f"{s.name}_R")
        if s.invertible:
            to_left[f"{s.name}_inv"] = big.gen(f"{s.name}_L_inv")
            to_right[f"{s.name}_inv"] = big.gen(f"{s.name}_R_inv")

    for rel in A_pres.relations:
        big.impose(rel.map_to(big, to_left))
        big.impose(rel.map_to(big, to_right))

    law_left = _transport_law(law, big, to_left, N)
    law_right = _transport_law(law, big, to_right, N)
    b = universal_log(big, N, "b")
    pushed = pushforward(law_left, b)

    relation_sources = []
    for i in range(1, N):
        for j in range(i, N):
            if i + j > N:
                continue
            delta = pushed.coefficient(i, j) - law_right.coefficient(i, j)
            if not delta.is_zero():
                relation_sources.append((i, j, delta))
                big.impose(delta)

    eta_L = {s.name: big.gen(f"{s.name}_L") for s in specs}
    eta_R = {s.name: big.gen(f"{s.name}_R") for s in specs}
    counit = {f"{s.name}_L": A_pres.gen(s.name) for s in specs}
    counit.update({f"{s.name}_R": A_pres.gen(s.name) for s in specs})
    counit.update({f"b{i}": A_pres.zero() for i in range(1, N)})

    return InducedHopf(big, eta_L, eta_R, counit, relation_sources, N)


def cooperations_poincare(N):
    """Graded dimensions of Q[m1,..][b1,..] up to degree N.

    Counted, not listed: each generator of degree g adds
    counts[k - g] to counts[k], k ascending (the coin-change count of
    monomials).  verify.check_hopf_algebroid compares the counts with
    the self-convolution of partition counts, which
    `tables.partition_count` reads off Euler's pentagonal recurrence;
    tests/test_hopf.py compares them with the listing of
    `Ring.monomials_of_degree` as well.
    """
    if N < 0:
        raise InputError("need N >= 0")
    counts = [1] + [0] * N
    for g in [*range(1, N + 1)] * 2:
        for k in range(g, N + 1):
            counts[k] += counts[k - g]
    return counts
