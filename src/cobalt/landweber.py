"""Stagewise regularity checking for a sequence acting on a graded module.

Given a graded module M over a presented ring and a sequence v_0, v_1,
... of homogeneous elements, stage n asks whether v_n acts injectively
on Q_n = M / (v_0..v_{n-1}) M.  Everything is checked degreewise inside
a finite window of Adams degrees: each degree gives a finitely
generated abelian group presented by an integer lattice (relation
multiples, module relations, and lower sequence elements), and
injectivity of multiplication becomes a lattice preimage comparison
solved by Smith normal form.  Over a base of Q the same comparisons run
through rational spans instead.

Stage statuses:
  quotient_vanishes    every window degree of Q_n is zero
  regular              every checkable degree pair passed injectivity
  fails                some degree pair has a non-injective witness
  window_inconclusive  nothing could be checked (no degree pair fits the
                       window, or the monomial enumeration was cut off)

A sequence is exact for the module when every stage of every requested
prime is regular or quotient_vanishes.
"""

from dataclasses import dataclass, field

from .errors import InhomogeneousRelation, InputError
from .fgl import landweber_generators
from .rings import Polynomial
from . import snf


class ModulePresentation:
    """A graded module: named generators with degrees, and relations
    given as coefficient dictionaries over those generators."""

    def __init__(self, ring, generators=None, relations=None):
        self.ring = ring
        self.generators = [(str(n), d) for n, d in
                           (generators or [("e", 0)])]
        if any(isinstance(d, bool) or not isinstance(d, int)
               for _, d in self.generators):
            raise InputError("module generator degrees must be integers")
        names = [n for n, _ in self.generators]
        if len(set(names)) != len(names):
            raise InputError("duplicate module generator names")
        self.degree_of = dict(self.generators)
        self.relations = []
        for rel in relations or []:
            self.add_relation(rel)

    @classmethod
    def free(cls, ring):
        return cls(ring, [("e", 0)], [])

    def add_relation(self, rel):
        clean = {}
        degree = None
        for name, coeff in rel.items():
            if name not in self.degree_of:
                raise InputError(f"unknown module generator {name!r}")
            if not isinstance(coeff, Polynomial):
                coeff = self.ring.const(coeff)
            if coeff.is_zero():
                continue
            d = coeff.adams_degree() + self.degree_of[name]
            if degree is None:
                degree = d
            elif d != degree:
                raise InhomogeneousRelation(
                    f"module relation mixes degrees {degree} and {d}",
                    term=name)
            clean[name] = coeff
        if clean:
            self.relations.append((degree, clean))


@dataclass
class StageResult:
    stage: int
    status: str
    witness_degree: int = None
    detail: str = ""

    @property
    def ok(self):
        return self.status in ("regular", "quotient_vanishes")

    def to_dict(self):
        out = {"stage": self.stage, "status": self.status}
        if self.witness_degree is not None:
            out["witness_degree"] = self.witness_degree
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class LandweberVerdict:
    prime: int
    window: tuple
    stages: list = field(default_factory=list)

    @property
    def exact(self):
        return all(s.ok for s in self.stages)

    def to_dict(self):
        return {"prime": self.prime,
                "window": list(self.window),
                "exact": self.exact,
                "stages": [s.to_dict() for s in self.stages]}


class _Truncated(Exception):
    pass


class _Analyzer:
    def __init__(self, module, sequence, window, bound):
        self.module = module
        self.ring = module.ring
        self.sequence = sequence
        self.window = window
        self.bound = bound
        self.rational = self.ring.base == "Q"
        self.p_local = self.ring.localized_at
        self._carriers = {}
        self._lattices = {}

    # -- carriers and vectors --------------------------------------------

    def carrier(self, degree):
        if degree not in self._carriers:
            items = []
            for gname, gdeg in self.module.generators:
                monos, flagged = self.ring.monomials_of_degree(
                    degree - gdeg, self.bound)
                if flagged:
                    raise _Truncated()
                items.extend((gname, m) for m in monos)
            self._carriers[degree] = (
                items, {gm: i for i, gm in enumerate(items)})
        return self._carriers[degree]

    def vector(self, gname, poly, position, width):
        vec = [0] * width
        for exps, c in poly.terms.items():
            key = (gname, exps)
            if key not in position:
                raise _Truncated()
            vec[position[key]] = c
        return vec

    def lattice(self, degree, stage):
        """Presentation lattice of Q_stage in one degree."""
        key = (degree, stage)
        if key in self._lattices:
            return self._lattices[key]
        carrier, position = self.carrier(degree)
        width = len(carrier)
        vecs = []

        def monomial_multiples(poly, gname, gdeg):
            pd = poly.adams_degree()
            monos, flagged = self.ring.monomials_of_degree(
                degree - gdeg - pd, self.bound)
            if flagged:
                raise _Truncated()
            for m in monos:
                prod = Polynomial(self.ring, {m: 1}) * poly
                vecs.append(self.vector(gname, prod, position, width))

        for rel in self.ring.relations:
            for gname, gdeg in self.module.generators:
                monomial_multiples(rel, gname, gdeg)
        for rel_degree, rel in self.module.relations:
            monos, flagged = self.ring.monomials_of_degree(
                degree - rel_degree, self.bound)
            if flagged:
                raise _Truncated()
            for m in monos:
                vec = [0] * width
                for gname, coeff in rel.items():
                    prod = Polynomial(self.ring, {m: 1}) * coeff
                    part = self.vector(gname, prod, position, width)
                    vec = [a + b for a, b in zip(vec, part)]
                vecs.append(vec)
        for v in self.sequence[:stage]:
            if v.is_zero():
                continue
            for gname, gdeg in self.module.generators:
                monomial_multiples(v, gname, gdeg)
        self._lattices[key] = (carrier, position, vecs)
        return self._lattices[key]

    # -- per-degree component tests ------------------------------------------

    def component_is_zero(self, width, lattice):
        if width == 0:
            return True
        if self.rational:
            return snf.rational_rank(lattice) == width
        return snf.quotient_is_zero(width, lattice, p=self.p_local)

    def multiplication_matrix(self, v, source, target_position, width):
        columns = []
        for gname, m in source:
            prod = Polynomial(self.ring, {m: 1}) * v
            columns.append(self.vector(gname, prod, target_position, width))
        return [[col[i] for col in columns] for i in range(width)]

    def injective_at(self, v, degree):
        """Is multiplication by v injective out of this degree?"""
        source, _ = self.carrier(degree)
        if not source:
            return True, None
        shift = v.adams_degree()
        _, src_pos, src_lat = self.lattice(degree, self._stage)
        target, tgt_pos, tgt_lat = self.lattice(degree + shift, self._stage)
        matrix = self.multiplication_matrix(v, source, tgt_pos, len(target))
        if self.rational:
            preimage = snf.preimage_lattice(matrix, tgt_lat)
            base = snf.rational_rank(src_lat) if preimage else 0
            for x in preimage:
                if snf.rational_rank(src_lat + [x]) != base:
                    return False, x
            return True, None
        preimage = snf.preimage_lattice(matrix, tgt_lat, p=self.p_local)
        for x in preimage:
            if not snf.lattice_contains(src_lat, x, p=self.p_local):
                return False, x
        return True, None

    # -- stage driver ----------------------------------------------

    def stage(self, n):
        self._stage = n
        lo, hi = self.window
        try:
            nonzero = []
            for degree in range(lo, hi + 1):
                carrier, _, lattice = self.lattice(degree, n)
                if not self.component_is_zero(len(carrier), lattice):
                    nonzero.append(degree)
            if not nonzero:
                return StageResult(n, "quotient_vanishes",
                                   detail="the quotient is zero in every "
                                          "window degree")
            v = self.sequence[n]
            if v.is_zero():
                return StageResult(
                    n, "fails", witness_degree=nonzero[0],
                    detail="the sequence element is zero but the quotient "
                           "is not")
            shift = v.adams_degree()
            checkable = [d for d in range(lo, hi + 1)
                         if lo <= d + shift <= hi]
            if not checkable:
                return StageResult(
                    n, "window_inconclusive",
                    detail=f"no degree pair (d, d{shift:+d}) fits the window")
            for degree in checkable:
                good, witness = self.injective_at(v, degree)
                if not good:
                    return StageResult(
                        n, "fails", witness_degree=degree,
                        detail="multiplication is not injective; witness "
                               f"coordinates {witness}")
            return StageResult(n, "regular")
        except _Truncated:
            return StageResult(
                n, "window_inconclusive",
                detail="monomial enumeration hit the exponent bound")


def default_exponent_bound(module, sequence, window):
    span = max(abs(window[0]), abs(window[1]), 1)
    vdeg = max((abs(v.adams_degree() or 0) for v in sequence
                if not v.is_zero()), default=0)
    rdeg = max((abs(r.adams_degree() or 0) for r in module.ring.relations),
               default=0)
    gdeg = max((abs(d) for _, d in module.generators), default=0)
    return span + vdeg + rdeg + gdeg + 2


def check_regular(module, sequence, prime, window, exponent_bound=None):
    """Stagewise verdict for the whole sequence on the module."""
    if window[0] > window[1]:
        raise InputError("window must be (lo, hi) with lo <= hi")
    sequence = [s if isinstance(s, Polynomial) else module.ring.const(s)
                for s in sequence]
    for s in sequence:
        s.adams_degree()    # must be homogeneous
    if exponent_bound is None:
        exponent_bound = default_exponent_bound(module, sequence, window)
    analyzer = _Analyzer(module, sequence, window, exponent_bound)
    verdict = LandweberVerdict(prime, window)
    for n in range(len(sequence)):
        verdict.stages.append(analyzer.stage(n))
    return verdict


def sequence_for_prime(law, prime, height):
    """[p, v_1, .., v_height] from the p-series of the law."""
    return landweber_generators(law, prime, height)


def check_exact(module, law, primes, height, window, exponent_bound=None):
    """Verdicts for each prime; exact iff no stage fails anywhere."""
    verdicts = {}
    for p in primes:
        seq = sequence_for_prime(law, p, height)
        verdicts[p] = check_regular(module, seq, p, window,
                                    exponent_bound=exponent_bound)
    return verdicts, all(v.exact for v in verdicts.values())


# -- perturbations -----------------------------------------------------------


def perturb_sequence(module, sequence, rng, exponent_bound=6):
    """Add random ideal elements of matching degree to each v_n, n >= 1.

    v_n only matters modulo (v_0..v_{n-1}), so verdicts must not change.
    """
    ring = module.ring
    out = [sequence[0]]
    for n in range(1, len(sequence)):
        v = sequence[n]
        target = v.adams_degree()
        if target is None:
            target = 0
        extra = ring.zero()
        for k in range(n):
            vk = sequence[k]
            if vk.is_zero():
                continue
            gap = target - (vk.adams_degree() or 0)
            monos, _ = ring.monomials_of_degree(gap, exponent_bound)
            if not monos:
                continue
            m = monos[rng.randrange(len(monos))]
            c = rng.randint(-3, 3)
            extra = extra + Polynomial(ring, {m: c}) * vk
        out.append(v + extra)
    return out
