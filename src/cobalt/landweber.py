"""Stagewise regularity checking for a sequence acting on a graded module.

Given a graded module M over a presented ring and a sequence v_0, v_1,
... of homogeneous elements, stage n asks whether v_n acts injectively
on Q_n = M / (v_0..v_{n-1}) M.  Everything is checked degreewise inside
a finite window of Adams degrees: `rings.degree_lattice` presents each
degree of Q_n by the multiples of the ring relations, the module
relations and v_0..v_{n-1}, one block of rows per element group,
presented once and shared by every stage.  Injectivity of
multiplication becomes a comparison of the integer preimage of the
target lattice (a Smith kernel) with the source lattice.  Each
(degree, stage) lattice is factored once into an `snf.Lattice` echelon
over the ring's scalars, Z, Z_(p) or Q, which answers both whether Q_n
vanishes there and whether each preimage vector lies in the source.  A
stage whose element is a constant unit of the scalars is injective
without linear algebra.

Over a ring with units the work is done once per period.  Let g be the
gcd of the Adams degrees of the invertible generators (`unit_period`).
Multiplying by a unit of degree g maps degree d of every Q_n onto degree
d + g, and it commutes with each v_n.  So whether Q_n vanishes in degree
d and whether v_n is injective out of d are shared by the degrees
congruent mod g.  Each class is computed at its first window degree, in
sweep order.  The first failing degree is therefore computed at itself,
and its witness coordinates are those of its own carrier.  Truncation
is still decided in every degree, from the enumeration flags of the
blocks that degree would build (`rings.lattice_truncated`); no row is
built for them.  With no unit, g is 0 and each degree is its own class.

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
from math import gcd

from .errors import BoundExceeded, InhomogeneousRelation, InputError
from .fgl import landweber_generators
from .rings import Polynomial, degree_lattice, lattice_truncated
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


def unit_period(ring):
    """The gcd g of the Adams degrees of the ring's invertible
    generators, 0 when it has none.  Some unit u has degree g, and
    multiplying by u maps degree d of every quotient Q_n isomorphically
    onto degree d + g, commuting with every v_n."""
    return gcd(*(g.adams_degree for g in ring.gens if g.invertible))


class _Analyzer:
    def __init__(self, module, sequence, window, bound):
        self.module = module
        self.ring = module.ring
        self.sequence = sequence
        self.window = window
        self.bound = bound
        self.period = unit_period(self.ring)
        self._elements = {}
        # degree -> the next block whose flag check_truncation reads:
        # -1 for the relation block, else k for the v_k block
        self._checked = {}
        self._blocks = {}
        self._echelons = {}

    # -- presentations -----------------------------------------------------

    def times_generators(self, polys, degrees=None):
        """(degree, {generator: p}) for each nonzero p and generator; the
        degrees of `polys`, when given, are not derived again."""
        if degrees is None:
            degrees = [p.adams_degree() for p in polys]
        return [(d + gdeg, {gname: p})
                for p, d in zip(polys, degrees) if d is not None
                for gname, gdeg in self.module.generators]

    def elements(self, k):
        """The elements of block k in every degree: the ring relations
        times the generators and the module relations when k is None,
        else v_k times the generators."""
        if k not in self._elements:
            if k is None:
                self._elements[k] = (self.times_generators(
                    self.ring.relations, self.ring.relation_degrees)
                    + self.module.relations)
            else:
                self._elements[k] = self.times_generators([self.sequence[k]])
        return self._elements[k]

    def block(self, degree, k):
        """Carrier and rows of element block k in one degree.  Raises if
        truncated."""
        key = (degree, k)
        if key not in self._blocks:
            carrier, rows, truncated = degree_lattice(
                self.ring, degree, self.module.generators, self.elements(k),
                self.bound)
            self._blocks[key] = None if truncated else (carrier, rows)
        if self._blocks[key] is None:
            raise _Truncated()
        return self._blocks[key]

    def check_truncation(self, degree, stage):
        """Raise as `echelon(degree, stage)` would on a truncated block,
        from the enumeration flags alone: no block is built.  Each flag
        is read once; the carrier's with the relation block."""
        for k in range(self._checked.get(degree, -1), stage):
            generators = self.module.generators if k < 0 else None
            if lattice_truncated(self.ring, degree, generators,
                                 self.elements(None if k < 0 else k),
                                 self.bound):
                raise _Truncated()
            self._checked[degree] = k + 1

    def presentation(self, degree, stage):
        """Carrier and rows of Q_stage in one degree: the relation block,
        then v_0..v_{stage-1} times the generators."""
        carrier, rows = self.block(degree, None)
        for k in range(stage):
            rows = rows + self.block(degree, k)[1]
        return carrier, rows

    def echelon(self, degree, stage):
        """snf.Lattice over the ring's scalars of the presentation of
        Q_stage in one degree, grown from the echelon of the previous
        stage."""
        key = (degree, stage)
        if key not in self._echelons:
            carrier, rows = self.block(degree, None)
            if stage:
                rows = (self.echelon(degree, stage - 1).rows
                        + self.block(degree, stage - 1)[1])
            self._echelons[key] = snf.Lattice(
                snf.integer_rows(rows), len(carrier), self.ring.scalars)
        return self._echelons[key]

    # -- per-degree component tests ------------------------------------------

    def component_is_zero(self, degree):
        return self.echelon(degree, self._stage).quotient_is_zero()

    def injective_at(self, v, degree):
        """Is multiplication by v injective out of this degree?"""
        source = self.echelon(degree, self._stage)
        if not source.width:
            return True, None
        shift = v.adams_degree()
        _, target = self.presentation(degree + shift, self._stage)
        if v == v.constant_term() and source.is_unit(v.constant_term()):
            return True, None       # a constant unit of the scalars
        _, columns = self.block(degree + shift, self._stage)
        # over Z on every base; its Z_(p) or Q span is the preimage there
        preimage = snf.preimage_lattice([list(r) for r in zip(*columns)],
                                        target)
        for x in preimage:
            if not source.contains(x):
                return False, x
        return True, None

    # -- stage driver ----------------------------------------------

    def residue(self, degree):
        """The class of `degree` whose members share zero-ness and
        injectivity: its residue mod the unit period, else itself."""
        return degree % self.period if self.period else degree

    def stage(self, n):
        self._stage = n
        lo, hi = self.window
        # the answer of each class, computed at its first window degree
        is_zero, injective = {}, set()
        try:
            nonzero = []
            for degree in range(lo, hi + 1):
                c = self.residue(degree)
                if c in is_zero:
                    self.check_truncation(degree, n)
                else:
                    is_zero[c] = self.component_is_zero(degree)
                if not is_zero[c]:
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
            # a class that passed shares its answer.  A later member's
            # multiplier block would list the carriers of d + shift and,
            # for its multipliers, of d: the sweep has read those flags
            for degree in checkable:
                c = self.residue(degree)
                if c in injective:
                    continue
                good, witness = self.injective_at(v, degree)
                if not good:
                    return StageResult(
                        n, "fails", witness_degree=degree,
                        detail="multiplication is not injective; witness "
                               f"coordinates {witness}")
                injective.add(c)
            return StageResult(n, "regular")
        except _Truncated:
            return StageResult(
                n, "window_inconclusive",
                detail="monomial enumeration hit the exponent bound")


def default_exponent_bound(module, sequence, window):
    span = max(abs(window[0]), abs(window[1]), 1)
    vdeg = max((abs(v.adams_degree() or 0) for v in sequence
                if not v.is_zero()), default=0)
    rdeg = max((abs(d or 0) for d in module.ring.relation_degrees),
               default=0)
    gdeg = max((abs(d) for _, d in module.generators), default=0)
    mdeg = max((abs(d) for d, _ in module.relations), default=0)
    return span + vdeg + rdeg + gdeg + mdeg + 2


# A window of more Adams degrees than this is refused, a fixed bound and
# not an option: every stage sweeps every degree, and memory grows with
# the window (the additive law at -100000:100000 reached 417 MB).  The
# K-theory verdict at -3000:3000, the multiplicative law, has 6,001
# degrees.
MAX_WINDOW_DEGREES = 10 ** 4


def _check_window(window):
    lo, hi = window
    if lo > hi:
        raise InputError("window must be (lo, hi) with lo <= hi")
    if hi - lo + 1 > MAX_WINDOW_DEGREES:
        raise BoundExceeded(f"the window has {hi - lo + 1} degrees, more "
                            f"than {MAX_WINDOW_DEGREES}")


def check_regular(module, sequence, prime, window):
    """Stagewise verdict for the whole sequence on the module."""
    _check_window(window)
    sequence = [s if isinstance(s, Polynomial) else module.ring.const(s)
                for s in sequence]
    for s in sequence:
        s.adams_degree()    # must be homogeneous
    analyzer = _Analyzer(module, sequence, window,
                         default_exponent_bound(module, sequence, window))
    verdict = LandweberVerdict(prime, window)
    for n in range(len(sequence)):
        verdict.stages.append(analyzer.stage(n))
    return verdict


def sequence_for_prime(law, prime, height):
    """[p, v_1, .., v_height] from the p-series of the law."""
    return landweber_generators(law, prime, height)


def check_exact(module, law, primes, height, window):
    """Verdicts for each prime; exact iff no stage fails anywhere."""
    _check_window(window)
    verdicts = {}
    for p in primes:
        seq = sequence_for_prime(law, p, height)
        verdicts[p] = check_regular(module, seq, p, window)
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
