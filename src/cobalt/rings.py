"""Sparse polynomials over Z or Q and finitely presented graded rings.

A Ring is a presentation: a base (Z or Q), a list of generators with
integer Adams degrees, and a list of homogeneous relation polynomials.
Generators marked invertible get an explicit paired inverse generator
`g_inv` (negated degree).

A polynomial maps packed monomial keys to coefficients: one int per
monomial, one field of the ring's current width per declared generator,
generator 0 in the top field.  An invertible generator and its inverse
share one signed field, so the key of a product is ka + kb - offset and
g * g_inv cancels in the addition.  Exponent tuples, indexed by
generator position and in normal form, appear only at the boundary: the
constructor, `exponent_terms`, printing, monomial enumeration and the
carriers `degree_lattice` hands out.  `Ring.dot` is the one
multiplication kernel, and no other module names a key.  `map_to` adds
its products in that kernel's loop too: it shifts the keys of terms by
the images that are one term, groups the other factors Horner-fashion
so that the terms ending in the same factor share one product by its
image power, and hands `dot` one group at a time (`hopf --N 18` peaks
at 33.5 MB so, against 33.0 MB when each term was multiplied out).
The README's design note covers widths, widening, the signed fields
and the key codec.  Everything is immutable in spirit: operations
build new values, and a ring is frozen once its relations are imposed.

Coefficients have one canonical form over either base: an `int` when
the value is integral and a `Fraction` only when it is not, so integral
arithmetic over Q runs on plain ints.  No zero coefficient is ever
stored.

>>> Q = polynomial_ring("Q", [])
>>> Q.const(Fraction(4, 2)).exponent_terms()
{(): 2}
>>> Q.const(Fraction(1, 2)).exponent_terms()
{(): Fraction(1, 2)}

Graded pieces are analyzed degreewise without Groebner bases.
`degree_lattice` is the one presentation of an Adams degree: monomials
under an exponent bound, and a row for each monomial multiple of given
elements that lands there.  Components, Landweber quotients and the
Hopf collapse check all call it.  It builds each row by shifting the
element's packed keys by the monomial's key, and decodes only the keys
of its carrier; each ring memoizes its enumerations for it, and
`Ring.impose` records the relation degrees its callers read.  For a
component one `snf.Lattice` echelon over the ring's scalars (Z, Z
localized at a prime, or Q) yields the rank, a monomial basis and the
torsion; its `truncated` flag is set exactly when the bound leaves out
a monomial, and when it is off the invariants are exact.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain, compress
from math import gcd
from operator import mul, or_
import struct
from typing import get_args, get_origin

from .errors import (
    BoundExceeded,
    ExpressionSyntaxError,
    InhomogeneousRelation,
    InputError,
    NotQAlgebra,
    UnknownIdentifier,
)
from . import snf


@dataclass(frozen=True)
class GenSpec:
    name: str
    adams_degree: int
    invertible: bool = False


class _Packing:
    """One layout of a ring's keys: a field of `width` bits per declared
    generator.  `layout` holds per field the generator index i, the index
    j of its inverse or None, the shift, the bias (2^(w-1) for a signed
    field, else 0) and the degree of g_i; `offset` is the key of 1.

    A stored key keeps every |exponent| below 2^(w-2), so the sum of two
    still fits its field.  `less_quarter(k)` moves each signed field of
    k down by 2^(w-2), and a key is stored exactly when the result has
    no bit of `guard` set: the top two bits of a plain field, the top
    bit of a signed one (a signed field below range borrows and sets
    its top bit).

    At w = 16, 32 and 64, `codec` reads every field of a key at once:
    the key XOR `offset` flips the top bit of each signed field, which
    turns e + 2^(w-1) into e in two's complement, and its big-endian
    bytes unpack to an unsigned int per plain field and a signed one per
    signed field.  A key of a ring without inverses unpacks to its
    exponent tuple as it is.
    Wider packings, the only ones that hold exponents of 2^62 and more,
    read the fields one shift at a time, and so does the normal form of
    a ring with inverses, which must move each negative exponent to the
    inverse (at one to three fields, the usual Laurent rings, the shifts
    are the faster read)."""

    __slots__ = ("width", "mask", "layout", "offset", "less_quarter",
                 "guard", "ngens", "gen_keys", "codec", "degrees")

    def __init__(self, ring, width):
        self.width, self.ngens = width, len(ring.gens)
        self.mask = (1 << width) - 1
        n = len(ring.fields)
        self.layout = [(i, j, (n - 1 - f) * width,
                        0 if j is None else 1 << (width - 1),
                        ring.gens[i].adams_degree)
                       for f, (i, j) in enumerate(ring.fields)]
        self.offset = sum(bias << shift for _, _, shift, bias, _ in self.layout)
        self.less_quarter = (-(self.offset >> 1)).__add__
        self.guard = sum((3 if j is None else 2) << (shift + width - 2)
                         for _, j, shift, _, _ in self.layout)
        code = {16: "H", 32: "I", 64: "Q"}.get(width)
        self.codec = code and struct.Struct(">" + "".join(
            code if j is None else code.lower() for _, j in ring.fields))
        self.degrees = [d for *_, d in self.layout]
        self.gen_keys = [self.key([int(g == i) for g in range(self.ngens)])
                         for i in range(self.ngens)]

    def key(self, exps):
        """The key of an exponent tuple whose fields fit the width."""
        return self.offset + sum(
            (exps[i] - (exps[j] if j is not None else 0)) << shift
            for i, j, shift, _, _ in self.layout)

    def exponents(self, key):
        """The normal-form exponent tuple of a key."""
        codec = self.codec
        if codec and not self.offset:     # a ring without inverses
            return codec.unpack(key.to_bytes(codec.size, "big"))
        exps = [0] * self.ngens
        for i, j, shift, bias, _ in self.layout:
            e = (key >> shift & self.mask) - bias
            if e >= 0:
                exps[i] = e
            else:
                exps[j] = -e
        return tuple(exps)

    def degree(self, key):
        codec = self.codec
        if codec:
            fields = codec.unpack((key ^ self.offset).to_bytes(codec.size,
                                                               "big"))
        else:
            fields = [(key >> shift & self.mask) - bias
                      for _, _, shift, bias, _ in self.layout]
        return sum(map(mul, fields, self.degrees))


class Ring:
    """A finitely presented commutative ring, graded by Adams degree."""

    def __init__(self, base, gens, localized_at=None):
        if base not in ("Z", "Q"):
            raise InputError(f"base must be 'Z' or 'Q', got {base!r}")
        self.base = base
        self.gens = []
        self.localized_at = localized_at
        seen = set()
        for spec in gens:
            if not isinstance(spec, GenSpec):
                spec = GenSpec(*spec)
            if spec.name in seen:
                raise InputError(f"duplicate generator name {spec.name!r}")
            seen.add(spec.name)
            self.gens.append(spec)
        # one field per declared generator: (i, index of g_i's inverse)
        self.fields = []
        expanded = []
        for i, spec in enumerate(self.gens):
            j = None
            if spec.invertible:
                inv_name = spec.name + "_inv"
                if inv_name in seen:
                    raise InputError(
                        f"generator name {inv_name!r} collides with the "
                        f"implicit inverse of {spec.name!r}")
                seen.add(inv_name)
                j = len(self.gens) + len(expanded)
                expanded.append(GenSpec(inv_name, -spec.adams_degree))
            self.fields.append((i, j))
        self.gens.extend(expanded)
        self.index = {g.name: i for i, g in enumerate(self.gens)}
        self.degrees = [g.adams_degree for g in self.gens]
        self.relations = []
        self.relation_degrees = []          # parallel; None for a zero one
        self.pack = _Packing(self, 16)      # widened as exponents grow
        # (degree, bound) -> [monomials, packing, keys in it], read by
        # degree_lattice only
        self._enumerations = {}
        # per field g and sign s of its exponent, read by _beyond_bound:
        # s*|g| and the sorted nonzero steps of a cofactor of g^s
        options = [[s * self.gens[i].adams_degree
                    for s in ((1,) if j is None else (1, -1))]
                   for i, j in self.fields]
        self._past_bound = [
            (a, tuple(sorted(b for u, bs in enumerate(options)
                             for b in (bs if u != t else [a]) if b)))
            for t, own in enumerate(options) for a in own]

    @property
    def scalars(self):
        """The coefficient ring as snf.Lattice names it: "Q", a prime p
        for Z localized at p, or "Z"."""
        return "Q" if self.base == "Q" else self.localized_at or "Z"

    # -- packing ------------------------------------------------------------

    def align(self, *polys):
        """Repack each of `polys` still on an older packing."""
        for p in polys:
            if p.pack is not self.pack:
                p.terms = {self.pack.key(p.pack.exponents(k)): c
                           for k, c in p.terms.items()}
                p.pack = self.pack

    def widen(self, width):
        """Move to a packing of `width` bits, unless one is as wide."""
        if width > self.pack.width:
            self.pack = _Packing(self, width)

    # -- construction -----------------------------------------------------

    def coerce(self, value):
        """`value` in canonical form: an int when integral, else a Fraction."""
        if isinstance(value, int):
            return int(value)
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return value.numerator
            if self.base == "Q":
                return value
            raise NotQAlgebra(
                f"coefficient {value} needs denominators; ring base is Z")
        raise InputError(f"bad coefficient {value!r}")

    def poly(self, terms):
        return Polynomial(self, terms)

    def zero(self):
        return Polynomial._raw(self, {}, self.pack)

    def one(self):
        return self.const(1)

    def const(self, c):
        return Polynomial._raw(self, {self.pack.offset: self.coerce(c)},
                               self.pack)

    def gen(self, name):
        if isinstance(name, int):
            i = name
        else:
            if name not in self.index:
                raise InputError(f"no generator named {name!r}")
            i = self.index[name]
        return Polynomial._raw(self, {self.pack.gen_keys[i]: 1}, self.pack)

    def impose(self, *relations):
        """Add relations (polynomials or expression strings); homogeneous only."""
        for rel in relations:
            if isinstance(rel, str):
                rel = parse_expression(rel, self)
            if rel.ring is not self:
                raise InputError("relation belongs to a different ring")
            deg = None
            for exps in rel.exponent_terms():
                d = self.monomial_degree(exps)
                if deg is None:
                    deg = d
                elif d != deg:
                    raise InhomogeneousRelation(
                        f"relation {rel} mixes degrees {deg} and {d}",
                        term=self._monomial_str(exps))
            self.relations.append(rel)
            self.relation_degrees.append(deg)
        return self

    # -- monomials ----------------------------------------------------------

    def monomial_degree(self, exps):
        return sum(map(mul, exps, self.degrees))

    def dot(self, pairs):
        """The sum of a*b over `pairs`, an iterable of Polynomial pairs.

        The one multiplication kernel: operands on an older packing are
        repacked, and a product key is ka + kb minus the key of 1.  A
        result past the stored bound (it can reach twice it) doubles the
        ring's width and moves to the new packing.  `pairs` may be made
        while the sum runs: when making a pair widened the ring, the
        partial sum is repacked before the pair is added.

        >>> ring = polynomial_ring("Z", [("x", 1), ("y", 1)])
        >>> x, y = ring.gen("x"), ring.gen("y")
        >>> ring.dot([(x, x + y), (y, 2 - x)]), ring.dot([])
        (x^2 + 2*y, 0)
        """
        pack = self.pack
        offset = pack.offset
        out = {}
        get = out.get
        for a, b in pairs:
            if a.pack is not pack or b.pack is not pack:
                if self.pack is not pack:
                    out = {self.pack.key(pack.exponents(k)): c
                           for k, c in out.items()}
                    get, pack = out.get, self.pack
                    offset = pack.offset
                self.align(a, b)
            for ka, ca in a.terms.items():
                ka -= offset
                for kb, cb in b.terms.items():
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
        poly = Polynomial._raw(self, out, pack)
        if reduce(or_, map(pack.less_quarter, poly.terms), 0) & pack.guard:
            self.widen(2 * pack.width)
            self.align(poly)
        return poly

    def monomials_of_degree(self, degree, bound):
        """Normal-form monomials of one Adams degree, exponents <= bound.

        Returns (monomials, bound_active), the monomials sorted in
        descending exponent order; bound_active is True exactly when some
        monomial of the degree has an exponent of absolute value above
        the bound (`_beyond_bound`), so the listing is incomplete.  An
        invertible pair is one signed exponent in -bound..bound.  The
        walk gives each slot only the exponents whose remainder the later
        slots reach within the bound, by floor division, and stops at a
        remainder below the smallest degree of a tail of positive plain
        generators.  The bound must be >= 0.

        >>> ring = polynomial_ring("Z", [("x", 2), ("y", -3)])
        >>> ring.monomials_of_degree(0, 1)      # x^3*y^2 has degree 0
        ([(0, 0)], True)
        >>> polynomial_ring("Z", [("x", 2)]).monomials_of_degree(7, 2)
        ([], False)
        """
        if bound < 0:
            raise InputError(f"exponent bound must be >= 0, got {bound}")
        slots = [(i, j, self.gens[i].adams_degree, 0 if j is None else -bound)
                 for i, j in self.fields]
        k = len(slots)
        # [lo[t], hi[t]]: the degrees slots t.. reach within the bound
        lo, hi = [0] * (k + 1), [0] * (k + 1)
        # zero_tail[t]: slots t.. are plain generators of positive degree,
        # and then tail_min[t] is the smallest of their degrees
        zero_tail, tail_min = [True] * (k + 1), [0] * k + [1]
        for t in range(k - 1, -1, -1):
            i, j, d, e_min = slots[t]
            lo[t] = lo[t + 1] + min(e_min * d, bound * d)
            hi[t] = hi[t + 1] + max(e_min * d, bound * d)
            zero_tail[t] = zero_tail[t + 1] and j is None and d > 0
            tail_min[t] = min(d, tail_min[t + 1]) if t + 1 < k else d
        found, exps = [], [0] * len(self.gens)

        # rec is handed itself, not a closure over its own name, so a call
        # leaves no reference cycle for the collector
        def rec(rec, t, target):
            # invariant: lo[t] <= target <= hi[t]
            if zero_tail[t] and target < tail_min[t]:
                if not target:
                    found.append(tuple(exps))
                return
            i, j, d, e_min = slots[t]
            lo1, hi1 = lo[t + 1], hi[t + 1]
            # the e with target - e*d in [lo1, hi1], before clipping
            if d > 0:
                e_lo, e_hi = -((hi1 - target) // d), (target - lo1) // d
            elif d < 0:
                e_lo, e_hi = -((lo1 - target) // d), (target - hi1) // d
            else:
                e_lo, e_hi = e_min, bound
            for e in range(min(e_hi, bound), max(e_lo, e_min) - 1, -1):
                if e >= 0:
                    exps[i] = e
                else:
                    exps[i], exps[j] = 0, -e
                rec(rec, t + 1, target - e * d)
            exps[i] = 0
            if j is not None:
                exps[j] = 0

        if lo[0] <= degree <= hi[0]:
            rec(rec, 0, degree)
        found.sort(reverse=True)
        return found, self._beyond_bound(degree, bound)

    def _beyond_bound(self, degree, bound):
        """Whether some monomial of `degree` has an exponent of absolute
        value above `bound`: g^(s*(bound+1)) times a cofactor whose steps
        are the generator degrees, an invertible one with both signs,
        but g's own step with the sign s alone."""
        return any(_reachable(degree - (bound + 1) * a, steps)
                   for a, steps in self._past_bound)

    def _monomial_str(self, exps):
        parts = []
        for e, g in zip(exps, self.gens):
            if e == 1:
                parts.append(g.name)
            elif e:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.adams_degree}" for g in self.gens)
        return f"Ring({self.base}[{gens}], {len(self.relations)} relations)"


class Polynomial:
    __slots__ = ("ring", "terms", "pack")

    def __init__(self, ring, terms):
        """From a dict of exponent tuples; a g, g_inv pair cancels."""
        rows = {tuple(exps): ring.coerce(c) for exps, c in terms.items()}
        rows = {exps: c for exps, c in rows.items() if c}
        if any(len(exps) != len(ring.gens) or min(exps, default=0) < 0
               for exps in rows):
            raise InputError("a monomial needs one exponent >= 0 per "
                             "generator of the ring")
        top = max([0] + [max(exps, default=0) for exps in rows])
        while top >> (ring.pack.width - 2):
            ring.widen(2 * ring.pack.width)
        out = {}
        for exps, c in rows.items():
            key = ring.pack.key(exps)
            out[key] = out.get(key, 0) + c
        self.ring, self.pack = ring, ring.pack
        self.terms = Polynomial._raw(ring, out, ring.pack).terms

    @classmethod
    def _raw(cls, ring, terms, pack):
        """A result of arithmetic inside `ring`, keyed in `pack`, whose
        keys are stored ones.

        Drops zero coefficients and turns integral Fractions into ints.
        """
        poly = object.__new__(cls)
        poly.ring, poly.pack = ring, pack
        poly.terms = clean = {}
        for key, c in terms.items():
            if c:
                if type(c) is Fraction and c.denominator == 1:
                    c = c.numerator
                clean[key] = c
        return poly

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if isinstance(other, Polynomial):
            if other.ring is not self.ring:
                raise InputError("mixed-ring arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if self.pack is not other.pack:
            self.ring.align(self, other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return Polynomial._raw(self.ring, out, self.pack)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.ring,
                               {k: -c for k, c in self.terms.items()},
                               self.pack)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = self.ring.coerce(other)
            return Polynomial._raw(
                self.ring, {k: c * c0 for k, c in self.terms.items()},
                self.pack)
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.dot([(self, other)])

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InputError("exponents must be nonnegative integers")
        if not k:
            return self.ring.one()
        # left to right from the highest set bit, so 1 is never a factor
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.ring is not other.ring:
            return False
        if self.pack is not other.pack:
            self.ring.align(self, other)
        return self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring),
                     frozenset(self.exponent_terms().items())))

    def is_zero(self):
        return not self.terms

    # -- structure ------------------------------------------------------------

    def exponent_terms(self):
        """The terms as a dict from normal-form exponent tuples."""
        exponents = self.pack.exponents
        return {exponents(k): c for k, c in self.terms.items()}

    def constant_term(self):
        return self.terms.get(self.pack.offset, 0)

    def adams_degree(self):
        """Degree when homogeneous; None for 0; raises when mixed."""
        deg = None
        for key in self.terms:
            d = self.pack.degree(key)
            if deg is None:
                deg = d
            elif d != deg:
                raise InputError(f"{self} is not homogeneous")
        return deg

    def homogeneous_part(self, degree):
        return Polynomial._raw(self.ring, {
            k: c for k, c in self.terms.items()
            if self.pack.degree(k) == degree}, self.pack)

    def map_to(self, target, images):
        """Apply the ring map sending generator names per `images`.

        images: dict name -> Polynomial over the target ring.  Every
        generator with a nonzero exponent somewhere in this polynomial
        must be covered.  Coefficients move along Z -> Z, Z -> Q, Q -> Q,
        or Q -> Z when no denominators are present.

        Each term is decoded once into its nonzero (generator, exponent)
        factors, and dropped when one of them has image 0.  An image of
        one term only scales the term and shifts its key.  When a shift
        would leave the stored range, the target is widened before any
        product is formed and the terms are decoded again.  The images
        of more terms are multiplied in by Horner grouping (`_horner`).
        """
        gens = self.ring.gens
        indices = range(len(gens))
        # read on both passes as they are now: a pass may repack this
        # polynomial when it is an image of one term
        terms, exponents = self.terms, self.pack.exponents
        seen = {}       # generator index -> its image
        while True:
            pack = target.pack
            shifts = {}     # generator index -> `_key_shift` of its image
            leaves, top = [], 0     # (key, coefficient, other factors)
            for key, c in terms.items():
                c = target.coerce(c)
                exps = exponents(key)
                k, rest, t = pack.offset, [], 0
                for i in compress(indices, exps):
                    e = exps[i]
                    shift = shifts.get(i)
                    if shift is None:
                        image = seen.get(i)
                        if image is None:
                            name = gens[i].name
                            if name not in images:
                                raise InputError(
                                    f"no image given for generator {name!r}")
                            image = seen[i] = images[name]
                            if image.ring is not target:
                                raise InputError("mixed-ring arithmetic")
                        if len(image.terms) != 1:
                            if image.terms:
                                rest.append((i, e))
                            else:   # the term maps to 0; its other
                                c = 0   # factors are still checked
                            continue
                        shift = shifts[i] = _key_shift(target, image)
                    k += e * shift[0]
                    c *= shift[1] ** e
                    t += e * shift[2]
                if c:
                    leaves.append((k, c, rest))
                    top = max(top, t)
            if not top >> (pack.width - 2):
                break
            while top >> (target.pack.width - 2):
                target.widen(2 * target.pack.width)
        powers = {}     # (generator index, exponent) -> image power
        for _, _, rest in leaves:
            for i, e in rest:
                if (i, e) not in powers:
                    powers[i, e] = seen[i] ** e
        return _horner(target, pack, leaves, powers)

    def sorted_terms(self):
        """Terms in descending graded-lex order (degree, then exponents)."""
        degree = self.ring.monomial_degree
        return sorted(self.exponent_terms().items(),
                      key=lambda item: (degree(item[0]), item[0]),
                      reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for exps, c in self.sorted_terms():
            mono = self.ring._monomial_str(exps)
            if mono == "1":
                body = str(c)
            elif c == 1:
                body = mono
            elif c == -1:
                body = f"-{mono}"
            else:
                body = f"{c}*{mono}"
            if chunks and not body.startswith("-"):
                chunks.append("+ " + body)
            elif chunks:
                chunks.append("- " + body[1:])
            else:
                chunks.append(body)
        return " ".join(chunks)

    __repr__ = __str__


def _key_shift(target, image):
    """(key shift, coefficient, largest exponent) of a one-term image in
    the target's packing: its key less the key of 1, so that adding the
    shift multiplies a key by the image's monomial."""
    target.align(image)
    (key, c), = image.terms.items()
    return key - target.pack.offset, c, max(target.pack.exponents(key),
                                            default=0)


def _horner(target, pack, leaves, powers):
    """The sum over `leaves`, (key, c, factors) triples keyed in `pack`,
    of c*x^key times the image power of each factor.

    The leaves without factors are summed into one dict.  The others are
    grouped by their last factor, and each group is multiplied by that
    factor's power once (`_horner_group`).  The products are added in
    `Ring.dot`'s own loop, one group at a time, so only one group's sum
    is held at a time.
    """
    out, groups = {}, {}
    for k, c, factors in leaves:
        if factors:
            groups.setdefault(factors[-1], []).append((k, c, factors[:-1]))
        else:
            out[k] = out.get(k, 0) + c
    if not groups:
        return Polynomial._raw(target, out, pack)
    if not out and len(groups) == 1:    # one product, added to nothing
        (last, group), = groups.items()
        a, b = _horner_group(target, pack, None, last, group, powers)
        if a is None:   # an image power: hand out a copy
            return Polynomial._raw(target, b.terms, b.pack)
        return a * b
    one = target.one()
    pairs = (_horner_group(target, pack, one, last, group, powers)
             for last, group in groups.items())
    if out:
        pairs = chain([(Polynomial._raw(target, out, pack), one)], pairs)
    return target.dot(pairs)


def _horner_group(target, pack, one, last, group, powers):
    """A pair (a, b) whose product is the sum of `group`, the leaves whose
    last factor is `last`: b is that factor's power.  For a larger group
    a is `_horner`'s sum; a group of one leaf is multiplied out, its leaf
    left out when it is 1, and a is `one` when nothing else is left."""
    if len(group) > 1:
        return _horner(target, pack, group, powers), powers[last]
    (k, c, factors), = group
    polys = [powers[factor] for factor in factors]
    if (k, c) != (pack.offset, 1):
        polys.insert(0, Polynomial._raw(target, {k: c}, pack))
    return reduce(mul, polys) if polys else one, powers[last]


def _reachable(target, steps):
    """Whether `target` is a sum of nonnegative multiples of `steps`, a
    sorted tuple of nonzero ints (the Frobenius coin problem).  Steps of
    both signs reach every multiple of their gcd g; steps of one sign
    reach those of their sign from g(a/g - 1)(b/g - 1) on (Schur's bound,
    a and b the least and largest |step|), and below it a bitset decides."""
    if not steps:
        return target == 0
    g = gcd(*steps)
    if target % g or steps[0] < 0 < steps[-1]:
        return target % g == 0
    if steps[0] < 0:
        target, steps = -target, [-a for a in reversed(steps)]
    if target < 0 or target >= (steps[0] - g) * (steps[-1] - g) // g:
        return target >= 0
    reach, mask = 1, (2 << target) - 1
    for a in steps:
        while a <= target:
            reach |= reach << a & mask
            a <<= 1
    return bool(reach >> target & 1)


# -- graded components ----------------------------------------------------------


@dataclass
class GradedComponentReport:
    degree: int
    free_rank: int
    torsion: list
    basis: list = field(default_factory=list)   # exponent tuples, rational span
    truncated: bool = False
    note: str = ""


def _enumeration(ring, degree, bound):
    """(monomials, keys) of `monomials_of_degree(degree, bound)`, the keys
    in the ring's current packing.  Each ring lists a (degree, bound)
    pair once; its keys are taken again after a widening."""
    entry = ring._enumerations.get((degree, bound))
    if entry is None:
        entry = ring._enumerations[degree, bound] = [
            ring.monomials_of_degree(degree, bound)[0], None, None]
    if entry[1] is not ring.pack:
        entry[1], entry[2] = ring.pack, list(map(ring.pack.key, entry[0]))
    return entry[0], entry[2]


def lattice_truncated(ring, degree, generators, elements, bound):
    """The `truncated` flag of `degree_lattice` on the same arguments,
    decided without listing a monomial or building a row: whether the
    listing of a carrier degree degree - |e_i| or of a multiplier degree
    degree - |element| leaves out a monomial past the bound.  A product
    term falls outside the carrier only where the carrier's own listing
    is incomplete, so these listings decide the flag."""
    return any(ring._beyond_bound(degree - d, bound) for d in
               [d for _, d in generators or ()]
               + [d for d, _ in elements if d is not None])


# degree_lattice refuses to densify more cells (rows x carrier width)
# than this, a fixed bound and not an option: 32 MB of row slots before
# the echelon starts.  The largest lattice of the golden commands and
# the benchmark workloads has 126,948 cells (426 x 298, `hopf --N 2
# --induced` over Q[beta^+-1, t]); the Hopf collapse check over
# Q[beta^+-1, t]/(t - 3 beta^2) at N = 4 builds 3,132 x 852 and stays
# admitted.
MAX_LATTICE_CELLS = 4 * 10 ** 6


def degree_lattice(ring, degree, generators, elements, bound):
    """(carrier, rows, truncated) presenting one degree of a graded module.

    The module is free on `generators`, (name, degree) pairs, modulo the
    homogeneous `elements`, (degree, {name: Polynomial}) pairs; one of
    degree None is zero.  The carrier holds the (name, monomial)
    coordinates, generator by generator, monomials descending, or with
    generators None every coordinate a row reaches, sorted.  Each row is
    one monomial multiple of an element.  `truncated` says that an
    enumeration left a monomial past the bound out (`lattice_truncated`);
    only then can a product term fall outside the carrier, and it is
    appended to it.  More than MAX_LATTICE_CELLS cells raise
    BoundExceeded before any dense row is built.

    Inside, coordinates are (name, key) pairs: the ring is first widened
    until the bound is a stored exponent, so the row of monomial m times
    an element is the element's terms shifted by km - offset, exact, and
    only carrier keys are decoded to exponent tuples.  The ring's memo
    of enumerations serves every call on it.
    """
    while bound >> (ring.pack.width - 2):
        ring.widen(2 * ring.pack.width)
    pack = ring.pack
    truncated = lattice_truncated(ring, degree, generators, elements, bound)
    carrier = []
    position = {}
    for name, gdeg in generators or ():
        monos, keys = _enumeration(ring, degree - gdeg, bound)
        position.update(((name, k), i)
                        for i, k in enumerate(keys, len(carrier)))
        carrier.extend((name, m) for m in monos)
    sparse = []     # rows stay dicts until the carrier stops growing
    for edeg, element in elements:
        if edeg is None:
            continue
        _, keys = _enumeration(ring, degree - edeg, bound)
        ring.align(*element.values())
        shifted = [(name, [(k - pack.offset, c)
                           for k, c in poly.terms.items()])
                   for name, poly in element.items()]
        for km in keys:
            sparse.append({(name, km + k): c
                           for name, terms in shifted for k, c in terms})
    if generators is None:
        reached = sorted((name, pack.exponents(k), k)
                         for name, k in {key for row in sparse
                                         for key in row})
        carrier = [(name, m) for name, m, _ in reached]
        position = {(name, k): i for i, (name, _, k) in enumerate(reached)}
    for row in sparse:
        for key in row:
            if key not in position:
                position[key] = len(carrier)
                carrier.append((key[0], pack.exponents(key[1])))
                truncated = True
    if len(sparse) * len(carrier) > MAX_LATTICE_CELLS:
        raise BoundExceeded(
            f"degree {degree} at exponent bound {bound} needs a "
            f"{len(sparse)} x {len(carrier)} lattice, more than "
            f"{MAX_LATTICE_CELLS} cells")
    rows = [[0] * len(carrier) for _ in sparse]
    for dense, row in zip(rows, sparse):
        for key, c in row.items():
            dense[position[key]] = c
    return carrier, rows, truncated


def graded_component(ring, degree, exponent_bound=None):
    """Rank, torsion and a monomial basis of one Adams-degree component.

    The exponent bound keeps the enumeration finite.  `truncated` is set
    exactly when it leaves out a monomial of the degree or a relation
    multiple landing there; when it is False the invariants are exact.
    One snf.Lattice echelon of the relation rows over the ring's scalars
    gives the pivot columns and the torsion: ranks are over Z, Z_(p) or
    Q, and over Q the torsion list is always empty.
    """
    if exponent_bound is None:
        rel_deg = max((abs(d or 0) for d in ring.relation_degrees),
                      default=0)
        exponent_bound = max(1, abs(degree) + rel_deg)
    carrier, rows, truncated = degree_lattice(
        ring, degree, [(None, 0)],
        [(d, {None: rel})
         for rel, d in zip(ring.relations, ring.relation_degrees)],
        exponent_bound)
    lattice = snf.Lattice(snf.integer_rows(rows), len(carrier), ring.scalars)
    pivots = set(lattice.pivots)
    free = len(carrier) - len(pivots)
    basis = [m for i, (_, m) in enumerate(carrier) if i not in pivots]
    note = "exponent bound was active; invariants may be incomplete" \
        if truncated else ""
    return GradedComponentReport(degree, free, lattice.torsion(), basis,
                                 truncated, note)


# -- expression parser ------------------------------------------------------------

_OPS = set("+-*^()")

# The parser refuses a power whose last squaring would multiply more
# term pairs than this, and parentheses nested deeper than MAX_NESTING,
# well inside the interpreter's recursion limit (fixed bounds, not options).
MAX_POWER_PAIRS = 10 ** 6
MAX_NESTING = 100


def _power_too_large(terms, k):
    """Whether a `terms`-term base to the k-th power is refused.

    Powering squares base^ceil(k/2), which has at most C(ceil(k/2) + t -
    1, t - 1) terms for t = `terms`, the monomials of that degree in t
    letters; that count, squared, is compared with MAX_POWER_PAIRS.  It
    is built as C(m + i, i) for i = 1..min(t - 1, ceil(k/2)), m fixed,
    which never falls, so the loop stops at the first value past the
    bound however large k is.
    """
    half = (k + 1) // 2
    r = min(terms - 1, half)
    m = half + terms - 1 - r
    c = 1
    for i in range(1, r + 1):
        c = c * (m + i) // i
        if c * c > MAX_POWER_PAIRS:
            return True
    return False


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "/":
            raise ExpressionSyntaxError(
                "division is not allowed in relation expressions", i, text)
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # a digit int() refuses, such as "²", or
                # more digits than the interpreter converts
                raise ExpressionSyntaxError(
                    "unreadable integer literal", i, text) from None
            tokens.append(("int", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i, text)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens of one expression.

    The grammar lives in methods, not nested functions, so a parse
    leaves no reference cycle between sibling closures."""

    def __init__(self, text, ring):
        self.text, self.ring = text, ring
        self.tokens, self.pos, self.depth = _tokenize(text), 0, 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExpressionSyntaxError(
                f"expected {kind!r}, found {tok[1]!r}", tok[2], self.text)
        return tok

    def parse_sum(self):
        value = self.parse_product()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_product(self):
        value = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.parse_factor()
        return value

    def parse_factor(self):
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -sign
        value = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            if tok[1] <= 0:
                raise ExpressionSyntaxError(
                    "exponents must be positive integers", tok[2], self.text)
            if _power_too_large(len(value.terms), tok[1]):
                raise ExpressionSyntaxError(
                    f"a {len(value.terms)}-term base to the power "
                    f"{tok[1]} would multiply more than {MAX_POWER_PAIRS} "
                    "term pairs", tok[2], self.text)
            value = value ** tok[1]
        return value if sign == 1 else -value

    def parse_atom(self):
        tok = self.advance()
        if tok[0] == "int":
            return self.ring.const(tok[1])
        if tok[0] == "name":
            if tok[1] not in self.ring.index:
                raise UnknownIdentifier(
                    f"unknown identifier {tok[1]!r}", tok[2], self.text)
            return self.ring.gen(tok[1])
        if tok[0] == "(":
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(
                    f"parentheses nest deeper than {MAX_NESTING}", tok[2],
                    self.text)
            self.depth += 1
            inner = self.parse_sum()
            self.depth -= 1
            closing = self.advance()
            if closing[0] != ")":
                raise ExpressionSyntaxError(
                    "expected ')'", closing[2], self.text)
            return inner
        raise ExpressionSyntaxError(
            f"expected a term, found {tok[1]!r}", tok[2], self.text)


def parse_expression(text, ring):
    """Parse `text` into a Polynomial over `ring`.

    Grammar: integer literals, generator names, +, -, *, ^ with positive
    integer exponents, and parentheses.  Division, unknown identifiers,
    a power past `MAX_POWER_PAIRS` and parentheses nested past
    `MAX_NESTING` are rejected with the offending column.
    """
    parser = _Parser(text, ring)
    value = parser.parse_sum()
    tail = parser.advance()
    if tail[0] != "end":
        raise ExpressionSyntaxError(
            f"unexpected trailing input {tail[1]!r}", tail[2], text)
    return value


# the default of a JSON field (json_fields) or a cli option that must be given
REQUIRED = "required"

# The kinds a field of a JSON document may have (json_fields), by name
_KINDS = {int: "an integer", bool: "true or false", str: "a string",
          int | str: "an integer or an expression string",
          list[dict]: "a list of objects", list[str]: "a list of strings"}


def _admits(kind, value):
    if get_origin(kind) is list:
        return type(value) is list and all(_admits(get_args(kind)[0], v)
                                           for v in value)
    return kind is object or type(value) in (get_args(kind) or (kind,))


def json_fields(doc, what, /, **schema):
    """The values of the fields of the JSON object `doc`, in `schema` order.

    `schema` maps each field to (kind, default).  A kind is int (never a
    bool), bool, str, int | str, list[dict], list[str], or object for a
    value its own reader checks; the default REQUIRED marks a field that
    must be given.  A document that is not an object, an unknown or a
    missing field, and a value of the wrong kind are refused, naming
    `what` and the field (for a wrong kind, every field of that kind).
    """
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise InputError(f"unknown {what} fields {unknown}")
    values = []
    for name, (kind, default) in schema.items():
        value = doc.get(name, default)
        if value is REQUIRED:
            raise InputError(f"{what} field {name!r} is missing")
        if not _admits(kind, value):
            same = " and ".join(repr(k) for k, (other, _) in schema.items()
                                if other == kind)
            raise InputError(f"{what} takes {_KINDS[kind]} in {same}")
        values.append(value)
    return values


def load_presentation(doc):
    """Build a Ring from its JSON-style dict presentation.

    Schema: {"base": "Z"|"Q",
             "generators": [{"name": str, "adams_degree": int,
                             "invertible": bool?}, ...]?,
             "relations": [expression string, ...]?}
    """
    base, generators, relations = json_fields(
        doc, "presentation", base=(str, REQUIRED),
        generators=(list[dict], []), relations=(list[str], []))
    ring = Ring(base, [GenSpec(*json_fields(
        g, "generator", name=(str, REQUIRED), adams_degree=(int, REQUIRED),
        invertible=(bool, False))) for g in generators])
    for rel in relations:
        ring.impose(parse_expression(rel, ring))
    return ring


def polynomial_ring(base, specs):
    """Convenience: a free polynomial ring, specs = [(name, degree), ...]."""
    return Ring(base, [GenSpec(n, d) for n, d in specs])


def laurent_ring(base, name, degree=1):
    """The ring base[g, g^-1] on one invertible degree-`degree` generator."""
    return Ring(base, [GenSpec(name, degree, invertible=True)])
