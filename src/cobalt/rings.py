"""Sparse polynomials over Z or Q and finitely presented graded rings.

A Ring is a presentation: a base (Z or Q), a list of generators with
integer Adams degrees, and a list of homogeneous relation polynomials.
Generators marked invertible get an explicit paired inverse generator
(negated degree) and the relation g * g_inv = 1 is enforced eagerly in
the monomial normal form, so all rewriting stays polynomial.

Monomials are dense exponent tuples indexed by generator position;
polynomials are dicts from exponent tuple to coefficient.  Everything is
immutable in spirit: operations build new values, and a ring is frozen
once its relations are imposed.

Coefficients have one canonical form over either base: an `int` when
the value is integral and a `Fraction` only when it is not, so integral
arithmetic over Q runs on plain ints.  No zero coefficient is ever
stored.

>>> Q = polynomial_ring("Q", [])
>>> Q.const(Fraction(4, 2)).terms
{(): 2}
>>> Q.const(Fraction(1, 2)).terms
{(): Fraction(1, 2)}

Graded pieces are analyzed degreewise without Groebner bases.
`degree_lattice` is the one presentation of an Adams degree: monomials
under an exponent bound, and a row for each monomial multiple of given
elements that lands there.  Components, Landweber quotients and the
Hopf collapse check all call it.  For a component one fraction-free
echelon yields the rank and a monomial basis, and over Z the Smith form
adds the torsion; a `truncated` flag marks a cut the bound may have
made, and when it is off the invariants are exact.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .errors import (
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


class Ring:
    """A finitely presented commutative ring, graded by Adams degree."""

    def __init__(self, base, gens, localized_at=None):
        if base not in ("Z", "Q"):
            raise InputError(f"base must be 'Z' or 'Q', got {base!r}")
        self.base = base
        self.gens = []
        self.inverse_partner = {}
        self.localized_at = localized_at
        seen = set()
        for spec in gens:
            if not isinstance(spec, GenSpec):
                spec = GenSpec(*spec)
            if spec.name in seen:
                raise InputError(f"duplicate generator name {spec.name!r}")
            seen.add(spec.name)
            self.gens.append(spec)
        expanded = []
        for spec in list(self.gens):
            if spec.invertible:
                inv_name = spec.name + "_inv"
                if inv_name in seen:
                    raise InputError(
                        f"generator name {inv_name!r} collides with the "
                        f"implicit inverse of {spec.name!r}")
                seen.add(inv_name)
                expanded.append(GenSpec(inv_name, -spec.adams_degree))
        base_count = len(self.gens)
        self.gens.extend(expanded)
        inv_index = base_count
        for i, spec in enumerate(self.gens[:base_count]):
            if spec.invertible:
                self.inverse_partner[i] = inv_index
                self.inverse_partner[inv_index] = i
                inv_index += 1
        self.index = {g.name: i for i, g in enumerate(self.gens)}
        self.relations = []

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
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        return Polynomial(self, {(0,) * len(self.gens): c})

    def gen(self, name):
        if isinstance(name, int):
            i = name
        else:
            if name not in self.index:
                raise InputError(f"no generator named {name!r}")
            i = self.index[name]
        exps = [0] * len(self.gens)
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def impose(self, *relations):
        """Add relations (polynomials or expression strings); homogeneous only."""
        for rel in relations:
            if isinstance(rel, str):
                rel = parse_expression(rel, self)
            if rel.ring is not self:
                raise InputError("relation belongs to a different ring")
            deg = None
            for exps, _ in rel.terms.items():
                d = self.monomial_degree(exps)
                if deg is None:
                    deg = d
                elif d != deg:
                    raise InhomogeneousRelation(
                        f"relation {rel} mixes degrees {deg} and {d}",
                        term=self._monomial_str(exps))
            self.relations.append(rel)
        return self

    # -- monomials ----------------------------------------------------------

    def monomial_degree(self, exps):
        return sum(e * g.adams_degree for e, g in zip(exps, self.gens))

    def normalize_monomial(self, exps):
        """Cancel g * g_inv pairs; returns a tuple in normal form."""
        if not self.inverse_partner:
            return tuple(exps)
        out = list(exps)
        for i, j in self.inverse_partner.items():
            if i < j and out[i] > 0 and out[j] > 0:
                m = min(out[i], out[j])
                out[i] -= m
                out[j] -= m
        return tuple(out)

    def add_product(self, out, a, b):
        """Add the product of the term dicts `a` and `b` into `out`.

        The one multiplication kernel: `out` maps exponent tuples to
        coefficients and may hold zeros, which `Polynomial._raw` drops
        when the caller builds its result.
        """
        normalize = self.normalize_monomial if self.inverse_partner else None
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                exps = tuple(map(add, ea, eb))
                if normalize:
                    exps = normalize(exps)
                out[exps] = get(exps, 0) + ca * cb

    def monomials_of_degree(self, degree, bound):
        """Normal-form monomials of one Adams degree, exponents <= bound.

        Returns (monomials, bound_active), the monomials sorted in
        descending exponent order.  bound_active is True when some
        exponent larger than the bound could have contributed, so the
        listing may be incomplete.  Each invertible pair is enumerated as
        one signed exponent in -bound..bound, so only normal forms appear
        and the incompleteness flag accounts for the cancellation.

        The depth-first walk over the slots never enters a dead branch.
        Every slot's degrees lie in a range fixed by the bound, so the
        remainder after slot t must lie in [lo[t+1], hi[t+1]]; the walk
        loops only over the exponents e whose remainder target - e*d
        lands there, computed by floor division.  A zero remainder ends
        the walk when every remaining slot is a generator of positive
        degree, because all zeros is then its only completion.  The flag
        is set where a larger exponent reaches a feasible remainder, or
        where an exponent within the bound misses the remainder's range
        on a side that the remaining slots could reach without the bound;
        the skipped exponents are judged together in O(1), at the ends of
        their range.  The bound must be >= 0.
        """
        if bound < 0:
            raise InputError(f"exponent bound must be >= 0, got {bound}")
        n = len(self.gens)
        degs = [g.adams_degree for g in self.gens]
        # slots: a plain generator, or an invertible pair as one signed
        # exponent in -bound..bound
        slots = []
        for i in range(n):
            j = self.inverse_partner.get(i)
            if j is None:
                slots.append((i, None, degs[i], 0))
            elif j > i:
                slots.append((i, j, degs[i], -bound))
        k = len(slots)
        lo = [0] * (k + 1)
        hi = [0] * (k + 1)
        slot_lo = [0] * k
        slot_hi = [0] * k
        has_pos = [False] * (k + 1)
        has_neg = [False] * (k + 1)
        # zero_tail[t]: slots t.. are plain generators of positive degree
        zero_tail = [True] * (k + 1)
        for t in range(k - 1, -1, -1):
            i, j, d, e_min = slots[t]
            if j is None:
                slot_lo[t], slot_hi[t] = min(0, bound * d), max(0, bound * d)
                has_pos[t] = has_pos[t + 1] or d > 0
                has_neg[t] = has_neg[t + 1] or d < 0
            else:
                slot_lo[t], slot_hi[t] = -bound * abs(d), bound * abs(d)
                has_pos[t] = has_pos[t + 1] or d != 0
                has_neg[t] = has_neg[t + 1] or d != 0
            lo[t] = lo[t + 1] + slot_lo[t]
            hi[t] = hi[t + 1] + slot_hi[t]
            zero_tail[t] = zero_tail[t + 1] and j is None and d > 0
        if degree < lo[0] or degree > hi[0]:
            return [], ((degree > hi[0] and has_pos[0])
                        or (degree < lo[0] and has_neg[0]))
        found = []
        active = False
        exps = [0] * n

        def rec(t, target):
            # invariant: lo[t] <= target <= hi[t]
            nonlocal active
            if target == 0 and zero_tail[t]:
                found.append(tuple(exps))
                return
            i, j, d, e_min = slots[t]
            lo1, hi1 = lo[t + 1], hi[t + 1]
            # exponents whose remainder target - e*d lies in [lo1, hi1],
            # before clipping to [e_min, bound]
            if d > 0:
                e_lo, e_hi = -((hi1 - target) // d), (target - lo1) // d
            elif d < 0:
                e_lo, e_hi = -((lo1 - target) // d), (target - hi1) // d
            else:
                # degree 0: every exponent, past the bound too, keeps it
                e_lo, e_hi = e_min - 1, bound + 1
            if not active:
                # a feasible exponent past the bound, or a skipped one
                # whose remainder the remaining slots reach unbounded
                active = (e_hi > bound or (j is not None and e_lo < e_min)
                          or (has_pos[t + 1] and target - slot_lo[t] > hi1)
                          or (has_neg[t + 1] and target - slot_hi[t] < lo1))
            for e in range(min(e_hi, bound), max(e_lo, e_min) - 1, -1):
                if e >= 0:
                    exps[i] = e
                else:
                    exps[i], exps[j] = 0, -e
                rec(t + 1, target - e * d)
            exps[i] = 0
            if j is not None:
                exps[j] = 0

        rec(0, degree)
        found.sort(reverse=True)
        return found, active

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
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        clean = {}
        for exps, c in terms.items():
            c = ring.coerce(c)
            if c:
                exps = tuple(exps)
                if len(exps) != len(ring.gens):
                    raise InputError("monomial width does not match ring")
                clean[exps] = c
        self.terms = clean

    @classmethod
    def _raw(cls, ring, terms):
        """A result of arithmetic inside `ring`, trusted to fit it.

        Skips the width check and `coerce`; drops zero coefficients and
        turns integral Fractions into ints.
        """
        poly = object.__new__(cls)
        poly.ring = ring
        poly.terms = clean = {}
        for exps, c in terms.items():
            if c:
                if type(c) is Fraction and c.denominator == 1:
                    c = c.numerator
                clean[exps] = c
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
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return Polynomial._raw(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.ring,
                               {e: -c for e, c in self.terms.items()})

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
                self.ring, {e: c * c0 for e, c in self.terms.items()})
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        self.ring.add_product(out, self.terms, other.terms)
        return Polynomial._raw(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InputError("exponents must be nonnegative integers")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    # -- structure ------------------------------------------------------------

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def constant_term(self):
        return self.terms.get((0,) * len(self.ring.gens), 0)

    def adams_degree(self):
        """Degree when homogeneous; None for 0; raises when mixed."""
        deg = None
        for exps in self.terms:
            d = self.ring.monomial_degree(exps)
            if deg is None:
                deg = d
            elif d != deg:
                raise InputError(f"{self} is not homogeneous")
        return deg

    def is_homogeneous(self):
        try:
            self.adams_degree()
            return True
        except InputError:
            return False

    def homogeneous_part(self, degree):
        return Polynomial(self.ring, {
            e: c for e, c in self.terms.items()
            if self.ring.monomial_degree(e) == degree})

    def map_to(self, target, images):
        """Apply the ring map sending generator names per `images`.

        images: dict name -> Polynomial over the target ring.  Every
        generator with a nonzero exponent somewhere in this polynomial
        must be covered.  Coefficients move along Z -> Z, Z -> Q, Q -> Q,
        or Q -> Z when no denominators are present.
        """
        powers = {}     # (generator index, exponent) -> image power
        out = {}
        for exps, c in self.terms.items():
            term = target.const(c)
            for i, e in enumerate(exps):
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        name = self.ring.gens[i].name
                        if name not in images:
                            raise InputError(
                                f"no image given for generator {name!r}")
                        power = powers[i, e] = images[name] ** e
                    term = term * power
            for m, v in term.terms.items():
                out[m] = out.get(m, 0) + v
        return Polynomial._raw(target, out)

    def sorted_terms(self):
        """Terms in descending graded-lex order (degree, then exponents)."""
        return sorted(
            self.terms.items(),
            key=lambda item: (self.ring.monomial_degree(item[0]), item[0]),
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


# -- graded components ----------------------------------------------------------


@dataclass
class GradedComponentReport:
    degree: int
    free_rank: int
    torsion: list
    basis: list = field(default_factory=list)   # exponent tuples, rational span
    truncated: bool = False
    note: str = ""


def degree_lattice(ring, degree, generators, elements, bound, cache=None):
    """(carrier, rows, truncated) presenting one degree of a graded module.

    The module is free on `generators`, (name, degree) pairs, modulo the
    homogeneous `elements`, (degree, {name: Polynomial}) pairs; one of
    degree None is zero.  The carrier holds the (name, monomial)
    coordinates, generator by generator, monomials descending, or with
    generators None every coordinate a row reaches, sorted.  Each row is
    one monomial multiple of an element.  A product term outside the
    carrier is appended to it; that, or an enumeration the bound may
    have cut short, sets `truncated`.  A `cache` dict kept across calls
    under one bound enumerates each degree offset once.
    """
    cache = {} if cache is None else cache

    def monomials(d):
        if d not in cache:
            cache[d] = ring.monomials_of_degree(d, bound)
        return cache[d]

    truncated = False
    carrier = []
    for name, gdeg in generators or ():
        monos, flag = monomials(degree - gdeg)
        truncated = truncated or flag
        carrier.extend((name, m) for m in monos)
    sparse = []     # rows stay dicts until the carrier stops growing
    for edeg, element in elements:
        if edeg is None:
            continue
        monos, flag = monomials(degree - edeg)
        truncated = truncated or flag
        for m in monos:
            row = {}
            for name, poly in element.items():
                for exps, c in (ring.poly({m: 1}) * poly).terms.items():
                    row[name, exps] = row.get((name, exps), 0) + c
            sparse.append(row)
    if generators is None:
        carrier = sorted({key for row in sparse for key in row})
    position = {key: i for i, key in enumerate(carrier)}
    for row in sparse:
        for key in row:
            if key not in position:
                position[key] = len(carrier)
                carrier.append(key)
                truncated = True
    rows = [[0] * len(carrier) for _ in sparse]
    for dense, row in zip(rows, sparse):
        for key, c in row.items():
            dense[position[key]] = c
    return carrier, rows, truncated


def graded_component(ring, degree, exponent_bound=None):
    """Rank, torsion and a monomial basis of one Adams-degree component.

    The exponent bound keeps the enumeration finite; when no monomial or
    relation multiple is cut off by it the invariants are exact and
    `truncated` stays False.  Over a base of Q the torsion list is
    always empty and ranks are dimensions.
    """
    if exponent_bound is None:
        rel_deg = max((abs(r.adams_degree() or 0) for r in ring.relations),
                      default=0)
        exponent_bound = max(1, abs(degree) + rel_deg)
    carrier, rows, truncated = degree_lattice(
        ring, degree, [(None, 0)],
        [(rel.adams_degree(), {None: rel}) for rel in ring.relations],
        exponent_bound)
    pivots = set(snf.pivot_columns(rows))
    free = len(carrier) - len(pivots)
    torsion = []
    if ring.base != "Q" and rows:
        torsion = [d for d in snf.smith_normal_form(rows).divisors if d > 1]
    basis = [m for i, (_, m) in enumerate(carrier) if i not in pivots]
    note = "exponent bound was active; invariants may be incomplete" \
        if truncated else ""
    return GradedComponentReport(degree, free, torsion, basis, truncated, note)


# -- expression parser ------------------------------------------------------------

_OPS = set("+-*^()")


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
            tokens.append(("int", int(text[i:j]), i))
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


def parse_expression(text, ring):
    """Parse `text` into a Polynomial over `ring`.

    Grammar: integer literals, generator names, +, -, *, ^ with positive
    integer exponents, and parentheses.  Division and unknown
    identifiers are rejected with the offending column.
    """
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def advance():
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok

    def expect(kind):
        tok = advance()
        if tok[0] != kind:
            raise ExpressionSyntaxError(
                f"expected {kind!r}, found {tok[1]!r}", tok[2], text)
        return tok

    def parse_sum():
        value = parse_product()
        while peek()[0] in ("+", "-"):
            op = advance()[0]
            rhs = parse_product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_product():
        value = parse_factor()
        while peek()[0] == "*":
            advance()
            value = value * parse_factor()
        return value

    def parse_factor():
        sign = 1
        while peek()[0] in ("+", "-"):
            if advance()[0] == "-":
                sign = -sign
        value = parse_atom()
        if peek()[0] == "^":
            advance()
            tok = expect("int")
            if tok[1] <= 0:
                raise ExpressionSyntaxError(
                    "exponents must be positive integers", tok[2], text)
            value = value ** tok[1]
        return value if sign == 1 else -value

    def parse_atom():
        tok = advance()
        if tok[0] == "int":
            return ring.const(tok[1])
        if tok[0] == "name":
            if tok[1] not in ring.index:
                raise UnknownIdentifier(
                    f"unknown identifier {tok[1]!r}", tok[2], text)
            return ring.gen(tok[1])
        if tok[0] == "(":
            inner = parse_sum()
            closing = advance()
            if closing[0] != ")":
                raise ExpressionSyntaxError(
                    "expected ')'", closing[2], text)
            return inner
        raise ExpressionSyntaxError(
            f"expected a term, found {tok[1]!r}", tok[2], text)

    value = parse_sum()
    tail = advance()
    if tail[0] != "end":
        raise ExpressionSyntaxError(
            f"unexpected trailing input {tail[1]!r}", tail[2], text)
    return value


def object_list(entries, what):
    """entries if it is a JSON list of objects; else refuse, naming what."""
    if not isinstance(entries, list) \
            or not all(isinstance(e, dict) for e in entries):
        raise InputError(f"{what} must be a list of objects")
    return entries


def generator_entries(entries, fields):
    """Check a JSON generator list and return it.

    It must be a list of objects, each with a 'name' and an integer
    'adams_degree' and no key outside `fields`.
    """
    for g in object_list(entries, "'generators'"):
        extra = set(g) - fields
        if extra:
            raise InputError(f"unknown generator fields {sorted(extra)}")
        if "name" not in g or "adams_degree" not in g:
            raise InputError("generator needs 'name' and 'adams_degree'")
        degree = g["adams_degree"]
        if isinstance(degree, bool) or not isinstance(degree, int):
            raise InputError("adams_degree must be an integer")
    return entries


def load_presentation(doc):
    """Build a Ring from its JSON-style dict presentation.

    Schema: {"base": "Z"|"Q",
             "generators": [{"name": str, "adams_degree": int,
                             "invertible": bool?}, ...],
             "relations": [expression string, ...]}
    """
    if not isinstance(doc, dict):
        raise InputError("presentation must be a JSON object")
    for key in doc:
        if key not in ("base", "generators", "relations"):
            raise InputError(f"unknown presentation field {key!r}")
    base = doc.get("base")
    gens = []
    for g in generator_entries(doc.get("generators", []),
                               {"name", "adams_degree", "invertible"}):
        invertible = g.get("invertible", False)
        if not isinstance(invertible, bool):
            raise InputError("generator field 'invertible' must be true "
                             "or false")
        gens.append(GenSpec(str(g["name"]), g["adams_degree"], invertible))
    relations = doc.get("relations", [])
    if not isinstance(relations, list):
        raise InputError("presentation field 'relations' must be a list")
    ring = Ring(base, gens)
    for rel in relations:
        ring.impose(parse_expression(str(rel), ring))
    return ring


def polynomial_ring(base, specs):
    """Convenience: a free polynomial ring, specs = [(name, degree), ...]."""
    return Ring(base, [GenSpec(n, d) for n, d in specs])


def laurent_ring(base, name, degree=1):
    """The ring base[g, g^-1] on one invertible degree-`degree` generator."""
    return Ring(base, [GenSpec(name, degree, invertible=True)])
