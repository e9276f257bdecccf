"""The n-variable truncated series that the formal group laws used
before `TruncSeries` took an `nvars` field, kept as a test oracle.

`_MSeries` has its own add, multiply, truncate and substitution, and
multiplies coefficients with its own term loop (`_times`), so it does
not share the multiplication kernel of `cobalt.rings` that it checks;
`_from_univariate`, `_to_univariate` and `_compose_outer` move data
between it and a one-variable series whose `coeffs` are keyed by plain
ints (`ring` and `coeffs` are all they read).  The property tests in
`test_series.py` compare `TruncSeries` products, `subst` and `compose`
with it.
"""

from fractions import Fraction

from cobalt.errors import InputError
from cobalt.rings import Polynomial
from cobalt.series import TruncSeries


def inverse_pairs(ring):
    """(i, j) for each invertible generator g_i and its inverse g_j,
    read from the generator names and flags alone."""
    return [(ring.index[g.name], ring.index[g.name + "_inv"])
            for g in ring.gens if g.invertible]


def normal_form(ring, exps):
    """`exps` with each g * g_inv pair cancelled, as a tuple."""
    exps = list(exps)
    for i, j in inverse_pairs(ring):
        m = min(exps[i], exps[j])
        exps[i] -= m
        exps[j] -= m
    return tuple(exps)


def _times(a, b):
    """The Polynomial a * b by a naive term loop over exponent tuples.

    The tuple kernel `Ring.dot` replaced when monomials were packed
    into ints: it adds exponent tuples and cancels each g * g_inv pair
    itself, so it shares no key arithmetic with `cobalt.rings`.
    """
    ring = a.ring
    out = {}
    for ea, ca in a.exponent_terms().items():
        for eb, cb in b.exponent_terms().items():
            key = normal_form(ring, [x + y for x, y in zip(ea, eb)])
            out[key] = out.get(key, 0) + Fraction(ca) * Fraction(cb)
    return Polynomial(ring, out)


class _MSeries:
    """Truncated multivariate series with Polynomial coefficients."""

    __slots__ = ("ring", "nvars", "order", "coeffs")

    def __init__(self, ring, nvars, order, coeffs=None):
        self.ring = ring
        self.nvars = nvars
        self.order = order
        clean = {}
        for exps, c in (coeffs or {}).items():
            if sum(exps) > order:
                continue
            if not isinstance(c, Polynomial):
                c = ring.const(c)
            if not c.is_zero():
                clean[tuple(exps)] = c
        self.coeffs = clean

    @classmethod
    def variable(cls, ring, nvars, order, which):
        exps = [0] * nvars
        exps[which] = 1
        return cls(ring, nvars, order, {tuple(exps): 1})

    def coeff(self, exps):
        return self.coeffs.get(tuple(exps), self.ring.zero())

    def _binop(self, other, f):
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            out[exps] = f(out.get(exps, self.ring.zero()), c)
        return _MSeries(self.ring, self.nvars,
                        min(self.order, other.order), out)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        return _MSeries(self.ring, self.nvars, self.order,
                        {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if isinstance(other, Polynomial):
            return _MSeries(self.ring, self.nvars, self.order,
                            {e: _times(c, other)
                             for e, c in self.coeffs.items()})
        order = min(self.order, other.order)
        out = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                if sum(exps) > order:
                    continue
                prev = out.get(exps)
                prod = _times(ca, cb)
                out[exps] = prod if prev is None else prev + prod
        return _MSeries(self.ring, self.nvars, order, out)

    __rmul__ = __mul__

    def subst(self, args):
        """Evaluate at args, a list of zero-constant _MSeries."""
        if len(args) != self.nvars:
            raise InputError("wrong number of substitution arguments")
        for g in args:
            if not g.coeff((0,) * g.nvars).is_zero():
                raise InputError("substitution needs zero constant terms")
        nvars = args[0].nvars
        order = min([self.order] + [g.order for g in args])
        one = _MSeries(self.ring, nvars, order, {(0,) * nvars: 1})
        powers = [{0: one} for _ in args]

        def power(t, k):
            cache = powers[t]
            if k not in cache:
                cache[k] = power(t, k - 1) * args[t]
            return cache[k]

        total = _MSeries(self.ring, nvars, order, {})
        for exps, c in sorted(self.coeffs.items()):
            if sum(exps) > order:
                continue
            term = one
            for t, e in enumerate(exps):
                if e:
                    term = term * power(t, e)
            total = total + term * c
        return total

    def __eq__(self, other):
        return (isinstance(other, _MSeries) and self.nvars == other.nvars
                and self.order == other.order and self.coeffs == other.coeffs)

    def truncate(self, order):
        return _MSeries(self.ring, self.nvars, min(order, self.order),
                        self.coeffs)


def _from_univariate(f, nvars, which, order):
    coeffs = {}
    for k, c in f.coeffs.items():
        exps = [0] * nvars
        exps[which] = k
        coeffs[tuple(exps)] = c
    return _MSeries(f.ring, nvars, order, coeffs)


def _to_univariate(g, order):
    coeffs = {}
    for exps, c in g.coeffs.items():
        live = [(t, e) for t, e in enumerate(exps) if e]
        if len(live) > 1:
            raise InputError("series is not univariate")
        coeffs[sum(exps)] = c
    return TruncSeries(g.ring, order, coeffs)


def _compose_outer(phi, inner, order):
    """phi(inner) for univariate phi and multivariate inner."""
    ring = phi.ring
    nvars = inner.nvars
    out = _MSeries(ring, nvars, order, {})
    one = _MSeries(ring, nvars, order, {(0,) * nvars: 1})
    powers = {0: one}
    for k in sorted(phi.coeffs):
        if k == 0:
            continue
        while max(powers) < k:
            powers[max(powers) + 1] = powers[max(powers)] * inner
        out = out + powers[k] * phi.coeffs[k]
    return out
