"""Truncated power series in n variables with polynomial coefficients.

A TruncSeries holds the coefficients of total degree 0..N over a Ring,
keyed by exponent tuples of length `nvars`; everything past total
degree N is discarded.  In one variable (the default) a bare int k
also stands for (k,).  Each variable is treated as an Adams degree -1
class, so a series f with coeff(x^k) homogeneous of degree |k| - 1 is
a well-graded transformation of such classes (logarithms, orientation
changes and formal group laws all fit this pattern).

`subst` evaluates a series at one series per variable, each vanishing
at 0; `compose` is its one-variable case.  Inversion needs a unit
constant term and reversion a zero constant term plus a unit linear
term; these, `derivative`, `integrate` and printing take one variable.
Violations raise the dedicated errors rather than producing garbage.

Products, substitution, inversion and reversion build each coefficient
with one `Ring.dot` over a list of pairs completed first, so a product
that widens the ring needs no restart, and no monomial key is seen
here.  Reversion is one pass over the degrees that keeps the
coefficients of the powers of the inverse, not a composition per
degree.

F(x, y) = x + y - xy evaluated at x + x^2 and 2x:

>>> from cobalt.rings import polynomial_ring
>>> ring = polynomial_ring("Z", [])
>>> F = TruncSeries(ring, 3, {(1, 0): 1, (0, 1): 1, (1, 1): -1}, nvars=2)
>>> print(F.subst([TruncSeries(ring, 3, {1: 1, 2: 1}),
...                TruncSeries(ring, 3, {1: 2})]))
3*x + -x^2 + -2*x^3 + O(x^4)
"""

from fractions import Fraction
from operator import add

from .errors import (
    BadLeadingCoefficient,
    InputError,
    NonUnitConstantTerm,
    NonzeroConstantInner,
    NotQAlgebra,
)
from .rings import Polynomial


class TruncSeries:
    __slots__ = ("ring", "order", "nvars", "coeffs")

    def __init__(self, ring, order, coeffs=None, nvars=1):
        if order < 0:
            raise InputError("truncation order must be >= 0")
        if not isinstance(nvars, int) or nvars < 1:
            raise InputError("a series needs at least one variable")
        self.ring = ring
        self.order = order
        self.nvars = nvars
        clean = {}
        for k, c in (coeffs or {}).items():
            k = self._exponents(k)
            if sum(k) > order:
                continue
            if not isinstance(c, Polynomial):
                c = ring.const(c)
            elif c.ring is not ring:
                raise InputError("coefficient from a different ring")
            if not c.is_zero():
                clean[k] = c
        self.coeffs = clean

    @classmethod
    def _raw(cls, ring, order, coeffs, nvars):
        """A result of arithmetic, trusted to fit `ring` and `order`.

        The keys must be exponent tuples of length `nvars` and total
        degree at most `order`, the values Polynomials over `ring`.
        Skips validation and coercion; drops zero coefficients.
        """
        series = object.__new__(cls)
        series.ring = ring
        series.order = order
        series.nvars = nvars
        series.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}
        return series

    def _exponents(self, k):
        if isinstance(k, int) and self.nvars == 1:
            k = (k,)
        if not (isinstance(k, tuple) and len(k) == self.nvars
                and all(isinstance(e, int) and e >= 0 for e in k)):
            raise InputError("series exponents must be nonnegative ints")
        return k

    @classmethod
    def variable(cls, ring, order, nvars=1, which=0):
        exps = [0] * nvars
        exps[which] = 1
        return cls(ring, order, {tuple(exps): ring.one()}, nvars)

    def coeff(self, k):
        return self.coeffs.get(self._exponents(k), self.ring.zero())

    def truncate(self, order):
        return TruncSeries(self.ring, min(order, self.order), self.coeffs,
                           self.nvars)

    def _require_univariate(self, what):
        if self.nvars != 1:
            raise InputError(f"{what} needs a series in one variable")

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, TruncSeries):
            if other.ring is not self.ring or other.nvars != self.nvars:
                raise InputError("mixed-ring series arithmetic")
            return other
        if isinstance(other, (int, Fraction, Polynomial)):
            return TruncSeries(self.ring, self.order,
                               {(0,) * self.nvars: other}, self.nvars)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        out = {k: c for k, c in self.coeffs.items() if sum(k) <= order}
        for k, c in other.coeffs.items():
            if sum(k) <= order:
                out[k] = out[k] + c if k in out else c
        return TruncSeries._raw(self.ring, order, out, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._raw(self.ring, self.order,
                                {k: -c for k, c in self.coeffs.items()},
                                self.nvars)

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return TruncSeries._raw(
                self.ring, self.order,
                {k: c * other for k, c in self.coeffs.items()}, self.nvars)
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        right = [(j, sum(j), b) for j, b in other.coeffs.items()]
        pairs = {}      # output exponents -> the coefficient pairs there
        for i, a in self.coeffs.items():
            room = order - sum(i)
            for j, degree, b in right:
                if degree <= room:
                    pairs.setdefault(tuple(map(add, i, j)), []).append((a, b))
        return TruncSeries._raw(
            self.ring, order, {k: self.ring.dot(p) for k, p in pairs.items()},
            self.nvars)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InputError("series powers must be nonnegative integers")
        result = self._lift(1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.ring is other.ring and self.nvars == other.nvars
                and self.order == other.order and self.coeffs == other.coeffs)

    def is_zero(self):
        return not self.coeffs

    # -- substitution and inverses ------------------------------------------

    def subst(self, args):
        """self(args[0], .., args[nvars - 1]) to the smallest order.

        The arguments share one ring and one number of variables, which
        the result keeps, and have zero constant terms.  A bare variable
        argument shifts series exponents instead of multiplying.
        """
        if len(args) != self.nvars:
            raise InputError("wrong number of substitution arguments")
        nvars = args[0].nvars
        zero = (0,) * nvars
        for g in args:
            if g.ring is not self.ring or g.nvars != nvars:
                raise InputError("mixed-ring composition")
            if zero in g.coeffs:
                raise NonzeroConstantInner(
                    "inner series has nonzero constant term")
        order = min([self.order] + [g.order for g in args])
        one = self.ring.one()
        bare = [_bare_variable(g, one) for g in args]
        powers = [[None, g.truncate(order)] for g in args]
        pairs = {}      # output exponents -> the coefficient pairs there
        for exps, c in self.coeffs.items():
            term = None
            shift = zero
            for cache, g, var, e in zip(powers, args, bare, exps):
                if not e:
                    continue
                if var is not None:
                    shift = tuple(s + e * v for s, v in zip(shift, var))
                    continue
                while len(cache) <= e:
                    cache.append(cache[-1] * g)
                term = cache[e] if term is None else term * cache[e]
            if sum(shift) > order:
                continue
            if term is None:
                pairs.setdefault(shift, []).append((c, one))
                continue
            for k, t in term.coeffs.items():
                k = tuple(map(add, k, shift))
                if sum(k) <= order:
                    pairs.setdefault(k, []).append((t, c))
        return TruncSeries._raw(
            self.ring, order, {k: self.ring.dot(p) for k, p in pairs.items()},
            nvars)

    def compose(self, inner):
        """self(inner(x)); the inner series must have zero constant term."""
        return self.subst([inner])

    def _constant_unit_inverse(self, c, error):
        """1/c for a constant polynomial unit, or raise `error`."""
        val = c.constant_term()
        if val == 0 or c != self.ring.const(val):
            raise error
        if self.ring.base == "Z":
            if val not in (1, -1):
                raise error
            return self.ring.const(val)
        return self.ring.const(Fraction(1) / val)

    def invert(self):
        """Multiplicative inverse; constant term must be a unit constant."""
        self._require_univariate("inversion")
        inv0 = self._constant_unit_inverse(
            self.coeff(0),
            NonUnitConstantTerm("series constant term is not a unit"))
        scale = -inv0.constant_term()
        out = {0: inv0}
        for k in range(1, self.order + 1):
            out[k] = self.ring.dot([(c, out[k - j])
                                    for (j,), c in self.coeffs.items()
                                    if 0 < j <= k]) * scale
        return TruncSeries(self.ring, self.order, out)

    def revert(self):
        """Compositional inverse g with self(g(x)) = x up to the order.

        One pass over the degrees k: [x^k] g^e for 2 <= e <= k is one
        `Ring.dot` over g_j * [x^(k-j)] g^(e-1), which needs g_j only
        for j < k, and [x^k] self(g) = 0 then gives
        g_k = -f_1^-1 * sum_e f_e [x^k] g^e.  Powers past the degree of
        self are never formed.
        """
        self._require_univariate("reversion")
        if not self.coeff(0).is_zero():
            raise BadLeadingCoefficient(
                "reversion needs zero constant term")
        inv1 = self._constant_unit_inverse(
            self.coeff(1),
            BadLeadingCoefficient("linear coefficient is not a unit"))
        scale = -inv1.constant_term()
        dot = self.ring.dot
        f = {k: c for (k,), c in self.coeffs.items() if k >= 2}
        top = max(f, default=1)
        g = {1: inv1}
        powers = [None, g]      # powers[e]: k -> [x^k] g^e, nonzero only
        for k in range(2, self.order + 1):
            low = list(g.items())
            for e in range(2, min(k, top) + 1):
                if e == len(powers):
                    powers.append({})
                below = powers[e - 1]
                entry = dot([(c, below[k - j]) for j, c in low
                             if k - j in below])
                if not entry.is_zero():
                    powers[e][k] = entry
            residue = dot([(c, powers[e][k]) for e, c in f.items()
                           if e <= k and k in powers[e]])
            if not residue.is_zero():
                g[k] = residue * scale
        return TruncSeries(self.ring, self.order, g)

    def derivative(self):
        self._require_univariate("the derivative")
        return TruncSeries(self.ring, max(self.order - 1, 0),
                           {k - 1: c * k for (k,), c in self.coeffs.items()
                            if k >= 1})

    def integrate(self):
        """Termwise antiderivative with zero constant; rational base only."""
        self._require_univariate("integration")
        if self.ring.base != "Q":
            raise NotQAlgebra("integration divides by integers; base must be Q")
        return TruncSeries(self.ring, self.order + 1,
                           {k + 1: c * Fraction(1, k + 1)
                            for (k,), c in self.coeffs.items()})

    def is_strict(self):
        """Zero constant term and linear coefficient exactly 1."""
        return self.coeff(0).is_zero() and self.coeff(1) == self.ring.one()

    def is_homogeneous(self, series_degree=-1):
        """Each coeff(x^k) homogeneous of degree series_degree + |k|.

        With the variables in Adams degree -1 this says the whole series
        transforms as a class of the given degree.
        """
        return all(c == c.homogeneous_part(series_degree + sum(k))
                   for k, c in self.coeffs.items())

    def __str__(self):
        self._require_univariate("printing")
        if not self.coeffs:
            return f"O(x^{self.order + 1})"
        parts = []
        for (k,), c in sorted(self.coeffs.items()):
            cs = str(c)
            if k == 0:
                parts.append(cs)
                continue
            var = "x" if k == 1 else f"x^{k}"
            if cs == "1":
                parts.append(var)
            elif cs == "-1":
                parts.append(f"-{var}")
            elif " " in cs:
                parts.append(f"({cs})*{var}")
            else:
                parts.append(f"{cs}*{var}")
        return " + ".join(parts) + f" + O(x^{self.order + 1})"

    __repr__ = __str__


def _bare_variable(g, one):
    """The exponents of g when it is one variable with coefficient 1."""
    if len(g.coeffs) == 1:
        (k, c), = g.coeffs.items()
        if sum(k) == 1 and c == one:
            return k
    return None

