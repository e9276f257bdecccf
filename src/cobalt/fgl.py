"""Formal group laws with exact coefficient arithmetic.

A FormalGroupLaw wraps a TruncSeries in two variables,
F(x, y) = x + y + sum a_ij x^i y^j, with coefficients in a Ring.
Polynomial laws (additive, multiplicative) are exact: every coefficient
beyond their support is genuinely zero, so they can be evaluated to any
order.  Laws built from truncated data carry their order and refuse
questions beyond it.

The grading convention puts a_ij in Adams degree i + j - 1, matching
series variables of degree -1.

The formal sum u +_F v is F.subst([u, v]), and a law is pushed along a
strict coordinate change phi by composing phi and its inverse with the
two-variable coordinates x and y.  Associativity compares
G(x, y, z) = F(F(x, y), z) with F(x, F(y, z)).  For a commutative law
that is G symmetric in y and z, and the check forms only the half of G
at x-exponent >= y-exponent; otherwise both sides are substituted.

A law is built from its logarithm l over a Q base through the
log-power table [x^a] l^i, formed once and contracted with the
coefficients of the inverse series in two `Ring.dot` stages, at
x-exponent >= y-exponent only (`fgl_from_log`).  Logarithms go through
the invariant differential: l'(x) is the reciprocal of dF/dy at (x, 0),
integrated termwise, which needs a Q base.  The p-series is the p-fold
formal sum, built by doubling in O(log p) formal sums; its coefficient
at x^(p^n) is the height-n generator, with v_0 = p, and a generator
whose order p^n is past MAX_P_SERIES_ORDER is refused.
"""

from fractions import Fraction
from math import comb, factorial

from .errors import (
    BoundExceeded,
    InputError,
    MissingBeta,
    NonzeroConstantInner,
    NotQAlgebra,
    TruncationTooSmall,
)
from .rings import Polynomial, polynomial_ring
from .series import TruncSeries


class FormalGroupLaw:
    """F(x, y) over a Ring; `exact` means the series is a polynomial."""

    def __init__(self, ring, series, order, exact=False):
        self.ring = ring
        self.series = series.truncate(order)
        self.order = order
        self.exact = exact
        self._p_series = {}     # p -> the longest [p](x) formed so far

    def coefficient(self, i, j):
        if not self.exact and i + j > self.order:
            raise TruncationTooSmall(
                f"law is only known to total degree {self.order}")
        return self.series.coeff((i, j))

    def _at_order(self, order):
        """The bivariate series at the requested order, or complain."""
        if order <= self.order:
            return self.series.truncate(order)
        if not self.exact:
            raise TruncationTooSmall(
                f"need total degree {order}, law stops at {self.order}")
        return TruncSeries(self.ring, order, self.series.coeffs, nvars=2)

    def formal_sum(self, u, v):
        """u +_F v for univariate TruncSeries with zero constant term."""
        return self._at_order(min(u.order, v.order)).subst([u, v])

    def __repr__(self):
        kind = "exact" if self.exact else f"order {self.order}"
        return f"FormalGroupLaw({kind} over {self.ring.base})"


def _variables(ring, order, nvars):
    """The coordinate series x_0, .., x_{nvars-1} in nvars variables."""
    return [TruncSeries.variable(ring, order, nvars, t) for t in range(nvars)]


def fgl_additive(ring, order=8):
    x, y = _variables(ring, order, 2)
    return FormalGroupLaw(ring, x + y, order, exact=True)


def fgl_multiplicative(ring, order=8, beta=None):
    """x + y - beta * x * y; beta defaults to the generator named beta."""
    if beta is None:
        if "beta" not in ring.index:
            raise MissingBeta("no beta element available for this ring")
        beta = ring.gen("beta")
    elif not isinstance(beta, Polynomial):
        beta = ring.const(beta)
    x, y = _variables(ring, order, 2)
    return FormalGroupLaw(ring, x + y - (x * y) * beta, order, exact=True)


def universal_log_ring(order):
    """Q[m1..m_{order-1}] with deg m_i = i."""
    return polynomial_ring(
        "Q", [(f"m{i}", i) for i in range(1, order)])


def universal_log(ring, order, prefix="m"):
    """x + m1 x^2 + m2 x^3 + ... as far as the ring provides.

    With another prefix the same shape gives a strict coordinate change
    x + b1 x^2 + b2 x^3 + ... on generators b1, b2, ...
    """
    coeffs = {1: ring.one()}
    for i in range(1, order):
        name = f"{prefix}{i}"
        if name in ring.index:
            coeffs[i + 1] = ring.gen(name)
    return TruncSeries(ring, order, coeffs)


def fgl_from_log(log):
    """exp(log x + log y) where exp is the compositional inverse.

    With l = log and e = exp, expanding (l(x) + l(y))^n binomially gives
    [x^a y^b] F = sum_{i,j} C(i+j, i) e_{i+j} [x^a] l^i [y^b] l^j.  The
    log-power table P[i][a] = [x^a] l^i is formed once, and the sum is
    contracted in two `Ring.dot` stages: S[a][j] = sum_i C(i+j, i)
    e_{i+j} P[i][a], then F[a][b] = sum_j S[a][j] P[j][b].  F is
    symmetric, so only a >= b >= 1 is formed and the rest mirrored;
    F(x, 0) = e(l(x)) = x, which gives the linear terms.
    """
    ring = log.ring
    if ring.base != "Q":
        raise NotQAlgebra("building a law from its logarithm needs base Q")
    order = log.order
    exp = log.revert()
    dot = ring.dot
    # b >= 1 and a + b <= order leave a <= order - 1
    top = order - 1
    ell = [(k, c) for (k,), c in log.coeffs.items()]
    powers = [{0: ring.one()}]      # powers[i]: a -> P[i][a], nonzero only
    for i in range(1, top + 1):
        below = powers[-1]
        row = {}
        for a in range(i, top + 1):
            entry = dot([(c, below[a - k]) for k, c in ell if a - k in below])
            if not entry.is_zero():
                row[a] = entry
        powers.append(row)
    scaled = {}     # (i, j) -> C(i+j, i) e_{i+j}, for i, j >= 1
    for (n,), c in exp.coeffs.items():
        for i in range(1, n):
            scaled[i, n - i] = c * comb(n, i)
    # S[a][j] for j <= b <= min(a, order - a); P[i][a] = 0 for i > a
    partial = {}
    for a in range(1, top + 1):
        for j in range(1, min(a, order - a) + 1):
            partial[a, j] = dot([(scaled[i, j], powers[i][a])
                                 for i in range(1, a + 1)
                                 if (i, j) in scaled and a in powers[i]])
    coeffs = {(1, 0): ring.one(), (0, 1): ring.one()}
    for a in range(1, top + 1):
        for b in range(1, min(a, order - a) + 1):
            coeffs[a, b] = coeffs[b, a] = dot([
                (partial[a, j], powers[j][b]) for j in range(1, b + 1)
                if b in powers[j]])
    return FormalGroupLaw(ring, TruncSeries(ring, order, coeffs, nvars=2),
                          order, exact=False)


def fgl_universal_rational(order=8):
    """The rational universal law on Q[m1..m_{order-1}]."""
    ring = universal_log_ring(order)
    return fgl_from_log(universal_log(ring, order))


def fgl_check_axioms(f, order=None, graded=True):
    """Unit, commutativity, associativity, and gradedness to an order.

    For exact (polynomial) laws associativity is a polynomial identity:
    F(F(x, y), z) has degree s^2 for a law of support degree s, so
    checking at order s^2 is conclusive.  When the law is commutative
    associativity is G = F(F(x, y), z) symmetric in y and z
    (`_symmetric_in_y_and_z`); otherwise both sides are substituted.
    Returns a dict of named booleans plus "ok".
    """
    if order is None:
        if f.exact:
            support = max((i + j for (i, j) in f.series.coeffs), default=1)
            order = support * support
        else:
            order = f.order
    series = f._at_order(order)

    unit = True
    for (i, j), c in series.coeffs.items():
        if j == 0 and (i, j) != (1, 0) and not c.is_zero():
            unit = False
        if i == 0 and (i, j) != (0, 1) and not c.is_zero():
            unit = False
    unit = unit and series.coeff((1, 0)) == f.ring.one() \
        and series.coeff((0, 1)) == f.ring.one()

    commutative = all(series.coeff((j, i)) == c
                      for (i, j), c in series.coeffs.items())

    if commutative:
        associative = _symmetric_in_y_and_z(series)
    else:
        x, y, z = _variables(f.ring, order, 3)
        associative = series.subst([series.subst([x, y]), z]) \
            == series.subst([x, series.subst([y, z])])

    result = {"unit": unit, "commutative": commutative,
              "associative": associative}
    if graded:
        good = True
        for (i, j), c in series.coeffs.items():
            want = i + j - 1
            try:
                deg = c.adams_degree()
            except InputError:
                good = False
                break
            if deg is not None and deg != want:
                good = False
                break
        result["graded"] = good
    result["ok"] = all(v for k, v in result.items() if k != "ok")
    return result


def _symmetric_in_y_and_z(series):
    """Is G = F(F(x, y), z) symmetric in y and z, F commutative?

    G is symmetric in x and y, so it is fully symmetric exactly when it
    is symmetric in y and z too, and then F(x, F(y, z)) = G(y, z, x)
    equals G: the law is associative.  G = sum c_ij F(x, y)^i z^j, and
    every power of F is symmetric in x and y, so the powers and the
    coefficients of G are formed only at x-exponent >= y-exponent, each
    one `Ring.dot`, and the rest is read by mirroring.  A power is formed
    only to the degree that some c_ij z^j, or the next power, reads.
    """
    if (0, 0) in series.coeffs:
        raise NonzeroConstantInner("inner series has nonzero constant term")
    ring, order, coeffs = series.ring, series.order, series.coeffs
    dot = ring.dot
    top = max((i for i, _ in coeffs), default=0)
    need = [-1] * (top + 1)     # need[i]: the degree F^i is formed to
    for i, j in coeffs:
        need[i] = max(need[i], order - j)
    for i in range(top - 1, -1, -1):
        need[i] = max(need[i], need[i + 1] - 1)
    powers = [{(0, 0): ring.one()}]     # F^i at x-exponent >= y-exponent
    for i in range(1, top + 1):
        mirrored = dict(powers[-1])
        mirrored.update({(b, a): p for (a, b), p in powers[-1].items()})
        pairs = {}
        for (a, b), p in mirrored.items():
            for (s, t), c in coeffs.items():
                key = (a + s, b + t)
                if key[0] >= key[1] and sum(key) <= need[i]:
                    pairs.setdefault(key, []).append((p, c))
        powers.append({k: q for k, pair in pairs.items()
                       if not (q := dot(pair)).is_zero()})
    pairs = {}
    for (i, j), c in coeffs.items():
        for (a, b), p in powers[i].items():
            if a + b + j <= order:
                pairs.setdefault((a, b, j), []).append((p, c))
    triple = {k: g for k, pair in pairs.items()     # G at a >= b
              if not (g := dot(pair)).is_zero()}

    def at(a, b, c):
        return triple.get((a, b, c) if a >= b else (b, a, c))

    # each stored (a, b, c) stands for itself and (b, a, c)
    return all(at(a, c, b) == g and at(b, c, a) == g
               for (a, b, c), g in triple.items())


def strict_iso_check(phi):
    if not phi.is_strict():
        raise InputError(
            "coordinate changes must start x + (higher order)")


def pushforward(f, phi):
    """The law phi(F(phi^{-1} x, phi^{-1} y)); phi is a strict iso out of F."""
    strict_iso_check(phi)
    order = min(phi.order, f.order) if not f.exact else phi.order
    inv = phi.revert()
    x, y = _variables(f.ring, order, 2)
    inner = f._at_order(order).subst([inv.compose(x), inv.compose(y)])
    return FormalGroupLaw(f.ring, phi.compose(inner), order, exact=False)


def is_pushforward(f, g, phi, order=None):
    """Does phi carry f to g, i.e. phi(F(x, y)) = G(phi x, phi y)?"""
    strict_iso_check(phi)
    if order is None:
        order = min([phi.order]
                    + ([] if f.exact else [f.order])
                    + ([] if g.exact else [g.order]))
    x, y = _variables(f.ring, order, 2)
    left = phi.compose(f._at_order(order))
    right = g._at_order(order).subst([phi.compose(x), phi.compose(y)])
    return left == right


def chern_reparam(ring, order, beta=None):
    """(1 - e^{-beta x}) / beta = sum (-beta)^(k-1) x^k / k!."""
    if ring.base != "Q":
        raise NotQAlgebra("this reparametrization needs base Q")
    if beta is None:
        if "beta" not in ring.index:
            raise MissingBeta("no beta element available for this ring")
        beta = ring.gen("beta")
    elif not isinstance(beta, Polynomial):
        beta = ring.const(beta)
    coeffs = {}
    power = ring.one()
    for k in range(1, order + 1):
        coeffs[k] = power * Fraction((-1) ** (k - 1), factorial(k))
        power = power * beta
    return TruncSeries(ring, order, coeffs)


def fgl_log(f, order=None):
    """Logarithm via the invariant differential; base must be Q.

    l'(x) is the inverse of dF/dy at (x, 0); the constant of
    integration is zero, so l(x) = x + O(x^2).
    """
    if f.ring.base != "Q":
        raise NotQAlgebra("logarithms need base Q")
    if order is None:
        order = f.order
    # dF/dy at (x, 0): the coefficients of x^i y, to order - 1
    fy = TruncSeries(f.ring, order - 1,
                     {i: c for (i, j), c in f._at_order(order).coeffs.items()
                      if j == 1})
    return fy.invert().integrate().truncate(order)


def p_series(f, p, order):
    """The p-fold formal sum [p](x) to the given order.

    Built by doubling, in O(log p) formal sums: [2k] = [k] +_F [k] and
    [2k + 1] = [2k] +_F x.  That regrouping needs F associative, as is
    every law that reaches here: the exact built-in laws, a law built
    from its logarithm, and custom laws, which the command line checks.
    The law keeps the longest [p](x) formed for each p, and a request
    it covers is its truncation, so `--p-series` and `--landweber` at
    one prime form it once.
    """
    if p < 1:
        raise InputError("p must be a positive integer")
    if not f.exact and order > f.order:
        raise TruncationTooSmall(
            f"p-series to degree {order} needs the law to degree {order}")
    known = f._p_series.get(p)
    if known is not None and known.order >= order:
        return known.truncate(order)
    x = TruncSeries.variable(f.ring, order)
    result = x
    for bit in bin(p)[3:]:      # the bits of p after the leading one
        result = f.formal_sum(result, result)
        if bit == "1":
            result = f.formal_sum(result, x)
    f._p_series[p] = result
    return result


# v_n needs [p](x) to order p^n, and a height whose p^count is past this
# order is refused, a fixed bound and not an option: each doubling step
# multiplies dense series of that order, so p = 999983 at height 2 (order
# about 10^12) would never finish.  At the bound the multiplicative law
# at p = 997 takes about 0.5 s; the largest order of the benchmark is
# 343 = 7^3.  The bound is on the order only: a custom law whose
# coefficients have many terms can still take far longer below it.
MAX_P_SERIES_ORDER = 10 ** 3


def landweber_generators(f, p, count):
    """[v_0, .., v_count]: v_0 = p, v_n = coeff of x^(p^n) in [p](x)."""
    if count < 0:
        raise InputError("count must be nonnegative")
    need = 1
    for _ in range(count):      # p^count, refused as soon as it is past
        need *= p
        if need > MAX_P_SERIES_ORDER:
            raise BoundExceeded(
                f"extracting v_{count} at p={p} needs [p](x) to order "
                f"{p}^{count}, past {MAX_P_SERIES_ORDER}")
    if not f.exact and need > f.order:
        raise TruncationTooSmall(
            f"extracting v_{count} at p={p} needs truncation {need}, "
            f"law stops at {f.order}")
    gens = [f.ring.const(p)]
    if count:
        series = p_series(f, p, need)
        for n in range(1, count + 1):
            gens.append(series.coeff(p ** n))
    return gens
