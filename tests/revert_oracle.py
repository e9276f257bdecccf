"""Series reversion by one composition per degree, kept as a test oracle.

`TruncSeries.revert` once found g_k by composing the whole series with
the partial inverse g_1 + .. + g_(k-1) and reading the residue at x^k,
O(N^4) polynomial products in all.  `revert_by_composition` is that
route, with its own checks of the constant and linear terms, so the
property tests in `test_series.py` compare the one-pass reversion with
it, errors included.
"""

from fractions import Fraction

from cobalt.errors import BadLeadingCoefficient
from cobalt.series import TruncSeries


def _unit_inverse(ring, c):
    """1/c for a constant unit of `ring`, or raise as reversion does."""
    val = c.constant_term()
    if val == 0 or c != ring.const(val) or (
            ring.base == "Z" and val not in (1, -1)):
        raise BadLeadingCoefficient("linear coefficient is not a unit")
    return ring.const(val if ring.base == "Z" else Fraction(1) / val)


def revert_by_composition(f):
    """The compositional inverse g of a one-variable f, to its order."""
    if not f.coeff(0).is_zero():
        raise BadLeadingCoefficient("reversion needs zero constant term")
    inv1 = _unit_inverse(f.ring, f.coeff(1))
    g = {1: inv1}
    for k in range(2, f.order + 1):
        partial = TruncSeries(f.ring, k, g)
        residue = f.truncate(k).compose(partial).coeff(k)
        if not residue.is_zero():
            g[k] = -(residue * inv1)
    return TruncSeries(f.ring, f.order, g)
