"""Cohomology of Grassmannians and projective bundles over an abstract
graded coefficient ring.

For any coefficient presentation E the module E(n, d) is free on the
Schur classes with multiplication inherited from the integer structure
constants, so products are computed by tensoring those constants up to
E.  Projective bundle quotients base[x]/(x^{r+1} + sum (-1)^i c_i
x^{r+1-i}) are handled as free base-modules on 1, x, .., x^r with
explicit power reduction, which makes multiplication by x literally the
companion matrix of the defining relation.

The Thom-style class over R(n, d) is x^r + sum (-1)^i x_i x^{r-i}; its
restriction along the generator-preserving map from the one-bigger
Grassmannian is the same expression, and evaluating that bigger class
at x = 0 leaves only the top term (-1)^r x_r.  Both identities are
verified as exact polynomial statements.
"""

from .errors import DegreeMismatch, InputError
from .grassmann import grassmannian
from .rings import Polynomial


def _add(coords, key, c):
    coords[key] = coords[key] + c if key in coords else c


class _FreeModule:
    """A free module over the ring `coeff` on a basis of keys.

    A subclass supplies its basis, its unit key, the check of one key
    (`_key`), the product of two basis keys as {key: integer} (`_times`)
    with `_reduce` bringing the keys of a sum back onto the basis, and
    the printing of one key (`_label`, `_print_order`).
    """

    def __init__(self, coeff):
        self.coeff = coeff

    def _scalar(self, c):
        if not isinstance(c, Polynomial):
            return self.coeff.const(c)
        if c.ring is not self.coeff:
            raise InputError("coefficient from a different ring")
        return c

    def _reduce(self, coords):
        return coords

    def _make(self, coords):
        return FreeElement(self, {k: c for k, c in self._reduce(coords).items()
                                  if not c.is_zero()})

    def element(self, coords):
        """The sum of c * key over a dict key -> coefficient."""
        out = {}
        for key, c in coords.items():
            _add(out, self._key(key), self._scalar(c))
        return self._make(out)

    def zero(self):
        return FreeElement(self, {})

    def include(self, c):
        return self.element({self.unit: c})

    def one(self):
        return self.include(1)


class FreeElement:
    """An element of a free module: nonzero coefficients by basis key."""

    __slots__ = ("module", "coords")

    def __init__(self, module, coords):
        self.module = module
        self.coords = coords

    def _other(self, other):
        if not isinstance(other, FreeElement):
            return self.module.include(other)
        if not self.module._compatible(other.module):
            raise InputError("elements of different modules")
        return other

    def coefficient(self, key):
        c = self.coords.get(key)
        return self.module.coeff.zero() if c is None else c

    @property
    def vec(self):
        """The coefficients of the whole basis, in basis order."""
        return [self.coefficient(k) for k in self.module.basis()]

    def at_zero(self):
        """The coefficient of the unit: for a bundle, the value at x = 0."""
        return self.coefficient(self.module.unit)

    def __add__(self, other):
        out = dict(self.coords)
        for k, c in self._other(other).coords.items():
            _add(out, k, c)
        return self.module._make(out)

    __radd__ = __add__

    def __neg__(self):
        return FreeElement(self.module,
                           {k: -c for k, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-self._other(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        module = self.module
        if not isinstance(other, FreeElement):
            scale = module._scalar(other)
            return module._make({k: c * scale for k, c in self.coords.items()})
        other = self._other(other)
        out = {}
        for a, ca in self.coords.items():
            for b, cb in other.coords.items():
                prod = ca * cb
                for k, n in module._times(a, b).items():
                    _add(out, k, prod if n == 1 else prod * n)
        return module._make(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.module._compatible(other.module) \
            and self.coords == other.coords

    def is_zero(self):
        return not self.coords

    def map_coefficients(self, target, images):
        """Push every coefficient through a generator assignment."""
        return target._make({k: c.map_to(target.coeff, images)
                             for k, c in self.coords.items()})

    def __str__(self):
        chunks = []
        for k in sorted(self.coords, key=self.module._print_order):
            body, label = str(self.coords[k]), self.module._label(k)
            chunks.append(body if label is None else label if body == "1"
                          else f"({body})*{label}")
        return " + ".join(chunks) or "0"

    __repr__ = __str__


class FreeModuleOnSchur(_FreeModule):
    """E-linear combinations of Schur classes for a fixed (n, d)."""

    unit = ()

    def __init__(self, coeff, n, d):
        super().__init__(coeff)
        self.grass = grassmannian(n, d)

    @property
    def rank(self):
        return self.grass.rank

    def basis(self):
        return self.grass.partitions()

    def _compatible(self, other):
        return other is self or (isinstance(other, FreeModuleOnSchur)
                                 and other.coeff is self.coeff
                                 and other.grass is self.grass)

    def _key(self, partition):
        return self.grass.check_partition(partition)

    def _times(self, a, b):
        return self.grass.multiply(a, b)

    @staticmethod
    def _label(lam):
        return "D" + "".join(str(x) for x in lam) if lam else "1"

    @staticmethod
    def _print_order(lam):
        return sum(lam), lam

    def schur_class(self, partition):
        return self.element({partition: 1})

    def __repr__(self):
        return (f"FreeModuleOnSchur(n={self.grass.n}, d={self.grass.d} "
                f"over {self.coeff.base})")


class ProjBundleRing(_FreeModule):
    """base[x] / (x^{r+1} + sum (-1)^i c_i x^{r+1-i}), basis 1..x^r."""

    unit = 0

    def __init__(self, base, chern):
        super().__init__(base)
        self.base = base    # the coefficient ring, named as for a bundle
        self.chern = []
        for i, c in enumerate(chern, start=1):
            c = self._scalar(c)
            degree = c.adams_degree()
            if degree is not None and degree != i:
                raise DegreeMismatch(
                    f"c_{i} must be homogeneous of degree {i}, "
                    f"found degree {degree}")
            self.chern.append(c)
        self.rank = len(chern)

    def basis(self):
        return range(self.rank + 1)

    def _compatible(self, other):
        return other is self or (isinstance(other, ProjBundleRing)
                                 and other.base is self.base
                                 and other.chern == self.chern)

    @staticmethod
    def _key(power):
        if power < 0:
            raise InputError("negative powers are not in the ring")
        return power

    @staticmethod
    def _times(i, j):
        return {i + j: 1}

    def _reduce(self, coords):
        """Fold each power above the rank down, highest first, by
        x^k = sum (-1)^{i+1} c_i x^{k-i}."""
        top = max(coords, default=0)
        while top > self.rank:
            c = coords.pop(top)
            for i, ci in enumerate(self.chern, start=1):
                if not ci.is_zero():
                    _add(coords, top - i, ci * c if i % 2 else -(ci * c))
            top = max(coords, default=0)
        return coords

    @staticmethod
    def _label(power):
        return None if power == 0 else "x" if power == 1 else f"x^{power}"

    @staticmethod
    def _print_order(power):
        return -power

    def x(self):
        return self.element({1: 1})

    def x_matrix(self):
        """Multiplication by x on the basis 1..x^r, columns = images."""
        cols = [self.element({j + 1: 1}).vec for j in self.basis()]
        return [[col[i] for col in cols] for i in self.basis()]

    def is_companion(self):
        """Does the x-matrix have companion shape for the relation?"""
        r, zero, one = self.rank, self.base.zero(), self.base.one()
        signed = [c if k % 2 else -c for k, c in enumerate(self.chern, 1)]
        want = [[one if i == j + 1 else zero for j in range(r)]
                + [signed[r - i] if i else zero] for i in range(r + 1)]
        return self.x_matrix() == want

    def __repr__(self):
        return f"ProjBundleRing(rank {self.rank} over {self.base.base})"


def tautological_bundle(n, d):
    """The projective bundle over R(n, d) with c_i = x_i."""
    G = grassmannian(n, d)
    chern = [G.ring.gen(f"x{i}") for i in range(1, G.r + 1)]
    return ProjBundleRing(G.ring, chern)


def thom_class(n, d):
    """x^r + sum (-1)^i x_i x^{r-i} in the tautological bundle ring."""
    G = grassmannian(n, d)
    bundle = tautological_bundle(n, d)
    coeffs = {G.r: G.ring.one()}
    for i in range(1, G.r + 1):
        c = G.ring.gen(f"x{i}")
        coeffs[G.r - i] = c if i % 2 == 0 else -c
    return bundle, bundle.element(coeffs)


def zero_section_report(n, d):
    """The two Thom class identities for the inclusion R(n+1, d+1) -> R(n, d).

    Both Grassmannians share r = n - d.  Restriction: pushing the
    bigger class through x_i -> x_i gives the smaller class.
    Zero-section: evaluating the bigger class at x = 0 leaves
    (-1)^r x_r on the nose.
    """
    if not 0 <= d < n:
        raise InputError("need 0 <= d < n")
    r = n - d
    big = grassmannian(n + 1, d + 1)
    bundle, th = thom_class(n, d)
    big_bundle, big_th = thom_class(n + 1, d + 1)

    images = {f"x{i}": bundle.base.gen(f"x{i}") for i in range(1, r + 1)}
    restricted = big_th.map_coefficients(bundle, images)
    restriction_ok = restricted == th

    xr = big.ring.gen(f"x{r}")
    expected = xr if r % 2 == 0 else -xr
    zero_ok = big_th.at_zero() == expected

    return {"n": n, "d": d,
            "restriction": restriction_ok,
            "zero_section": zero_ok,
            "ok": restriction_ok and zero_ok}
