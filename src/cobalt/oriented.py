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


class FreeModuleOnSchur:
    """E-linear combinations of Schur classes for a fixed (n, d)."""

    def __init__(self, coeff, n, d):
        self.coeff = coeff
        self.grass = grassmannian(n, d)

    @property
    def rank(self):
        return self.grass.rank

    def _compatible(self, other):
        return other is self or (other.coeff is self.coeff
                                 and other.grass is self.grass)

    def element(self, coords):
        clean = {}
        for lam, c in coords.items():
            lam = self.grass.check_partition(lam)
            if not isinstance(c, Polynomial):
                c = self.coeff.const(c)
            elif c.ring is not self.coeff:
                raise InputError("coefficient from a different ring")
            if not c.is_zero():
                clean[lam] = clean.get(lam, self.coeff.zero()) + c
        return SchurElement(self, {k: v for k, v in clean.items()
                                   if not v.is_zero()})

    def schur_class(self, partition):
        return self.element({partition: 1})

    def zero(self):
        return SchurElement(self, {})

    def one(self):
        return self.schur_class(())

    def __repr__(self):
        return (f"FreeModuleOnSchur(n={self.grass.n}, d={self.grass.d} "
                f"over {self.coeff.base})")


class SchurElement:
    __slots__ = ("module", "coords")

    def __init__(self, module, coords):
        self.module = module
        self.coords = coords

    def _check(self, other):
        if isinstance(other, SchurElement):
            if not self.module._compatible(other.module):
                raise InputError("elements of different modules")
            return other
        return self.module.element({(): other})

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.coords)
        for lam, c in other.coords.items():
            out[lam] = out.get(lam, self.module.coeff.zero()) + c
        return SchurElement(self.module,
                            {k: v for k, v in out.items() if not v.is_zero()})

    __radd__ = __add__

    def __neg__(self):
        return SchurElement(self.module,
                            {k: -v for k, v in self.coords.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Polynomial)):
            scale = other if isinstance(other, Polynomial) \
                else self.module.coeff.const(other)
            return SchurElement(self.module, {
                k: v for k, v in
                ((lam, c * scale) for lam, c in self.coords.items())
                if not v.is_zero()})
        other = self._check(other)
        out = {}
        for a, ca in self.coords.items():
            for b, cb in other.coords.items():
                for lam, k in self.module.grass.multiply(a, b).items():
                    prev = out.get(lam, self.module.coeff.zero())
                    out[lam] = prev + ca * cb * k
        return SchurElement(self.module,
                            {k: v for k, v in out.items() if not v.is_zero()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SchurElement):
            return NotImplemented
        return self.module._compatible(other.module) \
            and self.coords == other.coords

    def is_zero(self):
        return not self.coords

    def __str__(self):
        if not self.coords:
            return "0"
        chunks = []
        for lam in sorted(self.coords, key=lambda t: (sum(t), t)):
            c = self.coords[lam]
            label = "D" + "".join(str(x) for x in lam) if lam else "1"
            chunks.append(f"({c})*{label}" if str(c) != "1" else label)
        return " + ".join(chunks)

    __repr__ = __str__


class ProjBundleRing:
    """base[x] / (x^{r+1} + sum (-1)^i c_i x^{r+1-i}), basis 1..x^r."""

    def __init__(self, base, chern):
        self.base = base
        self.chern = []
        for i, c in enumerate(chern, start=1):
            if not isinstance(c, Polynomial):
                c = base.const(c)
            elif c.ring is not base:
                raise InputError("Chern class from a different ring")
            degree = c.adams_degree()
            if degree is not None and degree != i:
                raise DegreeMismatch(
                    f"c_{i} must be homogeneous of degree {i}, "
                    f"found degree {degree}")
            self.chern.append(c)
        self.rank = len(chern)

    def _compatible(self, other):
        return other is self or (other.base is self.base
                                 and other.chern == self.chern)

    def element(self, coeffs):
        """From a dict power -> base element or a list indexed by power."""
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        vec = [self.base.zero() for _ in range(self.rank + 1)]
        for k, c in items:
            if not isinstance(c, Polynomial):
                c = self.base.const(c)
            if k < 0:
                raise InputError("negative powers are not in the ring")
            if k <= self.rank:
                vec[k] = vec[k] + c
            elif not c.is_zero():
                vec = self._absorb(vec, k, c)
        return BundleElement(self, vec)

    def _absorb(self, vec, power, coeff):
        """Fold coeff * x^power (power > rank) into the basis range."""
        tail = {power: coeff}
        while tail:
            k = max(tail)
            c = tail.pop(k)
            if c.is_zero():
                continue
            if k <= self.rank:
                vec[k] = vec[k] + c
                continue
            # x^k = x^{k-r-1} * sum (-1)^{i+1} c_i x^{r+1-i}
            for i, ci in enumerate(self.chern, start=1):
                if ci.is_zero():
                    continue
                term = ci * c if i % 2 else -(ci * c)
                kk = k - i
                tail[kk] = tail.get(kk, self.base.zero()) + term
        return vec

    def x(self):
        return self.element({1: 1})

    def one(self):
        return self.element({0: 1})

    def include(self, c):
        return self.element({0: c})

    def x_matrix(self):
        """Multiplication by x on the basis 1..x^r, columns = images."""
        cols = []
        for j in range(self.rank + 1):
            image = self.element({j + 1: 1})
            cols.append(image.vec)
        return [[cols[j][i] for j in range(self.rank + 1)]
                for i in range(self.rank + 1)]

    def is_companion(self):
        """Does the x-matrix have companion shape for the relation?"""
        m = self.x_matrix()
        r = self.rank
        for i in range(r + 1):
            for j in range(r):
                want = self.base.one() if i == j + 1 else self.base.zero()
                if m[i][j] != want:
                    return False
        for i in range(r + 1):
            k = r + 1 - i
            if k < 1 or k > r:
                want = self.base.zero()
            else:
                ck = self.chern[k - 1]
                want = ck if k % 2 else -ck
            if m[i][r] != want:
                return False
        return True

    def __repr__(self):
        return f"ProjBundleRing(rank {self.rank} over {self.base.base})"


class BundleElement:
    __slots__ = ("ring", "vec")

    def __init__(self, ring, vec):
        self.ring = ring
        self.vec = vec

    def coefficient(self, power):
        return self.vec[power]

    def at_zero(self):
        """Evaluate at x = 0: the constant coefficient."""
        return self.vec[0]

    def _check(self, other):
        if isinstance(other, BundleElement):
            if not self.ring._compatible(other.ring):
                raise InputError("elements of different bundle rings")
            return other
        return self.ring.element({0: other})

    def __add__(self, other):
        other = self._check(other)
        return BundleElement(self.ring, [a + b for a, b in
                                         zip(self.vec, other.vec)])

    __radd__ = __add__

    def __neg__(self):
        return BundleElement(self.ring, [-a for a in self.vec])

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Polynomial)):
            return BundleElement(self.ring,
                                 [a * other for a in self.vec])
        other = self._check(other)
        out = {}
        for i, a in enumerate(self.vec):
            if a.is_zero():
                continue
            for j, b in enumerate(other.vec):
                if b.is_zero():
                    continue
                out[i + j] = out.get(i + j, self.ring.base.zero()) + a * b
        return self.ring.element(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BundleElement):
            return NotImplemented
        return self.ring._compatible(other.ring) and self.vec == other.vec

    def map_coefficients(self, target_bundle, images):
        """Push every coefficient through a generator assignment."""
        return BundleElement(target_bundle, [
            c.map_to(target_bundle.base, images) for c in self.vec])

    def __str__(self):
        parts = []
        for k in range(len(self.vec) - 1, -1, -1):
            c = self.vec[k]
            if c.is_zero():
                continue
            body = str(c)
            if k == 0:
                parts.append(body)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                parts.append(xs if body == "1" else f"({body})*{xs}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


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
