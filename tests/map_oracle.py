"""Reference ring map for cobalt.rings, built on public arithmetic only.

`map_to` is the sum over the terms c*m of a polynomial of c times the
product of images[g]**e over the generators g of m, formed with `**`,
`*` and `+`.  It never groups terms, drops a term early or looks at a
key.  It raises where `Polynomial.map_to` must: term by term, first for
a coefficient the target cannot hold (`target.one() * c`), then factor
by factor in generator order for a missing image or for an image over
another ring (the product refuses mixed rings).
"""

from cobalt.errors import InputError


def map_to(poly, target, images):
    total = target.zero()
    for exps, c in poly.exponent_terms().items():
        term = target.one() * c
        for g, e in zip(poly.ring.gens, exps):
            if e:
                if g.name not in images:
                    raise InputError(
                        f"no image given for generator {g.name!r}")
                term = term * images[g.name] ** e
        total = total + term
    return total
