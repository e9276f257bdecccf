"""Reference presentation of one degree of a Landweber quotient.

The `carrier`, `vector` and `lattice` methods that
`landweber._Analyzer` had before `rings.degree_lattice` took over,
moved here as functions of the module, the sequence and the exponent
bound.  Stage n of a module M presents M / (v_0..v_{n-1}) M in one
Adams degree: coordinates are (generator, monomial) pairs, and the rows
are the monomial multiples of the ring relations times each generator,
of the module relations, and of v_0..v_{n-1} times each generator, in
that order.  Any enumeration the exponent bound cut short, or any
product that leaves the coordinates, raises `Truncated`.  `reached`
presents a degree with no fixed coordinates, as the Hopf collapse check
does.  The property test in `test_landweber.py` compares the production
routine, which works on packed keys, with these tuple-built routes.
"""

from cobalt.rings import Polynomial


class Truncated(Exception):
    pass


def carrier(module, degree, bound):
    ring = module.ring
    items = []
    for gname, gdeg in module.generators:
        monos, flagged = ring.monomials_of_degree(degree - gdeg, bound)
        if flagged:
            raise Truncated()
        items.extend((gname, m) for m in monos)
    return items, {gm: i for i, gm in enumerate(items)}


def vector(gname, poly, position, width):
    vec = [0] * width
    for exps, c in poly.exponent_terms().items():
        key = (gname, exps)
        if key not in position:
            raise Truncated()
        vec[position[key]] = c
    return vec


def lattice(module, sequence, degree, stage, bound):
    """(carrier, rows) of the stage-`stage` quotient in one degree."""
    ring = module.ring
    items, position = carrier(module, degree, bound)
    width = len(items)
    vecs = []

    def monomial_multiples(poly, gname, gdeg):
        pd = poly.adams_degree()
        monos, flagged = ring.monomials_of_degree(
            degree - gdeg - pd, bound)
        if flagged:
            raise Truncated()
        for m in monos:
            prod = Polynomial(ring, {m: 1}) * poly
            vecs.append(vector(gname, prod, position, width))

    for rel in ring.relations:
        for gname, gdeg in module.generators:
            monomial_multiples(rel, gname, gdeg)
    for rel_degree, rel in module.relations:
        monos, flagged = ring.monomials_of_degree(degree - rel_degree, bound)
        if flagged:
            raise Truncated()
        for m in monos:
            vec = [0] * width
            for gname, coeff in rel.items():
                prod = Polynomial(ring, {m: 1}) * coeff
                part = vector(gname, prod, position, width)
                vec = [a + b for a, b in zip(vec, part)]
            vecs.append(vec)
    for v in sequence[:stage]:
        if v.is_zero():
            continue
        for gname, gdeg in module.generators:
            monomial_multiples(v, gname, gdeg)
    return items, vecs


def reached(ring, degree, elements, bound):
    """(carrier, rows, flagged) of the monomial multiples of `elements`,
    (degree, {name: Polynomial}) pairs, in one degree with no fixed
    coordinates: the carrier is every (name, monomial) a row reaches,
    sorted, and `flagged` says whether the bound cut an enumeration."""
    flagged = False
    products = []
    for edeg, element in elements:
        if edeg is None:
            continue
        monos, flag = ring.monomials_of_degree(degree - edeg, bound)
        flagged = flagged or flag
        for m in monos:
            row = {}
            for name, poly in element.items():
                prod = Polynomial(ring, {m: 1}) * poly
                for exps, c in prod.exponent_terms().items():
                    row[name, exps] = row.get((name, exps), 0) + c
            products.append(row)
    carrier = sorted({key for row in products for key in row})
    rows = [[row.get(key, 0) for key in carrier] for row in products]
    return carrier, rows, flagged
