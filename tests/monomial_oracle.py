"""Reference monomial enumeration and completeness, for cobalt.rings.

`monomials_of_degree` lists with the body `Ring.monomials_of_degree` had
before it learned to skip dead branches: a depth-first walk that tries
every exponent from the bound down to 0 (or -bound, for an invertible
pair enumerated as one signed exponent) in each slot and lets a child
whose remainder lies outside its reachable range return at once.  Its
flag comes from `past_bound`, which looks for a monomial of the degree
with an exponent past the bound by a route of its own: a box search or
an explicit certificate, never a gcd or a coin-problem table.  The
property test in `test_rings.py` compares the production method with
both and checks each certificate.
"""

from collections import deque

from mseries_oracle import inverse_pairs


def _fields(ring):
    """(i, j, degree) per field: a plain generator g_i (j None), or an
    invertible g_i with its inverse g_j as one signed exponent."""
    partner = dict(inverse_pairs(ring))
    inverses = set(partner.values())
    return [(i, partner.get(i), ring.gens[i].adams_degree)
            for i in range(len(ring.gens)) if i not in inverses]


def _normal_form(ring, fields, signed):
    """The exponent tuple of one signed exponent per field."""
    exps = [0] * len(ring.gens)
    for (i, j, _), e in zip(fields, signed):
        if e >= 0:
            exps[i] = e
        else:
            exps[j] = -e
    return tuple(exps)


def _listing(ring, degree, bound):
    """Normal-form monomials of one Adams degree, exponents <= bound."""
    slots = [(i, j) for i, j, _ in _fields(ring)]
    degs = [g.adams_degree for g in ring.gens]
    k = len(slots)
    lo = [0] * (k + 1)
    hi = [0] * (k + 1)
    for t in range(k - 1, -1, -1):
        i, j = slots[t]
        d = degs[i]
        if j is None:
            slot_lo, slot_hi = min(0, bound * d), max(0, bound * d)
        else:
            slot_lo, slot_hi = -bound * abs(d), bound * abs(d)
        lo[t] = lo[t + 1] + slot_lo
        hi[t] = hi[t + 1] + slot_hi
    found = []
    exps = [0] * len(ring.gens)

    def rec(t, target):
        if t == k:
            if target == 0:
                found.append(tuple(exps))
            return
        if target < lo[t] or target > hi[t]:
            return
        i, j = slots[t]
        d = degs[i]
        if j is None:
            for e in range(bound, -1, -1):
                exps[i] = e
                rec(t + 1, target - e * d)
            exps[i] = 0
        else:
            for e in range(bound, -bound - 1, -1):
                if e >= 0:
                    exps[i], exps[j] = e, 0
                else:
                    exps[i], exps[j] = 0, -e
                rec(t + 1, target - e * d)
            exps[i] = exps[j] = 0

    rec(0, degree)
    found.sort(reverse=True)
    return found


def past_bound(ring, degree, bound):
    """A normal-form monomial of `degree` with an exponent above `bound`,
    or None when there is none.

    Each field f takes the steps s*|f| for s = 1, or s = +-1 when it is
    an invertible pair.  If no field has degree 0 and no two fields have
    steps of opposite sign, every field adds to the degree with one sign
    and at least 1 per unit of exponent, so no exponent exceeds |degree|:
    the walk at that bound lists the whole degree, a box of side
    |degree| + 1 per field (2|degree| + 1 for a pair), searched directly.

    Otherwise some monomial z != 1 has degree 0 (a degree-0 field, or
    x^|b| y^a for steps a > 0 of x and b < 0 of y), and one past the
    bound exists exactly when the degree has any monomial m: then
    m * z^k is one for k = bound + 1 + max |m|.  A breadth-first search
    over degrees, one step at a time, finds m or shows there is none.
    It stays in [min(0, degree) - M, max(0, degree) + M] for M the
    largest |step|, which loses nothing: any steps summing to the degree
    can be ordered to stay there (up while at or below the degree, else
    down).
    """
    fields = _fields(ring)
    steps = [(f, s, s * d) for f, (_, j, d) in enumerate(fields)
             for s in ((1,) if j is None else (1, -1))]
    zero = [f for f, s, a in steps if a == 0]
    ups = [(f, s, a) for f, s, a in steps if a > 0]
    downs = [(f, s, a) for f, s, a in steps if a < 0]
    pair = next(((x, y) for x in ups for y in downs if x[0] != y[0]), None)
    if not zero and pair is None:
        if abs(degree) <= bound:
            return None
        return next((m for m in _listing(ring, degree, abs(degree))
                     if max(m) > bound), None)
    z = [0] * len(fields)
    if zero:
        z[zero[0]] = 1
    else:
        (f, s, a), (g, t, b) = pair
        z[f], z[g] = s * -b, t * a
    moves = [(f, s, a) for f, s, a in steps if a]
    reach = max((abs(a) for _, _, a in moves), default=0)
    low, high = min(0, degree) - reach, max(0, degree) + reach
    parent = {0: None}
    queue = deque([0])
    while queue and degree not in parent:
        at = queue.popleft()
        for move in moves:
            nxt = at + move[2]
            if low <= nxt <= high and nxt not in parent:
                parent[nxt] = (at, move)
                queue.append(nxt)
    if degree not in parent:
        return None
    m = [0] * len(fields)
    at = degree
    while parent[at] is not None:
        at, (f, s, _) = parent[at]
        m[f] += s
    k = bound + 1 + max(map(abs, m), default=0)
    return _normal_form(ring, fields, [e + k * c for e, c in zip(m, z)])


def monomials_of_degree(ring, degree, bound):
    """(monomials, bound_active), as the production method returns them."""
    return (_listing(ring, degree, bound),
            past_bound(ring, degree, bound) is not None)
