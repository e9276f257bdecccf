"""Reference monomial enumeration, for cobalt.rings.

The body `Ring.monomials_of_degree` had before it learned to skip dead
branches, moved here unchanged: a depth-first walk that tries every
exponent from the bound down to 0 (or -bound, for an invertible pair
enumerated as one signed exponent) in each slot and lets a child whose
remainder lies outside its reachable range return at once, raising the
incompleteness flag there when a larger exponent could have reached
it.  The property test in `test_rings.py` compares the production walk
with it.
"""

from mseries_oracle import inverse_pairs


def monomials_of_degree(ring, degree, bound):
    """Normal-form monomials of one Adams degree, exponents <= bound.

    Returns (monomials, bound_active) exactly as the production method.
    """
    n = len(ring.gens)
    degs = [g.adams_degree for g in ring.gens]
    # slots: a plain generator, or an invertible pair as one signed
    # exponent in -bound..bound
    partner = dict(inverse_pairs(ring))
    inverses = set(partner.values())
    slots = [(i, partner.get(i)) for i in range(n) if i not in inverses]
    k = len(slots)
    lo = [0] * (k + 1)
    hi = [0] * (k + 1)
    has_pos = [False] * (k + 1)
    has_neg = [False] * (k + 1)
    for t in range(k - 1, -1, -1):
        i, j = slots[t]
        d = degs[i]
        if j is None:
            slot_lo, slot_hi = min(0, bound * d), max(0, bound * d)
            has_pos[t] = has_pos[t + 1] or d > 0
            has_neg[t] = has_neg[t + 1] or d < 0
        else:
            slot_lo, slot_hi = -bound * abs(d), bound * abs(d)
            has_pos[t] = has_pos[t + 1] or d != 0
            has_neg[t] = has_neg[t + 1] or d != 0
        lo[t] = lo[t + 1] + slot_lo
        hi[t] = hi[t + 1] + slot_hi
    found = []
    active = [False]
    exps = [0] * n

    def overshoot_possible(t, target):
        # could |exponent| > bound in slot t reach the target?
        i, j = slots[t]
        d = degs[i]
        e = bound + 1
        if j is None:
            if d > 0:
                return target - e * d >= lo[t + 1]
            if d < 0:
                return target - e * d <= hi[t + 1]
            return lo[t + 1] <= target <= hi[t + 1]
        if d == 0:
            return lo[t + 1] <= target <= hi[t + 1]
        return (target - e * abs(d) >= lo[t + 1]
                or target + e * abs(d) <= hi[t + 1])

    def rec(t, target):
        if t == k:
            if target == 0:
                found.append(tuple(exps))
            return
        if target < lo[t] or target > hi[t]:
            if (target > hi[t] and has_pos[t]) or \
                    (target < lo[t] and has_neg[t]):
                active[0] = True
            return
        if overshoot_possible(t, target):
            active[0] = True
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
    return found, active[0]
