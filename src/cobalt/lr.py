"""Littlewood-Richardson products by direct tableau enumeration.

A second, combinatorial route to the Schur structure constants: the
coefficient of Delta_lam in Delta_a * Delta_b counts skew semistandard
tableaux of shape lam/a with content b whose reverse reading word is a
lattice word.  Inside the d x r box the product truncates by dropping
shapes that do not fit.  This module shares no code with the ring's
own route (determinant products reduced by Pieri straightening), so
agreement between the two is a genuine cross-check.
"""


def lr_coefficient(a, b, lam):
    """Multiplicity of s_lam in s_a * s_b, by lattice skew tableaux."""
    a, b, lam = tuple(a), tuple(b), tuple(lam)
    if sum(a) + sum(b) != sum(lam):
        return 0
    rows = max(len(lam), len(a))
    outer = list(lam) + [0] * (rows - len(lam))
    inner = list(a) + [0] * (rows - len(a))
    if any(inner[i] > outer[i] for i in range(rows)):
        return 0
    if not b:
        return 1 if outer == inner else 0
    values = len(b)
    counts = [0] * values
    grid = [[0] * outer[i] for i in range(rows)]

    # fill rows top to bottom, each row right to left, so that placement
    # order matches the reverse reading word and the lattice condition
    # becomes a running-count comparison; fill is handed itself, not a
    # closure over its own name, so a call leaves no reference cycle
    def fill(fill, row, col):
        if row == rows:
            return 1
        if col < inner[row]:
            return fill(fill, row + 1,
                        outer[row + 1] - 1 if row + 1 < rows else -1)
        hi = values
        if col + 1 < outer[row]:
            hi = grid[row][col + 1]
        lo = 1
        if row > 0 and col < outer[row - 1]:
            lo = grid[row - 1][col] + 1
        total = 0
        for v in range(lo, hi + 1):
            if counts[v - 1] >= b[v - 1]:
                continue
            if v > 1 and counts[v - 1] + 1 > counts[v - 2]:
                continue
            counts[v - 1] += 1
            grid[row][col] = v
            total += fill(fill, row, col - 1)
            grid[row][col] = 0
            counts[v - 1] -= 1
        return total

    return fill(fill, 0, outer[0] - 1)


def lr_multiply(a, b, d, r):
    """Delta_a * Delta_b in the d x r box, as partition -> coefficient."""
    from .grassmann import partitions_of

    total = sum(a) + sum(b)
    out = {}
    for lam in partitions_of(total, d, r):
        c = lr_coefficient(tuple(a), tuple(b), lam)
        if c:
            out[lam] = c
    return out
