"""Reference rational echelon for the fraction-free one in cobalt.snf.

Plain Gauss-Jordan elimination over fractions.Fraction: slow, since
every entry is a reduced fraction, but short enough to check by eye.
It returns the set of pivot columns of the reduced row echelon form.
"""

from fractions import Fraction


def pivot_columns(rows):
    """Pivot columns of the rational row echelon form."""
    if not rows:
        return set()
    a = [[Fraction(x) for x in row] for row in rows]
    m, n = len(a), len(a[0])
    pivots = set()
    r = 0
    for col in range(n):
        hit = None
        for i in range(r, m):
            if a[i][col]:
                hit = i
                break
        if hit is None:
            continue
        a[r], a[hit] = a[hit], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col]:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[r])]
        pivots.add(col)
        r += 1
        if r == m:
            break
    return pivots
