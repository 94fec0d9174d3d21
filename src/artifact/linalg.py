"""Sparse exact rank computations.

Rows are dicts mapping column index to a nonzero int coefficient.
Elimination is fraction-free (cross multiplication followed by content
reduction), so the rank over Q comes out of integer arithmetic alone;
the pivot is chosen deterministically as the first row holding the
smallest column index.
"""

from math import gcd


def _reduce(row):
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def rank(rows):
    """Rank over Q of the span of the given sparse integer rows.

    The rows are read, never modified.
    """
    work = [r for r in rows if r]
    rk = 0
    while work:
        best = None
        for i, r in enumerate(work):
            mc = min(r)
            if best is None or mc < best[0]:
                best = (mc, i)
        col, i = best
        pivot = work.pop(i)
        pv = pivot[col]
        rk += 1
        nxt = []
        for r in work:
            if col in r:
                rv = r[col]
                new = {}
                for c in set(r) | set(pivot):
                    v = pv * r.get(c, 0) - rv * pivot.get(c, 0)
                    if v:
                        new[c] = v
                if new:
                    nxt.append(_reduce(new))
            else:
                nxt.append(r)
        work = nxt
    return rk
