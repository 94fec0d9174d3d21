"""Sparse exact rank computations.

Rows are dicts mapping column index to a nonzero int coefficient.
rank first splits the rows into connected components: a union-find
over column indices joins every column a row touches, so rows in
different components share no column and the matrix is block-diagonal
up to a permutation of rows and columns.  The rank is the sum of the
block ranks.  The grid eliminates d0's fold sub-block (single entries),
one fold cell per growth and the representative blocks it counts with;
the collapse and generator checks eliminate the maps they assemble.

Each block is eliminated fraction-free (cross multiplication followed
by content reduction), so the rank over Q comes out of integer
arithmetic alone; the pivot is chosen deterministically as the first
row holding the largest column index.  The rank does not depend on that
order, but the fill-in does: over `verify --dim 12 --max-degree 76` the
rows elimination creates hold about 10 thousand entries in all, against
4.5 million when it pivoted on the smallest index.
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


def _eliminate(work):
    """Rank of a list of nonzero rows by fraction-free elimination."""
    rk = 0
    while work:
        best = None
        for i, r in enumerate(work):
            mc = max(r)
            if best is None or mc > best[0]:
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


def _find(parent, c):
    root = parent.setdefault(c, c)
    while root != parent[root]:
        root = parent[root]
    while c != root:
        parent[c], c = root, parent[c]
    return root


def _components(rows):
    """The nonzero rows grouped so that no two groups share a column."""
    parent = {}
    for r in rows:
        it = iter(r)
        first = _find(parent, next(it))
        for c in it:
            root = _find(parent, c)
            if root != first:
                parent[root] = first
    groups = {}
    for r in rows:
        groups.setdefault(_find(parent, next(iter(r))), []).append(r)
    return groups.values()


def rank(rows):
    """Rank over Q of the span of the given sparse integer rows.

    The rows are read, never modified.
    """
    return sum(_eliminate(g) for g in _components([r for r in rows if r]))
