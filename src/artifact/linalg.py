"""Sparse exact rank computations.

Rows are dicts mapping column index to a nonzero int coefficient.
rank reduces the rows one at a time against a table that maps a lead
column, a row's largest index, to the one pivot row holding it: the
column reduction of persistent homology (Edelsbrunner, Letscher and
Zomorodian 2002), whose lead lookup table is the core of PHAT.  While
the table holds a row's lead, the row is crossed with that pivot
fraction-free and divided by its content, so the rank over Q comes out
of integer arithmetic alone.  The row joins the table once its lead is
new, or it vanishes.  Pivots have distinct leads, so they are
independent and the rank is the table's size.  A reduced row stays
inside the columns of its block, so the rows of different blocks of a
block-diagonal matrix never meet in the table and the matrix needs no
split.  The grid ranks d0's fold sub-block (single entries) in each new
degree, one fold cell per build or growth, and the representative
blocks it counts with once per d, since it keeps their ranks; the
collapse and generator checks rank the maps they assemble.

The rank does not depend on which index leads, but the fill-in does:
over `verify --dim 12 --max-degree 76` the 7797 rows reduction creates
hold 10030 entries in all, against 4.46 million in 19509 rows when the
smallest index leads.
"""

from math import gcd


def _reduce(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()}


def rank(rows):
    """Rank over Q of the span of the given sparse integer rows.

    The rows are read, never modified.
    """
    pivots = {}
    for row in rows:
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            pv, rv = pivot[lead], row[lead]
            new = {}
            for c in row.keys() | pivot.keys():
                v = pv * row.get(c, 0) - rv * pivot.get(c, 0)
                if v:
                    new[c] = v
            row = new and _reduce(new)
    return len(pivots)
