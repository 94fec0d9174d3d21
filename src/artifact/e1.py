"""Explicit bases for the columns of the first page.

Column k in total degree n is the direct sum over level-k strata of
their flavored content pieces in matching internal degree.  A basis
element records the stratum, the piece, and one monomial: full pieces
take every monomial, symmetric pieces one representative per swap
orbit (standing for the integer orbit sum m + swap(m), or m itself
when fixed), skew pieces one representative per free orbit (standing
for m - swap(m)).  This normalization keeps every differential matrix
entry an integer.  A basis element is a value, the named tuple
(stratum, piece, monomial), and compares and hashes by those fields.

Bases are deterministically ordered by stratum, then piece (Euler-free
first), then monomial.
"""

from collections import namedtuple

from .grading import Series, orbit_reps, mono_degree, mono_str
from .strata import enumerate_strata, column_content, content_series


class BasisElement(namedtuple("BasisElement", "stratum piece mono")):
    __slots__ = ()

    @property
    def degree(self):
        return self.piece.offset(self.stratum) + mono_degree(self.mono)

    def __repr__(self):
        s = self.stratum
        if s.level == 0:
            head = ""
        elif s.level == 1:
            head = "U_{%d,%d,1}." % (s.a, s.b)
        else:
            tag = {None: "", 1: "+", -1: "-"}[s.sign]
            head = "U%s_{%d,%d,%d}." % (tag, s.a, s.b, s.level)
        mid = "e." if self.piece.euler else ""
        return head + mid + mono_str(self.mono)


class IndexedBasis:
    """Ordered basis of one (column, degree) spot with an index lookup.

    Assembled matrices share their bases (differentials.assemble_matrix):
    read one, never mutate it.
    """

    __slots__ = ("column", "degree", "elements", "index", "__weakref__")

    def __init__(self, column, degree, elements):
        self.column = column
        self.degree = degree
        self.elements = elements
        self.index = {el: i for i, el in enumerate(elements)}
        if len(self.index) != len(elements):
            raise ArithmeticError("basis (%d, %d) lists an element twice"
                                  % (column, degree))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def position(self, el):
        i = self.index.get(el)
        if i is None:
            raise ArithmeticError("%r is not in the basis of column %d degree %d"
                                  % (el, self.column, self.degree))
        return i


def build_basis(d, k, n):
    """The ordered basis of column k in total degree n."""
    elements = []
    for s in enumerate_strata(d, k):
        for piece in column_content(s):
            for m in orbit_reps(piece.space(s), n - piece.offset(s)):
                elements.append(BasisElement(s, piece, m))
    return IndexedBasis(k, n, elements)


def column_series(d, k, D):
    """Rank series of one whole column."""
    total = Series.zero(D)
    for s in enumerate_strata(d, k):
        total = total + content_series(s, D)
    return total
