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

A basis is a list of blocks, one per (stratum, piece) with monomials
in that degree: the block (stratum, piece, monomials) lists the
piece's representatives in enumerate_monomials' order, and the blocks
come by stratum, then piece (Euler-free first).  The basis builds no
basis element to list them; iterating it makes each on the way.  A
block's {monomial: position} table is built on its first lookup, so a
basis that only serves as a matrix source hashes none of its monomials.
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
    """Ordered basis of one (column, degree) spot: its blocks, with a
    position table per block.

    Assembled matrices share their bases (differentials.assemble_matrix):
    read one, never mutate it.
    """

    __slots__ = ("column", "degree", "blocks", "_tables", "__weakref__")

    def __init__(self, column, degree, blocks):
        self.column = column
        self.degree = degree
        self.blocks = blocks
        self._tables = {}

    def __len__(self):
        return sum(len(monos) for _, _, monos in self.blocks)

    def __iter__(self):
        for s, piece, monos in self.blocks:
            for m in monos:
                yield BasisElement(s, piece, m)

    def table(self, stratum, piece):
        """{monomial: position} of the block (stratum, piece), built on the
        first lookup and kept; looking up a monomial it lacks raises
        ArithmeticError naming the element, column and degree."""
        table = self._tables.get((stratum, piece))
        if table is None:
            table = self._tables[stratum, piece] = _Positions(self, stratum, piece)
        return table

    def position(self, el):
        return self.table(el.stratum, el.piece)[el.mono]


class _Positions(dict):
    """One block's {monomial: position}; empty for a piece with no block."""

    __slots__ = ("where",)

    def __init__(self, basis, stratum, piece):
        start, monos = 0, ()
        for s, p, ms in basis.blocks:
            if s == stratum and p == piece:
                monos = ms
                break
            start += len(ms)
        super().__init__(zip(monos, range(start, start + len(monos))))
        if len(self) != len(monos):
            raise ArithmeticError("basis (%d, %d) lists an element twice"
                                  % (basis.column, basis.degree))
        self.where = (stratum, piece, basis.column, basis.degree)

    def __missing__(self, m):
        s, piece, column, degree = self.where
        raise ArithmeticError("%r is not in the basis of column %d degree %d"
                              % (BasisElement(s, piece, m), column, degree))


def build_basis(d, k, n):
    """The ordered basis of column k in total degree n."""
    blocks = []
    for s in enumerate_strata(d, k):
        for piece in column_content(s):
            monos = orbit_reps(piece.space(s), n - piece.offset(s))
            if monos:
                blocks.append((s, piece, monos))
    return IndexedBasis(k, n, blocks)


def column_series(d, k, D):
    """Rank series of one whole column."""
    total = Series.zero(D)
    for s in enumerate_strata(d, k):
        total = total + content_series(s, D)
    return total
