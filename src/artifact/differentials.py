"""The differentials between consecutive columns.

All maps raise the total degree by one and are induced by attaching
maps between neighboring strata; every rule below is stated on the
basis elements of e1.py and produces an integer combination of target
basis elements.

Column 0 to fold (d0):  plain monomials die.  For d even the Euler
part maps by

    e . m  |->  sum_a (-1)^a U_{a, d+1-a, 1} . s_hom(m),

one image, restricted down the fold staircase.

Fold to level 2 (d1):  every Euler-carrying fold element dies.  The
Euler-free part of the stratum (a, b) maps by restriction of variables,

    a = 0:            U . m |-> U_{0, d, 2} . m|
    0 < a < top:      U . m |-> U_{a-1, b, 2} . m| + U_{a, b-1, 2} . m|
    top, d even:      U . m |-> U_{a-1, b, 2} . m| + U_{a, a, 2} . (m| - swap m|)
    top, d odd, skew: U . k |-> U_{a-1, b, 2} . k|

The fold rule states the table as the two level-2 neighbours of (a, b):
(a - 1, b) when a > 0, and (a, b - 1) when a < b, where the square
(a, a) takes m| - swap m|.

Level 2r to 2r + 1:  for r even the Euler-free piece maps with the
covering multiplicity 2 (onto both sign sheets when a < b, onto the
single full target when a = b); the Euler piece dies.  For r odd the
roles of the two pieces swap.

Level 2r + 1 to 2r + 2:  sign sheets map by +-U . m with the sign of
the sheet.  At a = b the single full source maps by m - swap m (r even)
or e.(m + swap m) (r odd), landing in the skew or symmetric target.

Out of a column k >= 1 each rule is stated once per source block, the
monomials of one (stratum, piece) of a basis (e1.py): _fold_legs,
_even_col_legs and _odd_col_legs resolve the block's legs, each a
target stratum and piece, an integer coefficient, a monomial map and
an optional swap sign.  The map is the identity past the fold and
drops at most one variable into level 2; only where a = b does an
image take m +- swap m.  block_columns then carries the block's
monomials through its legs in one pass, keyed by a table per target
block: positions in assemble_matrix, basis elements in differential,
d_fold, d_even_col and d_odd_col, which are the one-element case.  d0
builds its Whitney image element by element.
"""

from collections import namedtuple
from functools import partial
from weakref import WeakValueDictionary

from .grading import (
    VariableSet, mono_swap, restrict_terms, restriction, s_hom, is_orbit_rep,
    FULL, SYM, SKEW, _Filled,
)
from .strata import Stratum, column_content, PLUS, MINUS
from .e1 import BasisElement, build_basis
from .linalg import rank


def fold_sign(a):
    # the (-1)^a orientation comparison in d0
    return -1 if a % 2 else 1


# multiplicity picked up from the two-sheeted covering in the even-column rules
COVER_FACTOR = 2


def _terms(flavor, m):
    """The term dict a monomial stands for in a piece of this flavor:
    m, m + swap m or m - swap m."""
    if flavor == FULL:
        return {m: 1}
    sm = mono_swap(m)
    if flavor == SYM:
        return {m: 1} if sm == m else {m: 1, sm: 1}
    if sm == m:
        raise ValueError("skew element on the swap-fixed monomial %r" % (m,))
    return {m: 1, sm: -1}


def element_terms(el):
    """The term dict of a basis element: m, m + swap m or m - swap m."""
    return _terms(el.piece.flavor, el.mono)


def _plus_swap(terms, sign):
    """terms + sign * swap(terms), zero terms dropped."""
    out = dict(terms)
    for m, c in terms.items():
        sm = mono_swap(m)
        out[sm] = out.get(sm, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _piece_for(s, euler):
    for piece in column_content(s):
        if piece.euler == euler:
            return piece
    return None


def _target_piece(s, euler):
    piece = _piece_for(s, euler)
    if piece is None:
        raise ArithmeticError("image hits a stratum without matching content")
    return piece


def _coordinates(flavor, terms):
    """[(monomial, int)]: terms read off in a piece of this flavor.

    Full pieces take the coefficients as they stand; symmetric and skew
    pieces read off the coefficient at each orbit representative, after
    checking that terms really lies in the claimed eigenspace.
    """
    sign = {SYM: 1, SKEW: -1}.get(flavor)
    if sign and any(terms.get(mono_swap(m), 0) != sign * c for m, c in terms.items()):
        raise ArithmeticError("image claimed %s is not"
                              % ("symmetric" if sign == 1 else "skew"))
    return [(m, c) for m, c in terms.items() if is_orbit_rep(flavor, m)]


def _expand(out, s, euler, terms, coef=1):
    """Accumulate coef * (U_s . e^euler . terms) as basis coordinates.

    terms maps monomials of s to nonzero ints.
    """
    if not terms or coef == 0:
        return
    piece = _target_piece(s, euler)
    for m, c in _coordinates(piece.flavor, terms):
        el = BasisElement(s, piece, m)
        v = out.get(el, 0) + coef * c
        if v:
            out[el] = v
        else:
            out.pop(el, None)


def restriction_expansion(d, a_top, terms, vs):
    """Fold-column coordinates of sum_{a <= a_top} (-1)^a U_{a, d+1-a, 1} . p|.

    p is the {monomial: int} dict terms in the variables vs, and p| its
    restrict_terms to the variables of the fold stratum (a, d+1-a).
    """
    out = {}
    # restrict_terms reads only the target's na, nb, which for even d
    # the strata a = 2j and 2j + 1 share: restrict once per pair
    kept = {}
    for a in range(a_top + 1):
        t = Stratum(1, a, d + 1 - a)
        ranges = (t.vars.na, t.vars.nb)
        if ranges not in kept:
            kept[ranges] = restrict_terms(terms, vs, t.vars)
        _expand(out, t, False, kept[ranges], fold_sign(a))
    return out


def d0(d, el):
    """Column 0 into the fold column."""
    if el.stratum.level != 0:
        raise ValueError("d0 applied to column %d" % el.stratum.level)
    if not el.piece.euler:
        return {}
    # s_hom is a ring map that commutes with restrict (both send the
    # out-of-range variables to 0), so one image in P(d, d) restricts to
    # the image in each fold stratum's own variables; the even-d sigma
    # classes are these images in that ring, so both read one kept copy
    vs = VariableSet(d, d)
    return restriction_expansion(d, d // 2, s_hom((el.mono[0], ()), vs), vs)


def _same(m):
    # the monomial map past the fold
    return m


def _fold_legs(d, s, piece):
    """Fold column into level 2: [(target, its piece, coefficient, map, swap)]."""
    if s.level != 1:
        raise ValueError("d_fold applied to column %d" % s.level)
    if piece.euler:
        return []
    a, b = s.a, s.b
    legs = []
    if a:
        t = Stratum(2, a - 1, b)
        legs.append((t, _target_piece(t, False), 1, restriction(s.vars, t.vars), None))
    if a < b:
        t = Stratum(2, a, b - 1)
        # a == b - 1 only at the even-d top, whose neighbour (a, a) is square
        legs.append((t, _target_piece(t, False), 1, restriction(s.vars, t.vars),
                     -1 if a == b - 1 else None))
    return legs


def _even_col_legs(d, s, piece):
    """Level 2r into level 2r + 1."""
    lv = s.level
    if lv < 2 or lv % 2:
        raise ValueError("d_even_col applied to column %d" % lv)
    if ((lv // 2) % 2 == 0) == piece.euler:
        return []
    targets = [Stratum(lv + 1, s.a, s.b, sign) for sign in
               ((PLUS, MINUS) if s.a != s.b else (None,))]
    return [(t, _target_piece(t, piece.euler), COVER_FACTOR, _same, None)
            for t in targets]


def _odd_col_legs(d, s, piece):
    """Level 2r + 1 into level 2r + 2."""
    lv = s.level
    if lv < 3 or lv % 2 == 0:
        raise ValueError("d_odd_col applied to column %d" % lv)
    r = (lv - 1) // 2
    t = Stratum(lv + 1, s.a, s.b)
    if s.a != s.b:
        sheet = 1 if s.sign == PLUS else -1
        return [(t, _target_piece(t, piece.euler), sheet, _same, None)]
    if piece.euler != (r % 2 == 1):
        # the a = b content carries the Euler class exactly for r odd
        raise ArithmeticError("Euler flag %r at a = b in column %d"
                              % (piece.euler, lv))
    # r even: m - swap m; r odd: e.(m + swap m)
    return [(t, _target_piece(t, piece.euler), 1, _same, 1 if r % 2 else -1)]


def _carry(legs, flavor, monos, tables):
    """The images of a block's monomials under its legs: one {key: int}
    dict per monomial, zeros dropped.

    tables(t, tpiece) keys the target block (t, tpiece): a table from a
    target monomial to its key, which raises for a monomial it lacks.  A
    leg out of a full piece carries each monomial to one term q, or, with
    a swap sign, to q +- swap q in the target eigenspace of that sign, one
    coordinate; any other leg reads the terms of m through the target
    flavor, checking that they lie in its eigenspace.
    """
    cols = [{} for _ in monos]
    for t, tpiece, coef, move, swap in legs:
        if not coef:
            continue
        at = tables(t, tpiece)
        tflavor = tpiece.flavor
        if flavor == FULL and swap == {SYM: 1, SKEW: -1}.get(tflavor):
            # one term q = m| per monomial, or q + swap * swap q read in
            # the eigenspace of that sign: coef at its orbit representative
            for col, q in zip(cols, monos if move is _same else map(move, monos)):
                if q is None:
                    continue
                if swap is None:
                    col[at[q]] = coef
                    continue
                sq = mono_swap(q)
                if sq == q:
                    if swap == 1:
                        col[at[q]] = 2 * coef
                elif is_orbit_rep(tflavor, q):
                    col[at[q]] = coef
                else:
                    col[at[sq]] = swap * coef
            continue
        for col, m in zip(cols, monos):
            q = {}
            for x, c in _terms(flavor, m).items():
                y = move(x)
                if y is not None:
                    q[y] = c
            if swap:
                q = _plus_swap(q, swap)
            for y, c in _coordinates(tflavor, q):
                key = at[y]
                v = col.get(key, 0) + coef * c
                if v:
                    col[key] = v
                else:
                    del col[key]
    return cols


def block_columns(d, s, piece, monos, tables):
    """The images of the basis elements (s, piece, m), m in monos, out of a
    column k >= 1, keyed through tables (see _carry): the block's rule
    resolves its legs once, and _carry maps the monomials in one pass."""
    lv = s.level
    rule = _fold_legs if lv == 1 else _odd_col_legs if lv % 2 else _even_col_legs
    return _carry(rule(d, s, piece), piece.flavor, monos, tables)


def _named(t, tpiece):
    # the one-element case keys each target monomial by its basis element
    return _Filled(partial(BasisElement, t, tpiece))


def _one(legs, el):
    return _carry(legs, el.piece.flavor, [el.mono], _named)[0]


def d_fold(d, el):
    """Fold column into level 2."""
    return _one(_fold_legs(d, el.stratum, el.piece), el)


def d_even_col(d, el):
    """Level 2r into level 2r + 1."""
    return _one(_even_col_legs(d, el.stratum, el.piece), el)


def d_odd_col(d, el):
    """Level 2r + 1 into level 2r + 2."""
    return _one(_odd_col_legs(d, el.stratum, el.piece), el)


def differential(d, el):
    """Dispatch on the source column."""
    if el.stratum.level == 0:
        return d0(d, el)
    return block_columns(d, el.stratum, el.piece, [el.mono], _named)[0]


class LinearMap(namedtuple("LinearMap", "source target cols")):
    """One differential as an integer matrix in the indexed bases.

    cols[j] maps target row index to the integer entry, one dict per
    source basis element.
    """

    __slots__ = ()

    def rank(self):
        return rank(self.cols)

    def apply(self, vec):
        """The image of {source index: int} as {target index: int}, zeros dropped."""
        out = {}
        for j, c in vec.items():
            for i, v in self.cols[j].items():
                out[i] = out.get(i, 0) + c * v
        return {i: v for i, v in out.items() if v}

    def __repr__(self):
        return "LinearMap(%d x %d, k=%d -> %d, n=%d -> %d)" % (
            len(self.target), len(self.cols),
            self.source.column, self.target.column,
            self.source.degree, self.target.degree)


# the bases some assembled matrix still holds, by (d, k, n)
_BASES = WeakValueDictionary()


def _basis(d, k, n):
    """build_basis(d, k, n), or the same basis if a live matrix holds it."""
    basis = _BASES.get((d, k, n))
    if basis is None:
        basis = _BASES[(d, k, n)] = build_basis(d, k, n)
    return basis


def assemble_matrix(d, k, n):
    """Matrix of the differential out of column k, total degree n.

    Out of a column k >= 1 block_columns maps each source block to target
    positions in one pass; d0 maps column 0 element by element.  The
    source basis of (k, n) is the target basis of (k - 1, n - 1): while
    one matrix holding a basis is alive, every other matrix that needs it
    shares it, so a caller that keeps its matrices (the reader of
    pages.assemble_columns) builds each basis once.
    """
    src = _basis(d, k, n)
    tgt = _basis(d, k + 1, n + 1)
    if k == 0:
        cols = [{tgt.position(tel): c for tel, c in d0(d, el).items()} for el in src]
    else:
        cols = []
        for s, piece, monos in src.blocks:
            cols += block_columns(d, s, piece, monos, tgt.table)
    return LinearMap(src, tgt, cols)
