"""Second-page ranks, closed-form rank series, and kernel generators.

The engine counts the rank of every differential once per dimension
(the rank grid), then answers all truncations R from the same grid: for
a column k below the truncation the second-page rank at total degree n is

    e2(k, n) = dim E1(k, n) - rank d(k, n) - rank d(k-1, n-1),

while the top column of a finite truncation keeps its whole kernel.
Summing over columns gives the total rank series; a report compares it
with the closed form encoded per residue of d only when its verdict is
read, so a request that reads only ranks builds no closed form.

The grid counts every rank.  Column 0's is its Euler count, certified by
d0's rows on the fold stratum (0, d + 1), where s_hom sends p_i to p'_i
and keeps no image.  Out of a column k >= 1 the map splits into tiny
blocks by swap orbit type (_block_ranks), ranked once per d with the
rules assemble_matrix applies and summed against the orbit counts up to
D (_counted_ranks).  The rules read a level >= 2 only mod 4 and column
k's Thom class sits in degree d + k, so column k in degree n is column
k - 4 in degree n - 4: the grid keeps columns 0..5 alone, and _column
reads a column k >= 6 as column 2 + (k - 2) % 4, k - that degrees lower.
The grid grows in D by the new degrees alone, certified by d0's
sub-block in each and by one assembled guard cell, the lowest new fold
cell.  Each d keeps one page per truncation, the nonzero cells and total
ranks _e2_cells walked: a smaller D reads a page's prefix, a larger D
walks the new degrees alone, and loopspace_series keeps its series on
the page, one per offset.

verify's three checks take (d, D) and share one reader,
assemble_columns(d, D), which assembles a matrix on its first read and
keeps it, builds each (column, degree) basis once for the two matrices
that use it, and lists the monomials of each (space, internal degree)
once, for every basis block and generator class.  With K = max(1, D - d),
chain_check multiplies consecutive matrices out of columns
0..min(5, K - 1), collapse_check ranks the counted cells of columns
1..min(5, K) and verify_generators reads d0's images and the fold
matrices.  So verify certifies columns 0..6 by assembly; a column k >= 7
rests on the period-4 rule, which the tests check on the counted grid
only (d <= 16, D = 60), and on the summed closed form.

The fold-column kernel admits explicit generator families (tau, sigma,
and the Euler-carried I classes for odd d), listed by generator_classes.
verify_generators checks that they exhaust the computed second page,
building each degree's vectors in its step, in the fold basis of that
degree: one staircase call per run of tau or odd-d sigma classes, and
one d0 call for the even-d sigma classes, whose images live in the
staircase's ring.  Only the labels build s_hom(m) in P(d, d).

clear_cache() empties the grid and the eight tables the modules below
keep for reuse (Whitney images, bump maps holding one copy of their
monomials and tuples, tuple text, exponent tuples, space series, stratum
content, variable sets, shared bases); the tables change no result, only
how often the same work is done.
"""

from collections import defaultdict, namedtuple
from functools import cache, partial
from itertools import groupby, islice
from operator import attrgetter

from .grading import (
    VariableSet, Series, FlavoredSpace, FULL, SYM, SKEW,
    enumerate_monomials, orbit_reps, space_series, s_hom, mono_swap,
    is_orbit_rep, restrict_terms, poly_str,
    _IMAGES, _BUMPS, _TEXT, _Filled, _exponent_tuples,
)
from .strata import Stratum, enumerate_strata, column_content, _variables
from .e1 import BasisElement, IndexedBasis
from .differentials import (
    block_columns, assemble_matrix, staircase, d0, _terms, _piece_for,
    LinearMap, _BASES,
)
from .linalg import rank


def _norm_R(R):
    """Normalize a truncation parameter; None stands for the full sequence."""
    if R is None or R == float("inf") or R == "inf":
        return None
    Rn = int(R)
    if not isinstance(R, str) and Rn != R:
        raise ValueError("truncation order %r is not an integer" % (R,))
    if Rn < 1:
        raise ValueError("truncation order %d is below 1" % Rn)
    return Rn


# rank grid cache: d -> (D, sizes, ranks, blocks, pages); sizes[k] and
# ranks[k] list the cells of column k = 0..5 by degree, blocks are
# _block_ranks', pages map a normalised truncation to _e2_cells' page
_GRID = {}


def clear_cache():
    """Empty the nine tables: the rank grid and what the modules below it
    keep, the Whitney images, the bump maps raising their exponents (whose
    identity map holds one copy of every monomial and tuple), the exponent
    tuples of each (weights, degree) and the text of each tuple, the space
    series, the stratum content and variable sets, and the bases that
    assembled matrices share."""
    _GRID.clear()
    for table in (_IMAGES, _BUMPS, _TEXT, _BASES):
        table.clear()
    for table in (_exponent_tuples, space_series, column_content, _variables):
        table.cache_clear()


def _named(t, tpiece):
    # _block_ranks has no target basis: it keys each target monomial by
    # its basis element
    return _Filled(partial(BasisElement, t, tpiece))


def _block_ranks(d, columns):
    """[(k, offset, orbit type, rank)] for every block of nonzero rank of d
    out of the columns k >= 1; no rank depends on a max degree.

    Out of a column k >= 1 d keeps the Euler flag and either keeps the
    pair (a, b) or restricts variables (the fold's square neighbour takes
    q - swap q), so it splits into one block per swap orbit {m, swap m}
    of U = P(d + 1, d + 1), whose rank depends only on whether swap m = m
    and on the extents (i, j) of m: the numbers of unprimed and primed
    variables up to its last nonzero exponent.  The orbit type (i, j, y)
    stands for the orbit of p_i p'_j^y: y = 1 for i < j and for fixed
    orbits, y = 2 for free ones at i = j > 0 (the unit has none).
    """
    U = VariableSet(d + 1, d + 1)  # holds every stratum's variables
    spaces = {s.vars for k in columns for s in enumerate_strata(d, k)}
    types = []  # (orbit type, its orbit restricted into each space)
    # a stratum (a, b) holds p_i p'_j only if 2i <= a and 2j <= b, so only
    # types with 2(i + j) <= d + 1 have blocks
    for j in range(U.nb + 1):
        for i in range(min(j, U.nb - j) + 1):
            for y in (1, 2) if i == j > 0 else (1,):
                m = (tuple(int(t == i - 1) for t in range(U.na)),
                     tuple(y * (t == j - 1) for t in range(U.nb)))
                orbit = {m: 1, mono_swap(m): 1}
                types.append(((i, j, y), {vs: restrict_terms(orbit, U, vs)
                                          for vs in spaces}))
    blocks = []
    for k in columns:
        # one Euler flag's pieces share one offset: Thom degree (+ a + b if Euler)
        by_offset = defaultdict(list)
        for s in enumerate_strata(d, k):
            for p in column_content(s):
                by_offset[p.offset(s)].append((s, p))
        for offset, pairs in by_offset.items():
            # the rule runs once per pair over the monomials of every type,
            # and only nonzero rows are ranked: a piece it kills adds none
            rows = {t: [] for t, _ in types}
            for s, p in pairs:
                own = [(t, mono) for t, monos in types for mono in monos[s.vars]
                       if is_orbit_rep(p.flavor, mono)]
                images = block_columns(d, s, p, [mono for _, mono in own], _named)
                for (t, _), image in zip(own, images):
                    if image:
                        rows[t].append(image)
            for t, _ in types:
                r = rank(rows[t])
                if r:
                    blocks.append((k, offset, t, r))
    return blocks


def _orbit_count(t, D):
    """Orbits of type t = (i, j, y) by degree: m has extents (i, j) iff it
    is p_i p'_j times a monomial of P(2i, 2j), so that ring's series count
    them, its fixed orbits for y = 1 at i = j and its free ones for y = 2."""
    i, j, y = t
    if i < j:
        count = _P(2 * i, 2 * j, D)
    elif y == 1:
        count = _S(2 * i, 2 * i, D) - _A(2 * i, 2 * i, D)
    else:
        count = _A(2 * i, 2 * i, D)
    return count.tshift(4 * (i + j)).c


def _counted_ranks(blocks, columns, D, lo=0):
    """{k: ranks of the differential out of column k in degrees lo..D,
    zero below lo}: each of _block_ranks' blocks times the count of its
    orbit type."""
    counts = {}
    total = {k: [0] * (D + 1) for k in columns}
    for k, offset, t, r in blocks:
        if t not in counts:
            counts[t] = _orbit_count(t, D)
        col, count = total[k], counts[t]
        for n in range(max(offset, lo), D + 1):
            col[n] += r * count[n - offset]
    return {k: Series(col, D) for k, col in total.items()}


def _grid(d, D):
    entry = _GRID.get(d)
    if entry and entry[0] >= D:
        return entry
    D0, sizes, ranks, blocks, kept = entry or (-1, [[]] * 6, [[]] * 6, None, {})
    # d0 kills the plain part of column 0, so its rank is at most the Euler
    # count; its rows on the fold stratum (0, d + 1) reach it (p_i -> p'_i)
    [s], t = enumerate_strata(d, 0), Stratum(1, 0, d + 1)  # rejects d < 1
    piece = _piece_for(s, True)  # None for odd d
    off = piece.offset(s) if piece else 0  # = d; t's Thom degree is d + 1
    euler = space_series(piece.space(s), D).tshift(off) if piece else Series.zero(D)
    tpiece = _piece_for(t, False)
    for n in range(D0 + 1, D + 1) if piece else ():
        monos = orbit_reps(piece.space(s), n - off)
        src = IndexedBasis(0, n, [(s, piece, monos)])
        tgt = IndexedBasis(1, n + 1, [(t, tpiece, enumerate_monomials(t.vars, n - off))])
        # on t (a = 0: sign +1, full piece, no restriction) d0 is s_hom itself
        at = tgt.table(t, tpiece)
        cols = [{at[tm]: c for tm, c in s_hom(m, t.vars).items()} for m in monos]
        if LinearMap(src, tgt, cols).rank() != euler[n]:
            raise ArithmeticError("d0 sub-block is not of full rank at degree %d" % n)
    # a growth keeps the block ranks and appends the new degrees alone: the
    # counts of those degrees, and the sizes read off the pieces' series
    if blocks is None:
        blocks = _block_ranks(d, range(1, 6))
    counted = {0: euler, **_counted_ranks(blocks, range(1, 6), D, D0 + 1)}
    ranks = [ranks[k] + counted[k].c[D0 + 1:] for k in range(6)]
    grown = []
    for k in range(6):
        col = [0] * (D - D0)
        for st in enumerate_strata(d, k):
            for p in column_content(st):
                ser, shift = space_series(p.space(st), D).c, p.offset(st)
                for n in range(max(D0 + 1, shift), D + 1):
                    col[n - D0 - 1] += ser[n - shift]
        grown.append(sizes[k] + col)
    # a guard per build or growth: the lowest new fold cell with Euler-free elements
    n = max(d + 1, D0 + 1 + (d - D0) % 4)
    if n <= D and assemble_matrix(d, 1, n).rank() != ranks[1][n]:
        raise ArithmeticError("fold count differs from assembly at degree %d" % n)
    # the pages stay: no cell reads a degree above its own
    _GRID[d] = entry = (D, grown, ranks, blocks, kept)
    return entry


def _column(grid, k):
    """(sizes, ranks, shift) of column k of a grid: the grid keeps columns
    0..5, and column k >= 6 is column k' = 2 + (k - 2) % 4 read
    shift = k - k' degrees lower (see the module docstring)."""
    kk = k if k < 6 else 2 + (k - 2) % 4
    return grid[1][kk], grid[2][kk], k - kk


PageCell = namedtuple("PageCell", "e1_rank kernel_rank image_rank_from_left e2_rank")


class PageReport(namedtuple("PageReport", "d R D cells total")):
    """What e2_ranks computed for one (d, R, D).  Each read of mismatch (the
    first degree where total differs from closed_form(d, R, D), or None)
    or ok builds the closed form."""

    __slots__ = ()

    @property
    def mismatch(self):
        return self.total.first_mismatch(closed_form(self.d, self.R, self.D))

    @property
    def ok(self):
        return self.mismatch is None

    def __repr__(self):
        tag = "inf" if _norm_R(self.R) is None else str(_norm_R(self.R))
        state = "ok" if self.ok else "mismatch at %d" % self.mismatch
        return "PageReport(d=%d, R=%s, D=%d, %s)" % (self.d, tag, self.D, state)


def _e2_cells(d, R, D):
    """The kept page of the R-truncation, (D', cells, total, ends, loops)
    with D' >= D: its nonzero cells of degrees <= D' as {(k, n): PageCell}
    in degree order, the total rank of each degree, ends[n], the number
    of cells of degree <= n, and loops, the loop-space series
    loopspace_series keeps per offset.

    A cell in degree n reads only columns k <= min(R, n - d): its own size
    and rank, and the rank of column k - 1 a degree lower.  None of these
    depends on the max degree, so a kept page answers every smaller D by
    its prefix, and a larger D walks the new degrees alone into a new page,
    which takes over loops.  The new page is swapped in once the walk
    finishes: the cells, totals and ends of a page handed out are never
    mutated, and a walk the e2 >= 0 guard stops keeps the old page.
    """
    Rn = _norm_R(R)
    grid = _grid(d, D)
    if D < 0:
        raise ValueError("max degree %d is below 0" % D)
    page = grid[4].get(Rn)
    if page and page[0] >= D:
        return page
    D0, cells, total, ends, loops = page or (-1, {}, [], [], {})
    cells, total, ends = dict(cells), total + [0] * (D - D0), ends[:]
    K = max(1, D - d)
    kmax = K if Rn is None else min(Rn, K)
    cols = [_column(grid, k) for k in range(kmax + 1)]
    for n in range(D0 + 1, D + 1):
        # column k >= 1 starts at its Thom degree d + k, so no read of
        # column k, or of column k - 1 a degree lower, falls below degree 0
        for k in range(min(kmax, max(n - d, 0)) + 1):
            size_at, rank_at, shift = cols[k]
            size = size_at[n - shift]
            if size == 0:
                continue
            out_rank = 0 if k == Rn else rank_at[n - shift]
            if k:
                _, rank_at, shift = cols[k - 1]
                im_in = rank_at[n - 1 - shift]
            else:
                im_in = 0
            ker = size - out_rank
            e2 = ker - im_in
            if e2 < 0:
                raise ArithmeticError(
                    "image exceeds kernel at column %d degree %d" % (k, n))
            cells[k, n] = PageCell(size, ker, im_in, e2)
            total[n] += e2
        ends.append(len(cells))
    grid[4][Rn] = page = (D, cells, total, ends, loops)
    return page


def e2_ranks(d, R, D):
    """Second-page ranks of the R-truncated sequence, all degrees <= D; the
    report builds the closed form only when its mismatch or ok is read.

    The report's cells dict may be the kept page's own: read it, never
    mutate it."""
    Dp, cells, total, ends, _ = _e2_cells(d, R, D)
    if D < Dp:
        cells = dict(islice(cells.items(), ends[D]))
    return PageReport(d, R, D, cells, Series(total, D))


def _P(a, b, D):
    return space_series(FlavoredSpace(VariableSet(a, b), FULL), D)


def _S(a, b, D):
    return space_series(FlavoredSpace(VariableSet(a, b), SYM), D)


def _A(a, b, D):
    return space_series(FlavoredSpace(VariableSet(a, b), SKEW), D)


def closed_form(d, R, D):
    """The closed-form rank series for H^*(A_R), truncated at D.

    Encoded for every d >= 1 and every R >= 1 or R = inf, by residue of
    d mod 4; raises ValueError outside that range.
    """
    enumerate_strata(d, 0)  # rejects d < 1
    Rn = _norm_R(R)
    B = _P(d, 0, D)
    # tau block: one family per a_top <= d/2 of the parity of d + 1
    tau = Series.zero(D)
    for a_top in range((d + 1) % 2, d // 2 + 1, 2):
        tau = tau + _P(a_top, d + 1 - a_top, D).tshift(
            d + 1 + 4 * ((d + 1 - a_top) // 2))
    if d % 2 == 0:
        half = d // 2
        # the fold kernel carries one extra class per symmetric
        # half-square monomial while the Euler image imposes one
        # relation per full-ring monomial; closed_form_notes gives the
        # degree where the two counts drift apart
        tau = tau + (_S(half, half, D) - _P(d, 0, D)).tshift(d + 1)
        if Rn == 1:
            # the a = 0 block is unshifted: its own two-column sequence
            # cancels the Thom shift against the image of d0
            fold = Series.zero(D)
            for a in range(1, half + 1):
                fold = fold + _P(a, d + 1 - a, D)
            return _P(0, d + 1, D) + fold.tshift(d + 1)
        if Rn is None:
            return B + tau
        r = Rn // 2
        if r % 2 == 1:
            # survivors sit at the Euler end of the top columns
            blk = Series.zero(D)
            for i in range(0, half, 2):
                blk = blk + _P(i, d - i, D)
            if d % 4 == 0:
                blk = blk + (_A(half, half, D) if Rn % 2 == 0 else _S(half, half, D))
            return B + tau + blk.tshift(2 * d + Rn)
        # r even: survivors sit right above the Thom degree
        blk = Series.zero(D)
        for a in range(half):
            blk = blk + _P(a, d - a, D)
        blk = blk + (_S(half, half, D) if Rn % 2 == 0 else _A(half, half, D))
        return B + tau + blk.tshift(d + Rn)
    # d odd
    d2 = (d + 1) // 2
    sig = _A(d2, d2, D).tshift(d + 1)
    icls = Series.zero(D)
    for a in range(0, d2, 2):
        icls = icls + _P(a, d + 1 - a, D)
    if d % 4 == 3:
        icls = icls + _S(d2, d2, D)
    icls = icls.tshift(2 * d + 2)
    if Rn == 1:
        fold = Series.zero(D)
        for a in range(d2):
            fold = fold + _P(a, d + 1 - a, D)
        return B + sig + fold.tshift(d + 1) + icls
    if Rn is None:
        return B + sig + icls + tau
    r = Rn // 2
    if r % 2 == 1:
        return B + sig + icls + tau
    blk = Series.zero(D)
    for a in range(d2):
        blk = blk + _P(a, d - a, D)
    return B + sig + icls + tau + blk.tshift(d + Rn)


def closed_form_notes(d, R):
    """Conventions baked into closed_form that a report should surface."""
    enumerate_strata(d, 0)  # rejects d < 1
    notes = []
    Rn = _norm_R(R)
    if d % 2 == 0 and Rn == 1:
        notes.append("a=0 fold block encoded unshifted; its own two-column "
                     "sequence cancels the Thom shift")
    if d % 2 == 0 and d >= 6 and (Rn is None or Rn >= 2):
        # the two rank series first differ in degree 12 at d = 6 and in
        # degree 8 for every even d >= 8, so truncating at 12 finds the gap
        gap = _S(d // 2, d // 2, 12).first_mismatch(_P(d, 0, 12))
        notes.append("tau block adjusted by t^(d+1)(s(d/2,d/2) - b(d)): the "
                     "fold kernel and the Euler image drift apart from "
                     "degree %d on" % (d + 1 + gap))
    if d % 2 == 1:
        notes.append("odd-d tau block encoded over P(2j, d+1-2j); Euler block "
                     "over even a <= (d-1)/2")
        if Rn is not None and Rn >= 2 and (Rn // 2) % 2 == 1:
            notes.append("for odd d the truncations 2r and 2r+1 with r odd "
                         "match the untruncated series")
    return notes


class GeneratorClass(namedtuple("GeneratorClass", "kind family mono degree recipe")):
    """One explicit fold-column kernel class, built from the basis element
    (stratum, piece, mono) of its recipe (stratum, piece).

    kind is 'tau', 'sigma', 'i', or 'i_top'; family is the tau index j,
    the even symbol a of an I class, or None.  An I class is its element of
    the fold column's Euler part, and the even-d sigma class of e.m in
    column 0 is d0(e.m); a tau or odd-d sigma class restricts its element
    of the Euler-free piece of a fold stratum (a_top, d+1-a_top) down the
    fold staircase.  Its vector (_vectors) and data, the defining
    polynomial, are built on each read."""

    __slots__ = ()

    @property
    def data(self):
        s, piece = self.recipe
        if s.level == 0:  # d0(e.m): s_hom(m) in P(d, d)
            return s_hom(self.mono, VariableSet(s.a, s.a))
        return _terms(piece.flavor, self.mono)

    def label(self):
        if self.kind == "tau":
            return "tau[j=%d](%s)" % (self.family, poly_str(self.data))
        if self.kind == "sigma":
            return "sigma(%s)" % poly_str(self.data)
        if self.kind == "i":
            return "I[a=%d](%s)" % (self.family, poly_str(self.data))
        return "I_top(%s)" % poly_str(self.data)

    def expansion(self, d, basis):
        """The class as {position: int} in basis, the fold basis of its
        degree, built anew on each call and kept by no one."""
        return _vectors(d, [self], basis)[0]

    def __repr__(self):
        return "%s deg=%d" % (self.label(), self.degree)


def _vectors(d, run, basis):
    """The vectors of a run of classes of one recipe, as {position: int} in
    basis, the fold basis of their degree: one d0 call (even-d sigma), unit
    vectors (I classes) or one staircase call (tau, odd-d sigma)."""
    s, piece = run[0].recipe
    monos = [cl.mono for cl in run]
    if s.level == 0:
        return d0(d, s, piece, monos, basis.table)
    if piece.euler:
        at = basis.table(s, piece)
        return [{at[m]: 1} for m in monos]
    return staircase(d, s.a, [cl.data for cl in run], s.vars, basis.table)


def generator_classes(d, D, reps=orbit_reps):
    """All fold-column kernel generators of degree <= D, in ascending degree,
    each family's monomials listed by reps(space, internal degree).

    tau classes, one family per a_top of the parity of d + 1, restrict a
    multiple of the top primed variable of P(a_top, d+1-a_top) down the
    fold staircase.  For even d the sigma class of m is d0(e.m), e.m an
    Euler element of column 0; for odd d the sigma classes restrict a skew
    polynomial from the top fold stratum, and the Euler part of the fold
    column, which the fold rule kills and nothing maps into, gives the I
    classes (I_top at a = b).  Each degree lists tau in ascending a_top,
    then sigma, then the I classes stratum by stratum.
    """
    fold_strata = enumerate_strata(d, 1)  # rejects d < 1
    if D < 0:
        raise ValueError("max degree %d is below 0" % D)
    # (kind, family, recipe); tau: one family per a_top
    families = [("tau", s.a // 2, (s, _piece_for(s, False)))
                for s in fold_strata[(d + 1) % 2:d // 2 + 1:2]]
    # sigma: column 0's Euler part for even d, the skew top fold stratum for odd d
    s = enumerate_strata(d, 0)[0] if d % 2 == 0 else fold_strata[-1]
    families.append(("sigma", None, (s, _piece_for(s, s.level == 0))))
    # the Euler part of the fold column: none for even d, where a + b is odd
    for s in fold_strata:
        if piece := _piece_for(s, True):
            families.append(("i_top", None, (s, piece)) if s.a == s.b
                            else ("i", s.a, (s, piece)))
    out = []
    for n in range(D + 1):
        for kind, family, recipe in families:
            s, piece = recipe
            # a class of degree n is an element of degree n - 1 in column 0
            # (d0 raises the degree by one) or n in the fold column; tau
            # keeps the monomials the top primed variable divides
            out += [GeneratorClass(kind, family, m, n, recipe)
                    for m in reps(piece.space(s), n - 1 + s.level - piece.offset(s))
                    if kind != "tau" or m[1][-1]]
    return out


class CheckReport(namedtuple("CheckReport", "title entries")):
    """A named list of pass/fail entries."""

    __slots__ = ()

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.entries)

    def lines(self):
        out = []
        for name, ok, detail in self.entries:
            mark = "ok  " if ok else "FAIL"
            out.append("%s %s%s" % (mark, name, " (%s)" % detail if detail else ""))
        return out

    def __repr__(self):
        return "\n".join([self.title] + ["  " + l for l in self.lines()])


def assemble_columns(d, D):
    """The reader verify's checks share: maps(k, n) is assemble_matrix(d, k,
    n, maps.reps), assembled on its first read and kept.  The kept matrices
    share their bases, so the reader builds each (column, degree) basis
    once; maps.reps, orbit_reps kept per (space, degree) by this reader
    alone, lists the monomials of every block and generator class once."""
    if D < 0:
        raise ValueError("max degree %d is below 0" % D)
    maps = cache(lambda k, n: assemble_matrix(d, k, n, maps.reps))
    maps.reps = cache(orbit_reps)
    return maps


def _reader(d, D, maps):
    """A check's maps, assemble_columns(d, D) when None.  A reader does not
    depend on D, so a check given its own still rejects D < 0 here."""
    reader = assemble_columns(d, D)  # rejects D < 0
    return reader if maps is None else maps


def verify_generators(d, D, *, maps=None):
    """Check the generator families against the computed second page.

    Three checks: every class lies in the kernel of the fold differential;
    for even d the sigma classes lie in the image of d0; the remaining
    classes span a complement of that image whose rank matches e2(column 1)
    in every degree up to D.  maps, an assemble_columns(d, D) reader whose
    lists the classes share, defaults to a new one.
    """
    maps = _reader(d, D, maps)
    _, sizes, ranks, _, _ = _grid(d, D)
    classes = generator_classes(d, D, maps.reps)
    runs = defaultdict(list)  # degree -> its runs of classes of one recipe
    for (n, _), run in groupby(classes, key=attrgetter("degree", "recipe")):
        runs[n].append(list(run))
    bad_kernel = 0
    sigma_ok = True
    span_bad = None
    for n in range(1, D + 1):  # degree 0 holds no fold cell and no class
        # d0 is zero for odd d (column 0 has no Euler piece), so its
        # image rows are empty there; the grid already holds their rank
        image_rows = [col for col in maps(0, n - 1).cols if col]
        im = ranks[0][n - 1]
        fold = maps(1, n)
        sigma, rest = [], []
        for run in runs[n]:
            for cl, vec in zip(run, _vectors(d, run, fold.source)):
                bad_kernel += bool(fold.apply(vec))
                (sigma if d % 2 == 0 and cl.kind == "sigma" else rest).append(vec)
        if sigma and rank(image_rows + sigma) != im:
            sigma_ok = False
        got = rank(image_rows + rest) - im
        e2 = sizes[1][n] - ranks[1][n] - im
        if got != e2 and span_bad is None:
            span_bad = (n, got, e2)
    entries = [("generators: all classes lie in ker d1", bad_kernel == 0,
                "" if bad_kernel == 0 else
                "%d classes, %d failures" % (len(classes), bad_kernel))]
    if d % 2 == 0:
        entries.append(("generators: sigma classes lie in im d0", sigma_ok, ""))
    entries.append((
        "generators: remaining classes span E2 column 1", span_bad is None,
        "" if span_bad is None else
        "degree %d: classes give %d, page gives %d" % span_bad))
    return CheckReport("generator check d=%d, D=%d" % (d, D), entries)


def chain_check(d, D, *, maps=None):
    """d(d(x)) = 0 out of columns 0..min(5, K - 1), K = max(1, D - d), in
    every degree below D, as the products d(k + 1, n + 1) d(k, n) of
    assemble_columns(d, D)'s matrices (maps defaults to it)."""
    maps = _reader(d, D, maps)
    # column outer, degree inner: the first failing cell is the
    # smallest in (column, degree) order
    bad = next(((k, n) for k in range(min(6, max(1, D - d))) for n in range(D)
                if any(maps(k + 1, n + 1).apply(col) for col in maps(k, n).cols)),
               None)
    return CheckReport("chain check d=%d, D=%d" % (d, D), [(
        "chain condition d(d(x)) = 0", bad is None,
        "" if bad is None else "column %d degree %d" % bad)])


def collapse_check(d, D, *, maps=None):
    """kernel = image in columns 2..min(5, K), K = max(1, D - d), i.e. the
    sequence collapses.

    Each checked cell and every column-1 cell is also assembled, to
    certify its counted rank; columns 1..5 are the ones the grid counts.
    maps defaults to assemble_columns(d, D).
    """
    maps = _reader(d, D, maps)
    _, sizes, ranks, _, _ = _grid(d, D)
    # column 2 reads its images from the assembled column 1, so a
    # miscounted column 1 fails only its own entry
    fold = [maps(1, n).rank() for n in range(D + 1)]
    miscount = "degree %d: counted rank %d, assembled rank %d"
    entries = []
    for k in range(2, min(5, max(1, D - d)) + 1):
        bad = ""
        for n in range(D + 1):
            rk, got = ranks[k][n], maps(k, n).rank()
            ker = sizes[k][n] - rk
            im = 0 if n == 0 else fold[n - 1] if k == 2 else ranks[k - 1][n - 1]
            if rk != got:
                bad = miscount % (n, rk, got)
            elif ker != im:
                bad = "degree %d: kernel %d, image %d" % (n, ker, im)
            if bad:
                break
        entries.append(("collapse column %d exact" % k, not bad, bad))
    bad = next((miscount % (n, ranks[1][n], got) for n, got in enumerate(fold)
                if ranks[1][n] != got), "")
    entries.append(("column 1 counted rank exact", not bad, bad))
    return CheckReport("collapse check d=%d, D=%d" % (d, D), entries)
