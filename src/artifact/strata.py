"""The Morin stratification, one stratum per local symbol.

For dimension difference d > 0 the singularity strata of corank one are
indexed as follows.  Level 1 (the fold) has symbol pairs (a, b) with
a + b = d + 1 and a <= b.  Level k >= 2 has a + b = d; even levels carry
one stratum per pair, odd levels >= 3 carry a pair of sign strata that
merge into one when a = b.  Level 0 is the regular stratum; its content
is the cohomology of BSO_d, carried here as the degenerate pair (d, 0)
so that the Euler-class bookkeeping below stays uniform.

The content of a stratum's contribution to the first page is a list of
flavored pieces, each an (optional Euler class) times a full, symmetric,
or skew polynomial space in the stratum's variables.  The flavor rules
are reproduced independently, degree by degree, by the sign-action
oracle in actions.py; the two routes are compared in the tests.

Strata and content pieces are values: named tuples that compare and
hash by their fields.
"""

from collections import namedtuple
from functools import cache

from .grading import (
    VariableSet, FlavoredSpace, Series, FULL, SYM, SKEW, space_series,
)

PLUS, MINUS = 1, -1

# one VariableSet per symbol pair, kept until pages.clear_cache()
_variables = cache(VariableSet)


class Stratum(namedtuple("Stratum", "level a b sign")):
    __slots__ = ()

    def __new__(cls, level, a, b, sign=None):
        if level < 0 or not (sign is None or sign in (PLUS, MINUS)
                             and level >= 3 and level % 2 == 1 and a < b):
            raise ValueError("no stratum at level %r over (%r, %r) with sign %r"
                             % (level, a, b, sign))
        return tuple.__new__(cls, (level, a, b, sign))

    @property
    def vars(self):
        return _variables(self.a, self.b)

    @property
    def thom_degree(self):
        # codimension of the stratum, the degree of its Thom class
        if self.level == 0:
            return 0
        if self.level == 1:
            return self.a + self.b          # = d + 1
        return self.a + self.b + self.level  # = d + level

    @property
    def euler_degree(self):
        # e_{a,b} = e_a e_b, with e_0 = 1; for level 0 this is e_d
        return self.a + self.b

    def __repr__(self):
        tag = {None: "", PLUS: "^+", MINUS: "^-"}[self.sign]
        if self.level == 0:
            return "A_0(d=%d)" % self.a
        return "A_%d%s(%d,%d)" % (self.level, tag, self.a, self.b)


def enumerate_strata(d, level):
    """All strata of one level, sorted by a, then sign (+ before -)."""
    if d < 1:
        raise ValueError("dimension difference %d is below 1" % d)
    if level < 0:
        raise ValueError("level %d is below 0" % level)
    if level == 0:
        return [Stratum(0, d, 0)]
    if level == 1:
        return [Stratum(1, a, d + 1 - a) for a in range((d + 1) // 2 + 1)]
    out = []
    for a in range(d // 2 + 1):
        b = d - a
        if level % 2 == 0 or a == b:
            out.append(Stratum(level, a, b))
        else:
            out.append(Stratum(level, a, b, PLUS))
            out.append(Stratum(level, a, b, MINUS))
    return out


def euler_available(s):
    """e_{a,b} exists rationally iff both a and b are even (e_0 = 1)."""
    return s.a % 2 == 0 and s.b % 2 == 0


class ContentPiece(namedtuple("ContentPiece", "euler flavor")):
    """One flavored summand of a stratum's first-page content."""

    __slots__ = ()

    def space(self, s):
        return FlavoredSpace(s.vars, self.flavor)

    def offset(self, s):
        """Degree of the piece's unit on s: the Thom class, times e if Euler."""
        return s.thom_degree + (s.euler_degree if self.euler else 0)


@cache
def column_content(s):
    """Flavored pieces of one stratum, Euler-less pieces dropped.

    Level 0 and the generic strata carry P (+ e.P when the Euler class
    exists).  At a = b the swap action cuts each piece to one eigenspace:
    fold strata keep skew + e.sym, level 2r keeps sym (r even) or skew
    (r odd) on both pieces.  Odd levels >= 3 carry a single full piece,
    with an Euler factor exactly when r = (level-1)/2 is odd.  The list
    is kept per stratum until pages.clear_cache() and shared by every
    caller: read it, never mutate it.
    """
    lv = s.level
    e_ok = euler_available(s)
    if lv == 0 or lv == 1 and s.a != s.b:
        pieces = [ContentPiece(False, FULL)]
        if e_ok:
            pieces.append(ContentPiece(True, FULL))
        return pieces
    if lv == 1:
        pieces = [ContentPiece(False, SKEW)]
        if e_ok:
            pieces.append(ContentPiece(True, SYM))
        return pieces
    r = lv // 2
    if lv % 2 == 0:
        if s.a != s.b:
            flavor = FULL
        else:
            flavor = SYM if r % 2 == 0 else SKEW
        pieces = [ContentPiece(False, flavor)]
        if e_ok:
            pieces.append(ContentPiece(True, flavor))
        return pieces
    # odd level 2r + 1
    if r % 2 == 0:
        return [ContentPiece(False, FULL)]
    return [ContentPiece(True, FULL)] if e_ok else []


def content_series(s, D):
    """Rank series of one stratum's content, Thom and Euler shifts included."""
    total = Series.zero(D)
    for piece in column_content(s):
        total = total + space_series(piece.space(s), D).tshift(piece.offset(s))
    return total
