"""Bigraded polynomial bookkeeping for stratum cohomology.

A stratum with symbol pair (a, b) carries the polynomial ring

    P(a, b) = Q[p_1 .. p_{floor(a/2)}, p'_1 .. p'_{floor(b/2)}],

the rational cohomology of BSO_a x BSO_b away from Euler classes, with
deg p_i = deg p'_i = 4i.  When the two variable ranges agree the swap
involution exchanges primed and unprimed variables and splits P(a, b)
into symmetric and skew summands.  Rank counting happens in truncated
integer power series in one variable t.  free_gca_series, the one kernel
that expands a free algebra's series, runs one pass per unit of multiplicity
up to 2 m^2 adds and its log-derivative recurrence beyond; space_series
calls it for P(a, b) and its swap-fixed subring and keeps each result per
(space, D).  Series adds and shifts.

All arithmetic is exact.  A polynomial is a {monomial: int} dict, and
every map the engine applies (Whitney splitting, restriction, swap, the
attaching signs) has integer coefficients: the coefficients the engine
builds come from int literals in its rules, and no module imports
fractions.  poly_str prints such a dict.

VariableSet and FlavoredSpace are values: named tuples that compare and
hash by their fields.  The swap-orbit representative rule of the
symmetric and skew flavors is stated once, in is_orbit_rep.

The kernels the generator labels and certificates lean on (s_hom,
enumerate_monomials, mono_str and poly_str) work on exponent tuples and
plain dicts, and keep their work until pages.clear_cache(): s_hom every
Whitney image into a target with both kinds of variable (into any other
its image is one monomial, read off the exponents), with per position a
bump map from a tuple to its raised copy and, in the identity map, one
copy of each tuple and monomial; enumerate_monomials its tuples per
(weights, degree); mono_str and poly_str the degree and text per
exponent tuple; and space_series each series per (space, D).  A kept
image, tuple list or series is handed to every caller as it is, never
copied, so callers read it and never mutate it.  Bad arguments raise
ValueError and the exactness guards in space_series and free_gca_series
raise ArithmeticError, so every check holds under python -O.
"""

from collections import namedtuple
from functools import cache
from itertools import count
from math import gcd
from operator import mul


class VariableSet(namedtuple("VariableSet", "a b na nb")):
    """Variable ranges of P(a, b): floor(a/2) unprimed, floor(b/2) primed."""

    __slots__ = ()

    def __new__(cls, a, b):
        if a < 0 or b < 0:
            raise ValueError("variable set (%r, %r) has a negative rank" % (a, b))
        return tuple.__new__(cls, (a, b, a // 2, b // 2))

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, which takes (a, b)
        return (self.a, self.b)

    def square(self):
        return self.na == self.nb


# A monomial is a pair (es, fs) of exponent tuples, len(es) == na and
# len(fs) == nb of the owning VariableSet.  es[i] is the exponent of
# p_{i+1}, fs[j] of p'_{j+1}.

def mono_one(vs):
    return ((0,) * vs.na, (0,) * vs.nb)


def mono_degree(m):
    es, fs = m
    return 4 * (sum(map(mul, es, count(1))) + sum(map(mul, fs, count(1))))


def mono_mul(m1, m2):
    (e1, f1), (e2, f2) = m1, m2
    if len(e1) != len(e2) or len(f1) != len(f2):
        raise ValueError("monomials of different variable sets")
    return (tuple(x + y for x, y in zip(e1, e2)),
            tuple(x + y for x, y in zip(f1, f2)))


def mono_swap(m):
    es, fs = m
    if len(es) != len(fs):
        raise ValueError("swap needs a square variable set")
    return (fs, es)


@cache
def _exponent_tuples(weights, total):
    # all exponent tuples e >= 0 with sum(w_i * e_i) == total >= 0, in
    # lexicographic order: extend the partial tuples weight by weight,
    # each paired with the weight it leaves, then fix the last exponent.
    # A partial is made only if the weights after it sum to what it leaves
    # (so their gcd divides it); fits[n] holds the sums <= total of
    # weights[n + 1:].  Kept per (weights, total), shared by P(d, 0) and P(0, d + 1)
    if not weights:
        return [()] if total == 0 else []
    fits = [{0}]
    for w in weights[:0:-1]:
        fits.insert(0, {x + w * e for x in fits[0] for e in range((total - x) // w + 1)})
    partial = [((), total)]
    for w, fit in zip(weights[:-1], fits):
        partial = [(head + (e,), left - w * e) for head, left in partial
                   for e in range(left // w + 1) if left - w * e in fit]
    w = weights[-1]
    return [head + (left // w,) for head, left in partial if left % w == 0]


def enumerate_monomials(vs, degree):
    """All monomials of P(a, b) of the given degree, ordered by their
    primed, then unprimed exponent tuples.

    That puts p_1 before p'_1, and orders the degree 8 block of P(2, 2)
    as p_1^2, p_1 p'_1, p'_1^2.
    """
    if degree < 0 or degree % 4 != 0:
        return []
    # with the primed weights first, _exponent_tuples' lexicographic
    # order is the order of (fs, es)
    weights = tuple(range(4, 4 * vs.nb + 1, 4)) + tuple(range(4, 4 * vs.na + 1, 4))
    nb = vs.nb
    return [(t[nb:], t[:nb]) for t in _exponent_tuples(weights, degree)]


def _tuple_text(t):
    # an exponent tuple's weighted degree and its text as unprimed and as
    # primed variables, each variable led by a space: " p_1^2 p_3"
    parts = ["_%d" % i if e == 1 else "_%d^%d" % (i, e) for i, e in enumerate(t, 1) if e]
    return (4 * sum(map(mul, t, count(1))), "".join(" p" + v for v in parts),
            "".join(" p'" + v for v in parts))


def mono_str(m):
    return (_TEXT[m[0]][1] + _TEXT[m[1]][2])[1:] or "1"


def poly_str(terms):
    """A {monomial: int} dict as text: "p_1 - 2 p'_1", "0".

    The terms are in graded order, then by primed, then unprimed exponent
    tuples.  The unit (all exponents zero) prints as its coefficient
    alone.  The degree and text of each exponent tuple are read from one
    table; the terms are sorted once on (degree, primed, unprimed).
    """
    rows = []
    for (es, fs), c in terms.items():
        (de, te, _), (df, _, tf) = _TEXT[es], _TEXT[fs]
        rows.append((de + df, fs, es, c, te + tf))
    # the leading term drops its " + " and writes " - " as "-"
    out = "".join((" - " if c < 0 else " + ") + (body[1:] or "1") if c in (1, -1)
                  else "%s %d%s" % (" -" if c < 0 else " +", abs(c), body)
                  for _, _, _, c, body in sorted(rows))
    return "0" if not out else out[3:] if out[1] == "+" else "-" + out[3:]


def restrict_terms(terms, va, to):
    """Carry a {monomial: int} dict in the variables va over to the set to.

    Monomials that use a variable missing from the target map to 0; the
    rest are carried over unchanged.  Either range may shrink or grow.
    """
    na, nb = to.na, to.nb
    cut_a, cut_b = (0,) * (va.na - na), (0,) * (va.nb - nb)
    pad_a, pad_b = (0,) * (na - va.na), (0,) * (nb - va.nb)
    # kept monomials are zero past the target ranges, so none collide
    return {(es[:na] + pad_a, fs[:nb] + pad_b): c for (es, fs), c in terms.items()
            if es[na:] == cut_a and fs[nb:] == cut_b}


def restriction(va, to):
    """restrict_terms' map of one monomial: m in the variables va to its
    copy in the set to, or None when m uses a variable missing from to."""
    na, nb = to.na, to.nb
    cut_a, cut_b = (0,) * (va.na - na), (0,) * (va.nb - nb)
    pad_a, pad_b = (0,) * (na - va.na), (0,) * (nb - va.nb)

    def move(m):
        es, fs = m
        if es[na:] == cut_a and fs[nb:] == cut_b:
            return es[:na] + pad_a, fs[:nb] + pad_b
        return None
    return move


class _Filled(dict):
    """A dict that fills a missing key k with fill(k) and keeps it."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, k):
        v = self[k] = self.fill(k)
        return v


# Whitney images kept per target VariableSet, by source exponent tuple.
# _BUMPS[j] maps an exponent tuple t to the one copy of t with exponent j
# raised by 1; _BUMPS[-1] keeps t and holds the one copy of every tuple the
# maps return and of every monomial the images hold (a monomial is a pair
# of tuples, so no key of one kind equals a key of the other).  _TEXT holds
# the degree and text of each exponent tuple that mono_str or poly_str reads
_IMAGES = {}
_BUMPS = _Filled(lambda j: _Filled(
    lambda t: t if j < 0 else _BUMPS[-1][t[:j] + (t[j] + 1,) + t[j + 1:]]))
_TEXT = _Filled(_tuple_text)


def _times_p(terms, i, target):
    """terms times the image sum_{j=0}^{i} p_j p'_{i-j} of p_i in target.

    A term p_j p'_k raises the exponents at positions (j - 1, k - 1),
    where -1 stands for the unit p_0 = p'_0; out-of-range factors are 0.
    """
    factor = [(_BUMPS[j - 1], _BUMPS[i - j - 1])
              for j in range(max(0, i - target.nb), min(i, target.na) + 1)]
    out = {}
    get, share = out.get, _BUMPS[-1].setdefault
    for (eu, fu), c in terms.items():
        for be, bf in factor:
            m2 = (be[eu], bf[fu])
            old = get(m2)
            if old is None:  # first in the image: the one shared copy
                out[share(m2, m2)] = c
            else:
                out[m2] = old + c
    return out


def s_hom(m, target):
    """Whitney splitting of a single-set monomial into P(a, b), as a
    {monomial: int} dict.

    The source monomial lives in Q[p_1 .. p_n] (a VariableSet with no
    primed part).  Each p_i goes to sum_{j=0}^{i} p_j p'_{i-j} with
    p_0 = p'_0 = 1 and any out-of-range factor set to 0.  When the
    target has no unprimed or no primed variables that sum is the one
    term p_i or p'_i, or 0, so the image of m is one monomial or {},
    read off m's exponents and not kept.  Into other targets images are
    kept until pages.clear_cache(): the image of m is the kept image of
    m / p_i times the image of p_i, for the first p_i that divides m,
    built bottom up in a loop, so no exponent is too deep.  Exponents
    go up through bump maps, and equal monomials and exponent tuples in
    the kept images, the unit's zero tuples included, are one object.
    A kept dict is shared by every caller: read it, never mutate it.
    """
    es, fs = m
    if any(fs):
        raise ValueError("s_hom sources carry no primed variables")
    if not (target.na and target.nb):
        # each p_i goes to the one term p_i or p'_i, or to 0 past the range
        n = target.na or target.nb
        if any(es[n:]):
            return {}
        e = es[:n] + (0,) * (n - len(es))
        return {(e, ()) if target.na else ((), e): 1}
    table = _IMAGES.setdefault(target, {})
    chain = []  # (exponents, index i of the p_i that divides them), top down
    while es not in table and any(es):
        # dividing by the first p_i multiplies by the shortest factor
        i = next(t for t, e in enumerate(es) if e)
        chain.append((es, i + 1))
        es = es[:i] + (es[i] - 1,) + es[i + 1:]
    terms = table.get(es)
    if terms is None:  # the unit, times p_0 = 1 to share its zero tuples
        terms = table[es] = _times_p({mono_one(target): 1}, 0, target)
    for es, i in reversed(chain):
        terms = table[es] = _times_p(terms, i, target)
    return terms


class Series:
    """Integer power series in t truncated at degree D."""

    __slots__ = ("c", "D")

    def __init__(self, coeffs, D):
        coeffs = list(coeffs)
        if D < 0:
            raise ValueError("max degree %d is below 0" % D)
        coeffs = coeffs[: D + 1] + [0] * (D + 1 - len(coeffs))
        self.c = coeffs
        self.D = D

    @classmethod
    def zero(cls, D):
        return cls([0], D)

    def tshift(self, k):
        """Multiply by t^k, keeping the truncation bound."""
        if k < 0:
            raise ValueError("shift %d is below 0" % k)
        return Series([0] * k + self.c, self.D)

    def _same_D(self, other):
        if self.D != other.D:
            raise ValueError("series truncated at %d and %d" % (self.D, other.D))

    def __add__(self, other):
        self._same_D(other)
        return Series([x + y for x, y in zip(self.c, other.c)], self.D)

    def __sub__(self, other):
        self._same_D(other)
        return Series([x - y for x, y in zip(self.c, other.c)], self.D)

    def __eq__(self, other):
        return isinstance(other, Series) and self.D == other.D and self.c == other.c

    def __getitem__(self, n):
        return self.c[n]

    def first_mismatch(self, other):
        """Smallest degree where the two series differ, or None."""
        self._same_D(other)
        for n in range(self.D + 1):
            if self.c[n] != other.c[n]:
                return n
        return None

    def __repr__(self):
        return "Series(%s)" % (",".join(str(x) for x in self.c))


FULL, SYM, SKEW = "full", "sym", "skew"


class FlavoredSpace(namedtuple("FlavoredSpace", "vars flavor")):
    """A graded piece of stratum content: P(a, b), or its swap eigenspace."""

    __slots__ = ()

    def __new__(cls, vs, flavor):
        if flavor not in (FULL, SYM, SKEW):
            raise ValueError("unknown flavor %r" % (flavor,))
        if flavor != FULL and not vs.square():
            raise ValueError("%s needs a square variable set" % flavor)
        return tuple.__new__(cls, (vs, flavor))

    @classmethod
    def single(cls, d):
        """Q[p_1 .. p_{floor(d/2)}], the Pontryagin ring of BSO_d."""
        return cls(VariableSet(d, 0), FULL)


def free_gca_series(gens, D):
    """Poincare series of a free graded-commutative algebra, truncated at D.

    gens maps generator degree (>= 1) to multiplicity (>= 0): the algebra
    is polynomial on the even generators and exterior on the odd ones.
    A degree-0 entry would sit in the unit; it and a negative
    multiplicity raise ValueError, for the lowest such degree first.
    The series comes from one pass per unit of multiplicity, g (D - n + 1)
    additions per generator, or from the log-derivative recurrence on the
    multiples of q = gcd(n <= D), about m^2 / 2 products for m = D // q:
    the passes run when they add at most 2 m^2 times.
    """
    for n in sorted(gens):
        if n < 1 or gens[n] < 0:
            raise ValueError("generator degree %d with multiplicity %d: the "
                             "degree must be >= 1 and the multiplicity >= 0"
                             % (n, gens[n]))
    live = {n: g for n, g in gens.items() if n <= D and g}
    c = [1] + [0] * D
    q = gcd(*live) or 1
    m = D // q
    # per call the paths break even near 0.5-2 m^2 adds (Python 3.11, 2-CPU
    # VM); on the session-sweep and e2-cold calls 1-2 m^2 is within 5 % of best
    if sum(g * (D - n + 1) for n, g in live.items()) <= 2 * m * m:
        for n, g in live.items():
            # an even generator divides by 1 - t^n: ascending k reads the
            # coefficients this pass already raised.  An odd one multiplies
            # by 1 + t^n: descending k reads only the old ones
            ks = range(n, D + 1) if n % 2 == 0 else range(D, n - 1, -1)
            for _ in range(g):
                for k in ks:
                    c[k] += c[k - n]
        return Series(c, D)
    # t C' = B C for B = sum n g t^n / (1 -+ t^n); on the multiples of q,
    # k q c_kq = sum_{i=1..k} b_iq c_(k-i)q, with rb the b_iq reversed
    b = [0] * (m + 1)
    for n, g in live.items():
        for j, i in enumerate(range(n // q, m + 1, n // q)):
            b[i] += n * g if n % 2 == 0 or j % 2 == 0 else -n * g
    rb, cq = b[::-1], [1]
    for k in range(1, m + 1):
        x, r = divmod(sum(map(mul, cq, rb[m - k:])), k * q)
        if r:
            raise ArithmeticError("coefficient %d is not whole" % (k * q))
        cq.append(x)
    c[::q] = cq
    return Series(c, D)


@cache
def space_series(space, D):
    """Rank generating series of a flavored space, truncated at D.

    Kept per (space, D) until pages.clear_cache(): the returned Series is
    the kept one, shared by every caller, who reads it and never mutates it.
    """
    vs = space.vars
    full = free_gca_series({4 * i: (i <= vs.na) + (i <= vs.nb)
                            for i in range(1, max(vs.na, vs.nb) + 1)}, D)
    if space.flavor == FULL:
        return full
    # swap-fixed monomials have es == fs, so they form a free ring on
    # the doubled degrees 8, 16, ...
    fixed = free_gca_series({8 * i: 1 for i in range(1, vs.na + 1)}, D)
    if space.flavor == SYM:
        pair = full + fixed
    else:
        pair = full - fixed
    if any(x % 2 for x in pair.c):
        raise ArithmeticError("swap orbit count of %r is not whole" % (space,))
    return Series([x // 2 for x in pair.c], D)


def is_orbit_rep(flavor, m):
    """Whether monomial m stands for a basis vector of a space of this flavor.

    FULL keeps every monomial.  SYM keeps one representative per swap
    orbit, m[1] <= m[0], standing for m + swap m (m itself when fixed).
    SKEW keeps the representative of each free orbit, m[1] < m[0],
    standing for m - swap m.
    """
    if flavor == FULL:
        return True
    if flavor == SYM:
        return m[1] <= m[0]
    return m[1] < m[0]


def orbit_reps(space, degree):
    """The monomials standing for a basis of one degree of a flavored space."""
    return [m for m in enumerate_monomials(space.vars, degree)
            if is_orbit_rep(space.flavor, m)]
