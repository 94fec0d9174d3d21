"""Sign-action oracle for stratum content.

Each stratum's contribution to the first page is the invariant part of
the ambient Thom-class module

    U_a . U_b . (U_k) . e_a^{eps_a} e_b^{eps_b} . P(a, b)

under the residual symmetry group of the local symbol (U_k is the extra
Thom factor present at levels >= 2, e_a exists only for even a >= 2).
The group has order at most 4 and acts by signed symbol substitutions;
applying a substitution to the ordered product above picks up Koszul
signs when two odd-degree symbols trade places.

This module builds those groups from the generator tables and counts
invariants by the trace formula of Molien's theorem (T. Molien, 1897;
R. P. Stanley, "Invariants of finite groups and their applications to
combinatorics", Bull. AMS 1, 1979): the invariant rank in degree n is
(1/|G|) sum_g tr(g | degree n).  A substitution's sign on an ambient
element depends only on the element's Euler flags, so each trace is a
short signed sum of shifted ring series.

It is the independent route to the content rules hard-coded in
strata.py (it imports them only to compare): the flavors and Euler
pieces come from the sign tables alone, never from column_content.  It
shares only the ring-series arithmetic with the engine, space_series of
the full ring P(a, b) and free_gca_series of its swap-fixed subring.
The crosscheck between the two routes is part of the acceptance suite.
"""

from collections import namedtuple

from .grading import FULL, FlavoredSpace, Series, free_gca_series, space_series
from .strata import enumerate_strata, content_series
from .pages import CheckReport


class ActionGen(namedtuple("ActionGen", "exchange su_a su_b su_k se_a se_b")):
    """A signed symbol substitution.

    With exchange set, U_a maps to su_a * U_b and U_b to su_b * U_a
    (likewise e_a, e_b with se_a, se_b) and the polynomial variables
    trade primes; otherwise every symbol maps to its own signed copy.
    su_k is the sign on the extra Thom factor of levels >= 2.
    """

    __slots__ = ()


IDENTITY = ActionGen(False, 1, 1, 1, 1, 1)


def compose(g, h):
    """g after h, as substitutions."""
    return ActionGen(
        g.exchange != h.exchange,
        h.su_a * (g.su_b if h.exchange else g.su_a),
        h.su_b * (g.su_a if h.exchange else g.su_b),
        h.su_k * g.su_k,
        h.se_a * (g.se_b if h.exchange else g.se_a),
        h.se_b * (g.se_a if h.exchange else g.se_b),
    )


def group_closure(gens):
    items = {IDENTITY}
    items.update(gens)
    changed = True
    while changed:
        changed = False
        for g in list(items):
            for h in list(items):
                gh = compose(g, h)
                if gh not in items:
                    items.add(gh)
                    changed = True
    if len(items) > 4:
        raise ArithmeticError("symmetry group of order %d exceeds 4" % len(items))
    return sorted(items)


def symmetry_action(s):
    """Generators of the residual symmetry group of one stratum."""
    if s.level < 1:
        raise ValueError("level %d is below 1" % s.level)
    beta = ActionGen(False, -1, -1, 1, -1, -1)
    lv = s.level
    if lv == 1:
        if s.a == 0:
            return []
        if s.a != s.b:
            return [beta]
        if s.a % 2 == 0:
            alpha = ActionGen(True, -1, 1, 1, -1, 1)
        else:
            alpha = ActionGen(True, 1, 1, 1, 1, 1)
        return [alpha, beta]
    r = lv // 2
    if lv % 2 == 0:
        if s.a == 0:
            return []
        if s.a != s.b:
            return [beta]
        sk = -1 if r % 2 else 1
        if s.a % 2 == 0:
            alpha = ActionGen(True, 1, 1, sk, 1, 1)
        else:
            # the twist reverses one orientation, so the Euler sign
            # must track the Thom sign or the closure leaks past Z/4
            alpha = ActionGen(True, 1, -1, sk, 1, -1)
        return [alpha, beta]
    # odd level 2r + 1
    sk = -1 if (r + 1) % 2 else 1
    if s.a == 0:
        return [ActionGen(False, 1, -1, sk, 1, -1)]
    alpha = ActionGen(False, -1, 1, sk, -1, 1)
    return [alpha, beta]


def gen_sign(g, s, ea, eb):
    """The sign g picks up on every ambient element with Euler flags (ea, eb).

    The Koszul sign (-1)^(a*b) enters once for the U_a U_b transposition
    and once more for e_a e_b when both Euler factors are present.
    """
    sign = g.su_a * g.su_b
    if s.level >= 2:
        sign *= g.su_k
    if ea:
        sign *= g.se_a
    if eb:
        sign *= g.se_b
    if g.exchange:
        koszul = -1 if (s.a * s.b) % 2 else 1
        sign *= koszul
        if ea and eb:
            sign *= koszul
    return sign


def invariant_series(s, D):
    """Invariant ranks by the trace formula.

    The invariant rank in degree n is (1/|G|) sum_g tr(g | degree n),
    by Molien's theorem (T. Molien, 1897; R. P. Stanley, Bull. AMS 1,
    1979).  The flavors come from the sign tables alone; only the ring
    series of P(a, b) and of its swap-fixed subring are shared.  Every g
    maps each ambient element x = (ea, eb, m) to a signed element, with
    gen_sign's sign, so tr(g) sums that sign over the x that g fixes.
    A non-exchanging g fixes every x: its trace is
    sum_{ea, eb} gen_sign(g, s, ea, eb) #P(a, b) in degree
    n - thom - ea a - eb b.  An exchanging g, which exists only at
    a = b, maps x to (eb, ea, swap m), so it fixes exactly the x with
    ea = eb and m = swap m: the free ring on the degrees 8i, i <= a/2.
    The division by |G| must be exact, or ArithmeticError names the
    stratum and the degree; an exchange at a != b raises ValueError.
    """
    G = group_closure(symmetry_action(s))
    vs = s.vars
    full = space_series(FlavoredSpace(vs, FULL), D).c
    fixed = free_gca_series({8 * i: 1 for i in range(1, vs.na + 1)}, D).c
    # e_a exists only for even a >= 2
    ea_range = (0, 1) if s.a % 2 == 0 and s.a >= 2 else (0,)
    eb_range = (0, 1) if s.b % 2 == 0 and s.b >= 2 else (0,)
    flags = [(ea, eb) for ea in ea_range for eb in eb_range]
    total = [0] * (D + 1)
    for g in G:
        if g.exchange and s.a != s.b:
            raise ValueError("exchange applied to stratum %r with a != b" % (s,))
        ring = fixed if g.exchange else full
        for ea, eb in flags:
            if g.exchange and ea != eb:
                continue
            sign = gen_sign(g, s, ea, eb)
            shift = s.thom_degree + ea * s.a + eb * s.b
            for n in range(shift, D + 1):
                total[n] += sign * ring[n - shift]
    c = []
    for n, t in enumerate(total):
        q, r = divmod(t, len(G))
        if r:
            raise ArithmeticError("trace sum %d of %r in degree %d is not a "
                                  "multiple of |G| = %d" % (t, s, n, len(G)))
        c.append(q)
    return Series(c, D)


def oracle_crosscheck(d, level, D):
    """Compare invariant_series with the hard-coded content, stratum by stratum."""
    entries = []
    for s in enumerate_strata(d, level):
        mis = invariant_series(s, D).first_mismatch(content_series(s, D))
        entries.append((repr(s), mis is None,
                        "" if mis is None else "first mismatch at degree %d" % mis))
    return CheckReport("oracle crosscheck d=%d, level %d" % (d, level), entries)
