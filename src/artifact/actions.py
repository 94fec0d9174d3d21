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
invariants by signed orbit enumeration, degree by degree.  A
substitution's sign on an ambient element depends only on its Euler
flags, so each stratum reads one sign table per flag pair and walks
each orbit once.  It is the independent route to the content rules
hard-coded in strata.py (it imports them only to compare), and the
crosscheck between the two is part of the acceptance suite.
"""

from collections import namedtuple

from .grading import Series, enumerate_monomials, mono_swap
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


def apply_gen(g, s, x):
    """Apply a substitution to an ambient basis element (ea, eb, mono).

    Returns (sign, element), the sign being gen_sign's.
    """
    ea, eb, m = x
    if not g.exchange:
        return gen_sign(g, s, ea, eb), x
    if s.a != s.b:
        raise ValueError("exchange applied to stratum %r with a != b" % (s,))
    return gen_sign(g, s, ea, eb), (eb, ea, mono_swap(m))


def ambient_elements(s, n):
    """Ambient basis elements of total degree n over one stratum."""
    out = []
    ea_range = (0, 1) if (s.a % 2 == 0 and s.a >= 2) else (0,)
    eb_range = (0, 1) if (s.b % 2 == 0 and s.b >= 2) else (0,)
    for ea in ea_range:
        for eb in eb_range:
            md = n - s.thom_degree - ea * s.a - eb * s.b
            if md < 0:
                continue
            for m in enumerate_monomials(s.vars, md):
                out.append((ea, eb, m))
    return out


def invariant_series(s, D):
    """Invariant ranks by signed orbit counting.

    An orbit contributes 1 unless some group element fixes one of its
    elements with sign -1, in which case the signed orbit sum vanishes.
    A substitution that exchanges maps x = (ea, eb, m) to (eb, ea, swap m)
    and any other fixes x, so the orbit of x is {x, swap x}, and the
    elements fixing x are all of G if x is swap-fixed and the
    non-exchanging ones if not.  Their signs depend on x only through
    (ea, eb), so one table says whether an orbit dies: O(1) per x.
    """
    G = group_closure(symmetry_action(s))
    swap = next((g for g in G if g.exchange), None)
    # (ea, eb, x swap-fixed) -> whether a substitution fixing x has sign -1
    dead = {(ea, eb, fixed): any(gen_sign(g, s, ea, eb) < 0
                                 for g in G if fixed or not g.exchange)
            for ea in (0, 1) for eb in (0, 1) for fixed in (False, True)}
    c = [0] * (D + 1)
    for n in range(s.thom_degree, D + 1):
        seen = set()
        for x in ambient_elements(s, n):
            fixed = False
            if swap is not None:
                if x in seen:
                    continue
                y = apply_gen(swap, s, x)[1]
                seen.add(y)
                fixed = y == x
            c[n] += not dead[x[0], x[1], fixed]
    return Series(c, D)


def oracle_crosscheck(d, level, D):
    """Compare invariant_series with the hard-coded content, stratum by stratum."""
    entries = []
    for s in enumerate_strata(d, level):
        mis = invariant_series(s, D).first_mismatch(content_series(s, D))
        entries.append((repr(s), mis is None,
                        "" if mis is None else "first mismatch at degree %d" % mis))
    return CheckReport("oracle crosscheck d=%d, level %d" % (d, level), entries)
