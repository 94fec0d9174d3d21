"""Differential rules and assembled matrices."""

import hashlib
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import differentials
from artifact.grading import (
    mono_swap, s_hom, restrict_terms, is_orbit_rep, FULL, SYM, SKEW,
)
from artifact.strata import Stratum, column_content, PLUS, MINUS
from artifact.e1 import BasisElement, build_basis
from artifact.differentials import (
    fold_sign, COVER_FACTOR, element_terms, d0, d_fold,
    differential, assemble_matrix, _expand,
)
from artifact.pages import chain_check


def _by_name(image):
    return {repr(el): c for el, c in image.items()}


def _apply_differential(d, vec):
    """The differential of an integer combination {BasisElement: int}.

    The element-wise reference for chain_check's matrix products: terms
    that cancel are dropped, so the image is {} exactly when it is zero.
    """
    out = {}
    for el, c in vec.items():
        for tel, tc in differential(d, el).items():
            v = out.get(tel, 0) + c * tc
            if v:
                out[tel] = v
            else:
                del out[tel]
    return out


# The rules out of columns k >= 1 element by element, each element
# building its term dict and one basis element per image term: the
# reference the block rules of differentials.block_columns must match.

def _ref_terms(el):
    m = el.mono
    if el.piece.flavor == FULL:
        return {m: 1}
    sm = mono_swap(m)
    if el.piece.flavor == SYM:
        return {m: 1} if sm == m else {m: 1, sm: 1}
    if sm == m:
        raise ValueError("skew element on the swap-fixed monomial %r" % (m,))
    return {m: 1, sm: -1}


def _ref_plus_swap(terms, sign):
    out = dict(terms)
    for m, c in terms.items():
        sm = mono_swap(m)
        out[sm] = out.get(sm, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _ref_expand(out, s, euler, terms, coef=1):
    if not terms or coef == 0:
        return
    piece = next((p for p in column_content(s) if p.euler == euler), None)
    if piece is None:
        raise ArithmeticError("image hits a stratum without matching content")
    sign = {SYM: 1, SKEW: -1}.get(piece.flavor)
    if sign and any(terms.get(mono_swap(m), 0) != sign * c for m, c in terms.items()):
        raise ArithmeticError("image claimed %s is not"
                              % ("symmetric" if sign == 1 else "skew"))
    for m, c in terms.items():
        if not is_orbit_rep(piece.flavor, m):
            continue
        el = BasisElement(s, piece, m)
        v = out.get(el, 0) + coef * c
        if v:
            out[el] = v
        else:
            out.pop(el, None)


def _ref_fold(d, el):
    s = el.stratum
    out = {}
    if el.piece.euler:
        return out
    a, b = s.a, s.b
    p = _ref_terms(el)
    if a:
        t = Stratum(2, a - 1, b)
        _ref_expand(out, t, False, restrict_terms(p, s.vars, t.vars))
    if a < b:
        t = Stratum(2, a, b - 1)
        q = restrict_terms(p, s.vars, t.vars)
        _ref_expand(out, t, False, _ref_plus_swap(q, -1) if a == b - 1 else q)
    return out


def _ref_even_col(d, el):
    s = el.stratum
    lv = s.level
    r = lv // 2
    out = {}
    if (r % 2 == 0) == el.piece.euler:
        return out
    p = _ref_terms(el)
    for sign in (PLUS, MINUS) if s.a != s.b else (None,):
        _ref_expand(out, Stratum(lv + 1, s.a, s.b, sign), el.piece.euler, p,
                    differentials.COVER_FACTOR)
    return out


def _ref_odd_col(d, el):
    s = el.stratum
    lv = s.level
    r = (lv - 1) // 2
    out = {}
    t = Stratum(lv + 1, s.a, s.b)
    p = _ref_terms(el)
    if s.a != s.b:
        sheet = 1 if s.sign == PLUS else -1
        _ref_expand(out, t, el.piece.euler, p, sheet)
    elif el.piece.euler != (r % 2 == 1):
        raise ArithmeticError("Euler flag %r at a = b in column %d"
                              % (el.piece.euler, lv))
    elif r % 2 == 0:
        _ref_expand(out, t, False, _ref_plus_swap(p, -1))
    else:
        _ref_expand(out, t, True, _ref_plus_swap(p, 1))
    return out


def _ref_columns(d, k, n):
    """assemble_matrix(d, k, n).cols by the per-element rules (d0 for k = 0)."""
    rule = (d0 if k == 0 else _ref_fold if k == 1 else
            _ref_even_col if k % 2 == 0 else _ref_odd_col)
    index = {el: i for i, el in enumerate(build_basis(d, k + 1, n + 1))}
    return [{index[tel]: c for tel, c in rule(d, el).items()}
            for el in build_basis(d, k, n)]


class TestD0:
    def test_plain_monomials_die(self):
        basis = build_basis(4, 0, 8)
        for el in basis:
            if not el.piece.euler:
                assert d0(4, el) == {}

    def test_euler_unit_hits_every_fold_stratum(self):
        basis = build_basis(4, 0, 4)
        (el,) = [el for el in basis if el.piece.euler]
        image = _by_name(d0(4, el))
        assert image == {"U_{0,5,1}.1": 1, "U_{1,4,1}.1": -1, "U_{2,3,1}.1": 1}

    def test_euler_p1_splits(self):
        basis = build_basis(4, 0, 8)
        (el,) = [el for el in basis if el.piece.euler]
        image = _by_name(d0(4, el))
        # p_1 -> p'_1 on (0,5) and (1,4), -> p_1 + p'_1 on (2,3)
        assert image == {
            "U_{0,5,1}.p'_1": 1, "U_{1,4,1}.p'_1": -1,
            "U_{2,3,1}.p_1": 1, "U_{2,3,1}.p'_1": 1,
        }

    def test_odd_dimension_has_no_euler_source(self):
        for n in (5, 9, 13):
            for el in build_basis(5, 0, n):
                assert not el.piece.euler
                assert d0(5, el) == {}

    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10, 12])
    def test_matches_whitney_image_per_target(self, d):
        # reference: the Whitney image built in each target's own variables
        def per_target(el):
            out = {}
            for a in range(d // 2 + 1):
                t = Stratum(1, a, d + 1 - a)
                _expand(out, t, False, s_hom((el.mono[0], ()), t.vars),
                        fold_sign(a))
            return out

        seen = 0
        for n in range(41):
            for el in build_basis(d, 0, n):
                if el.piece.euler:
                    seen += 1
                    assert d0(d, el) == per_target(el)
        assert seen


class TestDFold:
    def test_a0_restricts(self):
        el = [e for e in build_basis(4, 1, 9)][0]
        assert repr(el) == "U_{0,5,1}.p'_1"
        image = _by_name(d_fold(4, el))
        assert image == {"U_{0,4,2}.p'_1": 1}

    def test_middle_spreads_two_ways(self):
        el = [e for e in build_basis(4, 1, 9) if e.stratum.a == 1][0]
        image = _by_name(d_fold(4, el))
        assert image == {"U_{0,4,2}.p'_1": 1, "U_{1,3,2}.p'_1": 1}

    def test_top_even_d_antisymmetrizes(self):
        el = [e for e in build_basis(4, 1, 9) if e.stratum.a == 2][0]
        assert repr(el) == "U_{2,3,1}.p_1"
        image = _by_name(d_fold(4, el))
        # the (1,3) leg kills p_1 outright; on (2,2) the skew part of
        # p_1 - p'_1 is read off at its representative p_1
        assert image == {"U_{2,2,2}.p_1": 1}

    def test_top_even_d_two_legs(self):
        el = [e for e in build_basis(4, 1, 9)
              if repr(e) == "U_{2,3,1}.p'_1"][0]
        image = _by_name(d_fold(4, el))
        assert image == {"U_{1,3,2}.p'_1": 1, "U_{2,2,2}.p_1": -1}

    def test_top_even_d_symmetric_dies_in_square(self):
        els = [e for e in build_basis(4, 1, 13) if e.stratum.a == 2]
        for el in els:
            image = _by_name(d_fold(4, el))
            sq = {k: v for k, v in image.items() if k.startswith("U_{2,2,2}")}
            # p_1 p'_1 is swap fixed, so only the pure squares survive
            if repr(el) == "U_{2,3,1}.p_1 p'_1":
                assert sq == {}

    def test_euler_fold_elements_die(self):
        for n in range(4, 16):
            for el in build_basis(3, 1, n):
                if el.piece.euler:
                    assert d_fold(3, el) == {}

    def test_odd_d_square_restricts_down(self):
        (el,) = [e for e in build_basis(5, 1, 14) if e.stratum.a == 3]
        image = _by_name(d_fold(5, el))
        # p_1^2 - p'_1^2 carries over to (2,3) unchanged
        assert image == {"U_{2,3,2}.p_1^2": 1, "U_{2,3,2}.p'_1^2": -1}


class TestHigherColumns:
    def test_level2_plain_piece_dies(self):
        # r = 1 is odd, so at level 2 only the Euler piece moves
        el = [e for e in build_basis(4, 2, 6)][0]
        assert not el.piece.euler
        assert differential(4, el) == {}

    def test_even_column_cover_multiplicity(self):
        els = [e for e in build_basis(4, 2, 10) if e.piece.euler]
        assert els
        image = differential(4, els[0])
        assert sorted(c for c in image.values()) == [COVER_FACTOR, COVER_FACTOR]

    def test_even_column_cover_entries_are_two(self):
        # U_{0,4,2}.e.1 maps onto both sheets U+-_{0,4,3}.e.1 with the
        # covering multiplicity 2; ranks over Q cannot tell 2 from 1, the
        # entries of the assembled matrix can
        m = assemble_matrix(4, 2, 10)
        assert [repr(el) for el in m.source][1] == "U_{0,4,2}.e.1"
        assert [repr(el) for el in m.target][:2] == ["U+_{0,4,3}.e.1", "U-_{0,4,3}.e.1"]
        assert m.cols == [{}, {0: 2, 1: 2}, {}, {}]

    def test_odd_column_sheets_cancel_in_pairs(self):
        els = [e for e in build_basis(4, 5, 9) if e.stratum.sign is not None]
        plus = [e for e in els if e.stratum.sign == 1]
        minus = [e for e in els if e.stratum.sign == -1]
        for p, m in zip(plus, minus):
            ip, im = differential(4, p), differential(4, m)
            assert set(ip) == set(im)
            for el in ip:
                assert ip[el] == -im[el]


class TestElementPoly:
    # the polynomial of a basis element, as element_terms' dict

    def test_full(self):
        el = [e for e in build_basis(4, 1, 9) if e.stratum.a == 2][0]
        assert element_terms(el) == {((1,), (0,)): 1}

    def test_skew_vector(self):
        els = [e for e in build_basis(5, 1, 14) if e.stratum.a == 3]
        assert els
        for el in els:
            p = element_terms(el)
            assert p and {mono_swap(m): -c for m, c in p.items()} == p


class TestMatrices:
    def test_fold_matrix_d4_deg5(self):
        M = assemble_matrix(4, 1, 5)
        assert M.cols == [{0: 1}, {0: 1, 1: 1}, {1: 1}]
        assert M.rank() == 2

    def test_d0_matrix_d4_deg4(self):
        M = assemble_matrix(4, 0, 4)
        # source is [p_1, e.1]; only the Euler column is nonzero
        assert M.cols == [{}, {0: 1, 1: -1, 2: 1}]
        assert M.rank() == 1

    @given(st.integers(1, 9), st.integers(0, 5), st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_chain_condition_sampled(self, d, k, n):
        for el in build_basis(d, k, n):
            assert _apply_differential(d, differential(d, el)) == {}, el

    @given(st.integers(1, 9), st.integers(0, 30),
           st.sampled_from([fold_sign, lambda a: 1]), st.sampled_from([COVER_FACTOR, 0]))
    @settings(max_examples=40, deadline=None)
    def test_chain_check_is_d_of_d_per_element(self, d, D, sign, cover):
        # chain_check multiplies assembled matrices; by definition it names
        # the first (column, degree) below D, in columns 0..min(5, K - 1)
        # with K = max(1, D - d), with an element x of d(d(x)) != 0, also
        # under the sign and covering-factor mutations
        kmax = min(5, max(1, D - d) - 1)
        with mock.patch.multiple(differentials, fold_sign=sign, COVER_FACTOR=cover):
            bad = next(((k, n) for k in range(kmax + 1) for n in range(D)
                        if any(_apply_differential(d, differential(d, el))
                               for el in build_basis(d, k, n))), None)
            rep = chain_check(d, D)
        assert rep.entries == [("chain condition d(d(x)) = 0", bad is None,
                                "" if bad is None else "column %d degree %d" % bad)]

    @given(st.integers(3, 6), st.integers(0, 4), st.integers(4, 14))
    @settings(max_examples=40, deadline=None)
    def test_integrality(self, d, k, n):
        M = assemble_matrix(d, k, n)
        for col in M.cols:
            for v in col.values():
                assert type(v) is int and v != 0

    def test_rank_zero_map(self):
        # column 0 has no Euler piece for odd d, so d0 kills it
        M = assemble_matrix(5, 0, 8)
        assert len(M.source) and all(not col for col in M.cols)
        assert M.rank() == 0

    def test_fold_matrices_are_pinned(self):
        # every fold matrix for d = 1..12 up to degree 40: the a = 0,
        # generic, odd-d top and even-d top rules of d_fold all appear
        h = hashlib.sha256()
        for d in range(1, 13):
            for n in range(41):
                cols = [sorted(c.items()) for c in assemble_matrix(d, 1, n).cols]
                h.update(repr((d, n, cols)).encode())
        assert h.hexdigest() == \
            "d777566047b717b879e383d7a638674a8453fb2ac1e267e0133d2636281b267c"

    def test_block_rules_match_the_per_element_reference(self):
        # every cell k <= 7, n <= 60 for d = 1..16: the fold's a = 0,
        # generic and square tops, sign sheets, square chain pairs with
        # and without the Euler class, and every level mod 4
        for d in range(1, 17):
            for k in range(8):
                for n in range(61):
                    assert assemble_matrix(d, k, n).cols == _ref_columns(d, k, n), \
                        (d, k, n)

    def test_repr_is_pinned(self):
        assert repr(assemble_matrix(6, 1, 15)) == \
            "LinearMap(9 x 12, k=1 -> 2, n=15 -> 16)"


def test_expand_guards_survive_O():
    # p_1 is neither symmetric nor skew, and the square fold stratum
    # (1, 2, 2) takes it only through e.SYM or SKEW; (1, 1, 4) has no
    # Euler piece at all.  Under -O a wrong rule must still fail loudly
    # instead of reading off wrong orbit coordinates
    import artifact
    code = (
        "from artifact.strata import Stratum\n"
        "from artifact.differentials import _expand\n"
        "p1 = {((1,), (0,)): 1}\n"
        "for s, euler in ((Stratum(1, 2, 2), True), (Stratum(1, 2, 2), False),\n"
        "                 (Stratum(1, 1, 4), True)):\n"
        "    out = {}\n"
        "    try:\n"
        "        _expand(out, s, euler, p1)\n"
        "    except ArithmeticError as e:\n"
        "        print(e)\n"
        "    else:\n"
        "        raise SystemExit('%r accepted, wrote %r' % (s, out))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(artifact.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "image claimed symmetric is not", "image claimed skew is not",
        "image hits a stratum without matching content"]


def test_argument_checks_and_guards_survive_O():
    # wrong-column calls, an exchange in the symmetry group of a stratum
    # with a != b (patched in, since no table makes one) and a skew
    # element on a swap-fixed monomial are argument errors; a wrong Euler
    # flag at a = b, a symmetry group above order 4 and a duplicate basis
    # element break exactness.  Each must still raise under -O
    import artifact
    code = (
        "from artifact.grading import FULL, SKEW, VariableSet, mono_one\n"
        "from artifact.strata import Stratum, ContentPiece\n"
        "from artifact.e1 import BasisElement, IndexedBasis\n"
        "from artifact import actions\n"
        "from artifact.actions import ActionGen, group_closure, invariant_series\n"
        "from artifact.differentials import (\n"
        "    d0, d_fold, d_even_col, d_odd_col, element_terms)\n"
        "def el(level, a, b, euler, flavor=FULL):\n"
        "    return BasisElement(Stratum(level, a, b), ContentPiece(euler, flavor),\n"
        "                        mono_one(VariableSet(a, b)))\n"
        "fold, flips = el(1, 0, 7, False), [ActionGen(False, -1, 1, 1, 1, 1),\n"
        "    ActionGen(False, 1, -1, 1, 1, 1), ActionGen(False, 1, 1, -1, 1, 1)]\n"
        "actions.symmetry_action = lambda s: [ActionGen(True, 1, 1, 1, 1, 1)]\n"
        "for exc, f in [\n"
        "        (ValueError, lambda: d0(6, fold)),\n"
        "        (ValueError, lambda: d_fold(6, el(0, 6, 0, False))),\n"
        "        (ValueError, lambda: d_even_col(6, el(3, 3, 3, True))),\n"
        "        (ValueError, lambda: d_odd_col(6, el(2, 3, 3, False))),\n"
        "        (ValueError, lambda: element_terms(el(2, 2, 2, False, SKEW))),\n"
        "        (ValueError, lambda: invariant_series(Stratum(2, 1, 5), 20)),\n"
        "        (ArithmeticError, lambda: d_odd_col(6, el(3, 3, 3, False))),\n"
        "        (ArithmeticError, lambda: d_odd_col(6, el(5, 3, 3, True))),\n"
        "        (ArithmeticError, lambda: group_closure(flips)),\n"
        "        (ArithmeticError, lambda: IndexedBasis(\n"
        "            1, 7, [(fold.stratum, fold.piece, [fold.mono] * 2)]).position(fold))]:\n"
        "    try:\n"
        "        f()\n"
        "    except exc as e:\n"
        "        print(e)\n"
        "    else:\n"
        "        raise SystemExit('%s not raised' % exc.__name__)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(artifact.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "d0 applied to column 1",
        "d_fold applied to column 0",
        "d_even_col applied to column 3",
        "d_odd_col applied to column 2",
        "skew element on the swap-fixed monomial ((0,), (0,))",
        "exchange applied to stratum A_2(1,5) with a != b",
        "Euler flag False at a = b in column 3",
        "Euler flag True at a = b in column 5",
        "symmetry group of order 8 exceeds 4",
        "basis (1, 7) lists an element twice",
    ]
