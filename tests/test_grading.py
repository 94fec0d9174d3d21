"""Graded-vector-space layer: monomials, polynomials, series, flavors."""

import os
import subprocess
import sys
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact.grading import (
    VariableSet, Series, FlavoredSpace, FULL, SYM, SKEW,
    mono_one, mono_degree, mono_mul, mono_swap,
    enumerate_monomials, mono_str, poly_str, restrict_terms, s_hom,
    space_series, orbit_reps, free_gca_series,
)


def mono_key(m):
    # the reference order of monomials: graded, then by the primed, then
    # the unprimed exponent tuple.  It puts p_1 before p'_1, and orders
    # the degree 8 block of P(2, 2) as p_1^2, p_1 p'_1, p'_1^2
    es, fs = m
    return (mono_degree(m), fs, es)


small_vs = st.builds(VariableSet, st.integers(0, 7), st.integers(0, 7))
square_vs = st.integers(0, 7).map(lambda a: VariableSet(a, a))
degrees = st.sampled_from([0, 4, 8, 12, 16])
coefficients = st.one_of(st.sampled_from([1, -1]),
                         st.integers(2, 40).flatmap(lambda k: st.sampled_from([k, -k])))


def _monomials_by_products(vs, degree):
    # every monomial of degree n > 0 is a variable times a monomial of
    # degree n - deg(variable), so the products reach every exponent tuple
    units = [((tuple(int(t == i) for t in range(vs.na)), (0,) * vs.nb), 4 * (i + 1))
             for i in range(vs.na)]
    units += [(((0,) * vs.na, tuple(int(t == j) for t in range(vs.nb))), 4 * (j + 1))
              for j in range(vs.nb)]
    by_degree = {0: {mono_one(vs)}}
    for n in range(4, degree + 1, 4):
        by_degree[n] = {mono_mul(u, m) for u, w in units if w <= n
                        for m in by_degree[n - w]}
    return by_degree.get(degree, set())


def _times(p, q):
    # the product of two {monomial: int} dicts, zero terms dropped
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _swapped(p):
    return {mono_swap(m): c for m, c in p.items()}


def _run_under_O(code):
    import artifact
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(artifact.__file__)))
    return subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True)


def _monos(vs_strategy):
    return vs_strategy.flatmap(
        lambda vs: degrees.flatmap(
            lambda n: st.sampled_from(enumerate_monomials(vs, n))
            if enumerate_monomials(vs, n) else st.nothing()))


class TestMonomials:
    def test_one(self):
        # (2, 3) carries one unprimed and one primed variable
        vs = VariableSet(2, 3)
        m = mono_one(vs)
        assert mono_degree(m) == 0
        assert m == ((0,), (0,))

    def test_degree_weights(self):
        # p_i and p'_i sit in degree 4i
        m = ((1, 2), (1,))
        assert mono_degree(m) == 4 * 1 + 8 * 2 + 4 * 1

    def test_enumerate_deg8_on_2_3(self):
        vs = VariableSet(2, 3)
        found = sorted(mono_str(m) for m in enumerate_monomials(vs, 8))
        assert found == sorted(["p_1^2", "p_1 p'_1", "p'_1^2"])

    def test_enumerate_odd_degree_empty(self):
        assert enumerate_monomials(VariableSet(2, 3), 6) == []
        assert enumerate_monomials(VariableSet(2, 3), 5) == []

    @given(st.integers(0, 13), st.integers(0, 13), st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_enumerate_matches_brute_force(self, a, b, degree):
        vs = VariableSet(a, b)
        got = enumerate_monomials(vs, degree)
        assert len(set(got)) == len(got)
        assert got == sorted(_monomials_by_products(vs, degree), key=mono_key)

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(-8, 40))
    @example(0, 0, 0)
    @example(0, 0, 4)
    @example(1, 1, 0)
    @example(1, 1, 8)
    @example(4, 4, -4)
    @example(4, 4, 6)
    @settings(max_examples=60, deadline=None)
    def test_enumerate_is_the_filtered_exponent_box(self, a, b, degree):
        # every exponent tuple whose weighted sum is the degree, each
        # exponent bounded by the degree over its weight
        vs = VariableSet(a, b)
        weights = [4 * (i + 1) for i in range(vs.na)] + [4 * (j + 1) for j in range(vs.nb)]
        box = product(*(range(max(degree, 0) // w + 1) for w in weights))
        want = [(t[:vs.na], t[vs.na:]) for t in box
                if sum(w * e for w, e in zip(weights, t)) == degree]
        assert enumerate_monomials(vs, degree) == sorted(want, key=mono_key)

    def test_enumerate_counts_match_series(self):
        vs = VariableSet(3, 2)
        ser = space_series(FlavoredSpace(vs, FULL), 24)
        for n in range(25):
            assert len(enumerate_monomials(vs, n)) == ser[n]

    @given(_monos(square_vs))
    def test_swap_involution(self, m):
        assert mono_swap(mono_swap(m)) == m

    @given(_monos(square_vs))
    def test_swap_preserves_degree(self, m):
        assert mono_degree(mono_swap(m)) == mono_degree(m)

    def test_mul(self):
        vs = VariableSet(2, 2)
        m1 = ((1, 0), (0, 1))
        m2 = ((0, 1), (1, 0))
        assert mono_mul(m1, m2) == ((1, 1), (1, 1))

    def test_key_orders_by_degree_first(self):
        lo = ((1, 0), (0, 0))
        hi = ((0, 1), (0, 0))
        assert mono_key(lo) < mono_key(hi)


class TestPolynomial:
    # a polynomial is a {monomial: int} dict, printed by poly_str

    def test_repr_signs(self):
        assert poly_str({((1,), (0,)): 1, ((0,), (1,)): -1}) == "p_1 - p'_1"

    @pytest.mark.parametrize("terms, want", [
        ({}, "0"),
        ({((0, 0), (0, 0)): 3}, "3"),
        ({((0, 0), (0, 0)): -1}, "-1"),
        ({((1, 0), (0, 0)): -2, ((0, 0), (1, 0)): 1}, "-2 p_1 + p'_1"),
        ({((0, 0), (0, 0)): -1, ((2, 0), (0, 1)): 2, ((0, 1), (0, 0)): -1},
         "-1 - p_2 + 2 p_1^2 p'_2"),
        ({((0, 0), (2, 1)): 1, ((0, 0), (0, 1)): -5}, "-5 p'_2 + p'_1^2 p'_2"),
        ({((), ()): 1}, "1"),
        ({((0,), ()): 4, ((1,), ()): 1}, "4 + p_1"),
    ])
    def test_repr_golden(self, terms, want):
        # zero, constants, a negative leading coefficient, coefficients
        # above 1 and primed-only terms, in mono_key order; the unit of
        # any variable set, P(0, 0) and P(2, 0) included, prints as its
        # coefficient
        assert poly_str(terms) == want

    @staticmethod
    def _documented(terms):
        # poly_str as its docstring states it, from the exponents alone: the
        # terms in mono_key order, each as its sign, then |c| unless it is
        # 1, then p_i^e and p'_j^f (exponent 1 left out), or "1" for a bare
        # unit; the leading sign drops "+" and sticks "-" to its term
        words = []
        for (es, fs), c in sorted(terms.items(), key=lambda mc: mono_key(mc[0])):
            body = ["%s_%d" % (v, i) + ("" if e == 1 else "^%d" % e)
                    for v, exps in (("p", es), ("p'", fs))
                    for i, e in enumerate(exps, 1) if e]
            coef = [] if abs(c) == 1 else [str(abs(c))]
            words += ["-" if c < 0 else "+", " ".join(coef + body) or "1"]
        text = " ".join(words)
        return "0" if not text else text[2:] if text[0] == "+" else "-" + text[2:]

    @given(small_vs.flatmap(lambda vs: degrees.flatmap(
               lambda n: st.dictionaries(st.sampled_from(enumerate_monomials(vs, n)),
                                         coefficients, max_size=8)
               if enumerate_monomials(vs, n) else st.just({}))))
    @example({((), ()): 1})  # the unit of P(0, 0)
    @example({((), ()): -7})
    @example({((0,), ()): -1})  # the unit of P(2, 0)
    @example({((0,), ()): 5})
    @settings(max_examples=80, deadline=None)
    def test_homogeneous_dicts_print_as_documented(self, terms):
        assert poly_str(terms) == self._documented(terms)

    @given(small_vs.flatmap(lambda vs: st.dictionaries(
               st.sampled_from([m for n in range(0, 21, 4)
                                for m in enumerate_monomials(vs, n)]),
               coefficients, max_size=10)))
    @example({((0,), ()): 1, ((1,), ()): -3, ((2,), ()): 1})
    @example({((0, 0), (0,)): -2, ((0, 1), (0,)): 1, ((2, 0), (1,)): -1,
              ((0, 0), (2,)): 1})
    @settings(max_examples=80, deadline=None)
    def test_inhomogeneous_dicts_print_as_documented(self, terms):
        # terms of several degrees sort by degree first, in every position
        # and not only at the two ends
        assert poly_str(terms) == self._documented(terms)

    def test_guards_raise_under_O(self):
        # misuse raises ValueError and the orbit-count exactness guard
        # ArithmeticError; neither is an assert, so both survive -O
        code = (
            "from artifact.grading import (VariableSet, FlavoredSpace,\n"
            "    SYM, SKEW, mono_mul, mono_swap, s_hom, space_series)\n"
            "sq, rect = VariableSet(2, 2), VariableSet(2, 4)\n"
            "bad_sym = tuple.__new__(FlavoredSpace, (rect, SYM))\n"
            "cases = [\n"
            "    (ValueError, lambda: VariableSet(-1, 2)),\n"
            "    (ValueError, lambda: VariableSet(2, -1)),\n"
            "    (ValueError, lambda: mono_mul(((1,), (0,)), ((1,), (0, 0)))),\n"
            "    (ValueError, lambda: mono_swap(((1,), (0, 0)))),\n"
            "    (ValueError, lambda: s_hom(((1,), (1,)), sq)),\n"
            "    (ValueError, lambda: FlavoredSpace(sq, 'odd')),\n"
            "    (ValueError, lambda: FlavoredSpace(rect, SKEW)),\n"
            "    (ArithmeticError, lambda: space_series(bad_sym, 8)),\n"
            "]\n"
            "for n, (error, f) in enumerate(cases):\n"
            "    try:\n"
            "        f()\n"
            "    except error:\n"
            "        continue\n"
            "    raise SystemExit('case %d accepted' % n)\n")
        proc = _run_under_O(code)
        assert proc.returncode == 0, proc.stderr


class TestSwapAndSplit:
    def test_swap_fixed_point(self):
        p = {((1, 0), (1, 0)): 1}
        assert _swapped(p) == p


class TestRestrict:
    def test_shrink_kills_high_generator(self):
        p = {((0, 1), (0, 0)): 1}
        assert restrict_terms(p, VariableSet(4, 4), VariableSet(2, 4)) == {}

    def test_shrink_keeps_low(self):
        p = {((1, 0), (0, 1)): 1}
        q = restrict_terms(p, VariableSet(4, 4), VariableSet(2, 4))
        assert q == {((1,), (0, 1)): 1}

    def test_grow_is_inclusion(self):
        p = {((2,), (1,)): 1}
        q = restrict_terms(p, VariableSet(2, 2), VariableSet(4, 4))
        assert q == {((2, 0), (1, 0)): 1}

    @given(st.integers(1, 4), degrees)
    @settings(max_examples=30)
    def test_shrink_after_grow_is_identity(self, a, n):
        vs = VariableSet(2 * a, 2 * a)
        big = VariableSet(2 * a + 2, 2 * a + 4)
        for m in enumerate_monomials(vs, n):
            p = {m: 1}
            assert restrict_terms(restrict_terms(p, vs, big), big, vs) == p


class TestSplittingHom:
    def test_p1_total(self):
        # lowest-degree Whitney sum: p_1 -> p_1 + p'_1
        out = s_hom(((1,), ()), VariableSet(2, 2))
        assert out == {((1,), (0,)): 1, ((0,), (1,)): 1}

    def test_p5_into_4_8(self):
        out = s_hom(((0, 0, 0, 0, 1), ()), VariableSet(4, 8))
        want = {
            ((1, 0), (0, 0, 0, 1)): 1,
            ((0, 1), (0, 0, 1, 0)): 1,
        }
        assert out == want

    def test_truncation_to_zero(self):
        # p_3 has nowhere to land when both summands have rank < 4
        out = s_hom(((0, 0, 1), ()), VariableSet(2, 2))
        assert out == {}

    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=20)
    def test_image_is_swap_invariant_on_squares(self, j, a):
        out = s_hom(
            (tuple(1 if i == j - 1 else 0 for i in range(j)), ()),
            VariableSet(2 * a, 2 * a))
        assert _swapped(out) == out

    @given(st.integers(0, 16).flatmap(
               lambda d: st.sampled_from([m for n in range(0, 49, 4)
                                          for m in enumerate_monomials(VariableSet(d, 0), n)])),
           st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_is_the_product_of_whitney_factors(self, m, a, b):
        # p_i goes to W_i = sum_j p_j p'_{i-j}, built here as a dict and
        # multiplied out by the test-local _times, out-of-range factors dropped
        tgt = VariableSet(a, b)

        def unit(n, i):
            return tuple(int(t == i - 1) for t in range(n))

        want = {mono_one(tgt): 1}
        for i, e in enumerate(m[0], 1):
            w = {(unit(tgt.na, j), unit(tgt.nb, i - j)): 1
                 for j in range(i + 1) if j <= tgt.na and i - j <= tgt.nb}
            for _ in range(e):
                want = _times(want, w)
        assert s_hom(m, tgt) == want

    @pytest.mark.parametrize("m, tgt", [
        (((130,), ()), VariableSet(0, 9)),
        (((130,), ()), VariableSet(2, 2)),
        (((0, 0, 0, 0, 0, 0, 0, 0, 1500), ()), VariableSet(0, 18)),
        (((3, 40, 0, 2), ()), VariableSet(4, 5)),
    ])
    def test_deep_exponents_match_the_product_from_the_unit(self, m, tgt):
        # s_hom builds each image from the kept image of m / p_i in a
        # loop, so an exponent past the recursion limit is no deeper
        # than any other; the reference multiplies out from the unit
        def unit(n, i):
            return tuple(int(t == i - 1) for t in range(n))

        want = {mono_one(tgt): 1}
        for i, e in enumerate(m[0], 1):
            w = {(unit(tgt.na, j), unit(tgt.nb, i - j)): 1
                 for j in range(i + 1) if j <= tgt.na and i - j <= tgt.nb}
            for _ in range(e):
                want = _times(want, w)
        assert s_hom(m, tgt) == want

    @given(st.one_of(st.builds(VariableSet, st.integers(0, 7), st.just(0)),
                     st.builds(VariableSet, st.just(0), st.integers(0, 7))),
           st.lists(st.integers(0, 3), max_size=6))
    @settings(max_examples=80)
    @example(VariableSet(0, 0), [])  # the unit's image is the unit
    @example(VariableSet(0, 4), [1, 0, 2])  # p_3 lies past the range: 0
    @example(VariableSet(5, 0), [0, 2])
    def test_one_term_targets_match_the_product_rule(self, tgt, es):
        # with no unprimed or no primed variables every p_i has a one-term
        # image, read off directly; the reference multiplies those factor
        # images out, so a p_i past the range makes the whole image 0
        from artifact import grading
        m = (tuple(es), ())
        want = {mono_one(tgt): 1}
        for i, e in enumerate(es, 1):
            w = {} if i > tgt.na + tgt.nb else {
                (tuple(int(t == i - 1) for t in range(tgt.na)),
                 tuple(int(t == i - 1) for t in range(tgt.nb))): 1}
            for _ in range(e):
                want = _times(want, w)
        assert s_hom(m, tgt) == s_hom(m, tgt) == want
        assert tgt not in grading._IMAGES

    @given(st.integers(0, 12).flatmap(
               lambda d: st.sampled_from([m for n in range(0, 41, 4)
                                          for m in enumerate_monomials(VariableSet(d, 0), n)])),
           st.tuples(st.integers(1, 6), st.integers(1, 6))
             .filter(lambda ab: ab[0] != ab[1]).map(lambda ab: VariableSet(2 * ab[0], 2 * ab[1] + 1)))
    @example(((2, 1), ()), VariableSet(2, 5))
    @example(((0, 0, 1, 0, 1), ()), VariableSet(8, 3))
    @settings(max_examples=60, deadline=None)
    def test_rectangular_targets_match_the_factor_product(self, m, tgt):
        # into P(a, b) with na != nb the kept image is the product of the
        # factor images W_i = sum_j p_j p'_{i-j}, multiplied out naively;
        # a repeat call hands back the same dict, whose monomials and
        # exponent tuples are the one shared copies
        from artifact import grading

        def unit(n, i):
            return tuple(int(t == i - 1) for t in range(n))

        want = {mono_one(tgt): 1}
        for i, e in enumerate(m[0], 1):
            w = {(unit(tgt.na, j), unit(tgt.nb, i - j)): 1
                 for j in range(i + 1) if j <= tgt.na and i - j <= tgt.nb}
            for _ in range(e):
                want = _times(want, w)
        image = s_hom(m, tgt)
        assert image == want
        assert s_hom(m, tgt) is image
        for mono in image:
            assert grading._BUMPS[-1].get(mono) is mono
            assert all(grading._BUMPS[-1].get(t) is t for t in mono)

    def test_multiplicative(self):
        tgt = VariableSet(4, 4)
        f = s_hom(((1, 0), ()), tgt)
        g = s_hom(((0, 1), ()), tgt)
        assert s_hom(((1, 1), ()), tgt) == _times(f, g)

    @given(_monos(st.integers(0, 14).map(lambda n: VariableSet(n, 0))),
           st.integers(0, 9), st.integers(0, 9),
           st.integers(0, 9), st.integers(0, 9))
    @settings(max_examples=60)
    def test_commutes_with_restriction(self, m, a, b, da, db):
        # d0 builds one image and restricts it to every fold stratum
        big, small = VariableSet(a + da, b + db), VariableSet(a, b)
        assert restrict_terms(s_hom(m, big), big, small) == s_hom(m, small)


class TestSeries:
    def test_ring(self):
        ser = free_gca_series({4: 1, 8: 1}, 12)
        assert ser.c == [1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2]

    def test_tshift(self):
        s = Series([1, 2, 3], 4).tshift(2)
        assert s.c == [0, 0, 1, 2, 3]
        assert s.D == 4

    def test_first_mismatch(self):
        a = Series([1, 0, 2], 2)
        b = Series([1, 0, 3], 2)
        assert a.first_mismatch(b) == 2
        assert a.first_mismatch(a) is None

    def test_bound_checks_raise_under_O(self):
        # the counted ranks of columns >= 2 are Series arithmetic, so
        # mismatched truncations and negative shifts must fail under -O
        code = (
            "from artifact.grading import Series\n"
            "a, b = Series([1, 2, 3, 4], 3), Series([5, 6], 1)\n"
            "for name, f in [('add', lambda: a + b), ('sub', lambda: a - b),\n"
            "                ('first_mismatch', lambda: b.first_mismatch(a)),\n"
            "                ('tshift', lambda: a.tshift(-1))]:\n"
            "    try:\n"
            "        f()\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit('%s accepted' % name)\n")
        proc = _run_under_O(code)
        assert proc.returncode == 0, proc.stderr

    def test_large_multiplicity_matches_the_binomial_theorem(self):
        # (1 - t^2)^-500 (1 + t^3)^400: the recurrence runs 900 passes,
        # checked against sum C(499 + i, i) C(400, j) over 2i + 3j = n
        D = 12
        want = [sum(comb(499 + i, i) * comb(400, j)
                    for i in range(D // 2 + 1) for j in range(D // 3 + 1)
                    if 2 * i + 3 * j == n) for n in range(D + 1)]
        assert free_gca_series({2: 500, 3: 400}, D).c == want


class TestFlavoredSpaces:
    def test_full_2_2(self):
        ser = space_series(FlavoredSpace(VariableSet(2, 2), FULL), 8)
        assert ser.c == [1, 0, 0, 0, 2, 0, 0, 0, 3]

    def test_sym_2_2(self):
        ser = space_series(FlavoredSpace(VariableSet(2, 2), SYM), 8)
        assert ser.c == [1, 0, 0, 0, 1, 0, 0, 0, 2]

    def test_skew_2_2(self):
        ser = space_series(FlavoredSpace(VariableSet(2, 2), SKEW), 8)
        assert ser.c == [0, 0, 0, 0, 1, 0, 0, 0, 1]

    def test_single_rank_ring(self):
        # the content ring of a rank-5 bundle has p_1 and p_2 only
        ser = space_series(FlavoredSpace.single(5), 12)
        assert ser.c == [1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2]

    @given(square_vs, st.integers(0, 16))
    @settings(max_examples=40)
    def test_sym_plus_skew_is_full(self, vs, D):
        full = space_series(FlavoredSpace(vs, FULL), D)
        sym = space_series(FlavoredSpace(vs, SYM), D)
        skew = space_series(FlavoredSpace(vs, SKEW), D)
        assert sym + skew == full

    @given(st.one_of(square_vs, small_vs), degrees)
    @settings(max_examples=60)
    def test_rep_counts_match_series(self, vs, n):
        # FULL on every set, square or not: degree 4i has (i <= na) +
        # (i <= nb) generators, and the series counts every exponent tuple
        full = space_series(FlavoredSpace(vs, FULL), n)
        assert len(enumerate_monomials(vs, n)) == full[n]
        if vs.square():
            sym = space_series(FlavoredSpace(vs, SYM), n)
            skew = space_series(FlavoredSpace(vs, SKEW), n)
            assert len(orbit_reps(FlavoredSpace(vs, SYM), n)) == sym[n]
            assert len(orbit_reps(FlavoredSpace(vs, SKEW), n)) == skew[n]

    @given(square_vs, degrees)
    @settings(max_examples=40)
    def test_reps_span_the_right_eigenspaces(self, vs, n):
        # each rep m spans via m + swap(m) or m - swap(m); the rep lists
        # must pick exactly one monomial from each two-element orbit and
        # every fixed monomial for sym, none for skew
        for m in orbit_reps(FlavoredSpace(vs, SYM), n):
            assert mono_key(m) <= mono_key(mono_swap(m))
        for m in orbit_reps(FlavoredSpace(vs, SKEW), n):
            assert mono_key(m) < mono_key(mono_swap(m))
        fixed = [m for m in enumerate_monomials(vs, n) if mono_swap(m) == m]
        orbits = (len(enumerate_monomials(vs, n)) - len(fixed)) // 2
        assert len(orbit_reps(FlavoredSpace(vs, SYM), n)) == orbits + len(fixed)
        assert len(orbit_reps(FlavoredSpace(vs, SKEW), n)) == orbits
