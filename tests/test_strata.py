"""Stratum bookkeeping: enumeration, Euler availability, content pieces."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.grading import VariableSet, FlavoredSpace, FULL, SYM, SKEW
from artifact.actions import ActionGen
from artifact.e1 import BasisElement
from artifact.pages import PageCell, CheckReport
from artifact.strata import (
    Stratum, MINUS, enumerate_strata, euler_available,
    ContentPiece, column_content, content_series,
)


dims = st.integers(1, 8)
levels = st.integers(0, 8)


def test_level0_is_single_regular_stratum():
    (s,) = enumerate_strata(4, 0)
    assert (s.a, s.b) == (4, 0)
    assert s.thom_degree == 0
    assert repr(s) == "A_0(d=4)"


def test_fold_strata_d4():
    names = [repr(s) for s in enumerate_strata(4, 1)]
    assert names == ["A_1(0,5)", "A_1(1,4)", "A_1(2,3)"]


def test_fold_strata_d5_end_in_square():
    names = [repr(s) for s in enumerate_strata(5, 1)]
    assert names == ["A_1(0,6)", "A_1(1,5)", "A_1(2,4)", "A_1(3,3)"]


def test_level3_d4_signs():
    names = [repr(s) for s in enumerate_strata(4, 3)]
    assert names == ["A_3^+(0,4)", "A_3^-(0,4)",
                     "A_3^+(1,3)", "A_3^-(1,3)", "A_3(2,2)"]


@given(st.integers(1, 12), st.integers(0, 8))
@settings(max_examples=60)
def test_strata_come_sorted_by_a_then_sign(d, level):
    # the order every report and basis follows: a ascending, + before -
    keys = [(s.a, s.sign == MINUS) for s in enumerate_strata(d, level)]
    assert keys == sorted(set(keys))


def test_even_levels_have_no_signs():
    for s in enumerate_strata(5, 4):
        assert s.sign is None


@given(dims, levels)
@settings(max_examples=60)
def test_symbol_pairs_sum_correctly(d, level):
    for s in enumerate_strata(d, level):
        if level == 0:
            assert (s.a, s.b) == (d, 0)
        elif level == 1:
            assert s.a + s.b == d + 1 and 0 <= s.a <= s.b
        else:
            assert s.a + s.b == d and 0 <= s.a <= s.b


@given(dims, levels)
@settings(max_examples=60)
def test_thom_degree(d, level):
    for s in enumerate_strata(d, level):
        if level == 0:
            assert s.thom_degree == 0
        else:
            assert s.thom_degree == d + level


def test_euler_availability():
    assert euler_available(Stratum(2, 0, 4))
    assert euler_available(Stratum(2, 2, 2))
    assert not euler_available(Stratum(2, 1, 3))
    assert not euler_available(Stratum(1, 2, 3))
    # e_0 = 1 makes a = 0 count as even
    assert euler_available(Stratum(0, 4, 0))
    assert not euler_available(Stratum(0, 5, 0))


def test_even_d_fold_never_carries_euler():
    for d in (2, 4, 6, 8):
        for s in enumerate_strata(d, 1):
            assert not euler_available(s)


class TestContent:
    def test_regular_even_d(self):
        (s,) = enumerate_strata(4, 0)
        assert column_content(s) == [ContentPiece(False, FULL),
                                     ContentPiece(True, FULL)]

    def test_regular_odd_d(self):
        (s,) = enumerate_strata(5, 0)
        assert column_content(s) == [ContentPiece(False, FULL)]

    def test_generic_fold(self):
        s = Stratum(1, 1, 4)
        assert column_content(s) == [ContentPiece(False, FULL)]

    def test_fold_with_euler(self):
        s = Stratum(1, 0, 4)
        assert column_content(s) == [ContentPiece(False, FULL),
                                     ContentPiece(True, FULL)]

    def test_square_fold_splits(self):
        s = Stratum(1, 3, 3)
        assert column_content(s) == [ContentPiece(False, SKEW)]
        t = Stratum(1, 2, 2)
        assert column_content(t) == [ContentPiece(False, SKEW),
                                     ContentPiece(True, SYM)]

    def test_square_even_level_alternates(self):
        # r = level/2 even keeps sym, odd keeps skew
        assert column_content(Stratum(4, 2, 2)) == [
            ContentPiece(False, SYM), ContentPiece(True, SYM)]
        assert column_content(Stratum(2, 2, 2)) == [
            ContentPiece(False, SKEW), ContentPiece(True, SKEW)]
        assert column_content(Stratum(2, 3, 3)) == [ContentPiece(False, SKEW)]

    def test_odd_level_r_even_plain(self):
        # level 5 has r = 2, no Euler factor wanted
        assert column_content(Stratum(5, 1, 3, 1)) == [
            ContentPiece(False, FULL)]

    def test_odd_level_r_odd_needs_euler(self):
        # level 3 has r = 1: the piece exists only with the Euler class
        assert column_content(Stratum(3, 0, 4, 1)) == [
            ContentPiece(True, FULL)]
        assert column_content(Stratum(3, 1, 3, 1)) == []

    @given(dims, levels)
    @settings(max_examples=60)
    def test_square_strata_never_carry_full(self, d, level):
        if level == 0:
            return
        for s in enumerate_strata(d, level):
            if s.a == s.b and level % 2 == 1:
                for piece in column_content(s):
                    assert level >= 3 or piece.flavor in (SYM, SKEW)


def test_content_series_shifted_by_thom_degree():
    s = Stratum(1, 2, 3)
    ser = content_series(s, 13)
    # P(2, 3) = Q[p_1, p'_1] starting at the Thom degree 5
    assert [ser[n] for n in range(14)] == \
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3]


def test_content_series_includes_euler_shift():
    s = Stratum(1, 0, 4)
    ser = content_series(s, 12)
    # plain piece from the Thom degree 4, Euler piece from 4 + 4
    assert [ser[n] for n in range(13)] == \
        [0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3]


@pytest.mark.parametrize("build", [
    lambda: Stratum(2, 1, 3, MINUS),
    lambda: VariableSet(-1, 2),
    lambda: FlavoredSpace(VariableSet(2, 4), SYM),
])
def test_value_constructor_guards(build):
    # a signed even-level stratum, a negative range, a symmetric flavor
    # on a non-square variable set; raises, so the guards hold under -O
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("value", [
    VariableSet(2, 3),
    FlavoredSpace(VariableSet(4, 4), SKEW),
    Stratum(3, 1, 3, MINUS),
    ContentPiece(True, SYM),
    BasisElement(Stratum(1, 2, 3), ContentPiece(False, FULL), ((1,), (0,))),
    ActionGen(True, -1, 1, 1, -1, 1),
    PageCell(12, 3, 2, 1),
    CheckReport("demo", [("a holds", True, ""), ("b holds", False, "degree 3")]),
])
def test_values_survive_copy_and_pickle(value):
    assert copy.copy(value) == value
    back = pickle.loads(pickle.dumps(value))
    assert back == value and type(back) is type(value)
