"""Column bases of the first page."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.e1 import build_basis, column_series
from artifact.strata import enumerate_strata, content_series
from artifact.grading import Series


def test_fold_basis_d4_deg5():
    basis = build_basis(4, 1, 5)
    assert [repr(el) for el in basis] == \
        ["U_{0,5,1}.1", "U_{1,4,1}.1", "U_{2,3,1}.1"]


def test_fold_basis_d4_deg9():
    basis = build_basis(4, 1, 9)
    assert [repr(el) for el in basis] == [
        "U_{0,5,1}.p'_1", "U_{1,4,1}.p'_1",
        "U_{2,3,1}.p_1", "U_{2,3,1}.p'_1",
    ]


def test_level0_basis_has_euler_part():
    basis = build_basis(4, 0, 4)
    assert [repr(el) for el in basis] == ["p_1", "e.1"]


def test_sign_strata_appear_in_order():
    basis = build_basis(4, 5, 9)
    names = [repr(el) for el in basis]
    assert names == ["U+_{0,4,5}.1", "U-_{0,4,5}.1",
                     "U+_{1,3,5}.1", "U-_{1,3,5}.1", "U_{2,2,5}.1"]


def test_euler_shifted_level3():
    # level 3 with r = 1 carries only Euler pieces, so the lowest
    # degree with content is thom + euler = 7 + 4
    assert len(build_basis(4, 3, 7)) == 0
    names = [repr(el) for el in build_basis(4, 3, 11)]
    assert names == ["U+_{0,4,3}.e.1", "U-_{0,4,3}.e.1", "U_{2,2,3}.e.1"]


def test_positions_are_consistent():
    basis = build_basis(4, 1, 13)
    for i, el in enumerate(basis):
        assert basis.position(el) == i
        assert el.degree == 13


def test_position_of_a_missing_element_names_the_spot():
    # an element of another degree is not in the basis: the lookup raises
    # ArithmeticError naming the column and degree, also under -O
    el = next(iter(build_basis(4, 1, 9)))
    with pytest.raises(ArithmeticError, match="not in the basis of column 1 degree 13"):
        build_basis(4, 1, 13).position(el)


def test_column_series_d4_fold():
    ser = column_series(4, 1, 13)
    assert ser.c == [0, 0, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 7]


def test_column_series_d4_level3():
    ser = column_series(4, 3, 11)
    assert ser[11] == 3


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_basis_size_matches_series(d, k):
    D = 18
    ser = column_series(d, k, D)
    for n in range(D + 1):
        assert len(build_basis(d, k, n)) == ser[n]


@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 20))
@settings(max_examples=50, deadline=None)
def test_every_element_in_its_degree(d, k, n):
    for el in build_basis(d, k, n):
        assert el.degree == n
        assert el.stratum.level == k
