"""Exact sparse rank computations."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import pages
from artifact.differentials import assemble_matrix
from artifact.linalg import rank


def test_rank_identity():
    rows = [{0: 1}, {1: 1}, {2: 1}]
    assert rank(rows) == 3


def test_rank_dependent_rows():
    rows = [{0: 1, 1: 1}, {0: 2, 1: 2}, {1: 1}]
    assert rank(rows) == 2


def test_rank_empty():
    assert rank([]) == 0
    assert rank([{}, {}]) == 0


def test_rank_known_3x3():
    rows = [{0: 2, 1: 1, 2: 1},
            {0: 1, 1: 3, 2: 2},
            {0: 1, 1: 0, 2: 0}]
    assert rank(rows) == 3


vectors = st.lists(st.integers(-4, 4), min_size=4, max_size=4)


def _as_row(v):
    return {i: x for i, x in enumerate(v) if x}


@given(st.lists(vectors, max_size=6))
@settings(max_examples=60)
def test_rank_bounds(vs):
    rows = [_as_row(v) for v in vs]
    r = rank(rows)
    assert 0 <= r <= min(len(rows), 4) if rows else r == 0


@given(st.lists(vectors, max_size=5), st.integers(1, 7))
@settings(max_examples=60)
def test_rank_invariant_under_scaling(vs, k):
    rows = [_as_row(v) for v in vs]
    scaled = [{c: k * x for c, x in r.items()} for r in rows]
    assert rank(rows) == rank(scaled)


@given(st.lists(vectors, min_size=1, max_size=5))
@settings(max_examples=60)
def test_adding_a_combination_keeps_rank(vs):
    rows = [_as_row(v) for v in vs]
    combo = {}
    for r in rows:
        for c, x in r.items():
            combo[c] = combo.get(c, 0) + x
    combo = {c: x for c, x in combo.items() if x}
    assert rank(rows + [combo]) == rank(rows)


def _gauss_jordan_rank(rows, width):
    # rank over Q by Fraction Gauss-Jordan on dense rows, pivoting left
    # to right: an order independent of the one rank uses
    m = [[Fraction(r.get(c, 0)) for c in range(width)] for r in rows]
    rk = 0
    for c in range(width):
        p = next((i for i in range(rk, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rk], m[p] = m[p], m[rk]
        m[rk] = [x / m[rk][c] for x in m[rk]]
        for i in range(len(m)):
            if i != rk and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rk])]
        rk += 1
    return rk


sparse_rows = st.integers(1, 12).flatmap(lambda width: st.tuples(
    st.just(width),
    st.lists(st.dictionaries(st.integers(0, width - 1),
                             st.integers(-6, 6).filter(bool), max_size=4),
             max_size=10)))


@given(sparse_rows, st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_rank_matches_gauss_jordan_under_any_column_labels(wrows, rnd):
    # rank pivots on the largest column index; neither that choice nor a
    # relabelling of the columns may change the rank
    width, rows = wrows
    want = _gauss_jordan_rank(rows, width)
    assert rank(rows) == want
    relabel = list(range(width))
    rnd.shuffle(relabel)
    assert rank([{relabel[c]: x for c, x in r.items()} for r in rows]) == want
    reverse = [{width - 1 - c: x for c, x in r.items()} for r in rows]
    assert rank(reverse) == want


blocks = st.lists(st.lists(vectors, min_size=1, max_size=4), min_size=1, max_size=5)


@given(blocks, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_block_diagonal_rank_is_sum_of_block_ranks(bs, rnd):
    # block i owns columns 4i..4i+3 before the relabelling, so blocks
    # share no column; rows are shuffled and columns permuted
    width = 4 * len(bs)
    relabel = list(range(width))
    rnd.shuffle(relabel)
    rows = []
    for i, block in enumerate(bs):
        for v in block:
            rows.append({relabel[4 * i + c]: x for c, x in enumerate(v) if x})
    rnd.shuffle(rows)
    expected = sum(_gauss_jordan_rank([_as_row(v) for v in b], 4) for b in bs)
    assert rank(rows) == expected


def test_rank_of_a_chain_of_overlapping_rows():
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}, {0: 1, 3: 1}]
    # the fourth row is the alternating sum of the first three
    assert rank(rows) == 3
    rows = [{0: 1, 1: 1, 2: 1}, {2: 1}, {0: 1, 1: 1}]
    assert rank(rows) == 2


@given(sparse_rows)
@settings(max_examples=100)
def test_rank_leaves_its_rows_unchanged(wrows):
    # up to ten rows share at most twelve columns, so leads collide and
    # rows are reduced against pivots the table holds by reference
    _, rows = wrows
    before = copy.deepcopy(rows)
    rank(rows)
    assert rows == before


def test_rank_matches_gauss_jordan_on_the_8_40_grid():
    D = 40
    for k in range(max(1, D - 8) + 1):
        for n in range(D + 1):
            A = assemble_matrix(8, k, n)
            assert rank(A.cols) == _gauss_jordan_rank(A.cols, len(A.target)), (k, n)


@pytest.mark.parametrize("d", range(1, 17))
def test_counted_grid_matches_per_cell_assembly(d):
    # column 0 is counted from its Euler elements and the other columns
    # by block type; every cell's size and rank, columns >= 6 read
    # through the period-4 rule, must equal those of the assembled matrix
    D = 40
    pages.clear_cache()
    grid = pages._grid(d, D)
    pages.clear_cache()
    for k in range(max(1, D - d) + 1):
        sizes, ranks, shift = pages._column(grid, k)
        for n in range(D + 1):
            A = assemble_matrix(d, k, n)
            got = (sizes[n - shift], ranks[n - shift]) if n >= shift else (0, 0)
            assert got == (len(A.source), A.rank()), (k, n)


@pytest.mark.parametrize("d, D", [(12, 70), (14, 60)])
def test_counted_column_0_matches_assembly_at_larger_sizes(d, D):
    # the d0 cells are the largest the grid used to assemble; the Euler
    # count must equal their rank well beyond D = 40
    pages.clear_cache()
    _, sizes, ranks, _, _ = pages._grid(d, D)
    pages.clear_cache()
    for n in range(D + 1):
        A = assemble_matrix(d, 0, n)
        assert sizes[0][n] == len(A.source), n
        assert ranks[0][n] == A.rank(), n


@pytest.mark.parametrize("d, D", [(12, 70), (14, 60)])
def test_counted_columns_1_to_5_match_assembly_at_larger_sizes(d, D):
    # the fold cells are the largest the grid assembled before it
    # counted them, and columns 2..5 are the ones every later column is
    # read from; the block-type count must equal their rank well beyond D = 40
    pages.clear_cache()
    _, sizes, ranks, _, _ = pages._grid(d, D)
    pages.clear_cache()
    for k in range(1, 6):
        for n in range(D + 1):
            A = assemble_matrix(d, k, n)
            assert sizes[k][n] == len(A.source), (k, n)
            assert ranks[k][n] == A.rank(), (k, n)
