"""Exact sparse rank computations."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
