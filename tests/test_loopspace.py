"""Free graded-commutative algebras on the second-page generators."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.pages import e2_ranks
from artifact.loopspace import free_gca_series, loopspace_series, mmm_subseries


def test_single_even_generator_is_polynomial():
    assert free_gca_series({4: 1}, 16).c == [1, 0, 0, 0] * 4 + [1]


def test_single_odd_generator_is_exterior():
    assert free_gca_series({13: 1}, 16).c == [1] + [0] * 12 + [1, 0, 0, 0]


def test_mixed_generators():
    ser = free_gca_series({4: 1, 13: 1}, 16)
    assert ser.c == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1]


def test_zero_multiplicity_dropped():
    assert free_gca_series({4: 0, 6: 1}, 12).c == [1, 0, 0, 0, 0, 0] * 2 + [1]


def test_generators_above_cutoff_ignored():
    assert free_gca_series({30: 5}, 12).c == [1] + [0] * 12


def test_rejects_degree_zero():
    with pytest.raises(ValueError):
        free_gca_series({0: 1}, 8)


def test_rejects_the_lowest_bad_degree_first():
    # every entry is checked in ascending degree before any work
    with pytest.raises(ValueError, match="^generator degree 0 with"):
        free_gca_series({5: -1, 0: 1}, 8)


def test_rejects_negative_multiplicity_under_O():
    import artifact
    code = (
        "from artifact.loopspace import free_gca_series\n"
        "try:\n"
        "    free_gca_series({2: -1}, 10)\n"
        "except ValueError as e:\n"
        "    print(e)\n"
        "else:\n"
        "    raise SystemExit('negative multiplicity accepted')\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(artifact.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("generator degree 2 with multiplicity -1")


def _product(x, y):
    """Dense product of two coefficient lists, truncated to their length."""
    return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(len(x))]


def _repeated_product(gens, D):
    """The series multiplied out one generator at a time."""
    out = [1] + [0] * D
    for n, g in gens.items():
        # 1 / (1 - t^n) for even n, 1 + t^n for odd n
        factor = [int(k % n == 0 if n % 2 == 0 else k in (0, n))
                  for k in range(D + 1)]
        for _ in range(g):
            out = _product(out, factor)
    return out


@given(st.dictionaries(st.integers(1, 20), st.integers(0, 30), max_size=5),
       st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_matches_repeated_product(gens, D):
    # the reference multiplies dense factors and shares no code with the kernel
    assert free_gca_series(gens, D).c == _repeated_product(gens, D)


def _passes(gens, D):
    """The series multiplied out one factor per unit of multiplicity."""
    c = [1] + [0] * D
    for n in sorted(gens):
        ks = range(n, D + 1) if n % 2 == 0 else range(D, n - 1, -1)
        for _ in range(gens[n]):
            for k in ks:
                c[k] += c[k - n]
    return c


@given(st.dictionaries(st.integers(1, 30), st.integers(0, 500), max_size=6),
       st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_matches_passes_at_loop_space_sizes(gens, D):
    assert free_gca_series(gens, D).c == _passes(gens, D)


@pytest.mark.parametrize("gens, D", [
    # ring series of P(a, b): the passes run up to top = 3 at D = 40 and
    # top = 6 at D = 100, the recurrence for the rest
    *[({4 * i: 2 for i in range(1, top + 1)}, D)
      for top in (1, 3, 6, 12) for D in (16, 40, 100)],
    ({8 * i: 1 for i in range(1, 4)}, 100),
])
def test_ring_series_match_passes_on_each_side_of_the_choice(gens, D):
    assert free_gca_series(gens, D).c == _passes(gens, D)


@pytest.mark.parametrize("d", [6, 12])
@pytest.mark.parametrize("R", [1, 2, "inf"])
def test_loopspace_matches_passes(d, R):
    # second-page counts: thousands of units, the recurrence runs
    total = e2_ranks(d, R, 100).total
    gens = {n: total[n] for n in range(1, 101) if total[n]}
    assert loopspace_series(d, R, 100).c == _passes(gens, 100)


@given(st.dictionaries(st.integers(1, 10), st.integers(0, 2), max_size=3),
       st.dictionaries(st.integers(1, 10), st.integers(0, 2), max_size=3))
@settings(max_examples=40)
def test_multiplicative_in_the_generators(g1, g2):
    merged = dict(g1)
    for n, g in g2.items():
        merged[n] = merged.get(n, 0) + g
    D = 14
    assert free_gca_series(merged, D).c == \
        _product(free_gca_series(g1, D).c, free_gca_series(g2, D).c)


def test_loopspace_d4():
    ser = loopspace_series(4, "inf", 16)
    assert ser.c == [1, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 5, 1, 0, 0, 11]


def test_loopspace_offset_shifts_generators():
    base = e2_ranks(4, "inf", 14).total
    ser = loopspace_series(4, "inf", 16, offset=2)
    # the first generator (degree 4) now sits in degree 6
    assert ser[4] == 0 and ser[6] == base[4]


def test_loopspace_coefficients_nonnegative():
    for R in (1, 2, "inf"):
        ser = loopspace_series(5, R, 18)
        assert all(c >= 0 for c in ser.c)
        assert ser[0] == 1


def test_mmm_subseries_even():
    assert mmm_subseries(4, 12).c == [1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2]


def test_mmm_subseries_odd_matches_its_pontryagin_ring():
    assert mmm_subseries(5, 12) == mmm_subseries(4, 12)
    assert mmm_subseries(7, 12).c == [1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3]


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_mmm_bounded_by_total(d):
    # the regular column alone never exceeds the whole second page
    D = 16
    total = e2_ranks(d, "inf", D).total
    sub = mmm_subseries(d, D)
    for n in range(D + 1):
        assert sub[n] <= total[n]
