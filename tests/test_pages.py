"""Second-page ranks, closed forms, collapse, and generator verification."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import differentials, pages
from artifact.cli import main
from artifact.differentials import (
    _piece_for, _terms, LinearMap, assemble_matrix,
)
from artifact.e1 import BasisElement, build_basis, column_series
from artifact.grading import (
    Series, VariableSet, FlavoredSpace, FULL, SYM, SKEW, space_series, orbit_reps, s_hom,
    enumerate_monomials, mono_mul, mono_swap,
)
from artifact.loopspace import loopspace_series
from artifact.pages import (
    e2_ranks, closed_form, closed_form_notes, generator_classes, verify_generators,
    chain_check, collapse_check, PageCell, PageReport, CheckReport,
)
from artifact.strata import Stratum, enumerate_strata, column_content, PLUS, MINUS
from test_differentials import restriction_expansion


def test_d4_full_sequence_series():
    rep = e2_ranks(4, "inf", 21)
    assert rep.total.c == [1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0,
                           0, 2, 1, 0, 0, 3, 1, 0, 0, 3, 2]
    assert rep.ok and rep.mismatch is None


def test_d4_fold_only_series():
    rep = e2_ranks(4, 1, 21)
    assert rep.total.c == [1, 0, 0, 0, 1, 2, 0, 0, 2, 3, 0,
                           0, 2, 5, 0, 0, 3, 6, 0, 0, 3, 8]
    assert rep.ok


def test_d4_r2_series():
    rep = e2_ranks(4, 2, 21)
    assert rep.total.c == [1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 1,
                           0, 2, 1, 2, 0, 3, 1, 3, 0, 3, 2]
    assert rep.ok


def test_r_parameter_spellings_agree():
    a = e2_ranks(4, None, 16).total
    b = e2_ranks(4, "inf", 16).total
    c = e2_ranks(4, float("inf"), 16).total
    assert a == b == c
    two = e2_ranks(4, 2, 16).total
    assert e2_ranks(4, "2", 16).total == e2_ranks(4, 2.0, 16).total == two


def test_deep_truncation_is_the_full_sequence():
    # once R passes the last populated column the truncation is inert,
    # except that closed forms are only printed for the two ends
    full = e2_ranks(5, "inf", 18).total
    assert e2_ranks(5, 50, 18).total == full


def test_column_zero_independent_of_r():
    for R in (1, 2, 3, "inf"):
        rep = e2_ranks(4, R, 16)
        col0 = [rep.cells[(0, n)].e2_rank for n in range(17)
                if (0, n) in rep.cells]
        assert col0 == [1, 1, 2, 2, 3]


def test_top_column_keeps_whole_kernel():
    rep = e2_ranks(4, 2, 14)
    for (k, n), cell in rep.cells.items():
        if k == 2:
            assert cell.kernel_rank == cell.e1_rank


@pytest.mark.parametrize("d", [3, 4, 5, 6, 8])
@pytest.mark.parametrize("R", [1, 2, 3, 4, 5, 6, "inf"])
def test_closed_forms_match(d, R):
    D = 24 if d >= 6 else 20
    rep = e2_ranks(d, R, D)
    assert rep.mismatch is None, \
        "first mismatch at degree %s" % rep.mismatch


def test_d6_tau_defect_values():
    # the fold-column ranks drop below the naive tau count from
    # degree 19 on; these two spots pin the corrected series
    rep = e2_ranks(6, "inf", 23)
    assert rep.cells[(1, 19)].e2_rank == 2
    assert rep.cells[(1, 23)].e2_rank == 4
    assert rep.mismatch is None


def test_d6_correction_is_noted():
    notes = closed_form_notes(6, "inf")
    assert any("tau" in note for note in notes)
    assert closed_form_notes(6, 1) is not None


def test_odd_d_notes():
    tau = ("odd-d tau block encoded over P(2j, d+1-2j); Euler block over "
           "even a <= (d-1)/2")
    assert closed_form_notes(5, "inf") == [tau]
    assert closed_form_notes(5, 2) == [
        tau, "for odd d the truncations 2r and 2r+1 with r odd match the "
             "untruncated series"]


@pytest.mark.parametrize("d", range(1, 12, 2))
def test_odd_d_truncations_with_r_odd_match_the_full_page(d):
    # the claim of the second odd-d note, on the computed page: R = 2r and
    # 2r + 1 give the untruncated total for r odd, and not for r even
    full = e2_ranks(d, "inf", 60).total
    for R in (2, 3, 6, 7, 10, 11):
        assert e2_ranks(d, R, 60).total == full, R
    for R in (4, 5, 8, 9):
        assert e2_ranks(d, R, 60).total != full, R


@pytest.mark.parametrize("d,degree", [(6, 19), (8, 17), (10, 19)])
def test_drift_degree_in_notes(d, degree):
    # first nonzero coefficient of t^(d+1)(S(d/2,d/2) - P(d,0))
    notes = closed_form_notes(d, "inf")
    assert any("drift apart from degree %d on" % degree in note for note in notes)


def test_d8_extra_fold_classes():
    # the half-square symmetric count outgrows the full-ring count,
    # so extra kernel classes survive above the Euler image
    rep = e2_ranks(8, "inf", 21)
    assert rep.cells[(1, 17)].e2_rank == 1
    assert rep.cells[(1, 21)].e2_rank == 2
    assert rep.mismatch is None


def test_closed_form_standalone_agrees_with_report():
    rep = e2_ranks(3, 4, 18)
    assert rep.mismatch == closed_form(3, 4, 18).first_mismatch(rep.total)


def test_closed_form_is_built_when_the_verdict_is_read(monkeypatch):
    # a report holds the ranks alone: e2_ranks builds no closed form, and
    # each read of the verdict builds one
    assert PageCell._fields == ("e1_rank", "kernel_rank", "image_rank_from_left",
                                "e2_rank")
    assert PageReport._fields == ("d", "R", "D", "cells", "total")
    real, calls = pages.closed_form, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pages, "closed_form", counted)
    pages.clear_cache()
    rep = e2_ranks(6, 2, 40)
    assert calls == []
    assert rep.mismatch == real(6, 2, 40).first_mismatch(rep.total)
    assert calls == [(6, 2, 40)]
    raised = rep.total.c[:]
    raised[17] += 1
    assert rep._replace(total=Series(raised, 40)).mismatch == 17


@pytest.mark.parametrize("d", [4, 5, 6])
def test_collapse(d):
    col = collapse_check(d, 16)
    assert col.ok, "\n".join(col.lines())


@pytest.mark.parametrize("D,K", [(6, 1), (7, 1), (8, 2), (9, 3), (10, 4), (11, 5)])
def test_verify_entries_follow_d_and_D_at_small_K(capsys, D, K):
    # K = max(1, D - d) bounds every check: the oracle runs levels 1..K,
    # the chain check stops below column K and the collapse check covers
    # columns 2..K (the grid counts no column beyond K)
    assert main(["verify", "--dim", "6", "--max-degree", str(D), "--format", "json"]) == 0
    assert [row["check"] for row in json.loads(capsys.readouterr().out)["report"]] == (
        ["oracle level %d" % level for level in range(1, K + 1)]
        + ["chain condition d(d(x)) = 0"]
        + ["collapse column %d exact" % k for k in range(2, K + 1)]
        + ["column 1 counted rank exact", "closed form matches computed ranks",
           "generators: all classes lie in ker d1", "generators: sigma classes lie in im d0",
           "generators: remaining classes span E2 column 1"])


def test_collapse_check_alone_covers_the_columns_the_grid_counts():
    # at D = 8 the grid of d = 6 stops at column 2
    rep = collapse_check(6, 8)
    assert rep.entries == [("collapse column 2 exact", True, ""),
                           ("column 1 counted rank exact", True, "")]


def test_collapse_check_catches_a_wrong_count(monkeypatch):
    # the grid counts the ranks of columns >= 2; collapse_check
    # assembles the cells it checks, so a count off by one fails there
    real = pages._counted_ranks

    def off_by_one(*args):
        ranks = real(*args)
        ranks[3].c[15] += 1
        return ranks

    monkeypatch.setattr(pages, "_counted_ranks", off_by_one)
    pages.clear_cache()
    try:
        rep = collapse_check(4, 20)
        grid = pages._grid(4, 20)
    finally:
        pages.clear_cache()
    assert not rep.ok
    assert rep.entries[0] == ("collapse column 2 exact", True, "")
    assert rep.entries[1] == ("collapse column 3 exact", False,
                              "degree 15: counted rank 3, assembled rank 2")
    # column 7 is read as column 3 four degrees lower, so the miscount
    # reaches the ranks e2_ranks reads there; e2_ranks itself stops
    # earlier, at the negative cell (3, 15)
    _, ranks, shift = pages._column(grid, 7)
    assert shift == 4 and ranks[19 - shift] == grid[2][3][15] == 3


def test_collapse_check_catches_a_wrong_fold_count(monkeypatch):
    # the grid counts column 1 too; collapse_check assembles every fold
    # cell, and column 2 reads its images from them, so a fold count off
    # by one fails only the fold entry, naming the degree
    real = pages._counted_ranks

    def off_by_one(*args):
        ranks = real(*args)
        ranks[1].c[13] += 1
        return ranks

    monkeypatch.setattr(pages, "_counted_ranks", off_by_one)
    pages.clear_cache()
    try:
        rep = collapse_check(4, 20)
    finally:
        pages.clear_cache()
    assert [name for name, ok, _ in rep.entries if not ok] == ["column 1 counted rank exact"]
    assert rep.entries[-1][2] == "degree 13: counted rank 5, assembled rank 4"


def test_chain_check_names_first_failure(monkeypatch):
    assert chain_check(4, 20).ok
    monkeypatch.setattr(differentials, "fold_sign", lambda a: 1)
    rep = chain_check(4, 20)
    assert rep.entries == [("chain condition d(d(x)) = 0", False,
                            "column 0 degree 4")]


def test_chain_check_reports_smallest_failure_across_diagonals():
    # failures on three diagonals; a walk with the degree outermost
    # would meet (3, 1) first, but the report must name the smallest
    # in (column, degree) order.  Every cell maps one element; its column
    # is nonzero at a failing cell and right above one, so the product
    # d(k + 1, n + 1) d(k, n) is nonzero exactly at the failing cells
    failing = {(3, 1), (2, 3), (1, 9), (1, 12)}
    fake = {(k, n): LinearMap(None, None, [{0: 1} if {(k, n), (k - 1, n - 1)} & failing
                                           else {}])
            for k in range(7) for n in range(21)}
    assert chain_check(4, 20, maps=lambda k, n: fake[(k, n)]).entries[0][2] == \
        "column 1 degree 9"


@pytest.mark.parametrize("d,D,count", [(4, 18, 8), (5, 18, 13),
                                       (6, 20, 11), (7, 18, 6)])
def test_generator_counts(d, D, count):
    assert len(generator_classes(d, D)) == count


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_generators_verify(d):
    D = 20 if d == 6 else 18
    rep = verify_generators(d, D)
    assert rep.ok, "\n".join(rep.lines())


@pytest.mark.parametrize("d,D", [(5, 18), (6, 20)])
def test_a_changed_class_coefficient_fails_the_kernel_check(monkeypatch, d, D):
    # the kernel check multiplies the fold matrix at a class's degree by
    # the class vector: one coefficient raised at an element that the fold
    # differential does not kill takes that class out of the kernel.  The
    # check builds its vectors run by run through _vectors
    classes = generator_classes(d, D)
    changed, i = next((cl, i) for cl in classes
                      for fold in [assemble_matrix(d, 1, cl.degree)]
                      for i in cl.expansion(d, fold.source) if fold.cols[i])
    built = pages._vectors

    def vectors(d, run, basis):
        out = built(d, run, basis)
        for cl, vec in zip(run, out):
            if cl is changed:
                vec[i] += 1
        return out

    monkeypatch.setattr(pages, "generator_classes", lambda d, D, reps: classes)
    monkeypatch.setattr(pages, "_vectors", vectors)
    assert verify_generators(d, D).entries[0] == (
        "generators: all classes lie in ker d1", False,
        "%d classes, 1 failures" % len(classes))


def test_a_class_outside_im_d0_fails_the_sigma_check(monkeypatch):
    # a tau class relabelled sigma lies in ker d1 but not in im d0: it
    # raises the rank of the image rows by one, and one is enough to fail
    # the sigma entry
    d, D = 6, 30
    classes = list(generator_classes(d, D))
    [i] = [i for i, cl in enumerate(classes) if cl.label() == "tau[j=0](p'_3)"]
    assert classes[i].degree == 19
    classes[i] = classes[i]._replace(kind="sigma")
    monkeypatch.setattr(pages, "generator_classes", lambda d, D, reps: classes)
    assert [(name, ok) for name, ok, _ in verify_generators(d, D).entries] == [
        ("generators: all classes lie in ker d1", True),
        ("generators: sigma classes lie in im d0", False),
        ("generators: remaining classes span E2 column 1", True)]


def _eager_classes(d, D):
    # the classes as (kind, family, data, degree, expansion), each
    # expansion built up front in the fold basis of its degree: the
    # recipe expansion(d, basis) must rebuild
    out = []
    fold = d + 1
    table = lambda n: build_basis(d, 1, n).table
    for a_top in range((d + 1) % 2, d // 2 + 1, 2):
        ring = VariableSet(a_top, d + 1 - a_top)
        idx = ring.nb
        unit = ((0,) * ring.na, tuple(1 if t == idx - 1 else 0 for t in range(ring.nb)))
        for md in range(0, D - fold - 4 * idx + 1, 4):
            for m in enumerate_monomials(ring, md):
                p = {mono_mul(m, unit): 1}
                n = fold + 4 * idx + md
                out.append(("tau", a_top // 2, p, n,
                            restriction_expansion(d, a_top, p, ring, table(n))))
    if d % 2 == 0:
        square = VariableSet(d, d)
        for md in range(0, D - fold + 1, 4):
            for m in enumerate_monomials(VariableSet(d, 0), md):
                q = s_hom((m[0], ()), square)
                out.append(("sigma", None, q, fold + md, restriction_expansion(
                    d, d // 2, q, square, table(fold + md))))
        return out
    d2 = (d + 1) // 2
    square = VariableSet(d2, d2)
    for md in range(0, D - fold + 1, 4):
        for k in orbit_reps(FlavoredSpace(square, SKEW), md):
            q = {k: 1, mono_swap(k): -1}
            out.append(("sigma", None, q, fold + md,
                        restriction_expansion(d, d2, q, square, table(fold + md))))
    for s in enumerate_strata(d, 1):
        piece = _piece_for(s, True)
        if piece is None:
            continue
        kind, family = ("i_top", None) if s.a == s.b else ("i", s.a)
        for md in range(0, D - piece.offset(s) + 1, 4):
            for m in orbit_reps(piece.space(s), md):
                n = piece.offset(s) + md
                out.append((kind, family, _terms(piece.flavor, m), n,
                            {table(n)(s, piece)[m]: 1}))
    return out


def test_expansion_rebuilds_the_eager_classes():
    # generator_classes lists the eager classes sorted stably by degree
    seen = set()
    for d in range(1, 13):
        classes = generator_classes(d, 40)
        assert [(cl.kind, cl.family, cl.data, cl.degree,
                 cl.expansion(d, build_basis(d, 1, cl.degree)))
                for cl in classes] == sorted(_eager_classes(d, 40),
                                             key=lambda cl: cl[3]), d
        seen |= {(cl.kind, d % 2) for cl in classes}
    # tau of both parities, even and odd sigma, I and I_top
    assert seen == {("tau", 0), ("tau", 1), ("sigma", 0), ("sigma", 1),
                    ("i", 1), ("i_top", 1)}


def test_even_sigma_classes_are_the_d0_images_of_the_euler_part():
    # at even d the sigma class of m is d0(e.m): per degree n the sigma
    # expansions are d0's images of column 0's Euler elements in degree
    # n - 1, in the same order
    for d in range(2, 13, 2):
        sigmas = {}
        for cl in generator_classes(d, 40):
            if cl.kind == "sigma":
                sigmas.setdefault(cl.degree, []).append(
                    cl.expansion(d, build_basis(d, 1, cl.degree)))
        for n in range(41):
            M = assemble_matrix(d, 0, n - 1)
            want = [col for el, col in zip(M.source, M.cols) if el.piece.euler]
            assert sigmas.get(n, []) == want, (d, n)
        assert sigmas, d


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 13])
def test_odd_generator_counts_match_closed_form(d):
    # tau, sigma, I and I_top together are the closed form minus column 0
    D = 50
    counts = [0] * (D + 1)
    for cl in generator_classes(d, D):
        counts[cl.degree] += 1
    want = closed_form(d, "inf", D) - pages._P(d, 0, D)
    assert Series(counts, D) == want


def test_generator_class_reprs_are_pinned():
    first = {}
    for cl in generator_classes(3, 24):
        first.setdefault(cl.kind, cl)
    assert {kind: repr(cl) for kind, cl in first.items()} == {
        "tau": "tau[j=0](p'_2) deg=12",
        "sigma": "sigma(p_1 - p'_1) deg=8",
        "i": "I[a=0](1) deg=8",
        "i_top": "I_top(1) deg=8",
    }


def test_generator_degrees_within_bound():
    for cl in generator_classes(5, 17):
        assert cl.degree <= 17
        assert cl.expansion(5, build_basis(5, 1, cl.degree))


@given(st.integers(1, 9), st.integers(0, 30), st.integers(1, 4))
@settings(max_examples=12, deadline=None)
def test_e2_never_negative(d, D, R):
    rep = e2_ranks(d, R, D)
    for cell in rep.cells.values():
        assert cell.e2_rank >= 0
        assert cell.kernel_rank >= cell.image_rank_from_left


def test_report_reprs_are_pinned():
    rep = e2_ranks(6, "inf", 30)
    assert repr(rep) == "PageReport(d=6, R=inf, D=30, ok)"
    cell = rep.cells[(1, 15)]
    assert repr(cell) == \
        "PageCell(e1_rank=12, kernel_rank=3, image_rank_from_left=2, e2_rank=1)"
    assert cell.e1_rank - cell.kernel_rank == 9
    rep = e2_ranks(4, 2, 20)
    raised = rep.total.c[:]
    raised[9] += 1
    assert repr(rep._replace(total=Series(raised, 20))) == \
        "PageReport(d=4, R=2, D=20, mismatch at 9)"
    check = CheckReport("demo", [("a holds", True, ""), ("b holds", False, "degree 3")])
    assert repr(check) == "demo\n  ok   a holds\n  FAIL b holds (degree 3)"


def test_cache_survives_clearing():
    pages.clear_cache()
    a = e2_ranks(4, "inf", 12).total
    pages.clear_cache()
    b = e2_ranks(4, "inf", 12).total
    assert a == b


def test_negative_e2_raises_under_O():
    # the e2 >= 0 guard is what catches a rank that overcounts, so it
    # must survive -O; a fold count above the cell's size (4) trips it
    # in that cell, past the grid's guard cell in degree 5; the loop-space
    # series reads the same sums and keeps the guard
    import artifact
    code = (
        "from artifact import pages, loopspace\n"
        "real = pages._counted_ranks\n"
        "def over(*args):\n"
        "    ranks = real(*args)\n"
        "    ranks[1].c[9] += 2\n"
        "    return ranks\n"
        "pages._counted_ranks = over\n"
        "for fn in (pages.e2_ranks, loopspace.loopspace_series):\n"
        "    try:\n"
        "        fn(4, 'inf', 12)\n"
        "    except ArithmeticError as e:\n"
        "        print(e)\n"
        "    else:\n"
        "        raise SystemExit('negative e2 accepted')\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(artifact.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["image exceeds kernel at column 1 degree 9"] * 2


def test_short_d0_sub_block_raises_under_O():
    # the counted rank of d0 is certified by its rows on the fold
    # stratum (0, d + 1); emptying the row of e.p_2 (its image p'_2)
    # must trip the certificate at degree 12, also under -O
    import artifact
    code = (
        "from artifact import pages\n"
        "real = pages.s_hom\n"
        "pages.s_hom = lambda m, target: (\n"
        "    {} if target.na == 0 and m == ((0, 1), ()) else real(m, target))\n"
        "try:\n"
        "    pages.e2_ranks(4, 'inf', 20)\n"
        "except ArithmeticError as e:\n"
        "    print(e)\n"
        "else:\n"
        "    raise SystemExit('short d0 sub-block accepted')\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(artifact.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "d0 sub-block is not of full rank at degree 12"


def _snapshot(rep):
    cells = {key: (c.e1_rank, c.kernel_rank, c.image_rank_from_left, c.e2_rank)
             for key, c in rep.cells.items()}
    return cells, rep.total.c


@given(st.integers(3, 6),
       st.lists(st.integers(6, 30), min_size=2, max_size=4, unique=True),
       st.lists(st.sampled_from([1, 2, 3, "inf"]), min_size=2, max_size=3, unique=True))
@settings(max_examples=20, deadline=None)
def test_grown_grid_matches_cold_grid(d, degrees, truncations):
    # one warm session asks e2 and then loopspace for every truncation at
    # each D, the degrees there and back, so smaller D follow larger ones;
    # every answer equals the cold one
    pages.clear_cache()
    session = [(D, R) for D in degrees + degrees[::-1] for R in truncations]
    warm = [(_snapshot(e2_ranks(d, R, D)), loopspace_series(d, R, D)) for D, R in session]
    cold = {}
    for D, R in session:
        pages.clear_cache()
        cold[D, R] = (_snapshot(e2_ranks(d, R, D)), loopspace_series(d, R, D))
    pages.clear_cache()
    assert warm == [cold[key] for key in session]
    # truncation consistency: a smaller D gives a prefix of the series
    top = max(degrees)
    for R in truncations:
        longest = cold[top, R][0][1]
        for D in degrees:
            assert cold[D, R][0][1] == longest[:D + 1]


def test_a_handed_out_report_stays_put():
    # a growth builds a new page and swaps it in, so a report handed out
    # keeps its cells and total while later requests grow the grid and the
    # page of its truncation
    pages.clear_cache()
    rep = e2_ranks(6, 2, 30)
    cells, total = dict(rep.cells), list(rep.total.c)
    e2_ranks(6, 2, 60)
    loopspace_series(6, 2, 60)
    pages.clear_cache()
    assert rep.cells == cells and rep.total.c == total
    assert max(n for _, n in rep.cells) <= 30


@pytest.mark.parametrize("d", range(1, 17))
def test_columns_repeat_with_period_4(d):
    # the grid counts columns 2..5 and reads every later column from them
    # four degrees lower per step; a rule that read a level beyond its
    # residue mod 4 would fail here
    D = 60
    for k in range(6, 14):
        assert column_series(d, k, D) == column_series(d, k - 4, D).tshift(4), k
        counted = pages._counted_ranks(pages._block_ranks(d, [k - 4, k]), [k - 4, k], D)
        assert counted[k] == counted[k - 4].tshift(4), k


def _grid_cells(d, D):
    # the grid's nonzero cells of columns 0..K as {(k, n): size} and
    # {(k, n): rank}, every column k >= 6 read through pages._column
    grid = pages._grid(d, D)
    sizes, ranks = {}, {}
    for k in range(max(1, D - d) + 1):
        size_at, rank_at, shift = pages._column(grid, k)
        for n in range(shift, D + 1):
            if size_at[n - shift]:
                sizes[(k, n)] = size_at[n - shift]
                ranks[(k, n)] = rank_at[n - shift]
    return sizes, ranks


def _per_column_grid(d, D):
    # the grid counted column by column, with no shift: column 0 by its
    # Euler elements, every k >= 1 by its own block ranks
    [s] = enumerate_strata(d, 0)
    piece = _piece_for(s, True)
    euler = space_series(piece.space(s), D).tshift(piece.offset(s)) \
        if piece else Series.zero(D)
    K = max(1, D - d)
    columns = range(1, K + 1)
    counted = {0: euler,
               **pages._counted_ranks(pages._block_ranks(d, columns), columns, D)}
    sizes, ranks = {}, {}
    for k in range(K + 1):
        for n, (size, rk) in enumerate(zip(column_series(d, k, D).c, counted[k].c)):
            if size:
                sizes[(k, n)] = size
                ranks[(k, n)] = rk
    return sizes, ranks


@pytest.mark.parametrize("d, D", [(d, 60) for d in range(1, 17)] + [(12, 100)])
def test_shifted_grid_matches_per_column_count(d, D):
    pages.clear_cache()
    cells = _grid_cells(d, D)
    pages.clear_cache()
    assert cells == _per_column_grid(d, D)


@given(st.integers(1, 20), st.integers(0, 12), st.integers(0, 80))
@settings(max_examples=40, deadline=None)
def test_counted_cell_is_the_assembled_cell(d, k, n):
    # any cell the grid counts, column 0 by its Euler count and a column
    # k >= 6 through the period-4 rule, has the size and rank of the
    # matrix block_columns assembles
    size_at, rank_at, shift = pages._column(pages._grid(d, 80), k)
    counted = (size_at[n - shift], rank_at[n - shift]) if n >= shift else (0, 0)
    M = assemble_matrix(d, k, n)
    assert counted == (len(M.source), M.rank())


def test_grid_grown_to_100_matches_cold_grid():
    # every growth sums the kept block ranks up to the new D, and the
    # grid keeps columns 0..5 alone
    pages.clear_cache()
    for D in range(40, 101, 10):
        grown = pages._grid(6, D)
    pages.clear_cache()
    assert pages._grid(6, 100) == grown
    assert len(grown[1]) == len(grown[2]) == 6
    pages.clear_cache()


def test_the_grid_assembles_one_new_fold_cell_per_growth(monkeypatch):
    # every rank is counted: a build or growth assembles only its lowest
    # new fold cell, as a guard; a build applies the fold rule to the
    # representative blocks and that cell alone, so a larger D adds no
    # fold elements, and a growth keeps the block ranks, so it applies
    # the fold rule only inside its guard cell and ranks no block.  folds
    # counts the source elements the fold rule is applied to, blocks
    # those _block_ranks applies a rule to
    calls, folds, blocks = [], [], []
    real, real_block = pages.assemble_matrix, differentials.block_columns
    monkeypatch.setattr(pages, "assemble_matrix",
                        lambda d, k, n: calls.append((k, n)) or real(d, k, n))

    def counting(seen):
        def run(d, s, piece, monos, tables):
            if s.level == 1:
                folds.extend(monos)
            seen.extend(monos)
            return real_block(d, s, piece, monos, tables)
        return run

    monkeypatch.setattr(differentials, "block_columns", counting([]))
    monkeypatch.setattr(pages, "block_columns", counting(blocks))

    def grid(*degrees, cold=True):
        if cold:
            pages.clear_cache()
        del calls[:], folds[:], blocks[:]
        for D in degrees:
            e2_ranks(4, "inf", D)
        return list(calls), len(folds), len(blocks)

    small, large = grid(20), grid(30)
    assert small[0] == large[0] == [(1, 5)] and small[1:] == large[1:]
    assert small[1] > len(build_basis(4, 1, 5)) and small[2] > 0
    grid(20)
    assert grid(30, cold=False) == ([(1, 21)], len(build_basis(4, 1, 21)), 0)
    assert grid(25, 30, 12, cold=False) == ([], 0, 0)


def test_a_miscounted_fold_cell_in_a_growth_fails_the_guard(monkeypatch):
    # growing the d = 4 grid from D = 22 to 30 guards its lowest new fold
    # cell with Euler-free elements, degree 25 (23 is empty): a column 1
    # miscounted there by one raises
    pages.clear_cache()
    pages._grid(4, 22)
    real = pages._counted_ranks

    def counted(*args):
        ranks = real(*args)
        ranks[1].c[25] += 1
        return ranks

    monkeypatch.setattr(pages, "_counted_ranks", counted)
    with pytest.raises(ArithmeticError,
                       match="^fold count differs from assembly at degree 25$"):
        pages._grid(4, 30)
    pages.clear_cache()


def test_a_check_called_alone_assembles_only_the_cells_it_reads(monkeypatch):
    # the checks read assemble_columns' reader, which assembles a cell on
    # its first read and keeps it: collapse_check reads columns 1..5 and
    # verify_generators columns 0 and 1, each cell once
    e2_ranks(6, "inf", 12)  # the grid's guard cell is assembled apart
    calls = []
    real = pages.assemble_matrix
    monkeypatch.setattr(pages, "assemble_matrix",
                        lambda d, k, n, reps: calls.append((k, n)) or real(d, k, n, reps))
    assert collapse_check(6, 12).ok
    assert {k for k, _ in calls} == {1, 2, 3, 4, 5}
    assert len(calls) == len(set(calls))
    del calls[:]
    assert verify_generators(6, 12).ok
    assert {k for k, _ in calls} == {0, 1}
    assert len(calls) == len(set(calls))


def _tables():
    # every table clear_cache empties, with its size
    from artifact import grading, strata
    return {"grid": len(pages._GRID), "images": len(grading._IMAGES),
            "exponents": grading._exponent_tuples.cache_info().currsize,
            "series": grading.space_series.cache_info().currsize,
            "bases": len(differentials._BASES),
            "bumps": len(grading._BUMPS), "text": len(grading._TEXT),
            "column_content": strata.column_content.cache_info().currsize,
            "variables": strata._variables.cache_info().currsize}


def test_one_term_images_share_no_monomial():
    # every p_i has a one-term image in the certificate's target
    # P(0, d + 1), so s_hom reads each image off the exponents and keeps
    # nothing: neither an image table nor a bump map with its monomials
    from artifact import grading
    pages.clear_cache()
    pages._grid(6, 100)
    assert not grading._IMAGES and not grading._BUMPS
    pages.clear_cache()


@pytest.mark.parametrize("d", [6, 8, 12])
def test_d0_and_the_sigma_classes_keep_images_in_one_ring(d):
    # d0 builds its images in the staircase's ring, the union of the fold
    # strata's variable ranges, and the even-d sigma vectors are d0's
    # images, so verify's three checks on one reader keep one image table,
    # in that ring; only the labels build s_hom(m) in P(d, d)
    from artifact import grading
    pages.clear_cache()
    maps = pages.assemble_columns(d, 30)
    for check in (chain_check, collapse_check, verify_generators):
        check(d, 30, maps=maps)
    ring = VariableSet(2 * (d // 4), d)
    assert (ring.na, ring.nb) == (max(s.vars.na for s in enumerate_strata(d, 1)),
                                  max(s.vars.nb for s in enumerate_strata(d, 1)))
    assert set(grading._IMAGES) == {ring}
    for cl in generator_classes(d, 30):
        cl.label()
    assert set(grading._IMAGES) == {ring, VariableSet(d, d)}
    pages.clear_cache()


def test_the_certificate_ranks_each_euler_degree(monkeypatch):
    # a cold grid ranks d0's sub-block into the fold stratum (0, d + 1) as
    # one LinearMap per degree, so a miscounted rank in any degree that
    # holds an Euler class of column 0 (4, 8, 12, 16 at d = 4) is caught
    ranked, real = [], differentials.LinearMap.rank

    def rank(lm):
        if lm.source.column == 0:
            ranked.append(lm.source.degree)
        return real(lm)

    monkeypatch.setattr(differentials.LinearMap, "rank", rank)
    pages.clear_cache()
    e2_ranks(4, "inf", 16)
    pages.clear_cache()
    assert {4, 8, 12, 16} <= set(ranked)


def test_kept_series_are_shared_not_mutated(capsys):
    # the verbs read the kept space series and mutate none of them: after
    # they run, every kept (space, D) entry equals a fresh expansion
    pages.clear_cache()
    for argv in (["series", "--space", "sp:3,3", "--max-degree", "40"],
                 ["e2", "--dim", "6", "--r", "2", "--max-degree", "40"],
                 ["loopspace", "--dim", "5", "--max-degree", "30"],
                 ["verify", "--dim", "5", "--max-degree", "30"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    kept, found = space_series.cache_info().currsize, 0
    # every space these runs read: P(a, b) with a, b <= 2 (d + 1), and the
    # swap eigenspaces of the square ones; a probe is kept iff it hits
    for a, b, flavor in product(range(15), range(15), (FULL, SYM, SKEW)):
        if flavor != FULL and a // 2 != b // 2:
            continue
        space = FlavoredSpace(VariableSet(a, b), flavor)
        for D in (12, 30, 40):
            hits = space_series.cache_info().hits
            ser = space_series(space, D)
            if space_series.cache_info().hits > hits:
                found += 1
                assert ser == space_series.__wrapped__(space, D), (space, D)
    assert found == kept > 0
    pages.clear_cache()


def _certify(d, D):
    # one verify battery and the generator labels, on one shared reader;
    # the caller keeps the reader, whose matrices keep the shared bases
    maps = pages.assemble_columns(d, D)
    checks = [chain_check(d, D, maps=maps), collapse_check(d, D, maps=maps),
              verify_generators(d, D, maps=maps)]
    labels = [cl.label() for cl in generator_classes(d, D)]
    return [c.entries for c in checks], labels, maps


def test_clear_cache_empties_every_table():
    pages.clear_cache()
    first, labels, maps = _certify(6, 30)
    assert all(_tables().values()), _tables()
    pages.clear_cache()
    assert not any(_tables().values()), _tables()
    # the tables are caches only: a second cold run gives the same results
    second, labels2, _ = _certify(6, 30)
    assert (second, labels2) == (first, labels)
    pages.clear_cache()


def test_kept_tables_are_shared_not_copied():
    pages.clear_cache()
    sq = VariableSet(6, 6)
    img = s_hom(((1, 1, 1), ()), sq)
    assert s_hom(((1, 1, 1), ()), sq) is img
    # images share their monomials and exponent tuples, the unit image's
    # included: equal ones are one object
    images = [s_hom(m, sq) for md in range(0, 25, 4)
              for m in enumerate_monomials(VariableSet(6, 0), md)]
    monos = [m for image in images for m in image]
    exponents = [t for m in monos for t in m]
    assert len({id(m) for m in monos}) == len(set(monos)) < len(monos)
    assert len({id(t) for t in exponents}) == len(set(exponents)) < len(exponents)
    s = Stratum(2, 2, 4)
    assert column_content(s) is column_content(s) and s.vars is s.vars
    # a reader's cells share the basis of (k + 1, n + 1) between the
    # target of (k, n) and the source of (k + 1, n + 1)
    maps = pages.assemble_columns(6, 30)
    assert maps(1, 9).target is maps(2, 10).source
    pages.clear_cache()
    assert s_hom(((1, 1, 1), ()), sq) is not img
    assert s_hom(((1, 1, 1), ()), sq) == img
    pages.clear_cache()


def _list_tables():
    # the live orbit_reps caches: a reader owns one, nothing else does
    import gc
    gc.collect()
    return sum(1 for o in gc.get_objects()
               if type(o).__name__ == "_lru_cache_wrapper" and o.__wrapped__ is orbit_reps)


def test_a_reader_lists_each_block_once_and_keeps_its_lists_to_itself():
    # one monomial list per (space, internal degree), owned by the reader:
    # the Euler block of (2, a, b) in the source of maps(2, n) is the very
    # list of (3, a, b, +) and (3, a, b, -) in its target, and the classes
    # verify_generators lists from the reader at odd d hold the monomials
    # of the fold basis blocks of their degree themselves, not equal copies
    pages.clear_cache()
    before = _list_tables()
    maps = pages.assemble_columns(8, 40)
    assert _list_tables() == before + 1
    M = maps(2, 26)
    target = {(s, p): ms for s, p, ms in M.target.blocks}
    shared = [(s, p) for s, p, ms in M.source.blocks if p.euler and s.a != s.b
              for sign in (PLUS, MINUS) if target[Stratum(3, s.a, s.b, sign), p] is ms]
    assert len(shared) == 4  # (2, 0, 8) and (2, 2, 6), onto both sheets
    maps = pages.assemble_columns(7, 40)
    classes = generator_classes(7, 40, maps.reps)
    assert {cl.kind for cl in classes} == {"tau", "sigma", "i", "i_top"}
    for cl in classes:
        assert any(m is cl.mono for _, _, ms in maps(1, cl.degree).source.blocks
                   for m in ms), cl
    assert not any(m is cl.mono for cl in generator_classes(7, 40)
                   for _, _, ms in maps(1, cl.degree).source.blocks for m in ms)
    # the e2 path keeps no list table: a warm session leaves none behind
    del maps, M, target
    before = _list_tables()
    for D in (40, 60, 80):
        e2_ranks(6, "inf", D)
        loopspace_series(6, 2, D)
    assert _list_tables() == before
    pages.clear_cache()


@pytest.mark.parametrize("d", range(2, 13, 2))
def test_d0_on_the_a0_fold_stratum_is_s_hom(d):
    # the grid's column-0 certificate builds d0's rows on (0, d + 1) as
    # s_hom into that stratum's variables, with no staircase around it
    [s], t = enumerate_strata(d, 0), Stratum(1, 0, d + 1)
    piece, tpiece = _piece_for(s, True), _piece_for(t, False)
    seen = 0
    for md in range(41 - piece.offset(s)):
        M = assemble_matrix(d, 0, piece.offset(s) + md)
        names = list(M.target)
        images = {el.mono: col for el, col in zip(M.source, M.cols) if el.piece.euler}
        for m in orbit_reps(piece.space(s), md):
            assert {names[i]: c for i, c in images[m].items() if names[i].stratum == t} == \
                {BasisElement(t, tpiece, tm): c for tm, c in s_hom(m, t.vars).items()}
            seen += 1
    assert seen


@pytest.mark.parametrize("R", [0, -1, "0"])
def test_truncation_below_one_is_rejected(R):
    for fn in (e2_ranks, closed_form, loopspace_series):
        with pytest.raises(ValueError, match="truncation order"):
            fn(6, R, 30)


@pytest.mark.parametrize("R", [2.5, Fraction(5, 2), 1.5])
def test_non_integral_truncation_is_rejected(R):
    for fn in (e2_ranks, closed_form, loopspace_series):
        with pytest.raises(ValueError, match="truncation order .* is not an integer"):
            fn(6, R, 30)


def test_negative_max_degree_is_rejected_under_O():
    import artifact
    code = (
        "from artifact.pages import (e2_ranks, chain_check, collapse_check,\n"
        "    verify_generators, generator_classes, assemble_columns)\n"
        "from artifact.loopspace import loopspace_series\n"
        "calls = [lambda: e2_ranks(6, 'inf', -1), lambda: loopspace_series(6, 'inf', -1),\n"
        "         lambda: chain_check(4, -1), lambda: collapse_check(4, -1),\n"
        "         lambda: verify_generators(4, -1), lambda: generator_classes(4, -1),\n"
        "         # a reader does not depend on D, so a check given one still checks D\n"
        "         lambda: chain_check(4, -1, maps=assemble_columns(4, 0)),\n"
        "         lambda: collapse_check(4, -1, maps=assemble_columns(4, 0)),\n"
        "         lambda: verify_generators(4, -1, maps=assemble_columns(4, 0))]\n"
        "for i, call in enumerate(calls):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as e:\n"
        "        print(e)\n"
        "    else:\n"
        "        raise SystemExit('max degree -1 accepted by call %d' % i)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(artifact.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["max degree -1 is below 0"] * 9


def test_truncation_below_one_is_rejected_under_O():
    import artifact
    code = (
        "from artifact import pages\n"
        "try:\n"
        "    pages.e2_ranks(6, 0, 30)\n"
        "except ValueError as e:\n"
        "    print(e)\n"
        "else:\n"
        "    raise SystemExit('truncation 0 accepted')\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(artifact.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "truncation order 0 is below 1"


def test_dimension_and_level_are_rejected_under_O():
    import artifact
    code = (
        "from artifact.pages import (e2_ranks, generator_classes,\n"
        "    verify_generators, chain_check, collapse_check, closed_form,\n"
        "    closed_form_notes)\n"
        "from artifact.loopspace import mmm_subseries\n"
        "from artifact.actions import oracle_crosscheck\n"
        "from artifact.e1 import column_series\n"
        "calls = [lambda: e2_ranks(-2, 'inf', 10), lambda: e2_ranks(0, 'inf', 10),\n"
        "         lambda: verify_generators(-1, 10), lambda: generator_classes(0, 10),\n"
        "         lambda: chain_check(0, 10), lambda: collapse_check(0, 10),\n"
        "         lambda: oracle_crosscheck(0, 1, 10), lambda: column_series(0, 1, 10),\n"
        "         lambda: closed_form(0, 'inf', 10), lambda: closed_form_notes(0, 'inf'),\n"
        "         lambda: mmm_subseries(0, 10),\n"
        "         lambda: oracle_crosscheck(4, 0, 10), lambda: oracle_crosscheck(4, -1, 10)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as e:\n"
        "        print(e)\n"
        "    else:\n"
        "        raise SystemExit('accepted')\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(artifact.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "dimension difference -2 is below 1", "dimension difference 0 is below 1",
        "dimension difference -1 is below 1"] + \
        ["dimension difference 0 is below 1"] * 8 + \
        ["level 0 is below 1", "level -1 is below 0"]


@pytest.mark.parametrize("d", range(1, 17))
def test_grid_has_no_cell_below_the_thom_degree(d):
    # e2_ranks reads column k >= 1 only from degree d + k on, and the
    # grid holds columns 0..5 alone
    _, sizes, ranks, _, _ = pages._grid(d, 70)
    assert len(sizes) == len(ranks) == 6
    assert not [(k, n) for k in range(1, 6) for n in range(min(d + k, 71))
                if sizes[k][n] or ranks[k][n]]


def _rectangle_cells(d, R, D):
    # every (k, n) of the full rectangle k <= kmax, n <= D, in e2_ranks' order
    Rn = pages._norm_R(R)
    sizes, ranks = _grid_cells(d, D)
    K = max(1, D - d)
    kmax = K if Rn is None else min(Rn, K)
    cells = []
    for n in range(D + 1):
        for k in range(kmax + 1):
            size = sizes.get((k, n), 0)
            if size:
                out_rank = 0 if k == Rn else ranks.get((k, n), 0)
                im_in = ranks.get((k - 1, n - 1), 0)
                cells.append((k, n, size, size - out_rank, im_in,
                              size - out_rank - im_in))
    return cells


@pytest.mark.parametrize("d, R, D", [(1, "inf", 30), (4, 2, 40), (6, 1, 60),
                                     (6, "inf", 100), (9, 3, 50), (12, 4, 70)])
def test_e2_cells_match_the_full_rectangle(d, R, D):
    assert [(k, n) + tuple(c) for (k, n), c in e2_ranks(d, R, D).cells.items()] == \
        _rectangle_cells(d, R, D)
