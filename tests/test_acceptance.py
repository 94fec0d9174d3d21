"""Acceptance suite.

One test per criterion, each emitting a single pass/fail line.  All
comparisons are exact integer or rational arithmetic; there are no
tolerances anywhere.  Criteria 1 and 2 carry wall-clock budgets, which
are asserted as hard bounds.
"""

import time

import pytest

from artifact.grading import (
    VariableSet, FlavoredSpace, FULL, SYM, SKEW, Series,
    enumerate_monomials, space_series, s_hom, mono_swap,
)
from artifact.actions import oracle_crosscheck
from artifact.strata import enumerate_strata
from artifact.e1 import build_basis
from artifact import differentials
from artifact.linalg import rank
from artifact import pages
from artifact.pages import e2_ranks, verify_generators, chain_check, collapse_check
from artifact.loopspace import free_gca_series, mmm_subseries


DIMS = (3, 4, 5, 6)


def report(num, name, ok, detail=""):
    line = "criterion %02d %-34s %s" % (num, name, "PASS" if ok else "FAIL")
    if detail and not ok:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


def test_criterion_01_oracle_table_agreement():
    t0 = time.monotonic()
    failures = []
    for d in DIMS:
        for level in range(1, 8):
            rep = oracle_crosscheck(d, level, 40)
            if not rep.ok:
                failures.extend(
                    "d=%d %s %s" % (d, name, detail)
                    for name, ok, detail in rep.entries if not ok)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    report(1, "oracle agrees with content tables", ok,
           "; ".join(failures) or "ran %.1fs" % elapsed)


def test_criterion_02_chain_condition():
    t0 = time.monotonic()
    bad = []
    for d in DIMS:
        rep = chain_check(d, 40)
        if not rep.ok:
            bad.extend("d=%d %s" % (d, line)
                       for line in rep.lines() if line.startswith("FAIL"))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 120.0
    report(2, "d(d(x)) = 0 in columns 0..5", ok,
           "; ".join(bad) or "ran %.1fs" % elapsed)


def test_criterion_03_collapse():
    bad = []
    for d in DIMS:
        col = collapse_check(d, 36)
        if not col.ok:
            bad.extend("d=%d %s" % (d, line)
                       for line in col.lines() if line.startswith("FAIL"))
    report(3, "kernel equals image in columns 2..5", not bad, "; ".join(bad))


def test_criterion_04_closed_forms_d4():
    bad = []
    for R in (1, 2, 3, 4, 5, 6, "inf"):
        rep = e2_ranks(4, R, 40)
        if rep.mismatch is not None:
            bad.append("R=%s first mismatch at %d" % (R, rep.mismatch))
    inf = e2_ranks(4, "inf", 40).total
    r1 = e2_ranks(4, 1, 40).total
    r2 = e2_ranks(4, 2, 40).total
    spots = (inf[4] == 1 and inf[5] == 0 and inf[13] == 1
             and r1[5] == 2
             and r2[10] == 1 and inf[10] == 0)
    if not spots:
        bad.append("spot values off: c4=%d c5=%d c13=%d r1c5=%d r2c10=%d"
                   % (inf[4], inf[5], inf[13], r1[5], r2[10]))
    report(4, "closed-form rank series, d = 4", not bad, "; ".join(bad))


def test_criterion_05_generator_suite():
    bad = []
    for d in (3, 4, 5, 6, 7):
        rep = verify_generators(d, 40)
        if not rep.ok:
            bad.extend("d=%d %s" % (d, line)
                       for line in rep.lines() if line.startswith("FAIL"))
    report(5, "generator classes check out", not bad, "; ".join(bad))


def test_criterion_06_whitney_symmetrization():
    # The splitting map is injective in every degree and lands in the
    # swap-invariant part of the square ring, but it is onto that part
    # only for s = 1: from s = 2 on the invariant ring is strictly
    # larger, with the first gap in degree 8.  The stated identity
    # series(b) + series(skew) = series(full) holds exactly when the
    # image fills the invariants, so it is pinned for s = 1 and the
    # gap is pinned degree by degree for s = 2, 3.
    bad = []
    D = 48
    for s in (1, 2, 3):
        b = space_series(FlavoredSpace.single(4 * s), D)
        sq = VariableSet(2 * s, 2 * s)
        a = space_series(FlavoredSpace(sq, SKEW), D)
        p = space_series(FlavoredSpace(sq, FULL), D)
        sym = space_series(FlavoredSpace(sq, SYM), D)
        if sym + a != p:
            bad.append("s=%d eigenspace split fails at %s"
                       % (s, (sym + a).first_mismatch(p)))
            continue
        gap = (b + a).first_mismatch(p)
        if s == 1 and gap is not None:
            bad.append("s=1 series identity fails at %d" % gap)
            continue
        if s > 1 and gap != 8:
            bad.append("s=%d first image gap at %s, expected 8" % (s, gap))
            continue
        src = VariableSet(4 * s, 0)
        for n in range(0, D + 1, 4):
            pos = {m: i for i, m in enumerate(enumerate_monomials(sq, n))}
            rows = []
            for m in enumerate_monomials(src, n):
                img = s_hom((m[0], ()), sq)
                if {mono_swap(mm): c for mm, c in img.items()} != img:
                    bad.append("s=%d image not swap invariant at degree %d"
                               % (s, n))
                rows.append({pos[mm]: c for mm, c in img.items()})
            if rank(rows) != b[n]:
                bad.append("s=%d image rank %d != %d at degree %d"
                           % (s, rank(rows), b[n], n))
                break
            if s == 1 and rank(rows) != sym[n]:
                bad.append("s=1 image misses invariants at degree %d" % n)
                break
    report(6, "s-hom into the symmetric subring", not bad, "; ".join(bad))


def test_criterion_07_fold_column_wedge():
    got = e2_ranks(4, 1, 40).total
    want = space_series(FlavoredSpace(VariableSet(0, 5), FULL), 40) + \
        (space_series(FlavoredSpace(VariableSet(1, 4), FULL), 40) +
         space_series(FlavoredSpace(VariableSet(2, 3), FULL), 40)).tshift(5)
    mis = got.first_mismatch(want)
    report(7, "fold-only series, d = 4", mis is None,
           "first mismatch at degree %s" % mis)


def test_criterion_08_mmm_survival():
    bad = []
    for d in DIMS:
        want = mmm_subseries(d, 40)
        for R in (1, 2, 3, "inf"):
            rep = e2_ranks(d, R, 40)
            col0 = [rep.cells[(0, n)].e2_rank if (0, n) in rep.cells else 0
                    for n in range(41)]
            if Series(col0, 40) != want:
                bad.append("d=%d R=%s" % (d, R))
    report(8, "column 0 carries exactly the MMM ring", not bad,
           "; ".join(bad))


def test_criterion_09_free_gca_sanity():
    even = free_gca_series({4: 1}, 16)
    odd = free_gca_series({13: 1}, 16)
    both = free_gca_series({4: 1, 13: 1}, 16)
    ok = (even.c == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]
          and odd.c == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]
          and both.c == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1])
    report(9, "free algebra hand expansions", ok)


def _checks_2_to_4_hold():
    pages.clear_cache()
    return (chain_check(4, 20).ok
            and collapse_check(4, 20).ok
            and e2_ranks(4, "inf", 20).mismatch is None)


def test_criterion_10_mutation_sensitivity(monkeypatch):
    detail = []

    # sanity: unmutated engine passes the three checks at this scale
    if not _checks_2_to_4_hold():
        detail.append("baseline already failing")

    # mutation A: drop the sign alternation from the splitting map
    monkeypatch.setattr(differentials, "fold_sign", lambda a: 1)
    if _checks_2_to_4_hold():
        detail.append("sign flip goes unnoticed")
    monkeypatch.undo()

    # mutation B: drop the covering factor at the square strata
    monkeypatch.setattr(differentials, "COVER_FACTOR", 0)
    if _checks_2_to_4_hold():
        detail.append("dropped covering factor goes unnoticed")
    monkeypatch.undo()

    pages.clear_cache()
    ok = not detail
    report(10, "mutations break checks 2-4", ok, "; ".join(detail))
