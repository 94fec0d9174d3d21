"""Rank series for d = 4 across truncation orders.

Computes the total rank series for several truncation orders r and
shows where each finite order starts to disagree with the full
sequence.  Everything printed here is exact.  Exits 1 if a computed
series misses its closed form.
"""

import sys

from artifact.pages import e2_ranks, closed_form_notes

D = 21
full = e2_ranks(4, "inf", D)
print("d = 4, degrees 0..%d" % D)
print("r = inf :", ",".join(str(c) for c in full.total.c))

for r in (1, 2, 3, 4):
    rep = e2_ranks(4, r, D)
    mis = rep.total.first_mismatch(full.total)
    where = "agrees with r = inf up to degree %d" % D if mis is None \
        else "splits from r = inf at degree %d" % mis
    print("r = %-3d :" % r, ",".join(str(c) for c in rep.total.c))
    print("          %s" % where)

print()
matched = all(e2_ranks(4, r, D).mismatch is None for r in (1, 2, 3, 4, "inf"))
print("every computed series above also matched its closed form:", matched)

# d = 4 needs no conventions beyond the truncation itself; from d = 6
# on the closed forms carry an adjustment, surfaced as a note
for n in closed_form_notes(6, "inf"):
    print("d = 6 closed-form note:", n)

# one cell-level look: the degree-13 class lives in the fold column
cell = full.cells[(1, 13)]
print()
print("cell (column 1, degree 13): basis %d, kernel %d, image in %d, "
      "surviving %d" % (cell.e1_rank, cell.kernel_rank,
                        cell.image_rank_from_left, cell.e2_rank))
sys.exit(0 if matched else 1)
