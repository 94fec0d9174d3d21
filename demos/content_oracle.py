"""Deriving stratum content from the sign action alone.

Each stratum carries a finite symmetry group acting on its polynomial
content with signs.  The mean over the group of each element's trace
(Molien's trace formula) gives the rank series of the invariants, which
must agree, degree by degree, with the content rules used to build the
first page.  This demo runs that comparison in the open
for a few strata and prints the group that does the work.  Exits 1 if
any stratum disagrees.
"""

import sys

from artifact.strata import enumerate_strata, content_series
from artifact.actions import symmetry_action, group_closure, invariant_series

D = 16
agree = True

for d, level in ((4, 1), (4, 2), (6, 2), (4, 3)):
    print("d = %d, level %d" % (d, level))
    for s in enumerate_strata(d, level):
        gens = symmetry_action(s)
        group = group_closure(gens)
        inv = invariant_series(s, D)
        ruled = content_series(s, D)
        agree = agree and inv == ruled
        tag = "agree" if inv == ruled else \
            "DISAGREE at %s" % inv.first_mismatch(ruled)
        print("  %-12s group of order %d, series %s, %s"
              % (repr(s), len(group),
                 ",".join(str(c) for c in inv.c), tag))
    print()

print("the square fold stratum is the interesting one: the exchange")
print("twist acts with a Koszul sign, so its invariants are the skew")
print("part plus the Euler-shifted symmetric part, not the full ring.")
print()
print("odd levels whose Euler pair is unorientable drop out entirely;")
print("d = 5 at level 3 has no surviving content at all, which the")
print("oracle confirms with an identically zero invariant series.")
sys.exit(0 if agree else 1)

