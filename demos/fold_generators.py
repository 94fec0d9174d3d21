"""Explicit generators for the fold column, d = 5.

Prints the generator classes up to degree 18, expands one of them in
the first-page basis, and certifies the whole table by elimination.
Exits 1 if the certificate fails.
"""

import sys

from artifact.pages import generator_classes, verify_generators

D = 18
classes = generator_classes(5, D)

print("fold-column generators, d = 5, degrees <= %d" % D)
for g in sorted(classes, key=lambda c: c.degree):
    print("  %3d  %s" % (g.degree, g.label()))

g = next(c for c in classes if c.kind == "sigma")
print()
print("expansion of %s across the fold strata:" % g.label())
for name, coeff in g.expansion(5).items():
    print("  %+d * %s" % (coeff, name))

print()
rep = verify_generators(5, D)
for line in rep.lines():
    print(line)
print("certified:", rep.ok)
sys.exit(0 if rep.ok else 1)
