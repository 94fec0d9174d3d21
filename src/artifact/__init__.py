"""Exact-arithmetic engine for the rational cohomology of Morin singularity spectra.

The package computes the first page of the stratification spectral
sequence for corank one (Morin) singularities of maps with positive
dimension difference d, assembles the differentials between columns,
and extracts ranks, closed-form rank series, kernel generator classes,
and the free graded-commutative algebra of the associated infinite
loop space.  Everything is exact over Q: polynomials, matrices and power
series carry int coefficients, ranks come from fraction-free elimination,
and there are no floats or fractions anywhere.
"""

__version__ = "0.1.0"

from .grading import (
    VariableSet, Series, FlavoredSpace,
    FULL, SYM, SKEW,
    enumerate_monomials, space_series, free_gca_series, s_hom,
)
from .strata import Stratum, ContentPiece, enumerate_strata, euler_available, column_content
from .actions import symmetry_action, invariant_series, oracle_crosscheck
from .e1 import BasisElement, IndexedBasis, build_basis, column_series
from .differentials import differential, d0, d_fold, d_even_col, d_odd_col, assemble_matrix
from .pages import (
    e2_ranks, closed_form, closed_form_notes,
    generator_classes, verify_generators, chain_check, collapse_check,
)
from .loopspace import loopspace_series, mmm_subseries
