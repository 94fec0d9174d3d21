"""Characteristic-class algebra of the stable loop space.

Rationally, the cohomology of the infinite loop space on a spectrum is
the free graded-commutative algebra on the spectrum's positive-degree
cohomology: polynomial on even generators, exterior on odd ones.  The
generator counts are the second page's total ranks, read off the page
pages keeps per truncation, so an e2 request and its loop-space twin
walk the cells once.  The Poincare series of the whole
characteristic-class algebra is

    prod_{n even} (1 - t^n)^{-g_n} * prod_{n odd} (1 + t^n)^{g_n},

which grading.free_gca_series expands, as it does every ring series.
With thousands of generators it takes the log-derivative recurrence,
O((D/q)^2) products for q the gcd of the degrees, not a pass per unit.
A generator above degree D changes no coefficient up to D, so the page
also keeps, per offset, the series at the largest D expanded: a smaller
D reads its prefix, and a larger D is expanded and kept in its place.

The column-0 survivors form the subalgebra of ordinary bundle classes;
mmm_subseries returns its rank series, which is independent of the
truncation order.
"""

from .grading import FlavoredSpace, Series, space_series, free_gca_series
from .strata import enumerate_strata
from .pages import _e2_cells


def loopspace_series(d, R, D, offset=0):
    """Rank series of the loop-space class algebra for the R-truncation.

    Generator degrees follow the spectrum convention; pass a nonzero
    offset to shift every generator degree by that amount (the usual
    delooping shift between the spectrum and the space level).  Raises
    ValueError if the offset moves a generator below degree 1.
    """
    top = max(1, D - offset)
    page = _e2_cells(d, R, top)  # the kept page, through top at least
    # a generator above D changes no coefficient up to D, so the series
    # kept for this offset answers every smaller D by its prefix
    kept = page[4].get(offset)
    if kept is None or kept.D < D:
        total, gens = page[2], {}
        for n in range(1, top + 1):
            g = total[n]
            if g:
                if n + offset < 1:
                    raise ValueError(
                        "offset %d moves the degree %d generators to degree %d, "
                        "below 1" % (offset, n, n + offset))
                gens[n + offset] = gens.get(n + offset, 0) + g
        kept = page[4][offset] = free_gca_series(gens, D)
    return Series(kept.c, D)


def mmm_subseries(d, D):
    """Rank series of the surviving column-0 subalgebra.

    Equals the series of a polynomial ring on classes of degree
    4, 8, ..., 4*floor(d/2) for every d, hence is independent of the
    truncation order.
    """
    enumerate_strata(d, 0)  # rejects d < 1
    return space_series(FlavoredSpace.single(d), D)
