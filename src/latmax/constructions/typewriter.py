"""A redundant expansion whose partial sums at the constant oscillate.

Between consecutive wavelet terms the weave inserts a dyadic indicator
and immediately retracts it: (w_1, t_1, -t_1, w_2, t_2, -t_2, ...), with
t_1, t_2, ... sweeping the dyadic intervals level by level, one window at
a time.  The paired functional for every indicator slot is integration
against the constant, so expanding the constant function sends each
partial sum to 1 + (current indicator): the expansion reconstructs the
constant in the limit of full passes, yet pointwise it keeps flickering
between 1 and 2 forever.  The running join of partial-sum moduli settles
at twice the constant.
"""

from __future__ import annotations

import math

import numpy as np

from latmax.constructions.haar import haar_rows
from latmax.spaces import Element, dyadic_lp
from latmax.systems import (BiorthogonalSystem, Csr, _column_scan, _mark_join,
                            _scan_plan, _scatter, coefficients)

_DEPTH_LIMIT = 12


def indicator_blocks(J: int) -> Csr:
    """CSR rows t_1..t_{2^J - 1}: all dyadic indicators, coarse to fine.

    t_1 is the constant window; within a level the windows run left to
    right, so each level's rows cover the cells once, in order.  Amplitude 1
    throughout (these are indicators, not normalized wavelets)."""
    if not 1 <= J <= _DEPTH_LIMIT:
        raise ValueError(f"J must be in 1..{_DEPTH_LIMIT}")
    m = 2 ** J
    # rows 1.. of the wavelet layout: row 0 covers the cells once, and so
    # does each level after it
    rows = haar_rows(J, 2.0)[0].slice(1, m)
    return Csr(rows.indptr, rows.columns(), np.ones(J * m))


def typewriter_frame(J: int, p: float) -> BiorthogonalSystem:
    """The woven expansion as a redundant system over the dyadic grid.

    Slots 3i hold the i-th wavelet with its true dual; slots 3i+1 and
    3i+2 hold +/- the i-th indicator, both paired with integration
    against the constant, which is the wavelet dual row 0 (2^-J on every
    cell), so the functionals are the wavelet duals under a row map.
    There are 2^J wavelets against 2^J - 1 indicators, so the last
    wavelet closes the weave.  The family is redundant, so the system is
    built with the gram check off.
    """
    if not 1 <= J <= _DEPTH_LIMIT:
        raise ValueError(f"J must be in 1..{_DEPTH_LIMIT}")
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    m = 2 ** J
    W, W_dual = haar_rows(J, p)
    T = indicator_blocks(J)
    # rows of [W; T; -T] in weave order
    slots = np.empty(3 * m - 2, dtype=np.intp)
    slots[0::3] = np.arange(m)
    slots[1::3] = m + np.arange(m - 1)
    slots[2::3] = 2 * m - 1 + np.arange(m - 1)
    V = Csr.stack([W, T, Csr(T.indptr, T.columns(), -T.vals)]).take(slots)
    index = np.zeros(3 * m - 2, dtype=np.intp)
    index[0::3] = np.arange(m)
    return BiorthogonalSystem(dyadic_lp(J, p), V, W_dual, check=False, index=index)


def pass_profile(J: int, p: float):
    """Walk one full pass of partial sums at the constant function.

    Takes, per grid point, the high and low water marks of the partial
    sums from the first term onward.  Returns (join, oscillation, terms):
    the running join of moduli as an element, whose norm lands on 2, the
    marks' difference, exactly 1 everywhere, and the number of terms.
    """
    system = typewriter_frame(J, p)
    dim = system.space.dim
    block = coefficients(system, np.ones(dim))[None, None]
    # slot 0 (the constant) is nonzero everywhere: every point is an
    # occupied cell, and its marks hold every partial sum's
    cells, *marks = _column_scan(system, block, _scan_plan(system, [np.arange(len(system))]))
    high, low = (_scatter(cells, m, 1, dim)[0, 0] for m in marks)
    return Element(system.space, _mark_join(high, low)), high - low, len(system)
