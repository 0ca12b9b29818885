"""Dyadic step-function wavelets, constant first, normalized in L_p.

Index 0 is the constant; index 2^j + k (k < 2^j) is the level-j function
on the k-th dyadic interval, +/- with amplitude 2^{j/p} so its L_p norm
is 1.  Dual functionals are the L_q-normalized twins scaled by the cell
weight 2^{-J}, which makes the pairing exactly biorthogonal.

The leftmost root-to-leaf branch carries the interesting witnesses: with
coefficients 2^{-k/q} down the branch the element stays bounded while its
ordered prefix joins keep growing with depth.
"""

from __future__ import annotations

import math

import numpy as np

from latmax.spaces import dyadic_lp
from latmax.systems import BiorthogonalSystem, Csr

_DEPTH_LIMIT = 16


def _conjugate(p: float) -> float:
    return math.inf if p == 1.0 else p / (p - 1.0)


def haar_rows(J: int, p: float):
    """(vectors, functionals) as CSR rows over the 2^J dyadic cells.

    Row 0 and each level's rows cover the cells once, left to right, so the
    columns are 0 .. 2^J - 1 repeated J + 1 times; row 2^j + k holds window
    k of level j, +amp on its first half and -amp on its second.
    """
    if not 0 <= J <= _DEPTH_LIMIT:
        raise ValueError(f"J must be in 0..{_DEPTH_LIMIT}")
    if not 1.0 <= p < math.inf:
        raise ValueError("p must lie in [1, inf)")
    q = _conjugate(p)
    m = 2 ** J
    counts = np.concatenate([[m]] + [np.full(2 ** j, m >> j) for j in range(J)])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    cols = np.tile(np.arange(m), J + 1)
    V, F = np.empty((J + 1, m)), np.empty((J + 1, m))
    V[0], F[0] = 1.0, 2.0 ** -J
    cell = np.arange(m)
    for j in range(J):
        amp = 2.0 ** (j / p)
        dual = 2.0 ** (j / q if q != math.inf else 0.0) * 2.0 ** -J
        first_half = (cell >> (J - j - 1)) % 2 == 0
        V[j + 1] = np.where(first_half, amp, -amp)
        F[j + 1] = np.where(first_half, dual, -dual)
    return Csr(indptr, cols, V.ravel()), Csr(indptr, cols, F.ravel())


def haar_system(J: int, p: float) -> BiorthogonalSystem:
    V, F = haar_rows(J, p)
    return BiorthogonalSystem(dyadic_lp(J, p), V, F)


def branch_ordering(J: int) -> list:
    """Root-to-leaf indices of the leftmost branch: constant, then the
    first function of every level."""
    if J < 1:
        raise ValueError("J must be >= 1")
    return [0] + [2 ** j for j in range(J)]


def branch_coefficients(J: int, p: float) -> np.ndarray:
    """Coefficients 2^{-k/q} along the branch (k = position), rest zero."""
    q = _conjugate(p)
    a = np.zeros(2 ** J)
    for k, idx in enumerate(branch_ordering(J)):
        a[idx] = 1.0 if q == math.inf else 2.0 ** (-k / q)
    return a
