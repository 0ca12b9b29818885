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
from latmax.systems import BiorthogonalSystem

_DEPTH_LIMIT = 14


def _conjugate(p: float) -> float:
    return math.inf if p == 1.0 else p / (p - 1.0)


def haar_matrices(J: int, p: float):
    """(vectors, functionals) as dense rows over the 2^J dyadic cells."""
    if not 0 <= J <= _DEPTH_LIMIT:
        raise ValueError(f"J must be in 0..{_DEPTH_LIMIT}")
    if not 1.0 <= p < math.inf:
        raise ValueError("p must lie in [1, inf)")
    q = _conjugate(p)
    m = 2 ** J
    V = np.zeros((m, m))
    F = np.zeros((m, m))
    V[0] = 1.0
    F[0] = 2.0 ** -J
    for j in range(J):
        amp = 2.0 ** (j / p)
        dual = 2.0 ** (j / q if q != math.inf else 0.0) * 2.0 ** -J
        span = 2 ** (J - j)
        half = span // 2
        # level j's rows viewed as (k, window, cell): row 2^j + k is nonzero
        # only on window k, so one diagonal assignment fills the level
        k = np.arange(2 ** j)
        Vj = V[2 ** j : 2 ** (j + 1)].reshape(2 ** j, 2 ** j, span)
        Fj = F[2 ** j : 2 ** (j + 1)].reshape(2 ** j, 2 ** j, span)
        Vj[k, k, :half] = amp
        Vj[k, k, half:] = -amp
        Fj[k, k, :half] = dual
        Fj[k, k, half:] = -dual
    return V, F


def haar_system(J: int, p: float) -> BiorthogonalSystem:
    V, F = haar_matrices(J, p)
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
