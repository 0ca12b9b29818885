"""Independent sign vectors over a probability-weighted l1 block.

Coordinate omega of r_k is +1 or -1 according to bit k of omega, so the
2^n coordinates enumerate all sign combinations and the weighted l1 norm
is an exact expectation.  Moduli collapse, |r_k| = ones, which makes
||sum |a_k r_k||| = sum |a_k| on the nose, while the signed sum sits at
the l2 scale (sum a_k^2)^{1/2} up to Khintchine constants.  Flat
coefficients admit an exact binomial mean, so the l1/l2 gap has a
closed-form series.
"""

from __future__ import annotations

import math

import numpy as np

from latmax.spaces import LpBlock
from latmax.systems import BiorthogonalSystem, Csr

_SIZE_LIMIT = 20  # 2^20 coordinates: a sign row is 8 MiB, R's and F's vals 160 MiB each


def _points(n: int) -> np.ndarray:
    """The 2^n points omega of the sign cube, as bit words."""
    if not 1 <= n <= _SIZE_LIMIT:
        raise ValueError(f"n must be in 1..{_SIZE_LIMIT}")
    return np.arange(2 ** n, dtype=np.uint32)


def _signs(omega, k: int, out: np.ndarray) -> np.ndarray:
    """The signs of r_k at the points omega, into out: 1 - 2 * (bit k of
    omega), exactly +1 or -1."""
    np.multiply((omega >> k) & 1, -2.0, out=out)
    out += 1.0
    return out


def sign_matrix(n: int) -> np.ndarray:
    """n rows of length 2^n; entry (k, omega) is the sign of bit k of omega,
    filled one row at a time."""
    omega = _points(n)
    signs = np.empty((n, 2 ** n))
    for k, row in enumerate(signs):
        _signs(omega, k, out=row)
    return signs


def sign_parts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Column sums of the positive and of the negative parts of
    sign_matrix(n) / n, one sign row at a time.

    Row k adds 1/n where its sign is +1 (to pos) or -1 (to neg), in row
    order from zero: the additions of a sum over axis 0, so both are bitwise
    np.clip(+-sign_matrix(n) / n, 0, None).sum(axis=0).
    """
    omega, step = _points(n), 1.0 / n
    pos, neg, part = np.zeros(2 ** n), np.zeros(2 ** n), np.empty(2 ** n)
    for k in range(n):
        # (1 - sign) * step / 2 is exactly 0 or step, as is its complement
        np.subtract(1.0, _signs(omega, k, out=part), out=part)
        neg += np.multiply(part, step / 2, out=part)
        pos += np.subtract(step, part, out=part)
    return pos, neg


def rademacher_l1(n: int) -> BiorthogonalSystem:
    """The n sign vectors with their expectation functionals."""
    # no sign is zero: every row holds all 2^n columns, stored once
    ptr, cols = np.arange(n + 1) * 2 ** n, np.arange(2 ** n)
    R = Csr(ptr, cols, sign_matrix(n).ravel())
    host = LpBlock(2 ** n, 1.0, weights=np.full(2 ** n, 2.0 ** -n))
    # E[r_j r_k] = delta: the plain pairing needs the 2^-n weight folded in
    return BiorthogonalSystem(host, R, Csr(ptr, cols, R.vals * 2.0 ** -n))


def signed_mean(alpha) -> float:
    """E|sum_k alpha_k r_k| by full enumeration of the 2^len sign choices."""
    alpha = np.asarray(alpha, dtype=float)
    S = alpha @ sign_matrix(len(alpha))
    return float(np.mean(np.abs(S)))


def flat_mean(m: int) -> float:
    """E|sum of m independent signs|, exactly.

    The sum_j C(m,j)|m-2j| / 2^m telescopes to m C(m, m/2) / 2^m for even
    m and m C(m-1, (m-1)/2) / 2^(m-1) for odd m; the integer division by
    2^m rounds correctly.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m % 2 == 0:
        return m * math.comb(m, m // 2) / 2 ** m
    return 2 * m * math.comb(m - 1, (m - 1) // 2) / 2 ** m
