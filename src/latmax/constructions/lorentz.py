"""Rearrangement-weighted sequence norms and their two growth scales.

||x|| = (sum_k k^{q/p-1} (x*_k)^q)^{1/q} with x* the decreasing
rearrangement; q < p keeps the weights summable slowly enough that unit
vectors and normalized constant blocks see different exponents: n unit
vectors cost ~ n^{1/p}, while m disjoint normalized blocks of length 2^i
cost ~ m^{1/q}.  The weight partial sums sigma(N) have an exact cumsum
table up to 2^21 and an Euler-Maclaurin tail beyond, carried in log2 form
because block demos push N past the float range long before the norms
themselves grow large.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from latmax.estimation import growth_fit

_TABLE_LIMIT = 2 ** 21
_LOG2_LN = math.log(2.0)


def _validate(p: float, q: float):
    if not 1.0 <= q < p < math.inf:
        raise ValueError("need 1 <= q < p < inf")


def _sigma_fits(log2N: float, e: float) -> bool:
    """Whether sigma(N) ~ N^(1 + e) / (1 + e) stays inside float64's range."""
    return log2N * (1.0 + e) <= 1000.0


def _block_end_log2(i: int) -> float:
    """log2 N_i of the cumulative length N_i = 2^(i+1) - 2 of blocks 1..i."""
    return (i + 1) + math.log1p(-(2.0 ** -i)) / _LOG2_LN


@functools.lru_cache(maxsize=4)
def _sigma_table(e: float) -> np.ndarray:
    """Read-only cumulative sums of k^e, k up to the table limit, per exponent
    (np.cumsum adds left to right: a prefix is bitwise the shorter cumsum)."""
    table = np.cumsum(np.arange(1, _TABLE_LIMIT + 1, dtype=float) ** e)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=4)
def _zeta(e: float) -> float:
    import mpmath  # only the Euler-Maclaurin tail needs it; keeps imports light

    return float(mpmath.zeta(-e))


def weight_sum_log2(log2N: float, p: float, q: float) -> float:
    """sigma(N) = sum_{k<=N} k^{q/p-1}, addressed by log2 N.

    Exact table lookup while N fits; Euler-Maclaurin beyond, which is
    where the log2 addressing matters: N itself may exceed the float
    range while sigma(N) ~ N^{q/p} stays representable.
    """
    _validate(p, q)
    e = q / p - 1.0
    if log2N < 0:
        raise ValueError("need N >= 1")
    if log2N <= 21:
        N = int(round(2.0 ** log2N))
        return float(_sigma_table(e)[N - 1])
    if not _sigma_fits(log2N, e):
        raise ValueError("sigma itself would overflow float64")
    zeta = _zeta(e)
    lead = 2.0 ** (log2N * (1.0 + e)) / (1.0 + e)
    half = 2.0 ** (log2N * e) / 2.0
    deriv = e * 2.0 ** (log2N * (e - 1.0)) / 12.0
    return float(lead + zeta + half + deriv)


def _sigma_int(N: int, p: float, q: float) -> float:
    return weight_sum_log2(math.log2(N), p, q) if N else 0.0


def unit_fundamental(p: float, q: float, ns):
    """(n, ||sum of n unit vectors||) pairs, exactly sigma(n)^{1/q}."""
    _validate(p, q)
    return [(int(n), _sigma_int(int(n), p, q) ** (1.0 / q)) for n in ns]


def block_series(p: float, q: float, ms):
    """(m, ||sum of m normalized constant blocks||) in closed form.

    Block i occupies 2^i fresh coordinates at height sigma(2^i)^{-1/q},
    i = 1..m.  Heights decrease with i, so the rearrangement keeps blocks
    in order and the norm^q telescopes over the weight increments between
    the cumulative lengths N_i = 2^{i+1} - 2, each sigma(N_i) computed once
    and addressed by log2 N; every term is a ratio of comparable magnitudes,
    so nothing overflows even when N_m cannot be written down.
    """
    _validate(p, q)
    ms = sorted(int(m) for m in ms)
    if not ms or ms[0] < 1:
        raise ValueError("need block counts >= 1")
    top = ms[-1]
    terms = np.zeros(top + 1)
    prev = 0.0  # sigma(N_0) = sigma(0)
    for i in range(1, top + 1):
        cur = weight_sum_log2(_block_end_log2(i), p, q)
        terms[i] = (cur - prev) / weight_sum_log2(float(i), p, q)
        prev = cur
    partial = np.cumsum(terms)
    return [(m, float(partial[m] ** (1.0 / q))) for m in ms]


def lorentz_blocking_demo(p: float, q: float, n: int):
    """Fit the two fundamental-function exponents side by side.

    Unit-vector sums over n-grids give the 1/p scale; disjoint constant
    blocks give the 1/q scale.  Both series are exact; only the fitted
    exponents carry sampling error.  Returns (units, blocks, unit_fit,
    block_fit): the two (size, norm) series and their growth fits.
    """
    _validate(p, q)
    if n < 512:
        # both grids must reach 4 points for the regression
        raise ValueError("need n >= 512 for fittable grids")
    top = int(math.log2(n))
    # the last block's sum is the largest sigma: check it before any lookup
    if not _sigma_fits(_block_end_log2(2 ** top), q / p - 1.0):
        raise ValueError(f"n = {n} needs {2 ** top} blocks, past the float "
                         f"range of sigma for p = {p}, q = {q}")
    units = unit_fundamental(p, q, [2 ** j for j in range(5, top + 1)])
    blocks = block_series(p, q, [2 ** j for j in range(6, top + 1)])
    return units, blocks, growth_fit(units), growth_fit(blocks)
