"""Rearrangement-weighted sequence norms and their two growth scales.

||x|| = (sum_k k^{q/p-1} (x*_k)^q)^{1/q} with x* the decreasing
rearrangement; q < p keeps the weights summable slowly enough that unit
vectors and normalized constant blocks see different exponents: n unit
vectors cost ~ n^{1/p}, while m disjoint normalized blocks of length 2^i
cost ~ m^{1/q}.  The weight partial sums sigma(N) are exact up to 2^21,
summed left to right from running-sum checkpoints every 2^12 terms, and
an Euler-Maclaurin tail beyond, carried in log2 form because block demos
push N past the float range long before the norms themselves grow large.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from latmax.estimation import growth_fit

_EXACT_LIMIT = 2 ** 21
_CHECKPOINT = 2 ** 12  # terms between stored running sums
_CHUNK = 2 ** 16  # terms per streamed step of the checkpoint pass
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


def _running(base: float, start: int, stop: int, e: float) -> np.ndarray:
    """base + sum of k^e over start <= k < j, for j = start + 1 .. stop: base
    folded into the first term before an in-place cumsum, so each sum is
    bitwise the full left-to-right cumsum's that reached base at start - 1
    (recursive summation; Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 4.1)."""
    run = np.arange(start, stop, dtype=float) ** e
    run[0] += base
    return np.cumsum(run, out=run)


@functools.lru_cache(maxsize=4)
def _checkpoints(e: float) -> np.ndarray:
    """Read-only sigma(m * _CHECKPOINT) for m = 0 .. exact limit / _CHECKPOINT,
    per exponent, from one pass of _CHUNK terms at a time."""
    marks = np.zeros(_EXACT_LIMIT // _CHECKPOINT + 1)
    for start in range(0, _EXACT_LIMIT, _CHUNK):
        m = start // _CHECKPOINT
        run = _running(marks[m], start + 1, start + _CHUNK + 1, e)
        marks[m + 1:m + 1 + _CHUNK // _CHECKPOINT] = run[_CHECKPOINT - 1::_CHECKPOINT]
    marks.flags.writeable = False
    return marks


def _sigma_exact(N: int, e: float) -> float:
    """sigma(N) for 1 <= N <= the exact limit: the last checkpoint at or
    below N, run on over the at most _CHECKPOINT terms after it."""
    m, rest = divmod(N, _CHECKPOINT)
    base = _checkpoints(e)[m]
    return float(_running(base, N - rest + 1, N + 1, e)[-1] if rest else base)


@functools.lru_cache(maxsize=4)
def _zeta(e: float) -> float:
    import mpmath  # only the Euler-Maclaurin tail needs it; keeps imports light

    return float(mpmath.zeta(-e))


def weight_sum_log2(log2N: float, p: float, q: float) -> float:
    """sigma(N) = sum_{k<=N} k^{q/p-1}, addressed by log2 N.

    Exact left-to-right sum while N fits; Euler-Maclaurin beyond, which is
    where the log2 addressing matters: N itself may exceed the float
    range while sigma(N) ~ N^{q/p} stays representable.
    """
    _validate(p, q)
    e = q / p - 1.0
    if log2N < 0:
        raise ValueError("need N >= 1")
    if log2N <= 21:
        N = int(round(2.0 ** log2N))
        return _sigma_exact(N, e)
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
    if n != 2 ** top:  # both grids stop at 2^top: n would repeat that run
        raise ValueError(f"n = {n} is not a power of two")
    # the last block's sum is the largest sigma: check it before any lookup
    if not _sigma_fits(_block_end_log2(2 ** top), q / p - 1.0):
        raise ValueError(f"n = {n} needs {2 ** top} blocks, past the float "
                         f"range of sigma for p = {p}, q = {q}")
    units = unit_fundamental(p, q, [2 ** j for j in range(5, top + 1)])
    blocks = block_series(p, q, [2 ** j for j in range(6, top + 1)])
    return units, blocks, growth_fit(units), growth_fit(blocks)
