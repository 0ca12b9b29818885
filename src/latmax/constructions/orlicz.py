"""A modular whose doubling ratio blows up at zero, and what that costs.

The generating function starts as exp(1 - 1/t), which is convex only up
to t = 1/2; past the knot it continues along its tangent line
e^{-1}(4t - 1), keeping the slope monotone and the whole curve convex.
The result is rescaled by e/3 so it hits 1 at t = 1, which pins the
single-coordinate Luxemburg norm at the coordinate itself.  The doubling
ratio phi(2t)/phi(t) = exp(1/(2t)) below the knot is unbounded, and the
demo shows the standard casualty: coordinatewise suprema of more and
more admissible singletons drift off to infinity in norm.

There is one such function, so it is module constants and functions:
phi, doubling_ratio, modular and luxemburg_norm.
"""

from __future__ import annotations

import math

import numpy as np


_KNOT = 0.5  # exp(1 - 1/t) stops being convex past 1/2
_SLOPE = math.exp(1.0 - 1.0 / _KNOT) / _KNOT ** 2  # the tangent line at the knot
_OFFSET = math.exp(1.0 - 1.0 / _KNOT) - _SLOPE * _KNOT
_SCALE = 1.0 / (_SLOPE + _OFFSET)  # phi(1) = 1
_BISECT_TOL = 1e-10  # relative bracket width that ends luxemburg_norm


def _raw(t):
    """The spliced generator before the rescaling, as an array."""
    t = np.asarray(t, dtype=float)
    out = np.multiply(t, _SLOPE, out=np.empty_like(t))
    out += _OFFSET
    low = t <= _KNOT
    out[low] = 0.0
    # exp(1 - 1/t) only where it is taken, 0 < t <= knot, in place
    low &= t > 0
    s = t[low]
    np.divide(1.0, s, out=s)
    np.subtract(1.0, s, out=s)
    out[low] = np.exp(s, out=s)
    return out


def phi(t):
    """The spliced convex generator, normalized to phi(1) = 1: a float for
    a scalar t, else an array."""
    out = _SCALE * _raw(t)
    return float(out) if np.isscalar(t) else out


def doubling_ratio(t: float) -> float:
    """phi(2t)/phi(t); closed form exp(1/(2t)) while 2t stays below
    the knot."""
    if not 0 < t:
        raise ValueError("t must be positive")
    if 2 * t <= _KNOT:
        return math.exp(1.0 / (2.0 * t))
    return float(phi(2 * t) / phi(t))


def modular(x) -> float:
    """I(x) = sum_k phi(|x_k|)."""
    x = np.asarray(x, dtype=float)
    return float(np.sum(phi(np.abs(x[x != 0]))))


def luxemburg_norm(x) -> float:
    """inf{lambda > 0 : I(x/lambda) <= 1} by bisection, to a relative
    bracket width of 1e-10 (the upper end is returned).

    The modular is strictly decreasing in lambda on the support, and
    phi(1) = 1 makes max|x| a valid lower bracket.
    """
    x = np.abs(np.asarray(x, dtype=float))
    x = x[x != 0]
    if x.size == 0:
        return 0.0
    lo = float(np.max(x))
    if modular(x / lo) <= 1.0 + 1e-15:
        return lo
    hi = lo
    while modular(x / hi) > 1.0:
        hi *= 2.0
    while hi - lo > _BISECT_TOL * hi:
        mid = 0.5 * (lo + hi)
        if modular(x / mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def orderbound_demo(K: int):
    """Norms of the running coordinatewise upper bounds of admissible
    singletons x_k e_k with x_k = 1/log log(k + e^e).

    Each singleton has norm x_k < 1, but the upper bound over the first K
    of them is the whole truncated tail, whose norm climbs without
    levelling off.  Returns that climb as (k, norm) pairs on a dyadic
    k-grid ending at K.
    """
    if K < 4:
        raise ValueError("K must be >= 4")
    ee = math.exp(math.e)
    tail = 1.0 / np.log(np.log(np.arange(1, K + 1) + ee))
    grid = [2 ** j for j in range(2, int(math.log2(K)) + 1)]
    if grid[-1] != K:
        grid.append(K)
    return [(k, luxemburg_norm(tail[:k])) for k in grid]
