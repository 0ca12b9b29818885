"""A modular whose doubling ratio blows up at zero, and what that costs.

The generating function starts as exp(1 - 1/t), which is convex only up
to t = 1/2; past the knot it continues along its tangent line
e^{-1}(4t - 1), keeping the slope monotone and the whole curve convex.
The result is rescaled by e/3 so it hits 1 at t = 1, which pins the
single-coordinate Luxemburg norm at the coordinate itself.  The doubling
ratio phi(2t)/phi(t) = exp(1/(2t)) below the knot is unbounded, and the
demo shows the standard casualty: coordinatewise suprema of more and
more admissible singletons drift off to infinity in norm.
"""

from __future__ import annotations

import math

import numpy as np


_KNOT = 0.5  # exp(1 - 1/t) stops being convex past 1/2
_GRID = np.linspace(1e-4, 2.0, 400)
_BISECT_TOL = 1e-10  # relative bracket width that ends luxemburg_norm


class OrliczFunction:
    """Spliced convex modular generator, normalized to phi(1) = 1."""

    def __init__(self):
        g = math.exp(1.0 - 1.0 / _KNOT)
        self._slope = g / _KNOT ** 2
        self._offset = g - self._slope * _KNOT
        self.scale = 1.0 / self._raw(1.0)
        self._convexity_check()

    def _raw(self, t):
        t = np.asarray(t, dtype=float)
        out = np.multiply(t, self._slope, out=np.empty_like(t))
        out += self._offset
        low = t <= _KNOT
        out[low] = 0.0
        # exp(1 - 1/t) only where it is taken, 0 < t <= knot, in place
        low &= t > 0
        s = t[low]
        np.divide(1.0, s, out=s)
        np.subtract(1.0, s, out=s)
        out[low] = np.exp(s, out=s)
        return out

    def __call__(self, t):
        out = self.scale * self._raw(t)
        return float(out) if np.isscalar(t) else out

    def doubling_ratio(self, t: float) -> float:
        """phi(2t)/phi(t); closed form exp(1/(2t)) while 2t stays below
        the knot."""
        if not 0 < t:
            raise ValueError("t must be positive")
        if 2 * t <= _KNOT:
            return math.exp(1.0 / (2.0 * t))
        return float(self(2 * t) / self(t))

    def _convexity_check(self):
        v = self(_GRID)
        second = np.diff(v, 2)
        if np.min(second) < -1e-12:
            raise ValueError("spliced generator is not convex on the grid")


def modular(phi: OrliczFunction, x) -> float:
    """I(x) = sum_k phi(|x_k|)."""
    x = np.asarray(x, dtype=float)
    return float(np.sum(phi(np.abs(x[x != 0]))))


def luxemburg_norm(phi: OrliczFunction, x) -> float:
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
    if modular(phi, x / lo) <= 1.0 + 1e-15:
        return lo
    hi = lo
    while modular(phi, x / hi) > 1.0:
        hi *= 2.0
    while hi - lo > _BISECT_TOL * hi:
        mid = 0.5 * (lo + hi)
        if modular(phi, x / mid) > 1.0:
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
    k-grid ending at K, under the default OrliczFunction().
    """
    if K < 4:
        raise ValueError("K must be >= 4")
    phi = OrliczFunction()
    ee = math.exp(math.e)
    tail = 1.0 / np.log(np.log(np.arange(1, K + 1) + ee))
    grid = [2 ** j for j in range(2, int(math.log2(K)) + 1)]
    if grid[-1] != K:
        grid.append(K)
    return [(k, luxemburg_norm(phi, tail[:k])) for k in grid]
