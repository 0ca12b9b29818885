"""Property tests for the blocked prefix scan behind every dense prefix join."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latmax.greedy import greedy_maximal
from latmax.spaces import LpBlock
from latmax.systems import _SCAN_BLOCK, BiorthogonalSystem, _ordered_join


@st.composite
def systems(draw):
    """A random dense system of up to two and a half scan blocks.

    Rounded draws put exact ties, zero coefficients and cancelling partial
    sums in play; the functionals are arbitrary, since neither the scan
    nor the greedy join needs biorthogonality.
    """
    n = draw(st.integers(1, 2 * _SCAN_BLOCK + _SCAN_BLOCK // 2))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    V = rng.standard_normal((n, dim))
    a = rng.standard_normal(n)
    if draw(st.booleans()):
        V, a = np.round(2 * V), np.round(a)
    F = rng.standard_normal((n, dim))
    return BiorthogonalSystem(LpBlock(dim, 2.0), V, F, check=False), a


@settings(max_examples=60, deadline=None)
@given(systems(), st.data())
def test_ordered_join_is_bitwise_the_sequential_cumsum(sys_a, data):
    sys, a = sys_a
    V = sys.vectors
    n = len(sys)
    length = data.draw(st.integers(1, n), label="length")
    order = np.asarray(data.draw(st.permutations(range(n)), label="order"))[:length]
    oracle = np.max(np.abs(np.cumsum(a[order][:, None] * V[order], axis=0)), axis=0)
    assert _ordered_join(sys, a, order).tobytes() == oracle.tobytes()


@settings(max_examples=30, deadline=None)
@given(systems())
def test_greedy_join_is_monotone_in_m(sys_a):
    sys, a = sys_a
    x = a @ sys.vectors
    prev = greedy_maximal(sys, x, 0).coords
    for m in range(1, len(sys) + 1):
        cur = greedy_maximal(sys, x, m).coords
        assert np.all(cur >= prev)  # exact, no tolerance
        prev = cur
