import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmax.spaces import (
    DirectSum,
    Element,
    LpBlock,
    SupBlock,
    dyadic_lp,
    element_from_json,
    join,
    lp_block,
    modulus,
    space_from_json,
)


def test_lp_norm_values():
    assert lp_block(2, 2).norm([3.0, 4.0]) == 5.0
    assert lp_block(3, 1).norm([1.0, -2.0, 3.0]) == 6.0
    # weighted l1 against a probability vector
    w = [0.5, 0.25, 0.25]
    assert lp_block(3, 1, w).norm([1.0, 1.0, 1.0]) == 1.0
    assert SupBlock(4).norm([0.0, -7.0, 2.0, 7.0]) == 7.0


def test_direct_sum_norm_composition():
    # l1^3 (+)_inf l2^2 : max(3, 5) = 5
    space = DirectSum(math.inf, (lp_block(3, 1), lp_block(2, 2)))
    assert space.norm([1.0, 1.0, 1.0, 3.0, 4.0]) == 5.0
    # outer p = 2 combines part norms euclideanly
    space2 = DirectSum(2, (lp_block(3, 1), lp_block(2, 2)))
    assert space2.norm([1.0, 1.0, 1.0, 3.0, 4.0]) == pytest.approx(math.hypot(3.0, 5.0), abs=1e-12)


def test_p_inf_block_normalizes_to_sup():
    space = lp_block(5, math.inf)
    assert isinstance(space, SupBlock)
    with pytest.raises(ValueError):
        LpBlock(5, math.inf)


def test_dyadic_host_is_probability_grid():
    space = dyadic_lp(6, 1)
    assert space.dim == 64
    assert space.norm(np.ones(64)) == pytest.approx(1.0, abs=1e-15)
    # L_p norm of the constant function is 1 for every p
    for p in (1, 1.5, 2, 7):
        assert dyadic_lp(4, p).norm(np.ones(16)) == pytest.approx(1.0, abs=1e-12)


def test_norm_axioms_random():
    rng = np.random.default_rng(42)
    spaces = [
        lp_block(6, 1),
        lp_block(6, 2),
        lp_block(6, 3.5, rng.uniform(0.5, 2.0, size=6)),
        SupBlock(6),
        DirectSum(2, (lp_block(3, 1), SupBlock(3))),
        DirectSum(math.inf, (lp_block(2, 2), lp_block(4, 1.5))),
    ]
    for space in spaces:
        for _ in range(50):
            x = rng.normal(size=space.dim)
            y = rng.normal(size=space.dim)
            t = rng.uniform(-3, 3)
            nx, ny = space.norm(x), space.norm(y)
            assert nx >= 0
            assert space.norm(t * x) == pytest.approx(abs(t) * nx, rel=1e-12)
            assert space.norm(x + y) <= nx + ny + 1e-12
            # lattice norm sees only the modulus
            assert space.norm(np.abs(x)) == pytest.approx(nx, rel=1e-12)


def test_norm_monotone_in_modulus():
    rng = np.random.default_rng(7)
    spaces = [lp_block(8, 1.7), SupBlock(8), DirectSum(3, (lp_block(4, 1), lp_block(4, 2)))]
    for space in spaces:
        for _ in range(50):
            y = np.abs(rng.normal(size=8))
            x = y * rng.uniform(0, 1, size=8)
            assert space.norm(x) <= space.norm(y) + 1e-12


def test_modulus_and_join_are_coordinatewise():
    space = lp_block(4, 2)
    x = Element(space, [1.0, -2.0, 0.5, -0.25])
    y = Element(space, [0.0, 3.0, -1.0, -0.5])
    assert np.array_equal(modulus(x).coords, [1.0, 2.0, 0.5, 0.25])
    z = join([x, y])
    assert np.array_equal(z.coords, [1.0, 3.0, 0.5, -0.25])
    # join dominates both arguments coordinatewise
    assert np.all(z.coords >= x.coords) and np.all(z.coords >= y.coords)


def test_sign_pattern_join_equals_modulus_sum():
    # over all 2^m sign choices, the coordinatewise max of |sum eps_k a_k x_k|
    # equals sum_k |a_k x_k| exactly; dyadic inputs make the check bit-exact
    rng = np.random.default_rng(42)
    dim, m = 10, 6
    xs = rng.integers(-8, 9, size=(m, dim)).astype(float) / 8.0
    a = rng.integers(-16, 17, size=m).astype(float) / 16.0
    best = np.zeros(dim)
    for bits in range(2 ** m):
        eps = np.array([1.0 if bits >> k & 1 else -1.0 for k in range(m)])
        best = np.maximum(best, np.abs((eps * a) @ xs))
    target = np.abs(a) @ np.abs(xs)
    assert np.array_equal(best, target)


def test_element_arithmetic_and_space_guard():
    space = lp_block(3, 1)
    x = Element(space, [1.0, 2.0, 3.0])
    y = Element(space, [0.5, 0.5, 0.5])
    assert (x - y).norm() == pytest.approx(4.5, abs=1e-15)
    assert (2 * x).norm() == 12.0
    other = Element(lp_block(3, 2), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        _ = x + other
    with pytest.raises(ValueError):
        join([x, other])


def test_element_coords_read_only():
    x = Element(lp_block(2, 1), [1.0, 2.0])
    with pytest.raises(ValueError):
        x.coords[0] = 5.0


def test_element_validation():
    space = lp_block(3, 2)
    with pytest.raises(ValueError):
        Element(space, [1.0, 2.0])
    with pytest.raises(ValueError):
        Element(space, [1.0, np.nan, 0.0])
    with pytest.raises(ValueError):
        lp_block(3, 0.5)
    with pytest.raises(ValueError):
        lp_block(3, 1, [1.0, -1.0, 1.0])


def test_space_serialization_round_trip():
    spaces = [
        lp_block(3, 1.5, [0.5, 1.0, 2.0]),
        SupBlock(4),
        DirectSum(math.inf, (lp_block(2, 2), DirectSum(1, (SupBlock(1), lp_block(2, 1))))),
        dyadic_lp(3, 2),
    ]
    for space in spaces:
        back = space_from_json(json.loads(json.dumps(space.to_json())))
        assert back == space


def test_element_serialization_round_trip():
    space = DirectSum(math.inf, (SupBlock(2), lp_block(2, 2)))
    x = Element(space, [0.125, -3.0, 0.5, 2.0 ** -20])
    back = element_from_json(json.dumps(x.to_json()))
    assert back.space == x.space
    assert np.array_equal(back.coords, x.coords)


_EXPONENTS = st.one_of(st.sampled_from((1.0, 2.0)), st.floats(1.0, 6.0))


@st.composite
def space_trees(draw, depth=3):
    """A random descriptor: a weighted LpBlock with p in [1, 6], a SupBlock,
    or, while depth lasts, a DirectSum of one to three such trees under an
    outer p in [1, 6] or inf."""
    kind = draw(st.sampled_from(("lp", "sup", "sum") if depth else ("lp", "sup")))
    if kind == "sum":
        outer = draw(st.one_of(_EXPONENTS, st.just(math.inf)))
        return DirectSum(outer, draw(st.lists(space_trees(depth - 1),
                                              min_size=1, max_size=3)))
    dim = draw(st.integers(1, 4))
    if kind == "sup":
        return SupBlock(dim)
    weights = draw(st.lists(st.floats(0.25, 4.0), min_size=dim, max_size=dim))
    return LpBlock(dim, draw(_EXPONENTS), weights)


@settings(max_examples=80, deadline=None)
@given(space_trees(), st.integers(0, 2 ** 32 - 1))
def test_space_trees_are_lattice_norms(space, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, space.dim))
    t = rng.uniform(-3, 3)
    nx, ny = space.norm(x), space.norm(y)
    assert space.norm(np.zeros(space.dim)) == 0.0
    assert nx > 0 and ny > 0
    assert space.norm(t * x) == pytest.approx(abs(t) * nx, rel=1e-12)
    assert space.norm(x + y) <= (nx + ny) * (1 + 1e-12)
    # a lattice norm sees only the modulus and grows with it
    assert space.norm(np.abs(x)) == nx
    shrunk = y * rng.uniform(-1.0, 1.0, size=space.dim)
    assert space.norm(shrunk) <= ny * (1 + 1e-12)


@settings(max_examples=80, deadline=None)
@given(space_trees(), st.integers(0, 2 ** 32 - 1))
def test_space_trees_survive_json_round_trip(space, seed):
    back = space_from_json(json.loads(json.dumps(space.to_json())))
    assert back == space
    rows = np.random.default_rng(seed).standard_normal((5, space.dim))
    assert back.norms(rows).tobytes() == space.norms(rows).tobytes()


@st.composite
def batch_hosts(draw, depth=2):
    """A LpBlock with p in {1, 2, 1.5, 3}, unweighted or weighted, a
    SupBlock, or, while depth lasts, a DirectSum of one to three such hosts,
    over up to 300 coordinates a block."""
    kind = draw(st.sampled_from(("lp", "sup", "sum") if depth else ("lp", "sup")))
    if kind == "sum":
        outer = draw(st.sampled_from((1.0, 2.0, 1.5, 3.0, math.inf)))
        return DirectSum(outer, draw(st.lists(batch_hosts(depth - 1),
                                              min_size=1, max_size=3)))
    dim = draw(st.integers(1, 300))
    if kind == "sup":
        return SupBlock(dim)
    weights = None
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2 ** 32 - 1))
        weights = np.random.default_rng(seed).uniform(0.25, 4.0, dim)
    return LpBlock(dim, draw(st.sampled_from((1.0, 2.0, 1.5, 3.0))), weights)


@settings(max_examples=100, deadline=None)
@given(batch_hosts(), st.integers(1, 130), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_a_rows_norm_is_bitwise_the_same_in_any_batch(space, batch, sliced, seed):
    # the kvee screen, the per-prefix norm blocks and the bibasis blocks
    # all rely on it: a row's norm may not depend on its neighbours
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal((batch, space.dim + 3))
    wide *= 10.0 ** rng.uniform(-3, 3, size=(batch, 1))
    # a column slice of a wider array, or a C-contiguous copy of it
    rows = wide[:, 1 : 1 + space.dim]
    if not sliced:
        rows = np.ascontiguousarray(rows)
    one_by_one = np.array([space.norm(row) for row in rows])
    assert space.norms(rows).tobytes() == one_by_one.tobytes()
    assert space.norms(rows[::-1]).tobytes() == one_by_one[::-1].tobytes()
