import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmax.constructions import lindenstrauss as lind
from latmax.constructions import triangular as tri
from latmax.estimation import nuclear_norm, pnorm_bounds, pnorm_upper
from latmax.greedy import greedy_maximal, natural_greedy_ordering
from latmax.systems import coefficients, maximal_partial, partial_sum, reconstruct

from system_views import dense_functionals


# ---------------------------------------------------------------- forest


def test_forest_indexing():
    assert lind.children(0) == (2, 3)
    assert lind.children(1) == (4, 5)
    assert lind.parent(2) == 0
    assert lind.parent(5) == 1
    with pytest.raises(ValueError):
        lind.parent(1)
    # depth sets under node 0: runs of 2^d indices, pairwise disjoint
    assert lind.depth_set(1).tolist() == [2, 3]
    assert lind.depth_set(2).tolist() == [6, 7, 8, 9]
    seen = {0}
    for d in range(1, 8):
        idx = lind.depth_set(d)
        assert len(idx) == 2 ** d
        assert not seen.intersection(idx.tolist())
        seen.update(idx.tolist())
        if d > 1:
            parents = {lind.parent(int(i)) for i in idx}
            assert parents == set(lind.depth_set(d - 1).tolist())


def test_first_vector_coordinates():
    sys = lind.lindenstrauss(4)
    x0 = sys.vectors[0]
    assert x0[0] == 1.0 and x0[2] == -0.5 and x0[3] == -0.5
    assert np.count_nonzero(x0) == 3


def test_gram_is_exactly_identity():
    # every pairing is a sum of powers of two, so no tolerance is needed
    sys = lind.lindenstrauss(64)
    gram = dense_functionals(sys) @ sys.vectors.T
    assert np.array_equal(gram, np.eye(64))


def test_functionals_live_on_ancestor_chains():
    sys = lind.lindenstrauss(32)
    for k in (0, 1, 7, 21, 30):
        chain, node, w = {k: 1.0}, k, 1.0
        while node >= 2:
            node, w = lind.parent(node), w / 2.0
            chain[node] = chain.get(node, 0.0) + w
        f = dense_functionals(sys)[k]
        assert set(np.flatnonzero(f).tolist()) == set(chain)
        for i, v in chain.items():
            assert f[i] == v


def test_round_trip_through_system():
    sys = lind.lindenstrauss(32)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal(32)
        back = coefficients(sys, reconstruct(sys, a))
        assert np.max(np.abs(back - a)) < 1e-12


# ---------------------------------------------------------------- chain


def test_chain_element_norm_and_telescope():
    y3 = lind.chain_element(3, 64)
    assert y3.space.norm(y3.coords) == 2.0
    # the coefficient combination collapses back to e_0 - 2^-d * indicator
    sys = lind.lindenstrauss(64)
    for depth in (1, 2, 3, 4):
        a = lind.chain_coefficients(depth, 64)
        rebuilt = reconstruct(sys, a)
        assert np.array_equal(rebuilt.coords, lind.chain_element(depth, 130).coords)


def test_prefix_join_matches_dense_machinery():
    n, depth = 64, 4
    sys = lind.lindenstrauss(n)
    a = lind.chain_coefficients(depth, n)
    x = reconstruct(sys, a)
    join_l1, x_l1, telescopes = lind.chain_prefix_join(depth)
    assert telescopes
    assert x_l1[-1] == 2.0
    assert join_l1[-1] == depth + 1.0
    # the library witness's whole join and last sum
    _, join_element, _, y = lind.lindenstrauss_witness(depth - 1, n)
    join = join_element.coords
    assert np.array_equal(y, x.coords)
    # index-order prefixes: zero coefficients do not move the running sum
    dense = maximal_partial(sys, x, n)
    assert np.array_equal(dense.coords, join)
    # greedy order coincides with index order on this support
    perm = np.array(natural_greedy_ordering(a).permutation)
    support = np.flatnonzero(a)
    assert np.array_equal(perm[: len(support)], support)
    gm = greedy_maximal(sys, x, n)
    assert np.array_equal(gm.coords, join)


def test_witness_exact_values():
    rows, join, reports, y = lind.lindenstrauss_witness(5, 96)
    assert np.array_equal(y, lind.chain_element(6, 194).coords)
    assert [r[1] for r in rows] == [2.0] * 6
    assert rows[-1][2] == 7.0
    assert join.norm() == 7.0
    assert [rep.constant_name for rep in reports] == ["bibasis",
                                                     "uniform_quasi_greedy"]
    for rep in reports:
        assert rep.value == 3.5
        assert np.array_equal(rep.witness, lind.chain_coefficients(6, 96))
    # y_k lives on the depth-(k + 1) set
    assert lind.depth_set(2).tolist() == [6, 7, 8, 9]
    assert all(len(lind.depth_set(k + 1)) == 2 ** (k + 1) for k in range(6))


def test_witness_requires_room():
    with pytest.raises(ValueError):
        lind.lindenstrauss_witness(5, 64)


def test_streaming_scales_to_deep_chains():
    # depth 10, still exact
    join_l1, x_l1, telescopes = lind.chain_prefix_join(10)
    assert (join_l1[-1], x_l1[-1], telescopes) == (11.0, 2.0, True)


def _node_by_node_walk(depth, n):
    """Reference: the chain walk one node at a time, with the l1 norms of the
    join and of the running sum taken as each tree level ends."""
    a = lind.chain_coefficients(depth, n)
    level_ends = {0} | {int(lind.depth_set(d)[-1]) for d in range(1, depth)}
    running = np.zeros(2 * n + 2)
    join = np.zeros(2 * n + 2)
    join_norms, x_norms = [], []
    for t in np.flatnonzero(a):
        c = a[t]
        c1, c2 = lind.children(t)
        running[t] += c
        running[c1] -= c / 2.0
        running[c2] -= c / 2.0
        for i in (t, c1, c2):
            join[i] = max(join[i], abs(running[i]))
        if t in level_ends:
            join_norms.append(float(np.abs(join).sum()))
            x_norms.append(float(np.abs(running).sum()))
    return join, join_norms, x_norms


def test_level_walk_matches_node_by_node_walk():
    cases = [(depth, 3 * 2 ** (depth - 1) - 2) for depth in range(1, 13)]
    cases.append((5, 100))  # a system larger than the chain needs
    for depth, n in cases:
        join_norms, x_norms, telescopes = lind.chain_prefix_join(depth)
        rows, join, _, _ = lind.lindenstrauss_witness(depth - 1, n)
        ref_join, ref_join_norms, ref_x_norms = _node_by_node_walk(depth, n)
        assert telescopes
        assert np.array_equal(join.coords, ref_join)
        assert join_norms == ref_join_norms == [r[2] for r in rows]
        assert x_norms == ref_x_norms == [r[1] for r in rows]
        assert len(join_norms) == depth


def _full_pass_walk(depth, n):
    """Reference: the level walk with both l1 norms summed over all 2n + 2
    coordinates after every level, as the chain walk took them before it
    updated them from the touched slices only."""
    running, join = np.zeros(2 * n + 2), np.zeros(2 * n + 2)
    join_norms, x_norms = [], []
    for d in range(depth):
        lo, hi = 2 ** (d + 1) - 2, 3 * 2 ** d - 2
        nodes, kids = slice(lo, hi), slice(2 * lo + 2, 2 * hi + 2)
        running[nodes] += 2.0 ** -d
        running[kids] -= 2.0 ** -d / 2.0
        for s in (nodes, kids):
            np.maximum(join[s], np.abs(running[s]), out=join[s])
        join_norms.append(float(np.abs(join).sum()))
        x_norms.append(float(np.abs(running).sum()))
    return join, join_norms, x_norms, running


def test_incremental_chain_norms_are_the_full_pass():
    # the windowed walk's norms (chain_prefix_join, and the library
    # witness's rows), and the witness's join and last sum from y's closed form
    for depth in range(1, 21):
        n = 3 * 2 ** (depth - 1)
        want_join, want_join_norms, want_x_norms, want_y = _full_pass_walk(depth, n)
        rows, join, _, y = lind.lindenstrauss_witness(depth - 1, n)
        assert np.array_equal(join.coords, want_join), depth
        assert np.array_equal(y, want_y), depth
        del join, y, want_join, want_y
        join_norms, x_norms, telescopes = lind.chain_prefix_join(depth)
        assert telescopes, depth
        for got in ([r[2] for r in rows], join_norms):
            assert [type(v) for v in got] == [float] * depth
            assert [v.hex() for v in got] == [v.hex() for v in want_join_norms], depth
        for got in ([r[1] for r in rows], x_norms):
            assert [type(v) for v in got] == [float] * depth
            assert [v.hex() for v in got] == [v.hex() for v in want_x_norms], depth


def test_witness_element_wraps_the_coordinate_walk():
    # the library witness adds the whole join and the last sum to the
    # windowed walk's rows and reports
    rows, join, reports, y = lind.lindenstrauss_witness(4, 48)
    rows_c, reports_c, telescopes = lind.chain_witness(4, 48)
    assert join.space == lind.chain_element(1, 98).space
    assert np.array_equal(y, lind.chain_coords(5, 98)) and telescopes
    assert rows == rows_c
    assert [r.to_json() for r in reports] == [r.to_json() for r in reports_c]
    assert np.array_equal(lind.chain_coords(5, 98), lind.chain_element(5, 98).coords)


def test_windowed_walk_catches_one_wrong_coordinate_in_any_window(monkeypatch):
    # one coordinate of one window, at any level, nodes or kids, moved by
    # 2^-30 after the level rule: a finished level's nodes are never read
    # again, so there only the telescoping check can notice
    level, depth = lind._level, 5
    clean = lind.chain_prefix_join(depth)
    for bad_level in range(depth):
        for part in (0, 1):
            for where in (0, -1):
                def perturbed(d, running, join, norms):
                    level(d, running, join, norms)
                    if d == bad_level:
                        running[part][where] += 2.0 ** -30
                monkeypatch.setattr(lind, "_level", perturbed)
                join_norms, x_norms, telescopes = lind.chain_prefix_join(depth)
                if part == 0 or bad_level == depth - 1:
                    assert (join_norms, x_norms) == clean[:2]
                assert not telescopes, (bad_level, part, where)
    monkeypatch.setattr(lind, "_level", level)
    monkeypatch.setattr(lind, "_chain_value", lambda k, d: 0.0)
    assert not lind.chain_prefix_join(depth)[2]


def test_chain_walk_rejects_an_empty_chain():
    with pytest.raises(ValueError):
        lind.chain_prefix_join(0)


def test_witness_refuses_a_walk_that_does_not_telescope(monkeypatch):
    level = lind._level
    lind.lindenstrauss_witness(3, 48)

    def perturbed(d, running, join, norms):
        level(d, running, join, norms)
        if d == 1:
            running[0][0] += 2.0 ** -30
    monkeypatch.setattr(lind, "_level", perturbed)
    assert not lind.chain_witness(3, 48)[2]
    with pytest.raises(RuntimeError, match="y3"):
        lind.lindenstrauss_witness(3, 48)


def test_chain_size_is_the_smallest_system_the_walk_accepts():
    for depth in range(1, 13):
        need = lind.chain_size(depth)
        # the deepest coefficient sits on the last node of depth depth - 1
        assert np.flatnonzero(lind.chain_coefficients(depth, need))[-1] == need - 1
        if depth > 1:
            assert lind.depth_set(depth - 1)[-1] == need - 1
        # the witness checks its size before the walk, at depth 1 too,
        # where a system of size 0 has no slot for y_1's one coefficient
        assert lind.chain_witness(depth - 1, need)[2]
        with pytest.raises(ValueError, match=f"need at least {need}$"):
            lind.chain_witness(depth - 1, need - 1)
        with pytest.raises(ValueError, match="too small"):
            lind.chain_coefficients(depth, need - 1)


def test_witness_join_is_the_dense_chain_join():
    for m in (0, 2, 6):  # chain depths 1, 3 and 7
        n = 3 * 2 ** m
        rows, join, _, _ = lind.lindenstrauss_witness(m, n)
        dense = np.zeros(2 * n + 2)
        for k in range(m + 1):
            y = lind.chain_element(k + 1, 2 * n + 2)
            dense = np.maximum(dense, np.abs(y.coords))
        assert np.array_equal(join.coords, dense)
        assert rows == [(k, 2.0, k + 2.0) for k in range(m + 1)]


# ---------------------------------------------------------------- kernel


def test_kernel_shape_and_entries():
    T = tri.hilbert_kernel(5)
    assert np.array_equal(np.diag(T), np.zeros(5))
    assert np.array_equal(T, -T.T)
    assert T[3, 1] == 0.5 and T[1, 3] == -0.5 and T[4, 0] == 0.25


def _masked_kernel(n):
    """The kernel as built before it was inverted in place: a masked copy
    of the differences, inverted into a zero matrix."""
    d = np.subtract.outer(np.arange(n, dtype=float), np.arange(n, dtype=float))
    T = np.zeros((n, n))
    nz = d != 0
    T[nz] = 1.0 / d[nz]
    return T


def test_kernel_is_bitwise_the_masked_formula():
    for n in (1, 2, 5, 64, 512):
        assert tri.hilbert_kernel(n).tobytes() == _masked_kernel(n).tobytes(), n


def test_kernel_is_built_in_place():
    tri.hilbert_kernel(4)
    tracemalloc.start()
    try:
        T = tri.hilbert_kernel(512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.shape == (512, 512)
    # 2.3 MiB measured (the 2 MiB kernel and its nonzero mask); the masked
    # copies took 8.3 MiB
    assert peak < 3 * 2 ** 20, peak


def test_kernel_spectral_ladder():
    # values pinned from an SVD sweep; the uniform cap is pi
    pinned = {16: 2.696340284673576, 64: 3.0080543908243875,
              256: 3.1032824458634134}
    for n, val in pinned.items():
        got = tri.kernel_gauge(n)
        assert abs(got - val) < 1e-9
        assert got <= math.pi + 1e-6
    assert abs(tri.kernel_gauge(1024) - 3.130858555124935) < 1e-6


def test_kernel_gauge_is_the_pnorm_bounds_upper_bound():
    # the dense SVD of pnorm_bounds and the FFT Lanczos of kernel_gauge
    # agree to a few ulps (2.2e-16 relative at most on these sizes)
    for n in (16, 64):
        T = tri.hilbert_kernel(n)
        for p in (1.5, 2.0, 3.0):
            assert tri.kernel_gauge(n, p) == pytest.approx(
                pnorm_bounds(T, p).upper, rel=1e-14)


def _check_gauge_against_the_dense_kernel(sizes):
    # the FFT Lanczos route against the dense kernel as oracle
    for n in sizes:
        T = tri.hilbert_kernel(n)
        dense = np.linalg.svd(T, compute_uv=False)[0]
        assert tri.kernel_gauge(n) == pytest.approx(dense, rel=1e-12)
        for p in (1.5, 2.0, 3.0):
            assert tri.kernel_gauge(n, p) == pytest.approx(pnorm_upper(T, p),
                                                           rel=1e-12)
        route = tri.gauge_route(n)
        assert route["route"] == "fft_lanczos"
        assert route["steps"] >= 1
        assert route["residual"] <= 1e-9 * tri.kernel_gauge(n) ** 2


def test_kernel_gauge_up_to_the_cutoff_matches_the_dense_kernel():
    # the sizes where spectral_norm itself takes the dense SVD (n <= 768)
    _check_gauge_against_the_dense_kernel((2, 16, 64, 256, 512, 768))


def test_kernel_gauge_above_the_cutoff_matches_the_dense_kernel():
    _check_gauge_against_the_dense_kernel((769, 1024, 1536))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 768), p=st.floats(1.1, 4.0))
def test_kernel_scaling_is_a_half_contraction_against_the_dense_kernel(n, p):
    T = tri.hilbert_kernel(n)
    dense = pnorm_upper(T, p)
    assert tri.kernel_scaling(n, p) * dense < 0.5
    assert tri.kernel_gauge(n, p) == pytest.approx(dense, rel=1e-12)


def test_kernel_gauge_forms_no_square_array_and_stays_below_pi():
    n = 16384
    tri._fft_spectral_norm.cache_clear()
    tracemalloc.start()
    try:
        gauge = tri.kernel_gauge(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n  # one n x n float64 array alone takes 8 n^2 bytes
    assert tri.kernel_gauge(4096) < tri.kernel_gauge(8192) < gauge <= math.pi


def test_harmonic_numbers():
    H = tri.harmonic_numbers(4)
    assert H[0] == 0.0 and H[1] == 1.0
    assert abs(H[4] - 25.0 / 12.0) < 1e-15


# ---------------------------------------------------------------- basis


def test_neumann_inverse_matches_direct_inverse():
    n = 32
    S = (0.5 / tri.kernel_gauge(n)) * tri.hilbert_kernel(n)
    E, F, iterations, residual = tri.neumann_blocks(S)
    assert residual < 1e-12
    assert iterations < 100
    A = np.block([[np.eye(n), -S], [S, np.eye(n)]])
    direct = np.linalg.inv(A)
    got = np.block([[E, F], [-F, E]])
    assert np.max(np.abs(got - direct)) < 1e-9


def test_operator_extremes_pinned():
    n = 64
    S = (0.5 / tri.kernel_gauge(n)) * tri.hilbert_kernel(n)
    a_norm, inv_norm = tri.operator_extremes(S)
    assert abs(a_norm - 1.5) < 1e-6 and a_norm <= 1.5 + 1e-6
    assert abs(inv_norm - 2.0) < 1e-6 and inv_norm <= 2.0 + 1e-6


def test_operator_extremes_match_the_block_eigenvalues():
    n = 48
    S = (0.45 / tri.kernel_gauge(n)) * tri.hilbert_kernel(n)
    lam = np.linalg.eigvalsh(np.block([[np.eye(n), -S], [S, np.eye(n)]]))
    a_norm, inv_norm = tri.operator_extremes(S)
    assert a_norm == pytest.approx(lam[-1], rel=1e-12)
    assert inv_norm == pytest.approx(1.0 / lam[0], rel=1e-12)
    # past ||S|| = 1, A is not positive definite: no inverse bound
    s = tri.spectral_norm(2.0 * S / 0.45)
    assert tri.operator_extremes(2.0 * S / 0.45) == (1.0 + s, math.inf)
    with pytest.raises(ValueError, match="antisymmetric"):
        tri.operator_extremes(np.abs(S))


def test_witness_closed_forms_match_dense_machinery():
    n = 48
    system, alpha = tri.triangular_basis(n)
    assert alpha == 0.5 / (tri.kernel_gauge(n) * (1.0 + 1e-9))
    s, M, _, _ = tri._shadow_profiles(n, alpha, 2.0)
    a = np.concatenate([np.ones(n), np.zeros(n)])
    x = reconstruct(system, a)
    assert np.max(np.abs(x.coords - np.concatenate([np.ones(n), alpha * s]))) < 1e-10
    assert abs(system.space.norm(x.coords) - tri.witness_norm(n, 2.0, alpha)) < 1e-10
    dense_join = maximal_partial(system, x, n)
    assert np.max(np.abs(dense_join.coords - np.concatenate([np.ones(n), alpha * M]))) < 1e-10
    assert abs(system.space.norm(dense_join.coords)
               - tri.prefix_join_norm(n, 2.0, alpha)) < 1e-10
    p4 = partial_sum(system, x, 4)
    # shadow coordinate 3 of the 4-term prefix: alpha*(1 + 1/2 + 1/3)
    assert abs(p4.coords[n + 3] - alpha * (11.0 / 6.0)) < 1e-12


def test_round_trip_and_two_sided_equivalence():
    for p in (2.0, 3.0):
        system, _ = tri.triangular_basis(32, p)
        rng = np.random.default_rng(11)
        for _ in range(25):
            c = rng.standard_normal(64)
            y = reconstruct(system, c)
            back = coefficients(system, y)
            assert np.max(np.abs(back - c)) < 1e-9
            ratio = system.space.norm(y.coords) / np.linalg.norm(c, p)
            assert 0.5 - 1e-9 <= ratio <= 1.5 + 1e-9


def test_certificate_series_lower_bounds_joins():
    series = tri.certificate_series([2, 16, 64])
    assert series[0][1] == pytest.approx(1.0 / (2 * math.pi))
    values = [v for _, v in series]
    assert values == sorted(values)
    for n, v in series[1:]:
        alpha = 0.5 / (tri.kernel_gauge(n) * (1 + 1e-9))
        assert v <= tri.prefix_join_norm(n, 2.0, alpha) + 1e-12


def test_basis_rejects_bad_parameters():
    with pytest.raises(ValueError):
        tri.triangular_basis(1)
    with pytest.raises(ValueError):
        tri.triangular_basis(16, p=1.0)
    with pytest.raises(ValueError):
        tri.triangular_basis(16, p=math.inf)
    with pytest.raises(ValueError):
        tri.triangular_basis(4096)


# ---------------------------------------------------------------- trace dual


def _tau_matrix(n):
    """The summation matrix: lower-triangular ones, diagonal included."""
    return np.tril(np.ones((n, n)))


def test_trace_dual_small_values():
    double_sum, entrywise, _, floor = tri.trace_dual_certificate(2)
    assert double_sum == 2.5
    assert entrywise == 1.0
    assert floor == 2.5 / math.pi
    # the two pairings differ by exactly H_n
    double_sum, entrywise, _, _ = tri.trace_dual_certificate(3)
    assert double_sum - entrywise == pytest.approx(1 + 0.5 + 1 / 3, abs=1e-12)


def test_tau_spectrum_closed_form():
    n = 64
    sigma = tri.tau_singular_values(n)
    oracle = np.linalg.svd(_tau_matrix(n), compute_uv=False)
    assert np.max(np.abs(np.sort(sigma)[::-1] - oracle)) < 1e-8
    assert abs(sigma.sum() - nuclear_norm(_tau_matrix(n))) < 1e-8


def test_trace_dual_floor_and_growth_window():
    for n in (64, 256):
        _, _, nuc, floor = tri.trace_dual_certificate(n)
        assert nuc == tri.tau_singular_values(n).sum()
        assert nuc >= floor - 1e-6
        ratio = nuc / (n * math.log(n))
        assert 1 / math.pi - 0.05 <= ratio <= 2.0


# ---------------------------------------------------------------- entry functions


def test_registry_knows_lindenstrauss():
    rows, join, _, _ = lind.lindenstrauss_witness(3, 64)
    assert rows[-1][2] == join.norm() == 5.0
    assert len(lind.lindenstrauss(64)) == 64


def test_registry_knows_triangular():
    system, alpha = tri.triangular_basis(16)
    assert tri.prefix_join_norm(16, 2.0, alpha) > tri.witness_norm(16, 2.0, alpha)
    assert len(system) == 32
