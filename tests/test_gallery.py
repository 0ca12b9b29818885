"""Sign-vector, dyadic and sequence-space constructions."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmax.constructions import hadamard as had
from latmax.constructions import haar
from latmax.constructions import lindenstrauss as lind
from latmax.constructions import lorentz as lor
from latmax.constructions import orlicz as orl
from latmax.constructions import rademacher as rad
from latmax.constructions import typewriter as tw
from latmax.greedy import greedy_maximal, kvee_estimate, ordered_projection_maximal
from latmax import systems
from latmax.systems import (BiorthogonalSystem, Csr, _column_scan, _ordered_join,
                            _scan_plan, coefficients, reconstruct)

from system_views import dense_functionals


# ---------------------------------------------------------------- hadamard


def test_fwht_matches_matrix_multiply():
    for n in (1, 3, 5):
        H = had.walsh_matrix(n)
        assert np.array_equal(had.fwht_rows(np.eye(2 ** n)), H)
        rng = np.random.default_rng(n)
        X = rng.standard_normal((4, 2 ** n))
        assert np.max(np.abs(had.fwht_rows(X) - X @ H)) < 1e-10


def _butterfly_fwht(X):
    """The n-pass in-place butterfly transform, kept as the reference."""
    X = np.array(X, dtype=float, copy=True)
    m = X.shape[1]
    h = 1
    while h < m:
        X = X.reshape(X.shape[0], -1, 2, h)
        a, b = X[:, :, 0, :], X[:, :, 1, :]
        X[:, :, 0, :], X[:, :, 1, :] = a + b, a - b
        X = X.reshape(X.shape[0], m)
        h *= 2
    return X


def test_kronecker_fwht_is_bitwise_the_butterfly():
    # every intermediate is an integer below 2^53, so summation order is moot
    rng = np.random.default_rng(11)
    for n in range(1, 15):
        for rows in (1, 3, 513):
            signs = rng.integers(0, 2, size=(rows, 2 ** n)) * 2.0 - 1.0
            small = rng.integers(-7, 8, size=(rows, 2 ** n)).astype(float)
            for X in (signs, small):
                out = had.fwht_rows(X)
                assert out.shape == X.shape
                assert np.array_equal(out, _butterfly_fwht(X)), (n, rows)


def test_fwht_matches_the_dense_product_on_gaussian_rows():
    rng = np.random.default_rng(5)
    for n in range(1, 11):
        X = rng.standard_normal((7, 2 ** n))
        assert np.max(np.abs(had.fwht_rows(X) - X @ had.walsh_matrix(n))) < 1e-10


def test_fwht_factors_are_cached_read_only():
    for dtype in (np.float64, np.float32):
        had.fwht_rows(np.ones((2, 2 ** 9), dtype=dtype))
        for k in (4, 5):
            H = had._factor(k, dtype)
            assert H is had._factor(k, dtype)
            assert H.dtype == dtype
            assert np.array_equal(H, had.walsh_matrix(k))
            with pytest.raises(ValueError):
                H[0, 0] = 0.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 14), random_rows=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_float32_sign_norms_are_bitwise_the_float64_norms(n, random_rows, seed):
    # every batch holds the all-ones row (one spike of 2^n in the transform),
    # the alternating row and its negation, then random sign rows
    m = 2 ** n
    alternating = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    signs = np.random.default_rng(seed).integers(0, 2, (random_rows, m))
    rows = np.vstack([np.ones(m), alternating, -alternating, signs * 2.0 - 1.0])
    single = rows.astype(np.float32)
    transform = had.fwht_rows(single)
    assert transform.dtype == np.float32
    assert np.array_equal(transform, had.fwht_rows(rows))
    norms = had.mixed_sum_norms(n, single)
    assert norms.dtype == np.float64
    assert norms.tobytes() == had.mixed_sum_norms(n, rows).tobytes()


def _float64_sweep(n, samples, seed):
    """sign_pattern_sweep's sampled mode in float64: the same seeded bool
    stream, drawn 512 rows at a time, transformed by the butterfly."""
    rng = np.random.default_rng(seed)
    low, high = np.inf, -np.inf
    for s in range(0, samples, 512):
        rows = rng.integers(0, 2, size=(min(512, samples - s), 2 ** n),
                            dtype=bool) * 2.0 - 1.0
        l2 = np.linalg.norm(_butterfly_fwht(rows), axis=1)
        norms = np.maximum(np.max(np.abs(rows), axis=1), 2.0 ** -n * l2)
        low, high = min(low, float(norms.min())), max(high, float(norms.max()))
    return {"max": high, "min": low, "count": samples, "mode": "sampled"}


def test_sampled_sweep_is_the_float64_sweep_of_the_same_stream():
    # 1100 = 2 * 512 + 76: two full buffers and a short tail
    for n in range(5, 13):
        for samples, seed in ((1100, n), (3, 0)):
            assert had.sign_pattern_sweep(n, samples, seed) == \
                _float64_sweep(n, samples, seed), (n, samples, seed)


def test_sign_pattern_sweep_memory_at_n12():
    had.sign_pattern_sweep(12, samples=1)  # build the cached Walsh factors
    tracemalloc.start()
    try:
        sweep = had.sign_pattern_sweep(12, samples=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sweep["max"] == sweep["min"] == 1.0
    # a float32 512 x 4096 batch is 8 MB: the reused draw buffer, the
    # transform's two products and the bool draw take about 26 MB; float64
    # batches in fresh buffers took 50 MB
    assert peak < 32e6, peak


def test_cube_batches_are_the_sign_cube():
    # row w takes +1 in column k when bit k of w is set: the negated
    # transpose of rademacher's sign matrix, which the sweep once held whole
    for n in (1, 2, 3, 4):
        m = 2 ** n
        got = np.concatenate([b.copy() for b in had._sign_rows(m, 2 ** m)])
        want = rad.sign_matrix(m).T.astype(np.float32)
        want *= -1.0
        assert got.tobytes() == want.tobytes(), n


def test_exhaustive_sweep_holds_no_sign_cube():
    had.sign_pattern_sweep(4)  # build the cached Walsh factors
    tracemalloc.start()
    try:
        sweep = had.sign_pattern_sweep(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sweep == {"max": 1.0, "min": 1.0, "count": 2 ** 16, "mode": "exhaustive"}
    # 3.2 MiB measured; the 2^16 x 16 cube with its float64 and bit tables
    # took 12.0 MiB
    assert peak < 5 * 2 ** 20, peak


def test_sign_batches_draw_the_bool_stream():
    # uint32 words unpacked little-endian are integers(0, 2, dtype=bool)'s
    # rows, and leave the generator where that draw leaves it; a numpy change
    # to either draw fails here rather than moving the sampled stream
    for seed in range(4):
        for m in (32, 64, 1024, 4096, 16384):
            for rows in (1, 3, 17, 33):
                mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = np.concatenate([b.copy() for b in had._sign_rows(m, rows, mine)])
                want = ref.integers(0, 2, size=(rows, m), dtype=bool) * 2.0 - 1.0
                assert got.dtype == np.float32 and np.array_equal(got, want)
                assert mine.random() == ref.random(), (seed, m, rows)


def _sweeps_under(monkeypatch, cells):
    """Both streams' results at a cell budget, and per call the rows they
    evaluated, concatenated."""
    monkeypatch.setattr(systems, "_WORKING_SET", cells)
    seen, norm_range = [], had._norm_range

    def recording(n, batches):
        rows = [b.copy() for b in batches]
        seen.append(np.concatenate(rows))
        return norm_range(n, rows)

    monkeypatch.setattr(had, "_norm_range", recording)
    out = [(had.sign_pattern_sweep(n, samples=77, seed=n),
            had.unconditionality_window(n, count=45, seed=n)) for n in (3, 4, 5, 9)]
    monkeypatch.undo()
    return out, seen


def test_sweeps_do_not_depend_on_the_cell_budget(monkeypatch):
    want, want_rows = _sweeps_under(monkeypatch, systems._WORKING_SET)
    for cells in (64, 2 ** 24):
        got, rows = _sweeps_under(monkeypatch, cells)
        assert got == want, cells
        assert len(rows) == len(want_rows) == 8
        for a, b in zip(rows, want_rows):
            assert a.dtype == b.dtype and np.array_equal(a, b), cells


def test_unconditionality_window_memory_at_n12():
    had.unconditionality_window(12, count=1)  # build the cached Walsh factors
    tracemalloc.start()
    try:
        report = had.unconditionality_window(12, count=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["low"] == report["high"] == 1.0
    # 2^18-cell batches of 64 rows take 2 MB each; 512-row ones peaked at 50 MB
    assert peak < 8e6, peak


def test_walsh_rows_orthogonal():
    for n in (2, 6):
        H = had.walsh_matrix(n)
        assert np.array_equal(H @ H.T, 2 ** n * np.eye(2 ** n))


def test_mixed_norm_formula_matches_dense_host():
    n = 4
    system, _ = had.hadamard_mixed(n)
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.standard_normal(2 ** n)
        direct = system.space.norm(reconstruct(system, a).coords)
        assert abs(direct - had.mixed_sum_norms(n, a)[0]) < 1e-12


def test_sign_sums_collapse_to_one():
    sweep = had.sign_pattern_sweep(3)
    assert sweep["mode"] == "exhaustive" and sweep["count"] == 2 ** 8
    assert sweep["max"] == 1.0 and sweep["min"] == 1.0
    sampled = had.sign_pattern_sweep(6, samples=500, seed=1)
    assert sampled["mode"] == "sampled" and sampled["count"] == 500
    assert abs(sampled["max"] - 1.0) < 1e-9 and abs(sampled["min"] - 1.0) < 1e-9


def test_modulus_sum_fills_both_blocks():
    n = 4
    system, total = had.hadamard_mixed(n)
    stacked = np.abs(system.vectors).sum(axis=0)
    assert np.array_equal(stacked, total.coords)
    assert total.space is system.space
    assert system.space.norm(total.coords) == 4.0


def test_in_place_transform_and_norms_are_bitwise_the_allocating_ones():
    # a work array moves the transform's two products into work and the
    # batch; float64 l2 norms square in place, np.linalg.norm's own steps
    rng = np.random.default_rng(3)
    for n in (1, 4, 7, 12):
        for dtype in (np.float32, np.float64):
            X = rng.standard_normal((5, 2 ** n)).astype(dtype)
            batch = X.copy()
            got = had.fwht_rows(batch, np.empty_like(batch))
            assert np.shares_memory(got, batch)
            assert batch.tobytes() == had.fwht_rows(X).tobytes()
        X = rng.standard_normal((5, 2 ** n))
        want = 2.0 ** -n * np.linalg.norm(had.fwht_rows(X), axis=1)
        assert had._l2_part(n, X.copy()).tobytes() == want.tobytes()
        assert had._l2_part(n, X.copy(), np.empty_like(X)).tobytes() == want.tobytes()


def test_unconditionality_window():
    report = had.unconditionality_window(5, count=200, seed=3)
    assert 1.0 - 1e-12 <= report["low"] and report["high"] <= 3.0
    # this host actually sits on the left end of the window
    assert report["high"] <= 1.0 + 1e-12


def test_unconditionality_window_is_one_unchunked_draw():
    # 1537 = 3 * 512 + 1 rows: three full batches and a one-row tail
    n, count, seed = 5, 1537, 11
    alphas = np.random.default_rng(seed).standard_normal((count, 2 ** n))
    alphas /= np.max(np.abs(alphas), axis=1, keepdims=True)
    norms = had.mixed_sum_norms(n, alphas)
    report = had.unconditionality_window(n, count=count, seed=seed)
    assert report == {"low": float(norms.min()), "high": float(norms.max()),
                      "count": count}


def test_unconditionality_window_is_bitwise_the_full_mixed_norm():
    # the window scores its normalized draws by the l2 part alone; the
    # reference takes max|a| through np.abs and the full host norm, sup
    # part included, batch by batch as the window draws them
    for seed in (0, 7):
        for n in range(2, 13):
            rng = np.random.default_rng(seed)
            low, high, count = np.inf, -np.inf, 700
            for s in range(0, count, 512):
                a = rng.standard_normal((min(512, count - s), 2 ** n))
                a /= np.max(np.abs(a), axis=1, keepdims=True)
                norms = had.mixed_sum_norms(n, a)
                low, high = min(low, float(norms.min())), max(high, float(norms.max()))
            assert had.unconditionality_window(n, count=count, seed=seed) == \
                {"low": low, "high": high, "count": count}, (seed, n)


def test_unconditionality_window_memory_is_flat_in_count():
    had.unconditionality_window(10, count=1)  # build the cached Walsh factors
    tracemalloc.start()
    try:
        report = had.unconditionality_window(10, count=8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["low"] == report["high"] == 1.0
    # one 8192 x 1024 draw alone takes 64 MB; a 512-row batch takes 4 MB
    assert peak < 32e6, peak


def test_hadamard_size_guards():
    with pytest.raises(ValueError):
        had.hadamard_mixed(0)
    with pytest.raises(ValueError):
        had.hadamard_mixed(15)
    with pytest.raises(ValueError):
        had.walsh_matrix(11)
    system, total = had.hadamard_mixed(12)
    assert system is None
    assert total.norm() == 64.0


# ---------------------------------------------------------------- rademacher


def test_sign_matrix_basics():
    R = rad.sign_matrix(3)
    assert R.shape == (3, 8)
    assert np.array_equal(R[0], [1, -1, 1, -1, 1, -1, 1, -1])
    assert np.array_equal(R @ R.T, 8 * np.eye(3))


def test_sign_matrix_is_one_minus_twice_the_bits():
    for n in range(1, 13):
        bits = (np.arange(2 ** n)[None, :] >> np.arange(n)[:, None]) & 1
        assert rad.sign_matrix(n).tobytes() == (1.0 - 2.0 * bits).tobytes(), n


def test_sign_matrix_holds_no_bit_table():
    tracemalloc.start()
    try:
        signs = rad.sign_matrix(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the signs are 8 MiB, and a row of bits at a time adds 0.75 MiB; a
    # 16 x 2^16 uint32 bit table to convert from adds 4 MiB (12 MiB peak)
    assert peak < signs.nbytes + 2 ** 20, peak


def test_sign_parts_are_the_clipped_sums_of_the_sign_cube():
    for k in (1, 4, 9, 16):
        X = rad.sign_matrix(k) / k
        pos, neg = rad.sign_parts(k)
        assert pos.tobytes() == np.clip(X, 0.0, None).sum(axis=0).tobytes(), k
        assert neg.tobytes() == np.clip(-X, 0.0, None).sum(axis=0).tobytes(), k


def test_sign_parts_hold_no_sign_cube():
    tracemalloc.start()
    try:
        rad.sign_parts(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 16 x 2^16 float64 cube is 8 MiB, and the clipped sums of the cube
    # peaked at 24.5 MiB; the row-by-row parts take about 2 MiB
    assert peak < 4 * 2 ** 20


def test_rademacher_round_trip():
    system = rad.rademacher_l1(6)
    rng = np.random.default_rng(2)
    a = rng.standard_normal(6)
    assert np.max(np.abs(coefficients(system, reconstruct(system, a)) - a)) < 1e-12


def test_rademacher_rows_are_the_dense_conversion_array_by_array():
    # the rows are built straight from the signs, none of which is zero: one
    # shared row of columns, yet every row reads the columns and values of
    # converting the dense signs, dtype for dtype
    for n in (1, 2, 5, 9):
        built = rad.rademacher_l1(n).row_support
        ref = Csr.from_dense(rad.sign_matrix(n))
        assert len(built.cols) == 2 ** n and np.array_equal(built.indptr, ref.indptr), n
        for k in range(n):
            lo, hi = ref.indptr[k], ref.indptr[k + 1]
            for mine, want in ((built.columns(slice(lo, hi)), ref.columns(slice(lo, hi))),
                               (built.vals[lo:hi], ref.vals[lo:hi])):
                assert mine.dtype == want.dtype and np.array_equal(mine, want), (n, k)


def test_rademacher_build_holds_one_row_of_columns():
    rad.rademacher_l1(3)
    tracemalloc.start()
    try:
        system = rad.rademacher_l1(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    R, F = system.row_support, system.functional_rows
    # R's and F's vals are 8 MiB each; the host's weights and the one shared
    # row of int64 columns take 0.5 MiB each, and the build's transients
    # about 0.1 MiB (17.1 MiB peak).  The column tile, the same 2^16 columns
    # once per row, was another 8 MiB (25.5 MiB peak)
    assert peak < R.vals.nbytes + F.vals.nbytes + 2 * 2 ** 20, peak
    assert R.cols is F.cols and len(R.cols) == 2 ** 16


def test_modulus_sum_is_l1():
    system = rad.rademacher_l1(10)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal(10)
        y = np.abs(a) @ np.abs(system.vectors)
        total = float(np.sum(np.abs(a)))
        assert abs(system.space.norm(y) - total) < 1e-12 * max(total, 1.0)


def test_flat_mean_exact_values():
    assert rad.flat_mean(2) == 1.0
    assert rad.flat_mean(12) == 2.70703125  # 11088 / 4096
    # enumeration oracle agrees with the binomial closed form
    for m in (4, 8):
        assert abs(rad.flat_mean(m) - rad.signed_mean(np.ones(m))) < 1e-12


def _flat_mean_by_enumeration(m):
    """sum_j C(m, j)|m - 2j| / 2^m, the enumeration flat_mean replaced, with
    the binomials built one from the next."""
    total, c = 0, 1
    for j in range(m + 1):
        total += c * abs(m - 2 * j)
        c = c * (m - j) // (j + 1)
    return total / 2.0 ** m


def test_flat_mean_closed_form_is_bitwise_the_enumeration():
    for m in range(1, 1019):
        assert rad.flat_mean(m) == _flat_mean_by_enumeration(m), m


def _flat_ratio_series(ms):
    """(m, m / E|S_m|) pairs: the l1-to-mean gap for flat coefficients.

    The mean is constant across the odd-to-even step (E|S_{2k}| relates to
    E|S_{2k+1}| by the same central binomial), so consecutive ratios move
    in a staircase; growth fits should sample a single parity.
    """
    return [(m, m / rad.flat_mean(m)) for m in ms]


def test_flat_ratio_staircase():
    series = dict(_flat_ratio_series([2, 3, 4, 5]))
    assert series[2] == pytest.approx(series[3], rel=1e-15)
    assert series[4] == pytest.approx(series[5], rel=1e-15)
    assert series[4] > series[2]


def test_khintchine_window_observed():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.standard_normal(12)
        mean = rad.signed_mean(a)
        l2 = float(np.linalg.norm(a))
        assert l2 / math.sqrt(2.0) - 1e-9 <= mean <= l2 + 1e-9
        system = rad.rademacher_l1(12)
        via_host = system.space.norm(reconstruct(system, a).coords)
        assert abs(via_host - mean) < 1e-12


# ---------------------------------------------------------------- haar


def test_haar_normalization_and_duality():
    for p in (1.0, 2.0, 3.0):
        system = haar.haar_system(5, p)
        assert np.max(np.abs(system.space.norms(system.vectors) - 1.0)) < 1e-12
    system = haar.haar_system(6, 2.0)
    # at p = 2 the duals are the vectors re-weighted by the cell measure
    F = dense_functionals(system)
    assert np.array_equal(F, system.vectors * 2.0 ** -6)
    gram = F @ system.vectors.T
    assert np.max(np.abs(gram - np.eye(64))) < 1e-12


def test_haar_reconstruction():
    system = haar.haar_system(8, 3.0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.standard_normal(256)
        back = reconstruct(system, coefficients(system, x))
        assert np.max(np.abs(back.coords - x)) < 1e-9


def test_branch_layout():
    assert haar.branch_ordering(4) == [0, 1, 2, 4, 8]
    a = haar.branch_coefficients(4, 2.0)
    assert a[0] == 1.0
    assert a[1] == 2.0 ** -0.5
    assert a[8] == 0.25
    assert np.count_nonzero(a) == 5


def test_branch_joins_grow_with_depth():
    previous = None
    for J in (4, 5, 6, 7):
        system = haar.haar_system(J, 2.0)
        a = haar.branch_coefficients(J, 2.0)
        x = reconstruct(system, a)
        branch = haar.branch_ordering(J)
        join = ordered_projection_maximal(system, x, branch)
        value = system.space.norm(join.coords)
        # second opinion: accumulate the prefix join by hand
        running = np.zeros(system.space.dim)
        peak = np.zeros(system.space.dim)
        for idx in branch:
            running = running + a[idx] * system.vectors[idx]
            peak = np.maximum(peak, np.abs(running))
        assert abs(system.space.norm(peak) - value) < 1e-12
        assert 1.5 < value < 2.5
        if previous is not None:
            assert value > previous
        previous = value


def test_haar_kvee_smoke():
    system = haar.haar_system(5, 2.0)
    report = kvee_estimate(system, 8, budget=400)
    assert report.constant_name == "kvee"
    assert 1.0 <= report.value <= 10.0


# ---------------------------------------------------------------- typewriter


def test_indicator_blocks_layout():
    T = tw.indicator_blocks(3).dense(8)
    assert T.shape == (7, 8)
    assert np.array_equal(T[0], np.ones(8))
    assert np.array_equal(T[1], [1, 1, 1, 1, 0, 0, 0, 0])
    assert np.array_equal(T[6], [0, 0, 0, 0, 0, 0, 1, 1])
    for i, row in enumerate(T):
        level = (i + 1).bit_length() - 1
        assert row.sum() == 2 ** (3 - level)


def test_frame_is_redundant_but_reconstructs():
    system = tw.typewriter_frame(5, 2.5)
    assert len(system) == 3 * 31 + 1
    with pytest.raises(ValueError):
        BiorthogonalSystem(system.space, system.vectors, dense_functionals(system))
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.standard_normal(32)
        total = (dense_functionals(system) @ x) @ system.vectors
        assert np.max(np.abs(total - x)) < 1e-8


def test_first_indicator_doubles_the_constant():
    system = tw.typewriter_frame(4, 2.0)
    c = dense_functionals(system) @ np.ones(16)
    p2 = c[0] * system.vectors[0] + c[1] * system.vectors[1]
    assert np.max(np.abs(p2 - 2.0)) < 1e-12


def test_frame_slots_are_the_haar_and_indicator_rows_bitwise():
    for J in range(1, 7):
        system = tw.typewriter_frame(J, 2.5)
        W, Wdual = (rows.dense(2 ** J) for rows in haar.haar_rows(J, 2.5))
        T = tw.indicator_blocks(J).dense(2 ** J)
        mean = np.full(2 ** J, 2.0 ** -J).tobytes()
        V, F = system.vectors, dense_functionals(system)
        assert len(system) == 3 * len(T) + 1
        for i in range(len(T)):
            assert V[3 * i].tobytes() == W[i].tobytes()
            assert F[3 * i].tobytes() == Wdual[i].tobytes()
            assert V[3 * i + 1].tobytes() == T[i].tobytes()
            # the rows store no zeros, so the dense view's zeros are +0.0
            assert V[3 * i + 2].tobytes() == (0.0 - T[i]).tobytes()
            assert F[3 * i + 1].tobytes() == F[3 * i + 2].tobytes() == mean
        assert V[-1].tobytes() == W[-1].tobytes()
        assert F[-1].tobytes() == Wdual[-1].tobytes()


def _haar_matrices_by_window(J, p):
    """The per-window loop haar_rows replaced, kept as a dense reference."""
    q = haar._conjugate(p)
    m = 2 ** J
    V, F = np.zeros((m, m)), np.zeros((m, m))
    V[0] = 1.0
    F[0] = 2.0 ** -J
    for j in range(J):
        amp = 2.0 ** (j / p)
        dual = 2.0 ** (j / q if q != math.inf else 0.0) * 2.0 ** -J
        span = 2 ** (J - j)
        half = span // 2
        for k in range(2 ** j):
            row, start = 2 ** j + k, k * span
            V[row, start : start + half] = amp
            V[row, start + half : start + span] = -amp
            F[row, start : start + half] = dual
            F[row, start + half : start + span] = -dual
    return V, F


def _indicator_blocks_by_window(J):
    """The per-window loop indicator_blocks replaced, kept as a dense
    reference."""
    m = 2 ** J
    rows = np.zeros((m - 1, m))
    i = 0
    for level in range(J):
        span = m >> level
        for k in range(2 ** level):
            rows[i, k * span : (k + 1) * span] = 1.0
            i += 1
    return rows


def test_level_builds_are_bitwise_the_window_loops():
    for J in range(13):
        for p in (1.0, 1.5, 2.0, 3.0):
            V, F = (rows.dense(2 ** J) for rows in haar.haar_rows(J, p))
            V_ref, F_ref = _haar_matrices_by_window(J, p)
            assert V.tobytes() == V_ref.tobytes(), (J, p)
            assert F.tobytes() == F_ref.tobytes(), (J, p)
            del V, F, V_ref, F_ref
    for J in range(1, 13):
        assert tw.indicator_blocks(J).dense(2 ** J).tobytes() == \
            _indicator_blocks_by_window(J).tobytes(), J


def _lindenstrauss_by_node(n):
    """The per-node dense loop lindenstrauss replaced, kept as a reference."""
    V, F = np.zeros((n, 2 * n + 2)), np.zeros((n, 2 * n + 2))
    for k in range(n):
        V[k, k] = 1.0
        V[k, list(lind.children(k))] = -0.5
        node, w = k, 1.0
        F[k, node] = w
        while node >= 2:
            node, w = lind.parent(node), w / 2.0
            F[k, node] += w
    return V, F


def _typewriter_by_slot(J, p):
    """The dense weave typewriter_frame replaced, kept as a reference."""
    m = 2 ** J
    V, F = np.empty((3 * m - 2, m)), np.empty((3 * m - 2, m))
    V[0::3], F[0::3] = _haar_matrices_by_window(J, p)
    V[1::3] = _indicator_blocks_by_window(J)
    V[2::3] = -V[1::3]
    F[1::3] = F[2::3] = 2.0 ** -J
    return V, F


@st.composite
def _gallery_systems(draw):
    """(system built as CSR, its dense reference rows) for Haar at J <= 8,
    the typewriter frame at J <= 8 and Lindenstrauss forests."""
    kind = draw(st.sampled_from(("haar", "typewriter", "lindenstrauss")))
    if kind == "lindenstrauss":
        n = draw(st.integers(1, 300))
        return lind.lindenstrauss(n), _lindenstrauss_by_node(n)
    J = draw(st.integers(0 if kind == "haar" else 1, 8))
    p = draw(st.sampled_from((1.0, 1.5, 2.0, 3.0) if kind == "haar" else (1.5, 2.0, 3.0)))
    if kind == "haar":
        return haar.haar_system(J, p), _haar_matrices_by_window(J, p)
    return tw.typewriter_frame(J, p), _typewriter_by_slot(J, p)


@settings(max_examples=60, deadline=None)
@given(_gallery_systems(), st.data())
def test_direct_csr_builds_are_the_dense_conversion_and_join_bitwise(built, data):
    system, (V, F) = built
    dense = BiorthogonalSystem(system.space, V, F, check=False)
    for direct, converted in ((system.row_support, dense.row_support),
                              (system.functional_rows.take(system.functional_index),
                               dense.functional_rows)):
        for name in ("indptr", "cols", "vals"):
            a, b = getattr(direct, name), getattr(converted, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    # every join reads the rows and the coefficients only, so each is
    # bitwise the dense path's: a cumsum over the dense rows
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    n, dim = V.shape
    order = rng.permutation(n)[: data.draw(st.integers(1, n), label="length")]
    a = rng.standard_normal(n)
    sums = np.cumsum(a[order][:, None] * V[order], axis=0)
    assert _ordered_join(system, a, order).tobytes() == \
        np.abs(sums).max(axis=0).tobytes()
    # the joins of an element: its coefficients are summed from the same
    # stored functional rows on both sides
    x = rng.standard_normal(dim)
    assert ordered_projection_maximal(system, x, order).coords.tobytes() == \
        ordered_projection_maximal(dense, x, order).coords.tobytes()
    assert greedy_maximal(system, x, len(order)).coords.tobytes() == \
        greedy_maximal(dense, x, len(order)).coords.tobytes()


def test_pass_profile_marks_are_bitwise_the_dense_pass():
    # reference: one dense np.cumsum down the whole frame, the additions
    # of the old 64-row block pass in the same order
    for J in range(1, 11):
        for p in (1.5, 2.0, 3.0):
            system = tw.typewriter_frame(J, p)
            c = coefficients(system, np.ones(2 ** J))
            sums = np.cumsum(c[:, None] * system.vectors, axis=0)
            high, low = sums.max(axis=0), sums.min(axis=0)
            join, oscillation, terms = tw.pass_profile(J, p)
            assert join.coords.tobytes() == np.maximum(high, -low).tobytes(), (J, p)
            assert oscillation.tobytes() == (high - low).tobytes(), (J, p)
            assert terms == len(system) == 3 * 2 ** J - 2


def test_pass_profile_scan_occupies_every_point():
    # pass_profile scatters the scan's marks: slot 0 (the constant) is
    # nonzero everywhere, so every point is an occupied cell, and every run
    # is as long, so the cells keep their ascending order
    for J in range(1, 13):
        system = tw.typewriter_frame(J, 2.0)
        c = coefficients(system, np.ones(2 ** J))
        plan = _scan_plan(system, [np.arange(len(system))])
        cells, high, low = _column_scan(system, c[None, None], plan)
        assert high.shape == low.shape == (1, system.space.dim), J
        assert np.array_equal(cells, np.arange(2 ** J)), J


def test_pass_profile_join_and_oscillation():
    for p in (2.0, 3.0):
        join, osc, _ = tw.pass_profile(4, p)
        assert abs(join.norm() - 2.0) < 1e-9
        assert np.max(np.abs(osc - 1.0)) < 1e-9


# ---------------------------------------------------------------- lorentz


def _lorentz_norm(p, q, x):
    """(sum_k k^{q/p-1} (x*_k)^q)^{1/q} over the decreasing rearrangement."""
    x = np.asarray(x, dtype=float)
    star = np.sort(np.abs(x))[::-1]
    k = np.arange(1, len(x) + 1, dtype=float)
    return float(np.sum(k ** (q / p - 1.0) * star ** q) ** (1.0 / q))


def test_lorentz_norm_basics():
    assert _lorentz_norm(4, 2, [1, 0, 0]) == 1.0
    expected = (1 + 2.0 ** (2 / 4 - 1)) ** 0.5
    assert abs(_lorentz_norm(4, 2, [1, 1]) - expected) < 1e-12
    # rearrangement invariance
    rng = np.random.default_rng(8)
    x = rng.standard_normal(20)
    shuffled = -x[rng.permutation(20)]
    assert abs(_lorentz_norm(4, 2, x) - _lorentz_norm(4, 2, shuffled)) < 1e-12
    with pytest.raises(ValueError):
        lor.unit_fundamental(2, 2, [1])
    with pytest.raises(ValueError):
        lor.unit_fundamental(2, 0.5, [1])


def _direct_sigma(e):
    """sigma(1), ..., sigma(2^21) by one full left-to-right cumsum."""
    return np.cumsum(np.arange(1, 2 ** 21 + 1, dtype=float) ** e)


def test_weight_sums_match_a_direct_cumsum():
    # every checkpoint, every 2^i and block end 2^(i+1) - 2, both ends of the
    # exact range and a seeded sample, through the log2 address
    step = lor._CHECKPOINT
    rng = np.random.default_rng(11)
    Ns = sorted({1, 2 ** 21} | set(range(step, 2 ** 21 + 1, step))
                | {2 ** i for i in range(22)} | {2 ** (i + 1) - 2 for i in range(1, 21)}
                | set(rng.integers(1, 2 ** 21 + 1, size=500).tolist()))
    for p, q in ((4.0, 2.0), (3.0, 2.0), (2.5, 1.5)):
        e = q / p - 1.0
        direct = _direct_sigma(e)
        marks = lor._checkpoints(e)
        assert marks[0] == 0.0 and np.array_equal(marks[1:], direct[step - 1::step])
        for N in Ns:
            assert lor._sigma_int(N, p, q) == direct[N - 1], (p, q, N)
            assert lor.weight_sum_log2(math.log2(N), p, q) == direct[N - 1]
        # beyond the exact range: the Euler-Maclaurin tail, zeta taken directly
        log2N = 30.0
        tail = (2.0 ** (log2N * (1.0 + e)) / (1.0 + e)
                + float(mpmath.zeta(-e))
                + 2.0 ** (log2N * e) / 2.0
                + e * 2.0 ** (log2N * (e - 1.0)) / 12.0)
        assert lor.weight_sum_log2(log2N, p, q) == tail


def test_unit_fundamental_matches_direct_norm():
    for n in (8, 32):
        closed = lor.unit_fundamental(4, 2, [n])[0][1]
        direct = _lorentz_norm(4, 2, np.ones(n))
        assert abs(closed - direct) < 1e-12


def test_block_series_matches_dense_evaluation():
    p, q = 4.0, 2.0
    for m in (3, 6, 10):
        pieces = []
        for i in range(1, m + 1):
            height = _lorentz_norm(p, q, np.ones(2 ** i)) ** -1.0
            pieces.append(np.full(2 ** i, height))
        dense = _lorentz_norm(p, q, np.concatenate(pieces))
        closed = lor.block_series(p, q, [m])[0][1]
        assert abs(dense - closed) < 1e-9


def test_block_series_is_bitwise_the_exact_integer_telescope():
    # up to 20 blocks every N_i is summed exactly: the log2 addressing must
    # land on exactly the integer sums of a full cumsum
    for p, q in ((4.0, 2.0), (3.0, 2.0), (2.5, 1.5)):
        table = _direct_sigma(q / p - 1.0)

        def sigma(N):
            return float(table[N - 1]) if N else 0.0

        terms = np.zeros(21)
        for i in range(1, 21):
            terms[i] = ((sigma(2 ** (i + 1) - 2) - sigma(2 ** i - 2))
                        / sigma(2 ** i))
        partial = np.cumsum(terms)
        ms = list(range(1, 21))
        for m, value in lor.block_series(p, q, ms):
            assert value == float(partial[m] ** (1.0 / q)), (p, q, m)


def test_blocking_demo_holds_no_sigma_table():
    lor._checkpoints.cache_clear()
    lor._zeta.cache_clear()
    tracemalloc.start()
    try:
        lor.lorentz_blocking_demo(4, 2, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2^21-entry table took 16 MiB, 34 MiB at its build; the streamed
    # checkpoint pass peaks at about 1.5 MiB
    assert peak < 3 * 2 ** 20


def test_weight_sum_tail_matches_brute_force():
    N = 3 * 2 ** 20  # past the exact range, small enough to sum directly
    brute = float(np.sum(np.arange(1, N + 1, dtype=float) ** -0.5))
    tail = lor.weight_sum_log2(math.log2(N), 4, 2)
    assert abs(tail - brute) / brute < 1e-10


def test_block_series_survives_huge_block_counts():
    series = lor.block_series(4, 2, [512, 1024])
    assert np.isfinite(series[0][1]) and np.isfinite(series[1][1])
    assert series[1][1] > series[0][1]


def test_blocking_demo_exponents():
    units, blocks, unit_fit, block_fit = lor.lorentz_blocking_demo(4, 2, 1024)
    assert abs(unit_fit.a - 0.25) < 0.05
    assert abs(block_fit.a - 0.5) < 0.08
    assert len(units) == 6
    assert len(blocks) == 5


# ---------------------------------------------------------------- orlicz


def test_spliced_generator_values():
    phi = orl.phi
    assert abs(phi(1.0) - 1.0) < 1e-15
    assert abs(phi(0.5) - 1.0 / 3.0) < 1e-15
    assert phi(0.0) == 0.0
    # continuity and matched slope across the knot
    eps = 1e-7
    left = (phi(0.5) - phi(0.5 - eps)) / eps
    right = (phi(0.5 + eps) - phi(0.5)) / eps
    assert abs(left - right) < 1e-5


def _raw_both_branches(t):
    """The generator as it was first written: both branches over the whole
    vector, spliced by np.where."""
    t = np.asarray(t, dtype=float)
    below = np.where(t > 0, np.exp(1.0 - 1.0 / np.where(t > 0, t, 1.0)), 0.0)
    above = orl._SLOPE * t + orl._OFFSET
    return np.where(t <= orl._KNOT, below, above)


def test_generator_is_bitwise_the_two_branch_splice():
    rng = np.random.default_rng(5)
    knot = orl._KNOT
    grid = np.concatenate([
        [0.0, -0.0, -1.0, 1e-300, knot, np.nextafter(knot, 0.0),
         np.nextafter(knot, 1.0), 1.0, 1.5, 1e3],
        np.linspace(-0.5, 3.0, 1001), rng.uniform(0.0, 2.0 * knot, 4096)])
    for t in (grid, grid[:0], grid[1:].reshape(2, -1)[:, ::7]):
        assert orl._raw(t).tobytes() == _raw_both_branches(t).tobytes()
    for s in (0.0, knot, 0.3, 1.0, 2.0):
        assert orl._raw(s).shape == ()
        assert orl._raw(s).tobytes() == _raw_both_branches(s).tobytes()
        assert orl.phi(s) == float(orl._SCALE * _raw_both_branches(s))


def test_generator_is_convex():
    # second differences on 400 points from 1e-4 to 2, across the knot
    second = np.diff(orl.phi(np.linspace(1e-4, 2.0, 400)), 2)
    assert np.min(second) >= -1e-12


def test_doubling_ratio_blows_up():
    assert orl.doubling_ratio(0.05) == math.exp(10.0)
    assert orl.doubling_ratio(0.01) == math.exp(50.0)
    assert orl.doubling_ratio(0.2) > 5.0


def test_luxemburg_norm_properties():
    assert orl.luxemburg_norm(np.zeros(4)) == 0.0
    for t in (0.3, 1.0, 2.5):
        assert abs(orl.luxemburg_norm([t]) - t) < 1e-9
    rng = np.random.default_rng(12)
    x = rng.uniform(0.1, 2.0, size=8)
    nx = orl.luxemburg_norm(x)
    assert abs(orl.luxemburg_norm(2 * x) - 2 * nx) < 1e-7
    assert orl.luxemburg_norm(0.5 * x) < nx
    # the norm bracket: modular at x / ||x|| should sit at 1
    assert abs(orl.modular(x / nx) - 1.0) < 1e-8


def test_orderbound_demo_grows():
    series = orl.orderbound_demo(128)
    assert [k for k, _ in series] == [4, 8, 16, 32, 64, 128]
    values = [v for _, v in series]
    assert values == sorted(values)
    assert values[-1] > values[0] + 0.1
    assert orl.doubling_ratio(0.05) == math.exp(10.0)


# ---------------------------------------------------------------- entry functions


def test_registry_covers_the_gallery():
    assert len(had.hadamard_mixed(3)[0]) == 8
    assert len(rad.rademacher_l1(4)) == 4
    assert len(haar.haar_system(4, 2.0)) == 16
    assert tw.pass_profile(4, 2.0)[2] == 46
    assert len(lor.lorentz_blocking_demo(4.0, 2.0, 512)[0]) == 5
    assert len(orl.orderbound_demo(32)) == 4
