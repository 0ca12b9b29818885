import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latmax import systems
from latmax.constructions.haar import haar_rows, haar_system
from latmax.constructions.rademacher import rademacher_l1
from latmax.spaces import Element, dyadic_lp, lp_block
from latmax.systems import (_GRAM_DENSE_SHARE, BiorthogonalSystem,
                            ConstantReport, Csr, _spans, absolute_constant,
                            basis_constant, bibasis_constant, coefficients,
                            maximal_partial, partial_sum, reconstruct,
                            recompute_constant, report_from_json,
                            witness_rows_csv)

from system_views import dense_functionals


def unit_system(dim, p=2.0, weights=None):
    sp = lp_block(dim, p, weights)
    eye = np.eye(dim)
    return BiorthogonalSystem(sp, eye, eye)


def random_system(rng, dim, p=2.0):
    # functionals = inverse transpose, so the pairing is exactly biorthogonal
    sp = lp_block(dim, p)
    while True:
        V = rng.standard_normal((dim, dim))
        if np.linalg.cond(V) < 50:
            break
    F = np.linalg.inv(V).T
    return BiorthogonalSystem(sp, V, F)


@st.composite
def well_conditioned_systems(draw):
    """V = I + eps R with ||eps R||_2 <= 1/2 and F = inv(V).T, over l_p."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    R = rng.standard_normal((n, n))
    V = np.eye(n) + draw(st.floats(0.0, 0.5)) / np.linalg.norm(R, 2) * R
    p = draw(st.sampled_from((1.0, 1.5, 2.0, 3.0, np.inf)))
    return BiorthogonalSystem(lp_block(n, p), V, np.linalg.inv(V).T)


@settings(max_examples=60, deadline=None)
@given(well_conditioned_systems(), st.data())
def test_coefficients_invert_reconstruction(sysm, data):
    n = len(sysm)
    a = np.array(data.draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
        min_size=n, max_size=n), label="a"))
    back = coefficients(sysm, reconstruct(sysm, a))
    assert np.linalg.norm(back - a) <= 1e-10 * np.linalg.norm(a)


def test_gram_check_reads_every_row_of_a_large_system():
    # a sampled check above 512 rows read rows 0..7, the last row and 64
    # rows drawn by default_rng(0); perturb a row outside that set
    sysm = haar_system(10, 2.0)
    n = len(sysm)
    sampled = set(range(8)) | {n - 1} | set(
        np.random.default_rng(0).integers(0, n, size=64).tolist())
    row = max(set(range(n)) - sampled)
    F = dense_functionals(sysm)
    F[row, np.flatnonzero(F[row])[0]] *= 1.001
    with pytest.raises(ValueError, match="biorthogonality"):
        BiorthogonalSystem(sysm.space, sysm.vectors, F)


def _slab_gram_error(sys):
    """The dense-slab gram check the pair-only one replaced, kept as a
    reference: U V^T a slab of 2^20 cells at a time, from the nonzeros by
    np.bincount, or by BLAS when the rows are nearly dense."""
    U, V, dim = sys.functional_rows, sys.row_support, sys.space.dim
    n, nU = len(sys), U.n_rows
    per_col = np.bincount(U.cols, minlength=dim)
    pairs = int(per_col @ np.bincount(V.cols, minlength=dim))
    dense = _GRAM_DENSE_SHARE * pairs >= nU * n * dim
    if dense:
        Ud = U.dense(dim)
    else:
        by_col = np.argsort(U.cols, kind="stable")
        u_rows = np.repeat(np.arange(nU), np.diff(U.indptr))[by_col]
        u_vals = U.vals[by_col]
        col_start = np.cumsum(per_col) - per_col
    step = max(1, 2 ** 20 // max(n, nU, 1))
    err = 0.0
    for k0 in range(0, n, step):
        k1 = min(n, k0 + step)
        slab = V.slice(k0, k1)
        if dense:
            gram = Ud @ slab.dense(dim).T
        else:
            cnt = per_col[slab.cols]
            pos = _spans(col_start[slab.cols], cnt)
            k = np.repeat(np.arange(k1 - k0), np.diff(slab.indptr))
            cells = u_rows[pos] * (k1 - k0) + np.repeat(k, cnt)
            gram = np.bincount(cells, u_vals[pos] * np.repeat(slab.vals, cnt),
                               minlength=nU * (k1 - k0)).reshape(nU, k1 - k0)
        gram = gram[sys.functional_index]
        gram[np.arange(k0, k1), np.arange(k1 - k0)] -= 1.0
        err = max(err, float(np.abs(gram, out=gram).max()))
    return err


def _csr(rows, keep):
    """The entries of rows where keep holds, stored even when zero."""
    flat = np.flatnonzero(keep)
    dim = rows.shape[1]
    return Csr(np.searchsorted(flat, np.arange(len(rows) + 1) * dim), flat % dim,
               rows.ravel()[flat])


@st.composite
def sparse_gram_systems(draw):
    """An unchecked sparse system near biorthogonal, in the pair-only regime.

    Vector k and functional row k share a home column k, with values near
    1 there, and a few more random entries of one scale; rounded draws make
    cells cancel exactly.  Stored entries may be 0.0 or -0.0, a vector may be empty, a
    home entry may be dropped (its diagonal is then never produced), extra
    functional rows that no slot reads may carry large values, and index=
    may send two slots to one row.
    """
    n = draw(st.integers(1, 40))
    dim = n + draw(st.integers(16, 24))
    nU = n + draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from((0.02, 0.05, 0.1)))
    V, U = (rng.standard_normal((rows, dim)) for rows in (n, nU))
    if draw(st.booleans()):
        V, U = np.round(4 * V) / 4, np.round(4 * U) / 4
    scale = draw(st.sampled_from((1e-12, 1e-6, 1.0)))  # off the home columns
    V, U = V * scale, U * scale
    keep_v, keep_u = rng.random((n, dim)) < density, rng.random((nU, dim)) < density
    for rows in (V, U):
        zeros = rng.random(rows.shape) < 0.1
        rows[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    home = np.arange(n)
    V[home, home] = 1.0 + draw(st.sampled_from((0.0, 1e-12, 1e-6))) * rng.standard_normal(n)
    U[home, home] = 1.0
    keep_v[home, home] = keep_u[home, home] = True
    U[n:] = 1e6 * rng.standard_normal((nU - n, dim))  # no slot reads these rows
    # each defect in about one system of four
    if draw(st.integers(0, 3)) == 0:
        keep_v[rng.integers(n)] = False  # an empty vector
    if draw(st.integers(0, 3)) == 0:
        keep_v[rng.integers(n), rng.integers(n)] = False  # a diagonal never produced
    index = np.arange(n)
    if draw(st.integers(0, 3)) == 0:
        index[rng.integers(n)] = rng.integers(n)  # a shared row, or none
    return BiorthogonalSystem(lp_block(dim, 2.0), _csr(V, keep_v), _csr(U, keep_u),
                              check=False, index=index)


def _shared_row_system():
    # slots 0 and 1 both read row 0, f_0 = f_1 = e_0, and x_0 = x_1 = e_0:
    # every diagonal is exactly 1, but f_0(x_1) = f_1(x_0) = 1
    V, index = np.eye(20), np.arange(20)
    V[1], index[1] = V[0], 0
    return BiorthogonalSystem(lp_block(20, 2.0), V, np.eye(20), check=False, index=index)


def _unproduced_diagonal_system():
    # x_1 lives on column 20, which no functional reads
    V = np.eye(20, 21)
    V[1] = np.eye(21)[20]
    return BiorthogonalSystem(lp_block(21, 2.0), V, np.eye(20, 21), check=False)


@settings(max_examples=100, deadline=None)
@given(sparse_gram_systems())
@example(_shared_row_system())
@example(_unproduced_diagonal_system())
def test_pair_only_gram_error_is_bitwise_the_slab_check(sysm):
    U, V, dim = sysm.functional_rows, sysm.row_support, sysm.space.dim
    pairs = int(np.bincount(U.cols, minlength=dim) @ np.bincount(V.cols, minlength=dim))
    assume(_GRAM_DENSE_SHARE * pairs < U.n_rows * len(sysm) * dim)
    if not pairs:
        # the slab check failed on a gram with no products, by a numpy
        # casting error: an empty weighted bincount is int64
        assert sysm._gram_error() == 1.0
        return
    assert sysm._gram_error().hex() == _slab_gram_error(sysm).hex()


def test_gram_check_rejects_a_shared_row_and_a_missing_diagonal():
    shared = _shared_row_system()
    assert shared._gram_error() == 1.0
    missing = _unproduced_diagonal_system()
    assert missing._gram_error() == 1.0
    for sysm in (shared, missing):
        with pytest.raises(ValueError, match="biorthogonality"):
            sysm._check_gram()
    # a row that no slot reads is not checked
    U = np.vstack([np.eye(20), np.full((1, 20), 7.0)])
    assert BiorthogonalSystem(lp_block(20, 2.0), np.eye(20), U,
                              index=np.arange(20))._gram_error() == 0.0


def test_gram_check_past_16_bit_functional_rows():
    # more than 2^16 functional rows: the products are sorted by their
    # int64 cell keys, not by 16-bit rows
    n = 2 ** 16 + 3
    eye = Csr(np.arange(n + 1), np.arange(n), np.ones(n))
    for last, err in ((1.0, 2.0 ** -30), (-1.0, 2.0)):
        vals = np.ones(n)
        vals[[5, n - 1]] = 1.0 + 2.0 ** -30, last
        sysm = BiorthogonalSystem(lp_block(n, 2.0), eye, Csr(eye.indptr, eye.cols, vals),
                                  check=False)
        assert sysm._gram_error() == err


def test_gram_check_rejects_nan():
    # max() dropped a NaN error, so the slab check passed both systems
    rng = np.random.default_rng(0)
    for V in (np.eye(40), np.eye(40) + 0.01 * rng.standard_normal((40, 40))):
        F = np.linalg.inv(V).T
        F[1, 2] = np.nan
        with pytest.raises(ValueError, match="biorthogonality"):
            BiorthogonalSystem(lp_block(40, 2.0), V, F)


def test_gram_check_holds_pair_products_not_slabs():
    # the 2^20-cell slabs of the dense-slab check peaked at 60 MiB here, and
    # slabs of 2^18 products at 15.3 MiB
    sysm = haar_system(14, 2.0)
    tracemalloc.start()
    try:
        sysm._check_gram()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=30), st.integers(1, 40))
def test_cuts_are_greedy_pieces_within_the_cap(units, cap):
    # zero-unit items (empty rows) included
    ends = np.concatenate([[0], np.cumsum(units, dtype=np.int64)])
    cuts = systems._cuts(ends, cap)
    assert cuts[0] == 0 and cuts[-1] == len(ends) - 1
    assert all(a < b for a, b in zip(cuts, cuts[1:]))
    for a, b in zip(cuts, cuts[1:]):
        assert ends[b] - ends[a] <= cap or b == a + 1, (a, b)
        # greedy: the next item would overflow the piece
        assert b == len(ends) - 1 or ends[b + 1] - ends[a] > cap, (a, b)
    for i, u in enumerate(units):
        if u > cap:
            assert i in cuts and i + 1 in cuts, i


def test_pair_ends_read_the_previous_end_across_empty_rows():
    # rows 0, 1, 4 and 7 are empty: leading, inner and trailing
    V = Csr(np.array([0, 0, 0, 2, 3, 3, 5, 6, 6]), np.array([0, 3, 1, 2, 4, 0]),
            np.ones(6))
    per_col = np.array([2, 0, 5, 1, 3])
    old = np.concatenate([[0], np.cumsum(per_col[V.cols])])[V.indptr]
    ends = systems._pair_ends(per_col, V)
    assert ends.dtype == old.dtype and np.array_equal(ends, old)
    assert ends.tolist() == [0, 0, 0, 3, 3, 3, 11, 13, 13]
    empty = Csr(np.zeros(4, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))
    assert systems._pair_ends(per_col, empty).tolist() == [0, 0, 0, 0]


def test_gram_error_with_empty_vectors_is_the_slab_check(monkeypatch):
    # leading, inner and trailing empty vectors leave their diagonals
    # unformed, an error of 1, under any slab cuts
    V = np.eye(30)
    V[[0, 1, 14, 29]] = 0.0
    sysm = BiorthogonalSystem(lp_block(30, 2.0), V, np.eye(30), check=False)
    want = _slab_gram_error(sysm)
    assert want == 1.0
    for cap in (systems._WORKING_SET, 1, 2, 3):
        monkeypatch.setattr(systems, "_WORKING_SET", cap)
        assert sysm._gram_error().hex() == want.hex(), cap


def test_gram_check_at_depth_16_holds_no_full_length_ends():
    # the prefix sum of the block's column counts over all of V's nonzeros
    # was three int64 arrays of 17 * 2^16 entries: the check peaked at
    # 28.5 MiB, at 21.6 MiB with one in-place cumsum, and at 19.2 MiB with
    # slabs sized by the four arrays they keep alive
    V, F = haar_rows(16, 2.0)
    sysm = BiorthogonalSystem(dyadic_lp(16, 2.0), V, F, check=False)
    tracemalloc.start()
    try:
        err = sysm._gram_error()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err == 2.0 ** -52
    assert peak < 22 * 2 ** 20, peak


@settings(max_examples=100, deadline=None)
@given(sparse_gram_systems())
@example(_shared_row_system())
@example(_unproduced_diagonal_system())
def test_gram_error_is_the_same_under_a_tiny_slab_cap(sysm):
    # a 64-entry cap takes U's rows in blocks of at most 64 nonzeros and
    # the vectors in slabs of at most 16 products: every cell keeps its
    # products in column order, and a diagonal is missing only if the block
    # that holds its row does not form it
    U, V, dim = sysm.functional_rows, sysm.row_support, sysm.space.dim
    pairs = int(np.bincount(U.cols, minlength=dim) @ np.bincount(V.cols, minlength=dim))
    assume(_GRAM_DENSE_SHARE * pairs < U.n_rows * len(sysm) * dim)
    want = sysm._gram_error().hex()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(systems, "_WORKING_SET", 64)
        assert sysm._gram_error().hex() == want


def test_haar_gram_error_is_the_same_under_a_tiny_slab_cap(monkeypatch):
    for J in range(0, 11):
        for p in (1.0, 2.0, 3.0):
            sysm = haar_system(J, p)
            want = sysm._gram_error().hex()
            monkeypatch.setattr(systems, "_WORKING_SET", 64)
            assert sysm._gram_error().hex() == want, (J, p)
            monkeypatch.undo()


def test_gram_check_of_haar_16_keeps_its_slab_cap():
    # the constant vector alone makes 17 * 2^16 pair products; formed whole,
    # as one slab, they took the check to 71.6 MiB, and with U's rows in
    # blocks of at most 2^18 nonzeros it peaked near 28.5 MiB
    V, U = haar_rows(16, 2.0)
    sysm = BiorthogonalSystem(dyadic_lp(16, 2.0), V, U, check=False)
    tracemalloc.start()
    try:
        err = sysm._gram_error()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err <= systems._GRAM_TOL
    assert peak < 22 * 2 ** 20, peak


def test_haar_12_gram_check_holds_one_working_set():
    # slabs of 2^18 products kept six product-length arrays alive, 11.4 MiB;
    # sized by the four they keep, the check peaks near 3.2 MiB
    sysm = BiorthogonalSystem(dyadic_lp(12, 2.0), *haar_rows(12, 2.0), check=False)
    tracemalloc.start()
    try:
        err = sysm._gram_error()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err <= systems._GRAM_TOL
    assert peak < 5 * 2 ** 20, peak


def test_rademacher_gram_check_reads_full_rows_in_place():
    # every row holds every column, so the BLAS path reads U and each slab
    # of vectors in place; densifying U and a 2^18-cell slab of vectors, as
    # the check once did, took another 3.75 MiB at n = 14 (8.9 MiB peak)
    rademacher_l1(3)
    tracemalloc.start()
    try:
        sysm = rademacher_l1(14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    V, U = sysm.row_support, sysm.functional_rows
    arrays = (V.indptr, V.cols, V.vals, U.indptr, U.cols, U.vals,
              sysm.functional_index, sysm.space.weights)
    stored = sum(a.nbytes for a in {id(a): a for a in arrays}.values())
    assert peak < stored + 2 ** 18 * 8, (peak, stored)


def test_csr_dense_fills_every_stored_entry():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((30, 17)) * (rng.random((30, 17)) < 0.3)
    rows[4] = 0.0  # an empty row
    assert np.array_equal(Csr.from_dense(rows).dense(17), rows)
    # full rows: the stored values are the dense matrix, read in place
    filled = rng.standard_normal((6, 17))
    full = Csr.from_dense(filled)
    view = full.dense(17)
    assert view.shape == (6, 17) and view.tobytes() == filled.tobytes()
    assert np.shares_memory(view, full.vals) and not view.flags.writeable
    assert full.vals.flags.writeable  # the stored array itself stays as it was
    # one short row, or one empty row, and the result is a fresh copy again
    for hole in ((2, 5), (3, slice(None))):
        part = rng.standard_normal((6, 17))
        part[hole] = 0.0
        rows = Csr.from_dense(part)
        out = rows.dense(17)
        assert np.array_equal(out, part) and out.flags.writeable
        assert not np.shares_memory(out, rows.vals)


def _check_rows(indptr, cols, dim=4):
    return systems._as_rows(Csr(np.array(indptr), np.array(cols),
                                np.ones(len(cols))), dim, "rows")


def test_csr_validation_rejects_unsorted_columns_inside_a_row():
    with pytest.raises(ValueError, match="not CSR rows"):
        _check_rows([0, 3], [0, 2, 2])  # a repeated column
    with pytest.raises(ValueError, match="not CSR rows"):
        _check_rows([0, 3], [0, 3, 1])  # a step down
    with pytest.raises(ValueError, match="not CSR rows"):
        _check_rows([0, 2, 4], [1, 3, 2, 2])  # a repeat in the second row


def test_csr_validation_accepts_a_step_down_where_a_row_starts():
    rows = _check_rows([0, 2, 2, 4], [2, 3, 0, 1])  # with an empty row between
    assert rows.cols.tolist() == [2, 3, 0, 1]
    assert _check_rows([0, 1, 2], [3, 3]).n_rows == 2  # a repeat across rows


def test_csr_validation_rejects_a_bad_indptr():
    for indptr in ([1, 2], [0, 3, 2], [0, 2], [0, 4], [], [[0, 3]]):
        with pytest.raises(ValueError, match="not CSR rows"):
            _check_rows(indptr, [0, 1, 2])
    with pytest.raises(ValueError, match="not CSR rows"):
        _check_rows([0, 3], [0, 1, 4])  # a column past dim
    with pytest.raises(ValueError, match="not CSR rows"):
        systems._as_rows(Csr(np.array([0, 2]), np.array([0, 1]), np.ones(3)), 4, "rows")


def test_csr_validation_holds_no_full_length_difference():
    # 2^20 nonzeros: an int64 np.diff of the columns alone is 8 MiB, the
    # bool comparison 1 MiB
    rows, width = 2 ** 10, 2 ** 10
    csr = Csr(np.arange(rows + 1) * width, np.tile(np.arange(width), rows),
              np.ones(rows * width))
    tracemalloc.start()
    try:
        checked = systems._as_rows(csr, width, "rows")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked.n_rows == rows
    assert peak < 2 * 2 ** 20, peak


@st.composite
def shared_row_sets(draw):
    """(dim, columns, V, U): 1..6 vectors and functional rows that all hold
    the same L <= 16 ascending columns, nonzero values, over dim = L columns
    (full rows, the BLAS gram path) or 17 L (the pair path)."""
    n, L = draw(st.integers(1, 6)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = L * draw(st.sampled_from((1, 17)))
    cols = np.sort(rng.choice(dim, L, replace=False))
    V, U = (rng.standard_normal((n, L)) for _ in range(2))
    return dim, cols, V, U


def _both_forms(cols, rows):
    """The rows in the shared-column form and with a column per position."""
    ptr = np.arange(len(rows) + 1) * len(cols)
    return (Csr(ptr, cols, rows.ravel()),
            Csr(ptr, np.tile(cols, len(rows)), rows.ravel()))


def _same_rows(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in ((a.indptr, b.indptr), (a.columns(), b.columns()),
                            (a.vals, b.vals)))


@settings(max_examples=60, deadline=None)
@given(shared_row_sets(), st.data())
def test_shared_columns_read_as_a_column_per_position(rows, data):
    dim, cols, V, U = rows
    n = len(V)
    (Vs, Ve), (Us, Ue) = _both_forms(cols, V), _both_forms(cols, U)
    assert len(Vs.cols) == len(cols)
    for start in range(n + 1):
        for stop in range(start, n + 1):
            part = Vs.slice(start, stop)
            assert _same_rows(part, Ve.slice(start, stop)), (start, stop)
            # a row range keeps the one stored row of columns
            assert len(part.cols) == (len(cols) if stop > start else 0)
    picks = data.draw(st.lists(st.integers(0, n - 1), max_size=8), label="rows")
    assert _same_rows(Vs.take(picks), Ve.take(picks))
    assert Vs.dense(dim).tobytes() == Ve.dense(dim).tobytes()
    assert np.array_equal(Vs.column_counts(dim), Ve.column_counts(dim))
    space = lp_block(dim, data.draw(st.sampled_from((1.0, 2.0, 3.0)), label="p"))
    shared, explicit = (BiorthogonalSystem(space, Vr, Ur, check=False)
                        for Vr, Ur in ((Vs, Us), (Ve, Ue)))
    assert shared._gram_error().hex() == explicit._gram_error().hex()
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    x, a = rng.standard_normal(dim), rng.standard_normal(n)
    assert coefficients(shared, x).tobytes() == coefficients(explicit, x).tobytes()
    assert reconstruct(shared, a).coords.tobytes() == reconstruct(explicit, a).coords.tobytes()
    order = rng.permutation(n)
    for name in systems.CONSTANT_NAMES:
        report = ConstantReport(name, 0.0, a, "structured_family", 1,
                                order if name == "kvee" else None)
        assert recompute_constant(shared, report) == recompute_constant(explicit, report), name


def test_a_csr_does_not_unpack_into_its_arrays():
    # unpacking handed out the stored columns as if each position had one
    with pytest.raises(TypeError):
        indptr, cols, vals = Csr(np.arange(3) * 2, np.arange(2), np.ones(4))


def test_shared_columns_validate_by_their_shape():
    cols = np.array([0, 2, 3])
    rows = systems._as_rows(Csr(np.arange(5) * 3, cols, np.ones(12)), 4, "rows")
    assert rows.cols is cols and rows.n_rows == 4
    # the rows must hold the stored row of columns each, once per row
    for ptr, table, nnz in (([0, 3, 6, 12], cols, 12),    # a double row
                            ([0, 6, 12], cols, 12),       # two rows of six
                            ([0, 3, 6], cols, 9),          # values past the rows
                            ([0], cols, 0),                # no rows
                            ([0, 3, 6], [0, 3, 2], 6),     # a step down inside a row
                            ([0, 3, 6], [0, 2, 4], 6)):    # a column past dim
        with pytest.raises(ValueError, match="not CSR rows"):
            systems._as_rows(Csr(np.array(ptr), np.array(table), np.ones(nnz)), 4, "rows")


def test_haar_depth_limit():
    assert len(haar_rows(16, 2.0)[0].indptr) == 2 ** 16 + 1
    with pytest.raises(ValueError, match="J must be in 0..16"):
        haar_rows(17, 2.0)


def test_gram_check_rejects_non_biorthogonal():
    sp = lp_block(3, 2.0)
    V = np.eye(3)
    F = np.eye(3)
    F[0, 0] = 1.5
    with pytest.raises(ValueError, match="biorthogonality"):
        BiorthogonalSystem(sp, V, F)


def test_shape_and_label_validation():
    sp = lp_block(3, 2.0)
    with pytest.raises(ValueError):
        BiorthogonalSystem(sp, np.eye(4), np.eye(4))


def test_coefficients_invert_reconstruct():
    rng = np.random.default_rng(23)
    for k in range(20):
        sys = random_system(rng, int(rng.integers(2, 7)))
        a = rng.standard_normal(len(sys))
        x = reconstruct(sys, a)
        assert np.allclose(coefficients(sys, x), a, atol=1e-10)


def test_weighted_host_pairing_is_unweighted():
    # weights live in the norm only; duality is the plain dot product
    sp = lp_block(3, 1.0, weights=[0.25, 0.25, 0.5])
    V = np.eye(3)
    sys = BiorthogonalSystem(sp, V, V)
    x = Element(sp, [2.0, -1.0, 4.0])
    assert np.allclose(coefficients(sys, x), [2.0, -1.0, 4.0])


def test_partial_sum_prefix():
    sys = unit_system(4)
    x = Element(sys.space, [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(partial_sum(sys, x, 2).coords, [1.0, 2.0, 0.0, 0.0])
    assert np.allclose(partial_sum(sys, x, 4).coords, x.coords)
    with pytest.raises(ValueError):
        partial_sum(sys, x, 0)
    with pytest.raises(ValueError):
        partial_sum(sys, x, 5)


def test_maximal_partial_unit_vectors_is_running_modulus():
    rng = np.random.default_rng(31)
    sys = unit_system(6, p=1.0)
    for k in range(25):
        c = rng.standard_normal(6)
        x = Element(sys.space, c)
        got = maximal_partial(sys, x, 6).coords
        assert np.allclose(got, np.abs(c))


def test_maximal_partial_oscillation_exceeds_final_sum():
    # +1 then -1 on overlapping support: the join remembers the peak
    sp = lp_block(2, 1.0)
    V = np.array([[1.0, 0.0], [-1.0, 1.0]])
    F = np.linalg.inv(V).T
    sys = BiorthogonalSystem(sp, V, F)
    x = reconstruct(sys, [1.0, 1.0])
    peak = maximal_partial(sys, x, 2)
    assert sys.space.norm(peak.coords) >= sys.space.norm(x.coords) + 1.0 - 1e-12


def test_basis_constant_unit_vectors_is_one():
    rng = np.random.default_rng(7)
    sys = unit_system(5, p=2.0)
    witnesses = [rng.standard_normal(5) for _ in range(10)]
    rep = basis_constant(sys, witnesses)
    assert rep.value == pytest.approx(1.0)
    assert rep.constant_name == "basis"
    assert rep.budget == 10


def test_bibasis_dominates_basis_dominates_one():
    rng = np.random.default_rng(41)
    for k in range(10):
        sys = random_system(rng, 5)
        witnesses = [rng.standard_normal(5) for _ in range(8)]
        b = basis_constant(sys, witnesses).value
        bb = bibasis_constant(sys, witnesses).value
        assert bb >= b - 1e-12
        assert b >= 1.0 - 1e-12


def test_empty_witness_is_zero_support():
    sys = haar_system(3, 2.0)
    for builder in (basis_constant, bibasis_constant, absolute_constant):
        with pytest.raises(ValueError, match="no witness with nonzero support"):
            builder(sys, [[]])
        rep = builder(sys, [[], np.ones(8)])
        assert rep.rows[0] == (0, 0.0, 0)
        assert np.array_equal(rep.witness, np.ones(8))


def test_absolute_constant_sign_invariant_hosts():
    rng = np.random.default_rng(43)
    sys = unit_system(4, p=1.5)
    witnesses = [rng.standard_normal(4) for _ in range(6)]
    rep = absolute_constant(sys, witnesses)
    assert rep.value == pytest.approx(1.0)


def test_report_value_recomputable_from_witness():
    rng = np.random.default_rng(53)
    for k in range(10):
        sys = random_system(rng, 6)
        witnesses = [rng.standard_normal(6) for _ in range(5)]
        for builder in (basis_constant, bibasis_constant, absolute_constant):
            rep = builder(sys, witnesses)
            assert recompute_constant(sys, rep) == pytest.approx(rep.value, abs=1e-9)


def test_report_json_round_trip():
    sys = unit_system(3)
    rep = basis_constant(sys, [np.array([1.0, -2.0, 0.5])])
    back = report_from_json(rep.to_json())
    assert back.constant_name == rep.constant_name
    assert back.value == rep.value
    assert np.array_equal(back.witness, rep.witness)
    assert back.search == rep.search
    assert back.budget == rep.budget


def test_report_rejects_unknown_tags():
    with pytest.raises(ValueError):
        ConstantReport("frame", 1.0, np.ones(2), "structured_family", 1)
    with pytest.raises(ValueError):
        ConstantReport("basis", 1.0, np.ones(2), "grid", 1)


def test_witness_rows_csv_shape():
    sys = unit_system(3)
    rep = basis_constant(sys, [np.ones(3), np.array([1.0, 0.0, 0.0])])
    text = witness_rows_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "witness,ratio,m"
    assert len(lines) == 3
