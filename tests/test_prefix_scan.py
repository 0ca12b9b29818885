"""Property tests for the column-segmented prefix scan over each system's
row support: its high and low marks against the padded-table kernel it
replaced, its scan plans reused over blocks of coefficients, the row-order
sums beside it, the blocked prefix sums behind the per-prefix norms, and
kvee's screened block search against its serial reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmax.constructions import typewriter as tw
from latmax.constructions.haar import (branch_coefficients, branch_ordering,
                                       haar_system)
from latmax.greedy import greedy_maximal, kvee_estimate, ordered_projection_maximal
from latmax.spaces import DirectSum, LpBlock, SupBlock
from latmax.systems import (_SCAN_BLOCK, BiorthogonalSystem, Csr, _column_scan,
                            _gather, _joins, _mark_join, _ordered_join, _pairs,
                            _peak_prefix_norm, _scan_plan, _scatter, _sums,
                            _sums_and_moduli)

from system_views import dense_functionals


@st.composite
def systems(draw):
    """A random system of up to two and a half scan blocks.

    Rounded draws put exact ties, zero coefficients and cancelling partial
    sums in play; a zero mask makes the rows sparse, and the last
    coordinate may be untouched by every row.  The functionals are
    arbitrary, since neither scan nor the greedy join needs
    biorthogonality.
    """
    n = draw(st.integers(1, 2 * _SCAN_BLOCK + _SCAN_BLOCK // 2))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    V = rng.standard_normal((n, dim))
    a = rng.standard_normal(n)
    if draw(st.booleans()):
        V, a = np.round(2 * V), np.round(a)
    V[rng.random((n, dim)) < draw(st.sampled_from((0.0, 0.5, 0.9)))] = 0.0
    if draw(st.booleans()):
        V[:, -1] = 0.0
    F = rng.standard_normal((n, dim))
    return BiorthogonalSystem(LpBlock(dim, 2.0), V, F, check=False), a


def _cumsum_oracle(V, a, order):
    """(join, full sum) from one dense np.cumsum over the ordered rows."""
    if not len(order):
        return np.zeros(V.shape[1]), np.zeros(V.shape[1])
    sums = np.cumsum(a[order][:, None] * V[order], axis=0)
    return np.max(np.abs(sums), axis=0), sums[-1]


def _table_scan(sys, block, perms):
    """The padded-table kernel the marks pass replaced, kept as its
    reference: (cells, lens, table), the occupied cells ascending, their run
    lengths, and table[s, i] cell cells[i]'s running sums for sample s,
    zero-padded to the longest run.  Each term goes to its table slot, each
    table row is added into the next, and the (S, cells, width) view is
    returned."""
    pair, rows = _pairs(perms)
    seg, cnt, pos = _gather(sys, pair, rows)
    order = np.argsort(seg, kind="stable")
    seg, vals = seg[order], sys.row_support.vals[pos[order]]
    src = np.repeat(pair * len(sys) + rows, cnt)[order]
    cells, starts, lens = np.unique(seg, return_index=True, return_counts=True)
    C, S = len(cells), len(block)
    flat = np.repeat(np.arange(C) - starts * C, lens) + np.arange(len(seg)) * C
    table = np.zeros((S, int(lens.max(initial=1)), C))
    for row, t in zip(table.reshape(S, -1), block.reshape(S, -1)[:, src] * vals):
        row[flat] = t
    for j in range(1, table.shape[1]):
        table[:, j] += table[:, j - 1]
    return cells, lens, table.transpose(0, 2, 1)


def _table_marks(lens, table):
    """(high, low) folded over each cell's own run in scan order, padding
    left out, np.maximum and np.minimum keeping the mark on a tie."""
    high, low = table[..., 0].copy(), table[..., 0].copy()
    for j in range(1, table.shape[-1]):
        live = j < lens
        high[:, live] = np.maximum(high[:, live], table[:, live, j])
        low[:, live] = np.minimum(low[:, live], table[:, live, j])
    return high, low


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
    # the blocked prefix sums behind the per-prefix norms are the same
    # cumsum; their norms are taken in the same _SCAN_BLOCK row blocks, since
    # a BLAS matrix-vector product may round a row differently in another batch
    sums = np.cumsum(a[order][:, None] * V[order], axis=0)
    norms = np.concatenate([sys.space.norms(sums[i : i + _SCAN_BLOCK])
                            for i in range(0, len(sums), _SCAN_BLOCK)])
    assert _peak_prefix_norm(sys, a, order) == (norms.max(), norms[-1])


@settings(max_examples=60, deadline=None)
@given(systems(), st.data())
def test_column_scan_batches_are_bitwise_the_cumsum(sys_a, data):
    sys, _ = sys_a
    n, dim = len(sys), sys.space.dim
    V = sys.vectors.copy()
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    pairs = []
    for _ in range(data.draw(st.integers(1, 4), label="pairs")):
        a = rng.standard_normal(n)
        if data.draw(st.booleans(), label="rounded"):
            a = np.round(a)
        length = data.draw(st.integers(0, n), label="length")
        pairs.append((a, rng.permutation(n)[:length]))
    # a coordinate untouched by the first scanned row
    if len(pairs[0][1]):
        V[pairs[0][1][0], rng.integers(dim)] = 0.0
    sys = BiorthogonalSystem(sys.space, V, dense_functionals(sys), check=False)
    coeffs, perms = [a for a, _ in pairs], [p for _, p in pairs]
    cells, high, low = _column_scan(sys, np.array(coeffs)[None], _scan_plan(sys, perms))
    # one pair of marks per cell (pair b, coordinate c) that some scanned row touches
    occupied = {b * dim + c for b, (_, order) in enumerate(pairs)
                for k in order for c in np.flatnonzero(V[k])}
    assert len(cells) == high.shape[1] == low.shape[1] == len(occupied)
    assert set(cells.tolist()) == occupied
    B = len(pairs)
    joins = _scatter(cells, _mark_join(high, low)[0], B, dim)
    highs, lows = (_scatter(cells, m[0], B, dim) for m in (high, low))
    sums = _sums(sys, coeffs, perms)
    # the one modulus path runs over each row's nonzeros in index order
    support_sums, moduli = _sums_and_moduli(sys, coeffs)
    for (a, order), join, hi, lo, total, support_sum, modulus in zip(
            pairs, joins, highs, lows, sums, support_sums, moduli):
        ref_join, full = _cumsum_oracle(V, a, order)
        assert join.tobytes() == ref_join.tobytes()
        # the marks are the extremes of each coordinate's sums after the
        # rows that touch it, equal up to the sign of zero (== ignores it)
        dense = np.cumsum(a[order][:, None] * V[order], axis=0)
        touched = V[order] != 0
        for mark, extreme, pad in ((hi, np.max, -np.inf), (lo, np.min, np.inf)):
            want = extreme(np.where(touched, dense, pad), axis=0, initial=pad)
            assert np.array_equal(mark, np.where(touched.any(axis=0), want, 0.0))
        # equal up to the sign of zero, which no norm sees
        assert (total + 0.0).tobytes() == (full + 0.0).tobytes()
        support = np.flatnonzero(a)
        assert (support_sum + 0.0).tobytes() == \
            (_cumsum_oracle(V, a, support)[1] + 0.0).tobytes()
        assert (modulus + 0.0).tobytes() == \
            (_cumsum_oracle(np.abs(V), np.abs(a), support)[1] + 0.0).tobytes()
    # a batch that scans no rows occupies no cell, and its join is zero
    cells, high, low = _column_scan(sys, np.array(coeffs)[None],
                                    _scan_plan(sys, [np.arange(0)] * B))
    assert len(cells) == high.shape[1] == low.shape[1] == 0
    assert not _scatter(cells, _mark_join(high, low), B, dim).any()


@st.composite
def planned_scans(draw):
    """A sparse system, B orderings of its rows and blocks of coefficients.

    The width dim is small, or the largest whose B * dim cell keys fit 16
    bits, or one past it, so both sorts of the plan run; the last ordering
    scans every row, and the last row reaches the last column, so the
    largest key is in play.  The other orderings may be empty.  Integer
    values and coefficients, zeros and negative zeros among them, put
    cancelling and signed-zero running sums in play.
    """
    B = draw(st.integers(1, 4), label="B")
    dim = draw(st.sampled_from((draw(st.integers(1, 6), label="small"),
                                2 ** 16 // B, 2 ** 16 // B + 1)), label="dim")
    n = draw(st.integers(1, 12), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    rows = [np.sort(rng.choice(dim, size=rng.integers(1, min(dim, 4) + 1), replace=False))
            for _ in range(n)]
    rows[-1] = np.union1d(rows[-1], [dim - 1])
    cols = np.concatenate(rows)
    V = Csr(np.concatenate([[0], np.cumsum([len(r) for r in rows])]), cols,
            np.round(2 * rng.standard_normal(len(cols))))
    sys = BiorthogonalSystem(LpBlock(dim, 2.0), V, V, check=False)
    perms = [rng.permutation(n)[:rng.integers(0, n + 1)] for _ in range(B - 1)]
    perms.append(rng.permutation(n))
    blocks = []
    for _ in range(draw(st.integers(1, 3), label="blocks")):
        block = np.round(rng.standard_normal((draw(st.integers(1, 3), label="S"), B, n)))
        block[rng.random(block.shape) < 0.2] = -0.0
        blocks.append(block)
    return sys, perms, blocks


@settings(max_examples=40, deadline=None)
@given(planned_scans())
def test_a_plan_reused_over_blocks_is_bitwise_the_fresh_scans(scan):
    sys, perms, blocks = scan
    B, dim = len(perms), sys.space.dim
    plan = _scan_plan(sys, perms)
    V = sys.vectors
    for block in blocks:
        joins = _joins(sys, block, plan)
        cells, high, low = _column_scan(sys, block, plan)
        assert len(set(cells.tolist())) == len(cells) and cells.max() == B * dim - 1
        assert joins.shape == (len(block), B, dim)
        assert high.shape == low.shape == (len(block), len(cells))
        for s, coeffs in enumerate(block):
            # the same additions as a fresh plan's scan of this sample
            # alone, so the same marks, signed zeros included
            fresh_cells, fresh_high, fresh_low = _column_scan(sys, coeffs[None],
                                                              _scan_plan(sys, perms))
            assert fresh_cells.tobytes() == cells.tobytes()
            assert fresh_high.tobytes() == high[s : s + 1].tobytes()
            assert fresh_low.tobytes() == low[s : s + 1].tobytes()
            for b, (a, order) in enumerate(zip(coeffs, perms)):
                assert joins[s, b].tobytes() == _ordered_join(sys, a, order).tobytes()
                assert joins[s, b].tobytes() == _cumsum_oracle(V, a, order)[0].tobytes()


def test_scan_plan_keeps_signed_zero_sums():
    # sample 0: cell 0 runs two -0.0 terms (zeros times -1 and 1) and both
    # its marks stay -0.0; cell 3 holds one -0.0 term, so its marks are
    # -0.0 too (a padded table added +0.0 after it).  Sample 1: cell 0
    # cancels, -3 + 3 = +0.0, its high mark
    V = Csr(np.array([0, 2, 3]), np.array([0, 1, 0]), np.array([-1.0, 2.0, 1.0]))
    sys = BiorthogonalSystem(LpBlock(2, 2.0), V, V, check=False)
    perms = [np.array([0, 1]), np.array([0])]
    block = np.array([[[0.0, -0.0], [-0.0, 5.0]], [[3.0, 3.0], [1.0, 0.0]]])
    plan = _scan_plan(sys, perms)
    cells, high, low = _column_scan(sys, block, plan)
    assert cells.tolist() == [0, 1, 2, 3] and high.shape == low.shape == (2, 4)
    assert np.signbit(high[0]).tolist() == [True, False, False, True]
    assert np.signbit(low[0]).tolist() == [True, False, False, True]
    assert high[1].tolist() == [0.0, 6.0, -1.0, 2.0] and not np.signbit(high[1, 0])
    assert low[1].tolist() == [-3.0, 6.0, -1.0, 2.0]
    for s in range(2):
        fresh = _column_scan(sys, block[s : s + 1], _scan_plan(sys, perms))
        assert fresh[1].tobytes() == high[s : s + 1].tobytes()
        assert fresh[2].tobytes() == low[s : s + 1].tobytes()
    # a plan of empty orderings occupies no cell, and its joins are zero
    empty = _scan_plan(sys, [np.arange(0)] * 2)
    assert not _joins(sys, block, empty).any()
    assert _joins(sys, block, empty).shape == (2, 2, 2)


@st.composite
def scan_cases(draw):
    """(system, orderings, (S, B, n) block): from the systems and
    planned_scans strategies, or along the index order of a Haar system or
    the typewriter frame, with -0.0 among the coefficients."""
    kind = draw(st.sampled_from(("systems", "planned", "haar", "typewriter")), label="kind")
    if kind == "planned":
        sys, perms, blocks = draw(planned_scans())
        return sys, perms, blocks[0]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    if kind == "systems":
        sys, _ = draw(systems())
        perms = [rng.permutation(len(sys))[:rng.integers(0, len(sys) + 1)]
                 for _ in range(draw(st.integers(1, 4), label="B"))]
    else:
        J, p = draw(st.integers(1, 6), label="J"), draw(st.sampled_from((1.5, 2.0, 3.0)))
        sys = haar_system(J, p) if kind == "haar" else tw.typewriter_frame(J, p)
        perms = [np.arange(len(sys))]
    block = rng.standard_normal((draw(st.integers(1, 3), label="S"), len(perms), len(sys)))
    if draw(st.booleans(), label="rounded"):
        block = np.round(block)
    block[rng.random(block.shape) < 0.2] = -0.0
    return sys, perms, block


@settings(max_examples=80, deadline=None)
@given(scan_cases())
def test_marks_and_joins_are_bitwise_the_table_kernel(case):
    sys, perms, block = case
    B, dim = len(perms), sys.space.dim
    ref_cells, lens, table = _table_scan(sys, block, perms)
    cells, high, low = _column_scan(sys, block, _scan_plan(sys, perms))
    assert sorted(cells.tolist()) == ref_cells.tolist()
    for mark, ref in zip((high, low), _table_marks(lens, table)):
        assert _scatter(cells, mark, B, dim).tobytes() == \
            _scatter(ref_cells, ref, B, dim).tobytes()
    ref_joins = _scatter(ref_cells, np.abs(table).max(axis=-1), B, dim)
    assert _joins(sys, block, _scan_plan(sys, perms)).tobytes() == ref_joins.tobytes()


def test_a_haar_bibasis_block_pass_holds_no_padded_table():
    # one 16-sample pass at J = 12: its 16 x 53248 terms (6.5 MiB) are
    # summed in place, and the marks and joins add about 1.5 MiB; the
    # padded table, its scatter and its transpose took the pass to 13.0 MiB
    sysm = haar_system(12, 2.0)
    plan = _scan_plan(sysm, [np.arange(len(sysm))])
    block = np.random.default_rng(0).standard_normal((16, 1, len(sysm)))
    tracemalloc.start()
    try:
        _joins(sysm, block, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2 ** 20, peak


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


def test_haar_join_is_doobs_maximal_function():
    # along the natural order each Haar partial sum is a conditional
    # expectation E_j x at every point, so the join is max_j |E_j x|,
    # here from dyadic block means, sharing no code with either scan
    rng = np.random.default_rng(2026)
    for J in range(1, 11):
        sysm = haar_system(J, 2.0)
        for _ in range(20):
            x = rng.standard_normal(2 ** J)
            doob = np.max([np.abs(np.repeat(x.reshape(2 ** j, -1).mean(axis=1),
                                            2 ** (J - j)))
                           for j in range(J + 1)], axis=0)
            join = ordered_projection_maximal(sysm, x, np.arange(2 ** J)).coords
            assert np.all(np.abs(join - doob) <= 1e-12 * doob), J


def _kvee_reference(sys, m, budget, seed=0, structured=()):
    """The one-by-one kvee search, each join and each sum a dense np.cumsum."""
    rng = np.random.default_rng(seed)
    state = {"evals": 0, "best": (-np.inf, None, None, None)}

    def consider(a, A, source):
        if state["evals"] >= budget:
            return
        a = np.asarray(a, dtype=float)
        A = np.asarray(A, dtype=int)
        nx = sys.space.norm(_cumsum_oracle(sys.vectors, a, np.arange(len(a)))[1])
        if nx == 0:
            return
        state["evals"] += 1
        r = sys.space.norm(_cumsum_oracle(sys.vectors, a, A)[0]) / nx
        if r > state["best"][0]:
            state["best"] = (r, a, A, source)

    for a, A in structured:
        if len(A) <= m:
            consider(a, A, "structured_family")
    n = len(sys)
    while state["evals"] < max(0, budget - 2 * m):
        size = int(rng.integers(1, m + 1))
        A = rng.permutation(n)[:size]
        a = np.zeros(n)
        a[A] = rng.standard_normal(size)
        consider(a, A, "random_ascent")
    a0, A0, src0 = state["best"][1:]
    if a0 is not None:
        for factor in (-1.0, 0.5, 2.0):
            for idx in A0:
                if state["evals"] >= budget:
                    break
                trial = state["best"][1].copy()
                trial[idx] *= factor
                consider(trial, A0, src0)
    return state["best"], state["evals"]


def test_batched_kvee_is_bitwise_the_serial_search():
    for J in range(3, 7):
        haar = haar_system(J, 2.0)
        # zero vectors make some candidates sum to 0: skipped, uncounted
        gapped = haar.vectors.copy()
        gapped[1::2] = 0.0
        order, coeffs = branch_ordering(J), branch_coefficients(J, 2.0)
        structured = []
        for k in range(1, len(order) + 1):
            a = np.zeros(len(haar))
            a[order[:k]] = coeffs[order[:k]]
            structured.append((a, np.array(order[:k])))
        for sysm in (haar, BiorthogonalSystem(haar.space, gapped,
                                              dense_functionals(haar), check=False)):
            for budget in (10, 45, 130, 300):
                for m in (2, 4, 8):
                    for family in ((), structured):
                        seed = budget + m
                        (value, wit, A, source), evals = _kvee_reference(
                            sysm, m, budget, seed, family)
                        if wit is None:  # nothing evaluated
                            with pytest.raises(ValueError, match="budget too small"):
                                kvee_estimate(sysm, m, budget, seed, family)
                            continue
                        rep = kvee_estimate(sysm, m, budget, seed, family)
                        assert rep.value == value
                        assert rep.witness.tobytes() == wit.tobytes()
                        assert rep.indices.tobytes() == A.tobytes()
                        assert (rep.search, rep.budget) == (source, evals)


@st.composite
def kvee_cases(draw):
    """A dense biorthogonal system V = I + eps R over a weighted l_p, a sup
    or a direct-sum host, a structured family with zero-sum pairs, and an
    (m, budget, seed) whose budget may end inside a block of random
    candidates or inside the polish.  Some vectors may be zeroed (the search
    needs no biorthogonality), so random candidates can sum to zero too."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("lp", "sup", "sum")))
    if kind == "sum":
        cut = draw(st.integers(1, n - 1))
        host = DirectSum(draw(st.sampled_from((1.0, 2.0, 3.0, np.inf))),
                         [LpBlock(cut, draw(st.sampled_from((1.0, 1.5, 2.0, 3.0))),
                                  rng.uniform(0.25, 4.0, cut)),
                          SupBlock(n - cut)])
    elif kind == "sup":
        host = SupBlock(n)
    else:
        host = LpBlock(n, draw(st.sampled_from((1.0, 1.5, 2.0, 3.0))),
                       rng.uniform(0.25, 4.0, n))
    R = rng.standard_normal((n, n))
    V = np.eye(n) + draw(st.floats(0.0, 0.5)) / np.linalg.norm(R, 2) * R
    sysm = BiorthogonalSystem(host, V, np.linalg.inv(V).T)
    if draw(st.booleans()):
        V[1:][rng.random(n - 1) < 0.5] = 0.0  # x_0 kept: some random sum is nonzero
        sysm = BiorthogonalSystem(host, V, dense_functionals(sysm), check=False)
    m = draw(st.integers(1, n))
    family = []
    for _ in range(draw(st.integers(0, 6))):
        A = rng.permutation(n)[: rng.integers(1, n + 1)]
        a = np.zeros(n)
        if draw(st.booleans()):  # a zero sum unless it is left at zero
            a[A] = rng.standard_normal(len(A))
        family.append((a, A))
    budget = draw(st.one_of(st.integers(1, 8), st.integers(1, 300)))
    return sysm, m, budget, draw(st.integers(0, 1000)), family


@settings(max_examples=60, deadline=None)
@given(kvee_cases())
def test_screened_kvee_is_bitwise_the_serial_search(case):
    sysm, m, budget, seed, family = case
    (value, wit, A, source), evals = _kvee_reference(sysm, m, budget, seed, family)
    if wit is None:
        with pytest.raises(ValueError, match="budget too small"):
            kvee_estimate(sysm, m, budget, seed, family)
        return
    rep = kvee_estimate(sysm, m, budget, seed, family)
    assert float(rep.value).hex() == float(value).hex()
    assert rep.witness.tobytes() == wit.tobytes()
    assert rep.indices.tobytes() == A.tobytes()
    assert (rep.search, rep.budget) == (source, evals)


def test_kvee_joins_only_the_candidates_its_screen_keeps(monkeypatch):
    # at Haar J = 9 few candidates' modulus sums reach the incumbent; a
    # search that joined every candidate would send all of them to _joins
    sysm = haar_system(9, 2.0)
    order, coeffs = branch_ordering(9), branch_coefficients(9, 2.0)
    structured = []
    for k in range(1, len(order) + 1):
        a = np.zeros(len(sysm))
        a[order[:k]] = coeffs[order[:k]]
        structured.append((a, np.array(order[:k])))
    joined = []
    monkeypatch.setattr("latmax.systems._joins", lambda s, block, plan: (
        joined.append(block.shape[0] * block.shape[1]) or _joins(s, block, plan)))
    rep = kvee_estimate(sysm, 64, 1000, seed=64, structured=structured)
    assert rep.budget > 500
    assert sum(joined) < 0.15 * rep.budget, (sum(joined), rep.budget)


@pytest.mark.parametrize("block", [1, 3, 64, 4096])
def test_peak_prefix_norm_does_not_depend_on_its_block_size(monkeypatch, block):
    # each row's norm is bitwise the same in any batch, so neither the peak
    # nor the last norm may move with the rows per block
    rng = np.random.default_rng(11)
    cases = [(haar_system(8, p), rng.standard_normal(256), rng.permutation(256))
             for p in (1.0, 1.5, 2.0, 3.0)]
    V = np.eye(150) + 0.1 * rng.standard_normal((150, 150))
    host = DirectSum(2.0, [LpBlock(90, 3.0, rng.uniform(0.5, 2.0, 90)), SupBlock(60)])
    cases.append((BiorthogonalSystem(host, V, V, check=False),
                  rng.standard_normal(150), np.arange(150)))
    want = [_peak_prefix_norm(s, a, perm) for s, a, perm in cases]
    monkeypatch.setattr("latmax.systems._SCAN_BLOCK", block)
    got = [_peak_prefix_norm(s, a, perm) for s, a, perm in cases]
    assert [tuple(float(v).hex() for v in g) for g in got] == \
        [tuple(float(v).hex() for v in w) for w in want]
