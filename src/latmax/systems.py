"""Biorthogonal systems and lower-bound constant reports.

A system pairs vectors x_k with coefficient functionals f_k over one host
space, both stored sparse as rows in compressed sparse row form (``Csr``;
Saad, *Iterative Methods for Sparse Linear Systems*, 2003, ch. 3).  The
vectors are one CSR row each (``row_support``).  The functionals are CSR
rows U plus a row-index map idx, f_k = U[idx[k]], so a functional that
several slots share is stored once.  Rows that all hold the same columns
(the Rademacher signs) store those columns once, as one row; in either
form position p's column is cols[p % len(cols)], read only through
``Csr.columns``.  Constructions build these rows directly; a dense input
is converted once, at construction.  Every kernel
reads only the nonzeros: ordered joins and the typewriter pass scan them
column by column (``_column_scan``), one running sum per occupied (pair,
coordinate) cell, folded as it goes into the cell's high and low marks;
``_joins`` turns the marks into joins (``_mark_join``) and scatters them
back (``_scatter``).  A scan is a plan, which depends only on the system
and the orderings (``_scan_plan``: the terms in jagged-diagonal order,
cells by decreasing run length, so step j of every run is one contiguous
slice), and a pass of an (S, B, n) block of coefficients through it.  A
plan is the one way orderings enter the kernel: a one-shot caller builds
its own, and only this module reads its fields.  A sum of terms
adds each coordinate's terms in row order from zero (``_sums``), and
``coefficients`` sums each stored functional row pairwise.  The dense
``vectors`` is a read-only view built on first access, for callers outside
the kernels; nothing keeps a dense view of the functionals.

Construction checks f_j(x_k) = delta_jk for every slot j and vector k
(``_gram_error``).  Unless the rows are nearly dense, it forms only the
pair products of nonzeros that share a column, never an n x n slab.

Functionals pair with elements by the plain (unweighted) dot product;
constructions over weighted hosts bake their weights into the functional
coordinates.

Each of the six constants is a certified lower bound, reported with the
witness that attained it, and is one score (sys, a, indices=None) ->
(ratio, support, indices), support 0 for a witness whose sum is zero;
``greedy._RATIOS`` is the one table of them.  ``_ratio_search`` keeps the
best witness under a score and ``recompute_constant`` re-scores a stored
one, so a report gives back its value exactly.  bibasis and kvee share a
score, the ordered-projection join ratio (``_join_ratios``): bibasis
along the index order, kvee along its stored ordered set, and kvee's
search a block of candidates at a time behind a modulus-sum screen.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from latmax.spaces import Element, SpaceDescriptor

CONSTANT_NAMES = (
    "basis",
    "bibasis",
    "absolute",
    "quasi_greedy",
    "uniform_quasi_greedy",
    "kvee",
)

SEARCH_TAGS = ("structured_family", "random_ascent")

_GRAM_TOL = 1e-9  # largest |f_j(x_k) - delta_jk| a system may show
_WORKING_SET = 2 ** 18  # entries one batch may hold, summed over every array it keeps alive
_GRAM_DENSE_SHARE = 16  # BLAS once column pairs reach 1/16 of the dense flops
_SCAN_BLOCK = 64  # rows per per-prefix norm block, candidates per kvee join
_SCREEN_SLACK = 1e-9  # relative margin of the join screen over its rounding


def _batch_size(cost: int) -> int:
    """Items per batch when each holds cost entries: at least one."""
    return max(1, _WORKING_SET // cost)


def _stable_order(keys, top: int) -> np.ndarray:
    """np.argsort(keys, kind="stable") for keys in [0, top): a stable order is
    unique given its keys, so numpy may radix-sort 16-bit copies."""
    return np.argsort(keys.astype(np.uint16) if top <= 2 ** 16 else keys, kind="stable")


def _spans(starts, counts):
    """The ranges starts[i] .. starts[i] + counts[i] - 1, concatenated."""
    out = np.repeat(starts - np.cumsum(counts) + counts, counts)
    out += np.arange(len(out))
    return out


def _cuts(ends, cap: int) -> list:
    """Greedy cuts 0 = c_0 < ... = len(ends) - 1 of items holding ends[i + 1] - ends[i]
    units each: a piece between two cuts holds at most cap units, or one item."""
    cuts = [0]
    while cuts[-1] < len(ends) - 1:
        stop = int(np.searchsorted(ends, ends[cuts[-1]] + cap, side="right")) - 1
        cuts.append(max(stop, cuts[-1] + 1))
    return cuts


def _pair_ends(per_col, V: Csr) -> np.ndarray:
    """ends[k] = sum of per_col over the nonzero columns of V's rows 0 .. k - 1
    (the pair products of vectors 0 .. k - 1 with a block holding per_col[c]
    nonzeros in column c): one in-place cumsum, read at each row's last
    nonzero, an empty row reading the row before it and 0 before any."""
    run = per_col[V.columns()]
    np.cumsum(run, out=run)
    ends = np.zeros(V.n_rows + 1, dtype=run.dtype)
    filled = V.indptr > 0
    ends[filled] = run[V.indptr[filled] - 1]
    return ends


class Csr:
    """Rows in compressed sparse row form: row i holds the values
    vals[indptr[i]:indptr[i + 1]] at strictly ascending columns.  Position
    p's column is cols[p % len(cols)] (``columns``), in one of two forms,
    read from the arrays' lengths.  Rows that store their own columns keep
    one per position, len(cols) == len(vals).  Rows that all hold the same
    L columns store them once: len(cols) == L, len(vals) == n_rows * L and
    indptr == arange(n_rows + 1) * L."""

    __slots__ = ("indptr", "cols", "vals")

    def __init__(self, indptr, cols, vals):
        self.indptr, self.cols, self.vals = indptr, cols, vals

    @classmethod
    def from_dense(cls, rows) -> "Csr":
        """The nonzeros of a 2-d array, row by row in column order."""
        rows = np.asarray(rows, dtype=float)
        flat = np.flatnonzero(rows)
        dim = rows.shape[1]
        indptr = np.searchsorted(flat, np.arange(len(rows) + 1) * dim)
        return cls(indptr, flat % dim, rows.ravel()[flat])

    @classmethod
    def stack(cls, blocks) -> "Csr":
        """The rows of each block in turn, each position with its own column."""
        counts = np.concatenate([np.diff(b.indptr) for b in blocks])
        return cls(np.concatenate([[0], np.cumsum(counts)]),
                   np.concatenate([b.columns() for b in blocks]),
                   np.concatenate([b.vals for b in blocks]))

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    def columns(self, pos=slice(None)) -> np.ndarray:
        """The column of each stored position in pos, an index array or a
        slice of step 1 (every position by default): cols[pos % len(cols)],
        the one rule of both forms.  The form is read once per call: rows
        that store their own columns read cols[pos], and shared columns
        read a slice inside one row as a view of them."""
        L = len(self.cols)
        if L == len(self.vals):
            return self.cols[pos]
        if isinstance(pos, slice):
            lo, hi, _ = pos.indices(len(self.vals))
            if lo % L + hi - lo <= L:
                return self.cols[lo % L : lo % L + hi - lo]
            pos = np.arange(lo, hi)
        return self.cols[pos % L]

    def column_counts(self, dim: int) -> np.ndarray:
        """The nonzeros in each of dim columns, from the shape alone: the
        positions run through cols len(vals) / len(cols) times (once, or
        once per row)."""
        counts = np.bincount(self.cols, minlength=dim)
        counts *= len(self.vals) // max(len(self.cols), 1)
        return counts

    def slice(self, start: int, stop: int) -> "Csr":
        """Rows start .. stop - 1, as views of the stored arrays, in the
        form of the whole: its columns are those of its first len(cols)
        positions, every one of them or one shared row."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return Csr(self.indptr[start : stop + 1] - lo,
                   self.columns(slice(lo, lo + min(len(self.cols), hi - lo))),
                   self.vals[lo:hi])

    def take(self, rows) -> "Csr":
        """The listed rows, in the listed order, each position with its own
        column."""
        rows = np.asarray(rows, dtype=np.intp)
        cnt = self.indptr[rows + 1] - self.indptr[rows]
        pos = _spans(self.indptr[rows], cnt)
        return Csr(np.concatenate([[0], np.cumsum(cnt)]), self.columns(pos),
                   self.vals[pos])

    def dense(self, dim: int) -> np.ndarray:
        """The rows as a dense (n_rows, dim) array: a read-only view of vals
        when every row is full (n_rows * dim values, as columns ascend in
        [0, dim)), else a fresh array filled row by row."""
        if len(self.vals) == self.n_rows * dim:
            out = self.vals.reshape(self.n_rows, dim)
            out.flags.writeable = False
            return out
        out = np.zeros((self.n_rows, dim))
        for row, lo, hi in zip(out, self.indptr[:-1], self.indptr[1:]):
            row[self.columns(slice(lo, hi))] = self.vals[lo:hi]
        return out


def _as_rows(rows, dim: int, what: str) -> Csr:
    """A Csr checked against dim, or a dense (n, dim) array converted."""
    if not isinstance(rows, Csr):
        dense = np.asarray(rows, dtype=float)
        if dense.ndim != 2 or dense.shape[1] != dim:
            raise ValueError(f"{what} must be (n, {dim})")
        return Csr.from_dense(dense)
    ptr, cols = np.asarray(rows.indptr, dtype=np.intp), np.asarray(rows.cols, dtype=np.intp)
    vals = np.asarray(rows.vals, dtype=float)
    # the stored columns as given, O(len(cols) + n_rows): one per position,
    # or one row that at least two rows share (indptr = arange * L); they
    # strictly ascend inside each row, so a step down or a repeat may only
    # fall where a new row starts (a bool mask, no int64 difference array)
    L = len(cols)
    bad = np.flatnonzero(cols[1:] <= cols[:-1]) + 1
    if (ptr.ndim != 1 or len(ptr) < 1 or ptr[0] != 0 or np.any(np.diff(ptr) < 0)
            or ptr[-1] != len(vals)
            or (L != len(vals) and not (L < len(vals)
                                        and np.array_equal(ptr, np.arange(len(ptr)) * L)))
            or (L and (cols.min() < 0 or cols.max() >= dim))
            or np.any(ptr[np.searchsorted(ptr, bad)] != bad)):
        raise ValueError(f"{what} are not CSR rows over {dim} columns")
    return Csr(ptr, cols, vals)


class BiorthogonalSystem:
    """Vectors x_k and functionals f_k = U[idx[k]] as CSR rows over a common
    host.

    ``vectors`` and ``functionals`` may each be a dense (n, dim) array or a
    ``Csr``; ``index`` maps each of the n slots to a functional row and
    defaults to row k for slot k.  A system's arrays must not be mutated.
    """

    def __init__(self, space: SpaceDescriptor, vectors, functionals,
                 check: bool = True, index=None):
        V = _as_rows(vectors, space.dim, "vectors")
        U = _as_rows(functionals, space.dim, "functionals")
        n = V.n_rows
        if index is None:
            if U.n_rows != n:
                raise ValueError("functionals must match vectors in shape")
            idx = np.arange(n)
        else:
            idx = np.asarray(index, dtype=np.intp)
            if idx.shape != (n,) or (n and (idx.min() < 0 or idx.max() >= U.n_rows)):
                raise ValueError(f"index must send {n} slots to the "
                                 f"{U.n_rows} functional rows")
        self.space = space
        self.row_support = V
        self.functional_rows = U
        self.functional_index = idx
        if check:
            self._check_gram()

    def _check_gram(self):
        """Reject the system unless _gram_error is within _GRAM_TOL (a NaN
        error is rejected too)."""
        err = self._gram_error()
        if not err <= _GRAM_TOL:
            raise ValueError(f"biorthogonality violated: max error {err:.3e}")

    def _gram_error(self) -> float:
        """max |f_j(x_k) - delta_jk| over every slot j and vector k.

        Column c pairs each nonzero of U in c with each nonzero of V in c.
        When those pairs reach a 1/_GRAM_DENSE_SHARE share of the dense flop
        count n_U * n * dim (nearly dense rows), BLAS products of the
        dense rows (full ones in place) form the n_U x w blocks U V^T, w rows
        within _WORKING_SET cells.  Otherwise only the pair products are formed
        (Gustavson, ACM TOMS 4(3), 1978): blocks of U's rows of at most
        _batch_size(1) nonzeros, each against slabs of whole vectors.  A slab
        keeps four product-length arrays alive at its peak, so it holds at
        most _batch_size(4) products, or one vector, whose products are at
        most its U block's nonzeros, as a vector meets a nonzero at most
        once.  A stable sort groups them by cell (vector k, functional row
        r), and each cell adds its products in column order from zero, as a
        dense slab's np.bincount would, so the error is the same bit for bit.
        Both paths score their cells by _cell_error.
        """
        U, V, dim = self.functional_rows, self.row_support, self.space.dim
        n, nU, idx = len(self), U.n_rows, self.functional_index
        # full rows (n_rows * dim values each side) pair in every column:
        # the dense flop count itself, read from the shape
        full = len(U.vals) == nU * dim and len(V.vals) == n * dim
        pairs = nU * n * dim if full else int(U.column_counts(dim) @ V.column_counts(dim))
        readers = np.bincount(idx, minlength=nU)  # slots that read each row
        err = 0.0  # np.max keeps a NaN error, where max() would drop it
        if _GRAM_DENSE_SHARE * pairs >= nU * n * dim:
            Ud = U.dense(dim)
            step = _batch_size(max(n, nU, dim))
            for k0 in range(0, n, step):
                k1 = min(n, k0 + step)
                gram = Ud @ V.slice(k0, k1).dense(dim).T
                diag = idx[k0:k1], np.arange(k1 - k0)
                err = np.max([err, _cell_error(gram, readers, diag, k1 - k0)])
            return float(err)
        # each block's nonzeros column by column, rows ascending in a column
        for r0, r1 in itertools.pairwise(_cuts(U.indptr, _batch_size(1))):
            B = U.slice(r0, r1)
            by_col = np.argsort(B.columns(), kind="stable")
            u_rows = np.repeat(np.arange(r1 - r0), np.diff(B.indptr))[by_col]
            u_vals, per_col = B.vals[by_col], B.column_counts(dim)
            col_start = np.cumsum(per_col) - per_col
            ends = _pair_ends(per_col, V)
            del B, by_col
            # a slab's peak is four product-length arrays: r, prod, order and
            # one more (the sort's index scratch, the repeat of k or a sorted
            # copy), with a 16-bit copy of r in the sort
            for k0, k1 in itertools.pairwise(_cuts(ends, _batch_size(4))):
                slab, w = V.slice(k0, k1), k1 - k0
                cols = slab.columns()
                cnt = per_col[cols]
                pos = _spans(col_start[cols], cnt)
                r, prod = u_rows[pos], u_vals[pos]
                del cols, pos
                prod *= np.repeat(slab.vals, cnt)
                # cell (k, r) is key r * w + k - k0, r counted from r0: products
                # come in order of k, so a stable sort by r orders them by key
                order = _stable_order(r, r1 - r0)
                r *= w
                r += np.repeat(np.repeat(np.arange(w), np.diff(slab.indptr)), cnt)
                key = r[order]
                del r
                prod = prod[order]
                del order
                # cell i's products are the run of equal keys it numbers
                start = np.ones(len(key), dtype=bool)
                np.not_equal(key[1:], key[:-1], out=start[1:])
                r, k = np.divmod(key[start], w)
                r += r0
                np.cumsum(start, out=key)
                key -= 1
                gram = np.bincount(key, prod)
                del key, prod, start
                diag = np.nonzero(r == idx[k0 + k])
                due = np.count_nonzero((r0 <= idx[k0:k1]) & (idx[k0:k1] < r1))
                err = np.max([err, _cell_error(gram, readers[r], diag, due)])
        return float(err)

    def __len__(self) -> int:
        return self.row_support.n_rows

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """Dense (n, dim) read-only view of the vectors, built on first
        access."""
        out = self.row_support.dense(self.space.dim)
        out.flags.writeable = False
        return out


def _cell_error(gram, reads, diag, due: int) -> float:
    """max |f_j(x_k) - delta_jk| over the formed cells of a slab that can
    form due diagonal cells, scored in place: gram[i] holds cells of a row
    that reads[i] slots read, diag indexes the diagonal cells r = idx[k]
    formed.  A diagonal cell is held to 1, and to 0 too when another slot
    reads its row; one never formed is an error of 1.  An unread row is
    skipped."""
    cells = gram[diag]
    shared = np.abs(cells[reads[diag[0]] > 1])
    gram[diag] = cells - 1.0  # a slab of no products is an empty int64 gram
    np.abs(gram, out=gram)
    gram[reads == 0] = 0.0
    return np.max([gram.max(initial=0.0), shared.max(initial=0.0),
                   float(len(diag[0]) < due)])


def _coords(sys: BiorthogonalSystem, x) -> np.ndarray:
    if isinstance(x, Element):
        if x.space != sys.space:
            raise ValueError("element lives in a different space")
        return x.coords
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.space.dim,):
        raise ValueError(f"coordinates must have shape ({sys.space.dim},)")
    return x


def coefficients(sys: BiorthogonalSystem, x) -> np.ndarray:
    """f_k(x) for every k, via the unweighted pairing: U x over the stored
    rows, each row's terms summed pairwise (np.add.reduceat), then
    gathered by idx."""
    x, U = _coords(sys, x), sys.functional_rows
    out = np.zeros(U.n_rows)
    # reduceat would copy a neighbouring term into an empty row
    rows = np.flatnonzero(np.diff(U.indptr))
    if len(rows):
        out[rows] = np.add.reduceat(U.vals * x[U.columns()], U.indptr[rows])
    return out[sys.functional_index]


def reconstruct(sys: BiorthogonalSystem, coeffs) -> Element:
    """sum_k a_k x_k as an element of the host."""
    return Element(sys.space, _sums(sys, [coeffs])[0])


def _gather(sys: BiorthogonalSystem, pair, rows):
    """(seg, cnt, pos) for the scanned rows rows[t] of pairs pair[t]: row
    rows[t] has cnt[t] nonzeros, at positions pos of the row support in
    scan order, in the cells seg = pair * dim + column.  The one place an
    index outside [0, n) is rejected (ValueError)."""
    V = sys.row_support
    if rows.size and (rows.min() < 0 or rows.max() >= len(sys)):
        raise ValueError(f"index out of range for {len(sys)} vectors")
    cnt = V.indptr[rows + 1] - V.indptr[rows]
    pos = _spans(V.indptr[rows], cnt)
    return np.repeat(pair * sys.space.dim, cnt) + V.columns(pos), cnt, pos


def _pairs(perms):
    """(pair, rows): the B orderings end to end, each row tagged with its b."""
    perms = [np.asarray(p, dtype=np.intp) for p in perms]
    return np.repeat(np.arange(len(perms)), [len(p) for p in perms]), np.concatenate(perms)


def _terms(sys: BiorthogonalSystem, coeffs, perms=None):
    """(seg, terms, B): the terms a_k x_k of B sums, each in its cell seg
    = b * dim + column, along perms[b], or over the nonzeros of coeffs[b]
    in index order without perms, all B supports found by one np.nonzero.
    Every score reads its witness here: more than n entries are out of
    range."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[1] > len(sys):
        raise ValueError(f"coefficients out of range for {len(sys)} vectors")
    pair, rows = np.nonzero(coeffs) if perms is None else _pairs(perms)
    seg, cnt, pos = _gather(sys, pair, rows)
    return seg, np.repeat(coeffs[pair, rows], cnt) * sys.row_support.vals[pos], len(coeffs)


def _sums(sys: BiorthogonalSystem, coeffs, perms=None) -> np.ndarray:
    """(B, dim): row b is sum a_k x_k along perms[b], each coordinate adding
    its terms in perm order from zero, so it is bit for bit the last row of
    a dense np.cumsum down the perm (up to the sign of zero).  Without
    perms, row b runs over the nonzeros of coeffs[b] in index order
    (``_terms``)."""
    seg, terms, B = _terms(sys, coeffs, perms)
    return np.bincount(seg, terms, minlength=B * sys.space.dim).reshape(B, -1)


def _sums_and_moduli(sys: BiorthogonalSystem, coeffs):
    """(x, M), (B, dim) each: the sums x = sum a_k x_k and modulus sums
    M = sum |a_k x_k| over the nonzeros of each row of coeffs in index
    order, both from one gather: the one modulus-sum rule.  |x| <= M
    coordinatewise, and so is every join of prefix sums along an ordering
    of part of the support."""
    seg, terms, B = _terms(sys, coeffs)
    return tuple(np.bincount(seg, t, minlength=B * sys.space.dim).reshape(B, -1)
                 for t in (terms, np.abs(terms)))


@dataclass(frozen=True)
class _ScanPlan:
    """A column scan along B orderings less its coefficients, in
    jagged-diagonal order (Saad, 2003, section 3.4): term t is block[b, k] *
    factors[t], src[t] = b * n + k.  cells run by decreasing run length,
    ties ascending, and step j, terms steps[j] .. steps[j + 1] - 1, holds
    term j of each of the first steps[j + 1] - steps[j] cells."""

    cells: np.ndarray
    steps: tuple
    src: np.ndarray
    factors: np.ndarray


def _scan_plan(sys: BiorthogonalSystem, perms) -> _ScanPlan:
    """Sort once: the terms along B orderings by cell, then step by step.
    Cell b * dim + c runs the nonzeros at c of the rows along perms[b]."""
    pair, rows = _pairs(perms)
    seg, cnt, pos = _gather(sys, pair, rows)
    by_cell = _stable_order(seg, len(perms) * sys.space.dim)
    seg = seg[by_cell]
    # cell i's run is bounds[i] .. bounds[i + 1] - 1 of by_cell: a run starts
    # where the sorted cell index changes, and the last one ends at the end
    change = np.ones(len(seg) + 1, dtype=bool)
    np.not_equal(seg[1:], seg[:-1], out=change[1:-1])
    bounds = np.flatnonzero(change)
    starts, lens = bounds[:-1], np.diff(bounds)
    width = int(lens.max(initial=0))
    starts = starts[_stable_order(width - lens, width + 1)]
    cells = seg[starts]
    # step j holds term j of the cells whose run is longer than j, a prefix
    # of the ranked cells; each index array is freed once spent
    longer = len(lens) - np.cumsum(np.bincount(lens, minlength=width + 1))[:-1]
    steps = tuple(np.concatenate([[0], np.cumsum(longer)]).tolist())
    del seg, change
    order = np.empty_like(by_cell)
    for j, (lo, hi) in enumerate(itertools.pairwise(steps)):
        order[lo:hi] = by_cell[starts[: hi - lo] + j]
    del by_cell
    factors = sys.row_support.vals[pos[order]]
    del pos
    return _ScanPlan(cells, steps, np.repeat(pair * len(sys) + rows, cnt)[order], factors)


def _column_scan(sys: BiorthogonalSystem, block, plan: _ScanPlan):
    """(cells, high, low): every occupied cell's high and low marks, the
    largest and smallest values its prefix sum takes, (S, len(cells)) each,
    for an (S, B, n) block sent through the plan of B orderings: the one
    join kernel.  A dense scan adds only exact zeros between a cell's
    terms, so its running sums are the prefix values bit for bit (up to the
    sign of zero).  They are formed in place, step j onto the prefix of
    step j - 1 (np.cumsum's additions along each cell, in its order), and
    folded into the marks as they are formed."""
    run = np.take(block.reshape(len(block), -1), plan.src, axis=1)
    run *= plan.factors
    high, low = run[:, : len(plan.cells)].copy(), run[:, : len(plan.cells)].copy()
    for prev, lo, hi in zip(plan.steps, plan.steps[1:], plan.steps[2:]):
        cur, n = run[:, lo:hi], hi - lo
        cur += run[:, prev : prev + n]
        np.maximum(high[:, :n], cur, out=high[:, :n])
        np.minimum(low[:, :n], cur, out=low[:, :n])
    return plan.cells, high, low


def _mark_join(high, low):
    """The join of |prefix sums| from their marks: bitwise their abs-max, zeros included."""
    return np.abs(np.maximum(high, -low))


def _scatter(cells, values, B: int, dim: int) -> np.ndarray:
    """(..., B, dim): values[..., i] at flat cell cells[i], 0 elsewhere."""
    out = np.zeros(values.shape[:-1] + (B * dim,))
    out[..., cells] = values
    return out.reshape(values.shape[:-1] + (B, dim))


def _joins(sys: BiorthogonalSystem, block, plan: _ScanPlan) -> np.ndarray:
    """(S, B, dim): row [s, b] is the coordinatewise max of |prefix sums| of
    block[s, b, k] x_k along ordering b, 0 at every cell no scanned row
    touches.  The one reduction of the join kernel to joins."""
    cells, high, low = _column_scan(sys, block, plan)
    return _scatter(cells, _mark_join(high, low), block.shape[1], sys.space.dim)


def _ordered_join(sys: BiorthogonalSystem, a: np.ndarray, perm) -> np.ndarray:
    """Coordinatewise max of |prefix sums| along perm; zero for empty perm."""
    return _joins(sys, np.asarray(a, dtype=float).reshape(1, 1, -1), _scan_plan(sys, [perm]))[0, 0]


def _join_ratios(sys: BiorthogonalSystem, coeffs, orderings,
                 floor: float = -np.inf) -> np.ndarray:
    """||join of |prefix sums| along A|| / ||x|| for B pairs (a, A), the
    (B, n) coefficients and their orderings, with x = sum a_k x_k: nan
    where x is zero.  orderings is the B orderings, or the plan of one
    ordering that every row shares.

    The screen: one gather gives each x and its modulus sum M
    (``_sums_and_moduli``), which bounds the join coordinatewise, so the
    ratio is at most ||M|| / ||x||.  A pair whose ||M|| falls below
    floor * ||x|| * (1 - _SCREEN_SLACK) cannot score above floor: it reads
    -inf and is never joined (``greedy.kvee_estimate`` gives the rounding
    argument).  Only the survivors get a plan and share one _joins pass,
    and every norm is one norms call for the block.
    """
    x, M = _sums_and_moduli(sys, coeffs)
    nx = sys.space.norms(x)
    ratios = np.where(nx != 0, -np.inf, np.nan)
    keep = nx != 0
    if floor > -np.inf:
        slack = max(_SCREEN_SLACK, 4 * (len(sys) + sys.space.dim + 8) * np.finfo(float).eps)
        keep &= sys.space.norms(M) >= floor * nx * (1 - slack)
    keep = np.flatnonzero(keep)
    if len(keep):
        if isinstance(orderings, _ScanPlan):
            joins = _joins(sys, coeffs[keep][:, None], orderings)[:, 0]
        else:
            plan = _scan_plan(sys, [orderings[i] for i in keep])
            joins = _joins(sys, coeffs[keep][None], plan)[0]
        ratios[keep] = sys.space.norms(joins) / nx[keep]
    return ratios


def partial_sum(sys: BiorthogonalSystem, x, n: int) -> Element:
    """P_n x = sum_{k<n...} of the first n coefficient terms."""
    if not 1 <= n <= len(sys):
        raise ValueError("n out of range")
    return reconstruct(sys, coefficients(sys, x)[:n])


def maximal_partial(sys: BiorthogonalSystem, x, m: int) -> Element:
    """Coordinatewise sup of |P_1 x|, ..., |P_m x|."""
    if not 1 <= m <= len(sys):
        raise ValueError("m out of range")
    a = coefficients(sys, x)
    return Element(sys.space, _ordered_join(sys, a, np.arange(m)))


@dataclass
class ConstantReport:
    """A certified lower bound: the value, the witness that attained it, which
    search produced it, and how many ratio evaluations were spent."""

    constant_name: str
    value: float
    witness: np.ndarray
    search: str
    budget: int
    indices: np.ndarray | None = None   # ordered index set, for kvee and uqg reports
    rows: tuple = field(default=(), repr=False)   # per-witness (id, ratio, m) trace

    def __post_init__(self):
        if self.constant_name not in CONSTANT_NAMES:
            raise ValueError(f"unknown constant name {self.constant_name!r}")
        if self.search not in SEARCH_TAGS:
            raise ValueError(f"unknown search tag {self.search!r}")
        self.witness = np.asarray(self.witness, dtype=float)
        if self.indices is not None:
            self.indices = _distinct(self.indices, "the report")
            if self.constant_name not in ("kvee", "uniform_quasi_greedy"):
                raise ValueError(f"a {self.constant_name} report has no indices")
        elif self.constant_name == "kvee":
            raise ValueError("a kvee report needs its ordered indices")

    def to_json(self) -> dict:
        out = {
            "constant": self.constant_name,
            "value": self.value,
            "witness": self.witness.tolist(),
            "search": self.search,
            "budget": self.budget,
        }
        if self.indices is not None:
            out["indices"] = self.indices.tolist()
        return out


def _distinct(indices, name) -> np.ndarray:
    """indices as an int array, or ValueError if one repeats: a prefix sum
    along them would count its vector twice."""
    indices = np.asarray(indices, dtype=int)
    ranked = np.sort(indices)
    if np.any(ranked[1:] == ranked[:-1]):
        raise ValueError(f"repeated indices in {name}")
    return indices


def report_from_json(obj) -> ConstantReport:
    if isinstance(obj, str):
        obj = json.loads(obj)
    return ConstantReport(obj["constant"], obj["value"],
                          np.asarray(obj["witness"], dtype=float),
                          obj["search"], obj["budget"],
                          np.asarray(obj["indices"], dtype=int) if "indices" in obj else None)


def _ratio_search(sys, witnesses, score, name):
    """Best witness under score(sys, a) -> (ratio, support, indices); the
    winner's indices, the ordering its ratio was taken along or None, are
    stored with it.

    Every witness is traced as (id, ratio, m); a witness whose sum is zero,
    the empty one included, scores (0.0, 0, ...) and is never kept.
    """
    best_val, best_wit, best_idx = -np.inf, None, None
    rows = []
    for wid, w in enumerate(witnesses):
        a = np.asarray(w, dtype=float)
        r, m, idx = score(sys, a)
        rows.append((wid, float(r), int(m)))
        if m and r > best_val:
            best_val, best_wit, best_idx = r, a, idx
    if best_wit is None:
        raise ValueError("no witness with nonzero support")
    return ConstantReport(name, float(best_val), best_wit, "structured_family",
                          len(rows), indices=best_idx, rows=tuple(rows))


def _peak_prefix_norm(sys, a, perm):
    """(max norm over the prefix sums along perm, norm of the last one).

    The sums are formed _SCAN_BLOCK rows at a time, each block's terms
    read by _gather into a zeroed block: the previous block's last sum is
    added into each block's first row, then each row adds the one before
    it.  These are the additions of one np.cumsum(axis=0) in the same
    order, so the sums agree bit for bit, while only a block of rows is
    ever held, and a row's norm is bitwise the same in any block, so the
    result does not depend on the block size.  (np.cumsum runs axis 0 of a
    C-ordered block as a strided inner loop, several times slower.)
    """
    peak, carry = -np.inf, None
    for start in range(0, len(perm), _SCAN_BLOCK):
        idx = perm[start : start + _SCAN_BLOCK]
        seg, cnt, pos = _gather(sys, np.arange(len(idx)), idx)
        rows = np.zeros((len(idx), sys.space.dim))
        rows.ravel()[seg] = np.repeat(a[idx], cnt) * sys.row_support.vals[pos]
        if carry is not None:
            rows[0] += carry
        for i in range(1, len(rows)):
            rows[i] += rows[i - 1]
        carry = rows[-1]
        norms = sys.space.norms(rows)
        peak = np.maximum(peak, norms.max())
    return peak, norms[-1]


def _prefix_norm_ratio(sys, a, indices=None):
    peak, full = _peak_prefix_norm(sys, a, np.arange(len(a))) if len(a) else (0, 0)
    return (peak / full, len(a), None) if full else (0.0, 0, None)


def _join_ratio(sys, a, indices=None):
    """Along indices, kvee's ordered set, or the index order (bibasis).  A
    witness is zero past its end; _terms rejects a longer one."""
    perm = np.arange(len(a)) if indices is None else indices
    padded = np.pad(np.asarray(a, dtype=float), (0, max(0, len(sys) - len(a))))
    r = _join_ratios(sys, padded[None], [perm])[0]
    return (0.0, 0, indices) if np.isnan(r) else (r, len(a), indices)


def _modulus_sum_ratio(sys, a, indices=None):
    nx, total = sys.space.norms(np.concatenate(_sums_and_moduli(sys, [a])))
    return (total / nx, len(a), None) if nx else (0.0, 0, None)


def basis_constant(sys: BiorthogonalSystem, witnesses) -> ConstantReport:
    """max over witnesses of max_n ||P_n|| / ||full sum||, a lower bound for
    the partial-sum constant."""
    return _ratio_search(sys, witnesses, _prefix_norm_ratio, "basis")


def bibasis_constant(sys: BiorthogonalSystem, witnesses) -> ConstantReport:
    """max over witnesses of ||join of |P_n||| / ||full sum||."""
    return _ratio_search(sys, witnesses, _join_ratio, "bibasis")


def absolute_constant(sys: BiorthogonalSystem, witnesses) -> ConstantReport:
    """max over witnesses of ||sum |a_k x_k||| / ||sum a_k x_k||."""
    return _ratio_search(sys, witnesses, _modulus_sum_ratio, "absolute")


def recompute_constant(sys: BiorthogonalSystem, report: ConstantReport) -> float:
    """Re-score a report's stored witness, along its stored indices if it
    has them; ValueError when the witness sums to zero."""
    # the score table lives with the greedy scores, which build on this module
    from latmax.greedy import _RATIOS
    r, m, _ = _RATIOS[report.constant_name](sys, report.witness, report.indices)
    if not m:
        raise ValueError(f"{report.constant_name} witness sums to zero")
    return float(r)


def witness_rows_csv(report: ConstantReport) -> str:
    """Per-witness trace as CSV text (witness id, ratio, m)."""
    lines = ["witness,ratio,m"]
    for wid, ratio, m in report.rows:
        lines.append(f"{wid},{ratio!r},{m}")
    return "\n".join(lines) + "\n"
