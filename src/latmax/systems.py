"""Biorthogonal systems and lower-bound constant reports.

A system pairs vectors x_k with coefficient functionals f_k over one host
space, both stored sparse as rows in compressed sparse row form (``Csr``;
Saad, *Iterative Methods for Sparse Linear Systems*, 2003, ch. 3).  The
vectors are one CSR row each (``row_support``).  The functionals are CSR
rows U plus a row-index map idx, f_k = U[idx[k]], so a functional that
several slots share is stored once.  Constructions build these rows
directly; a dense input is converted once, at construction.  Every kernel
reads only the nonzeros: ordered joins and the typewriter pass scan them
column by column (``_column_scan``), into one running-sum row per occupied
(pair, coordinate) cell; ``_joins`` reduces each row to its largest
modulus and scatters it back (``_scatter``), and only the typewriter pass
reduces the table otherwise.  A sum of terms adds each coordinate's terms
in row order from zero (``_sums``), and ``coefficients`` sums each stored
functional row pairwise.  The dense ``vectors`` and ``functionals`` are
read-only views built on first access, for callers outside the kernels.

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
along the index order, kvee along its stored ordered set.
"""

from __future__ import annotations

import functools
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

SEARCH_TAGS = ("exhaustive_signs", "structured_family", "random_ascent")

_GRAM_TOL = 1e-9  # largest |f_j(x_k) - delta_jk| a system may show
_GRAM_CELLS = 2 ** 20  # gram entries held per slab of the full check
_GRAM_DENSE_SHARE = 16  # BLAS once column pairs reach 1/16 of the dense flops
_SCAN_BLOCK = 64  # rows per per-prefix norm block, candidates per kvee join


def _spans(starts, counts):
    """The ranges starts[i] .. starts[i] + counts[i] - 1, concatenated."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


class Csr:
    """Rows in compressed sparse row form: row i holds the values
    vals[indptr[i]:indptr[i + 1]] at the strictly ascending columns
    cols[indptr[i]:indptr[i + 1]].  Unpacks as (indptr, cols, vals)."""

    __slots__ = ("indptr", "cols", "vals")

    def __init__(self, indptr, cols, vals):
        self.indptr, self.cols, self.vals = indptr, cols, vals

    def __iter__(self):
        return iter((self.indptr, self.cols, self.vals))

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
        """The rows of each block in turn."""
        counts = np.concatenate([np.diff(b.indptr) for b in blocks])
        return cls(np.concatenate([[0], np.cumsum(counts)]),
                   np.concatenate([b.cols for b in blocks]),
                   np.concatenate([b.vals for b in blocks]))

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    def slice(self, start: int, stop: int) -> "Csr":
        """Rows start .. stop - 1, as views of the stored arrays."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return Csr(self.indptr[start : stop + 1] - lo, self.cols[lo:hi], self.vals[lo:hi])

    def take(self, rows) -> "Csr":
        """The listed rows, in the listed order."""
        rows = np.asarray(rows, dtype=np.intp)
        cnt = self.indptr[rows + 1] - self.indptr[rows]
        pos = _spans(self.indptr[rows], cnt)
        return Csr(np.concatenate([[0], np.cumsum(cnt)]), self.cols[pos],
                   self.vals[pos])

    def dense(self, dim: int) -> np.ndarray:
        """The rows as a dense (n_rows, dim) array."""
        out = np.zeros((self.n_rows, dim))
        flat = np.repeat(np.arange(self.n_rows) * dim, np.diff(self.indptr))
        flat += self.cols
        out.ravel()[flat] = self.vals
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
    # columns strictly ascend inside each row: a step down or a repeat may
    # only fall where a new row starts
    bad = np.flatnonzero(np.diff(cols) <= 0) + 1
    if (ptr.ndim != 1 or len(ptr) < 1 or ptr[0] != 0 or np.any(np.diff(ptr) < 0)
            or ptr[-1] != len(cols) or len(vals) != len(cols)
            or (len(cols) and (cols.min() < 0 or cols.max() >= dim))
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
        """max |f_j(x_k) - delta_jk| over every pair, against _GRAM_TOL.

        The gram U V^T is formed a slab of vectors at a time.  Column c
        pairs each nonzero of U in c with each nonzero of V in c; when those
        pairs reach a 1/_GRAM_DENSE_SHARE share of the dense flop count
        n_U * n * dim (nearly dense rows), a BLAS product of the densified
        rows does the slab instead.
        """
        U, V, dim = self.functional_rows, self.row_support, self.space.dim
        n, nU = len(self), U.n_rows
        per_col = np.bincount(U.cols, minlength=dim)
        pairs = int(per_col @ np.bincount(V.cols, minlength=dim))
        dense = _GRAM_DENSE_SHARE * pairs >= nU * n * dim
        if dense:
            Ud = U.dense(dim)
        else:
            # U's nonzeros column by column, rows ascending inside a column
            by_col = np.argsort(U.cols, kind="stable")
            u_rows = np.repeat(np.arange(nU), np.diff(U.indptr))[by_col]
            u_vals = U.vals[by_col]
            col_start = np.cumsum(per_col) - per_col
        step = max(1, _GRAM_CELLS // max(n, nU, 1))
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
            gram = gram[self.functional_index]
            gram[np.arange(k0, k1), np.arange(k1 - k0)] -= 1.0
            err = max(err, float(np.abs(gram, out=gram).max()))
        if err > _GRAM_TOL:
            raise ValueError(f"biorthogonality violated: max error {err:.3e}")

    def __len__(self) -> int:
        return self.row_support.n_rows

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """Dense (n, dim) read-only view of the vectors, built on first
        access."""
        out = self.row_support.dense(self.space.dim)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def functionals(self) -> np.ndarray:
        """Dense (n, dim) read-only view of the functionals, built on first
        access."""
        out = self.functional_rows.dense(self.space.dim)[self.functional_index]
        out.flags.writeable = False
        return out


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
    x = _coords(sys, x)
    ptr, cols, vals = sys.functional_rows
    out = np.zeros(len(ptr) - 1)
    # reduceat would copy a neighbouring term into an empty row
    rows = np.flatnonzero(np.diff(ptr))
    if len(rows):
        out[rows] = np.add.reduceat(vals * x[cols], ptr[rows])
    return out[sys.functional_index]


def reconstruct(sys: BiorthogonalSystem, coeffs) -> Element:
    """sum_k a_k x_k as an element of the host."""
    a = np.asarray(coeffs, dtype=float)
    if len(a) > len(sys):
        raise ValueError("more coefficients than vectors")
    return Element(sys.space, _sums(sys, [a], [np.flatnonzero(a)])[0])


def _gather(sys: BiorthogonalSystem, coeffs, perms):
    """(seg, terms) for B pairs (a, perm): every term a_k x_k[c] of the rows
    along each perm, in scan order, with seg = b * dim + c.  The one place
    an index outside [0, n) is rejected (ValueError)."""
    ptr, cols, vals = sys.row_support
    perms = [np.asarray(p, dtype=np.intp) for p in perms]
    rows = np.concatenate(perms)
    if rows.size and (rows.min() < 0 or rows.max() >= len(sys)):
        raise ValueError(f"index out of range for {len(sys)} vectors")
    cnt = ptr[rows + 1] - ptr[rows]
    # positions of the scanned rows' nonzeros, rows in scan order
    pos = _spans(ptr[rows], cnt)
    w = np.concatenate([np.asarray(a, dtype=float)[p] for a, p in zip(coeffs, perms)])
    off = np.repeat(np.arange(len(perms)) * sys.space.dim, [len(p) for p in perms])
    return np.repeat(off, cnt) + cols[pos], np.repeat(w, cnt) * vals[pos]


def _sums(sys: BiorthogonalSystem, coeffs, perms, modulus: bool = False) -> np.ndarray:
    """(B, dim): row b is sum a_k x_k along perms[b] (of |a_k x_k| with
    modulus), each coordinate adding its terms in perm order from zero, so
    it is bit for bit the last row of a dense np.cumsum down the perm (up to
    the sign of zero)."""
    seg, terms = _gather(sys, coeffs, perms)
    return np.bincount(seg, np.abs(terms) if modulus else terms,
                       minlength=len(perms) * sys.space.dim).reshape(len(perms), -1)


def _column_scan(sys: BiorthogonalSystem, coeffs, perms):
    """Every value each occupied coordinate's prefix sum takes, for B pairs
    (a, perm), as (cells, table).

    A cell b * dim + c is occupied when some row along perms[b] is nonzero
    at c.  cells lists the occupied cells in ascending order, and row i of
    table is the running sum of cell cells[i]'s terms a_k x_k[c] along
    perms[b], gathered from the row support, stable-sorted by cell and
    zero-padded.  A dense scan adds only exact zeros between these terms
    and the padding repeats the last value, so the table holds its prefix
    values bit for bit (up to the sign of zero); the last column is the
    full sum, and an empty cell's prefix sums are all 0 (``_scatter``
    reads them so).  This is the one join kernel.
    """
    seg, terms = _gather(sys, coeffs, perms)
    order = np.argsort(seg, kind="stable")
    # each index array is freed once spent, so the scan holds no more than
    # _gather did (5 MB for the 150k terms of the typewriter pass at J=12)
    seg = seg[order]
    terms = terms[order]
    del order
    # cell i's run of terms is bounds[i] .. bounds[i + 1] - 1: a run starts
    # where the sorted cell index changes, and the last one ends at the end
    change = np.ones(len(seg) + 1, dtype=bool)
    np.not_equal(seg[1:], seg[:-1], out=change[1:-1])
    bounds = np.flatnonzero(change)
    starts, lens = bounds[:-1], bounds[1:] - bounds[:-1]
    cells = seg[starts]
    del seg
    width = int(lens.max(initial=1))
    # term j of the run starting at starts[i] lands in table[i, j - starts[i]]
    flat = np.repeat(np.arange(len(starts)) * width - starts, lens)
    flat += np.arange(len(flat))
    table = np.zeros((len(cells), width))
    table.ravel()[flat] = terms
    return cells, np.cumsum(table, axis=1, out=table)


def _scatter(cells, values, B: int, dim: int) -> np.ndarray:
    """(B, dim): values[i] at flat cell cells[i], 0 at every other cell."""
    out = np.zeros(B * dim)
    out[cells] = values
    return out.reshape(B, dim)


def _joins(sys: BiorthogonalSystem, coeffs, perms) -> np.ndarray:
    """(B, dim): row b is the coordinatewise max of |prefix sums| of a_k x_k
    along perms[b], 0 at every cell no scanned row touches.  The one
    reduction of the join kernel to joins."""
    cells, table = _column_scan(sys, coeffs, perms)
    return _scatter(cells, np.abs(table, out=table).max(axis=1), len(perms),
                    sys.space.dim)


def _ordered_join(sys: BiorthogonalSystem, a: np.ndarray, perm) -> np.ndarray:
    """Coordinatewise max of |prefix sums| along perm; zero for empty perm."""
    return _joins(sys, [a], [perm])[0]


def _join_ratios(sys: BiorthogonalSystem, pairs) -> list:
    """||join of |prefix sums| along A|| / ||x|| for each pair (a, A), with
    x = sum a_k x_k, or None where x is zero.  The pairs share one _joins
    call, and their sums one _sums call over the nonzero coefficients."""
    coeffs, perms = zip(*pairs)
    xs = _sums(sys, coeffs, [np.flatnonzero(a) for a in coeffs])
    return [sys.space.norm(join) / nx if (nx := sys.space.norm(x)) else None
            for join, x in zip(_joins(sys, coeffs, perms), xs)]


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
            self.indices = np.asarray(self.indices, dtype=int)
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
    scattered from the row support into a zeroed block: the previous block's
    last sum is added into each block's first row, then each row adds the
    one before it.  These are the additions of one np.cumsum(axis=0) in the
    same order, so the sums agree bit for bit, while only a block of rows
    is ever held.  (np.cumsum runs axis 0 of a C-ordered block as a strided
    inner loop, several times slower.)
    """
    ptr, cols, vals = sys.row_support
    peak, carry = -np.inf, None
    for start in range(0, len(perm), _SCAN_BLOCK):
        idx = perm[start : start + _SCAN_BLOCK]
        cnt = ptr[idx + 1] - ptr[idx]
        pos = _spans(ptr[idx], cnt)
        rows = np.zeros((len(idx), sys.space.dim))
        rows[np.repeat(np.arange(len(idx)), cnt), cols[pos]] = np.repeat(a[idx], cnt) * vals[pos]
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
    """Along indices, kvee's ordered set, or the index order (bibasis)."""
    r = _join_ratios(sys, [(a, np.arange(len(a)) if indices is None else indices)])[0]
    return (0.0, 0, indices) if r is None else (r, len(a), indices)


def _modulus_sum_ratio(sys, a, indices=None):
    k = np.flatnonzero(a)
    total, nx = (sys.space.norm(_sums(sys, [a], [k], modulus)[0])
                 for modulus in (True, False))
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
