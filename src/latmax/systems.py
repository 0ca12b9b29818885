"""Biorthogonal systems and lower-bound constant reports.

A system pairs vectors x_k with coefficient functionals f_k, both stored as
dense coordinate rows over one host space.  Functionals pair with elements by
the plain (unweighted) dot product; constructions over weighted hosts bake
their weights into the functional coordinates.  Ordered joins and the
typewriter pass scan only the nonzeros of the vector rows, column by column
(``_column_scan``).

Constants (basis, bidemocracy-style joins, absolute bounds, greedy variants)
are always reported as certified lower bounds together with the witness that
attained them.
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

_CHECK_CUTOFF = 512  # full gram validation below, sampled above
_GRAM_TOL = 1e-9  # largest |f_j(x_k) - delta_jk| a system may show
_SCAN_BLOCK = 64  # rows per per-prefix norm block, candidates per kvee join


class BiorthogonalSystem:
    """Vectors and functionals as aligned rows over a common host."""

    def __init__(self, space: SpaceDescriptor, vectors, functionals,
                 labels=None, check: bool = True):
        V = np.asarray(vectors, dtype=float)
        F = np.asarray(functionals, dtype=float)
        if V.ndim != 2 or V.shape[1] != space.dim:
            raise ValueError(f"vectors must be (n, {space.dim})")
        if F.shape != V.shape:
            raise ValueError("functionals must match vectors in shape")
        self.space = space
        self.vectors = V
        self.functionals = F
        n = V.shape[0]
        self.labels = tuple(labels) if labels is not None else tuple(
            f"e{k}" for k in range(n))
        if len(self.labels) != n:
            raise ValueError("labels length mismatch")
        if check:
            self._check_gram()

    def _check_gram(self):
        n = len(self)
        if n <= _CHECK_CUTOFF:
            gram = self.functionals @ self.vectors.T
            err = np.abs(gram - np.eye(n)).max()
        else:
            # sampled rows keep the check affordable on big systems; a mask,
            # not np.unique, which loads numpy.ma on first use
            picked = np.zeros(n, dtype=bool)
            picked[:8] = picked[-1] = True
            picked[np.random.default_rng(0).integers(0, n, size=64)] = True
            rows = np.flatnonzero(picked)
            gram = self.functionals[rows] @ self.vectors.T
            eye = np.zeros((len(rows), n))
            eye[np.arange(len(rows)), rows] = 1.0
            err = np.abs(gram - eye).max()
        if err > _GRAM_TOL:
            raise ValueError(f"biorthogonality violated: max error {err:.3e}")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @functools.cached_property
    def row_support(self):
        """Nonzeros of ``vectors`` as CSR (indptr, cols, vals), derived on the
        first join and cached: a system's arrays must not be mutated."""
        flat = np.flatnonzero(self.vectors != 0)
        dim = self.vectors.shape[1]
        indptr = np.searchsorted(flat, np.arange(len(self) + 1) * dim)
        return indptr, flat % dim, self.vectors.ravel()[flat]


def _coords(sys: BiorthogonalSystem, x) -> np.ndarray:
    if isinstance(x, Element):
        if x.space != sys.space:
            raise ValueError("element lives in a different space")
        return x.coords
    return np.asarray(x, dtype=float)


def coefficients(sys: BiorthogonalSystem, x) -> np.ndarray:
    """f_k(x) for every k, via the unweighted pairing."""
    return sys.functionals @ _coords(sys, x)


def reconstruct(sys: BiorthogonalSystem, coeffs) -> Element:
    """sum_k a_k x_k as an element of the host."""
    a = np.asarray(coeffs, dtype=float)
    if len(a) > len(sys):
        raise ValueError("more coefficients than vectors")
    return Element(sys.space, a @ sys.vectors[: len(a)])


def _column_scan(sys: BiorthogonalSystem, coeffs, perms) -> np.ndarray:
    """Every value each coordinate's prefix sum takes, for B pairs (a, perm).

    Row (b, c) of the (B, dim, width) table is the running sum of the terms
    a_k x_k[c] along perms[b], gathered from the row support, stable-sorted
    by (pair, coordinate) and zero-padded.  A dense scan adds only exact
    zeros between these terms and the padding repeats the last value, so
    the table holds its prefix values bit for bit (up to the sign of zero);
    the last column is the full sum.  This is the one join kernel, and the
    one place an index outside [0, n) is rejected (ValueError).
    """
    ptr, cols, vals = sys.row_support
    dim, B = sys.space.dim, len(perms)
    perms = [np.asarray(p, dtype=np.intp) for p in perms]
    rows = np.concatenate(perms)
    if rows.size and (rows.min() < 0 or rows.max() >= len(sys)):
        raise ValueError(f"index out of range for {len(sys)} vectors")
    cnt = ptr[rows + 1] - ptr[rows]
    # positions of the scanned rows' nonzeros, rows in scan order
    pos = np.repeat(ptr[rows] - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
    w = np.concatenate([np.asarray(a, dtype=float)[p] for a, p in zip(coeffs, perms)])
    off = np.repeat(np.arange(B) * dim, [len(p) for p in perms])
    seg = np.repeat(off, cnt) + cols[pos]
    order = np.argsort(seg, kind="stable")
    seg = seg[order]
    seg_len = np.bincount(seg, minlength=B * dim)
    slot = np.arange(len(seg)) - (np.cumsum(seg_len) - seg_len)[seg]
    table = np.zeros((B * dim, max(1, seg_len.max())))
    table[seg, slot] = (np.repeat(w, cnt) * vals[pos])[order]
    return np.cumsum(table, axis=1, out=table).reshape(B, dim, -1)


def _ordered_join(sys: BiorthogonalSystem, a: np.ndarray, perm) -> np.ndarray:
    """Coordinatewise max of |prefix sums| along perm; zero for empty perm."""
    return np.abs(_column_scan(sys, [a], [perm])[0]).max(axis=1)


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


def _ratio_search(sys, witnesses, ratio_fn, name):
    """Best witness under ratio_fn(sys, a) -> (ratio, support size), or
    (ratio, support size, ordered index set) where the ratio depends on an
    ordering the witness alone does not fix; the winner's set is stored.

    Every witness is traced as (id, ratio, m); a zero-support witness,
    the empty one included, is traced with m = 0 but never kept.
    """
    best_val, best_wit, best_idx = -np.inf, None, None
    rows = []
    for wid, w in enumerate(witnesses):
        a = np.asarray(w, dtype=float)
        r, m, *order = ratio_fn(sys, a) if len(a) else (0.0, 0)
        rows.append((wid, float(r), int(m)))
        if m and r > best_val:
            best_val, best_wit, best_idx = r, a, order[0] if order else None
    if best_wit is None:
        raise ValueError("no witness with nonzero support")
    return ConstantReport(name, float(best_val), best_wit, "structured_family",
                          len(rows), indices=best_idx, rows=tuple(rows))


def _peak_prefix_norm(sys, a, perm):
    """(max norm over the prefix sums along perm, norm of the last one).

    The sums are formed _SCAN_BLOCK rows at a time: the previous block's
    last sum is added into each block's first row, then each row adds the
    one before it.  These are the additions of one np.cumsum(axis=0) in the
    same order, so the sums agree bit for bit, while only a block of rows
    is ever held.  (np.cumsum runs axis 0 of a C-ordered block as a strided
    inner loop, several times slower.)
    """
    peak, carry = -np.inf, None
    for start in range(0, len(perm), _SCAN_BLOCK):
        idx = perm[start : start + _SCAN_BLOCK]
        rows = a[idx][:, None] * sys.vectors[idx]
        if carry is not None:
            rows[0] += carry
        for i in range(1, len(rows)):
            rows[i] += rows[i - 1]
        carry = rows[-1]
        norms = sys.space.norms(rows)
        peak = np.maximum(peak, norms.max())
    return peak, norms[-1]


def _prefix_norm_ratio(sys, a):
    peak, full = _peak_prefix_norm(sys, a, np.arange(len(a)))
    return peak / full, len(a)


def _prefix_join_ratio(sys, a):
    table = _column_scan(sys, [a], [np.arange(len(a))])[0]
    full = sys.space.norms(table[None, :, -1])[0]
    return sys.space.norm(np.abs(table).max(axis=1)) / full, len(a)


def _modulus_sum_ratio(sys, a):
    m = len(a)
    total = np.abs(a) @ np.abs(sys.vectors[:m])
    return sys.space.norm(total) / sys.space.norm(a @ sys.vectors[:m]), m


def basis_constant(sys: BiorthogonalSystem, witnesses) -> ConstantReport:
    """max over witnesses of max_n ||P_n|| / ||full sum||, a lower bound for
    the partial-sum constant."""
    return _ratio_search(sys, witnesses, _prefix_norm_ratio, "basis")


def bibasis_constant(sys: BiorthogonalSystem, witnesses) -> ConstantReport:
    """max over witnesses of ||join of |P_n||| / ||full sum||."""
    return _ratio_search(sys, witnesses, _prefix_join_ratio, "bibasis")


def absolute_constant(sys: BiorthogonalSystem, witnesses) -> ConstantReport:
    """max over witnesses of ||sum |a_k x_k||| / ||sum a_k x_k||."""
    return _ratio_search(sys, witnesses, _modulus_sum_ratio, "absolute")


def recompute_constant(sys: BiorthogonalSystem, report: ConstantReport) -> float:
    """Re-evaluate a stored witness; used to audit report round-trips."""
    # the name -> ratio table lives with the greedy ratios, which build on
    # this module
    from latmax.greedy import recompute_greedy_constant
    return recompute_greedy_constant(sys, report)


def witness_rows_csv(report: ConstantReport) -> str:
    """Per-witness trace as CSV text (witness id, ratio, m)."""
    lines = ["witness,ratio,m"]
    for wid, ratio, m in report.rows:
        lines.append(f"{wid},{ratio!r},{m}")
    return "\n".join(lines) + "\n"
