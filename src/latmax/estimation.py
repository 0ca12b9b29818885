"""Numerical backends: matrix norms, a witness search, growth-law fits.

Everything here is deterministic for a fixed seed and budget.  The one
search, sup_search (seeded unit-sphere draws, then golden-section ascent),
certifies pnorm_bounds' lower bound by the witness that attained it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_DENSE_SVD_CUTOFF = 768
_LANCZOS_TOL = 1e-9  # |beta_k y_k| <= tol * theta ends a Lanczos run
_LANCZOS_CHECK = 8  # steps between Ritz-value checks
_LANCZOS_MAX_STEPS = 1000
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-10  # bracket width at which a line search stops
_ASCENT_SWEEPS = 3  # coordinate sweeps over the leader


def _top_eigenvalue(matvec, n: int):
    """Largest eigenvalue of a symmetric positive semidefinite operator on R^n.

    Lanczos from a seeded random start (a fixed structured start can be
    orthogonal to the top eigenvector), with full reorthogonalization, done
    twice, at every step.  Every 8 steps the top eigenpair (theta, y) of the
    tridiagonal is taken; the run stops when the residual |beta_k y_k| of
    the Ritz pair is at most 1e-9 theta, or on breakdown (an invariant
    Krylov space).  Returns (theta, steps, residual).  A Ritz value lies
    below the top eigenvalue; when it has converged to it, it lies within
    the residual of it.  Raises RuntimeError without convergence after
    min(n, 1000) steps.
    """
    cap = min(n, _LANCZOS_MAX_STEPS)
    Q = np.empty((cap + 1, n))
    q = np.random.default_rng(0).standard_normal(n)
    Q[0] = q / np.linalg.norm(q)
    alpha, beta = np.zeros(cap), np.zeros(cap)
    scale = 0.0
    for k in range(cap):
        w = matvec(Q[k])
        alpha[k] = Q[k] @ w
        for _ in range(2):
            w -= Q[: k + 1].T @ (Q[: k + 1] @ w)
        beta[k] = np.linalg.norm(w)
        scale = max(scale, abs(alpha[k]) + beta[k])
        breakdown = beta[k] <= 1e-14 * scale
        if breakdown or (k + 1) % _LANCZOS_CHECK == 0 or k + 1 == cap:
            T = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            vals, vecs = np.linalg.eigh(T)
            theta, residual = vals[-1], abs(beta[k] * vecs[-1, -1])
            if breakdown or residual <= _LANCZOS_TOL * theta:
                return float(theta), k + 1, float(residual)
        Q[k + 1] = w / beta[k]
    raise RuntimeError(f"Lanczos did not converge in {cap} steps "
                       f"(residual {residual:.3e}, theta {theta!r})")


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value.  Dense SVD below a size cutoff; above it, the
    square root of the top eigenvalue of v -> M^T (M v) over the smaller
    side, by the seeded Lanczos of _top_eigenvalue."""
    M = np.asarray(M, dtype=float)
    if min(M.shape) == 1:
        return float(np.linalg.norm(M))
    if max(M.shape) <= _DENSE_SVD_CUTOFF:
        return float(np.linalg.svd(M, compute_uv=False)[0])
    if M.shape[0] < M.shape[1]:
        M = M.T
    return math.sqrt(_top_eigenvalue(lambda v: M.T @ (M @ v), M.shape[1])[0])


def nuclear_norm(M: np.ndarray) -> float:
    """Sum of singular values (full decomposition; meant for n up to ~4096)."""
    M = np.asarray(M, dtype=float)
    return float(np.linalg.svd(M, compute_uv=False).sum())


@dataclass
class OperatorNormBounds:
    """Two-sided enclosure of an l_p -> l_p operator norm."""

    p: float
    lower: float     # certified by a witness: ||Mx||_p / ||x||_p
    upper: float     # exact for p in {1, 2, inf}, interpolation otherwise
    witness: np.ndarray | None = None


def _colsum_norm(M):
    return float(np.abs(M).sum(axis=0).max())


def _rowsum_norm(M):
    return float(np.abs(M).sum(axis=1).max())


def _riesz_thorin(p: float, s2: float, edge: float) -> float:
    """l_p operator norm bound from ||M||_2 = s2 and the exact endpoint on
    p's side of 2, edge = ||M||_1 for p < 2 and ||M||_inf for p > 2:
    ||M||_p lies below edge^(2/p-1) s2^(2-2/p) for p < 2, dually
    s2^(2/p) edge^(1-2/p) above 2 (Riesz-Thorin).  Gives the endpoint
    itself, exactly, at p = 1, 2, inf."""
    if not 1 <= p <= math.inf:
        raise ValueError("p must lie in [1, inf]")
    if p < 2:
        theta = 2.0 - 2.0 / p          # 1/p = (1-theta)/1 + theta/2
        return float(edge ** (1.0 - theta) * s2 ** theta)
    theta = 2.0 / p                    # 1/p = theta/2 + (1-theta)/inf
    return float(s2 ** theta * edge ** (1.0 - theta))


def pnorm_upper(M: np.ndarray, p: float) -> float:
    """l_p operator norm bound: exact for p = 1, 2, inf (column sums, SVD, row
    sums), else _riesz_thorin of the exact endpoints."""
    M = np.asarray(M, dtype=float)
    if p == 2:
        return spectral_norm(M)
    if p == 1:
        return _colsum_norm(M)
    if math.isinf(p):
        return _rowsum_norm(M)
    if not 1 < p < math.inf:
        raise ValueError("p must lie in [1, inf]")
    edge = _colsum_norm(M) if p < 2 else _rowsum_norm(M)
    return _riesz_thorin(p, spectral_norm(M), edge)


def pnorm_bounds(M: np.ndarray, p: float, budget: int = 2000,
                 seed: int = 0) -> OperatorNormBounds:
    """Enclose the l_p operator norm of a square matrix.

    The upper bound is `pnorm_upper`; it is also the lower bound where exact
    (p = 1, 2, inf), else a seeded random-ascent witness search on
    ||Mx||_p/||x||_p gives the lower bound.  Raises RuntimeError when that
    witness lands above the upper bound beyond rounding, since one of the
    two certificates is then wrong.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    upper = pnorm_upper(M, p)
    if p in (1, 2) or math.isinf(p):
        return OperatorNormBounds(float(p), upper, upper)

    def ratio(w):
        w = np.asarray(w, dtype=float)
        nw = np.linalg.norm(w, ord=p)
        return float(np.linalg.norm(M @ w, ord=p) / nw) if nw > 0 else 0.0

    res = sup_search(ratio, M.shape[1], max(8, budget // 40), budget, seed)
    if res.value > upper * (1.0 + 1e-9):
        raise RuntimeError(f"witness ratio {res.value!r} above the upper "
                           f"bound {upper!r}")
    return OperatorNormBounds(float(p), res.value, upper, res.witness)


@dataclass
class SearchResult:
    value: float
    witness: np.ndarray
    evaluations: int


def _golden_max(f, lo: float, hi: float, max_evals: int):
    """Golden-section maximization on [lo, hi] with at most max_evals (>= 2)
    evaluations of f; returns (arg, value, evals)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while (b - a) > _GOLDEN_TOL and evals < max_evals:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        evals += 1
    if fc >= fd:
        return c, fc, evals
    return d, fd, evals


def sup_search(objective, dim: int, count: int, budget: int,
               seed: int = 0) -> SearchResult:
    """Maximize objective(coeffs) over R^dim in <= budget evaluations.

    `count` unit-sphere draws from default_rng(seed) come first, then the
    leader is polished by coordinatewise golden-section ascent, so enlarging
    the budget never loses a previously found witness.  Raises ValueError
    when count or budget is zero.
    """
    rng = np.random.default_rng(seed)
    best_val, best_wit, evals = -math.inf, None, 0
    for _ in range(min(count, budget)):
        w = rng.normal(size=dim)
        nrm = np.linalg.norm(w)
        if nrm > 0:
            w = w / nrm
        v = float(objective(w))
        evals += 1
        if v > best_val:
            best_val, best_wit = v, w
    if best_wit is None:
        raise ValueError("no draws or zero budget")

    x = best_wit.copy()
    for _ in range(_ASCENT_SWEEPS):
        for i in range(dim):
            if budget - evals < 2:  # a line search needs two points
                break
            radius = max(1.0, 2.0 * abs(x[i]))

            def axis_obj(t, i=i, x=x):
                y = x.copy()
                y[i] = t
                return float(objective(y))

            t, v, used = _golden_max(axis_obj, x[i] - radius,
                                     x[i] + radius, budget - evals)
            evals += used
            if v > best_val:
                x[i] = t
                best_val, best_wit = v, x.copy()
    return SearchResult(best_val, best_wit, evals)


@dataclass
class GrowthFit:
    """Least-squares fit of v ~ c * n^a * log(n)^b in log space."""

    c: float
    a: float
    b: float
    residual: float
    sample: tuple = field(default=())

    def to_json(self) -> dict:
        return {
            "model": "c * n^a * log(n)^b",
            "c": self.c,
            "a": self.a,
            "b": self.b,
            "residual": self.residual,
            "sample": [[float(n), float(v)] for n, v in self.sample],
        }


def growth_fit(sample) -> GrowthFit:
    """Fit (n, v) pairs to c * n^a * log(n)^b.

    Regression runs on (log n, log log n); a ridge of 1e-9 on b breaks the
    near-collinearity of the regressors toward b = 0.  Needs at least four
    samples with strictly increasing n >= 2 and positive values.
    """
    pts = [(float(n), float(v)) for n, v in sample]
    if len(pts) < 4:
        raise ValueError("growth_fit needs at least 4 samples")
    ns = np.array([n for n, _ in pts])
    vs = np.array([v for _, v in pts])
    if np.any(ns[1:] <= ns[:-1]):
        raise ValueError("sample n must be strictly increasing")
    if np.any(ns < 2) or np.any(vs <= 0):
        raise ValueError("need n >= 2 and values > 0")
    ln = np.log(ns)
    lln = np.log(ln)
    y = np.log(vs)
    X = np.column_stack([np.ones_like(ln), ln, lln])
    G = X.T @ X
    G[2, 2] += 1e-9
    beta = np.linalg.solve(G, X.T @ y)
    r = y - X @ beta
    fit = GrowthFit(float(math.exp(beta[0])), float(beta[1]), float(beta[2]),
                    float(np.sqrt(np.mean(r * r))), tuple(pts))
    return fit
