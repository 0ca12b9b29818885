"""Harmonic-kernel perturbation of the l_p basis, plus its trace-dual twin.

The antisymmetric kernel T has entries 1/(i - j) off the diagonal.  Scaling
it to S = alpha*T with ||S|| <= 1/2 and placing S-shadows across two l_p
blocks gives a basis of l_p + l_p whose change-of-basis matrix A = I + B is
invertible by Neumann series.  The basis is 3-equivalent to the plain l_p
basis, yet the running join of the first-block prefix sums picks up a
harmonic number in every shadow coordinate, which is what makes the maximal
partial-sum operator large.

All prefix quantities for the constant-coefficient witness reduce to
harmonic-number closed forms, so large-n values need no dense linear
algebra; the dense route exists for cross-checking at small n.  The
kernel gauge follows suit at every n: it applies T by FFT through a
circulant embedding and finds ||T|| by Lanczos, and it takes the row and
column sums from harmonic numbers, so no n x n array is formed.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# spectral_norm stays bound here: benchmarks/tests checks the tracer rewraps it
from latmax.estimation import _riesz_thorin, _top_eigenvalue, spectral_norm
from latmax.spaces import DirectSum, LpBlock
from latmax.systems import BiorthogonalSystem

_DENSE_LIMIT = 512
_NEUMANN_TOL = 1e-12  # max-norm residual of A X - I that ends the iteration
_NEUMANN_MAX_ITER = 200


def harmonic_numbers(n: int) -> np.ndarray:
    """H_0..H_n with H_0 = 0."""
    H = np.zeros(n + 1)
    H[1:] = np.cumsum(1.0 / np.arange(1, n + 1))
    return H


def hilbert_kernel(n: int) -> np.ndarray:
    """The n x n antisymmetric matrix with entries 1/(i - j), zero diagonal,
    inverted in place over the differences (i - i is +0.0, kept)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    T = np.subtract.outer(np.arange(n, dtype=float), np.arange(n, dtype=float))
    return np.divide(1.0, T, out=T, where=T != 0)


def kernel_gauge(n: int, p: float = 2.0) -> float:
    """Gauge of the kernel's l_p operator norm for the half-contraction
    scaling below: ||T||_2 at p = 2, else the interpolated row/column-sum
    bound, an over-estimate.

    ||T||_2 is the Ritz value of _fft_spectral_norm, low by at most 5e-10
    relative (gauge_route says why), which the 1 + 1e-9 shave of
    kernel_scaling covers.  Row i and column i of |T| both sum to
    H_i + H_{n-1-i}.
    """
    H = harmonic_numbers(n)
    edge = float(np.max(H[:n] + H[n - 1 :: -1]))
    return _riesz_thorin(p, _fft_spectral_norm(n)[0], edge)


def kernel_scaling(n: int, p: float = 2.0) -> float:
    """alpha: 1/2 over the gauge shaved by 1 + 1e-9, so ||alpha T||_p < 1/2."""
    return 0.5 / (kernel_gauge(n, p) * (1.0 + 1e-9))


@functools.lru_cache(maxsize=None)
def _fft_spectral_norm(n: int):
    """(||T||_2, Lanczos steps, residual) without forming T.

    T is the leading n x n block of the 2n-circulant with first column
    c = [0, 1, 1/2, ..., 1/(n-1), 0, -1/(n-1), ..., -1], so
    T x = irfft(rfft(c) rfft(x, 2n))[:n] (Strang 1986).  T^T = -T, so
    ||T||^2 is the top eigenvalue of x -> -T(T x).
    """
    k = np.arange(1.0, n)
    fc = np.fft.rfft(np.concatenate([[0.0], 1.0 / k, [0.0], -1.0 / k[::-1]]))

    def apply(x):
        return np.fft.irfft(fc * np.fft.rfft(x, 2 * n), 2 * n)[:n]

    theta, steps, residual = _top_eigenvalue(lambda x: -apply(apply(x)), n)
    return math.sqrt(theta), steps, residual


def gauge_route(n: int) -> dict:
    """How kernel_gauge(n, p) finds ||T||_2: "fft_lanczos", with the step
    count and final residual of the Lanczos run on -T^2.

    The Ritz value theta = gauge^2 lies below ||T||^2, and (once converged
    to it) within the residual, which Lanczos holds to 1e-9 theta.  So the
    gauge is low by at most residual / (2 theta) relative, at most 5e-10:
    inside the shave of kernel_scaling.
    """
    _, steps, residual = _fft_spectral_norm(n)
    return {"route": "fft_lanczos", "steps": steps, "residual": residual}


def neumann_blocks(S: np.ndarray):
    """Invert I + [[0, -S], [S, 0]] by the fixed-point iteration X <- I - BX.

    The inverse inherits the block shape [[E, F], [-F, E]], so only the two
    n x n blocks are iterated.  Converges geometrically at rate ||S|| (< 1/2
    by construction); returns (E, F, iterations, residual) where residual is
    the max-norm of A X - I at exit, below 1e-12.

    Raises RuntimeError if that is not reached within 200 iterations, which
    for a half-contraction S would indicate a broken scaling upstream.
    """
    n = len(S)
    eye = np.eye(n)
    E, F = eye.copy(), np.zeros((n, n))
    for it in range(1, _NEUMANN_MAX_ITER + 1):
        E, F = eye - S @ F, S @ E
        residual = max(np.max(np.abs(E + S @ F - eye)),
                       np.max(np.abs(F - S @ E)))
        if residual < _NEUMANN_TOL:
            return E, F, it, residual
    raise RuntimeError(f"Neumann iteration stalled at residual {residual:.3e}")


def operator_extremes(S: np.ndarray):
    """(||A||_2, ||A^-1||_2) for A = I + [[0, -S], [S, 0]].

    For antisymmetric S the block [[0, -S], [S, 0]] is symmetric with
    eigenvalues +/- sigma_i(S), so s = ||S||_2 gives both: 1 + s and
    1 / (1 - s), or inf when s >= 1 (A is then not positive definite), so
    the caller's checks judge it.  Raises ValueError unless S is
    antisymmetric.
    """
    S = np.asarray(S, dtype=float)
    if not np.array_equal(S, -S.T):
        raise ValueError("S must be antisymmetric")
    s = spectral_norm(S)
    return 1.0 + s, 1.0 / (1.0 - s) if s < 1.0 else math.inf


def _shadow_profiles(n: int, alpha: float, p: float):
    """Closed-form second-block coordinates of the witness and its join.

    Coordinate k of S applied to the full first-block sum is
    alpha*(H_k - H_{n-1-k}); along shorter prefixes the same coordinate
    sweeps up to alpha*H_k, so the prefix-join profile is the max of the
    two magnitudes.
    """
    H = harmonic_numbers(n)
    s = H[:n] - H[n - 1 :: -1]
    M = np.maximum(H[:n], np.abs(s))
    x_norm = (n + alpha ** p * np.sum(np.abs(s) ** p)) ** (1.0 / p)
    join_norm = (n + alpha ** p * np.sum(M ** p)) ** (1.0 / p)
    return s, M, x_norm, join_norm


def prefix_join_norm(n: int, p: float, alpha: float) -> float:
    """||join of |first k basis vectors summed|, k <= n|| in closed form."""
    return _shadow_profiles(n, alpha, p)[3]


def witness_norm(n: int, p: float, alpha: float) -> float:
    """||sum of the first n basis vectors|| in closed form."""
    return _shadow_profiles(n, alpha, p)[2]


def certificate_series(ns, p: float = 2.0):
    """Lower-bound series alpha0*(sum_{j<n} H_j^p)^{1/p}, one value per n.

    Each term bounds the corresponding prefix-join norm from below because
    alpha0 is at most every per-n scaling: the p = 2 kernel norms increase
    to pi, so alpha0 = 1/(2 pi) under-scales them all.  For p != 2 alpha0
    is 1/2 over the kernel gauge of the largest requested n.  A fixed
    alpha0 keeps the series clean of the drift the per-n scaling would
    add, which matters when fitting its growth.
    """
    ns = sorted(int(n) for n in ns)
    if not ns or ns[0] < 2:
        raise ValueError("need sizes >= 2")
    alpha0 = 1.0 / (2.0 * math.pi) if p == 2.0 else 0.5 / kernel_gauge(ns[-1], p)
    H = harmonic_numbers(ns[-1])
    powers = np.cumsum(H[: ns[-1]] ** p)
    return [(n, float(alpha0 * powers[n - 1] ** (1.0 / p))) for n in ns]


def triangular_basis(n: int, p: float = 2.0):
    """Build the perturbed basis over l_p^n + l_p^n with its witness data.

    Vectors: v_i = e_i + (shadow S e_i), then w_j = (shadow -S e_j) + e_j.
    Functionals are the rows of the Neumann inverse of A.  Returns
    (system, alpha), alpha the kernel scaling; `witness_norm` and
    `prefix_join_norm` give the closed-form norms of the constant-coefficient
    witness x = sum v_i and of its prefix join.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense build capped at n = {_DENSE_LIMIT}")
    alpha = kernel_scaling(n, p)
    S = alpha * hilbert_kernel(n)

    rng = np.random.default_rng(0)
    for _ in range(8):
        z = rng.standard_normal(n)
        if not np.linalg.norm(S @ z, p) <= 0.5 * np.linalg.norm(z, p):
            raise RuntimeError("scaled kernel is not a half-contraction")

    E, F, _, _ = neumann_blocks(S)
    eye = np.eye(n)
    V = np.vstack([np.hstack([eye, S.T]), np.hstack([-S.T, eye])])
    funcs = np.vstack([np.hstack([E, F]), np.hstack([-F, E])])
    host = DirectSum(p, [LpBlock(n, p), LpBlock(n, p)])
    system = BiorthogonalSystem(host, V, funcs)

    x_norm = witness_norm(n, p, alpha)
    if not x_norm <= 1.5 * n ** (1.0 / p) + 1e-9:
        raise RuntimeError(f"witness norm {x_norm!r} above 1.5 n^(1/p)")
    return system, alpha


# ----------------------------------------------------------- trace duality


def tau_singular_values(n: int) -> np.ndarray:
    """Exact spectrum of the summation matrix: half inverse sines."""
    k = np.arange(1, n + 1)
    return 0.5 / np.sin((2 * k - 1) * np.pi / (2.0 * (2 * n + 1)))


def trace_dual_certificate(n: int):
    """Duality floor for the nuclear norm of the summation matrix.

    Pairing the kernel entrywise against tau sums 1/(k - l) over k > l,
    which telescopes to a harmonic double sum; dividing by the kernel's
    uniform spectral bound pi floors ||tau||_nuclear from below.  The
    floor sits well under the actual nuclear norm (both grow like
    n log n); the caller checks the inequality.

    Returns (double_sum, entrywise, nuclear, floor).  Of the two pairing
    totals, the double sum runs over H_1..H_n, and the strict entrywise
    sum stops one harmonic number earlier at H_1..H_{n-1} =
    n*H_{n-1} - (n-1).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    H = harmonic_numbers(n)
    double_sum = float(H[1:].sum())
    entrywise = float(n * H[n - 1] - (n - 1))
    nuclear = float(tau_singular_values(n).sum())
    return double_sum, entrywise, nuclear, double_sum / math.pi
