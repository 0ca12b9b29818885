"""Sign-matrix vectors straddling a sup block and an l2 block.

u_k puts a unit spike at coordinate k of the sup block and a scaled
Walsh row 2^{-n} h_k on the l2 block.  Orthogonality of the rows makes
every signed sum collapse: ||sum_k eps_k u_k|| = max(1, 2^{-n/2}) = 1 for
all 2^(2^n) sign patterns, while the modulus sum fills both blocks with
ones and costs 2^{n/2}.  The gap between those two numbers is the whole
point of the construction.

Large n never materializes the 2^n x 2^n sign matrix; batch Walsh transforms,
two small Sylvester products by the Kronecker split, evaluate the l2 block.
The Sylvester matrices themselves are built by doubling in numpy.

The sign sweep runs in float32 and loses nothing: a +/-1 row of length 2^n
(n <= 14) has a Walsh transform whose every partial sum, in either product
and in any summation order, is an integer of magnitude at most 2^14, well
inside float32's exact integers (below 2^24).  The squared l2 norms are
summed in float64, where each is an integer below 2^53, so the square roots
see the same operands as the float64 path and return the same bits.
Gaussian coefficients (the unconditionality window) stay in float64.  Every
stream runs in batches of systems._batch_size rows; none depends on the split.
Both sweeps draw their +/-1 rows from one generator, _sign_rows, with one
bits-to-signs step: the exhaustive sweep (n <= 4) from the counter words
of its rows, so it never holds its 2^(2^n)-row cube, the sampled one from
the seeded generator's uint32 words.
"""

from __future__ import annotations

import functools

import numpy as np

from latmax.spaces import DirectSum, Element, LpBlock, SupBlock
from latmax.systems import BiorthogonalSystem, _batch_size

_MATRIX_LIMIT = 10  # largest n whose 2^n x 2^n matrix we will hold
_SIZE_LIMIT = 14
_EXHAUSTIVE_LIMIT = 4  # 2^(2^4) = 65536 patterns is still enumerable


def walsh_matrix(n: int) -> np.ndarray:
    """Sylvester sign matrix of order 2^n (symmetric, entries +/-1)."""
    if not 0 <= n <= _MATRIX_LIMIT:
        raise ValueError(f"n must be in 0..{_MATRIX_LIMIT} to materialize")
    H = np.ones((1, 1))
    for _ in range(n):
        H = np.block([[H, H], [H, -H]])
    return H


@functools.lru_cache(maxsize=None)
def _factor(k: int, dtype=np.float64) -> np.ndarray:
    """Read-only walsh_matrix(k) in `dtype`, built once per order and dtype."""
    H = walsh_matrix(k).astype(dtype, copy=False)
    H.flags.writeable = False
    return H


def fwht_rows(X, work=None) -> np.ndarray:
    """Walsh transform of each row (multiplication by the Sylvester matrix).

    H_n = H_lo (x) H_hi with lo = n // 2 maps a row, viewed as a 2^lo x 2^hi
    array, to H_lo @ row @ H_hi: one GEMM by H_hi, one stacked product by
    H_lo, rows up to 2^(2 * _MATRIX_LIMIT) wide.  float32 input is
    transformed in float32, anything else in float64.

    Integer rows are transformed exactly whatever the GEMMs' summation
    order, as long as every partial sum stays an integer the dtype holds:
    for +/-1 rows of length 2^n each partial sum of either product adds at
    most 2^n terms of +/-1, so its magnitude is at most 2^n <= 2^14, far
    below float32's 2^24.  The float32 transform of a sign row is then
    bitwise the float64 one, at half the memory traffic, and its squared
    l2 norm is an integer below 2^53, which float64 sums exactly in any
    order: its square root is bitwise np.linalg.norm's.

    With a `work` array of X's size and dtype, the first product goes into
    work and the second into X, which then holds the result: a stream of
    batches allocates nothing per batch.
    """
    X = np.asarray(X)
    if X.dtype != np.float32:
        X = X.astype(np.float64, copy=False)
    if X.ndim != 2:
        raise ValueError("expected a batch of rows")
    m = X.shape[1]
    if m < 1 or m & (m - 1):
        raise ValueError("row length must be a power of two")
    lo, hi = (m.bit_length() - 1) // 2, m.bit_length() // 2  # lo + hi = n
    dtype, shape = X.dtype.type, (len(X), 2 ** lo, 2 ** hi)
    first, second = (None, None) if work is None else (work.reshape(-1, 2 ** hi),
                                                        X.reshape(shape))
    Y = np.matmul(X.reshape(-1, 2 ** hi), _factor(hi, dtype), out=first)
    return np.matmul(_factor(lo, dtype), Y.reshape(shape), out=second).reshape(len(X), m)


def _l2_part(n: int, rows, work=None) -> np.ndarray:
    """2^{-n} * ||row @ H||_2 for each row: the l2 block's share of the host
    norm.  float32 (sign) rows have their squared l2 norms summed in
    float64, exactly (see fwht_rows).  float64 rows are squared in place
    and summed along each row: np.linalg.norm's own steps, so its bits.
    With `work`, the rows are transformed in place (fwht_rows)."""
    Y = fwht_rows(rows, work)
    if Y.dtype == np.float32:
        l2_norms = np.sqrt(np.einsum("ij,ij->i", Y, Y, dtype=np.float64))
    else:
        l2_norms = np.sqrt(np.add.reduce(np.multiply(Y, Y, out=Y), axis=1))
    return 2.0 ** -n * l2_norms


def mixed_sum_norms(n: int, rows) -> np.ndarray:
    """Host norms of sum_k rows[i, k] * u_k, one value per batch row.

    The sup block contributes max_k |rows[i, k]| and the l2 block
    2^{-n} * ||row @ H||_2; the host takes the larger.
    """
    rows = np.atleast_2d(np.asarray(rows))
    if rows.dtype != np.float32:
        rows = rows.astype(np.float64, copy=False)
    if rows.shape[1] != 2 ** n:
        raise ValueError("coefficient length must be 2^n")
    return np.maximum(np.max(np.abs(rows), axis=1), _l2_part(n, rows))


def _norm_range(n: int, batches):
    """(min, max, count) of mixed_sum_norms over a stream of row batches
    whose largest |entry| is exactly 1 in every row.

    The sup part of each norm is then exactly 1.0, so only the l2 part is
    computed: max(1.0, l2) is mixed_sum_norms bit for bit.  Each batch is
    transformed in place, through one work array as large as the first
    batch, so no batch allocates a full-size temporary.
    """
    low, high, count, work = np.inf, -np.inf, 0, None
    for batch in batches:
        if work is None:
            work = np.empty_like(batch)
        norms = np.maximum(1.0, _l2_part(n, batch, work[:len(batch)]))
        low = min(low, float(norms.min()))
        high = max(high, float(norms.max()))
        count += len(norms)
    return low, high, count


def _sign_rows(m: int, total: int, rng=None):
    """`total` +/-1 rows of length m, float32 views of one reused buffer, a
    batch at a time: each row's bits, least significant first, unpacked
    once and mapped to 2 * bit - 1.  Without rng the bits are the rows'
    counters: row w of the sign cube (m <= 16) takes +1 in column k when
    bit k of w is set.  With rng they are m / 32 of its uint32 words a row,
    which gives rng.integers(0, 2, (total, m), dtype=bool)'s rows however
    split and leaves rng where that draw leaves it, since it takes its
    bools least significant bit first from successive 32-bit words."""
    step = _batch_size(m)
    buffer = np.empty((min(step, total), m), dtype=np.float32)
    for s in range(0, total, step):
        rows = buffer[:min(step, total - s)]
        words = (np.arange(s, s + len(rows), dtype="<u4") if rng is None else
                 rng.integers(0, 2 ** 32, size=rows.size // 32, dtype=np.uint32))
        bits = np.unpackbits(words.astype("<u4", copy=False).view(np.uint8),
                             bitorder="little").reshape(len(rows), -1)
        np.multiply(bits[:, :m], np.float32(2.0), out=rows)
        rows -= 1.0
        yield rows


def sign_pattern_sweep(n: int, samples: int = 10000, seed: int = 0) -> dict:
    """Largest and smallest signed-sum norm over sign patterns.

    n <= 4 enumerates every pattern, larger n draws `samples` of them from
    default_rng(seed), one batch of _sign_rows at a time; either way the
    norms land exactly on 1 because the Walsh rows are orthogonal, so
    max == min == 1.0 is the expected outcome.  Both modes evaluate
    float32 +/-1 rows: their sup part is 1 and their l2 part is exact (see
    fwht_rows).
    """
    if not 1 <= n <= _SIZE_LIMIT:
        raise ValueError(f"n must be in 1..{_SIZE_LIMIT}")
    m = 2 ** n
    if n <= _EXHAUSTIVE_LIMIT:
        rows, mode = _sign_rows(m, 2 ** m), "exhaustive"
    else:
        rows, mode = _sign_rows(m, samples, np.random.default_rng(seed)), "sampled"
    best, worst, count = _norm_range(n, rows)
    return {"max": worst, "min": best, "count": count, "mode": mode}


def unconditionality_window(n: int, count: int = 1000, seed: int = 0) -> dict:
    """Check max|a| <= ||sum a_k u_k|| <= 3 max|a| on random coefficients.

    The host actually gives equality with the left end; both window ends
    are returned as observed ratios against max|a| = 1.  Coefficients are
    drawn a batch at a time into one reused buffer and normalized in place,
    so memory does not grow with count.
    """
    rng = np.random.default_rng(seed)
    step = _batch_size(2 ** n)
    buffer = np.empty((min(step, count), 2 ** n))
    draws = (rng.standard_normal(out=buffer[:min(step, count - s)])
             for s in range(0, count, step))
    # max|a| = max(max a, -min a) takes no abs copy, and each row over it
    # peaks at exactly 1: x / x == 1 in IEEE arithmetic, |a_j| / max|a| <= 1
    low, high, _ = _norm_range(
        n, (np.divide(a, np.maximum(a.max(1, keepdims=True),
                                    -a.min(1, keepdims=True)), out=a)
            for a in draws))
    return {"low": low, "high": high, "count": count}


def modulus_sum(n: int) -> Element:
    """sum_k |u_k| for size n, for every admissible n, without building the
    system: ones on both blocks of the host, norm exactly 2^{n/2}."""
    if not 1 <= n <= _SIZE_LIMIT:
        raise ValueError(f"n must be in 1..{_SIZE_LIMIT}")
    m = 2 ** n
    host = DirectSum(np.inf, [SupBlock(m), LpBlock(m, 2.0)])
    # each l2 column collects 2^n entries of modulus 2^{-n}
    return Element(host, np.ones(2 * m))


def hadamard_mixed(n: int):
    """(system, modulus_sum(n)) for size n; system is None past the matrix
    limit.

    The biorthogonal system (functionals = sup-block spikes) only exists
    while the sign matrix fits in memory.
    """
    total = modulus_sum(n)
    system = None
    if n <= _MATRIX_LIMIT:
        m = 2 ** n
        V = np.hstack([np.eye(m), 2.0 ** -n * walsh_matrix(n)])
        F = np.hstack([np.eye(m), np.zeros((m, m))])
        system = BiorthogonalSystem(total.space, V, F)
    return system, total
