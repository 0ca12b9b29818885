"""End-to-end value gates for the whole package.

One test per gate, so `pytest -v` prints one pass/fail line for each.
Every numeric target here is either a closed form, an enumeration, or a
pinned value recomputed independently before the implementation existed;
tolerances are stated inline and are not tuned to the code under test.
"""

import math
import time

import numpy as np
from scipy.linalg import block_diag, hadamard

from latmax.constructions.haar import (branch_coefficients, branch_ordering,
                                       haar_system)
from latmax.constructions.hadamard import (hadamard_mixed, sign_pattern_sweep,
                                           unconditionality_window)
from latmax.constructions.lindenstrauss import (chain_prefix_join,
                                                lindenstrauss_witness)
from latmax.constructions.lorentz import lorentz_blocking_demo
from latmax.constructions.rademacher import flat_mean, rademacher_l1
from latmax.constructions.triangular import (certificate_series,
                                             harmonic_numbers, hilbert_kernel,
                                             kernel_gauge, operator_extremes,
                                             prefix_join_norm,
                                             tau_singular_values)
from latmax.constructions.typewriter import pass_profile
from latmax.estimation import growth_fit
from latmax.experiments import ExperimentConfig, list_experiments, run
from latmax.greedy import (all_greedy_orderings, greedy_maximal, kvee_estimate,
                           natural_greedy_ordering, ordered_projection_maximal,
                           strictify)
from latmax.spaces import lp_block
from latmax.systems import BiorthogonalSystem, coefficients, reconstruct

# spectral norms of the antisymmetric 1/(i-j) kernel, recorded up front;
# the sequence increases toward pi because each kernel is the upper-left
# compression of every larger one
_KERNEL_GAUGE = {
    16: 2.696340284673576,
    64: 3.0080543908243875,
    256: 3.1032824458634134,
    1024: 3.130858555124935,
    2048: 3.1359446950367715,
}


def test_tree_chain_witness_exact_values():
    # depths 2..14; ambient dimension 2n + 2 >= 3 * 2^N
    start = time.perf_counter()
    for N in range(2, 15):
        n = 3 * 2 ** (N - 1)
        rows, join, reports, _ = lindenstrauss_witness(N - 1, n)
        assert abs(join.norm() - (N + 1)) < 1e-9
        assert max(abs(r[1] - 2.0) for r in rows) < 1e-9
        for rep in reports:
            assert rep.value >= (N + 1) / 2.0 - 1e-9
        join_norms, y_norms, telescopes = chain_prefix_join(N)
        assert telescopes
        for m in range(N):
            assert abs(y_norms[m] - 2.0) < 1e-9
            assert abs(join_norms[m] - (m + 2.0)) < 1e-9
    assert time.perf_counter() - start < 10.0


def test_triangular_truncation_certificates():
    gauges = {}
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        gauges[n] = kernel_gauge(n, 2.0)
    # pinned spectral values; the largest certifies every smaller size
    for n, pinned in _KERNEL_GAUGE.items():
        got = gauges.get(n, kernel_gauge(n, 2.0))
        assert abs(got / pinned - 1.0) < (1e-9 if n <= 768 else 1e-6)
    assert all(g <= math.pi + 1e-6 for g in gauges.values())
    assert all(gauges[n] < gauges[2 * n] for n in (64, 128, 256, 512, 1024, 2048))

    for n in (64, 512):
        alpha = 0.5 / (gauges[n] * (1.0 + 1e-9))
        upper, inv_upper = operator_extremes(alpha * hilbert_kernel(n))
        assert upper <= 1.5 + 1e-6
        assert inv_upper <= 2.0 + 1e-6

    for n, gauge in gauges.items():
        alpha = 0.5 / (gauge * (1.0 + 1e-9))
        ratio = prefix_join_norm(n, 2.0, alpha) / (math.sqrt(n) * math.log(n))
        assert 0.02 <= ratio <= 5.0

    fit = growth_fit(certificate_series(sorted(gauges)))
    assert abs(fit.a - 0.5) <= 0.05
    assert abs(fit.b - 1.0) <= 0.25


def test_trace_dual_harmonic_floor_and_growth():
    H = harmonic_numbers(1024)
    for n in range(2, 1025):
        nuclear = float(tau_singular_values(n).sum())
        floor = float(H[1:n + 1].sum()) / math.pi
        assert nuclear >= floor - 1e-6
    series = [(n, float(H[1:n + 1].sum()) / math.pi)
              for n in (64, 128, 256, 512, 1024)]
    fit = growth_fit(series)
    assert abs(fit.a - 1.0) <= 0.05
    assert abs(fit.b - 1.0) <= 0.25


def test_sign_invariant_sums_versus_modulus_growth():
    for n in range(2, 13):
        sweep = sign_pattern_sweep(n, samples=10000, seed=0)
        if n <= 4:
            assert sweep["mode"] == "exhaustive"
        else:
            assert sweep["mode"] == "sampled" and sweep["count"] >= 10000
        assert sweep["max"] <= 3.0
        assert sweep["max"] <= 2.0 + 1e-9
        _, total = hadamard_mixed(n)
        modulus = total.norm()
        assert abs(modulus - 2.0 ** (n / 2.0)) <= 1e-9
        assert modulus / sweep["max"] >= 2.0 ** (n / 2.0 - 1.0) - 1e-9
        window = unconditionality_window(n, count=1000, seed=1)
        assert window["low"] >= 1.0 - 1e-9
        assert window["high"] <= 3.0 + 1e-9


def test_rademacher_modulus_sums_and_flat_ratio():
    sysm = rademacher_l1(12)
    rng = np.random.default_rng(0)
    alphas = rng.standard_normal((1000, 12))
    norms = sysm.space.norms(np.abs(alphas) @ np.abs(sysm.vectors))
    targets = np.abs(alphas).sum(axis=1)
    assert float(np.max(np.abs(norms / targets - 1.0))) < 1e-12
    # consecutive ratios pair up, so the fit samples one parity
    series = [(m, m / flat_mean(m)) for m in range(2, 21, 2)]
    fit = growth_fit(series)
    assert abs(fit.a - 0.5) <= 0.05


def _exact_walsh_system(rng, dim):
    """Vectors with signed power-of-two entries and exactly dyadic duals:
    F @ (c @ V) reproduces c without rounding, so coefficient ties survive."""
    parts, left = [], dim
    while left:
        size = max(s for s in (8, 4, 2, 1) if s <= left)
        H = hadamard(size).astype(float)
        s1 = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        s2 = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        parts.append(s1[:, None] * H * s2)
        left -= size
    V = block_diag(*parts) * 2.0 ** rng.integers(-2, 3, size=dim)[:, None]
    F = V / (V * V).sum(axis=1)[:, None]
    perm = rng.permutation(dim)
    p = [1.0, 1.5, 2.0, 3.0, math.inf][int(rng.integers(5))]
    weights = None
    if not math.isinf(p) and rng.random() < 0.5:
        weights = 2.0 ** rng.integers(-3, 4, size=dim).astype(float)
    return BiorthogonalSystem(lp_block(dim, p, weights), V[perm], F[perm])


def test_greedy_ordering_oracle_equivalence():
    rng = np.random.default_rng(0)
    for trial in range(200):
        dim = int(rng.integers(2, 9))
        sysm = _exact_walsh_system(rng, dim)
        while True:
            c = np.where(rng.random(dim) < 0.5, -1.0, 1.0) \
                * rng.integers(1, 17, size=dim) / 8.0
            if trial % 2:
                k = int(rng.integers(2, min(dim, 4) + 1))
                idx = rng.permutation(dim)[:k]
                c[idx] = np.copysign(np.abs(c[idx[0]]), c[idx])
            if sum(1 for _ in all_greedy_orderings(c)) <= 64:
                break
        x = c @ sysm.vectors
        back = coefficients(sysm, x)
        assert np.array_equal(back, c)
        nx = sysm.space.norm(x)
        # the join is coordinatewise nondecreasing in m, so the sup over
        # all m sits at full support for every ordering
        lhs = max(sysm.space.norm(greedy_maximal(sysm, x, dim, ordering=pi))
                  for pi in all_greedy_orderings(back)) / nx
        rhs = 0.0
        for pi in all_greedy_orderings(back):
            xp = strictify(back, pi) @ sysm.vectors
            rhs = max(rhs, sysm.space.norm(greedy_maximal(sysm, xp, dim))
                      / sysm.space.norm(xp))
        assert abs(lhs - rhs) <= 1e-9

    # monotonicity and ordering determinism on 10^4 random inputs
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        V = rng.standard_normal((dim, dim))
        while np.linalg.cond(V) > 1e6:
            V = rng.standard_normal((dim, dim))
        sysm = BiorthogonalSystem(
            lp_block(dim, [1.0, 2.0, math.inf][int(rng.integers(3))]),
            V, np.linalg.inv(V).T)
        for _ in range(500):
            x = rng.standard_normal(dim)
            a = coefficients(sysm, x)
            assert (natural_greedy_ordering(a).permutation
                    == natural_greedy_ordering(a).permutation)
            m = int(rng.integers(1, dim))
            lower = np.asarray(greedy_maximal(sysm, x, m))
            upper = np.asarray(greedy_maximal(sysm, x, m + 1))
            assert np.all(upper >= lower)


def test_dyadic_wavelet_diagnostics():
    sysm = haar_system(8, 2.0)
    rng = np.random.default_rng(0)
    full = np.arange(len(sysm))
    worst = 0.0
    for _ in range(1000):
        x = rng.standard_normal(sysm.space.dim)
        ratio = sysm.space.norm(ordered_projection_maximal(sysm, x, full)) \
            / sysm.space.norm(x)
        worst = max(worst, ratio)
    # observed envelope; a bounded sample is evidence, not a proof
    assert worst <= 10.0

    joins = []
    for J in range(4, 11):
        s = haar_system(J, 2.0)
        a = branch_coefficients(J, 2.0)
        x = reconstruct(s, a)
        joins.append(ordered_projection_maximal(s, x, branch_ordering(J)).norm())
    assert all(b > a for a, b in zip(joins, joins[1:]))

    order = branch_ordering(8)
    coeffs = branch_coefficients(8, 2.0)
    structured = []
    for k in range(1, len(order) + 1):
        a = np.zeros(len(sysm))
        a[order[:k]] = coeffs[order[:k]]
        structured.append((a, np.array(order[:k])))
    ms = [4, 8, 16, 32, 64, 128, 256]
    values = [kvee_estimate(sysm, m, 200, seed=m, structured=structured).value
              for m in ms]
    slope = np.polyfit(np.log2(ms), values, 1)[0]
    assert slope > 0.0
    assert max(v / math.log2(m) for m, v in zip(ms, values)) <= 2.0


def test_sliding_frame_unit_oscillation():
    join, oscillation, _ = pass_profile(10, 2.0)
    assert abs(join.norm() - 2.0) <= 1e-9
    assert float(np.max(np.abs(oscillation - 1.0))) <= 1e-9


def test_lorentz_fundamental_exponents():
    _, _, unit_fit, block_fit = lorentz_blocking_demo(4.0, 2.0, 1024)
    assert abs(unit_fit.a - 0.25) <= 0.05
    assert abs(block_fit.a - 0.5) <= 0.08


def test_catalog_determinism_and_budget(tmp_path):
    start = time.perf_counter()
    for directory in ("first", "second"):
        out = tmp_path / directory
        for name, _, _ in list_experiments():
            result = run(ExperimentConfig(name, output_dir=str(out)))
            assert result.passed, (name,
                                   [c for c in result.checks if not c["passed"]])
    for name, _, _ in list_experiments():
        left = (tmp_path / "first" / f"{name}-values.csv").read_bytes()
        right = (tmp_path / "second" / f"{name}-values.csv").read_bytes()
        assert left == right, name
    assert time.perf_counter() - start < 300.0
