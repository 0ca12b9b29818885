"""Reproducible numerical experiments over the construction gallery.

Each experiment computes a table of values, evaluates the assertions
attached to it, and writes its artifacts into an output directory:

* ``<id>-manifest.json``: config echo, library versions, wall time and
  peak RSS, search seeds/budgets, check outcomes, and a ``failed`` flag;
* ``<id>-values.csv`` (or ``.json``): the value table, floats printed
  with 17 significant digits so reruns are byte-identical;
* ``<id>-growth.json``: fitted growth parameters, for experiments that
  end in a regression.

Writes are atomic (temp file + rename), one experiment per run() call.
All randomized searches derive from the config seed, default 0, so a
fixed config reproduces the value columns byte for byte.
"""

import csv
import io
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .constructions import haar as _haar
from .constructions import hadamard as _hadamard
from .constructions import lindenstrauss as _lindenstrauss
from .constructions import lorentz as _lorentz
from .constructions import orlicz as _orlicz
from .constructions import rademacher as _rademacher
from .constructions import triangular as _triangular
from .constructions import typewriter as _typewriter
from .estimation import growth_fit
from .greedy import kvee_estimate, ordered_projection_maximal
from .spaces import LpBlock
from .systems import _batch_size, _joins, _scan_plan, coefficients, reconstruct

_BIBASIS_BLOCK = 16  # haar-bibasis samples per pass through the scan plan

__all__ = ["ExperimentConfig", "RunResult", "UsageError", "list_experiments", "run"]


class UsageError(ValueError):
    """Bad experiment id, parameter, or format; rejected before computation."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    output_dir: str = "latmax-out"
    format: str = "csv"
    seed: int = 0


@dataclass
class RunResult:
    experiment: str
    passed: bool
    checks: list
    files: dict
    wall_time: float
    columns: tuple
    rows: list
    fits: dict
    derived: dict


@dataclass
class _Table:
    columns: tuple
    rows: list
    checks: list
    fits: dict = field(default_factory=dict)
    derived: dict = field(default_factory=dict)
    search: dict = None


def _push(checks, name, ok, detail):
    checks.append({"name": name, "passed": bool(ok), "detail": detail})


def _pow2_grid(lo, hi):
    if hi < lo:
        raise UsageError("need n_min <= n_max")
    for n in (lo, hi):
        if n & (n - 1):
            raise UsageError("grid endpoints must be powers of two")
    return [1 << j for j in range(lo.bit_length() - 1, hi.bit_length())]


# ---------------------------------------------------------------- runners


def _run_uniform_bound(params, seed):
    """Disjoint Rademacher blocks versus an ordering-uniform order bound.

    Over the sign cube, the join over 0/1 subset sums of x_1..x_k picks,
    at each point, either every positive or every negative summand, so it
    equals max(sum of positive parts, sum of negative parts) >= half the
    modulus sum.  Block b carries b^2 Rademachers scaled by 1/b^2: the
    modulus sum is the constant 1, hence each block contributes at least
    1/2 to any vector dominating all greedy partial sums in all orderings.
    """
    blocks = params["blocks"]
    columns = ("block", "vectors", "modulus_sum_norm", "subset_join_norm",
               "ratio", "coordinate_margin")
    rows, checks = [], []
    for b in range(1, blocks + 1):
        k = b * b
        pos, neg = _rademacher.sign_parts(k)
        best = np.maximum(pos, neg)
        margin = float(np.min(best - 0.5 * (pos + neg)))
        host = LpBlock(1 << k, 2.0, weights=np.full(1 << k, 2.0 ** -k))
        mod_norm = host.norm(pos + neg)
        join_norm = host.norm(best)
        rows.append((b, k, mod_norm, join_norm, join_norm / mod_norm, margin))
        _push(checks, f"block_{b}_modulus_sum_is_one",
              abs(mod_norm - 1.0) < 1e-12, f"norm {mod_norm!r}")
        _push(checks, f"block_{b}_join_beats_half",
              join_norm >= 0.5 * mod_norm - 1e-12, f"ratio {join_norm / mod_norm!r}")
        _push(checks, f"block_{b}_coordinatewise_bound",
              margin >= -1e-12, f"min margin {margin!r}")
    return _Table(columns, rows, checks)


def _run_haar_bibasis(params, seed):
    """Observed partial-sum join envelope on random unit vectors, joined
    _BIBASIS_BLOCK at a time through one scan plan of the index order."""
    J, samples = params["J"], params["samples"]
    sysm = _haar.haar_system(J, 2.0)
    plan = _scan_plan(sysm, [np.arange(len(sysm))])
    rng = np.random.default_rng(seed)
    columns = ("sample", "ratio")
    rows = []
    for start in range(0, samples, _BIBASIS_BLOCK):
        block = np.empty((min(_BIBASIS_BLOCK, samples - start), 1, len(sysm)))
        # one draw of the block's samples is the stream of one draw each
        xs = rng.standard_normal((len(block), sysm.space.dim))
        xs /= sysm.space.norms(xs)[:, None]
        for a, x in zip(block, xs):
            a[0] = coefficients(sysm, x)
        joins = _joins(sysm, block, plan)[:, 0]
        rows += enumerate(sysm.space.norms(joins).tolist(), start)
    worst = max(r for _, r in rows)
    checks = []
    # the join is Doob's max_j |E_j x|; his L^2 inequality bounds it by 2
    _push(checks, "doob_maximal_bound", worst <= 2.0 + 1e-9, f"max ratio {worst!r}")
    _push(checks, "ratios_at_least_one", min(r for _, r in rows) >= 1.0 - 1e-9,
          "join dominates the full sum")
    return _Table(columns, rows, checks,
                  search={"seed": seed, "budget": samples})


def _run_haar_branch(params, seed):
    """Root-to-leaf ordered maximal norms, one row per depth."""
    J_min, J_max, p = params["J_min"], params["J_max"], params["p"]
    if J_min > J_max:
        raise UsageError("need J_min <= J_max")
    columns = ("J", "branch_length", "witness_norm", "join_norm")
    rows, checks = [], []
    for J in range(J_min, J_max + 1):
        sysm = _haar.haar_system(J, p)
        order = _haar.branch_ordering(J)
        a = _haar.branch_coefficients(J, p)
        x = reconstruct(sysm, a)
        join = ordered_projection_maximal(sysm, x, order)
        rows.append((J, len(order), x.norm(), join.norm()))
    joins = [r[3] for r in rows]
    _push(checks, "join_norms_strictly_increase",
          all(b > a for a, b in zip(joins, joins[1:])),
          f"{joins[0]!r} .. {joins[-1]!r}")
    _push(checks, "join_dominates_witness",
          all(r[3] >= r[2] - 1e-12 for r in rows), "coordinatewise maximum")
    return _Table(columns, rows, checks)


def _run_haar_kvee(params, seed):
    """Ordered-projection maximal constant lower bounds, fitted in log2 m."""
    J, budget = params["J"], params["budget"]
    sysm = _haar.haar_system(J, 2.0)
    order = _haar.branch_ordering(J)
    coeffs = _haar.branch_coefficients(J, 2.0)
    structured = []
    for k in range(1, len(order) + 1):
        a = np.zeros(len(sysm))
        a[order[:k]] = coeffs[order[:k]]
        structured.append((a, np.array(order[:k])))
    ms = [m for m in (4, 8, 16, 32, 64, 128, 256) if m <= len(sysm)]
    columns = ("m", "estimate", "ratio_to_log2_m")
    rows = []
    for m in ms:
        rep = kvee_estimate(sysm, m, budget, seed=seed + m, structured=structured)
        rows.append((m, rep.value, rep.value / math.log2(m)))
    fit = np.polyfit(np.log2(ms), [r[1] for r in rows], 1)
    slope, intercept = float(fit[0]), float(fit[1])
    checks = []
    _push(checks, "log2_slope_positive", slope > 0.0, f"slope {slope!r}")
    worst = max(r[2] for r in rows)
    _push(checks, "ratio_to_log2_m_bounded", worst <= 2.0, f"max ratio {worst!r}")
    return _Table(columns, rows, checks,
                  derived={"log2_slope": float(slope),
                           "log2_intercept": float(intercept)},
                  search={"seed": seed, "budget": budget,
                          "seed_rule": "config seed + m per subset size"})


def _run_hadamard(params, seed):
    """Sign-sum versus modulus-sum norms of the perturbed sup-block rows."""
    n, samples, alphas = params["n"], params["samples"], params["alphas"]
    columns = ("n", "mode", "patterns", "sign_sum_max", "modulus_sum_norm",
               "absolute_lower_bound", "window_low", "window_high")
    rows, checks = [], []
    for k in range(2, n + 1):
        sweep = _hadamard.sign_pattern_sweep(k, samples=samples, seed=seed)
        win = _hadamard.unconditionality_window(k, count=alphas, seed=seed + 1)
        mod = _hadamard.modulus_sum(k).norm()
        rows.append((k, sweep["mode"], sweep["count"], sweep["max"], mod,
                     mod / sweep["max"], win["low"], win["high"]))
        _push(checks, f"n{k}_sign_sums_below_host_bound",
              sweep["max"] <= 2.0 + 1e-9, f"max {sweep['max']!r}")
        _push(checks, f"n{k}_modulus_sum_value",
              abs(mod - 2.0 ** (k / 2.0)) <= 1e-9, f"norm {mod!r}")
        _push(checks, f"n{k}_absolute_constant_lower_bound",
              mod / sweep["max"] >= 2.0 ** (k / 2.0 - 1.0) - 1e-9,
              f"ratio {mod / sweep['max']!r}")
        _push(checks, f"n{k}_unconditionality_window",
              win["low"] >= 1.0 - 1e-9 and win["high"] <= 3.0 + 1e-9,
              f"[{win['low']!r}, {win['high']!r}]")
    return _Table(columns, rows, checks,
                  search={"seed": seed, "budget": samples, "alphas": alphas})


def _run_lindenstrauss(params, seed):
    """Chain witnesses: unit norms with a linearly growing running join."""
    depth = params["depth"]
    rows, reports, telescopes = _lindenstrauss.chain_witness(
        depth - 1, _lindenstrauss.chain_size(depth))
    columns = ("m", "witness_norm", "running_join_norm")
    checks = []
    # the walk is dyadic, so its norms, final join and ratio must be exact
    _push(checks, "chain_telescopes", telescopes, f"the walk ends at y{depth - 1}")
    _push(checks, "witness_norms_equal_two",
          all(r[1] == 2.0 for r in rows), "exact telescopes")
    _push(checks, "final_join_norm", rows[-1][2] == depth + 1,
          f"{rows[-1][2]!r} vs {depth + 1}")
    _push(checks, "join_grows_by_one_each_step",
          max(abs(r[2] - (r[0] + 2.0)) for r in rows) < 1e-9, "m + 2 at row m")
    derived = {}
    for rep in reports:
        derived[f"{rep.constant_name}_lower_bound"] = rep.value
        _push(checks, f"{rep.constant_name}_lower_bound",
              rep.value == (depth + 1) / 2.0, f"value {rep.value!r}")
    return _Table(columns, rows, checks, derived=derived)


def _run_lorentz(params, seed):
    """Two fundamental-function exponents of a Lorentz sequence space."""
    p, q, n = params["p"], params["q"], params["n"]
    try:
        units, blocks, unit_fit, block_fit = _lorentz.lorentz_blocking_demo(p, q, n)
    except ValueError as exc:
        raise UsageError(str(exc))
    columns = ("series", "size", "value")
    rows = [("unit", k, v) for k, v in units]
    rows += [("blocks", k, v) for k, v in blocks]
    checks = []
    for name, series in (("unit", units), ("blocks", blocks)):
        vals = [v for _, v in series]
        _push(checks, f"{name}_series_increases",
              all(b > a for a, b in zip(vals, vals[1:])), f"{len(vals)} points")
    _push(checks, "unit_exponent_near_reciprocal_p",
          abs(unit_fit.a - 1.0 / p) <= 0.05, f"a {unit_fit.a!r}")
    if (p, q) == (4.0, 2.0):
        _push(checks, "block_exponent_window",
              abs(block_fit.a - 0.5) <= 0.08, f"a {block_fit.a!r}")
    return _Table(columns, rows, checks,
                  fits={"unit": unit_fit, "blocks": block_fit})


def _run_orlicz(params, seed):
    """Running singleton upper bounds without the doubling condition."""
    rows = _orlicz.orderbound_demo(params["K"])
    columns = ("K", "upper_bound_norm")
    vals = [v for _, v in rows]
    checks = []
    _push(checks, "norms_strictly_increase",
          all(b > a for a, b in zip(vals, vals[1:])),
          f"{vals[0]!r} .. {vals[-1]!r}")
    _push(checks, "doubling_ratio_at_0.05",
          abs(_orlicz.doubling_ratio(0.05) / math.exp(10.0) - 1.0) < 1e-12,
          "exp(10), exact")
    _push(checks, "singleton_norm_is_one",
          abs(_orlicz.luxemburg_norm(np.ones(1)) - 1.0) < 1e-12, "phi(1) = 1")
    return _Table(columns, rows, checks)


def _run_rademacher(params, seed):
    """Modulus sums hit the l1 norm; signed means grow only like sqrt(m)."""
    n, trials = params["n"], params["trials"]
    sysm = _rademacher.rademacher_l1(n)
    # only the space and |x_k| are read below: with the system gone its rows
    # are the runner's own, made |x_k| in place; they are full rows, so the
    # dense |x_k| is a view of them
    space, V = sysm.space, sysm.row_support
    del sysm
    np.abs(V.vals, out=V.vals)
    V = V.dense(space.dim)
    rng = np.random.default_rng(seed)
    # trials drawn 4096 at a time and their modulus sums formed 16 at a time
    # into one reused 16 x 2^n buffer (8 MiB at n = 16), so memory stays flat
    # in trials; 16-row products keep BLAS from re-packing V for every few
    # rows, and norms take them a 2^18-cell step at a time, bitwise the same
    sums, peaks, step = np.empty((min(16, trials), space.dim)), [], _batch_size(space.dim)
    for s in range(0, trials, 4096):
        A = np.abs(rng.standard_normal((min(4096, trials - s), n)))
        norms = []
        for a in np.split(A, range(16, len(A), 16)):
            prod = np.matmul(a, V, out=sums[:len(a)])
            norms += [space.norms(prod[i:i + step]) for i in range(0, len(a), step)]
        norms = np.concatenate(norms)
        peaks.append(np.max(np.abs(norms / A.sum(axis=1) - 1.0)))
    worst = float(np.max(peaks))
    ms = list(range(2, params["m_max"] + 1, 2))
    columns = ("m", "signed_mean", "ratio")
    means = [_rademacher.flat_mean(m) for m in ms]
    rows = [(m, mean, m / mean) for m, mean in zip(ms, means)]
    fit = growth_fit([(m, r) for m, _, r in rows])
    checks = []
    _push(checks, "modulus_sum_equals_l1_norm", worst < 1e-12,
          f"max relative error {worst!r} over {trials} draws")
    _push(checks, "flat_ratio_exponent_half", abs(fit.a - 0.5) <= 0.05,
          f"a {fit.a!r}")
    return _Table(columns, rows, checks, fits={"flat_ratio": fit},
                  search={"seed": seed, "budget": trials})


def _run_trace_dual(params, seed):
    """Nuclear norms of triangular truncation versus the harmonic floor."""
    ns = _pow2_grid(params["n_min"], params["n_max"])
    if len(ns) < 4:
        raise UsageError("grid must span at least four powers of two")
    columns = ("n", "harmonic_double_sum", "duality_floor", "nuclear_norm",
               "nuclear_to_n_log_n")
    rows, checks = [], []
    for n in ns:
        double, _, nuclear, floor = _triangular.trace_dual_certificate(n)
        scaled = nuclear / (n * math.log(n))
        rows.append((n, double, floor, nuclear, scaled))
        _push(checks, f"n{n}_floor_holds", nuclear >= floor - 1e-6,
              f"{nuclear!r} >= {floor!r}")
        _push(checks, f"n{n}_n_log_n_window",
              1.0 / math.pi - 0.05 <= scaled <= 2.0, f"scaled {scaled!r}")
    fit = growth_fit([(n, d / math.pi) for n, d, _, _, _ in rows])
    _push(checks, "pairing_growth_exponent", abs(fit.a - 1.0) <= 0.05,
          f"a {fit.a!r}")
    _push(checks, "pairing_log_exponent", abs(fit.b - 1.0) <= 0.25,
          f"b {fit.b!r}")
    return _Table(columns, rows, checks, fits={"pairing": fit})


def _run_triangular(params, seed):
    """Kernel gauge, equivalence constants, and prefix-join growth."""
    p = params["p"]
    ns = _pow2_grid(params["n_min"], params["n_max"])
    columns = ("n", "kernel_gauge", "alpha", "witness_norm", "join_norm",
               "ratio_to_scale")
    rows, checks = [], []
    for n in ns:
        gauge, alpha = _triangular.kernel_gauge(n, p), _triangular.kernel_scaling(n, p)
        wit = float(_triangular.witness_norm(n, p, alpha))
        join = float(_triangular.prefix_join_norm(n, p, alpha))
        ratio = join / (n ** (1.0 / p) * math.log(n))
        rows.append((n, gauge, alpha, wit, join, ratio))
        if p == 2.0:
            _push(checks, f"n{n}_gauge_below_pi", gauge <= math.pi + 1e-6,
                  f"gauge {gauge!r}")
        _push(checks, f"n{n}_ratio_window", 0.02 <= ratio <= 5.0,
              f"ratio {ratio!r}")
    m = params["extremes_at"]
    S = _triangular.kernel_scaling(m, p) * _triangular.hilbert_kernel(m)
    upper, inv_upper = _triangular.operator_extremes(S)
    _push(checks, "perturbation_norm", upper <= 1.5 + 1e-6, f"{upper!r}")
    _push(checks, "perturbation_inverse_norm", inv_upper <= 2.0 + 1e-6,
          f"{inv_upper!r}")
    fit_ns = _pow2_grid(64, 4096 if p == 2.0 else 1024)
    series = _triangular.certificate_series(fit_ns, p)
    fit = growth_fit(series)
    if p == 2.0:
        _push(checks, "certificate_growth_exponent", abs(fit.a - 0.5) <= 0.05,
              f"a {fit.a!r}")
        _push(checks, "certificate_log_exponent", abs(fit.b - 1.0) <= 0.25,
              f"b {fit.b!r}")
    routes = [dict(n=n, **_triangular.gauge_route(n)) for n in ns]
    return _Table(columns, rows, checks, fits={"certificate": fit},
                  derived={"extremes_at": m,
                           "operator_norm": upper,
                           "operator_inverse_norm": inv_upper,
                           "kernel_gauge_routes": routes})


def _run_typewriter(params, seed):
    """One full pass at the constant function: oscillation 1 everywhere.

    The pass reads only the constant's slot and the indicator slots, so its
    oscillation is the same in every L^p, and its join, twice the constant,
    has norm 2 in each: the runner takes p = 2."""
    join, osc, terms = _typewriter.pass_profile(params["J"], 2.0)
    join_norm = join.norm()
    columns = ("point", "oscillation")
    rows = [(i, float(osc[i])) for i in range(len(osc))]
    checks = []
    worst = float(np.max(np.abs(osc - 1.0)))
    _push(checks, "oscillation_is_one_everywhere", worst <= 1e-9,
          f"max deviation {worst!r}")
    _push(checks, "join_norm_is_two", abs(join_norm - 2.0) <= 1e-9,
          f"norm {join_norm!r}")
    return _Table(columns, rows, checks,
                  derived={"join_norm": join_norm, "terms": terms})


# ---------------------------------------------------------------- catalog


# Each entry declares, per parameter, the range (low, high) that run() checks
# before any computation: an integer lies in [low, high], a float strictly
# inside (low, high).  Rules that tie two parameters together stay in the
# runners.  A high of inf marks a count that costs time, not memory.

_EXPONENT = (1.0, math.inf)


@dataclass(frozen=True)
class _Entry:
    summary: str
    defaults: dict
    runner: object
    bounds: dict = field(default_factory=dict)


_CATALOG = {
    "greedy-uniform-bound": _Entry(
        "join of 0/1 subset sums dominates half the modulus sum, so disjoint "
        "Rademacher blocks defeat any ordering-uniform order bound",
        {"blocks": 4}, _run_uniform_bound,
        {"blocks": (1, 4)}),  # hosts have 2^(blocks^2) points
    "haar-bibasis": _Entry(
        "observed envelope of the partial-sum join norm over random unit "
        "vectors for the dyadic-L2 wavelet basis",
        {"J": 8, "samples": 1000}, _run_haar_bibasis,
        {"J": (2, 12), "samples": (1, math.inf)}),
    "haar-branch": _Entry(
        "root-to-leaf ordered maximal norms of the dyadic-L2 wavelet basis "
        "climb strictly with the depth",
        {"J_min": 4, "J_max": 10, "p": 2.0}, _run_haar_branch,
        {"J_min": (2, 12), "J_max": (2, 12), "p": _EXPONENT}),
    "haar-kvee": _Entry(
        "lower bounds for the m-term ordered-projection maximal constant, "
        "fitted affinely in log2 m",
        {"J": 8, "budget": 200}, _run_haar_kvee,
        {"J": (3, 9),  # the slope needs two subset sizes
         "budget": (10, math.inf)}),
    "hadamard-mixed": _Entry(
        "sign-invariant sums of the Walsh-perturbed sup-block rows stay below "
        "2 while the modulus sum reaches 2^(n/2)",
        {"n": 6, "samples": 10000, "alphas": 1000}, _run_hadamard,
        {"n": (2, 12), "samples": (1, math.inf), "alphas": (1, math.inf)}),
    "lindenstrauss-witness": _Entry(
        "unit-norm tree-chain witnesses whose running join norm grows "
        "linearly in the chain depth",
        {"depth": 6}, _run_lindenstrauss,
        {"depth": (1, 20)}),
    "lorentz-blocking": _Entry(
        "fundamental-function exponents of a Lorentz sequence space: unit "
        "sums on the 1/p scale, disjoint constant blocks on the 1/q scale",
        {"p": 4.0, "q": 2.0, "n": 1024}, _run_lorentz,
        # both grids need four points, and block_series walks n + 1 floats;
        # lorentz checks (p, q), that n is a power of two, and the n that
        # sigma's float range allows
        {"n": (512, 2 ** 20)}),
    "orlicz-orderbound": _Entry(
        "running upper bounds of admissible singletons in an Orlicz space "
        "without the doubling condition climb without a uniform bound",
        {"K": 256}, _run_orlicz,
        {"K": (4, 2 ** 20)}),
    "rademacher-l1": _Entry(
        "modulus sums of Rademacher vectors in probability L1 equal the "
        "coefficient l1 norm while signed means grow only like sqrt(m)",
        {"n": 12, "trials": 1000, "m_max": 20}, _run_rademacher,
        {"n": (2, 16), "trials": (1, math.inf),
         # the fit needs four even sizes; flat_mean is tested bitwise up to here
         "m_max": (8, 1019)}),
    "trace-dual": _Entry(
        "nuclear norm of triangular truncation certified against the "
        "harmonic double sum over pi; both grow like n log n",
        {"n_min": 64, "n_max": 1024}, _run_trace_dual,
        # the grid spans four powers of two up to 4096; below 32 the
        # growth-fit checks run where the n log n law does not yet hold
        {"n_min": (32, 512), "n_max": (256, 4096)}),
    "triangular": _Entry(
        "triangular-truncation perturbation of the lp basis keeps equivalence "
        "constants below 3 while prefix-sum joins grow like n^(1/p) log n",
        {"p": 2.0, "n_min": 64, "n_max": 512, "extremes_at": 256},
        _run_triangular,
        {"p": _EXPONENT, "n_min": (2, 2048), "n_max": (2, 2048),
         "extremes_at": (2, 512)}),  # a dense kernel, capped as in triangular_basis
    "typewriter": _Entry(
        "sliding indicator frame whose partial sums at the constant function "
        "keep unit oscillation at every grid point under a bounded join",
        {"J": 10}, _run_typewriter,
        {"J": (1, 12)}),
}


def list_experiments():
    """Alphabetized catalog: (id, summary, default params) triples."""
    return tuple((name, e.summary, dict(e.defaults))
                 for name, e in sorted(_CATALOG.items()))


# ---------------------------------------------------------------- plumbing


def _coerce(experiment, key, value, default):
    if isinstance(default, int):
        try:
            out = int(str(value), 0)
        except ValueError:
            raise UsageError(f"{experiment}: parameter {key} expects an integer, "
                             f"got {value!r}")
        return out
    if isinstance(default, float):
        try:
            if not isinstance(value, (bool, np.bool_)):  # float(True) is 1.0
                return float(value)
        except ValueError:
            pass
        raise UsageError(f"{experiment}: parameter {key} expects a number, "
                         f"got {value!r}")
    return str(value)


def _installed_version(dist: str):
    """The version in the name of an installed distribution's
    ``<dist>-<version>.dist-info`` directory, from the first sys.path entry
    that holds one (where importlib.metadata finds it), or None.  Neither
    the package nor importlib.metadata is imported: mpmath would add ~40 ms
    to every run, importlib.metadata ~25 ms (it loads the email package)."""
    for entry in sys.path:
        try:
            names = os.listdir(entry or ".")
        except OSError:
            continue
        for name in names:
            stem, _, version = name.removesuffix(".dist-info").rpartition("-")
            if stem == dist and name.endswith(".dist-info"):
                return version
    return None


def _atomic_write(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_value(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _values_csv(columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_value(v) for v in row])
    return buf.getvalue()


def _values_json(columns, rows):
    payload = {"columns": list(columns), "rows": [list(r) for r in rows]}
    return json.dumps(payload, indent=2) + "\n"


def run(config: ExperimentConfig) -> RunResult:
    """Run one experiment and write its artifacts.

    Raises UsageError for unknown ids, unknown or malformed parameters
    (a bool is neither an integer nor a number here),
    parameters outside their catalog ranges, seeds that are not integers
    in 0..2^64 - 1 (a bool is not one), and bad formats, all before any
    computation or file output.  Failed checks still produce the full set
    of artifacts, with the manifest flagged as failed.
    """
    entry = _CATALOG.get(config.experiment)
    if entry is None:
        raise UsageError(f"unknown experiment {config.experiment!r}; known: "
                         + ", ".join(sorted(_CATALOG)))
    if config.format not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {config.format!r}")
    params = dict(entry.defaults)
    for key, value in config.params.items():
        if key not in params:
            raise UsageError(f"unknown parameter {key!r} for {config.experiment}; "
                             "accepts: " + ", ".join(sorted(params)))
        params[key] = _coerce(config.experiment, key, value, params[key])
    for key, (low, high) in entry.bounds.items():
        value = params[key]
        if isinstance(value, float):
            ok, span = low < value < high, f"({low}, {high})"
        else:
            ok, span = low <= value <= high, f"{low}..{high}"
        if not ok:
            raise UsageError(f"{config.experiment}: parameter {key} must lie "
                             f"in {span}, got {value!r}")
    seed = config.seed
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 2 ** 64):
        raise UsageError(f"seed must be an integer in 0..2^64 - 1, got {seed!r}")
    seed = int(seed)

    start = time.perf_counter()
    table = entry.runner(params, seed)
    wall = time.perf_counter() - start
    passed = all(c["passed"] for c in table.checks)

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    ext = config.format
    # a rerun leaves only files this run's manifest names
    stale = [out / f"{config.experiment}-values.{'json' if ext == 'csv' else 'csv'}"]
    if not table.fits:
        stale.append(out / f"{config.experiment}-growth.json")
    for path in stale:
        path.unlink(missing_ok=True)
    values_path = out / f"{config.experiment}-values.{ext}"
    if ext == "csv":
        _atomic_write(values_path, _values_csv(table.columns, table.rows))
    else:
        _atomic_write(values_path, _values_json(table.columns, table.rows))
    files["values"] = str(values_path)
    if table.fits:
        growth_path = out / f"{config.experiment}-growth.json"
        payload = {name: fit.to_json() for name, fit in sorted(table.fits.items())}
        _atomic_write(growth_path, json.dumps(payload, indent=2) + "\n")
        files["growth"] = str(growth_path)

    try:  # the process's peak RSS so far: getrusage gives kB on Linux, B on macOS
        import resource
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (
            2 ** 20 if sys.platform == "darwin" else 1024)
    except ImportError:  # Windows
        peak_rss = None
    manifest = {
        "experiment": config.experiment,
        "config": {"params": params, "seed": seed,
                   "format": config.format, "output_dir": str(config.output_dir)},
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "mpmath": _installed_version("mpmath"),
                     "latmax": __version__},
        "wall_time_seconds": wall,
        "peak_rss_mb": peak_rss,
        "search": table.search,
        "derived": table.derived,
        "checks": table.checks,
        "failed": not passed,
        "files": {role: os.path.basename(p) for role, p in files.items()},
    }
    manifest_path = out / f"{config.experiment}-manifest.json"
    _atomic_write(manifest_path, json.dumps(manifest, indent=2) + "\n")
    files["manifest"] = str(manifest_path)

    return RunResult(config.experiment, passed, table.checks, files, wall,
                     table.columns, table.rows, table.fits, table.derived)
