"""Greedy orderings, greedy sums, and their lattice maximal variants.

Orderings are 0-based permutations.  The natural ordering sorts by decreasing
modulus, breaks ties by smaller index, and places zero coefficients after all
nonzero ones in index order; with that convention every greedy sum of x is a
prefix of some enumerated ordering, and permuting the zero tail never changes
a greedy sum, so enumeration only branches inside nonzero tie groups.

``_RATIOS`` maps each constant name to its score, the systems scores and
the two greedy ones alike; the searches and ``recompute_constant`` (also
bound here as ``recompute_greedy_constant``) share it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from latmax.spaces import Element
from latmax.systems import (_SCAN_BLOCK, BiorthogonalSystem, ConstantReport,
                            _join_ratio, _join_ratios, _joins,
                            _modulus_sum_ratio, _ordered_join,
                            _peak_prefix_norm, _prefix_norm_ratio,
                            _ratio_search, _sums, coefficients,
                            recompute_constant)

_STRICTIFY_SCALE = 1e-13  # per-position modulus bump in strictify
_ORDERING_LIMIT = 40320  # 8! orderings per witness in uqg_constant


@dataclass(frozen=True)
class GreedyOrdering:
    permutation: tuple
    source: tuple

    def __post_init__(self):
        a = np.asarray(self.source, dtype=float)
        p = np.asarray(self.permutation, dtype=int)
        if sorted(p.tolist()) != list(range(len(a))):
            raise ValueError("permutation must cover all indices exactly once")
        mods = np.abs(a)[p]
        if np.any(np.diff(mods) > 0):
            raise ValueError("moduli must be nonincreasing along the permutation")


def natural_greedy_ordering(coeffs) -> GreedyOrdering:
    a = np.asarray(coeffs, dtype=float)
    # lexsort: last key is primary; -|a| ascending = modulus descending,
    # ties and the zero tail then fall back to index order
    perm = np.lexsort((np.arange(len(a)), -np.abs(a)))
    return GreedyOrdering(tuple(int(i) for i in perm), tuple(a.tolist()))


def count_greedy_orderings(coeffs) -> int:
    a = np.abs(np.asarray(coeffs, dtype=float))
    total = 1
    for v in np.unique(a[a > 0]):
        total *= math.factorial(int(np.sum(a == v)))
    return total


def all_greedy_orderings(coeffs, limit: int = 100000):
    """Every greedy ordering of the nonzero part (zero tail fixed in index
    order; permuting it never changes a greedy sum)."""
    a = np.asarray(coeffs, dtype=float)
    if count_greedy_orderings(a) > limit:
        raise ValueError("too many greedy orderings; raise limit or shrink ties")
    mods = np.abs(a)
    zeros = [int(i) for i in np.flatnonzero(mods == 0)]
    groups = []
    for v in sorted(set(mods[mods > 0]), reverse=True):
        groups.append([int(i) for i in np.flatnonzero(mods == v)])
    pools = [list(itertools.permutations(g)) for g in groups]
    for combo in itertools.product(*pools) if pools else [()]:
        head = [i for block in combo for i in block]
        yield GreedyOrdering(tuple(head + zeros), tuple(a.tolist()))


def _resolve_ordering(a: np.ndarray, ordering) -> np.ndarray:
    if ordering is None:
        ordering = natural_greedy_ordering(a)
    if not np.allclose(np.asarray(ordering.source), a, rtol=0, atol=0):
        raise ValueError("ordering was built from different coefficients")
    return np.asarray(ordering.permutation, dtype=int)


def greedy_sum(sys: BiorthogonalSystem, x, m: int, ordering=None) -> Element:
    """G_m(x): the sum of the first m terms in greedy order."""
    a = coefficients(sys, x)
    if not 0 <= m <= len(sys):
        raise ValueError("m out of range")
    perm = _resolve_ordering(a, ordering)[:m]
    return Element(sys.space, _sums(sys, [a], [perm])[0])


def greedy_maximal(sys: BiorthogonalSystem, x, m: int, ordering=None) -> Element:
    """G^v_m(x) = join of |G_1(x)|, ..., |G_m(x)|; coordinatewise
    nondecreasing in m by construction."""
    a = coefficients(sys, x)
    if not 0 <= m <= len(sys):
        raise ValueError("m out of range")
    perm = _resolve_ordering(a, ordering)[:m]
    return Element(sys.space, _ordered_join(sys, a, perm))


def ordered_projection_maximal(sys: BiorthogonalSystem, x, A) -> Element:
    """P_A^v(x): join of prefix sums along the ordered index set A."""
    A = np.asarray(A, dtype=int)
    sorted_A = np.sort(A)
    if np.any(sorted_A[1:] == sorted_A[:-1]):
        raise ValueError("repeated indices in A")
    a = coefficients(sys, x)
    return Element(sys.space, _ordered_join(sys, a, A))


def strictify(coeffs, ordering: GreedyOrdering):
    """Nudge moduli so the given greedy ordering becomes the unique natural
    one.  The bump at permutation position j is (K - j) * 1e-13, small enough
    to preserve every strict modulus gap but break all exact ties."""
    a = np.asarray(coeffs, dtype=float).copy()
    perm = np.asarray(ordering.permutation, dtype=int)
    K = len(perm)
    for j, idx in enumerate(perm):
        if a[idx] != 0:
            a[idx] += math.copysign((K - j) * _STRICTIFY_SCALE, a[idx])
    return a


def _greedy_setup(sys: BiorthogonalSystem, a: np.ndarray):
    """(coefficients of x, support size, ||x||) for x = sum a_k x_k, on raw
    coordinates."""
    x = _sums(sys, [a], [np.flatnonzero(a)])[0]
    av = coefficients(sys, x)
    return av, int(np.sum(av != 0)), sys.space.norm(x)


def _quasi_greedy_ratio(sys, a, indices=None):
    """(max_m ||G_m(x)|| / ||x||, support size, None), natural ordering."""
    av, supp, nx = _greedy_setup(sys, a)
    if not supp:
        return 0.0, 0, None
    perm = np.asarray(natural_greedy_ordering(av).permutation[:supp])
    return _peak_prefix_norm(sys, av, perm)[0] / nx, supp, None


def _uqg_ratio(sys, a, indices=None, enumerate_orderings=False):
    """(max over greedy orderings of ||G^v_supp(x)|| / ||x||, support size,
    the first supp indices of the ordering that attains it).  Given indices,
    the ratio is taken along them instead; they must be the first supp
    entries of a greedy ordering of the coefficients of x."""
    av, supp, nx = _greedy_setup(sys, a)
    if not supp:
        return 0.0, 0, None
    if indices is not None:
        idx = np.asarray(indices, dtype=int)
        if (not np.array_equal(np.sort(idx), np.flatnonzero(av))
                or np.any(np.diff(np.abs(av[idx])) > 0)):
            raise ValueError("indices are not a greedy ordering of the witness")
        perms = [idx]
    elif enumerate_orderings:
        perms = (np.asarray(o.permutation[:supp], dtype=int)
                 for o in all_greedy_orderings(av, limit=_ORDERING_LIMIT))
    else:
        perms = [np.asarray(natural_greedy_ordering(av).permutation[:supp], dtype=int)]
    # max keeps the first of tied orderings
    peak, best = max(((sys.space.norm(_ordered_join(sys, av, p)), p) for p in perms),
                     key=lambda vp: vp[0])
    return peak / nx, supp, best


def quasi_greedy_constant(sys: BiorthogonalSystem, witnesses) -> ConstantReport:
    """max over witnesses and m of ||G_m(x)|| / ||x||, natural ordering."""
    return _ratio_search(sys, witnesses, _quasi_greedy_ratio, "quasi_greedy")


def uqg_constant(sys: BiorthogonalSystem, witnesses,
                 enumerate_orderings: bool = False) -> ConstantReport:
    """max over witnesses of ||G^v_supp(x)|| / ||x||.

    With enumerate_orderings the maximum also runs over every greedy ordering
    of each witness (tie groups permuted, at most 8! = 40320 orderings per
    witness, else ValueError), which makes the tie-independence of the
    supremum checkable exactly.  The report's indices hold the winning
    ordering's first supp entries, so the value recomputes along them.
    """
    return _ratio_search(
        sys, witnesses,
        lambda s, a: _uqg_ratio(s, a, enumerate_orderings=enumerate_orderings),
        "uniform_quasi_greedy")


def kvee_estimate(sys: BiorthogonalSystem, m: int, budget: int,
                  seed: int = 0, structured=()) -> ConstantReport:
    """Lower bound for sup over ordered A with |A| <= m of ||P_A^v|| via
    structured witnesses, random ordered subsets, and coordinate ascent.

    It does not run on estimation.sup_search, which scores bare coefficient
    vectors one call at a time: kvee searches ordered pairs (a, A), skips
    zero sums uncounted, joins candidates _SCAN_BLOCK at a time, reserves
    2m evaluations for the polish, and polishes multiplicatively (sign
    flips, halvings, doublings) rather than by line search.
    """
    if not 1 <= m <= len(sys):
        raise ValueError("m out of range")
    rng = np.random.default_rng(seed)
    evals, best = 0, (-np.inf, None, None, None)

    def consider(pairs, source):
        # strict '>': on a tie the earlier candidate stays the incumbent
        nonlocal evals, best
        for start in range(0, len(pairs), _SCAN_BLOCK):
            if evals >= budget:
                return
            block = pairs[start : start + _SCAN_BLOCK]
            for (a, A), r in zip(block, _join_ratios(sys, block)):
                if r is None:
                    continue
                evals += 1
                if r > best[0]:
                    best = (r, a, A, source)
                if evals >= budget:
                    return

    consider([(np.asarray(a, dtype=float), np.asarray(A, dtype=int))
              for a, A in structured if len(A) <= m], "structured_family")

    # random ordered subsets; a batch never draws more than the evaluations
    # left before the reserve, so the draws do not depend on the batching
    n, limit = len(sys), max(0, budget - 2 * m)
    while evals < limit:
        batch = []
        for _ in range(min(_SCAN_BLOCK, limit - evals)):
            size = int(rng.integers(1, m + 1))
            A = rng.permutation(n)[:size]
            a = np.zeros(n)
            a[A] = rng.standard_normal(size)
            batch.append((a, A))
        consider(batch, "random_ascent")

    # coordinate ascent polishes the incumbent: sign flips, then halvings
    # and doublings of single coefficients, keeping improvements
    _, wit, A, source = best
    if wit is None:
        raise ValueError("budget too small to evaluate any witness")
    for factor in (-1.0, 0.5, 2.0):
        for idx in A:
            trial = best[1].copy()
            trial[idx] *= factor
            consider([(trial, A)], source)
    value, wit, A, source = best
    return ConstantReport("kvee", float(value), wit, source, evals, indices=A)


# constant name -> score.  kvee is bibasis along an ordered set, which a
# kvee report always stores (ConstantReport checks)
_RATIOS = {"basis": _prefix_norm_ratio, "bibasis": _join_ratio,
           "absolute": _modulus_sum_ratio, "quasi_greedy": _quasi_greedy_ratio,
           "uniform_quasi_greedy": _uqg_ratio, "kvee": _join_ratio}


recompute_greedy_constant = recompute_constant


@dataclass
class CheckReport:
    """Worst observed lhs/rhs ratios for the constant-coefficient
    inequalities, evaluated with supplied (lower-bound) constants.

    Keys: join_vs_flat, flat_signed_lower, signed_sum_vs_join,
    signed_join_upper, scaled_join, modulus_ratio_bound.
    """

    worst: dict
    passed: bool
    instances: int

    def to_json(self) -> dict:
        return {"worst": {k: float(v) for k, v in self.worst.items()},
                "passed": self.passed, "instances": self.instances}


def constant_coefficient_checks(sys: BiorthogonalSystem, index_sets,
                                sign_patterns, c_qg: float, c_qg_vee: float,
                                seed: int = 0) -> CheckReport:
    """Constant-coefficient permutability inequalities as observed envelopes.

    For each ordered index set A and sign pattern eps, with 1_A = sum of the
    A-vectors and joins taken along A's order:
      join_vs_flat:        ||join prefix 1_A||            <= Cv ||1_A||
      flat_signed_lower:   ||join prefix 1_A||            <= 2 Cv ||sum eps||
      signed_sum_vs_join:  ||sum eps||                    <= ||join prefix eps|| (constant-free)
      signed_join_upper:   ||join prefix eps||            <= 2 Cv ||1_A||
      scaled_join:         ||join prefix a||              <= 2 max|a| Cv ||1_A||
      modulus_ratio_bound: ||P_A^v x||                    <= 8 C^2 Cv (max|a|/min|a|) ||x||
    with a drawn per instance from a seeded rng.  Supplied constants are lower
    bounds, so ratios above 1 indicate an underestimated constant, not a
    failed theorem; the report records the worst ratio per inequality.
    """
    rng = np.random.default_rng(seed)
    worst = {k: 0.0 for k in ("join_vs_flat", "flat_signed_lower",
                              "signed_sum_vs_join", "signed_join_upper",
                              "scaled_join", "modulus_ratio_bound")}
    count = 0
    for A, eps in zip(index_sets, sign_patterns):
        A = np.asarray(A, dtype=int)
        eps = np.asarray(eps, dtype=float)
        coeffs = ones, signed, a_rand = np.zeros((3, len(sys)))
        ones[A] = 1.0
        signed[A] = eps
        a_rand[A] = eps * rng.uniform(0.5, 2.0, size=len(A))
        join_flat, join_signed, join_rand = map(sys.space.norm,
                                                _joins(sys, coeffs, [A] * 3))
        flat, signed_sum, x_norm = map(sys.space.norm, _sums(
            sys, coeffs, [np.flatnonzero(c) for c in coeffs]))
        amax, amin = np.abs(a_rand[A]).max(), np.abs(a_rand[A]).min()
        ratios = {
            "join_vs_flat": join_flat / (c_qg_vee * flat),
            "flat_signed_lower": join_flat / (2 * c_qg_vee * signed_sum),
            "signed_sum_vs_join": signed_sum / join_signed,
            "signed_join_upper": join_signed / (2 * c_qg_vee * flat),
            "scaled_join": join_rand / (2 * amax * c_qg_vee * flat),
            "modulus_ratio_bound": join_rand / (8 * c_qg ** 2 * c_qg_vee
                                                * (amax / amin) * x_norm),
        }
        for k, v in ratios.items():
            worst[k] = max(worst[k], float(v))
        count += 1
    return CheckReport(worst, all(v <= 1.0 for v in worst.values()), count)
