"""Greedy orderings, greedy sums, and their lattice maximal variants.

Orderings are 0-based permutations.  The natural ordering sorts by decreasing
modulus, breaks ties by smaller index, and places zero coefficients after all
nonzero ones in index order; with that convention every greedy sum of x is a
prefix of some enumerated ordering, and permuting the zero tail never changes
a greedy sum, so enumeration only branches inside nonzero tie groups.

``_RATIOS`` maps each constant name to its score, the systems scores and
the two greedy ones alike; the searches and ``systems.recompute_constant``
share it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from latmax.spaces import Element
from latmax.systems import (_SCAN_BLOCK, BiorthogonalSystem, ConstantReport,
                            _distinct, _gather, _join_ratio, _join_ratios,
                            _modulus_sum_ratio, _ordered_join, _pairs,
                            _peak_prefix_norm, _prefix_norm_ratio,
                            _ratio_search, _scan_plan, _sums, coefficients)

_STRICTIFY_SCALE = 1e-13  # per-position modulus bump in strictify
_ORDERING_LIMIT = 40320  # 8! greedy orderings, the most all_greedy_orderings lists


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


def all_greedy_orderings(coeffs):
    """Every greedy ordering of the nonzero part (zero tail fixed in index
    order; permuting it never changes a greedy sum); ValueError past
    _ORDERING_LIMIT of them."""
    a = np.asarray(coeffs, dtype=float)
    if count_greedy_orderings(a) > _ORDERING_LIMIT:
        raise ValueError(f"more than {_ORDERING_LIMIT} greedy orderings; shrink the ties")
    mods = np.abs(a)
    zeros = [int(i) for i in np.flatnonzero(mods == 0)]
    groups = []
    for v in sorted(set(mods[mods > 0]), reverse=True):
        groups.append([int(i) for i in np.flatnonzero(mods == v)])
    pools = [list(itertools.permutations(g)) for g in groups]
    for combo in itertools.product(*pools) if pools else [()]:
        head = [i for block in combo for i in block]
        yield GreedyOrdering(tuple(head + zeros), tuple(a.tolist()))


def _greedy_prefix(sys: BiorthogonalSystem, x, m: int, ordering):
    """(coefficients a of x, the first m indices of the ordering of a, the
    natural one by default): the terms of G_m(x), m in 0..n."""
    a = coefficients(sys, x)
    if not 0 <= m <= len(sys):
        raise ValueError("m out of range")
    if ordering is None:
        ordering = natural_greedy_ordering(a)
    if not np.allclose(np.asarray(ordering.source), a, rtol=0, atol=0):
        raise ValueError("ordering was built from different coefficients")
    return a, np.asarray(ordering.permutation, dtype=int)[:m]


def greedy_sum(sys: BiorthogonalSystem, x, m: int, ordering=None) -> Element:
    """G_m(x): the sum of the first m terms in greedy order."""
    a, perm = _greedy_prefix(sys, x, m, ordering)
    return Element(sys.space, _sums(sys, [a], [perm])[0])


def greedy_maximal(sys: BiorthogonalSystem, x, m: int, ordering=None) -> Element:
    """G^v_m(x) = join of |G_1(x)|, ..., |G_m(x)|; coordinatewise
    nondecreasing in m by construction."""
    a, perm = _greedy_prefix(sys, x, m, ordering)
    return Element(sys.space, _ordered_join(sys, a, perm))


def ordered_projection_maximal(sys: BiorthogonalSystem, x, A) -> Element:
    """P_A^v(x): join of prefix sums along the ordered index set A."""
    A = _distinct(A, "A")
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
    x = _sums(sys, [a])[0]
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
                 for o in all_greedy_orderings(av))
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
    zero sums uncounted, scores candidates _SCAN_BLOCK at a time, reserves
    2m evaluations for the polish, and polishes multiplicatively (sign
    flips, halvings, doublings) rather than by line search.

    Every candidate goes through one block scorer, systems._join_ratios,
    with the incumbent's ratio as its floor.  Its screen is exact: the join
    of |prefix sums| along A is at most the modulus sum M = sum |a_k x_k|
    coordinatewise, every host norm is a lattice norm, so the ratio is at
    most ||M|| / ||x||, and a candidate whose ||M|| falls below
    best * ||x|| * (1 - slack) cannot beat the incumbent.  It still counts
    against the budget, but it is never joined, so the report is bit for
    bit the unscreened search's.  In floating point each computed sum,
    prefix sum, modulus sum and norm is within gamma_N = N u / (1 - N u)
    relative of its exact value (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, ch. 3), u = 2^-53, where N is at most the
    term count of a coordinate plus the host dimension (plus a few
    roundings for the powers, roots and the product with the floor), so
    the computed ratio can exceed the computed ||M|| / ||x|| by a factor of
    at most about 1 + 4 gamma_N.  The slack is _SCREEN_SLACK = 1e-9, which
    dominates that while n + dim stays below about 10^6, and
    4 (n + dim + 8) eps beyond.
    """
    if not 1 <= m <= len(sys):
        raise ValueError("m out of range")
    if not np.any(sys.row_support.vals):  # no sum would ever count
        raise ValueError("every stored vector is zero")
    rng = np.random.default_rng(seed)
    n, evals, best = len(sys), 0, (-np.inf, None, None, None)

    def consider(block, perms, source, plan=None):
        """Score the (B, n) block along perms, or through the plan of the
        one ordering they share, and walk it in order: each nonzero sum
        counts against the budget, and strict '>' keeps the earlier of
        tied candidates.  With a plan, the walk stops at the first
        improvement.  Returns the number of rows walked."""
        nonlocal evals, best
        ratios = _join_ratios(sys, block, perms if plan is None else plan, best[0])
        for i, r in enumerate(ratios.tolist()):
            if math.isnan(r):
                continue
            evals += 1
            if r > best[0]:
                best = (r, block[i].copy(), perms[i], source)
                if plan is not None:
                    return i + 1
            if evals >= budget:
                break
        return len(ratios)

    # every structured ordering is checked up front, joined or not
    family = [(np.asarray(a, dtype=float), np.asarray(A, dtype=int))
              for a, A in structured if len(A) <= m]
    if family:
        _gather(sys, *_pairs([A for _, A in family]))
    for start in range(0, len(family), _SCAN_BLOCK):
        if evals >= budget:
            break
        coeffs, perms = zip(*family[start : start + _SCAN_BLOCK])
        consider(np.array(coeffs), perms, "structured_family")

    # random ordered subsets, drawn straight into the block; a block never
    # holds more than the evaluations left before the reserve, so the draws
    # do not depend on the blocking
    limit = max(0, budget - 2 * m)
    while evals < limit:
        block, perms = np.zeros((min(_SCAN_BLOCK, limit - evals), n)), []
        for a in block:
            size = int(rng.integers(1, m + 1))
            perms.append(rng.permutation(n)[:size])
            a[perms[-1]] = rng.standard_normal(size)
        consider(block, perms, "random_ascent")

    # coordinate ascent polishes the incumbent: sign flips, then halvings
    # and doublings of single coefficients, keeping improvements; all scan
    # A.  The trials left are scored from the incumbent as one block, at
    # most as many as the evaluations left, through one plan of A
    _, wit, A, source = best
    if wit is None:
        raise ValueError("budget too small to evaluate any witness")
    plan = _scan_plan(sys, [A])
    trials = [(idx, factor) for factor in (-1.0, 0.5, 2.0) for idx in A]
    while trials and evals < budget:
        block = np.repeat(best[1][None], min(len(trials), budget - evals), axis=0)
        for row, (idx, factor) in zip(block, trials):
            row[idx] *= factor
        trials = trials[consider(block, [A] * len(block), source, plan):]
    value, wit, A, source = best
    return ConstantReport("kvee", float(value), wit, source, evals, indices=A)


# constant name -> score.  kvee is bibasis along an ordered set, which a
# kvee report always stores (ConstantReport checks)
_RATIOS = {"basis": _prefix_norm_ratio, "bibasis": _join_ratio,
           "absolute": _modulus_sum_ratio, "quasi_greedy": _quasi_greedy_ratio,
           "uniform_quasi_greedy": _uqg_ratio, "kvee": _join_ratio}
