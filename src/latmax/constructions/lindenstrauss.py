"""A conditional-basis forest in weighted-free l1.

Vectors sit on a binary forest over the coordinates: node t holds
x_t = e_t - (e_{2t+2} + e_{2t+3})/2, so node t's mass leaks into its two
children.  Indices are 0-based throughout; nodes 0 and 1 are roots.

The chain witnesses y_d = e_0 - 2^{-d} * (indicator of the depth-d
descendants of node 0) all have l1 norm 2, while their lattice join has norm
d_max + 1: partial sums and greedy sums both walk the chain, which is what
pushes the maximal partial-sum and uniform-quasi-greedy constants up
linearly.  Everything about the chain is dyadic, so the norms below are exact
in binary floating point, not merely accurate.
"""

from __future__ import annotations

import numpy as np

from latmax.spaces import Element, lp_block
from latmax.systems import BiorthogonalSystem, ConstantReport, Csr

_SIZE_LIMIT = 1024


def children(t: int) -> tuple:
    return 2 * t + 2, 2 * t + 3

def parent(i: int) -> int:
    """Parent node; nodes 0 and 1 have none."""
    if i < 2:
        raise ValueError("roots have no parent")
    return (i - 2) // 2


def depth_set(d: int) -> np.ndarray:
    """Descendants of node 0 at depth d >= 1 (a run of 2^d indices)."""
    if d < 1:
        raise ValueError("depth must be >= 1")
    start = 2 ** (d + 1) - 2
    return np.arange(start, start + 2 ** d)


def lindenstrauss(n: int) -> BiorthogonalSystem:
    """The first n forest vectors with their closed-form functionals.

    The functional of node k charges 2^{-d} to the depth-d ancestor of k (the
    node itself at d = 0); back-substitution along the tree shows this is the
    exact inverse pairing, so the gram check passes identically.  Both are
    built as CSR rows: vector k has its 3 nonzeros at k < 2k + 2 < 2k + 3,
    and functional k its ancestor chain, which the walk below lists from k
    up, so each row is reversed into ascending columns.
    """
    if not 1 <= n <= _SIZE_LIMIT:
        raise ValueError(f"n must be in 1..{_SIZE_LIMIT}")
    dim = 2 * n + 2
    sp = lp_block(dim, 1.0)
    k = np.arange(n)
    V = Csr(np.arange(n + 1) * 3, np.stack([k, 2 * k + 2, 2 * k + 3], axis=1).ravel(),
            np.tile([1.0, -0.5, -0.5], n))
    # level d of the walk: the nodes with a depth-d ancestor, and that ancestor
    owners, nodes, weights = [k], [k], [np.ones(n)]
    up = k >= 2
    while up.any():
        owners.append(owners[-1][up])
        nodes.append((nodes[-1][up] - 2) // 2)
        weights.append(weights[-1][up] / 2.0)
        up = nodes[-1] >= 2
    owner = np.concatenate(owners)
    # stable by owner, and the walk order reversed inside each owner
    order = np.lexsort((-np.arange(len(owner)), owner))
    F = Csr(np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=n))]),
            np.concatenate(nodes)[order], np.concatenate(weights)[order])
    return BiorthogonalSystem(sp, V, F)


def chain_coords(d: int, dim: int) -> np.ndarray:
    """y_d's coordinates, e_0 - 2^{-d} * indicator(depth-d set)."""
    idx = depth_set(d)
    if idx[-1] >= dim:
        raise ValueError("ambient dimension too small for this depth")
    coords = np.zeros(dim)
    coords[0] = 1.0
    coords[idx] = -(2.0 ** -d)
    return coords


def chain_element(d: int, dim: int) -> Element:
    """y_d as an l1-norm-2 element of l1 over dim coordinates."""
    return Element(lp_block(dim, 1.0), chain_coords(d, dim))


def chain_coefficients(depth: int, n: int) -> np.ndarray:
    """System coefficients of y_depth: 1 on node 0 and 2^{-d} across each
    depth-d set, d < depth.  Telescoping the children terms turns this
    combination back into e_0 - 2^{-depth} * indicator."""
    a = np.zeros(n)
    a[0] = 1.0
    for d in range(1, depth):
        idx = depth_set(d)
        if idx[-1] >= n:
            raise ValueError("system too small for this depth")
        a[idx] = 2.0 ** -d
    return a


def chain_prefix_join(depth: int, n: int):
    """Walk the prefix sums of y_depth's coefficients, level by level.

    For this coefficient vector the natural greedy ordering and the index
    ordering coincide on the support (coefficients decrease with depth, and
    each depth set is a later index run), so one pass yields both the maximal
    partial-sum join and the greedy-maximal join.  Level d adds 2^{-d} to its
    nodes and takes half that from their children, all distinct coordinates,
    so one vectorized update per level is the node-by-node walk exactly.
    The l1 norms trade those slices' old sums for their new ones: all partial
    sums are multiples of 2^-depth below 2^5, so this is exact, bitwise a full
    pass (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 4).

    Returns (join coordinates, [l1 norm of the join], [l1 norm of the running
    sum], the last running sum), one norm per level; after level d the
    running sum is y_{d+1}, so the walk ends at y_depth when it telescopes.
    """
    need = 3 * 2 ** (depth - 1) - 2  # the deepest chain node is need - 1
    if n < need:
        raise ValueError(f"system size {n} too small; need at least {need}")
    dim = 2 * n + 2
    running, join = np.zeros(dim), np.zeros(dim)
    join_norms, x_norms, norms = [], [], np.zeros(2)
    for d in range(depth):
        lo, hi = 2 ** (d + 1) - 2, 3 * 2 ** d - 2  # level d is lo .. hi - 1
        touched = slice(lo, hi), slice(2 * lo + 2, 2 * hi + 2)  # nodes, kids
        norms -= [sum(np.abs(v[s]).sum() for s in touched) for v in (join, running)]
        running[touched[0]] += 2.0 ** -d
        running[touched[1]] -= 2.0 ** -d / 2.0
        for s in touched:
            np.maximum(join[s], np.abs(running[s]), out=join[s])
        norms += [sum(np.abs(v[s]).sum() for s in touched) for v in (join, running)]
        join_norms.append(float(norms[0]))
        x_norms.append(float(norms[1]))
    return join, join_norms, x_norms, running


def chain_witness(m: int, n: int):
    """Chain witnesses y_0..y_m (y_k at tree depth k + 1) over a system of
    size n, with their exact norms, join and lower-bound constants.

    One chain walk yields everything.  Returns (rows, join, reports, y):
    rows (k, ||y_k|| = 2, norm of the running join of y_0..y_k = k + 2), the
    join of y_0..y_m's coordinates, the bibasis and uniform-quasi-greedy
    reports, both (m + 2) / 2 on the coefficients of y_m, and the
    coordinates the walk ended at, y_m's when it telescopes.  Every one of
    these values is dyadic, hence exact; the caller checks them.
    """
    deepest = m + 1
    join, join_norms, x_norms, y = chain_prefix_join(deepest, n)
    # the prefix join of the deepest chain element revisits every y_k, so the
    # same walk gives both constants
    ratio = join_norms[-1] / x_norms[-1]
    a = chain_coefficients(deepest, n)
    reports = tuple(ConstantReport(name, ratio, a, "structured_family", 1)
                    for name in ("bibasis", "uniform_quasi_greedy"))
    rows = list(zip(range(deepest), x_norms, join_norms))
    return rows, join, reports, y


def lindenstrauss_witness(m: int, n: int):
    """chain_witness(m, n), the join as an element of l1 over 2n + 2 points."""
    rows, join, reports, y = chain_witness(m, n)
    return rows, Element(lp_block(2 * n + 2, 1.0), join), reports, y
