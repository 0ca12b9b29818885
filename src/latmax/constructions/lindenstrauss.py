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

One level rule (_level) walks the chain, in chain_prefix_join, over a
window of two tree levels, as the kids of level d are the nodes of level
d + 1 and nothing else is touched after, and checks each finished window
against y's closed form.  lindenstrauss_witness, for callers that want the
whole join, builds it from that closed form once the walk has telescoped.
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


def _chain_value(k: int, d: int) -> float:
    """y_d's value on tree level k of node 0 (level 0 is node 0, level k >= 1
    the depth-k set): 1 on node 0, -2^{-d} on level d, 0 elsewhere."""
    return 1.0 if k == 0 else -(2.0 ** -d) if k == d else 0.0


def chain_coords(d: int, dim: int) -> np.ndarray:
    """y_d's coordinates, e_0 - 2^{-d} * indicator(depth-d set)."""
    idx = depth_set(d)
    if idx[-1] >= dim:
        raise ValueError("ambient dimension too small for this depth")
    coords = np.zeros(dim)
    coords[0] = _chain_value(0, d)
    coords[idx] = _chain_value(d, d)
    return coords


def chain_element(d: int, dim: int) -> Element:
    """y_d as an l1-norm-2 element of l1 over dim coordinates."""
    return Element(lp_block(dim, 1.0), chain_coords(d, dim))


def chain_coefficients(depth: int, n: int) -> np.ndarray:
    """System coefficients of y_depth: 1 on node 0 and 2^{-d} across each
    depth-d set, d < depth.  Telescoping the children terms turns this
    combination back into e_0 - 2^{-depth} * indicator."""
    if n < chain_size(depth):
        raise ValueError("system too small for this depth")
    a = np.zeros(n)
    a[0] = 1.0
    for d in range(1, depth):
        a[depth_set(d)] = 2.0 ** -d
    return a


def _level(d: int, running, join, norms) -> None:
    """Level d of the chain walk, in place on the (nodes, kids) slices of the
    running sum and of the join.

    Level d adds 2^{-d} to its nodes and takes half that from their children,
    all distinct coordinates, so one vectorized update per level is the
    node-by-node walk exactly.  The l1 norms [join, running] trade those
    slices' old sums for their new ones: all partial sums are multiples of
    2^-depth below 2^5, so this is exact, bitwise a full pass (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 4).
    """
    norms -= [sum(np.abs(s).sum() for s in v) for v in (join, running)]
    nodes, kids = running
    nodes += 2.0 ** -d
    kids -= 2.0 ** -d / 2.0
    for r, j in zip(running, join):
        np.maximum(j, np.abs(r), out=j)
    norms += [sum(np.abs(s).sum() for s in v) for v in (join, running)]


def chain_size(depth: int) -> int:
    """The smallest system that holds y_depth's coefficients: its deepest
    node, the last of the depth-(depth - 1) set, is chain_size(depth) - 1."""
    return 3 * 2 ** (depth - 1) - 2


def chain_prefix_join(depth: int):
    """Walk the prefix sums of y_depth's coefficients, level by level, over
    a window of two tree levels.

    For this coefficient vector the natural greedy ordering and the index
    ordering coincide on the support (coefficients decrease with depth, and
    each depth set is a later index run), so one pass yields both the maximal
    partial-sum join and the greedy-maximal join.  _level runs on fresh
    zero-started (nodes, kids) windows of the running sum and of the join,
    never on a full-length vector: the largest are the last level's 2^depth
    kids.

    Returns ([l1 norm of the join], [l1 norm of the running sum], telescopes),
    one norm per level; after level d the running sum is y_{d+1}.  Level d's
    nodes are final once it ends, and the last level's kids when the walk
    ends: telescopes says each finished window holds y_depth's closed form
    (_chain_value), so the walk ends at y_depth.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    join_norms, x_norms, norms, telescopes = [], [], np.zeros(2), True
    nodes = np.zeros(1), np.zeros(1)
    for d in range(depth):
        kids = np.zeros(2 ** (d + 1)), np.zeros(2 ** (d + 1))
        _level(d, (nodes[0], kids[0]), (nodes[1], kids[1]), norms)
        join_norms.append(float(norms[0]))
        x_norms.append(float(norms[1]))
        telescopes &= bool(np.all(nodes[0] == _chain_value(d, depth)))
        nodes = kids
    telescopes &= bool(np.all(nodes[0] == _chain_value(depth, depth)))
    return join_norms, x_norms, telescopes


def chain_witness(m: int, n: int):
    """Chain witnesses y_0..y_m (y_k at tree depth k + 1) over a system of
    size n, with their exact norms and lower-bound constants, from one
    windowed walk (chain_prefix_join).

    Returns (rows, reports, telescopes): rows (k, ||y_k|| = 2, norm of the
    running join of y_0..y_k = k + 2), the bibasis and uniform-quasi-greedy
    reports, both (m + 2) / 2 on the coefficients of y_m, and whether every
    finished window of the walk held y_m's closed form: y_m's prefix join
    revisits every y_k, so one walk gives both.  Every one of these values
    is dyadic, hence exact; the caller checks them.
    """
    deepest = m + 1
    if n < (need := chain_size(deepest)):
        raise ValueError(f"system size {n} too small; need at least {need}")
    join_norms, x_norms, telescopes = chain_prefix_join(deepest)
    ratio = join_norms[-1] / x_norms[-1]
    a = chain_coefficients(deepest, n)
    reports = tuple(ConstantReport(name, ratio, a, "structured_family", 1)
                    for name in ("bibasis", "uniform_quasi_greedy"))
    return list(zip(range(deepest), x_norms, join_norms)), reports, telescopes


def lindenstrauss_witness(m: int, n: int):
    """chain_witness(m, n)'s rows and reports, with the whole join as an
    element of l1 over 2n + 2 points and y_m's coordinates: (rows, join,
    reports, y).

    Raises RuntimeError unless the walk telescoped.  A coordinate moves only
    when its parent's level or its own is added, to the value the next y_k
    holds there, so the join of all prefixes is max_k |y_k|, k = 0..m.
    """
    rows, reports, telescopes = chain_witness(m, n)
    if not telescopes:
        raise RuntimeError(f"the chain walk did not end at y{m}")
    dim = 2 * n + 2
    join = np.zeros(dim)
    for d in range(1, m + 2):
        np.maximum(join, np.abs(chain_coords(d, dim)), out=join)
    return rows, Element(lp_block(dim, 1.0), join), reports, chain_coords(m + 1, dim)
