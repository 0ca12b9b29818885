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

from latmax.constructions.bundles import WitnessBundle
from latmax.spaces import Element, lp_block
from latmax.systems import BiorthogonalSystem, ConstantReport

_DENSE_LIMIT = 1024


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
    exact inverse pairing, so the gram check passes identically.
    """
    if not 1 <= n <= _DENSE_LIMIT:
        raise ValueError(f"n must be in 1..{_DENSE_LIMIT} for the dense build")
    dim = 2 * n + 2
    sp = lp_block(dim, 1.0)
    V = np.zeros((n, dim))
    F = np.zeros((n, dim))
    for k in range(n):
        V[k, k] = 1.0
        c1, c2 = children(k)
        V[k, c1] = -0.5
        V[k, c2] = -0.5
        node, w = k, 1.0
        F[k, node] = w
        while node >= 2:
            node, w = parent(node), w / 2.0
            F[k, node] += w
    return BiorthogonalSystem(sp, V, F)


def chain_element(d: int, dim: int) -> Element:
    """y_d = e_0 - 2^{-d} * indicator(depth-d set), an l1-norm-2 vector."""
    idx = depth_set(d)
    if idx[-1] >= dim:
        raise ValueError("ambient dimension too small for this depth")
    coords = np.zeros(dim)
    coords[0] = 1.0
    coords[idx] = -(2.0 ** -d)
    return Element(lp_block(dim, 1.0), coords)


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
    """Stream the prefix sums of y_depth's coefficient combination.

    For this coefficient vector the natural greedy ordering and the index
    ordering coincide on the support (coefficients decrease with depth, and
    each depth set is a later index run), so one pass yields both the maximal
    partial-sum join and the greedy-maximal join.  Each step touches three
    coordinates, so the walk is linear in the support size.

    Returns (join coordinates, l1 norm of the join, l1 norm of the full sum).
    """
    a = chain_coefficients(depth, n)
    dim = 2 * n + 2
    running = np.zeros(dim)
    join = np.zeros(dim)
    for t in np.flatnonzero(a):
        c = a[t]
        c1, c2 = children(t)
        running[t] += c
        running[c1] -= c / 2.0
        running[c2] -= c / 2.0
        for i in (t, c1, c2):
            join[i] = max(join[i], abs(running[i]))
    return join, float(np.abs(join).sum()), float(np.abs(running).sum())


def lindenstrauss_witness(m: int, n: int) -> WitnessBundle:
    """Chain witnesses y_0..y_m (y_k at tree depth k + 1) over a system of
    size n, with the exact norm, join, and lower-bound constants.
    """
    deepest = m + 1
    need = int(depth_set(deepest - 1)[-1]) + 1 if deepest > 1 else 1
    if n < need:
        raise ValueError(f"system size {n} too small; need at least {need}")
    dim = 2 * n + 2
    sp = lp_block(dim, 1.0)
    bundle = WitnessBundle(space=sp)

    join = np.zeros(dim)
    for k in range(m + 1):
        y = chain_element(k + 1, dim)
        bundle.vectors[f"y{k}"] = y
        bundle.extras.setdefault("index_sets", {})[f"I{k}"] = depth_set(k + 1)
        join = np.maximum(join, np.abs(y.coords))
        if sp.norm(y.coords) != 2.0:  # dyadic, hence exact
            raise RuntimeError(f"chain element y{k} lost its norm 2")
    join_norm = float(np.abs(join).sum())
    bundle.vectors["join"] = Element(sp, join)
    bundle.expect("chain_norm", 2.0, "closed_form")
    bundle.expect("join_norm", float(m + 2), "closed_form")
    if join_norm != float(m + 2):
        raise RuntimeError(f"chain join norm {join_norm!r} is not {m + 2}")

    # one streamed pass certifies both constants: the prefix join of the
    # deepest chain element revisits every y_d
    a = chain_coefficients(deepest, n)
    _, prefix_join_norm, x_norm = chain_prefix_join(deepest, n)
    ratio = prefix_join_norm / x_norm
    for name in ("bibasis", "uniform_quasi_greedy"):
        bundle.reports[name] = ConstantReport(name, ratio, a,
                                              "structured_family", 1)
    bundle.expect("lower_bound", (m + 2) / 2.0, "closed_form")
    if ratio != (m + 2) / 2.0:
        raise RuntimeError(f"prefix-join ratio {ratio!r} is not {(m + 2) / 2.0}")
    return bundle
