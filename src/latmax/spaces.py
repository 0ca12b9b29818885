"""Finite-dimensional Banach lattices and their elements.

A space descriptor is a weighted l_p block, a sup block, or a direct sum of
descriptors combined with an outer l_p norm.  Elements carry dense float64
coordinates against a fixed descriptor; lattice operations (modulus, join)
act coordinatewise.
"""

from __future__ import annotations

import json
import math

import numpy as np

_INF = math.inf


def _as_weights(dim: int, weights) -> np.ndarray:
    if weights is None:
        w = np.ones(dim)
    else:
        w = np.asarray(weights, dtype=float).copy()
    if w.shape != (dim,):
        raise ValueError(f"weights shape {w.shape} does not match dim {dim}")
    if not np.all(w > 0):
        raise ValueError("weights must be strictly positive")
    w.flags.writeable = False
    return w


class SpaceDescriptor:
    """Base class; concrete descriptors implement norm evaluation."""

    dim: int

    def norm(self, coords: np.ndarray) -> float:
        return float(self.norms(np.asarray(coords, dtype=float)[None, :])[0])

    def norms(self, rows: np.ndarray) -> np.ndarray:
        """Norms of a batch of coordinate rows (shape (k, dim))."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class LpBlock(SpaceDescriptor):
    """Weighted l_p over `dim` coordinates, 1 <= p < inf.

    p = inf is not representable here; use lp_block(), which returns a
    SupBlock in that case.
    """

    def __init__(self, dim: int, p: float, weights=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        p = float(p)
        if math.isinf(p):
            raise ValueError("p = inf: use lp_block(), which builds a SupBlock")
        if p < 1:
            raise ValueError("p must be >= 1")
        self.dim = int(dim)
        self.p = p
        self.weights = _as_weights(dim, weights)

    def norms(self, rows: np.ndarray) -> np.ndarray:
        a = np.abs(rows)
        if self.p == 1.0:
            return a @ self.weights
        if self.p == 2.0:
            return np.sqrt((a * a) @ self.weights)
        return ((a ** self.p) @ self.weights) ** (1.0 / self.p)

    def to_json(self) -> dict:
        return {
            "type": "lp",
            "dim": self.dim,
            "p": self.p,
            "weights": self.weights.tolist(),
        }

    def __eq__(self, other):
        return (
            isinstance(other, LpBlock)
            and self.dim == other.dim
            and self.p == other.p
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash(("lp", self.dim, self.p, self.weights.tobytes()))

    def __repr__(self):
        return f"LpBlock(dim={self.dim}, p={self.p})"


class SupBlock(SpaceDescriptor):
    """Coordinatewise sup norm over `dim` coordinates."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)

    def norms(self, rows: np.ndarray) -> np.ndarray:
        return np.max(np.abs(rows), axis=1)

    def to_json(self) -> dict:
        return {"type": "sup", "dim": self.dim}

    def __eq__(self, other):
        return isinstance(other, SupBlock) and self.dim == other.dim

    def __hash__(self):
        return hash(("sup", self.dim))

    def __repr__(self):
        return f"SupBlock(dim={self.dim})"


class DirectSum(SpaceDescriptor):
    """Concatenation of part descriptors with an outer l_p combination."""

    def __init__(self, outer_p: float, parts):
        outer_p = float(outer_p)
        if outer_p < 1:
            raise ValueError("outer_p must be >= 1 (inf allowed)")
        parts = tuple(parts)
        if not parts:
            raise ValueError("DirectSum needs at least one part")
        self.outer_p = outer_p
        self.parts = parts
        self.dim = sum(part.dim for part in parts)
        offs = np.cumsum([0] + [part.dim for part in parts])
        self._slices = [slice(int(a), int(b)) for a, b in zip(offs[:-1], offs[1:])]

    def norms(self, rows: np.ndarray) -> np.ndarray:
        per = np.stack(
            [part.norms(rows[:, sl]) for part, sl in zip(self.parts, self._slices)],
            axis=1,
        )
        if math.isinf(self.outer_p):
            return np.max(per, axis=1)
        if self.outer_p == 1.0:
            return np.sum(per, axis=1)
        if self.outer_p == 2.0:
            return np.sqrt(np.sum(per * per, axis=1))
        return np.sum(per ** self.outer_p, axis=1) ** (1.0 / self.outer_p)

    def to_json(self) -> dict:
        p = "inf" if math.isinf(self.outer_p) else self.outer_p
        return {"type": "sum", "p": p, "parts": [part.to_json() for part in self.parts]}

    def __eq__(self, other):
        return (
            isinstance(other, DirectSum)
            and self.outer_p == other.outer_p
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash(("sum", self.outer_p, self.parts))

    def __repr__(self):
        inner = ", ".join(repr(part) for part in self.parts)
        return f"DirectSum(outer_p={self.outer_p}, parts=[{inner}])"


def lp_block(dim: int, p: float, weights=None) -> SpaceDescriptor:
    """l_p block constructor; p = inf collapses to a SupBlock (weights dropped)."""
    if math.isinf(float(p)):
        return SupBlock(dim)
    return LpBlock(dim, p, weights)


def dyadic_lp(J: int, p: float) -> SpaceDescriptor:
    """L_p[0,1) sampled on 2^J dyadic cells: weights 2^-J (a probability grid)."""
    if J < 0:
        raise ValueError("J must be >= 0")
    return lp_block(2 ** J, p, np.full(2 ** J, 2.0 ** -J))


def space_from_json(obj: dict) -> SpaceDescriptor:
    kind = obj["type"]
    if kind == "lp":
        return lp_block(obj["dim"], obj["p"], obj.get("weights"))
    if kind == "sup":
        return SupBlock(obj["dim"])
    if kind == "sum":
        p = _INF if obj["p"] == "inf" else float(obj["p"])
        return DirectSum(p, [space_from_json(part) for part in obj["parts"]])
    raise ValueError(f"unknown space type {kind!r}")


class Element:
    """A vector in a fixed space.  Treat as immutable; operations return copies."""

    __slots__ = ("space", "coords")

    def __init__(self, space: SpaceDescriptor, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (space.dim,):
            raise ValueError(f"coords shape {coords.shape} does not match dim {space.dim}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        self.space = space
        self.coords = coords.copy()
        self.coords.flags.writeable = False

    def norm(self) -> float:
        return self.space.norm(self.coords)

    def __array__(self, dtype=None, copy=None):
        # lets numpy consumers (and space.norm) take Elements directly
        return np.asarray(self.coords, dtype=dtype)

    def __add__(self, other):
        self._check(other)
        return Element(self.space, self.coords + other.coords)

    def __sub__(self, other):
        self._check(other)
        return Element(self.space, self.coords - other.coords)

    def __mul__(self, scalar):
        return Element(self.space, self.coords * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Element(self.space, -self.coords)

    def _check(self, other):
        if not isinstance(other, Element) or other.space != self.space:
            raise ValueError("operands live in different spaces")

    def to_json(self) -> dict:
        return {"space": self.space.to_json(), "coords": self.coords.tolist()}

    def __repr__(self):
        return f"Element({self.space!r}, coords[{self.space.dim}])"


def modulus(x: Element) -> Element:
    """Coordinatewise |x|."""
    return Element(x.space, np.abs(x.coords))


def join(xs) -> Element:
    """Coordinatewise supremum of one or more elements of a common space."""
    xs = list(xs)
    if not xs:
        raise ValueError("join of an empty family")
    space = xs[0].space
    acc = xs[0].coords
    for x in xs[1:]:
        if x.space != space:
            raise ValueError("join across different spaces")
        acc = np.maximum(acc, x.coords)
    return Element(space, acc)


def element_from_json(obj) -> Element:
    if isinstance(obj, str):
        obj = json.loads(obj)
    return Element(space_from_json(obj["space"]), np.asarray(obj["coords"], dtype=float))
