"""Cube complexes and their multilinear vertex weights.

A complex is a nonempty set of axis-aligned cubes R*w + R*[0,1]^d indexed by
integer offsets w. The weight of a lattice vertex v at a point x is the
product over coordinates of the one-dimensional affine weights; within each
cube the weights form a partition of unity that is Kronecker at vertices.
Vertices are handled in lattice units (integers), positions in actual
coordinates.

`vertex_weights` is the one kernel, for an (N, d) array of points, in three
public stages: `find_cubes` finds each point's cube from the floor of its
lattice position and a sorted table of the offsets present, `local_coords`
places the points in their cubes, and `tensor_weights` forms the 2^d weights
of a cube's vertices as one tensor product of the local coordinates. The
retraction weighs the rows of its upper decompositions with the last two.
`find_cube`, `lambda_support` and `lambda_weight` are one-point views of
the kernel. `vertex_ids` indexes lattice vertices by the same search over
a sorted table of the vertices present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .constants import check_count, check_integer

_CUBE_TOL = 1e-12
# Offsets are bounded so that every point that can lie in a cube has a
# lookup tolerance below 0.003 lattice units: such a point lies in the cube at
# the floor of its lattice position or, on or near a face, in the one beside.
MAX_OFFSET = 2**31
# A cube has 2^d vertices, and the retraction harness holds arrays of
# (2^d)^3 entries: on a 2-vCPU VM `retraction-verify --samples 10` took
# 1.5 s and 378 MB at d = 8, 10 s at d = 9, and at d = 10 it asked for
# 8 GiB. So a complex of higher dimension is refused before any work.
MAX_D = 8
# The lookup takes at most this many (point, candidate cube) cells per block,
# so its scratch memory does not grow with the number of points.
_BLOCK_CELLS = 2**13


class VertexWeight(NamedTuple):
    vertex: tuple[int, ...]
    weight: float


def scalar_coeff(x, w: int):
    """One-dimensional weight of lattice coordinate w at local position x;
    elementwise when x is an array."""
    x = np.asarray(x, dtype=float)
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise ValueError(f"local coordinate {x} outside [0, 1]")
    out = x if w == 1 else 1.0 - x if w == 0 else np.zeros_like(x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CubeComplex:
    """Scale R plus integer cube offsets; vertices in lattice units."""

    d: int
    R: float
    offsets: tuple[tuple[int, ...], ...]
    base_vertex: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        d = _check_dimension(check_count("d", self.d, 1))
        if not (math.isfinite(self.R) and self.R > 0):
            raise ValueError(f"R must be a finite positive number, got {self.R!r}")
        offs = sorted(
            {tuple(check_integer("offset coordinate", c) for c in w) for w in self.offsets}
        )
        if not offs:
            raise ValueError("a cube complex needs at least one cube")
        if any(len(w) != d for w in offs):
            raise ValueError("every offset must have d coordinates")
        if any(abs(c) > MAX_OFFSET for w in offs for c in w):
            raise ValueError(f"offset coordinates must lie within +-{MAX_OFFSET}")
        verts = sorted(
            {tuple(wi + b for wi, b in zip(w, bits)) for w in offs for bits in product((0, 1), repeat=d)}
        )
        base = self.base_vertex
        if base is None:
            base = verts[0]
        else:
            base = tuple(check_integer("base vertex coordinate", c) for c in base)
        if base not in verts:
            raise ValueError(f"base vertex {base} is not a vertex of the complex")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "R", float(self.R))
        object.__setattr__(self, "offsets", tuple(offs))
        object.__setattr__(self, "base_vertex", base)
        object.__setattr__(self, "_vertices", tuple(verts))
        # offsets and vertices as sorted tables of records, one per point, of
        # d int64 fields, which compare (and search) lexicographically
        object.__setattr__(self, "_cubes", _records(np.array(offs, dtype=np.int64)))
        object.__setattr__(self, "_verts", _records(np.array(verts, dtype=np.int64)))

    def vertices(self) -> tuple[tuple[int, ...], ...]:
        return self._vertices  # type: ignore[attr-defined]


def _check_dimension(d: int) -> int:
    if d > MAX_D:
        raise ValueError(f"--d {d} is beyond the cap {MAX_D} on the dimension of a cube complex; lower --d")
    return d


@lru_cache(maxsize=None)
def vertex_bits(d: int) -> np.ndarray:
    """The (2^d, d) vertex offsets of a cube in `product((0, 1), repeat=d)`
    order, the column order of `vertex_weights` (read-only)."""
    bits = np.array(list(product((0, 1), repeat=d)), dtype=np.int64)
    bits.setflags(write=False)
    return bits


def _records(A: np.ndarray) -> np.ndarray:
    """The int64 points A (..., d) as records (...) of d fields."""
    A = np.ascontiguousarray(A, dtype=np.int64)
    return A.view(np.dtype([(f"c{i}", np.int64) for i in range(A.shape[-1])]))[..., 0]


def _search(table: np.ndarray, P) -> tuple[np.ndarray, np.ndarray]:
    """(row, present) of each int64 point in P (..., d) in the sorted record
    table: where it sits in the table, and whether it is there."""
    keys = _records(P)
    row = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return row, table[row] == keys


def vertex_ids(complex: CubeComplex, V) -> np.ndarray:
    """Indices into `complex.vertices()` of the lattice points V (..., d);
    raises for the first point that is not a vertex of the complex."""
    V = np.asarray(V, dtype=np.int64)
    if V.ndim < 1 or V.shape[-1] != complex.d:
        raise ValueError(f"lattice points must have {complex.d} coordinates")
    row, present = _search(complex._verts, V)  # type: ignore[attr-defined]
    if not present.all():
        k = np.unravel_index(np.argmin(present), present.shape)
        raise ValueError(f"lattice point {tuple(V[k].tolist())} is missing from the complex")
    return row


def _lookup(complex: CubeComplex, X: np.ndarray) -> np.ndarray:
    """`find_cubes` of one block of rows."""
    Z = X / complex.R
    A = np.abs(Z)
    # a point beyond MAX_OFFSET + 2 (or NaN) is inside no cube at any tolerance
    near = (A <= MAX_OFFSET + 2.0).all(axis=1, keepdims=True)
    F = np.floor(np.where(near, Z, 0.0))
    bits = vertex_bits(complex.d)
    rows = np.arange(len(Z))
    out = np.empty(Z.shape, dtype=np.int64)
    found = np.zeros(len(Z), dtype=bool)
    for exact in (True, False):
        tol = 0.0 if exact else _CUBE_TOL * (1.0 + A.max(axis=1, keepdims=True))
        # the cube at the floor contains z; the one below too when z is
        # within tol above the floor, the one above when within tol below it
        below = Z <= F + tol
        C = (F - below)[:, None, :] + bits  # candidates, lexicographic per row
        hit = (bits <= (below | (Z >= (F + 1.0) - tol))[:, None, :]).all(axis=2)
        hit &= near & _search(complex._cubes, C)[1]  # type: ignore[attr-defined]
        first = hit.argmax(axis=1)
        new = hit[rows, first] & ~found
        out[new] = C[new, first[new]]
        found |= new
        if found.all():
            return out
    k = int(np.argmin(found))
    raise ValueError(f"point {tuple(map(float, X[k]))} lies outside the complex")


def as_points(complex: CubeComplex, *xs) -> np.ndarray:
    """The points xs, each with d coordinates, as the rows of an array."""
    X = [np.asarray(x, dtype=float) for x in xs]
    if any(x.shape != (complex.d,) for x in X):
        raise ValueError(f"point must have {complex.d} coordinates")
    return np.array(X)


def find_cubes(complex: CubeComplex, X) -> np.ndarray:
    """Offsets (N, d) of the cubes containing the points X (N, d), in actual
    coordinates.

    A point lies in cube w when its lattice position z = x/R is within
    _CUBE_TOL (1 + max|z|) of w + [0, 1]^d; an exact pass comes first, and
    the lexicographically smallest cube wins on shared faces. Raises for the
    first point inside no cube.
    """
    X = np.asarray(X, dtype=float)
    d = complex.d
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"points must form an (N, {d}) array")
    W = np.empty(X.shape, dtype=np.int64)
    step = max(1, _BLOCK_CELLS >> d)
    for s in range(0, len(X), step):
        W[s : s + step] = _lookup(complex, X[s : s + step])
    return W


def local_coords(complex: CubeComplex, W, X) -> np.ndarray:
    """Coordinates (N, d) of the points X in the cubes W.

    A coordinate within the lookup tolerance _CUBE_TOL (1 + max|z|) of 0 or
    1, z = x/R, is exactly 0 or 1, so a point on a face is weighed on it
    (R v / R may miss a vertex v by an ulp); the others are clipped to [0, 1].
    """
    Z = np.asarray(X, dtype=float) / complex.R
    T = Z - np.asarray(W)
    tol = _CUBE_TOL * (1.0 + np.abs(Z).max(axis=1, keepdims=True))
    return np.where(T <= tol, 0.0, np.where(T >= 1.0 - tol, 1.0, T))


def tensor_weights(T) -> np.ndarray:
    """Vertex weights (N, 2^d) at the local coordinates T (N, d).

    Column j multiplies, left to right, the factor 1 - t_i or t_i of each
    axis as bit i of vertex_bits(d)[j] is 0 or 1.
    """
    T = np.asarray(T, dtype=float)
    N, d = T.shape
    factors = np.concatenate([1.0 - T, T], axis=1).reshape(N, 2, d)
    L = factors[:, :, 0]
    for i in range(1, d):  # new axis as the fastest-varying column bit
        L = (L[:, :, None] * factors[:, None, :, i]).reshape(N, 2 << i)
    return L


def vertex_weights(complex: CubeComplex, X) -> tuple[np.ndarray, np.ndarray]:
    """Containing-cube offsets W (N, d) and vertex weights (N, 2^d) of the
    points X (N, d), in actual coordinates; column j holds the weight of
    vertex W + vertex_bits(d)[j]."""
    W = find_cubes(complex, X)
    return W, tensor_weights(local_coords(complex, W, X))


def find_cube(complex: CubeComplex, x: Sequence[float]) -> tuple[int, ...]:
    """Offset of a cube of the complex containing x (lexicographically
    smallest on shared faces); raises if x lies outside every cube."""
    return tuple(int(c) for c in find_cubes(complex, as_points(complex, x))[0])


def lambda_weight(complex: CubeComplex, v: Sequence[int], x: Sequence[float]) -> float:
    """Weight of lattice vertex v (lattice units) at point x (actual
    coordinates); zero whenever v is not a vertex of x's cube."""
    v = np.array([check_integer("vertex coordinate", c) for c in v], dtype=np.int64)
    if v.shape != (complex.d,):
        raise ValueError(f"vertex must have {complex.d} coordinates")
    W, L = vertex_weights(complex, as_points(complex, x))
    bit = v - W[0]
    if np.any((bit < 0) | (bit > 1)):
        return 0.0
    weight = float(L[0, int(bit @ (1 << np.arange(complex.d)[::-1]))])
    return 0.0 if weight == 0.0 else weight


def lambda_support(complex: CubeComplex, x: Sequence[float]) -> list[VertexWeight]:
    """All vertices with nonzero weight at x, with their weights.

    At most 2^d entries; the weights sum to 1 to machine precision. Tiny
    weights are kept, never truncated.
    """
    W, L = vertex_weights(complex, as_points(complex, x))
    w = W[0].tolist()
    return [
        VertexWeight(tuple(a + b for a, b in zip(w, bits)), weight)
        for bits, weight in zip(vertex_bits(complex.d).tolist(), L[0].tolist())
        if weight != 0.0
    ]


def load_complex(text: str) -> CubeComplex:
    rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(rows) < 3:
        raise ValueError("complex file needs a header, offsets, and a base vertex")
    try:
        d, R = rows[0].split()
        d, R = int(d), float(R)
    except ValueError:
        raise ValueError(f"first line {rows[0]!r} must hold an integer d and a real R") from None
    _check_dimension(d)
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"complex file R must be a finite positive number, got {R!r}")
    vectors = []
    for ln in rows[1:]:
        try:
            vectors.append(tuple(int(tok) for tok in ln.split()))
        except ValueError:
            raise ValueError(f"complex line {ln!r} holds a value that is not an integer") from None
    if any(len(v) != d for v in vectors):
        raise ValueError("every offset line must have d integers")
    return CubeComplex(d=d, R=R, offsets=tuple(vectors[:-1]), base_vertex=vectors[-1])
