"""Finite pointed metric spaces and exact dyadic coordinates.

Real-valued distances live in doubles and are checked once, where they
enter: the `PointedFiniteMetric` constructor refuses a matrix that is not a
metric, and every public entry of the library takes such a host. Dyadic grid
points are stored exactly as integer numerators over a power-of-two
denominator so that grid membership, coordinate levels, and neighbor
computations never round; a count or a coordinate that is not an integer
raises rather than being truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .constants import check_alpha, check_count, check_integer

_TRIANGLE_TOL = 1e-12


class PointedFiniteMetric:
    """A finite metric space with a distinguished base point.

    Points are hashable labels (coordinate tuples in practice); `dist` is a
    dense symmetric matrix. Validation covers finiteness, symmetry, the zero
    diagonal, positivity off the diagonal, and the triangle inequality.
    """

    def __init__(self, points: Sequence, base: int, dist: np.ndarray):
        self.points = tuple(points)
        self.base = check_count("base index", base, 0)
        self.dist = np.array(dist, dtype=float)
        self.dist.setflags(write=False)
        self._validate()

    def _validate(self) -> None:
        n = len(self.points)
        if n == 0:
            raise ValueError("a pointed metric space needs at least one point")
        if len(set(self.points)) != n:
            raise ValueError("duplicate points in metric space")
        if self.base >= n:
            raise ValueError(f"base index {self.base} out of range for {n} points")
        D = self.dist
        if D.shape != (n, n):
            raise ValueError(f"distance matrix shape {D.shape} != ({n}, {n})")
        bad = np.argwhere(~np.isfinite(D))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"distance d({i},{j}) = {D[i, j]} is not finite")
        if np.any(np.diagonal(D) != 0.0):
            raise ValueError("distance matrix has a nonzero diagonal entry")
        if not np.array_equal(D, D.T):
            raise ValueError("distance matrix is not symmetric")
        if n > 1 and D[~np.eye(n, dtype=bool)].min() <= 0.0:
            raise ValueError("off-diagonal distances must be strictly positive")
        slack = _TRIANGLE_TOL * max(1.0, D.max())
        for k in range(n):
            via = D[:, k, None] + D[k]
            if (D > via + slack).any():
                i, j = np.unravel_index(np.argmax(D - via), (n, n))
                raise ValueError(
                    f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})"
                )

    @property
    def n(self) -> int:
        return len(self.points)

    def distance(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    def __repr__(self) -> str:
        return f"PointedFiniteMetric(n={self.n}, base={self.base})"


def l1_space(points: Iterable[Sequence[float]], base: int = 0) -> PointedFiniteMetric:
    """Finite subset of R^d with the l1 metric."""
    arr = np.array([list(map(float, pt)) for pt in points], dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("need a nonempty list of equal-length coordinate vectors")
    labels = tuple(tuple(float(c) for c in row) for row in arr)
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate points")
    dist = np.abs(arr[:, None, :] - arr[None, :, :]).sum(axis=2)
    np.fill_diagonal(dist, 0.0)
    return PointedFiniteMetric(labels, base, dist)


def lattice_l1_space(
    lattice_points: Iterable[Sequence[int]], scale: float, base: int = 0
) -> PointedFiniteMetric:
    """Integer lattice points carrying the l1 metric scaled by `scale`.

    Distances are computed as scale * (integer l1 distance), one rounding per
    entry, so equal lattice gaps always produce bitwise-equal distances.
    """
    pts = [tuple(check_integer("lattice coordinate", c) for c in v) for v in lattice_points]
    if not pts:
        raise ValueError("need at least one lattice point")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    arr = np.array(pts, dtype=np.int64)
    dist = float(scale) * np.abs(arr[:, None, :] - arr[None, :, :]).sum(axis=2)
    return PointedFiniteMetric(tuple(pts), base, dist)


def holder_distort(space: PointedFiniteMetric, alpha: float) -> PointedFiniteMetric:
    """Replace every distance by its alpha-th power (alpha = 1 is identity).

    Concavity of t -> t^alpha preserves the triangle inequality, which the
    constructor re-checks.
    """
    alpha = check_alpha(alpha, allow_one=True)
    return PointedFiniteMetric(space.points, space.base, space.dist**alpha)


def save_points(space_points: Sequence[Sequence[float]], base: int) -> str:
    """Serialize a point set: first line "d base", then one point per line."""
    pts = [tuple(map(float, p)) for p in space_points]
    d = len(pts[0])
    lines = [f"{d} {int(base)}"]
    lines += [" ".join(repr(c) for c in pt) for pt in pts]
    return "\n".join(lines) + "\n"


def load_points(text: str) -> tuple[list[tuple[float, ...]], int]:
    """Parse the point-set format written by `save_points`."""
    rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise ValueError("empty point-set file")
    try:
        d, base = map(int, rows[0].split())
    except ValueError:
        raise ValueError(
            f"first line {rows[0]!r} must hold the dimension and the base index"
        ) from None
    points = []
    for ln in rows[1:]:
        try:
            coords = tuple(float(tok) for tok in ln.split())
        except ValueError:
            raise ValueError(f"point {ln!r} holds a coordinate that is not a number") from None
        if len(coords) != d:
            raise ValueError(f"point {ln!r} does not have {d} coordinates")
        points.append(coords)
    if not points:
        raise ValueError("point-set file lists no points")
    if not 0 <= base < len(points):
        raise ValueError(f"base index {base} out of range")
    return points, base


# ---------------------------------------------------------------------------
# exact dyadic coordinates


def coordinate_level(x: Fraction | int) -> int:
    """The least n with x in 2^-n Z; equivalently the unique n with an odd
    numerator at scale 2^-n (n = 0 for integers)."""
    x = Fraction(x)
    den = x.denominator
    if den & (den - 1):
        raise ValueError(f"{x} is not a dyadic rational")
    return den.bit_length() - 1


def neighbors(x: Fraction) -> tuple[Fraction, Fraction]:
    """The two adjacent coarser grid points x -+ 2^-n at x's own level n >= 1."""
    x = Fraction(x)
    n = coordinate_level(x)
    if n < 1:
        raise ValueError(f"{x} is at level 0 and has no canonical neighbors")
    h = Fraction(1, 2**n)
    return x - h, x + h


@dataclass(frozen=True, order=True)
class DyadicPoint:
    """A point of [0, 1]^d with coordinates numerators * 2^-level, stored in
    canonical form (minimal level: some numerator odd, or level 0)."""

    level: int
    nums: tuple[int, ...]

    def __post_init__(self):
        level = check_count("level", self.level, 0)
        nums = tuple(check_integer("numerator", n) for n in self.nums)
        if not nums:
            raise ValueError("need at least one coordinate")
        while level > 0 and all(n % 2 == 0 for n in nums):
            nums = tuple(n // 2 for n in nums)
            level -= 1
        if any(not 0 <= n <= 2**level for n in nums):
            raise ValueError("coordinates must lie in [0, 1]")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "nums", nums)

    @classmethod
    def origin(cls, d: int) -> "DyadicPoint":
        return cls(0, (0,) * d)

    @classmethod
    def from_fractions(cls, coords: Iterable[Fraction]) -> "DyadicPoint":
        coords = [Fraction(c) for c in coords]
        level = max(coordinate_level(c) for c in coords)
        nums = tuple(int(c * 2**level) for c in coords)
        return cls(level, nums)

    @property
    def d(self) -> int:
        return len(self.nums)

    def coords(self) -> tuple[Fraction, ...]:
        den = 2**self.level
        return tuple(Fraction(n, den) for n in self.nums)

    def floats(self) -> tuple[float, ...]:
        den = float(2**self.level)
        return tuple(n / den for n in self.nums)

    def is_origin(self) -> bool:
        return all(n == 0 for n in self.nums)


def dyadic_grid(d: int, k: int) -> set[DyadicPoint]:
    """The grid [0,1]^d intersected with 2^-k Z^d; k = -1 gives the origin."""
    d = check_count("d", d, 1)
    k = check_count("k", k, -1)
    if k == -1:
        return {DyadicPoint.origin(d)}
    return {DyadicPoint(k, nums) for nums in product(range(2**k + 1), repeat=d)}


# ---------------------------------------------------------------------------
# coordinate helpers on plain tuples


def replaced(x: Sequence, j: int, value) -> tuple:
    """Replace coordinate j (0-based)."""
    out = list(x)
    out[j] = value
    return tuple(out)
