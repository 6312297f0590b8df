"""Dyadic multiresolution basis of the distorted cube and its certified
decomposition algorithms.

The basis element at a grid point v of exact level k is the scaled
difference between delta(v) and its coarser-grid interpolation,
2^(k*alpha) * (delta(v) - sum_u w(u, v) delta(u)); corners at level 0 map to
their bare evaluations. The basis is level-triangular, so every dyadically
supported element has unique coefficients, which `analyze` peels level by
level from finest to coarsest; `synthesize` maps coefficients back to point
evaluations. `analyze` is the one routine that computes basis coefficients:
the expansions of the paper's lemmas are analyses of their targets,

* `hat_decompose`      - a single coordinate evaluation over an interval,
* `step_decompose`     - an axis-centered second difference at any grid point,
* `molecule_decompose` - a normalized molecule (delta(u) - delta(v)) / |u - v|_1^alpha,

and `verify_norming` builds the analysis operator of a grid once, so each
molecule's coefficients are a scaled difference of two of its columns.
`line_path`, a mesh-adjacent chain between two dyadic scalars, stays
constructive. The face-induction construction of molecules, with the
constructive hat and step kernels it is built from, is kept in the tests as
an oracle for the analysis.

All coefficients are finite sums of dyadic rationals times integer powers
of X = 2^(-alpha); the default double-precision mode checks reconstruction
to 1e-9, while the exact mode carries the coefficients symbolically (the
molecule routine then returns the unnormalized difference, since the
molecule's own normalizer 1/|u-v|^alpha generally leaves the ring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .constants import bm_bound, c_const, check_alpha, check_p, rho, tau
from .freenorm import DEFAULT_CAP, FreeElement, exact_norm_small
from .metric import (
    DyadicPoint,
    coordinate_level,
    dyadic_grid,
    holder_distort,
    l1_space,
    neighbors,
    replaced,
)

REC_TOL = 1e-9
PRUNE_TOL = 1e-13
MAX_LEVEL = 32


# ---------------------------------------------------------------------------
# coefficient arithmetic: doubles, or exact sums of q * X^m with X = 2^-alpha


class PowSum:
    """Finite sum of dyadic rationals times integer powers of X = 2^-alpha."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        self.terms = {m: q for m, q in (terms or {}).items() if q != 0}

    def __add__(self, other: "PowSum") -> "PowSum":
        out = dict(self.terms)
        for m, q in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + q
        return PowSum(out)

    def __sub__(self, other: "PowSum") -> "PowSum":
        return self + (-other)

    def __neg__(self) -> "PowSum":
        return PowSum({m: -q for m, q in self.terms.items()})

    def __mul__(self, other: "PowSum") -> "PowSum":
        out: dict[int, Fraction] = {}
        for m1, q1 in self.terms.items():
            for m2, q2 in other.terms.items():
                m = m1 + m2
                out[m] = out.get(m, Fraction(0)) + q1 * q2
        return PowSum(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, PowSum) and self.terms == other.terms

    def to_float(self, alpha: float) -> float:
        return float(sum(q * 2.0 ** (-m * alpha) for m, q in self.terms.items()))

    def __repr__(self) -> str:
        return f"PowSum({self.terms})"


class _FloatCoeffs:
    exact = False

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.one = 1.0

    def xm(self, m: int) -> float:
        return 2.0 ** (-m * self.alpha)

    def rat(self, q) -> float:
        return float(q)

    def is_zero(self, c) -> bool:
        return c == 0.0


class _ExactCoeffs:
    exact = True

    def __init__(self):
        self.one = PowSum({0: Fraction(1)})

    def xm(self, m: int) -> PowSum:
        return PowSum({m: Fraction(1)})

    def rat(self, q) -> PowSum:
        return PowSum({0: Fraction(q)})

    def is_zero(self, c) -> bool:
        return c.is_zero()


def _acc(target: dict, source: dict, factor=None) -> None:
    for key, c in source.items():
        inc = c if factor is None else factor * c
        if key in target:
            target[key] = target[key] + inc
        else:
            target[key] = inc


def _pruned(comb: dict, ctx) -> dict:
    if ctx.exact:
        return {k: c for k, c in comb.items() if not c.is_zero()}
    scale = max((abs(c) for c in comb.values()), default=0.0)
    floor = PRUNE_TOL * (1.0 + scale)
    return {k: c for k, c in comb.items() if abs(c) > floor}


# ---------------------------------------------------------------------------
# basis indices and combinations


@dataclass(frozen=True)
class BasisIndex:
    """A dyadic point v of [0,1]^d at its exact level k >= 0, excluding the
    origin (whose evaluation is the zero vector)."""

    point: DyadicPoint
    k: int = None  # type: ignore[assignment]

    def __post_init__(self):
        k = self.point.level if self.k is None else int(self.k)
        if k != self.point.level or self.point.is_origin():
            raise ValueError(
                f"stale basis index: {self.point} lies on the level-{max(k - 1, -1)} grid"
            )
        object.__setattr__(self, "k", k)


@dataclass
class BasisCombination:
    """Sparse coefficients over basis points; values are doubles in the
    default mode and `PowSum` ring elements in exact mode."""

    coeffs: dict[DyadicPoint, object] = field(default_factory=dict)
    exact: bool = False

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0].level, kv[0].nums))

    def p_cost(self, p: float, alpha: float | None = None) -> float:
        p = check_p(p)
        if not self.coeffs:
            return 0.0
        if self.exact:
            vals = np.array([abs(c.to_float(alpha)) for c in self.coeffs.values()])
        else:
            vals = np.abs(np.array(list(self.coeffs.values()), dtype=float))
        return float((vals**p).sum() ** (1.0 / p))


def basis_points(d: int, k_max: int) -> list[DyadicPoint]:
    """All basis points at canonical level <= k_max, sorted by (level, nums)."""
    pts = [v for v in dyadic_grid(d, k_max) if not v.is_origin()]
    return sorted(pts, key=lambda v: (v.level, v.nums))


@lru_cache(maxsize=1 << 14)
def _coarse_neighbors(v: DyadicPoint) -> tuple[tuple[DyadicPoint, Fraction], ...]:
    """The pairs (u, w(u, v)) of the coarser-grid interpolation of a point v
    at level k >= 1, origin included: each coordinate at level k moves to
    one of its two `neighbors` with weight 1/2, the others stay."""
    half = Fraction(1, 2)
    axes = [
        [(x, half) for x in neighbors(c)] if coordinate_level(c) == v.level else [(c, Fraction(1))]
        for c in v.coords()
    ]
    return tuple(
        (DyadicPoint.from_fractions(c for c, _ in combo), math.prod(q for _, q in combo))
        for combo in product(*axes)
    )


def _iota_expansion(v: DyadicPoint, ctx) -> dict[DyadicPoint, object]:
    """Point-evaluation expansion of the basis element at v (origin entries
    dropped, since the base evaluation vanishes)."""
    if v.level == 0:
        return {} if v.is_origin() else {v: ctx.one}
    scale = ctx.xm(-v.level)
    out = {v: scale}
    for u, weight in _coarse_neighbors(v):
        if not u.is_origin():
            out[u] = ctx.rat(-weight) * scale
    return out


def _zero(ctx):
    return PowSum() if ctx.exact else 0.0


def synthesize(
    comb: BasisCombination | dict, alpha: float | None = None, exact: bool = False
) -> dict[DyadicPoint, object]:
    """Point-evaluation expansion of a coefficient combination."""
    if isinstance(comb, BasisCombination):
        exact = comb.exact
        comb = comb.coeffs
    ctx = _ExactCoeffs() if exact else _FloatCoeffs(check_alpha(alpha))
    out: dict[DyadicPoint, object] = {}
    for v, c in comb.items():
        _acc(out, _iota_expansion(v, ctx), c)
    return _pruned(out, ctx)


# ---------------------------------------------------------------------------
# the hat expansion of a single coordinate evaluation


class HatTerm(NamedTuple):
    nu: float
    level: int
    position: Fraction


class HatDecomposition(NamedTuple):
    mu1: float
    mu2: float
    terms: tuple[HatTerm, ...]


def _check_dyadic_unit(x) -> Fraction:
    x = Fraction(x)
    coordinate_level(x)  # raises on non-dyadic
    if not 0 <= x <= 1:
        raise ValueError(f"{x} outside [0, 1]")
    return x


def hat_decompose(u1, u2, v, alpha: float) -> HatDecomposition:
    """Expand 2^(n*alpha) delta(v) over the interval endpoints and centered
    second differences at the strictly finer levels.

    The convex endpoint weights sum to one; the term coefficients satisfy
    (sum nu_i^p)^(1/p) <= 2^(-alpha) (1/(1 - 2^(-p*alpha)))^(1/p) for every
    0 < p <= 1, with at most one term per level. The terms are the
    coefficients above level n of the analysis of 2^(n*alpha) delta(v) on
    [0, 1]; the rest of that analysis expands the endpoint part.
    """
    alpha = check_alpha(alpha)
    u1, u2, v = Fraction(u1), Fraction(u2), Fraction(v)
    gap = u2 - u1
    if gap <= 0 or gap.numerator != 1:
        raise ValueError("u1, u2 must be adjacent grid points with u1 < u2")
    n = coordinate_level(gap)
    if (u1 * 2**n).denominator != 1:
        raise ValueError(f"u1 = {u1} is not on the level-{n} grid")
    if not u1 <= v <= u2:
        raise ValueError(f"{v} outside [{u1}, {u2}]")
    comb = analyze({DyadicPoint.from_fractions([v]): PowSum({-n: Fraction(1)})}, None, exact=True)
    terms = tuple(
        HatTerm(c.to_float(alpha), w.level, w.coords()[0])
        for w, c in comb.items_sorted()
        if w.level > n
    )
    return HatDecomposition(float((u2 - v) / gap), float((v - u1) / gap), terms)


# ---------------------------------------------------------------------------
# the axis-step expansion


def _step_element(v: DyadicPoint, axis: int) -> dict[DyadicPoint, PowSum]:
    """The step element of `step_decompose` in the exact ring, origin entry
    dropped."""
    coords = v.coords()
    if not 0 <= axis < v.d:
        raise ValueError(f"axis {axis} out of range")
    n = coordinate_level(coords[axis])
    if n < 1:
        raise ValueError(f"coordinate {coords[axis]} of v is at level 0")
    out = {v: PowSum({-n: Fraction(1)})}
    for c in neighbors(coords[axis]):
        out[DyadicPoint.from_fractions(replaced(coords, axis, c))] = PowSum({-n: Fraction(-1, 2)})
    return {u: c for u, c in out.items() if not u.is_origin()}


def step_decompose(
    v: DyadicPoint, axis: int, alpha: float, exact: bool = False
) -> BasisCombination:
    """Expand 2^(n*alpha)(delta(v) - (delta(v + h e_axis) + delta(v - h e_axis)) / 2)
    over the basis, where h = 2^-n and the axis coordinate of v has exact
    level n >= 1; the cost is at most rho^(l+1) <= rho^d with l the number of
    coordinates of v finer than level n.

    The double mode evaluates the exact coefficients: a double analysis
    rounds on the way (1.0000000000000002 for the d = 1 base case).
    """
    comb = analyze(_step_element(v, axis), None, exact=True)
    if exact:
        return comb
    alpha = check_alpha(alpha)
    return BasisCombination({u: c.to_float(alpha) for u, c in comb.coeffs.items()})


def step_target(v: DyadicPoint, axis: int, alpha: float) -> dict[DyadicPoint, float]:
    """Point expansion of the step element (origin entries dropped)."""
    return {u: c.to_float(alpha) for u, c in _step_element(v, axis).items()}


# ---------------------------------------------------------------------------
# mesh-adjacent paths between dyadic scalars


def line_path(u, v) -> list[Fraction]:
    """A chain from u to v whose consecutive entries share a level k and
    differ by exactly 2^-k.

    Built by locating the coarsest grid point between the two (the smaller
    candidate on ties) and extending outward one mesh step per level; the
    gap profile then carries at most two gaps per level, which yields the
    strict cost bound checked in the suite.
    """
    u = _check_dyadic_unit(u)
    v = _check_dyadic_unit(v)
    if u == v:
        raise ValueError("path endpoints must differ")
    a, b = (u, v) if u < v else (v, u)
    n = max(coordinate_level(a), coordinate_level(b))

    first = None
    for k in range(-1, n + 1):
        step = Fraction(2) if k == -1 else Fraction(1, 2**k)
        m = math.ceil(a / step) * step
        if m <= b:
            first = m
            n0 = k
            break
    assert first is not None

    lo = hi = first
    lows: list[Fraction] = []
    highs: list[Fraction] = []
    for k in range(n0 + 1, n + 1):
        h = Fraction(1, 2**k)
        if lo - h >= a:
            lo -= h
            lows.append(lo)
        if hi + h <= b:
            hi += h
            highs.append(hi)
    assert lo == a and hi == b
    path = list(reversed(lows)) + [first] + highs
    if u > v:
        path.reverse()
    return path


def path_cost(path: list[Fraction], p: float, alpha: float) -> float:
    gaps = [abs(b - a) for a, b in zip(path, path[1:])]
    return float(sum(float(g) ** (p * alpha) for g in gaps) ** (1.0 / p))


# ---------------------------------------------------------------------------
# molecules through the analysis operator


def _check_molecule(u: DyadicPoint, v: DyadicPoint) -> None:
    if u == v:
        raise ValueError("a molecule needs two distinct points")
    if u.d != v.d:
        raise ValueError("points of different dimensions")


def molecule_difference(
    u: DyadicPoint, v: DyadicPoint, alpha: float | None = None, exact: bool = False
) -> BasisCombination:
    """Combination reconstructing the unnormalized difference
    delta(u) - delta(v)."""
    _check_molecule(u, v)
    one = PowSum({0: Fraction(1)}) if exact else 1.0
    return analyze({u: one, v: -one}, alpha, exact)


def molecule_l1(u: DyadicPoint, v: DyadicPoint) -> Fraction:
    return sum((abs(a - b) for a, b in zip(u.coords(), v.coords())), Fraction(0))


def molecule_decompose(u: DyadicPoint, v: DyadicPoint, alpha: float) -> BasisCombination:
    """Combination reconstructing the molecule
    (delta(u) - delta(v)) / |u - v|_1^alpha, with p-cost at most
    tau(p, alpha, d)^d * rho(p, alpha)^d for every 0 < p <= 1."""
    _check_molecule(u, v)
    alpha = check_alpha(alpha)
    return analyze(molecule_target(u, v, alpha), alpha)


def molecule_target(u: DyadicPoint, v: DyadicPoint, alpha: float) -> dict[DyadicPoint, float]:
    s = 1.0 / float(molecule_l1(u, v)) ** alpha
    out: dict[DyadicPoint, float] = {}
    if not u.is_origin():
        out[u] = s
    if not v.is_origin():
        out[v] = out.get(v, 0.0) - s
    return out


def reconstruction_residual(
    comb: BasisCombination, target: dict[DyadicPoint, float], alpha: float
) -> float:
    """Max pointwise deviation between the synthesized combination and a
    target point expansion."""
    synth = synthesize(comb, alpha)
    keys = set(synth) | set(target)
    return max(
        (abs(float(synth.get(k, 0.0)) - float(target.get(k, 0.0))) for k in keys),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# basis elements as free elements, norm checks, and the norming report


def basis_element(v: DyadicPoint | BasisIndex, alpha: float) -> FreeElement:
    """The basis element at v as a free element over its support plus the
    origin, under the alpha-distorted l1 metric."""
    if isinstance(v, BasisIndex):
        v = v.point
    if v.is_origin():
        raise ValueError("the origin does not index a basis element")
    alpha = check_alpha(alpha)
    ctx = _FloatCoeffs(alpha)
    expansion = _iota_expansion(v, ctx)
    support = sorted(expansion, key=lambda q: (q.level, q.nums))
    points = [DyadicPoint.origin(v.d)] + support
    host = holder_distort(l1_space([q.floats() for q in points], base=0), alpha)
    return FreeElement(host, {i + 1: expansion[q] for i, q in enumerate(support)})


def _proof_cost(v: DyadicPoint, alpha: float, p: float) -> float:
    """Cost of the partition-of-unity decomposition of the basis element at v
    into molecules toward its coarser neighbors (origin included)."""
    k = v.level
    if k == 0:
        return float(molecule_l1(v, DyadicPoint.origin(v.d))) ** alpha
    total = 0.0
    for u, weight in _coarse_neighbors(v):
        dist = float(molecule_l1(v, u)) ** alpha
        total += (2.0 ** (k * alpha) * float(weight) * dist) ** p
    return total ** (1.0 / p)


def basis_norm_check(
    v: DyadicPoint | BasisIndex, alpha: float, p: float, cap: int = DEFAULT_CAP
) -> tuple[float, float]:
    """(exact norm or certified upper bound, the norming bound d^alpha C(p, 2^d)).

    The exact engine runs whenever the support fits its cap; otherwise the
    partition-of-unity decomposition cost stands in, which never exceeds the
    bound either.
    """
    if isinstance(v, BasisIndex):
        v = v.point
    p = check_p(p)
    alpha = check_alpha(alpha)
    elem = basis_element(v, alpha)
    if elem.host.n <= cap:
        value, _ = exact_norm_small(elem, p, cap=cap)
    else:
        value = _proof_cost(v, alpha, p)
    bound = float(v.d) ** alpha * c_const(p, 2**v.d)
    return value, bound


def analyze(
    m: dict[DyadicPoint, object], alpha: float | None, exact: bool = False
) -> BasisCombination:
    """The unique basis coefficients reproducing a dyadically supported
    element, peeled level by level from finest to coarsest."""
    ctx = _ExactCoeffs() if exact else _FloatCoeffs(check_alpha(alpha))
    work = {pt: c for pt, c in m.items() if not pt.is_origin() and not ctx.is_zero(c)}
    if any(pt.level > MAX_LEVEL for pt in work):
        raise ValueError(f"support is not dyadic at level <= {MAX_LEVEL}")

    out: dict[DyadicPoint, object] = {}
    for k in range(max((pt.level for pt in work), default=0), 0, -1):
        for v in sorted((pt for pt in work if pt.level == k), key=lambda q: q.nums):
            c = work.pop(v)
            coeff = c * ctx.xm(k)
            out[v] = coeff
            for u, cc in _iota_expansion(v, ctx).items():
                if u == v:
                    continue
                work[u] = work.get(u, _zero(ctx)) - coeff * cc
    for v, c in work.items():  # level-0 corners map to bare evaluations
        out[v] = c
    return BasisCombination(_pruned(out, ctx), ctx.exact)


def _analysis_operator(d: int, k_max: int, alpha: float):
    """(grid, S, A) for the level-k_max grid sorted by (level, nums), the
    origin first. Rows index the basis points grid[1:]; column j of the
    synthesis matrix S is the point expansion of the basis element at
    grid[j + 1], and column j of the analysis matrix A holds the basis
    coefficients of delta(grid[j]), zero for the origin."""
    ctx = _FloatCoeffs(alpha)
    pts = basis_points(d, k_max)
    row = {v: i for i, v in enumerate(pts)}
    S = np.zeros((len(pts), len(pts)))
    A = np.zeros((len(pts), len(pts) + 1))
    for j, v in enumerate(pts):
        for u, c in _iota_expansion(v, ctx).items():
            S[row[u], j] = c
        for u, c in analyze({v: 1.0}, alpha).coeffs.items():
            A[row[u], j + 1] = c
    return [DyadicPoint.origin(d)] + pts, S, A


def _molecule_checks(coords, S, A, i, js, alpha, p):
    """(p-costs, reconstruction residuals) of the molecules from grid point
    i to each grid point in js, with S and A from `_analysis_operator`.

    Analysis is linear, so the coefficients of the molecule at (i, j) are
    (A[:, i] - A[:, j]) / |u_i - u_j|_1^alpha, pruned per pair as `analyze`
    prunes: a rounding-level entry left in would move a p < 1 cost by far
    more than its own size."""
    scale = 1.0 / np.abs(coords[js] - coords[i]).sum(axis=1) ** alpha
    C = (A[:, [i]] - A[:, js]) * scale
    C[np.abs(C) <= PRUNE_TOL * (1.0 + np.abs(C).max(axis=0))] = 0.0
    target = np.zeros_like(C)  # rows skip the origin, grid point 0
    if i:
        target[i - 1] = scale
    target[js - 1, np.arange(js.size)] = -scale
    costs = (np.abs(C) ** p).sum(axis=0) ** (1.0 / p)
    return costs, np.abs(S @ C - target).max(axis=0)


def verify_norming(
    d: int,
    alpha: float,
    p: float,
    k_max: int,
    basis_k_max: int | None = None,
    pair_budget: int = 100_000,
) -> dict:
    """Certify the two-sided norming estimates at desk scale.

    Every basis element up to `basis_k_max` is checked against the norm
    bound d^alpha C(p, 2^d); every molecule over the level-`k_max` grid is
    decomposed with reconstruction residual and cost recorded against
    tau^d rho^d. The report carries the resulting norming bound
    C(p, 2^d) rho^d tau^d and a completeness flag (the pair budget trims
    oversized grids, keeping the first pairs of `combinations(grid, 2)`).
    The analysis operator of the grid is built once, and the molecules are
    checked in batch, one first point at a time."""
    p = check_p(p)
    alpha = check_alpha(alpha)
    d = int(d)
    basis_k_max = k_max if basis_k_max is None else int(basis_k_max)

    max_basis = 0.0
    basis_bound = float(d) ** alpha * c_const(p, 2**d)
    basis_ok = True
    for v in basis_points(d, basis_k_max):
        value, bound = basis_norm_check(v, alpha, p)
        max_basis = max(max_basis, value)
        basis_ok = basis_ok and value <= bound + REC_TOL

    grid, S, A = _analysis_operator(d, k_max, alpha)
    coords = np.array([v.floats() for v in grid])
    complete = len(grid) * (len(grid) - 1) // 2 <= pair_budget
    molecule_bound = tau(p, alpha, d) ** d * rho(p, alpha) ** d
    max_cost = 0.0
    max_residual = 0.0
    left = pair_budget
    for i in range(len(grid) - 1):
        js = np.arange(i + 1, min(len(grid), i + 1 + left))
        if not js.size:
            break
        left -= js.size
        costs, residuals = _molecule_checks(coords, S, A, i, js, alpha, p)
        max_cost = max(max_cost, float(costs.max()))
        max_residual = max(max_residual, float(residuals.max()))

    return {
        "d": d,
        "alpha": alpha,
        "p": p,
        "k_max": k_max,
        "basis_k_max": basis_k_max,
        "max_basis_norm": max_basis,
        "basis_bound": basis_bound,
        "basis_ok": basis_ok,
        "max_molecule_cost": max_cost,
        "molecule_bound": molecule_bound,
        "max_molecule_residual": max_residual,
        "bm_bound": bm_bound(p, alpha, d),
        "complete": complete,
    }
