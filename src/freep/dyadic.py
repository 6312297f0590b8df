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
constructive.

The weights w(u, v) are dyadic, so the coefficient at a level-k point is an
exact dyadic rational beta times 2^(-k*alpha). The analysis has one
arithmetic: it peels the alpha-free weights beta in exact rationals (a double
input is a dyadic rational too) and rounds each coefficient once, as
float(beta) * 2^(-k*alpha); the hat and step elements carry a factor
2^(n*alpha), which shifts the exponent to k - n. Equal coefficients thus
round to equal doubles. The face-induction construction of molecules, with
the constructive hat and step kernels it is built from, is kept in the tests
as an oracle for the analysis, together with the exact ring of sums of
rationals times powers of 2^(-alpha) it computes in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .constants import basis_bound, bm_bound, check_alpha, check_p, rho, tau
from .freenorm import DEFAULT_CAP, EVAL_TOL, FreeElement, coefficient_cost, exact_norms
from .metric import (
    DyadicPoint,
    check_distances,
    coordinate_level,
    dyadic_grid,
    holder_distort,
    l1_space,
    neighbors,
    replaced,
)

PRUNE_TOL = 1e-13
MAX_LEVEL = 32
# verify_norming holds two dense N x N matrices for a grid of N basis
# points: at most 0.4 GB together
MAX_BASIS_POINTS = 5000


# ---------------------------------------------------------------------------
# basis combinations


def _pruned(comb: dict[DyadicPoint, float]) -> dict[DyadicPoint, float]:
    scale = max((abs(c) for c in comb.values()), default=0.0)
    floor = PRUNE_TOL * (1.0 + scale)
    return {k: c for k, c in comb.items() if abs(c) > floor}


@dataclass
class BasisCombination:
    """Sparse double coefficients over basis points."""

    coeffs: dict[DyadicPoint, float] = field(default_factory=dict)

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0].level, kv[0].nums))

    def p_cost(self, p: float) -> float:
        return float(coefficient_cost(np.array(list(self.coeffs.values())), check_p(p)))


def basis_points(d: int, k_max: int) -> list[DyadicPoint]:
    """All basis points at canonical level <= k_max, sorted by (level, nums)."""
    pts = [v for v in dyadic_grid(d, k_max) if not v.is_origin()]
    return sorted(pts, key=lambda v: (v.level, v.nums))


@lru_cache(maxsize=1 << 14)
def _coarse_neighbors(v: DyadicPoint) -> tuple[tuple[DyadicPoint, Fraction], ...]:
    """The pairs (u, w(u, v)) of the coarser-grid interpolation of a point v
    at level k >= 1, origin included: each coordinate at level k, an odd
    numerator n, moves to one of its two neighbours n -+ 1 at that level, the
    others stay, and every u weighs 2^-(the number of moved coordinates)."""
    axes = [(n - 1, n + 1) if n % 2 else (n,) for n in v.nums]
    weight = Fraction(1, 2 ** sum(n % 2 for n in v.nums))
    return tuple((DyadicPoint(v.level, nums), weight) for nums in product(*axes))


def _iota_expansion(v: DyadicPoint, alpha: float) -> dict[DyadicPoint, float]:
    """Point-evaluation expansion of the basis element at v (origin entries
    dropped, since the base evaluation vanishes)."""
    if v.level == 0:
        return {} if v.is_origin() else {v: 1.0}
    scale = 2.0 ** (v.level * alpha)
    out = {v: scale}
    for u, weight in _coarse_neighbors(v):
        if not u.is_origin():
            out[u] = float(-weight) * scale
    return out


def synthesize(comb: BasisCombination | dict, alpha: float) -> dict[DyadicPoint, float]:
    """Point-evaluation expansion of a coefficient combination."""
    if isinstance(comb, BasisCombination):
        comb = comb.coeffs
    alpha = check_alpha(alpha)
    out: dict[DyadicPoint, float] = {}
    for v, c in comb.items():
        for u, e in _iota_expansion(v, alpha).items():
            out[u] = out.get(u, 0.0) + c * e
    return _pruned(out)


def _peel(m: dict) -> dict[DyadicPoint, Fraction]:
    """The exact weights beta with m = sum_v beta_v (delta(v) - sum_u w(u, v)
    delta(u)), m given by exact or double (so dyadic) values.

    The points are peeled finest level first: each passes its weight on to
    its coarser neighbours, so what is left at level 0 is the corners' own
    weight. Origin entries and zero weights are dropped."""
    work = {pt: Fraction(c) for pt, c in m.items() if not pt.is_origin() and c}
    if any(pt.level > MAX_LEVEL for pt in work):
        raise ValueError(f"support is not dyadic at level <= {MAX_LEVEL}")
    out: dict[DyadicPoint, Fraction] = {}
    for k in range(max((pt.level for pt in work), default=0), 0, -1):
        for v in sorted((pt for pt in work if pt.level == k), key=lambda q: q.nums):
            beta = work.pop(v)
            if beta:
                out[v] = beta
                for u, weight in _coarse_neighbors(v):
                    if not u.is_origin():
                        work[u] = work.get(u, 0) + beta * weight
    out.update((v, beta) for v, beta in work.items() if beta)
    return out


def _rounded(
    betas: dict[DyadicPoint, Fraction], alpha: float, n: int
) -> dict[DyadicPoint, float]:
    """The basis coefficients of 2^(n alpha) times the element whose peel is
    `betas`: beta_v 2^(-(k - n) alpha) at a level-k point v, each exact
    weight rounded once."""
    return {v: float(beta) * 2.0 ** (-(v.level - n) * alpha) for v, beta in betas.items()}


def analyze(m: dict[DyadicPoint, float], alpha: float) -> BasisCombination:
    """The unique basis coefficients reproducing a dyadically supported
    element: its exact peel, rounded once.

    Coefficients at rounding level relative to the largest are pruned, since
    a rounded input (`synthesize` output, say) carries them at extra points."""
    alpha = check_alpha(alpha)
    return BasisCombination(_pruned(_rounded(_peel(m), alpha, 0)))


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
    comb = BasisCombination(_rounded(_peel({DyadicPoint.from_fractions([v]): 1}), alpha, n))
    terms = tuple(
        HatTerm(c, w.level, w.coords()[0]) for w, c in comb.items_sorted() if w.level > n
    )
    return HatDecomposition(float((u2 - v) / gap), float((v - u1) / gap), terms)


# ---------------------------------------------------------------------------
# the axis-step expansion


def _step_element(v: DyadicPoint, axis: int) -> tuple[int, dict[DyadicPoint, Fraction]]:
    """(n, the step element of `step_decompose` divided by 2^(n*alpha)),
    origin entry dropped."""
    coords = v.coords()
    if not 0 <= axis < v.d:
        raise ValueError(f"axis {axis} out of range")
    n = coordinate_level(coords[axis])
    if n < 1:
        raise ValueError(f"coordinate {coords[axis]} of v is at level 0")
    out = {v: Fraction(1)}
    for c in neighbors(coords[axis]):
        out[DyadicPoint.from_fractions(replaced(coords, axis, c))] = Fraction(-1, 2)
    return n, {u: c for u, c in out.items() if not u.is_origin()}


def step_decompose(v: DyadicPoint, axis: int, alpha: float) -> BasisCombination:
    """Expand 2^(n*alpha)(delta(v) - (delta(v + h e_axis) + delta(v - h e_axis)) / 2)
    over the basis, where h = 2^-n and the axis coordinate of v has exact
    level n >= 1; the cost is at most rho^(l+1) <= rho^d with l the number of
    coordinates of v finer than level n.
    """
    n, elem = _step_element(v, axis)
    return BasisCombination(_rounded(_peel(elem), check_alpha(alpha), n))


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


# ---------------------------------------------------------------------------
# molecules through the analysis operator


def _check_molecule(u: DyadicPoint, v: DyadicPoint) -> None:
    if u == v:
        raise ValueError("a molecule needs two distinct points")
    if u.d != v.d:
        raise ValueError("points of different dimensions")


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


def _basis_host(v: DyadicPoint, alpha: float) -> tuple[list[DyadicPoint], list[float]]:
    """The host points of the basis element at v, the origin first and then
    its support by (level, nums), and its weights on the support."""
    if v.is_origin():
        raise ValueError("the origin does not index a basis element")
    expansion = _iota_expansion(v, alpha)
    support = sorted(expansion, key=lambda q: (q.level, q.nums))
    return [DyadicPoint.origin(v.d)] + support, [expansion[q] for q in support]


def basis_element(v: DyadicPoint, alpha: float) -> FreeElement:
    """The basis element at v as a free element over its support plus the
    origin, under the alpha-distorted l1 metric."""
    alpha = check_alpha(alpha)
    points, weights = _basis_host(v, alpha)
    host = holder_distort(l1_space([q.floats() for q in points], base=0), alpha)
    return FreeElement(host, dict(enumerate(weights, 1)))


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


def _basis_distances(hosts: list[list[DyadicPoint]], alpha: float) -> np.ndarray:
    """The distance matrices |X_i - X_j|_1^alpha of hosts of one size and
    dimension as one stack, checked as metrics before and after the
    distortion, as `basis_element` checks its one host."""
    X = np.array([[q.floats() for q in host] for host in hosts])
    dist = np.abs(X[:, :, None] - X[:, None]).sum(axis=3)
    check_distances(dist)
    dist = dist**alpha
    check_distances(dist)
    return dist


def basis_norm_checks(
    points: list[DyadicPoint], alpha: float, p: float
) -> list[tuple[float, float]]:
    """(exact norm or certified upper bound, `basis_bound` d^alpha C(p, 2^d))
    of the basis element at each point.

    The elements are checked in batches of one host size: the points of
    `basis_element`'s hosts give one checked stack of distance matrices
    (`_basis_distances`), and one call of the exact engine `exact_norms`
    takes the whole stack. Beyond its cap DEFAULT_CAP the partition-of-unity
    decomposition cost stands in, which never exceeds the bound either.
    """
    p = check_p(p)
    alpha = check_alpha(alpha)
    values: list[float] = [0.0] * len(points)
    batches: dict[tuple[int, int], list] = {}
    for i, v in enumerate(points):
        host, weights = _basis_host(v, alpha)
        if len(host) > DEFAULT_CAP:
            values[i] = _proof_cost(v, alpha, p)
        else:
            batches.setdefault((v.d, len(host)), []).append((i, host, weights))
    for batch in batches.values():
        dist = _basis_distances([host for _, host, _ in batch], alpha)
        norms = exact_norms(dist, np.array([weights for _, _, weights in batch]), p)
        for (i, _, _), value in zip(batch, norms):
            values[i] = value
    bounds = {d: basis_bound(p, alpha, d) for d in {v.d for v in points}}
    return [(value, bounds[v.d]) for value, v in zip(values, points)]


def basis_norm_check(v: DyadicPoint, alpha: float, p: float) -> tuple[float, float]:
    """The check of `basis_norm_checks` for one basis point."""
    return basis_norm_checks([v], alpha, p)[0]


def _analysis_operator(d: int, k_max: int, alpha: float):
    """(grid, S, A) for the level-k_max grid sorted by (level, nums), the
    origin first. Rows index the basis points grid[1:]; column j of the
    synthesis matrix S is the point expansion of the basis element at
    grid[j + 1], and column j of the analysis matrix A holds the basis
    coefficients of delta(grid[j]), zero for the origin."""
    pts = basis_points(d, k_max)
    row = {v: i for i, v in enumerate(pts)}
    S = np.zeros((len(pts), len(pts)))
    A = np.zeros((len(pts), len(pts) + 1))
    for j, v in enumerate(pts):
        for u, c in _iota_expansion(v, alpha).items():
            S[row[u], j] = c
        for u, c in analyze({v: 1.0}, alpha).coeffs.items():
            A[row[u], j + 1] = c
    return [DyadicPoint.origin(d)] + pts, S, A


def _molecule_checks(coords, S, A, i, js, alpha, p):
    """(p-costs, reconstruction residuals) of the molecules from grid point
    i to each grid point in js, with S and A from `_analysis_operator`.

    Analysis is linear, so the coefficients of the molecule at (i, j) are
    (A[:, i] - A[:, j]) / |u_i - u_j|_1^alpha. The columns of A are exact
    coefficients rounded once, so equal coefficients cancel exactly."""
    scale = 1.0 / np.abs(coords[js] - coords[i]).sum(axis=1) ** alpha
    C = (A[:, [i]] - A[:, js]) * scale
    target = np.zeros_like(C)  # rows skip the origin, grid point 0
    if i:
        target[i - 1] = scale
    target[js - 1, np.arange(js.size)] = -scale
    return coefficient_cost(C, p, axis=0), np.abs(S @ C - target).max(axis=0)


def verify_norming(
    d: int,
    alpha: float,
    p: float,
    k_max: int,
    pair_budget: int = 100_000,
) -> dict:
    """Certify the two-sided norming estimates at desk scale.

    Every basis element of the level-`k_max` grid is checked against
    `basis_bound` d^alpha C(p, 2^d); every molecule over the grid is
    decomposed with reconstruction residual and cost recorded against
    tau^d rho^d. The report carries the resulting norming bound
    C(p, 2^d) rho^d tau^d and a completeness flag (the pair budget trims
    oversized grids, keeping the first pairs of `combinations(grid, 2)`).
    The analysis operator of the grid is built once, its grid serves the
    basis checks, which run in batches of one host size (one
    `basis_norm_checks` call), and the molecules are checked in batch, one
    first point at a time. A grid of more than MAX_BASIS_POINTS basis points
    raises before any work."""
    p = check_p(p)
    alpha = check_alpha(alpha)
    d = int(d)
    # N = (2^k + 1)^d - 1 basis points; when d (k + 1) > 64, N > 2^32 anyway
    n_basis = (2**k_max + 1) ** d - 1 if d * (k_max + 1) <= 64 else None
    if n_basis is None or n_basis > MAX_BASIS_POINTS:
        count = "more than 2^32" if n_basis is None else n_basis
        raise ValueError(
            f"--d {d} --kmax {k_max} give a grid of {count} basis points, beyond "
            f"the cap {MAX_BASIS_POINTS}; lower --d or --kmax"
        )

    grid, S, A = _analysis_operator(d, k_max, alpha)
    max_basis = 0.0
    basis_ok = True
    for value, bound in basis_norm_checks(grid[1:], alpha, p):
        max_basis = max(max_basis, value)
        basis_ok = basis_ok and value <= bound + EVAL_TOL

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
        "basis_k_max": k_max,
        "max_basis_norm": max_basis,
        "basis_bound": basis_bound(p, alpha, d),
        "basis_ok": basis_ok,
        "max_molecule_cost": max_cost,
        "molecule_bound": molecule_bound,
        "max_molecule_residual": max_residual,
        "bm_bound": bm_bound(p, alpha, d),
        "complete": complete,
    }
