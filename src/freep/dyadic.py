"""Dyadic multiresolution basis of the distorted cube and its certified
decomposition algorithms.

The basis element at a grid point v of exact level k is the scaled
difference between delta(v) and its coarser-grid interpolation,
2^(k*alpha) * (delta(v) - sum_u w(u, v) delta(u)); corners at level 0 map to
their bare evaluations. The basis is level-triangular, so every dyadically
supported element has unique coefficients, which `analyze` peels level by
level from finest to coarsest; `synthesize` maps coefficients back to point
evaluations. Three constructive routines of the paper expand targets over
this basis with certified coefficient costs:

* `hat_decompose`  - a single coordinate evaluation over an interval,
* `step_decompose` - an axis-centered second difference at any grid point,
* `line_path`      - a mesh-adjacent chain between two dyadic scalars.

A normalized molecule (`molecule_decompose`) is the analysis of its two
point evaluations; `verify_norming` builds the analysis operator of a grid
once, so each molecule's coefficients are a scaled difference of two of its
columns. The face-induction construction of molecules from these routines
is kept in the tests as an oracle for the operator.

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
from typing import NamedTuple

import numpy as np

from .constants import bm_bound, c_const, check_alpha, check_p, rho, tau
from .freenorm import DEFAULT_CAP, FreeElement, exact_norm_small
from .metric import (
    DyadicPoint,
    PointedFiniteMetric,
    coordinate_level,
    dyadic_grid,
    l1_space,
    replaced,
)

REC_TOL = 1e-9
PRUNE_TOL = 1e-13


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
        self.half = 0.5

    def xm(self, m: int) -> float:
        return 2.0 ** (-m * self.alpha)

    def rat(self, q) -> float:
        return float(q)

    def to_float(self, c) -> float:
        return float(c)

    def is_zero(self, c) -> bool:
        return c == 0.0


class _ExactCoeffs:
    exact = True

    def __init__(self):
        self.one = PowSum({0: Fraction(1)})
        self.half = PowSum({0: Fraction(1, 2)})

    def xm(self, m: int) -> PowSum:
        return PowSum({m: Fraction(1)})

    def rat(self, q) -> PowSum:
        return PowSum({0: Fraction(q)})

    def to_float(self, c) -> float:
        raise TypeError("exact coefficients need an alpha to evaluate")

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


def _iota_expansion(v: DyadicPoint, ctx) -> dict[DyadicPoint, object]:
    """Point-evaluation expansion of the basis element at v (origin entries
    dropped, since the base evaluation vanishes)."""
    k = v.level
    if k == 0:
        return {} if v.is_origin() else {v: ctx.one}
    out = {v: ctx.xm(-k)}
    h = Fraction(1, 2**k)
    options = []
    for c in v.coords():
        if coordinate_level(c) == k:
            options.append(((c - h, Fraction(1, 2)), (c + h, Fraction(1, 2))))
        else:
            options.append(((c, Fraction(1)),))
    scale = ctx.xm(-k)
    for combo in _product(options):
        weight = Fraction(1)
        coords = []
        for c, q in combo:
            coords.append(c)
            weight *= q
        u = DyadicPoint.from_fractions(coords)
        if not u.is_origin():
            inc = ctx.rat(-weight) * scale
            out[u] = out.get(u, _zero(ctx)) + inc
    return out


def _product(options):
    if not options:
        yield ()
        return
    for head in options[0]:
        for rest in _product(options[1:]):
            yield (head,) + rest


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


def _hat_parts(u1: Fraction, u2: Fraction, v: Fraction):
    """Alpha-free kernel of the hat expansion.

    Returns (mu1, mu2, terms) with exact fractions; `terms` maps a position
    w at exact level l > n to the fraction q with coefficient q * 2^((n-l)a).
    Positions merge across the two half-interval branches, so there is at
    most one term per level.
    """
    u1, u2, v = Fraction(u1), Fraction(u2), Fraction(v)
    gap = u2 - u1
    if gap <= 0 or gap.numerator != 1:
        raise ValueError("u1, u2 must be adjacent grid points with u1 < u2")
    n = coordinate_level(gap)
    if (u1 * 2**n).denominator != 1:
        raise ValueError(f"u1 = {u1} is not on the level-{n} grid")
    if not u1 <= v <= u2:
        raise ValueError(f"{v} outside [{u1}, {u2}]")
    coordinate_level(v)

    memo: dict[Fraction, tuple] = {}

    def rec(w: Fraction):
        if w in memo:
            return memo[w]
        if w == u1:
            res = (Fraction(1), Fraction(0), {})
        elif w == u2:
            res = (Fraction(0), Fraction(1), {})
        else:
            k = coordinate_level(w)
            h = Fraction(1, 2**k)
            m1a, m2a, ta = rec(w - h)
            m1b, m2b, tb = rec(w + h)
            half = Fraction(1, 2)
            terms: dict[Fraction, tuple[int, Fraction]] = {}
            for src in (ta, tb):
                for pos, (lvl, q) in src.items():
                    if pos in terms:
                        terms[pos] = (lvl, terms[pos][1] + half * q)
                    else:
                        terms[pos] = (lvl, half * q)
            terms[w] = (k, Fraction(1))
            res = (half * (m1a + m1b), half * (m2a + m2b), terms)
        memo[w] = res
        return res

    mu1, mu2, terms = rec(v)
    return n, mu1, mu2, terms


def hat_decompose(u1, u2, v, alpha: float) -> HatDecomposition:
    """Expand 2^(n*alpha) delta(v) over the interval endpoints and centered
    second differences at the strictly finer levels.

    The convex endpoint weights sum to one; the term coefficients satisfy
    (sum nu_i^p)^(1/p) <= 2^(-alpha) (1/(1 - 2^(-p*alpha)))^(1/p) for every
    0 < p <= 1, with at most one term per level.
    """
    alpha = check_alpha(alpha)
    n, mu1, mu2, terms = _hat_parts(u1, u2, v)
    out = [
        HatTerm(float(q) * 2.0 ** ((n - lvl) * alpha), lvl, pos)
        for pos, (lvl, q) in terms.items()
    ]
    out.sort(key=lambda t: t.level)
    return HatDecomposition(float(mu1), float(mu2), tuple(out))


# ---------------------------------------------------------------------------
# the axis-step expansion


def _on_level_grid(c: Fraction, n: int) -> bool:
    return (c * 2**n).denominator == 1


def _step_comb(coords, axis, ctx, cache):
    key = (coords, axis)
    got = cache.get(key)
    if got is not None:
        return got
    n = coordinate_level(coords[axis])
    assert n >= 1
    h = Fraction(1, 2**n)
    bad = [j for j in range(len(coords)) if j != axis and not _on_level_grid(coords[j], n)]

    out: dict[DyadicPoint, object] = {}
    if not bad:
        out[DyadicPoint.from_fractions(coords)] = ctx.one
        for sgn in (1, -1):
            w = replaced(coords, axis, coords[axis] + sgn * h)
            wpt = DyadicPoint.from_fractions(w)
            if wpt.level == n:  # otherwise it sits on the coarser grid: zero term
                _acc(out, {wpt: ctx.one}, -ctx.half)
    else:
        j = bad[0]
        u1 = Fraction(math.floor(coords[j] * 2**n), 2**n)
        u2 = u1 + h
        _, mu1, mu2, terms = _hat_parts(u1, u2, coords[j])
        if mu1:
            _acc(out, _step_comb(replaced(coords, j, u1), axis, ctx, cache), ctx.rat(mu1))
        if mu2:
            _acc(out, _step_comb(replaced(coords, j, u2), axis, ctx, cache), ctx.rat(mu2))
        for pos, (lvl, q) in sorted(terms.items()):
            nu = ctx.rat(q) * ctx.xm(lvl - n)
            _acc(out, _step_comb(replaced(coords, j, pos), j, ctx, cache), nu)
            for sgn in (1, -1):
                moved = replaced(replaced(coords, axis, coords[axis] + sgn * h), j, pos)
                _acc(out, _step_comb(moved, j, ctx, cache), -(ctx.half * nu))
    cache[key] = out
    return out


def step_decompose(
    v: DyadicPoint, axis: int, alpha: float, exact: bool = False
) -> BasisCombination:
    """Expand 2^(n*alpha)(delta(v) - (delta(v + h e_axis) + delta(v - h e_axis)) / 2)
    over the basis, where h = 2^-n and the axis coordinate of v has exact
    level n >= 1. Coordinates finer than level n are first resolved by hat
    expansions; the cost is at most rho^(l+1) <= rho^d with l the number of
    such coordinates.
    """
    coords = v.coords()
    if not 0 <= axis < v.d:
        raise ValueError(f"axis {axis} out of range")
    if coordinate_level(coords[axis]) < 1:
        raise ValueError(f"coordinate {coords[axis]} of v is at level 0")
    ctx = _ExactCoeffs() if exact else _FloatCoeffs(check_alpha(alpha))
    comb = _step_comb(coords, axis, ctx, {})
    return BasisCombination(_pruned(comb, ctx), exact)


def step_target(v: DyadicPoint, axis: int, alpha: float) -> dict[DyadicPoint, float]:
    """Point expansion of the step element (origin entries dropped)."""
    coords = v.coords()
    n = coordinate_level(coords[axis])
    scale = 2.0 ** (n * alpha)
    out: dict[DyadicPoint, float] = {}
    for pt, c in (
        (v, scale),
        (DyadicPoint.from_fractions(replaced(coords, axis, coords[axis] + Fraction(1, 2**n))), -0.5 * scale),
        (DyadicPoint.from_fractions(replaced(coords, axis, coords[axis] - Fraction(1, 2**n))), -0.5 * scale),
    ):
        if not pt.is_origin():
            out[pt] = out.get(pt, 0.0) + c
    return out


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
    host = _holder_host(points, alpha)
    return FreeElement(host, {i + 1: expansion[q] for i, q in enumerate(support)})


def _holder_host(points: list[DyadicPoint], alpha: float) -> PointedFiniteMetric:
    space = l1_space([p.floats() for p in points], base=0)
    return PointedFiniteMetric(space.points, 0, space.dist**alpha)


def _proof_cost(v: DyadicPoint, alpha: float, p: float) -> float:
    """Cost of the partition-of-unity decomposition of the basis element at v
    into molecules toward its coarser neighbors (origin included)."""
    k = v.level
    if k == 0:
        return float(molecule_l1(v, DyadicPoint.origin(v.d))) ** alpha
    ctx = _FloatCoeffs(alpha)
    total = 0.0
    h = Fraction(1, 2**k)
    options = []
    for c in v.coords():
        if coordinate_level(c) == k:
            options.append(((c - h, 0.5), (c + h, 0.5)))
        else:
            options.append(((c, 1.0),))
    for combo in _product(options):
        weight = 1.0
        coords = []
        for c, q in combo:
            coords.append(c)
            weight *= q
        u = DyadicPoint.from_fractions(coords)
        dist = float(molecule_l1(v, u)) ** alpha
        total += (2.0 ** (k * alpha) * weight * dist) ** p
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
    m: dict[DyadicPoint, float] | FreeElement,
    alpha: float,
    exact: bool = False,
    max_level: int = 32,
) -> BasisCombination:
    """The unique basis coefficients reproducing a dyadically supported
    element, peeled level by level from finest to coarsest."""
    ctx = _ExactCoeffs() if exact else _FloatCoeffs(check_alpha(alpha))
    if isinstance(m, FreeElement):
        work: dict[DyadicPoint, object] = {}
        for idx, w in m.weights.items():
            coords = [Fraction(float(c)) for c in m.host.points[idx]]
            pt = DyadicPoint.from_fractions(coords)
            val = ctx.rat(w) if ctx.exact else float(w)
            work[pt] = work.get(pt, _zero(ctx)) + val
    else:
        work = dict(m)
    work = {pt: c for pt, c in work.items() if not pt.is_origin() and not ctx.is_zero(c)}
    if any(pt.level > max_level for pt in work):
        raise ValueError(f"support is not dyadic at level <= {max_level}")

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
    engine_cap: int = DEFAULT_CAP,
    pair_budget: int = 20000,
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
        value, bound = basis_norm_check(v, alpha, p, cap=engine_cap)
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
