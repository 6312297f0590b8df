"""Dyadic multiresolution basis of the distorted cube and its certified
decomposition algorithms.

The basis element at a grid point v of exact level k is the scaled
difference between delta(v) and its coarser-grid interpolation,
2^(k*alpha) * (delta(v) - sum_u w(u, v) delta(u)); corners at level 0 map to
their bare evaluations. The basis is level-triangular, so every dyadically
supported element has unique coefficients, which `analyze` peels level by
level from finest to coarsest; `synthesize` maps coefficients back to point
evaluations. `analyze` computes the basis coefficients of an element; the
expansions of the paper's lemmas are analyses of their targets,

* `hat_decompose`      - a single coordinate evaluation over an interval,
* `step_decompose`     - an axis-centered second difference at any grid point,
* `molecule_decompose` - a normalized molecule (delta(u) - delta(v)) / |u - v|_1^alpha,

and `verify_norming` builds the analysis operator of a whole grid at once
(`_analysis_operator`, the analysis of every point evaluation of the grid,
from one integer array of grid numerators), so each molecule's coefficients
are a scaled difference of two of its columns. `line_path`, a mesh-adjacent
chain between two dyadic scalars, stays constructive.

What of that operator does not depend on (alpha, p) is cached per grid in
read-only arrays (`_grid_plan`): the numerators, the exact alpha-free peel
(itself peeled over the nonzero entries) and synthesis by their nonzero
entries, the basis hosts by size with their l1 distances, and the index
arrays of the one tree program over all those host groups. A call scales
the synthesis entries into a dense S, rounds the peel entries into A, kept
by its nonzero entries column by column, and raises the distances to alpha:
the double products of a build from scratch, so the same bits. A molecule's
coefficients are a scaled difference of two columns of A, mostly zero, so
its p-cost takes |c|^p at the nonzero coefficients only.

The norm of a basis element has one definition, `basis_norm_check` (the
exact norm on the element's own host within the exact engine's cap, beyond
it the cost of its partition-of-unity decomposition), and one batch,
`_grid_basis_norms`, which reads a whole grid's hosts off the synthesis
columns for `verify_norming` and takes all of them, of every size, through
one `exact_norms` call; the tests pin the batch to it bitwise.

The weights w(u, v) are dyadic, so the coefficient at a level-k point is an
exact dyadic rational beta times 2^(-k*alpha). The analysis has one
arithmetic: it peels the alpha-free weights beta exactly (in rationals for
an element, a double input being a dyadic rational too; in doubles for the
grid operator, whose weights need far fewer than 53 bits) and rounds each
coefficient once, as float(beta) * 2^(-k*alpha); the hat and step elements
carry a factor 2^(n*alpha), which shifts the exponent to k - n. Equal
coefficients thus round to equal doubles, and the tests pin the grid
operator bitwise to one `analyze` per grid point (`tests/analysis_oracle.py`).
The face-induction construction of molecules, with the constructive hat and
step kernels it is built from, is kept in the tests as an oracle for the
analysis, together with the exact ring of sums of rationals times powers of
2^(-alpha) it computes in.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .constants import basis_bound, bm_bound, check_alpha, check_count, check_p, rho, tau
from .freenorm import (
    DEFAULT_CAP,
    EVAL_TOL,
    FreeElement,
    coefficient_cost,
    exact_norm_small,
    exact_norms,
    _read_only,
    _tree_program,
    _TreeProgram,
)
from .metric import (
    DyadicPoint,
    coordinate_level,
    dyadic_grid,
    holder_distort,
    l1_space,
    neighbors,
    replaced,
)

PRUNE_TOL = 1e-13
MAX_LEVEL = 32
# verify_norming holds one dense N x N matrix, S, for a grid of N basis
# points (at most 0.2 GB; A is kept by its nonzero entries, and the cached
# grid plan holds no N x N array, though its tree program's index arrays,
# one entry per host, subset split or hop, take 62 MB at N = 4912), and
# checks its molecules in blocks of at most max(N, _BLOCK_ENTRIES / N) pairs,
# an N x pairs coefficient array of about _BLOCK_ENTRIES doubles (512 KB);
# blocks of 2^17 and 2^18 entries were slower on the grids of 129 to 289
# points
MAX_BASIS_POINTS = 5000
_BLOCK_ENTRIES = 1 << 16


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


def synthesize(comb: BasisCombination, alpha: float) -> dict[DyadicPoint, float]:
    """Point-evaluation expansion of a coefficient combination."""
    alpha = check_alpha(alpha)
    out: dict[DyadicPoint, float] = {}
    for v, c in comb.coeffs.items():
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


def basis_element(v: DyadicPoint, alpha: float) -> FreeElement:
    """The basis element at v as a free element over a host of the origin
    and then its support by (level, nums), under the alpha-distorted l1
    metric."""
    alpha = check_alpha(alpha)
    if v.is_origin():
        raise ValueError("the origin does not index a basis element")
    expansion = _iota_expansion(v, alpha)
    support = sorted(expansion, key=lambda q: (q.level, q.nums))
    points = [DyadicPoint.origin(v.d)] + support
    host = holder_distort(l1_space([q.floats() for q in points], base=0), alpha)
    return FreeElement(host, {i: expansion[q] for i, q in enumerate(support, 1)})


def _proof_cost(v: DyadicPoint, alpha: float, p: float) -> float:
    """Cost of the partition-of-unity decomposition of the basis element at v
    into molecules toward its coarser neighbors (origin included).

    A level-k point with m odd numerators has 2^m coarse neighbours, each
    m 2^-k away and weighing 2^-m, both exact doubles, so every molecule
    term is the same double; the 2^m terms are added one by one, as a sum
    over the neighbours rounds. A corner costs its distance to the origin."""
    k = v.level
    if k == 0:
        return float(sum(v.nums)) ** alpha
    m = sum(n % 2 for n in v.nums)
    term = (2.0 ** (k * alpha) * 0.5**m * (m / 2.0**k) ** alpha) ** p
    total = 0.0
    for _ in range(2**m):
        total += term
    return total ** (1.0 / p)


def _basis_l1(X: np.ndarray) -> np.ndarray:
    """The l1 distance matrices |X_i - X_j|_1 of a stack X (B, n, d) of host
    coordinates, one host of n points per row; raised to the power alpha,
    they are the distance matrices of the checked `basis_element` hosts.
    They need no check: the rows are distinct dyadic grid points, so their
    l1 distances are exact and positive, and t -> t^alpha keeps the triangle
    inequality."""
    return np.abs(X[:, :, None] - X[:, None]).sum(axis=3)


def basis_norm_check(v: DyadicPoint, alpha: float, p: float) -> tuple[float, float]:
    """(value, `basis_bound` d^alpha C(p, 2^d)) for the basis element at v.

    The value is the exact norm of `basis_element` when its host, the
    support plus the origin, fits the exact engine's cap DEFAULT_CAP, and
    beyond it the partition-of-unity decomposition cost `_proof_cost`, which
    never exceeds the bound either. This is the definition of the basis
    norm; `verify_norming` computes it for a whole grid at once
    (`_grid_basis_norms`)."""
    p = check_p(p)
    alpha = check_alpha(alpha)
    elem = basis_element(v, alpha)
    if elem.host.n <= DEFAULT_CAP:
        value = exact_norm_small(elem, p)[0]
    else:
        value = _proof_cost(v, alpha, p)
    return value, basis_bound(p, alpha, v.d)


def _grid(d: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nums, levels, index) of the level-k grid of [0, 1]^d sorted by
    (level, nums), the origin first: nums (M, d) holds the integer numerators
    over 2^k, levels the canonical levels, and index[key] the position of
    the grid point with mixed-radix key nums @ (2^k + 1)^(d - 1 - axis)."""
    side = 2**k + 1
    nums = np.indices((side,) * d).reshape(d, -1).T
    levels = np.full(len(nums), k)
    for t in range(1, k + 1):
        levels[(nums % 2**t == 0).all(axis=1)] = k - t
    order = np.argsort(levels, kind="stable")  # nums come in lexicographic order
    index = np.empty_like(order)
    index[order] = np.arange(len(order))
    return nums[order], levels[order], index


def _coarse_triplets(nums: np.ndarray, levels: np.ndarray, index: np.ndarray, k: int):
    """The coarser-grid interpolation of `_grid`'s points as grid positions:
    for each sign pattern s in {-1, 1}^d, the arrays (u, v, w) of the points
    v of level >= 1 whose coordinates at their own level are odd where
    s = -1, their neighbours u = v + s h on the odd coordinates (h the mesh
    of v's level), and the weights w = 2^-(number of odd coordinates).

    Each pair (u, v) of `_coarse_neighbors` appears once, in the pattern
    with s = 1 on the even coordinates of v, which do not move; origin
    neighbours are dropped, since the basis leaves out the origin."""
    d = nums.shape[1]
    h = 2 ** (k - levels)[:, None]
    odd = (nums // h % 2 == 1) & (levels > 0)[:, None]
    weights = 0.5 ** odd.sum(axis=1)
    radix = (2**k + 1) ** np.arange(d - 1, -1, -1)
    out = []
    for signs in product((-1, 1), repeat=d):
        v = np.flatnonzero((odd | (np.array(signs) > 0)).all(axis=1) & (levels > 0))
        u = index[((nums[v] + odd[v] * signs * h[v]) * radix).sum(axis=1)]
        keep = u > 0
        out.append((u[keep], v[keep], weights[v[keep]]))
    return out


def _grid_peel(levels: np.ndarray, triplets, k_max: int):
    """The alpha-free analysis matrix A0 of `_grid`'s basis points, by its
    nonzero entries (rows, cols, values) in row-major order: rows index the
    basis points, grid positions 1..N, and column j holds the exact peel
    weights beta of delta(position j), zero for the origin.

    A0 is `_peel` run on every delta at once, over the nonzero entries:
    finest level first, the entries of the rows of one level, by then
    complete, are summed by (row, column) and passed on, times their
    weights, to the rows of their coarser neighbours (`_coarse_triplets`);
    each row starts as the unit entry of its delta. The values are dyadic
    rationals of size at most 3^d with denominators of at most 2^(d k_max),
    far fewer than 53 significant bits on the grids MAX_BASIS_POINTS admits,
    so every sum is exact, in any order."""
    n = len(levels) - 1
    u = np.concatenate([u for u, _, _ in triplets] or [np.zeros(0, np.intp)]) - 1
    v = np.concatenate([v for _, v, _ in triplets] or [np.zeros(0, np.intp)]) - 1
    w = np.concatenate([w for _, _, w in triplets] or [np.zeros(0)])
    order = np.argsort(v, kind="stable")
    u, v, w = u[order], v[order], w[order]
    # the rows come by level, coarsest first: level k is rows[lo[k]:lo[k + 1]]
    lo = np.searchsorted(levels[1:], np.arange(k_max + 2))
    pending = (np.arange(n), np.arange(1, n + 1), np.ones(n))
    done = []
    for k in range(k_max, -1, -1):
        rows, cols, values = pending
        at = rows >= lo[k]
        key = rows[at] * (n + 1) + cols[at]
        order = np.argsort(key, kind="stable")
        key, values_k = key[order], values[at][order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        key, values_k = key[first], np.add.reduceat(values_k, first)
        rows_k, cols_k = np.divmod(key, n + 1)
        done.append((rows_k, cols_k, values_k))
        # each neighbour triplet (u, v, w) of a row v at this level takes w
        # times each of row v's entries
        t0, t1 = np.searchsorted(v, (lo[k], lo[k + 1]))
        start = np.searchsorted(rows_k, v[t0:t1])
        count = np.searchsorted(rows_k, v[t0:t1], side="right") - start
        t = np.repeat(np.arange(t0, t1), count)
        e = np.arange(len(t)) + np.repeat(start - np.cumsum(count) + count, count)
        pending = (
            np.concatenate((rows[~at], u[t])),
            np.concatenate((cols[~at], cols_k[e])),
            np.concatenate((values[~at], w[t] * values_k[e])),
        )
    rows, cols, values = (np.concatenate(a) for a in zip(*done[::-1]))
    keep = values != 0.0
    return rows[keep], cols[keep], values[keep]


class _GridPlan(NamedTuple):
    """The alpha-free part of `verify_norming` on the level-k_max grid of
    [0, 1]^d (`_grid_plan`); every array is read-only.

    nums, levels: `_grid`'s numerators and levels, the origin first;
    coords: nums / 2^k_max;
    synthesis: (rows, cols, values) of S at alpha = 0, the unit diagonal and
        the entries -w of `_coarse_triplets`, by column, rows ascending;
    peel: (rows, cols, values) of A at alpha = 0 (`_grid_peel`), row-major;
    peel_columns: (starts, order), the order of the peel's entries by column,
        rows ascending, column j being entries starts[j]:starts[j + 1];
    hosts: per basis support size within DEFAULT_CAP, (cols, rows, l1): the
        columns of S with that support, their nonzero rows, and the l1
        distance stack (`_basis_l1`) of their hosts, the origin followed by
        the points of those rows;
    fallback: (cols, points), the columns whose hosts exceed DEFAULT_CAP and
        their basis points, for `_proof_cost`;
    tree: the index arrays of the one tree program over all host groups
        (`freenorm._tree_program`)."""

    nums: np.ndarray
    levels: np.ndarray
    coords: np.ndarray
    synthesis: tuple[np.ndarray, np.ndarray, np.ndarray]
    peel: tuple[np.ndarray, np.ndarray, np.ndarray]
    peel_columns: tuple[np.ndarray, np.ndarray]
    hosts: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    fallback: tuple[np.ndarray, tuple[DyadicPoint, ...]]
    tree: _TreeProgram


@lru_cache(maxsize=8)
def _grid_plan(d: int, k_max: int) -> _GridPlan:
    """The `_GridPlan` of the level-k_max grid of [0, 1]^d, built once per
    (d, k_max) and kept for the last few grids. It holds no N x N array: the
    two operators are stored by their nonzero entries, about 4 MB at
    (3, 4), where each dense matrix takes 193 MB; the tree program's index
    arrays take 62 MB there."""
    nums, levels, index = _grid(d, k_max)
    n = len(nums) - 1
    # at k_max = 0 no point has neighbours, and d may be as large as 12
    triplets = _coarse_triplets(nums, levels, index, k_max) if k_max else []
    diag = np.arange(n)
    rows = np.concatenate([diag] + [u - 1 for u, _, _ in triplets])
    cols = np.concatenate([diag] + [v - 1 for _, v, _ in triplets])
    values = np.concatenate([np.ones(n)] + [-w for _, _, w in triplets])
    order = np.lexsort((rows, cols))
    synthesis = _read_only(rows[order], cols[order], values[order])
    coords = nums / 2.0**k_max

    # the basis element at position j + 1 is column j of S: its host is the
    # origin followed by the column's rows, already in (level, nums) order
    rows, cols = synthesis[:2]
    start = np.searchsorted(cols, np.arange(n + 1))
    support = np.diff(start)
    # a host is the support plus the origin; the tree program takes one
    # group (support size, host size, count) per host size
    hosts, groups = [], []
    for size in sorted(set(support[support < DEFAULT_CAP].tolist())):
        at = np.flatnonzero(support == size)
        host_rows = rows[start[at, None] + np.arange(size)]
        X = coords[np.column_stack((np.zeros(len(at), dtype=int), host_rows + 1))]
        hosts.append(_read_only(at, host_rows, _basis_l1(X)))
        groups.append((size, size + 1, len(at)))
    beyond = np.flatnonzero(support >= DEFAULT_CAP)
    points = tuple(DyadicPoint(k_max, tuple(nums[j + 1].tolist())) for j in beyond.tolist())
    peel = _read_only(*_grid_peel(levels, triplets, k_max))
    order = np.argsort(peel[1], kind="stable")
    return _GridPlan(
        *_read_only(nums, levels, coords),
        synthesis,
        peel,
        _read_only(np.searchsorted(peel[1][order], np.arange(n + 2)), order),
        tuple(hosts),
        (*_read_only(beyond), points),
        _tree_program(tuple(groups)),
    )


def _analysis_operator(d: int, k_max: int, alpha: float):
    """(nums, S, A) for the level-k_max grid of `_grid`, the origin at
    position 0. Rows index the basis points, grid positions 1..N; column
    j of the synthesis matrix S is the point expansion of the basis element
    at position j + 1, S = (I - W) 2^(level alpha) with W the coarse
    neighbour weights of `_coarse_triplets`, and column j of the analysis
    matrix A holds the basis coefficients of delta(position j), zero for the
    origin.

    S is dense, one scatter of its alpha-free entries scaled by 2^(level
    alpha) per column. A is kept by its nonzero entries, column by column,
    (starts, rows, values) as in the plan's `peel_columns`: each exact peel
    weight rounded once, by the factor 2^(-level alpha) of its row
    (`_rounded`)."""
    plan = _grid_plan(d, k_max)
    n = len(plan.nums) - 1
    scale = np.array([2.0 ** (k * alpha) for k in range(k_max + 1)])[plan.levels[1:]]
    unscale = np.array([2.0 ** (-k * alpha) for k in range(k_max + 1)])[plan.levels[1:]]
    S = np.zeros((n, n))
    rows, cols, values = plan.synthesis
    S[rows, cols] = values * scale[cols]
    rows, _, values = plan.peel
    starts, order = plan.peel_columns
    rows = rows[order]
    return plan.nums, S, (starts, rows, values[order] * unscale[rows])


def _grid_basis_norms(d: int, k_max: int, S: np.ndarray, alpha: float, p: float) -> np.ndarray:
    """The values of `basis_norm_check` at the basis points of
    `_analysis_operator`'s grid, bitwise, with S its synthesis matrix.

    The hosts, read off the columns of S once in the grid's `_GridPlan` and
    grouped there by size, go through the exact engine in one `exact_norms`
    call: per group its l1 stack to the power alpha and the columns' entries
    as weights, all groups in one tree program (the plan's `tree`); beyond
    DEFAULT_CAP `_proof_cost` stands in."""
    plan = _grid_plan(d, k_max)
    values = np.empty(len(S))
    groups = [(l1**alpha, S[rows, cols[:, None]]) for cols, rows, l1 in plan.hosts]
    values[np.concatenate([cols for cols, _, _ in plan.hosts])] = exact_norms(groups, p)
    cols, points = plan.fallback
    values[cols] = [_proof_cost(v, alpha, p) for v in points]
    return values


def _molecule_blocks(n_points: int, pair_budget: int):
    """The first pair_budget pairs (i, j) of combinations(range(n_points), 2)
    in that order, as blocks (I, J, cuts) of at most
    max(n_points - 1, _BLOCK_ENTRIES // n_points) pairs made of whole runs
    of one first point i (but for a run the budget cuts); the runs of a
    block are its columns cuts[r]:cuts[r + 1]."""
    starts = np.concatenate(([0], np.cumsum(np.arange(n_points - 1, 0, -1))))
    total = min(pair_budget, int(starts[-1]))
    bounds = starts.tolist()
    width = max(n_points - 1, _BLOCK_ENTRIES // n_points)
    t0 = 0
    while t0 < total:
        # a run holds at most n_points - 1 pairs, so a next run starts in reach
        reach = t0 + width
        t1 = total if total <= reach else bounds[bisect_right(bounds, reach) - 1]
        runs = bounds[bisect_left(bounds, t0) : bisect_left(bounds, t1)]
        t = np.arange(t0, t1)
        I = np.searchsorted(starts, t, side="right") - 1
        yield I, t - starts[I] + I + 1, [b - t0 for b in runs] + [t1 - t0]
        t0 = t1


def _molecule_checks(coords, S, A, I, J, cuts, alpha, p):
    """(p-costs, reconstruction residuals) of the molecules at the grid
    position pairs (I, J) of a `_molecule_blocks` block, with S and A from
    `_analysis_operator`.

    Analysis is linear, so the coefficients of the molecule at (i, j) are
    (A[:, i] - A[:, j]) / |u_i - u_j|_1^alpha, built from the nonzero
    entries of A's columns. The columns of A are exact coefficients rounded
    once, so equal coefficients cancel exactly, and most of C is zero. The
    costs are `coefficient_cost` over the block, column by Fortran column,
    so a pair's cost does not depend on the block it is in; |c|^p is taken
    only at the nonzero entries, since |0|^p adds nothing. The synthesis is
    taken one run at a time, as S times the run's contiguous coefficient
    columns: a BLAS product rounds by the shape of its operands, and one
    product over the whole block would move the residuals' last bits."""
    scale = 1.0 / np.abs(coords[J] - coords[I]).sum(axis=1) ** alpha
    # the entries of the columns I, then those of the columns J negated, each
    # entry e of column cols[t] at row rows[e] of C's column t mod len(I); a
    # bincount adds them in that order into zeros, so C is A[:, I] - A[:, J]
    # bitwise, Fortran-ordered
    starts, rows, values = A
    n, m = len(S), len(I)
    cols = np.concatenate((I, J))
    count = starts[cols + 1] - starts[cols]
    t = np.repeat(np.arange(2 * m), count)
    e = np.arange(len(t)) + np.repeat(starts[cols] - np.cumsum(count) + count, count)
    v = values[e]
    v[count[:m].sum() :] *= -1.0
    C = np.bincount(t % m * n + rows[e], v, n * m).reshape(m, n).T
    C *= scale
    # coefficient_cost(C, p, axis=0), bitwise: the nonzero entries in one
    # contiguous gather and one array **, which rounds each entry as the **
    # over all of C does, scattered into zeros for the same column sums
    flat = C.ravel(order="F")
    nonzero = np.flatnonzero(flat)
    powers = np.zeros(C.shape, order="F")
    powers.ravel(order="F")[nonzero] = np.abs(flat[nonzero]) ** p
    costs = powers.sum(axis=0) ** (1.0 / p)
    # C turns into S C, run by run
    for a, b in zip(cuts, cuts[1:]):
        C[:, a:b] = S @ C[:, a:b]
    # the target is scale at i and -scale at j; rows skip the origin, position
    # 0, whose run, if the block holds it, comes first
    cols = np.arange(len(I))
    o = int(np.searchsorted(I, 1))
    C[I[o:] - 1, cols[o:]] -= scale[o:]
    C[J - 1, cols] += scale
    return costs, np.abs(C, out=C).max(axis=0)


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
    The analysis operator of the grid is scattered from its cached
    alpha-free plan (`_grid_plan`, built once per (d, k_max) from the integer
    numerators), whose basis hosts, read off the columns of the synthesis
    matrix, are checked in one tree program over all host sizes; the
    molecules are checked in blocks of whole runs of one first point, as
    many as fit a fixed entry budget (`_molecule_blocks`; a grid of up to 51
    points takes one block), the synthesis one run at a time; every pair's
    cost and residual are bitwise those of a block of its run alone. A grid of more
    than MAX_BASIS_POINTS basis points raises before any work, and so do a d
    that is not an integer >= 1 and a k_max or pair_budget that is not an
    integer >= 0."""
    p = check_p(p)
    alpha = check_alpha(alpha)
    d = check_count("d", d, 1)
    k_max = check_count("k_max", k_max, 0)
    pair_budget = check_count("pair_budget", pair_budget, 0)
    # N = (2^k + 1)^d - 1 basis points; when d (k + 1) > 64, N > 2^32 anyway
    n_basis = (2**k_max + 1) ** d - 1 if d * (k_max + 1) <= 64 else None
    if n_basis is None or n_basis > MAX_BASIS_POINTS:
        count = "more than 2^32" if n_basis is None else n_basis
        raise ValueError(
            f"--d {d} --kmax {k_max} give a grid of {count} basis points, beyond "
            f"the cap {MAX_BASIS_POINTS}; lower --d or --kmax"
        )

    nums, S, A = _analysis_operator(d, k_max, alpha)
    coords = _grid_plan(d, k_max).coords
    values = _grid_basis_norms(d, k_max, S, alpha, p)
    bound = basis_bound(p, alpha, d)

    complete = len(nums) * (len(nums) - 1) // 2 <= pair_budget
    max_cost = 0.0
    max_residual = 0.0
    for I, J, cuts in _molecule_blocks(len(nums), pair_budget):
        costs, residuals = _molecule_checks(coords, S, A, I, J, cuts, alpha, p)
        max_cost = max(max_cost, float(costs.max()))
        max_residual = max(max_residual, float(residuals.max()))

    return {
        "d": d,
        "alpha": alpha,
        "p": p,
        "k_max": k_max,
        "basis_k_max": k_max,
        "max_basis_norm": float(values.max()),
        "basis_bound": bound,
        "basis_ok": bool((values <= bound + EVAL_TOL).all()),
        "max_molecule_cost": max_cost,
        "molecule_bound": tau(p, alpha, d) ** d * rho(p, alpha) ** d,
        "max_molecule_residual": max_residual,
        "bm_bound": bm_bound(p, alpha, d),
        "complete": complete,
    }
