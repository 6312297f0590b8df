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
* `molecule_decompose` - a normalized molecule (delta(u) - delta(v)) / |u - v|_1^alpha,

and `verify_norming` checks a whole grid at once through its synthesis
matrix S = (I - W) 2^(level alpha) (column j the point expansion of the
basis element at grid position j + 1) and analysis matrix A (column j the
coefficients of delta(position j)), held by their nonzero entries in one
column layout (`_GridPlan`). Their alpha-free part is cached per grid
(`_grid_plan`): its positions are the origin and then `basis_points`, and
its levels, coordinates and W are read off those points and their
`_coarse_neighbors`, the rule every element analysis uses. Its sparse
products share one kernel in two halves: the symbolic half
(`_product_symbols`) reads the two column structures alone and lists the
X and Y entry of every product in summation order, and the numeric half
(`_product_values`) gathers, multiplies and adds. The products are the
alpha-free A, built level by level as A = I + A W, the point residuals
R = S A - E, and the molecule coefficients, scaled differences of two
columns of A; a molecule's reconstruction residual is the same difference
of two columns of R. S and A keep their patterns at every alpha, so the
plan holds the symbols of R and of the first block of molecules, which a
pair budget below its width cuts to its first pairs: a call on a known grid
runs numeric halves only, except for the later blocks of a grid too large
for one block, which are built per call.
`line_path`, a mesh-adjacent chain between two dyadic scalars, is read off
their numerators at the finer level: it starts at the point between them
with the most trailing zeros and steps to each endpoint by the binary
expansion of the gap, largest part first, so at most two gaps per level.

The norm of a basis element depends on its class (k, m) alone, k its level
and m its number of odd numerators (`basis_norm_check`). The class values
have one route, `_class_norms`, over an alpha-free table of the class
representatives' hosts (`_class_hosts`), one `exact_norms` call per host
size: `basis_norm_check` reads its point's class, and `verify_norming`
reduces over all classes, each of which has a point in the grid.

The weights w(u, v) are dyadic, so the coefficient at a level-k point is an
exact dyadic rational beta times 2^(-k*alpha). The analysis has one
arithmetic: it peels the alpha-free weights beta exactly (in rationals for
an element, a double input being a dyadic rational too; in doubles for the
grid operator, whose weights need far fewer than 53 bits) and rounds each
coefficient once, as float(beta) * 2^(-k*alpha); the hat element carries a
factor 2^(n*alpha), which shifts the exponent to k - n. Equal
coefficients thus round to equal doubles, and the grid operator equals one
`analyze` per grid point bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, pairwise, product
from typing import NamedTuple

import numpy as np

from .constants import basis_bound, bm_bound, check_alpha, check_count, check_p, rho, tau
from .freenorm import (
    DEFAULT_CAP,
    EVAL_TOL,
    FreeElement,
    coefficient_cost,
    exact_norms,
    _read_only,
)
from .metric import DyadicPoint, PointedFiniteMetric, coordinate_level, dyadic_grid, l1_distances

PRUNE_TOL = 1e-13
MAX_LEVEL = 32
# the largest grid verify_norming admits, in basis points N; it holds S, A
# and R by their nonzero entries, so no array is N x N, and checks molecules
# in blocks of max(N, _BLOCK_ENTRIES // (N + 1)) pairs (`_molecule_blocks`)
MAX_BASIS_POINTS = 5000
_BLOCK_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# basis combinations


def _pruned(comb: dict[DyadicPoint, float]) -> dict[DyadicPoint, float]:
    floor = PRUNE_TOL * max((abs(c) for c in comb.values()), default=0.0)
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
    return tuple((DyadicPoint._exact(v.level, nums), weight) for nums in product(*axes))


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
# mesh-adjacent paths between dyadic scalars


def line_path(u, v) -> list[Fraction]:
    """A chain from u to v whose consecutive entries share a level k and
    differ by exactly 2^-k, with at most two gaps per level, which yields
    the strict cost bound checked in the suite.

    On the numerators a < b of the two endpoints at the finer endpoint's
    level, the chain starts at the point of [a, b] with the most trailing
    zeros: 0 when a = 0, otherwise b with every bit cleared below the
    highest bit where b and a - 1 differ. From there it steps down to a and
    up to b by the binary expansion of each gap, largest part first.
    """
    u = _check_dyadic_unit(u)
    v = _check_dyadic_unit(v)
    if u == v:
        raise ValueError("path endpoints must differ")
    n = max(coordinate_level(u), coordinate_level(v))
    a, b = sorted((int(u * 2**n), int(v * 2**n)))
    low = (b ^ (a - 1)).bit_length() - 1
    start = b >> low << low if a else 0
    down, up = start - a, b - start
    gaps = [1 << i for i in range(down.bit_length()) if down >> i & 1]
    gaps += [1 << i for i in reversed(range(up.bit_length())) if up >> i & 1]
    path = [Fraction(m, 2**n) for m in accumulate(gaps, initial=a)]
    return path if u < v else path[::-1]


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
    labels, weights = _element_host(v, alpha)
    host = PointedFiniteMetric(labels, 0, l1_distances(np.array(labels)) ** alpha)
    return FreeElement(host, dict(enumerate(weights, 1)))


def _element_host(v: DyadicPoint, alpha: float) -> tuple[list, list[float]]:
    """(labels, weights) of the basis element at v: the coordinates of the
    origin and then of its support by (level, nums), and its weights on
    that support."""
    if v.is_origin():
        raise ValueError("the origin does not index a basis element")
    expansion = _iota_expansion(v, alpha)
    support = sorted(expansion, key=lambda q: (q.level, q.nums))
    labels = [q.floats() for q in [DyadicPoint.origin(v.d)] + support]
    return labels, [expansion[q] for q in support]


def _proof_cost(k: int, m: int, alpha: float, p: float) -> float:
    """Cost of the partition-of-unity decomposition of a basis element of
    class (k, m) (`basis_norm_check`) into molecules toward its coarser
    neighbours (origin included).

    At level k >= 1 the element has 2^m coarse neighbours, each m 2^-k away
    and weighing 2^-m, both exact doubles, so every molecule term is the
    same double; the 2^m terms are added one by one, as a sum over the
    neighbours rounds. A corner costs its distance m to the origin."""
    if k == 0:
        return float(m) ** alpha
    term = (2.0 ** (k * alpha) * 0.5**m * (m / 2.0**k) ** alpha) ** p
    total = 0.0
    for _ in range(2**m):
        total += term
    return total ** (1.0 / p)


def basis_norm_check(v: DyadicPoint, alpha: float, p: float) -> tuple[float, float]:
    """(value, `basis_bound` d^alpha C(p, 2^d)) for the basis element at v,
    the value entry k d + m - 1 of `_class_norms` for v in class (k, m).

    A basis point of level k >= 1 with m odd numerators, or a corner with m
    coordinates equal to 1, is in the class (k, m), whose representative is
    r = 2^-k (1, ..., 1, 0, ..., 0) with m ones. The origin is a corner of
    the support of r's element, so a translation and a permutation of the
    coordinates carry v's support and weights exactly onto those of
    `basis_element(r)`. The value is the exact norm of that element, the
    exact norm of v's element over its own support, when its host fits
    DEFAULT_CAP, and beyond it the cost `_proof_cost` of the
    partition-of-unity decomposition, which never exceeds the bound either."""
    p = check_p(p)
    alpha = check_alpha(alpha)
    if v.is_origin():
        raise ValueError("the origin does not index a basis element")
    m = sum(n % 2 for n in v.nums)
    value = _class_norms(v.d, v.level, alpha, p)[v.level * v.d + m - 1]
    return float(value), basis_bound(p, alpha, v.d)


@lru_cache(maxsize=32)
def _class_hosts(d: int, k_max: int):
    """(hosts, fallback), read-only: the alpha-free table of the classes
    (k, m) of `basis_norm_check` in [0, 1]^d, k <= k_max, class (k, m) at
    k d + m - 1. Its host, that of `basis_element(r)` at the representative
    r = 2^-k (1, ..., 1, 0, ..., 0), has 2^m + 1 points at k >= 1 and 2 at
    k = 0. hosts has one (classes, l1, weights) per host size within
    DEFAULT_CAP, smallest first: the classes ascending, the l1 stack
    (`l1_distances`) of their hosts and r's weights at alpha = 0.
    fallback lists the classes beyond the cap, whose hosts are never built."""
    table = {}
    for c, (k, m) in enumerate(product(range(k_max + 1), range(1, d + 1))):
        r = DyadicPoint(k, (1,) * m + (0,) * (d - m))
        table.setdefault(2**m + 1 if k else 2, []).append((c, r))
    hosts = []
    for size in sorted(s for s in table if s <= DEFAULT_CAP):
        classes, reps = zip(*table[size])
        labels, weights = zip(*(_element_host(r, 0.0) for r in reps))
        # raised to alpha, the stack holds the distance matrices of the
        # checked `basis_element` hosts, and needs no check of its own: the
        # rows are distinct dyadic grid points, so their l1 distances are
        # exact and positive, and t -> t^alpha keeps the triangle inequality
        hosts.append(_read_only(np.array(classes), l1_distances(np.array(labels)), np.array(weights)))
    fallback = sorted(c for s in table if s > DEFAULT_CAP for c, _ in table[s])
    return tuple(hosts), _read_only(np.array(fallback, dtype=int))[0]


def _class_norms(d: int, k_max: int, alpha: float, p: float) -> np.ndarray:
    """The values of `basis_norm_check` on the (k_max + 1) d classes (k, m)
    of [0, 1]^d, at k d + m - 1, from the class table (`_class_hosts`): the
    l1 stacks raised to alpha and the weights of level k scaled by
    2^(k alpha), one `exact_norms` call per host size, and beyond
    DEFAULT_CAP `_proof_cost`."""
    hosts, fallback = _class_hosts(d, k_max)
    values = np.empty((k_max + 1) * d)
    for classes, l1, weights in hosts:
        scale = np.array([2.0 ** (k * alpha) for k in (classes // d).tolist()])
        values[classes] = exact_norms(l1**alpha, weights * scale[:, None], p)
    values[fallback] = [_proof_cost(c // d, c % d + 1, alpha, p) for c in fallback.tolist()]
    return values


class _Product(NamedTuple):
    """The symbolic half of a sparse product X Y (`_product_symbols`): the X
    entry x and the Y entry y of each product X[row, r] Y[r, col] in
    summation order, and the first product of each output entry. The
    numeric half, `_product_values`, adds the products up."""

    x: np.ndarray
    y: np.ndarray
    starts: np.ndarray


def _product_symbols(
    X, Y, n: int, appended: np.ndarray = np.zeros(0, np.intp)
) -> tuple[_Product, np.ndarray]:
    """(symbols, keys): the symbolic half of X Y from the column structures
    (starts, rows) of X, of n rows, and of Y alone, both in the layout of
    `_GridPlan`, and the output keys col * n + row ascending. Each output
    entry sums its products for each entry of Y in turn, over the entries
    of column r of X in their order, and then its entries among the keys
    `appended`: each the product of X entry len(X rows) and Y entry
    len(Y rows), values that the caller of the numeric half appends."""
    x_starts, x_rows = X[:2]
    y_starts, y_rows = Y[:2]
    first = x_starts[y_rows]
    count = x_starts[y_rows + 1] - first
    # product i pairs entry y[i] of Y with entry x[i] of X, x running over
    # first[e], ..., first[e] + count[e] - 1 for each entry e of Y in turn
    y = np.repeat(np.arange(len(y_rows)), count)
    x = np.arange(len(y)) + (first - np.cumsum(count) + count)[y]
    cols = np.repeat(np.arange(len(y_starts) - 1) * n, np.diff(y_starts))
    key = np.concatenate((cols[y] + x_rows[x], appended))
    x = np.concatenate((x, np.full(len(appended), len(x_rows))))
    y = np.concatenate((y, np.full(len(appended), len(y_rows))))
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    return _Product(x[order], y[order], starts), key[starts]


def _product_values(product: _Product, x_values, y_values) -> np.ndarray:
    """The numeric half of a sparse product: each output entry of
    `product`, the sum of its products in their order."""
    return np.add.reduceat(x_values[product.x] * y_values[product.y], product.starts)


def _columns(key: np.ndarray, values: np.ndarray, n: int, m: int):
    """The n x m matrix with the values at the ascending distinct keys
    col * n + row, in the layout of `_GridPlan`."""
    return np.searchsorted(key, np.arange(m + 1) * n), key % n, values


def _grid_peel(synthesis, levels: np.ndarray):
    """A0, A at alpha = 0, from S0 = I - W and the grid's levels, both in the
    layout of `_GridPlan`: column j > 0 holds the exact peel weights of
    delta(position j), column j - 1 of (I - W)^-1, and column 0 nothing.
    A0 = I + A0 W, W moving each point only to strictly coarser ones, is
    built one level at a time, coarsest first. Its entries are positive
    dyadic rationals of size at most 3^d over at most 2^(d k_max), far
    fewer than 53 significant bits on the grids MAX_BASIS_POINTS admits, so
    every sum is exact."""
    starts, rows, values = synthesis
    n = len(starts) - 1
    key, value = np.zeros(0, np.intp), np.zeros(0)
    # the columns of a level are a run; column j of A0 is column j of
    # I + W = |S0| times the final columns u < j and, at j, the unit e_j
    for lo, hi in pairwise(np.searchsorted(levels[1:], range(levels[-1] + 2)).tolist()):
        X = _columns(np.append(key, np.arange(lo, n) * (n + 1)), np.append(value, np.ones(n - lo)), n, n)
        at = slice(starts[lo], starts[hi])
        Y = (starts[lo : hi + 1] - starts[lo], rows[at], np.abs(values[at]))
        product, keys = _product_symbols(X, Y, n)
        key = np.append(key, keys + lo * n)
        value = np.append(value, _product_values(product, X[2], Y[2]))
    # column j + 1 of A0 is column j of (I - W)^-1
    return _columns(key + n, value, n, n + 1)


def _residual_symbols(S, A) -> tuple[_Product, np.ndarray]:
    """(symbols, columns): the symbolic half of R = S A - E, with S and A
    from `_analysis_operator` or their alpha-free patterns, and column j of
    E the point evaluation delta(position j), zero for the origin, and the
    first entry of each column 1..N of R. E's entry -1 of column j, at row
    j - 1, is appended, added last to its sum, so no such column is empty;
    column 0 is."""
    n = len(S[0]) - 1
    product, keys = _product_symbols(S, A, n, np.arange(1, n + 1) * (n + 1) - 1)
    return product, np.searchsorted(keys, np.arange(1, n + 1) * n)


def _residual_sups(residual, S, A) -> np.ndarray:
    """The sup norms of the N + 1 columns of R = S A - E from its
    `_residual_symbols`: their numeric half, E's entry the appended product
    -1 * 1, and each column's maximum."""
    product, columns = residual
    entries = _product_values(product, np.append(S[2], -1.0), np.append(A[2], 1.0))
    return np.concatenate(([0.0], np.maximum.reduceat(np.abs(entries), columns)))


class _MoleculeBlock(NamedTuple):
    """The alpha-free part of the molecule checks at the grid position
    pairs (I, J), I < J (`_molecule_block`): the pairs, their l1 distances
    dist, the symbolic half of the coefficient product A P, column t of the
    pair matrix P being 1 at row I[t] and -1 at row J[t], its Y entries
    read as indices into the signs (1, -1), and the pair t of each
    coefficient."""

    I: np.ndarray
    J: np.ndarray
    dist: np.ndarray
    product: _Product
    pair: np.ndarray


_SIGNS = np.array([1.0, -1.0])


def _molecule_block(coords, A, I, J) -> _MoleculeBlock:
    """The `_MoleculeBlock` of the pairs (I, J) from the grid coordinates and
    the column structure of A."""
    n, m = len(coords) - 1, len(I)
    rows = np.empty(2 * m, dtype=I.dtype)
    rows[::2], rows[1::2] = I, J
    product, keys = _product_symbols(A, (np.arange(0, 2 * m + 1, 2), rows), n)
    dist = np.abs(coords[J] - coords[I]).sum(axis=1)
    return _MoleculeBlock(I, J, dist, product._replace(y=product.y & 1), keys // n)


def _block_checks(block: _MoleculeBlock, A, residuals, alpha, p):
    """(p-costs, reconstruction residual bounds) of the molecules of a
    `_MoleculeBlock`, with A from `_analysis_operator` and residuals from
    `_residual_sups`; each depends on its pair alone.

    The molecule at (i, j) has the coefficients c = scale (A[:, i] - A[:, j])
    and the residual scale (R_i - R_j), scale = 1 / |u_i - u_j|_1^alpha. Its
    cost is (sum |c|^p)^(1/p) over the two columns' supports in row order,
    and its bound scale (|R_i|_inf + |R_j|_inf)."""
    scale = 1.0 / block.dist**alpha
    c = _product_values(block.product, A[2], _SIGNS)
    c *= scale[block.pair]
    costs = np.bincount(block.pair, np.abs(c) ** p, len(scale)) ** (1.0 / p)
    return costs, scale * (residuals[block.I] + residuals[block.J])


def _molecule_blocks(n_points: int, pair_budget: int, start: int = 0):
    """The first pair_budget pairs (i, j) of combinations(range(n_points), 2)
    in that order, as blocks (I, J) of
    max(n_points - 1, _BLOCK_ENTRIES // n_points) pairs, the last one
    shorter, from pair `start` on: 0 or the end of the first block."""
    total = min(pair_budget, n_points * (n_points - 1) // 2)
    if start >= total:
        return
    starts = np.concatenate(([0], np.cumsum(np.arange(n_points - 1, 0, -1))))
    width = max(n_points - 1, _BLOCK_ENTRIES // n_points)
    for t0 in range(start, total, width):
        t = np.arange(t0, min(t0 + width, total))
        I = np.searchsorted(starts, t, side="right") - 1
        yield I, t - starts[I] + I + 1


class _GridPlan(NamedTuple):
    """The alpha-free part of `verify_norming` on the level-k_max grid of
    [0, 1]^d (`_grid_plan`); every array is read-only. Grid position 0 is
    the origin and positions 1..N are `basis_points(d, k_max)`. A sparse
    matrix is held by columns as (starts, rows, values): column j is entries
    starts[j]:starts[j + 1], rows ascending; its rows index the basis
    points, grid positions 1..N. S and A keep the patterns of S0 and A0 at
    every alpha, so the symbolic halves of their products are alpha-free.

    levels, coords: the level and the coordinates of each grid position;
    synthesis: S0 = I - W, S at alpha = 0: column j is the basis element at
        position j + 1, W the weights of `_coarse_neighbors`;
    peel: A0, A at alpha = 0 (`_grid_peel`), one column per grid position;
    residual: the symbols of R = S0 A0 - E and its column starts
        (`_residual_symbols`);
    block: the first molecule block of the grid's pairs
        (`_molecule_blocks`, `_molecule_block`); a pair budget below its
        width keeps its first pair_budget costs and bounds."""

    levels: np.ndarray
    coords: np.ndarray
    synthesis: tuple[np.ndarray, np.ndarray, np.ndarray]
    peel: tuple[np.ndarray, np.ndarray, np.ndarray]
    residual: tuple[_Product, np.ndarray]
    block: _MoleculeBlock


@lru_cache(maxsize=8)
def _grid_plan(d: int, k_max: int) -> _GridPlan:
    """The `_GridPlan` of the level-k_max grid of [0, 1]^d, built once per
    (d, k_max) from its points and their `_coarse_neighbors` and kept for
    the last few grids; it holds no N x N array."""
    points = [DyadicPoint._exact(0, (0,) * d)] + basis_points(d, k_max)
    position = {v: j for j, v in enumerate(points)}
    n = len(points) - 1
    # S0 = I - W: the unit diagonal, and -w(u, v) at row u - 1 of column
    # v - 1 for each coarse neighbour u of v other than the origin; no key
    # repeats
    key, values = list(range(0, n * n, n + 1)), [1.0] * n
    for j, v in enumerate(points[1:]):
        for u, w in _coarse_neighbors(v) if v.level else ():
            if position[u]:
                key.append(j * n + position[u] - 1)
                values.append(-float(w))
    order = np.argsort(key)
    synthesis = _read_only(*_columns(np.array(key)[order], np.array(values)[order], n, n))
    levels = np.array([v.level for v in points])
    coords = np.array([v.floats() for v in points])
    peel = _read_only(*_grid_peel(synthesis, levels))
    residual = _residual_symbols(synthesis, peel)
    block = _molecule_block(coords, peel, *next(_molecule_blocks(n + 1, (n + 1) * n // 2)))
    _read_only(levels, coords, *residual[0], residual[1], *block[:3], *block.product, block.pair)
    return _GridPlan(levels, coords, synthesis, peel, residual, block)


def _analysis_operator(plan: _GridPlan, alpha: float):
    """(S, A) of a grid's `_GridPlan`, both in its layout. Column j of the
    synthesis matrix S = (I - W) 2^(level alpha) is the point expansion of
    the basis element at position j + 1; column j of the analysis matrix A
    holds the basis coefficients of delta(position j), zero for the origin,
    each exact peel weight rounded once (`_rounded`)."""
    levels = plan.levels[1:]
    scale = np.array([2.0 ** (k * alpha) for k in range(levels[-1] + 1)])[levels]
    unscale = np.array([2.0 ** (-k * alpha) for k in range(levels[-1] + 1)])[levels]
    starts, rows, values = plan.synthesis
    S = (starts, rows, values * np.repeat(scale, np.diff(starts)))
    starts, rows, values = plan.peel
    return S, (starts, rows, values * unscale[rows])


def verify_norming(
    d: int,
    alpha: float,
    p: float,
    k_max: int,
    pair_budget: int = (MAX_BASIS_POINTS + 1) * MAX_BASIS_POINTS // 2,
) -> dict:
    """Certify the two-sided norming estimates at desk scale.

    Every basis element of the level-`k_max` grid is checked against
    `basis_bound` d^alpha C(p, 2^d); every molecule over the grid is
    decomposed with its cost recorded against tau^d rho^d and its
    reconstruction residual bounded by linearity (`_block_checks`). The
    report carries the resulting norming bound C(p, 2^d) rho^d tau^d and a
    completeness flag (a pair budget below the grid's pair count keeps the
    first pairs of `combinations(grid, 2)`, and one below the width of the
    plan's first block cuts that block; the default covers every pair of
    every admitted grid). A basis norm passes within EVAL_TOL relative to
    the bound. The alpha-free part of the work is cached per grid
    (`_grid_plan`, `_class_hosts`). A grid of more than MAX_BASIS_POINTS
    basis points raises before any work, and so do a d that is not an
    integer >= 1 and a k_max or pair_budget that is not an integer >= 0."""
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

    plan = _grid_plan(d, k_max)
    S, A = _analysis_operator(plan, alpha)
    values = _class_norms(d, k_max, alpha, p)
    residuals = _residual_sups(plan.residual, S, A)
    bound = basis_bound(p, alpha, d)

    n_points = len(plan.coords)
    complete = n_points * (n_points - 1) // 2 <= pair_budget
    # the plan's first block cut to the budget, then the later blocks built
    # one at a time
    costs, bounds = _block_checks(plan.block, A, residuals, alpha, p)
    max_cost = float(costs[:pair_budget].max(initial=0.0))
    max_residual = float(bounds[:pair_budget].max(initial=0.0))
    for I, J in _molecule_blocks(n_points, pair_budget, len(plan.block.I)):
        block = _molecule_block(plan.coords, A, I, J)
        costs, bounds = _block_checks(block, A, residuals, alpha, p)
        max_cost = max(max_cost, float(costs.max()))
        max_residual = max(max_residual, float(bounds.max()))

    return {
        "d": d,
        "alpha": alpha,
        "p": p,
        "k_max": k_max,
        "max_basis_norm": float(values.max()),
        "basis_bound": bound,
        "basis_ok": bool((values <= bound * (1 + EVAL_TOL)).all()),
        "max_molecule_cost": max_cost,
        "molecule_bound": tau(p, alpha, d) ** d * rho(p, alpha) ** d,
        "max_molecule_residual": max_residual,
        "bm_bound": bm_bound(p, alpha, d),
        "complete": complete,
    }
