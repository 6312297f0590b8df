"""The vertex retraction of a cube complex and its Lipschitz sandwich.

A point of the cube union maps to the multilinear vertex-weight combination
of point evaluations over the vertex set with the subspace l1 metric. The
module gives the explicit decompositions certifying the upper Lipschitz
bound C(p, 2^(d-1)) C(p, d) C(p, 3), the cross-axis witness pair whose
indicator dual certificate reaches the lower bound C(p, 2^(d-1)), and a
seeded sampling harness reporting both extremes as ratios over |x - y|_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import check_count, check_p, retraction_bounds
from .cubes import (
    CubeComplex,
    as_points,
    find_cubes,
    local_coords,
    tensor_weights,
    vertex_bits,
    vertex_ids,
    vertex_weights,
)
from .freenorm import (
    DEFAULT_CAP,
    EVAL_TOL,
    Decomposition,
    DualCertificate,
    FreeElement,
    Molecule,
    decomposition_residual,
    dual_lower_bound,
    exact_norm_small,
    p_cost,
)
from .metric import PointedFiniteMetric, lattice_l1_space

# the first EXACT_CHECK_SAMPLES sampled pairs are checked against exact norms
# on a vertex host of at most DEFAULT_CAP points, where every support fits
EXACT_CHECK_SAMPLES = 50


@dataclass(frozen=True)
class RetractionContext:
    complex: CubeComplex
    vertex_space: PointedFiniteMetric


def build_context(complex: CubeComplex) -> RetractionContext:
    """Pair a complex with the metric space over its vertices."""
    base = int(vertex_ids(complex, complex.base_vertex))
    return RetractionContext(complex, lattice_l1_space(complex.vertices(), complex.R, base=base))


def retract(ctx: RetractionContext, x) -> FreeElement:
    """The vertex-weight image of x; the unit evaluation when x is a vertex."""
    return _images(ctx, as_points(ctx.complex, x))[1][0]


def _images(ctx: RetractionContext, X) -> tuple[np.ndarray, list[FreeElement]]:
    """The containing cubes (N, d) of the rows of X and their vertex-weight
    images, weighed in one kernel call."""
    W, L = vertex_weights(ctx.complex, X)
    ids = vertex_ids(ctx.complex, W[:, None, :] + vertex_bits(ctx.complex.d))
    out = []
    for row, idx in zip(L, ids):
        nonzero = np.flatnonzero(row)
        out.append(FreeElement(ctx.vertex_space, dict(zip(idx[nonzero], row[nonzero]))))
    return W, out


# ---------------------------------------------------------------------------
# the certified upper-bound decomposition


def lipschitz_upper_decomposition(ctx: RetractionContext, x, y) -> Decomposition:
    """A decomposition of r(x) - r(y) whose p-cost is at most
    C(p, 2^(d-1)) C(p, d) C(p, 3) |x - y|_1 for every p in (0, 1].

    Within one cube it is the coordinatewise zigzag; across cubes the path
    runs through the facing integer faces x' and y' (the smaller one where a
    facing coordinate is ambiguous), and the bridge moves each vertex v that
    x' weighs in x's cube to v + (y' - x'), scaled by |x' - y'|_1. A point
    outside the union raises ValueError.
    """
    X = as_points(ctx.complex, x, y)
    W = find_cubes(ctx.complex, X)
    return _upper_decompositions(ctx, X[:1], X[1:], W[:1], W[1:])[0]


def _upper_decompositions(ctx, X, Y, WX, WY) -> list[Decomposition]:
    """`lipschitz_upper_decomposition` of each pair X[k], Y[k], whose points
    lie in the cubes WX[k] and WY[k]; the rows of all pairs are weighed in
    one `tensor_weights` call."""
    complex, n = ctx.complex, len(X)
    moved = WX != WY
    # the path x, x', y', y: x' and y' lie on the facing integer faces f and g
    # of the two cubes, off the moved axes at x's values; within one cube
    # x' = y' = y
    f = WX + (WX < WY)
    g = WY + (WX > WY)
    via = np.where(moved.any(axis=1, keepdims=True), X, Y)
    path = np.concatenate(
        [X, np.where(moved, complex.R * f, via), np.where(moved, complex.R * g, via), Y], axis=1
    ).reshape(n, 4, -1)

    # Each leg of the path (in x's cube, across, in y's cube) has a row per
    # axis i. A zigzag row has a step along i; its point takes the leg's
    # start up to axis i and its end after it. The bridge is the row at the
    # last axis of the middle leg, whose point is x'.
    start, end = path[:, :-1], path[:, 1:]
    diff = start - end
    diff[:, 1, -1] = np.abs(diff[:, 1]).sum(axis=1)
    active = diff != 0.0
    active[:, 1, :-1] = False
    key, leg, axis = np.nonzero(active)
    bridge = leg == 1
    after = np.arange(complex.d) - axis[:, None]  # > 0 past the row's axis
    cube = np.concatenate([WX, WX, WY], axis=1).reshape(n, 3, -1)[key, leg]
    T = local_coords(complex, cube, np.where(after > 0, end[key, leg], start[key, leg]))
    # molecules (v + head, v + tail): head = e_i on a zigzag row, whose t_i
    # is set to 0 rather than the point moved onto the face, since (R w)/R
    # can miss w by one ulp; tail = y' - x' on the bridge
    head = (after == 0) & ~bridge[:, None]
    T[head] = 0.0
    scale = diff[key, leg, axis]
    tail = (g - f)[key] * bridge[:, None]
    L = tensor_weights(T)

    row, col = np.nonzero(L)
    V = cube[row] + vertex_bits(complex.d)[col]
    terms = [
        (a, Molecule(ctx.vertex_space, h, t))
        for a, h, t in zip(
            (scale[row] * L[row, col]).tolist(),
            vertex_ids(complex, V + head[row]).tolist(),
            vertex_ids(complex, V + tail[row]).tolist(),
        )
    ]
    ends = np.cumsum(np.bincount(key[row], minlength=n)).tolist()
    return [Decomposition(ctx.vertex_space, tuple(terms[a:b])) for a, b in zip([0] + ends, ends)]


# ---------------------------------------------------------------------------
# the lower-bound witness and its dual certificate


def vertex_indicator_certificate(space: PointedFiniteMetric) -> DualCertificate:
    """One scaled indicator per vertex (complemented at the base so it still
    vanishes there), active exactly on the pairs meeting that vertex; every
    pair meets at most two vertices, so the multiplicity is 2."""
    eye = np.eye(space.n, dtype=bool)
    scale = float(space.dist[~eye].min())
    F = scale * eye
    F[space.base] = scale - F[space.base]
    return DualCertificate(space, F, 2, eye[:, :, None] ^ eye[:, None, :])


def _witness_pair(d: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The centers of the unit cube's bottom and top facets: the cross-axis pair."""
    return (0.5,) * (d - 1) + (0.0,), (0.5,) * (d - 1) + (1.0,)


@dataclass(frozen=True)
class WitnessResult:
    element: FreeElement
    certificate: DualCertificate
    certified_value: float
    context: RetractionContext

    @cached_property
    def upper_decomposition(self) -> Decomposition:
        """The element along the 2^(d-1) vertical edges, 2^-(d-1) on each."""
        x, y = _witness_pair(self.context.complex.d)
        return lipschitz_upper_decomposition(self.context, y, x)


def lower_bound_witness(d: int, p: float) -> WitnessResult:
    """r(y) - r(x) for the cross-axis pair x, y on the unit cube, the centers
    of its bottom and top facets, with |x - y|_1 = 1: the indicator
    certificate bounds its free p-norm below by C(p, 2^(d-1)), the cost of
    its decomposition along the 2^(d-1) vertical edges. A d that is not an
    integer >= 1 or a p outside [P_FLOOR, 1] raises ValueError."""
    p = check_p(p)
    d = check_count("d", d, 1)
    ctx = build_context(CubeComplex(d=d, R=1.0, offsets=((0,) * d,), base_vertex=(0,) * d))
    _, (image_x, image_y) = _images(ctx, np.array(_witness_pair(d)))
    element = image_y - image_x
    cert = vertex_indicator_certificate(ctx.vertex_space)
    return WitnessResult(element, cert, dual_lower_bound(element, p, cert), ctx)


# ---------------------------------------------------------------------------
# sampling harness


def estimate_lipschitz(ctx: RetractionContext, p: float, n_samples: int, seed: int) -> dict:
    """Report the certified Lipschitz evidence for the retraction at p over
    the cross-axis witness pair and `n_samples` pairs drawn from the cube
    union by a generator seeded with `seed`.

    Over the pairs of distinct points it reports the largest dual lower
    bound and the largest decomposition p-cost, each divided by
    |x - y|_1, and the largest reconstruction residual of a decomposition,
    next to the theoretical sandwich and the witness value. When the vertex
    host has at most DEFAULT_CAP points, the first EXACT_CHECK_SAMPLES ratios
    are checked against the exact norm, within EVAL_TOL relative, and
    `exact_norms_checked` counts them; a ratio the exact norm escapes raises
    AssertionError. A p outside [P_FLOOR, 1] or a count that is not an
    integer >= 0 raises ValueError.
    """
    p = check_p(p)
    n_samples = check_count("n_samples", n_samples, 0)
    seed = check_count("seed", seed, 0)
    complex = ctx.complex
    # first, so that flags whose constants leave the double range stop here
    lower_const, upper_const = retraction_bounds(p, complex.d)
    rng = np.random.default_rng(seed)
    offsets = np.array(complex.offsets, dtype=float)
    R = complex.R

    unit_x, unit_y = np.array(_witness_pair(complex.d))
    pairs = [(R * (offsets[0] + unit_x), R * (offsets[0] + unit_y))]
    for _ in range(n_samples):
        wa = offsets[rng.integers(len(offsets))]
        wb = offsets[rng.integers(len(offsets))]
        pairs.append((R * (wa + rng.random(complex.d)), R * (wb + rng.random(complex.d))))

    points = np.array([pt for pair in pairs for pt in pair])
    W, images = _images(ctx, points)
    l1s = [float(np.abs(x - y).sum()) for x, y in pairs]
    k = np.flatnonzero(l1s)  # the pairs of distinct points
    diffs = [images[2 * j] - images[2 * j + 1] for j in k]
    cert = vertex_indicator_certificate(ctx.vertex_space)
    lowers = [dual_lower_bound(m, p, cert) for m in diffs]
    decomps = _upper_decompositions(ctx, points[2 * k], points[2 * k + 1], W[2 * k], W[2 * k + 1])

    max_lower = 0.0
    max_cost = 0.0
    max_residual = 0.0
    exact_checked = 0
    for j, m, lower, decomp in zip(k, diffs, lowers, decomps):
        l1 = l1s[j]
        lower = lower / l1
        cost = p_cost(decomp, p) / l1
        residual = decomposition_residual(m, decomp)
        max_lower = max(max_lower, lower)
        max_cost = max(max_cost, cost)
        max_residual = max(max_residual, residual)
        if ctx.vertex_space.n <= DEFAULT_CAP and exact_checked < EXACT_CHECK_SAMPLES:
            norm = exact_norm_small(m, p)[0] / l1
            exact_checked += 1
            if not (lower <= norm * (1 + EVAL_TOL) and norm <= cost * (1 + EVAL_TOL)):
                raise AssertionError("exact norm escaped its certified bounds")

    witness = lower_bound_witness(complex.d, p)
    return {
        "d": complex.d,
        "p": p,
        "R": R,
        "complex": [list(w) for w in complex.offsets],
        "n_samples": len(pairs),
        "seed": seed,
        "max_lower_ratio": max_lower,
        "max_upper_cost_ratio": max_cost,
        "max_reconstruction_residual": max_residual,
        "theoretical_lower": lower_const,
        "theoretical_upper": upper_const,
        "witness_value": witness.certified_value,
        "exact_norms_checked": exact_checked,
    }
