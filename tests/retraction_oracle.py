"""Reference upper decomposition of the retraction, one pair at a time.

`freep.retraction` builds the decompositions of many pairs as rows weighed
by one `cubes.tensor_weights` call. This module keeps the per-pair
construction it replaced: a coordinatewise zigzag inside one cube, each step
weighed vertex by vertex over the axes it leaves unchanged, and across cubes
a bridge between the facing integer faces x' and y', weighed by
`oracle_support` in x's cube. The tests pin the fast path equal to it:
coefficients bitwise, the same molecules in the same orientation and order.

The witness's decomposition edge by edge (`oracle_witness_edges`) and the
vertex indicator certificate vertex by vertex (`oracle_indicator_certificate`)
are kept as well, for the kernel call and the array expressions that replaced
them. It also holds the two symmetries of the tests: `translate_element` moves a
retraction image by a lattice vector, and `rescale_check` compares a norm
before and after a dilation of its integer host. `vertex_index` looks one
lattice vertex up in a context's vertex space, the one-point view of
`cubes.vertex_ids` that these per-vertex constructions use.
"""

import numpy as np
from cube_oracle import oracle_find_cube, oracle_local_coords, oracle_support

from freep.constants import check_p
from freep.cubes import vertex_ids
from freep.freenorm import Decomposition, FreeElement, Molecule, exact_norm_small
from freep.metric import lattice_l1_space
from freep.retraction import RetractionContext

LATTICE_TOL = 1e-9


def vertex_index(ctx: RetractionContext, v: tuple[int, ...]) -> int:
    """The index of lattice vertex v in `ctx.vertex_space`."""
    return int(vertex_ids(ctx.complex, v))


def _axis_pair_terms(ctx, w, t, axis, delta):
    """Terms for the difference of two images in cube `w` that agree except
    in `axis`, where they differ by `delta` (actual units); `t` holds the
    local coordinates of their common point."""
    other = [j for j in range(ctx.complex.d) if j != axis]
    terms = []
    for bits in np.ndindex(*(2,) * len(other)):
        weight = 1.0
        for j, b in zip(other, bits):
            weight *= t[j] if b else 1.0 - t[j]
            if weight == 0.0:
                break
        if weight == 0.0:
            continue
        hi = list(w)
        for j, b in zip(other, bits):
            hi[j] += b
        lo = list(hi)
        hi[axis] += 1
        mol = Molecule(ctx.vertex_space, vertex_index(ctx, tuple(hi)),
                       vertex_index(ctx, tuple(lo)))
        terms.append((delta * weight, mol))
    return terms


def _same_cube_terms(ctx, w, a, b):
    """Zigzag decomposition of r(a) - r(b) for a, b in one cube: change one
    coordinate at a time, each step supported on a single face."""
    terms = []
    for i in range(ctx.complex.d):
        if float(a[i] - b[i]) != 0.0:
            # the common point of the step pair, whose axis-i value is irrelevant
            t = oracle_local_coords(ctx.complex, w, np.concatenate([a[: i + 1], b[i + 1 :]]))
            terms += _axis_pair_terms(ctx, w, t, i, float(a[i] - b[i]))
    return terms


def _bridge_terms(ctx, w, x1, y1):
    """Terms for r(x') - r(y') when y' - x' is a lattice vector: every
    supported vertex of x' pairs with its translate."""
    delta = y1 - x1
    lat = np.rint(delta / ctx.complex.R)
    assert np.abs(delta / ctx.complex.R - lat).max(initial=0.0) <= LATTICE_TOL
    lat = tuple(int(c) for c in lat)
    if all(c == 0 for c in lat):
        return []
    l1 = float(np.abs(delta).sum())
    terms = []
    for v, weight in oracle_support(ctx.complex, x1, cube=w):
        target = tuple(a + b for a, b in zip(v, lat))
        mol = Molecule(ctx.vertex_space, vertex_index(ctx, v), vertex_index(ctx, target))
        terms.append((weight * l1, mol))
    return terms


def oracle_upper_decomposition(ctx, x, y):
    """The decomposition of r(x) - r(y): the zigzag within one cube, or
    zigzag to x', bridge to y', zigzag to y across cubes; a facing integer
    face takes the smaller value when ambiguous."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wx = oracle_find_cube(ctx.complex, x)
    wy = oracle_find_cube(ctx.complex, y)
    if wx == wy:
        return Decomposition(ctx.vertex_space, tuple(_same_cube_terms(ctx, wx, x, y)))

    R = ctx.complex.R
    x1 = x.copy()
    y1 = x.copy()  # coordinates off the moved set stay at x's values
    for i in range(ctx.complex.d):
        if wx[i] != wy[i]:
            n_i = wx[i] + 1 if wx[i] < wy[i] else wx[i]
            m_i = wy[i] if wx[i] < wy[i] else wy[i] + 1
            x1[i] = R * n_i
            y1[i] = R * m_i
    terms = (
        _same_cube_terms(ctx, wx, x, x1)
        + _bridge_terms(ctx, wx, x1, y1)
        + _same_cube_terms(ctx, wy, y1, y)
    )
    return Decomposition(ctx.vertex_space, tuple(terms))


def oracle_witness_edges(ctx):
    """The cross-axis witness's decomposition on the unit d-cube: one molecule
    per vertical edge, from its top vertex to its bottom one, each carrying
    2^-(d-1)."""
    d = ctx.complex.d
    coeff = 2.0 ** (-(d - 1))
    terms = []
    for bits in np.ndindex(*(2,) * (d - 1)):
        hi = vertex_index(ctx, tuple(bits) + (1,))
        lo = vertex_index(ctx, tuple(bits) + (0,))
        terms.append((coeff, Molecule(ctx.vertex_space, hi, lo)))
    return Decomposition(ctx.vertex_space, tuple(terms))


def oracle_indicator_certificate(space):
    """(functions, activity) of the vertex indicator certificate: the scaled
    indicator of each vertex, complemented at the base, active on the pairs
    meeting that vertex."""
    n = space.n
    off = ~np.eye(n, dtype=bool)
    scale = float(space.dist[off].min())
    F = np.zeros((n, n))
    activity = np.zeros((n, n, n), dtype=bool)
    for u in range(n):
        if u == space.base:
            F[u] = scale
            F[u, u] = 0.0
        else:
            F[u, u] = scale
        activity[u, u, :] = True
        activity[u, :, u] = True
        activity[u, u, u] = False
    return F, activity


def translate_element(ctx: RetractionContext, m: FreeElement, shift) -> FreeElement:
    """Transport a retraction-image weight family by a lattice vector.

    The element is read as a full weight family summing to one, with the
    base vertex carrying the complement of the stored weights (evaluations
    at the base are normalized away in `FreeElement`); every weight then
    moves to its shifted vertex, which must exist in the complex.
    """
    if m.host is not ctx.vertex_space:
        raise ValueError("element does not live over this context's vertices")
    shift = np.asarray(shift, dtype=float)
    lat = np.rint(shift / ctx.complex.R)
    if np.abs(shift / ctx.complex.R - lat).max(initial=0.0) > LATTICE_TOL:
        raise ValueError(f"shift {tuple(shift)} is not a lattice vector")

    family = dict(m.weights)
    complement = 1.0 - sum(family.values())
    if abs(complement) > 1e-12:
        family[m.host.base] = complement
    points = np.array([m.host.points[idx] for idx in family], dtype=np.int64)
    ids = vertex_ids(ctx.complex, points + lat.astype(np.int64))
    return FreeElement(ctx.vertex_space, dict(zip(ids, family.values())))


def rescale_check(m: FreeElement, R: float, shift, p: float):
    """Compare the norm of an element under v -> R(v + shift) against R times
    its norm on the original integer vertex set.

    The host of `m` must be an integer-lattice l1 space at scale 1. Returns
    (lhs, rhs); the dilation isometry of free p-spaces makes them equal up
    to floating error.
    """
    p = check_p(p)
    pts = [tuple(int(c) for c in v) for v in m.host.points]
    shift = tuple(int(c) for c in shift)
    image_pts = [tuple(c + s for c, s in zip(v, shift)) for v in pts]
    image_space = lattice_l1_space(image_pts, float(R), base=m.host.base)

    m_image = FreeElement(image_space, dict(m.weights))
    lhs, _ = exact_norm_small(m_image, p)
    rhs_raw, _ = exact_norm_small(m, p)
    return lhs, float(R) * rhs_raw
