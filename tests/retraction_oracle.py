"""Reference upper decomposition of the retraction, one pair at a time.

`freep.retraction` builds the decompositions of many pairs as rows weighed
by one `cubes.tensor_weights` call. This module keeps the per-pair
construction it replaced: a coordinatewise zigzag inside one cube, each step
weighed vertex by vertex over the axes it leaves unchanged, and across cubes
a bridge between the facing integer faces x' and y', weighed by
`oracle_support` in x's cube. The tests pin the fast path equal to it:
coefficients bitwise, the same molecules in the same orientation and order.
"""

import numpy as np
from cube_oracle import oracle_find_cube, oracle_local_coords, oracle_support

from freep.freenorm import Decomposition, Molecule
from freep.retraction import LATTICE_TOL


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
        mol = Molecule(ctx.vertex_space, ctx.vertex_index(tuple(hi)), ctx.vertex_index(tuple(lo)))
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
        mol = Molecule(ctx.vertex_space, ctx.vertex_index(v), ctx.vertex_index(target))
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
