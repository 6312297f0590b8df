"""Reference cube lookup and vertex weights, one point at a time.

`freep.cubes.vertex_weights` looks cubes up by the floor of the lattice
position among the offsets present and forms all vertex weights of a block
of points as one tensor product. This module keeps the direct per-point
route it replaced: scan the sorted offsets for the first cube containing the
point (an exact pass, then a pass with tolerance _CUBE_TOL (1 + max|z|)),
then multiply the one-dimensional weights vertex by vertex. A point found in
a cube is weighed there, a local coordinate within that tolerance of 0 or 1
set to it and the others clipped to [0, 1]. The tests
pin the kernel and its one-point views equal to it, cubes exactly and
weights bitwise.
"""

from itertools import product

import numpy as np

from freep.cubes import _CUBE_TOL, VertexWeight, scalar_coeff


def oracle_find_cube(complex, x):
    z = np.asarray(x, dtype=float) / complex.R
    if z.shape != (complex.d,):
        raise ValueError(f"point must have {complex.d} coordinates")
    for tol in (0.0, _CUBE_TOL * (1.0 + float(np.abs(z).max()))):
        for w in complex.offsets:
            wa = np.array(w, dtype=float)
            if np.all(z >= wa - tol) and np.all(z <= wa + 1.0 + tol):
                return w
    raise ValueError(f"point {tuple(map(float, x))} lies outside the complex")


def oracle_local_coords(complex, w, x):
    z = np.asarray(x, dtype=float) / complex.R
    tol = _CUBE_TOL * (1.0 + float(np.abs(z).max()))
    out = []
    for t in z - np.array(w, dtype=float):
        out.append(0.0 if t <= tol else 1.0 if t >= 1.0 - tol else float(t))
    return np.array(out)


def oracle_weight(complex, v, x):
    w = oracle_find_cube(complex, x)
    t = oracle_local_coords(complex, w, x)
    out = 1.0
    for ti, vi, wi in zip(t, v, w):
        out *= scalar_coeff(ti, int(vi) - wi)
        if out == 0.0:
            return 0.0
    return out


def oracle_support(complex, x, cube=None):
    if cube is None:
        cube = oracle_find_cube(complex, x)
    elif tuple(cube) not in complex.offsets:
        raise ValueError(f"cube {cube} is not part of the complex")
    w = tuple(int(c) for c in cube)
    t = oracle_local_coords(complex, w, x)
    out = []
    for bits in product((0, 1), repeat=complex.d):
        weight = 1.0
        for ti, b in zip(t, bits):
            weight *= ti if b else 1.0 - ti
            if weight == 0.0:
                break
        if weight != 0.0:
            out.append(VertexWeight(tuple(wi + b for wi, b in zip(w, bits)), float(weight)))
    return out


def complex_shapes(d):
    """One-cube, two-cube, L-shaped and gapped complexes of dimension d."""
    e = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    zero = (0,) * d
    corner = tuple(a + b for a, b in zip(e[0], e[-1])) if d > 1 else (2,)
    return {
        "one": (zero,),
        "two": (zero, e[0]),
        "L": (zero, e[0], corner),
        "gapped": ((-1,) * d, tuple(2 * c for c in e[-1])),
    }
