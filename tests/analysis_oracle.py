"""Reference analysis operator, one grid point at a time.

`freep.dyadic._analysis_operator` scales the grid plan of `verify_norming`,
whose synthesis matrix is assembled from the coarse neighbours of all grid
points at once and whose analysis matrix is peeled for every delta at once,
one level per array step. This module keeps the per-point route: the grid
as sorted `DyadicPoint`s, each column of the synthesis matrix from the
point's expansion, and each column of the analysis matrix from an exact
`Fraction` peel of that point's delta (`analyze({v: 1.0})`).
Both round each coefficient once from the same exact weight, so the tests
pin the kernel equal to it bitwise: the grid order, S and A.
"""

import numpy as np

from freep.dyadic import _iota_expansion, analyze, basis_points
from freep.metric import DyadicPoint


def oracle_analysis_operator(d, k_max, alpha):
    """(grid, S, A): the level-k_max grid sorted by (level, nums), the origin
    first; column j of S expands the basis element at grid[j + 1], and column
    j of A holds the basis coefficients of delta(grid[j])."""
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
