"""Numerical oracle for the summation constant C(p, n) = n^(1/p - 1).

`c_const_sup_oracle` maximizes (sum w_i^p)^(1/p) over the weight simplex
on a composition grid, independently of the closed form in
`freep.constants`; acceptance criterion 01 compares the two.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from freep.constants import check_p


@lru_cache(maxsize=8)
def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length `parts` summing to `total`,
    by differencing bar positions (stars and bars)."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    slots = total + parts - 1
    rows = comb(slots, parts - 1)
    bars = np.fromiter(
        chain.from_iterable(combinations(range(slots), parts - 1)),
        dtype=np.int64,
        count=rows * (parts - 1),
    ).reshape(rows, parts - 1)
    padded = np.hstack(
        [np.full((rows, 1), -1), bars, np.full((rows, 1), slots)]
    )
    return np.diff(padded, axis=1) - 1


def c_const_sup_oracle(
    p: float, n: int, grid_resolution: int, budget: int = 200_000
) -> float:
    """Numerically maximize (sum w_i^p)^(1/p) over the weight simplex.

    Independent check of `c_const`: evaluates the objective on a composition
    grid of the face sum(w) = 1 (the objective is nondecreasing in every
    coordinate, so the maximum sits on that face) together with the uniform
    analytic candidate w_i = 1/n, which attains the supremum. The grid
    resolution is lowered to the largest value whose composition count fits
    the evaluation budget; the uniform candidate is always evaluated at full
    precision, so the result never degrades with n.
    """
    p = check_p(p)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    g = int(grid_resolution)
    if g < 1:
        raise ValueError(f"grid_resolution must be >= 1, got {g}")

    while g > 1 and comb(g + n - 1, n - 1) > budget:
        g -= max(1, g // 8)
    grid = _compositions(g, n) / float(g)
    values = (grid**p).sum(axis=1) ** (1.0 / p)

    uniform = (n * (1.0 / n) ** p) ** (1.0 / p)
    return max(float(values.max()), uniform)
