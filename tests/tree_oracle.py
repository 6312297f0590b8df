"""Reference tree program, one subset at a time.

`freep.freenorm` runs the Dreyfus-Wagner program one popcount layer of
subsets per array step and recovers the witness by recomputing the minima on
the nodes its backtracking visits. This module keeps the per-subset loop it
replaced, which stores the hop and the split of every (subset, point) pair
and backtracks through those tables. Its arithmetic is the same (numpy
scalar powers, the same sums in the same order, first minima), so the tests
pin the kernel equal to it bitwise: values, witness coefficients and
molecules.
"""

import numpy as np

from freep.freenorm import COEFF_TOL, Decomposition, _forest_witness


def oracle_tree_norm(m, p):
    """(p-norm, witness) of m over trees on its host rooted at the base."""
    host, n = m.host, m.host.n
    if m.is_zero():
        return 0.0, Decomposition(host, ())
    terminals = sorted(m.weights)
    w = np.array([m.weights[t] for t in terminals])
    size, cols = 1 << len(terminals), np.arange(n)
    wsum = ((np.arange(size)[:, None] >> np.arange(len(terminals))) & 1) @ w
    flow = np.where(np.abs(wsum) > COEFF_TOL * np.abs(w).sum(), np.abs(wsum), 0.0)
    Dp = host.dist**p
    F = np.zeros((size, n))
    hop = np.zeros((size, n), dtype=np.intp)
    split = np.zeros((size, n), dtype=np.intp)
    for S in range(1, size):
        low = S & -S
        if S == low:
            g = np.where(cols == terminals[low.bit_length() - 1], 0.0, np.inf)
        else:
            parts, T = [], S ^ low
            while T:
                T = (T - 1) & (S ^ low)
                parts.append(low | T)
            parts = np.array(parts)
            cand = F[parts] + F[S ^ parts]
            best = cand.argmin(axis=0)
            g, split[S] = cand[best, cols], parts[best]
        H = g[:, None] + flow[S] ** p * Dp
        hop[S] = H.argmin(axis=0)
        F[S] = H[hop[S], cols]

    W = np.zeros((n, n))  # weight carried from u to v, antisymmetric
    stack = [(size - 1, host.base)]
    while stack:
        S, v = stack.pop()
        u = hop[S, v]
        if u != v and flow[S] > 0.0:
            W[u, v] += wsum[S]
            W[v, u] -= wsum[S]
        if S & (S - 1):
            stack += [(split[S, u], u), (S ^ split[S, u], u)]
    return float(F[-1, host.base] ** (1.0 / p)), _forest_witness(host, W, Dp, p)
