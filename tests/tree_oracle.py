"""Reference tree program, one subset at a time, and the flow-matrix witness.

`freep.freenorm` runs the Dreyfus-Wagner program one popcount layer of
subsets per array step, and reads the witness from the choices its table
records: per layer, the first-minimum split of each (subset, point) and the
first-minimum hop point of each (subset, point), as an edge list. This
module keeps the per-subset loop it replaced, which stores the hop and the
split of every (subset, point) pair and backtracks through those tables into
an n x n flow matrix, and the submask loop that listed the splits of each
subset before `_subset_program` built them as one table per popcount layer.
Its arithmetic is the same (numpy scalar powers, the same sums in the same
order, first minima), so the tests pin the kernel equal to it bitwise:
values, witness coefficients and molecules. `matrix_witness` reads a
witness off an n x n flow matrix: the oracle for the edge lists that both
exact routes hand to `_forest_witness`.
"""

import numpy as np

from freep.freenorm import COEFF_TOL, Decomposition, Molecule, _cancel_cycles, _has_cycle


def oracle_splits(k):
    """Per subset S of k terminals its splits, the proper parts of S that
    hold its lowest terminal, in descending order, by a submask loop."""
    size = 1 << k
    splits = [np.zeros(0, dtype=np.intp)]
    for S in range(1, size):
        low, parts, T = S & -S, [], S & (S - 1)
        while T:
            T = (T - 1) & (S ^ low)
            parts.append(low | T)
        splits.append(np.array(parts, dtype=np.intp))
    return splits


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
    splits = oracle_splits(len(terminals))
    F = np.zeros((size, n))
    hop = np.zeros((size, n), dtype=np.intp)
    split = np.zeros((size, n), dtype=np.intp)
    for S in range(1, size):
        low = S & -S
        if S == low:
            g = np.where(cols == terminals[low.bit_length() - 1], 0.0, np.inf)
        else:
            parts = splits[S]
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
    return float(F[-1, host.base] ** (1.0 / p)), matrix_witness(host, W, Dp, p)


def matrix_witness(host, W, Dp, p):
    """The decomposition of the antisymmetric flow matrix W: one molecule
    x -> y per entry W[x, y] > 0, in row-major order, its coefficient
    d(x, y) W[x, y], after `_cancel_cycles` when those entries close a
    cycle."""
    x, y = np.nonzero(W > 0)
    if _has_cycle(len(W), list(zip(x.tolist(), y.tolist(), W[x, y].tolist()))):
        _cancel_cycles(W, Dp, p)
        x, y = np.nonzero(W > 0)
    coeffs = host.dist[x, y] * W[x, y]
    return Decomposition(host, tuple((a, Molecule(host, u, v))
                                     for a, u, v in zip(coeffs.tolist(), x.tolist(), y.tolist())))
