"""Reference free p-norm by enumerating independent molecule supports.

The objective is concave per sign-orthant and coercive, so some minimizer
has linearly independent support of size at most n - 1, and every such
support extends to an independent subset of that exact size: solving every
independent subset of the rank's size by SVD and keeping the cheapest
gives the exact norm. Exponential in the number of molecules, so only for
subsets of at most ORACLE_CAP points; the tests compare the tree dynamic
program of `freep.freenorm` against it.
"""

from itertools import combinations

import numpy as np

from freep.freenorm import COEFF_TOL, EVAL_TOL, Decomposition, Molecule

RANK_TOL = 1e-10
ORACLE_CAP = 6


def _molecule_matrix(host, mols, rows):
    row_of = {q: r for r, q in enumerate(rows)}
    A = np.zeros((len(rows), len(mols)))
    for c, (i, j) in enumerate(mols):
        inv = 1.0 / host.distance(i, j)
        if i in row_of:
            A[row_of[i], c] += inv
        if j in row_of:
            A[row_of[j], c] -= inv
    return A


def enumeration_norm(m, p, subset=None):
    """(norm, witness) over molecules with both endpoints in `subset`
    (default: the whole host)."""
    host = m.host
    subset = sorted(set(range(host.n) if subset is None else subset))
    if len(subset) > ORACLE_CAP:
        raise ValueError(f"the oracle takes at most {ORACLE_CAP} points")
    if any(i not in subset for i in m.weights):
        raise ValueError("element supported outside the subset")
    if m.is_zero():
        return 0.0, Decomposition(host, ())

    mols = list(combinations(subset, 2))
    rows = [q for q in subset if q != host.base]
    if not mols:
        raise ValueError("element is not decomposable over molecules of the subset")
    A = _molecule_matrix(host, mols, rows)
    t = np.array([m.weights.get(q, 0.0) for q in rows])

    svals = np.linalg.svd(A, compute_uv=False)
    r = int((svals > RANK_TOL * svals[0]).sum())
    coeffs_ls, _, _, _ = np.linalg.lstsq(A, t, rcond=None)
    if np.abs(A @ coeffs_ls - t).max() > EVAL_TOL * (1.0 + np.abs(t).max()):
        raise ValueError("element is not decomposable over molecules of the subset")

    idx = np.array(list(combinations(range(len(mols)), r)), dtype=np.intp)
    B = np.ascontiguousarray(A.T[idx].transpose(0, 2, 1))  # (subsets, rows, r)
    u, s, vt = np.linalg.svd(B, full_matrices=False)
    keep = s[:, -1] > RANK_TOL * s[:, 0]
    idx, u, s, vt, B = idx[keep], u[keep], s[keep], vt[keep], B[keep]
    a = np.einsum("crk,cr->ck", vt, np.einsum("cnr,n->cr", u, t) / s)
    resid = np.abs(np.einsum("cnk,ck->cn", B, a) - t).max(axis=1)
    ok = resid <= EVAL_TOL * (1.0 + float(np.abs(t).max()))
    idx, a = idx[ok], a[ok]
    mag = np.abs(a)
    mag[mag <= COEFF_TOL * mag.max(axis=1, keepdims=True)] = 0.0
    costs = (mag**p).sum(axis=1) ** (1.0 / p)
    k = int(np.argmin(costs))
    terms = tuple(
        (float(a[k, j]), Molecule(host, *mols[int(c)]))
        for j, c in enumerate(idx[k])
        if mag[k, j] > 0.0
    )
    return float(costs[k]), Decomposition(host, terms)
