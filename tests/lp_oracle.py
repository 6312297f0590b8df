"""Reference free 1-norm by a linear program over all ordered point pairs.

`freep.freenorm.exact_norm_p1` solves the p = 1 norm as a transportation
problem from the positive to the negative points. This module keeps the
route it replaced: a minimum-cost transshipment with nonnegative flows on
all n(n - 1) ordered pairs, each non-base point emitting its weight net and
the base a free source and sink, solved by HiGHS. It needs scipy, which
only the tests install; the tests compare values and witnesses against it.
"""

import numpy as np

from freep.freenorm import COEFF_TOL, FLOW_CAP, Decomposition, FreeElement, Molecule


def lp_norm_p1(m: FreeElement) -> tuple[float, Decomposition]:
    """Exact free 1-norm of m and an optimal witness, by HiGHS `linprog`."""
    import scipy.sparse as sp
    from scipy.optimize import linprog

    host = m.host
    n = host.n
    if n > FLOW_CAP:
        raise ValueError(f"host has {n} points, beyond the flow cap {FLOW_CAP}")
    if m.is_zero():
        return 0.0, Decomposition(host, ())

    I, J = np.nonzero(~np.eye(n, dtype=bool))  # all ordered pairs, row-major
    cost = host.dist[I, J]
    pair = np.arange(len(I))
    incidence = sp.csr_matrix(
        (np.repeat([1.0, -1.0], len(I)), (np.concatenate([I, J]), np.concatenate([pair, pair]))),
        shape=(n, len(I)),
    )
    keep = np.arange(n) != host.base
    A_eq, b_eq = incidence[keep], m.as_full_vector()[keep]

    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"min-cost flow LP failed: {res.message}")
    flows = res.x
    floor = COEFF_TOL * max(1.0, float(flows.max()))
    terms = tuple(
        (float(f * cost[c]), Molecule(host, int(I[c]), int(J[c])))
        for c, f in enumerate(flows)
        if f > floor
    )
    return float(res.fun), Decomposition(host, terms)
