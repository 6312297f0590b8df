"""Reference transportation solver by successive shortest paths.

`freep.freenorm._transport` solves the transportation problem of the p = 1
norm by one transportation simplex on every shape. This module keeps the
solver it replaced: a forced nearest-first fill when one side has a single
point, else successive shortest paths with node potentials. The tests
compare the simplex's values and flows against it.
"""

import math

import numpy as np


def ssp_transport(C, supply, demand, tol):
    """A least-cost flow F >= 0, F[i, j] sent from supply point i to demand
    point j at cost C[i, j] per unit, that ships the supply amounts to the
    demand amounts, as a dict of the positive entries F[i, j] at (i, j). In
    both routes an amount of at most tol left over is rounding and counts
    as zero.

    With one supply or one demand point the flow is forced: every point on
    the other side trades its whole amount with the single one, nearest
    first in one stable sort of the cost row or column, each time as much as
    both sides have left, so a rounding-level shortfall of the single point
    lands on its farthest partners, where successive shortest paths put it
    too.

    Otherwise successive shortest paths with node potentials (Edmonds and
    Karp, JACM 1972). The residual graph has an edge i -> j at cost C[i, j]
    and, where F[i, j] > 0, an edge j -> i at cost -C[i, j]. The potentials
    keep every reduced cost C[i, j] + pot_i - pot_j nonnegative, and zero on
    the edges that carry flow, so a dense Dijkstra finds each shortest path.
    It starts from every point with supply left at distance 0 in one step;
    settling a demand point settles, at the same distance, the supply points
    that ship to it, and each of those relaxes its whole row in one step.
    Points with supply left keep potential 0 and points with demand left
    share one, so the nearest demand point by reduced cost is the nearest by
    cost. Each augmentation empties a supply, a demand or a flow.
    """
    a, b = C.shape
    s, t = list(supply), list(demand)
    flow = {}  # the positive entries of F

    def left(x, delta):
        return x - delta if x - delta > tol else 0.0

    if a == 1 or b == 1:
        cost = C.ravel().tolist()
        for e in sorted(range(a * b), key=cost.__getitem__):
            i, j = divmod(e, b)
            flow[i, j] = delta = min(s[i], t[j])
            s[i], t[j] = left(s[i], delta), left(t[j], delta)
            if not (s[0] if a == 1 else t[0]):
                break
        return flow

    ships = [set() for _ in range(b)]  # the supply points with flow to each demand point
    potP, potN = np.zeros(a), np.zeros(b)
    sources, sinks = list(range(a)), b  # points with supply left, count with demand left
    while sources and sinks:
        R = C + potP[:, None]
        R -= potN
        np.maximum(R, 0.0, out=R)  # a rounding-level negative would unsettle a point
        distP, viaP = [math.inf] * a, [-1] * a  # via: the point before on the path
        for i in sources:
            distP[i] = 0.0
        src = np.array(sources)
        free = R[src]
        viaN = src[free.argmin(axis=0)]  # the first nearest source in `sources` order
        distN = free.min(axis=0)
        key = distN.copy()  # distN of the unsettled demand points
        while True:
            j = int(key.argmin())
            d, key[j] = float(key[j]), np.inf
            if t[j] > 0:
                break
            for i in ships[j]:
                if distP[i] == math.inf:
                    distP[i], viaP[i] = d, j
                    cand = R[i] + d
                    better = cand < distN  # never a settled point: its dist is at most d
                    np.copyto(distN, cand, where=better)
                    np.copyto(key, cand, where=better)
                    np.copyto(viaN, i, where=better)
        potP += np.minimum(distP, d)
        potN += np.minimum(distN, d)

        i = viaN.item(j)
        forward, backward = [(i, j)], []
        while viaP[i] >= 0:
            jb = viaP[i]
            backward.append((i, jb))
            i = viaN.item(jb)
            forward.append((i, jb))
        delta = min(s[i], t[j], *(flow[e] for e in backward))
        for e in forward:
            flow[e] = flow.get(e, 0.0) + delta
            ships[e[1]].add(e[0])
        for e in backward:
            flow[e] = left(flow[e], delta)
            if not flow[e]:
                del flow[e]
                ships[e[1]].remove(e[0])
        s[i], t[j] = left(s[i], delta), left(t[j], delta)
        if not s[i]:
            sources.remove(i)
        if not t[j]:
            sinks -= 1
    return flow
