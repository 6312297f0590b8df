"""The free p-norm engine over finite pointed metric spaces.

Elements of the span of point evaluations are sparse weight vectors with the
base point normalized away. The p-norm (0 < p <= 1) is the infimum of
(sum |a_i|^p)^(1/p) over decompositions into elementary molecules
(delta(x) - delta(y)) / d(x, y). Three certified routes are provided:

* an exact value for p = 1, the transport cost: on a metric some optimal
  flow runs straight from the positive points to the negative ones (the
  base carrying minus the total), so it is a transportation problem,
  solved by successive shortest paths with node potentials and a dense
  Dijkstra in numpy,
* an exact value for any p on small supports by a dynamic program over
  trees (linearly independent molecule sets are forests, the concave cost
  is minimized on a tree of the whole host rooted at the base, and a
  Dreyfus-Wagner subset program finds the best one in O(3^k n + 2^k n^2)
  time for support size k on n points); the program takes one popcount
  layer of subsets per array step, k steps in all, for a whole stack of
  same-size hosts at once (`exact_norms`, values only, on raw distance
  matrices that its one caller, the dyadic basis batch, builds as metrics),
  and `exact_norm_small` is its one-host call with a witness; the norm with
  molecules restricted to a subset of the host is, by definition, the norm
  over the induced subspace, so it is this program run on that subspace as
  its own host,
* certified two-sided bounds: any explicit decomposition gives an upper
  bound, and any validated dual certificate of Lipschitz-1 functions with
  bounded pair multiplicity gives a lower bound via subadditivity of t^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import check_count, check_p
from .metric import PointedFiniteMetric

# the slack of every certified comparison: a residual, or a value against its bound
EVAL_TOL = 1e-9
COEFF_TOL = 1e-12
DEFAULT_CAP = 8
FLOW_CAP = 1000


class FreeElement:
    """A finitely supported weight vector over the points of a host space.

    Zero weights and any weight at the base index are dropped on
    construction (the base evaluation is the zero vector); a non-finite
    weight is rejected.
    """

    __slots__ = ("host", "weights")

    def __init__(self, host: PointedFiniteMetric, weights: dict[int, float]):
        self.host = host
        clean = {}
        for idx, w in weights.items():
            idx = check_count("point index", idx, 0)
            if idx >= host.n:
                raise ValueError(f"point index {idx} out of range")
            w = float(w)
            if not math.isfinite(w):
                raise ValueError(f"weight {w!r} at point index {idx} is not finite")
            if idx != host.base and w != 0.0:
                clean[idx] = clean.get(idx, 0.0) + w
        self.weights = {i: w for i, w in clean.items() if w != 0.0}

    def is_zero(self) -> bool:
        return not self.weights

    def as_full_vector(self) -> np.ndarray:
        out = np.zeros(self.host.n)
        for i, w in self.weights.items():
            out[i] = w
        return out

    def _require_same_host(self, other: "FreeElement") -> None:
        if other.host is not self.host:
            raise ValueError("elements live over different hosts")

    def __add__(self, other: "FreeElement") -> "FreeElement":
        self._require_same_host(other)
        acc = dict(self.weights)
        for i, w in other.weights.items():
            acc[i] = acc.get(i, 0.0) + w
        return FreeElement(self.host, acc)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-1.0) * other

    def __rmul__(self, a: float) -> "FreeElement":
        return FreeElement(self.host, {i: a * w for i, w in self.weights.items()})

    def max_weight_diff(self, other: "FreeElement") -> float:
        self._require_same_host(other)
        keys = set(self.weights) | set(other.weights)
        return max(
            (abs(self.weights.get(i, 0.0) - other.weights.get(i, 0.0)) for i in keys),
            default=0.0,
        )

    def __repr__(self) -> str:
        return f"FreeElement({self.weights})"


@dataclass(frozen=True)
class Molecule:
    """The unit vector (delta(x) - delta(y)) / d(x, y), x != y."""

    host: PointedFiniteMetric
    x: int
    y: int

    def __post_init__(self):
        if self.x == self.y:
            raise ValueError("a molecule needs two distinct points")
        for idx in (self.x, self.y):
            if check_count("point index", idx, 0) >= self.host.n:
                raise ValueError(f"point index {idx} out of range")

    @property
    def distance(self) -> float:
        return self.host.distance(self.x, self.y)

    def element(self) -> FreeElement:
        inv = 1.0 / self.distance
        return FreeElement(self.host, {self.x: inv, self.y: -inv})


@dataclass(frozen=True)
class Decomposition:
    """A formal combination sum a_i * molecule_i over one host."""

    host: PointedFiniteMetric
    terms: tuple[tuple[float, Molecule], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((float(a), mol) for a, mol in self.terms)
        )


def evaluate(decomp: Decomposition) -> FreeElement:
    """Sum the molecule terms into a free element (base coordinate dropped)."""
    acc: dict[int, float] = {}
    for a, mol in decomp.terms:
        if mol.host is not decomp.host:
            raise ValueError("decomposition mixes molecules over different hosts")
        f = a / mol.distance
        acc[mol.x] = acc.get(mol.x, 0.0) + f
        acc[mol.y] = acc.get(mol.y, 0.0) - f
    return FreeElement(decomp.host, acc)


def coefficient_cost(a, p: float, axis=None):
    """The p-cost (sum |a_i|^p)^(1/p) of the coefficients a along `axis`."""
    return (np.abs(a) ** p).sum(axis) ** (1.0 / p)


def p_cost(decomp: Decomposition, p: float) -> float:
    """The coefficient cost of a decomposition; zero for an empty list."""
    return float(coefficient_cost(np.array([a for a, _ in decomp.terms]), check_p(p)))


def upper_bound_from(m: FreeElement, p: float, decomp: Decomposition) -> float:
    """Certified upper bound: the cost of a decomposition verified to
    reproduce m within EVAL_TOL per coordinate."""
    if decomp.host is not m.host:
        raise ValueError("decomposition host differs from the element host")
    residual = evaluate(decomp).max_weight_diff(m)
    if residual > EVAL_TOL:
        raise ValueError(
            f"decomposition does not evaluate to the element "
            f"(max coordinate residual {residual:.3e})"
        )
    return p_cost(decomp, p)


# ---------------------------------------------------------------------------
# exact norm by a dynamic program over trees


@lru_cache(maxsize=None)
def _subset_program(k):
    """(bits, splits, layers) of the tree program on k terminals: the (2^k, k)
    membership table of the subsets; per subset S its splits, the proper
    parts T of S that hold its lowest terminal, in a fixed order; and per
    popcount 2..k the layer (subsets S, all their splits T concatenated,
    S - T for each, the index where each S's splits start)."""
    size = 1 << k
    bits = (np.arange(size)[:, None] >> np.arange(k)) & 1
    splits = [np.zeros(0, dtype=np.intp)]
    for S in range(1, size):
        low, parts, T = S & -S, [], S & (S - 1)
        while T:
            T = (T - 1) & (S ^ low)
            parts.append(low | T)
        splits.append(np.array(parts, dtype=np.intp))
    layers = []
    for c in range(2, k + 1):
        subsets = np.array([S for S in range(size) if S.bit_count() == c])
        lens = [len(splits[S]) for S in subsets]
        T = np.concatenate([splits[S] for S in subsets])
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        layers.append((subsets, T, np.repeat(subsets, lens) ^ T, starts))
    return bits, splits, layers


def _subset_flows(w, p):
    """(w(S), |w(S)|, |w(S)|^p) over the subsets S of the terminals with
    weights w; a subset sum at rounding level carries no weight, not a tiny
    molecule."""
    wsum = _subset_program(len(w))[0] @ w
    flow = np.where(np.abs(wsum) > COEFF_TOL * np.abs(w).sum(), np.abs(wsum), 0.0)
    # scalar powers: numpy's array ** differs from pow() in the last bit on some inputs
    return wsum, flow, np.array([f**p for f in flow.tolist()])


def _tree_table(Dp, terminals, fp):
    """The tree program on a stack of hosts with the same terminals:
    F[b, S, v], the least sum_e Dp[b](e) |W_e|^p over trees joining the
    terminals S to v in host b, W_e the weight on the side of edge e away
    from v, given Dp (B, n, n) and the flow powers fp (B, 2^k) of
    `_subset_flows`.

    One popcount layer of subsets per step. The branch cost g[S][u] is the
    least F[T][u] + F[S - T][u] over the splits T of S: one gather and one
    `np.minimum.reduceat` per layer. One hop F[S][v] = min_u g[S][u] +
    Dp(u, v) |w(S)|^p suffices because d^p is a metric for p <= 1: one
    (B, |layer|, n, n) minimum. A singleton {t} costs |w_t|^p Dp(t, v).
    """
    k = len(terminals)
    _, _, layers = _subset_program(k)
    F = np.zeros((Dp.shape[0], 1 << k, Dp.shape[1]))
    single = 1 << np.arange(k)
    F[:, single] = fp[:, single, None] * Dp[:, terminals]
    for subsets, T, rest, starts in layers:
        g = np.minimum.reduceat(F[:, T] + F[:, rest], starts, axis=1)
        F[:, subsets] = (g[..., None] + fp[:, subsets, None, None] * Dp[:, None]).min(axis=2)
    return F


def _check_cap(k):
    if k + 1 > DEFAULT_CAP:
        raise ValueError(
            f"element has {k} support points plus the base, beyond "
            f"the exact-norm cap {DEFAULT_CAP}; "
            "use upper_bound_from / dual_lower_bound for certified bounds"
        )


def exact_norms(dist: np.ndarray, weights: np.ndarray, p: float) -> list[float]:
    """Exact free p-norms, values only, of a batch of elements on hosts of
    the same size: element b weighs points 1..n-1 of the host with distance
    matrix dist[b] by weights[b], and point 0 is the base. One call of the
    tree program for the whole batch; `exact_norm_small` is the one-host
    case, with a witness, and the same cap applies.

    Nothing here checks dist: each dist[b] must be a metric, as the
    matrix of a `PointedFiniteMetric` is, or the values are not norms."""
    p = check_p(p)
    _check_cap(weights.shape[1])
    fp = np.array([_subset_flows(w, p)[2] for w in weights])
    F = _tree_table(dist**p, np.arange(1, dist.shape[1]), fp)
    return [f ** (1.0 / p) for f in F[:, -1, 0].tolist()]


def _forest_witness(host, W, Dp, p):
    """The decomposition of the antisymmetric flow W, made a forest by
    `_cancel_cycles`: one molecule x -> y per edge with W[x, y] > 0."""
    _cancel_cycles(W, Dp, p)
    # endpoints as Python ints: reports serialize no numpy integers
    terms = tuple(
        (host.distance(x, y) * W[x, y], Molecule(host, x, y))
        for x, y in zip(*(a.tolist() for a in np.nonzero(W > 0)))
    )
    return Decomposition(host, terms)


def _cancel_cycles(W, Dp, p):
    """Make the antisymmetric flow W a forest without raising sum Dp |W|^p.

    At p = 1 pushing weight around a cycle can cost nothing, so rounding may
    let the backtracking close one. While no flow on the cycle changes sign
    the cost is concave in the amount pushed, so one end of that range costs
    no more than the current flow, and there a pair carries nothing.
    """
    while True:
        core = W != 0
        while (leaf := core.sum(axis=1) == 1).any():
            core[leaf] = core[:, leaf] = False
        if not core.any():
            return
        # every point left has two neighbours: a walk that never turns back repeats one
        walk = [int(core.any(axis=1).argmax())]
        walk.append(int(core[walk[0]].argmax()))
        while walk[-1] not in walk[:-1]:
            nbrs = np.flatnonzero(core[walk[-1]])
            walk.append(int(nbrs[nbrs != walk[-2]][0]))
        i = walk.index(walk[-1])
        a, b = np.array(walk[i:-1]), np.array(walk[i + 1 :])
        g = W[a, b]
        ends = (-g[g > 0].min(initial=np.inf), -g[g < 0].max(initial=-np.inf))
        t = min((t for t in ends if np.isfinite(t)), key=lambda t: (Dp[a, b] * np.abs(g + t) ** p).sum())
        W[a, b], W[b, a] = g + t, -(g + t)


def exact_norm_small(m: FreeElement, p: float) -> tuple[float, Decomposition]:
    """Exact free p-norm of m over its host, with an optimal witness.

    The minimum over decompositions is attained on a tree rooted at the base
    (a minimum concave-cost flow, Zangwill 1968): the least sum_e (d(e)
    |W_e|)^p, W_e the weight of m on the side of edge e away from the base.
    This is the one-host call of the layered tree program `_tree_table`, in
    O(3^k n + 2^k n^2) time and k array steps for support size k. The
    witness comes from a backtracking from the full set at the base that
    recomputes the branch and hop minima only at the O(k) nodes it visits,
    taking first minima in the table's order; it has one molecule per tree
    edge carrying nonzero weight, with both endpoints anywhere in the host
    (every host point may serve as a Steiner point). Exact for every
    0 < p <= 1 but exponential in the support size, hence the cap
    DEFAULT_CAP on the support plus the base; the host itself may be larger.
    To restrict the molecules to a subset, build the induced subspace as the
    host. Beyond the cap, use the certified bound operations
    (`upper_bound_from`, `dual_lower_bound`) instead.
    """
    p = check_p(p)
    _check_cap(len(m.weights))
    host = m.host
    if m.is_zero():
        return 0.0, Decomposition(host, ())
    terminals = sorted(m.weights)
    wsum, flow, fp = _subset_flows(np.array([m.weights[t] for t in terminals]), p)
    Dp = host.dist**p
    F = _tree_table(Dp[None], terminals, fp[None])[0]
    splits = _subset_program(len(terminals))[1]

    W = np.zeros((host.n, host.n))  # weight carried from u to v, antisymmetric
    stack = [(len(F) - 1, host.base)]
    while stack:
        S, v = stack.pop()
        if S & (S - 1):
            T = splits[S]
            cand = F[T] + F[S ^ T]
            u = int((cand.min(axis=0) + fp[S] * Dp[:, v]).argmin())
            T = int(T[cand[:, u].argmin()])
            stack += [(T, u), (S ^ T, u)]
        else:
            u = terminals[S.bit_length() - 1]
        if u != v and flow[S] > 0.0:
            W[u, v] += wsum[S]
            W[v, u] -= wsum[S]
    return float(F[-1, host.base]) ** (1.0 / p), _forest_witness(host, W, Dp, p)


# ---------------------------------------------------------------------------
# p = 1: a transportation problem from the positive to the negative points


def _transport(C, supply, demand, tol):
    """A least-cost flow F >= 0, F[i, j] sent from supply point i to demand
    point j at cost C[i, j] per unit, that ships the supplies to the demands.

    Successive shortest paths with node potentials (Edmonds and Karp, JACM
    1972). The residual graph has an edge i -> j at cost C[i, j] and, where
    F[i, j] > 0, an edge j -> i at cost -C[i, j]. The potentials keep every
    reduced cost C[i, j] + pot_i - pot_j nonnegative, and zero on the edges
    that carry flow, so a dense Dijkstra finds each shortest path: settling
    a demand point settles, at the same distance, the supply points that
    ship to it, and each settled supply point relaxes its whole row in one
    vectorised step. Points with supply left keep potential 0 and points with
    demand left share one, so the nearest demand point by reduced cost is the
    nearest by cost. Each augmentation empties a supply, a demand or a flow;
    an amount of at most tol left over is rounding and counts as zero.
    """
    a, b = C.shape
    F = np.zeros((a, b))
    s, t = supply.tolist(), demand.tolist()
    ships = [set() for _ in range(b)]  # the supply points with flow to each demand point
    potP, potN = np.zeros(a), np.zeros(b)
    distP, viaP = np.empty(a), np.empty(a, dtype=np.intp)  # via: the point before on the path
    distN, viaN, key = np.empty(b), np.empty(b, dtype=np.intp), np.empty(b)
    sources, sinks = list(range(a)), b  # points with supply left, count with demand left

    def left(x, delta):
        return x - delta if x - delta > tol else 0.0

    while sources and sinks:
        R = C + potP[:, None]
        R -= potN
        np.maximum(R, 0.0, out=R)  # a rounding-level negative would unsettle a point
        distP.fill(np.inf)
        distN.fill(np.inf)
        key.fill(np.inf)  # distN of the unsettled demand points
        rows, j, d = sources, -1, 0.0
        while True:
            for i in rows:
                distP[i], viaP[i] = d, j
                cand = R[i] + d
                better = cand < distN  # never a settled point: its dist is at most d
                np.copyto(distN, cand, where=better)
                np.copyto(key, cand, where=better)
                np.copyto(viaN, i, where=better)
            j = int(key.argmin())
            d, key[j] = float(key[j]), np.inf
            if t[j] > 0:
                break
            rows = [i for i in ships[j] if distP[i] == np.inf]
        potP += np.minimum(distP, d)
        potN += np.minimum(distN, d)

        i = int(viaN[j])
        forward, backward = [(i, j)], []
        while viaP[i] >= 0:
            jb = int(viaP[i])
            backward.append((i, jb))
            i = int(viaN[jb])
            forward.append((i, jb))
        delta = min(s[i], t[j], *(F[e] for e in backward))
        for e in forward:
            F[e] += delta
            ships[e[1]].add(e[0])
        for e in backward:
            F[e] = left(F[e], delta)
            if not F[e]:
                ships[e[1]].remove(e[0])
        s[i], t[j] = left(s[i], delta), left(t[j], delta)
        if not s[i]:
            sources.remove(i)
        if not t[j]:
            sinks -= 1
    return F


def exact_norm_p1(m: FreeElement) -> tuple[float, Decomposition]:
    """Exact free 1-norm (the Kantorovich-Rubinstein transport cost) of m,
    with an optimal forest witness, on hosts of at most FLOW_CAP points.

    With the base carrying weight -sum(w), m is a balanced signed measure,
    and its norm is the least cost sum d(x, y) f(x, y) of a flow f >= 0 that
    each point x leaves with net amount w(x). Positive-to-negative edges
    suffice: a unit routed x -> z -> y costs at least d(x, y) by the
    triangle inequality, which the host guarantees, so shortcutting every
    such pair gives an optimal flow that leaves each positive point with
    exactly its weight and enters each negative one with exactly its
    magnitude. That is a transportation problem with cost matrix
    dist[P][:, N], solved by `_transport` by successive shortest paths whose
    node potentials keep every reduced cost nonnegative. A total at rounding
    level (at most COEFF_TOL sum |w|, the rule of `_subset_flows`) puts
    nothing on the base, and any other weight or left-over amount at that
    level counts as zero. The flow, made a forest by `_cancel_cycles`, is
    the witness: one molecule per edge, the flow times the edge length its
    coefficient. It shares no code with the tree program, so comparing it
    with `exact_norm_small(m, 1.0)` checks both.
    """
    host, n = m.host, m.host.n
    if n > FLOW_CAP:
        raise ValueError(f"host has {n} points, beyond the flow cap {FLOW_CAP}")
    if m.is_zero():
        return 0.0, Decomposition(host, ())
    w = m.as_full_vector()
    tol = COEFF_TOL * np.abs(w).sum()
    w[host.base] = -w.sum()
    P, N = np.flatnonzero(w > tol), np.flatnonzero(w < -tol)
    C = host.dist[P][:, N]
    F = _transport(C, w[P], -w[N], tol)
    W = np.zeros((n, n))  # weight carried from u to v, antisymmetric
    W[P[:, None], N], W[N[:, None], P] = F, -F.T
    return float((C * F).sum()), _forest_witness(host, W, host.dist, 1.0)


# ---------------------------------------------------------------------------
# dual certificates


class CertificateError(ValueError):
    pass


@dataclass
class DualCertificate:
    """A family of base-vanishing Lipschitz-1 functions, each annihilating
    every molecule outside its declared activity set, with every unordered
    point pair active for at most `kappa` of them."""

    host: PointedFiniteMetric
    functions: np.ndarray  # (n_functions, n_points)
    kappa: int
    activity: np.ndarray  # (n_functions, n_points, n_points) bool, symmetric

    def __post_init__(self):
        self.functions = np.atleast_2d(np.asarray(self.functions, dtype=float))
        self.activity = np.asarray(self.activity, dtype=bool)
        n = self.host.n
        if self.functions.shape[1] != n:
            raise CertificateError("function table width differs from the host size")
        if self.activity.shape != (self.functions.shape[0], n, n):
            raise CertificateError("activity table has the wrong shape")
        if self.kappa < 1:
            raise CertificateError("multiplicity kappa must be a positive integer")

    def validate(self) -> None:
        F, D = self.functions, self.host.dist
        n = self.host.n
        if np.abs(F[:, self.host.base]).max() > 1e-12:
            raise CertificateError("certificate function does not vanish at the base")
        diffs = np.abs(F[:, :, None] - F[:, None, :])
        off = ~np.eye(n, dtype=bool)
        slack = 1e-12 * (1.0 + D.max())
        if np.any(diffs[:, off] > D[off][None, :] + slack):
            raise CertificateError("certificate function exceeds Lipschitz constant 1")
        act = self.activity | self.activity.transpose(0, 2, 1)
        counts = act.sum(axis=0)
        if counts[off].size and counts[off].max(initial=0) > self.kappa:
            raise CertificateError(
                "a point pair is active for more functions than the multiplicity"
            )
        inactive = off[None, :, :] & ~act
        if np.any(diffs[inactive] > slack):
            raise CertificateError(
                "certificate function does not annihilate an inactive molecule"
            )


def dual_lower_bounds(elements, p: float, cert: DualCertificate) -> list[float]:
    """Certified lower bounds (sum_u |<phi_u, m>|^p / kappa)^(1/p), one per
    element, with the certificate validated once for all of them.

    Sound for any decomposition sum a_i mu_i of m: each pairing is at most
    sum of |a_i| over the molecules active for that function, subadditivity
    of t -> t^p turns that into a per-function bound, and the multiplicity
    cap lets the function sum be charged to kappa copies of the cost. A
    pairing of at most COEFF_TOL (|phi_u| . |m|) is rounding, not weight,
    and counts as zero: t^p would magnify it, and dropping a term only
    lowers the bound.
    """
    p = check_p(p)
    if any(m.host is not cert.host for m in elements):
        raise CertificateError("certificate host differs from the element host")
    cert.validate()
    out = []
    F = cert.functions
    for m in elements:
        v = m.as_full_vector()
        pairings = F @ v
        pairings[np.abs(pairings) <= COEFF_TOL * (np.abs(F) @ np.abs(v))] = 0.0
        out.append(float(((np.abs(pairings) ** p).sum() / cert.kappa) ** (1.0 / p)))
    return out


def dual_lower_bound(m: FreeElement, p: float, cert: DualCertificate) -> float:
    """Certified lower bound of one element; see `dual_lower_bounds`."""
    return dual_lower_bounds([m], p, cert)[0]


# ---------------------------------------------------------------------------
# line-oriented text formats


def parse_element(host: PointedFiniteMetric, text: str) -> FreeElement:
    weights: dict[int, float] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        try:
            w, idx = ln.split()
            w, idx = float(w), int(idx)
        except ValueError:
            raise ValueError(f"element line {ln!r} is not 'weight point-index'") from None
        weights[idx] = weights.get(idx, 0.0) + w
    return FreeElement(host, weights)
