"""The free p-norm engine over finite pointed metric spaces.

Elements of the span of point evaluations are sparse weight vectors with the
base point normalized away. The p-norm (0 < p <= 1) is the infimum of
(sum |a_i|^p)^(1/p) over decompositions into elementary molecules
(delta(x) - delta(y)) / d(x, y). Three certified routes are provided:

* an exact value for p = 1, the transport cost: on a metric some optimal
  flow runs straight from the positive points to the negative ones (the
  base carrying minus the total), so it is a transportation problem; with
  one supply or one demand point its flow is forced, shipped nearest first
  in one sort, and otherwise it is solved by successive shortest paths with
  node potentials and a dense Dijkstra in numpy that relaxes every source
  with supply left in one step,
* an exact value for any p on small supports by a dynamic program over
  trees (linearly independent molecule sets are forests, the concave cost
  is minimized on a tree of the whole host rooted at the base, and a
  Dreyfus-Wagner subset program finds the best one in O(3^k n + 2^k n^2)
  time for support size k on n points); the program takes one popcount
  layer of subsets per array step for a stack of B hosts of one shape, k
  terminals on n points: the branch terms through cached index arrays that
  depend only on (k, n, B), and each hop as one broadcast of the hosts'
  distance powers over the layer. `exact_norms` gives the values of such a
  stack on raw distance matrices, and `exact_norm_small` is its call
  B = 1, with a witness; the norm with molecules restricted to a subset of
  the host is, by definition, the norm over the induced subspace, so it is
  this program run on that subspace as its own host,
* certified two-sided bounds: any explicit decomposition gives an upper
  bound, and any dual certificate of Lipschitz-1 functions with bounded
  pair multiplicity gives a lower bound via subadditivity of t^p; a
  certificate is checked once, when it is made, and read-only after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constants import EVAL_TOL, check_count, check_p
from .metric import PointedFiniteMetric

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

    @classmethod
    def _edge(cls, host: PointedFiniteMetric, x: int, y: int) -> "Molecule":
        """The molecule at two distinct indices of host, without the checks
        of the constructor: for indices read off an n x n array of host."""
        mol = object.__new__(cls)
        object.__setattr__(mol, "host", host)
        object.__setattr__(mol, "x", x)
        object.__setattr__(mol, "y", y)
        return mol

    @property
    def distance(self) -> float:
        return self.host.distance(self.x, self.y)


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


def coefficient_cost(a, p: float):
    """The p-cost (sum |a_i|^p)^(1/p) of the coefficients a."""
    return (np.abs(a) ** p).sum() ** (1.0 / p)


def p_cost(decomp: Decomposition, p: float) -> float:
    """The coefficient cost of a decomposition; zero for an empty list."""
    return float(coefficient_cost(np.array([a for a, _ in decomp.terms]), check_p(p)))


def residual_tol(weights: dict) -> float:
    """The largest coordinate residual a reconstruction of the weights may
    leave: EVAL_TOL times their largest |weight|, so the check does not
    depend on the scale of the weights."""
    return EVAL_TOL * max(map(abs, weights.values()), default=0.0)


def upper_bound_from(m: FreeElement, p: float, decomp: Decomposition) -> float:
    """Certified upper bound: the cost of a decomposition verified to
    reproduce m within `residual_tol(m.weights)` per coordinate."""
    if decomp.host is not m.host:
        raise ValueError("decomposition host differs from the element host")
    residual = evaluate(decomp).max_weight_diff(m)
    if residual > residual_tol(m.weights):
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


def _weight_totals(W):
    """sum |w| along the last axis of W, the scale of the rounding floor
    COEFF_TOL sum |w|. A total beyond the double range raises: its floor
    would pass no weight at all, and the norm would read 0."""
    with np.errstate(over="ignore"):
        totals = np.abs(W).sum(axis=-1)
    if np.isinf(totals).any():
        raise ValueError("the weight total sum |w| overflows to inf; scale the element down")
    return totals


def _subset_flows(W, p):
    """(w(S), |w(S)|, |w(S)|^p), flat, over the subsets S of the terminals of
    every row w of the weight stack W (B, k): row by row, subset by subset;
    a subset sum at rounding level carries no weight, not a tiny molecule.

    The subset sums are one stacked product, bitwise those of one
    `bits @ w` per row (a `W @ bits.T` rounds differently)."""
    # the totals first: they refuse weights whose subset sums could overflow
    floor = np.repeat(COEFF_TOL * _weight_totals(W), 1 << W.shape[1])
    wsum = (_subset_program(W.shape[1])[0] @ W[:, :, None]).ravel()
    flow = np.abs(wsum)
    flow[flow <= floor] = 0.0
    # scalar powers: numpy's array ** differs from pow() in the last bit on some inputs
    return wsum, flow, np.array([f**p for f in flow.tolist()])


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _TreeProgram(NamedTuple):
    """The index arrays of the tree program on B hosts of n points with k
    terminals each (`_tree_program`), flat and read-only: O(3^k n B)
    entries, none per hop term, since `_tree_table` takes each hop as a
    broadcast. The table F holds F[S, v] host by host, subset S by subset,
    point v by point, and the flow powers fp host by host, subset by subset.

    single: (F, fp) positions of the singletons {t}, point by point, in the
        order of the terminal rows that they multiply;
    layers: per popcount 2, 3, ...: the branch positions (T, S - T) of F,
        ordered (host, S, u, split T), and the `reduceat` start of each
        (host, S, u); the fp position of each (host, S); and the F position
        of each (host, S, v) with the `reduceat` start of its run of n hop
        terms in the order (host, S, v, u)."""

    single: tuple[np.ndarray, np.ndarray]
    layers: tuple[tuple[np.ndarray, ...], ...]


@lru_cache(maxsize=32)
def _tree_program(k, n, B):
    """The `_TreeProgram` of B hosts of n points with k terminals each,
    built with a few array steps per layer, free of the distances, the
    weights and p, and kept for the last few shapes."""
    size = 1 << k
    b = np.arange(B)[:, None]
    Fb, fpb = b * size * n, b * size  # where each host starts in F and fp
    t, v = (1 << np.arange(k))[:, None], np.arange(n)  # the singletons {t}
    layers = []
    for subsets, T, rest, starts in _subset_program(k)[2]:
        # one host's branch terms in the order (S, u, split): split j of
        # the subset at index s sits at n starts[s] + u lens[s] + j - starts[s]
        lens = np.diff(np.append(starts, len(T)))
        s = np.repeat(np.arange(len(subsets)), lens)
        at = (n * starts[s] + np.arange(len(T)) - starts[s])[:, None] + v * lens[s][:, None]
        Tpos, Rpos = np.empty((2, len(T) * n), dtype=np.intp)
        Tpos[at], Rpos[at] = T[:, None] * n + v, rest[:, None] * n + v
        count = np.tile(np.repeat(lens, n), B)
        out = np.ravel(Fb[..., None] + subsets[:, None] * n + v)
        layers.append(
            _read_only(
                np.ravel(Fb + Tpos),
                np.ravel(Fb + Rpos),
                np.cumsum(count) - count,
                np.ravel(fpb + subsets),
                out,
                np.arange(0, out.size * n, n),
            )
        )
    return _TreeProgram(
        _read_only(np.ravel(Fb[..., None] + t * n + v), np.ravel(np.broadcast_to(fpb[..., None] + t, (B, k, n)))),
        tuple(layers),
    )


def _tree_table(prog, Dp, Dt, fp):
    """The tree program on the hosts of `prog`: the flat table of
    F[S, v], the least sum_e Dp(e) |W_e|^p over trees joining the terminals
    S to v in its host, W_e the weight on the side of edge e away from v,
    given the distance powers Dp (B, n, n), each symmetric, the terminal
    rows Dt (B, k, n) of Dp and the flow powers fp of `_subset_flows`.

    A singleton {t} costs |w_t|^p Dp(t, v). Then one popcount layer of
    subsets per step, for all hosts at once. The branch cost g[S][u] is the
    least F[T][u] + F[S - T][u] over the splits T of S: two gathers, an add
    and one `np.minimum.reduceat`. One hop F[S][v] = min_u g[S][u] + Dp(u,
    v) |w(S)|^p suffices because d^p is a metric for p <= 1: one broadcast
    of |w(S)|^p Dp(v, u) + g[S][u] over (B, S, v, u), its minima over the
    runs of n by `np.minimum.reduceat`, and one scatter into F.
    """
    B, n = len(Dp), Dp.shape[-1]
    F = np.zeros(fp.size * n)
    F[prog.single[0]] = fp[prog.single[1]] * Dt.ravel()
    hosts = Dp[:, None]
    for T, rest, bstarts, fpos, out, hstarts in prog.layers:
        g = np.minimum.reduceat(F[T] + F[rest], bstarts)
        hop = fp[fpos].reshape(B, -1, 1, 1) * hosts
        hop += g.reshape(B, -1, 1, n)
        F[out] = np.minimum.reduceat(hop.ravel(), hstarts)
    return F


def _check_cap(k):
    if k + 1 > DEFAULT_CAP:
        raise ValueError(
            f"element has {k} support points plus the base, beyond "
            f"the exact-norm cap {DEFAULT_CAP}; "
            "use upper_bound_from / dual_lower_bound for certified bounds"
        )


def _roots(costs: list[float], p: float) -> list[float]:
    """cost^(1/p) of each least tree cost; a norm beyond the double range raises."""
    if math.inf in costs:
        raise ValueError("the free p-norm is beyond the double range; scale the element or the points down")
    try:
        return [f ** (1.0 / p) for f in costs]
    except OverflowError:
        raise ValueError(f"p = {p} puts the norm beyond the double range; raise --p") from None


def exact_norms(D, W, p: float) -> list[float]:
    """Exact free p-norms, values only, of a stack of elements on hosts of
    one shape: element b weighs points 1..n-1 of the host with distance
    matrix D[b] (B, n, n) by W[b] (B, n - 1), point 0 being the base. One
    `_subset_flows` call and one tree program for the whole stack;
    `exact_norm_small` is the call B = 1, with a witness, and the same cap
    applies, as do the refusals of a weight total and of a norm beyond the
    double range.

    Nothing here checks D: each D[b] must be a metric, as the matrix of a
    `PointedFiniteMetric` is, or the values are not norms. It must be
    exactly symmetric too, as a metric is: the hop reads D[b, v, u] as the
    distance from u to v."""
    p = check_p(p)
    _check_cap(W.shape[1])
    (B, k), n = W.shape, D.shape[1]
    fp = _subset_flows(W, p)[2]
    Dp = D**p
    # a term beyond the double range is inf, which a finite least cost never
    # takes; an infinite least cost is a norm beyond that range, and `_roots`
    # refuses it
    with np.errstate(over="ignore"):
        F = _tree_table(_tree_program(k, n, B), Dp, Dp[:, 1 : k + 1], fp)
    return _roots(F.reshape(B, -1, n)[:, -1, 0].tolist(), p)


def _has_cycle(n, xs, ys):
    """Whether the edges xs[e] -- ys[e] on n points close a cycle, by a
    union-find."""
    root = list(range(n))
    for x, y in zip(xs, ys):
        while root[x] != x:
            root[x] = x = root[root[x]]  # path halving
        while root[y] != y:
            root[y] = y = root[root[y]]
        if x == y:
            return True
        root[x] = y
    return False


def _forest_witness(host, W, Dp, p):
    """The decomposition of the antisymmetric flow W, made a forest by
    `_cancel_cycles` when it has a cycle: one molecule x -> y per edge with
    W[x, y] > 0, its coefficient d(x, y) W[x, y]."""
    x, y = np.nonzero(W > 0)
    if _has_cycle(len(W), x.tolist(), y.tolist()):
        _cancel_cycles(W, Dp, p)
        x, y = np.nonzero(W > 0)
    coeffs = host.dist[x, y] * W[x, y]
    # endpoints as Python ints: reports serialize no numpy integers
    terms = tuple(
        (a, Molecule._edge(host, u, v)) for a, u, v in zip(coeffs.tolist(), x.tolist(), y.tolist())
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
    This is the one-host call of the tree program `_tree_table`, in
    O(3^k n + 2^k n^2) time and k array steps for support size k on a host
    of n points; its table, reshaped to (2^k, n), is what the witness reads.
    The witness comes from a backtracking from the full set at the base
    that recomputes the branch and hop minima only at the O(k) nodes it
    visits, taking first minima in the table's order; it has one molecule
    per tree edge carrying nonzero weight, with both endpoints anywhere in
    the host (every host point may serve as a Steiner point). Exact for
    every 0 < p <= 1 but exponential in the support size, hence the cap
    DEFAULT_CAP on the support plus the base; the host itself may be larger.
    To restrict the molecules to a subset, build the induced subspace as the
    host. Beyond the cap, use the certified bound operations
    (`upper_bound_from`, `dual_lower_bound`) instead. A norm beyond the
    double range raises a ValueError.
    """
    p = check_p(p)
    _check_cap(len(m.weights))
    host = m.host
    if m.is_zero():
        return 0.0, Decomposition(host, ())
    terminals = sorted(m.weights)
    k = len(terminals)
    wsum, flow, fp = _subset_flows(np.array([[m.weights[t] for t in terminals]]), p)
    Dp = host.dist**p
    # a term of the table or of the backtracking beyond the double range is
    # inf, which a finite least cost never takes; an infinite least cost is a
    # norm beyond that range, refused before the backtracking
    with np.errstate(over="ignore"):
        F = _tree_table(_tree_program(k, host.n, 1), Dp[None], Dp[None, terminals], fp).reshape(1 << k, host.n)
        value = _roots([float(F[-1, host.base])], p)[0]
        splits = _subset_program(k)[1]

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
    return value, _forest_witness(host, W, Dp, p)


# ---------------------------------------------------------------------------
# p = 1: a transportation problem from the positive to the negative points


def _transport(C, supply, demand, tol):
    """A least-cost flow F >= 0, F[i, j] sent from supply point i to demand
    point j at cost C[i, j] per unit, that ships the supplies to the demands.

    With one supply or one demand point the flow is forced: every point on
    the other side trades its whole amount with the single one. It ships
    nearest first, in one stable sort of the cost row or column, each time
    as much as both sides have left, until the single point is empty, so a
    rounding-level shortfall of the single point lands on its farthest
    partners, where successive shortest paths put it too.

    Otherwise successive shortest paths with node potentials (Edmonds and
    Karp, JACM 1972). The residual graph has an edge i -> j at cost C[i, j]
    and, where F[i, j] > 0, an edge j -> i at cost -C[i, j]. The potentials
    keep every reduced cost C[i, j] + pot_i - pot_j nonnegative, and zero on
    the edges that carry flow, so a dense Dijkstra finds each shortest path.
    It starts from every point with supply left at distance 0, relaxed in
    one step, a gather of their rows and a first minimum per column; then
    settling a demand point settles, at the same distance, the supply points
    that ship to it, and each of those relaxes its whole row in one
    vectorised step. Points with supply left keep potential 0 and points
    with demand left share one, so the nearest demand point by reduced cost
    is the nearest by cost. Each augmentation empties a supply, a demand or
    a flow. In both routes an amount of at most tol left over is rounding
    and counts as zero.
    """
    a, b = C.shape
    F = np.zeros((a, b))
    s, t = supply.tolist(), demand.tolist()

    def left(x, delta):
        return x - delta if x - delta > tol else 0.0

    if a == 1 or b == 1:
        for e in np.argsort(C, axis=None, kind="stable").tolist():
            i, j = divmod(e, b)
            F[i, j] = delta = min(s[i], t[j])
            s[i], t[j] = left(s[i], delta), left(t[j], delta)
            if not (s[0] if a == 1 else t[0]):
                break
        return F

    ships = [set() for _ in range(b)]  # the supply points with flow to each demand point
    potP, potN = np.zeros(a), np.zeros(b)
    distP, viaP = np.empty(a), np.empty(a, dtype=np.intp)  # via: the point before on the path
    sources, sinks = list(range(a)), b  # points with supply left, count with demand left
    while sources and sinks:
        R = C + potP[:, None]
        R -= potN
        np.maximum(R, 0.0, out=R)  # a rounding-level negative would unsettle a point
        distP.fill(np.inf)
        src = np.array(sources)
        distP[src], viaP[src] = 0.0, -1
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
                if distP[i] == np.inf:
                    distP[i], viaP[i] = d, j
                    cand = R[i] + d
                    better = cand < distN  # never a settled point: its dist is at most d
                    np.copyto(distN, cand, where=better)
                    np.copyto(key, cand, where=better)
                    np.copyto(viaN, i, where=better)
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
    dist[P][:, N], solved by `_transport`: when P or N is a single point,
    as when all weights share a sign, the flow is forced and ships nearest
    first in one sort; otherwise by successive shortest paths whose node
    potentials keep every reduced cost nonnegative and whose Dijkstra
    relaxes all sources with supply left in one step. A total at rounding
    level (at most COEFF_TOL sum |w|, the rule of `_subset_flows`) puts
    nothing on the base, and any other weight or left-over amount at that
    level counts as zero; a sum |w| or a cost beyond the double range
    raises. The flow, made a forest by `_cancel_cycles` if it has a cycle,
    is the witness: one molecule per edge, the flow times the edge length
    its coefficient. It shares no code with the tree program, so comparing it
    with `exact_norm_small(m, 1.0)` checks both.
    """
    host, n = m.host, m.host.n
    if n > FLOW_CAP:
        raise ValueError(f"host has {n} points, beyond the flow cap {FLOW_CAP}")
    if m.is_zero():
        return 0.0, Decomposition(host, ())
    w = m.as_full_vector()
    tol = COEFF_TOL * _weight_totals(w)
    w[host.base] = -w.sum()
    P, N = np.flatnonzero(w > tol), np.flatnonzero(w < -tol)
    C = host.dist[P][:, N]
    F = _transport(C, w[P], -w[N], tol)
    with np.errstate(over="ignore"):
        cost = float((C * F).sum())
    if math.isinf(cost):
        raise ValueError("the free 1-norm overflows to inf; scale the element or the points down")
    W = np.zeros((n, n))  # weight carried from u to v, antisymmetric
    W[P[:, None], N], W[N[:, None], P] = F, -F.T
    return cost, _forest_witness(host, W, host.dist, 1.0)


# ---------------------------------------------------------------------------
# dual certificates


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class DualCertificate:
    """A family of base-vanishing Lipschitz-1 functions, each annihilating
    every molecule outside its declared activity set, with every unordered
    point pair active for at most `kappa` of them.

    Checked once, when it is made: construction raises `CertificateError`
    for a bad shape, multiplicity or value, or a family that `validate`
    refuses. It keeps read-only copies of `functions` and `activity`, so
    later writes to the caller's arrays do not reach it."""

    host: PointedFiniteMetric
    functions: np.ndarray  # (n_functions, n_points)
    kappa: int
    activity: np.ndarray  # (n_functions, n_points, n_points) bool, symmetric

    def __post_init__(self):
        functions = np.atleast_2d(np.array(self.functions, dtype=float))
        activity = np.array(self.activity, dtype=bool)
        _read_only(functions, activity)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "activity", activity)
        n = self.host.n
        if functions.shape[1] != n:
            raise CertificateError("function table width differs from the host size")
        if activity.shape != (functions.shape[0], n, n):
            raise CertificateError("activity table has the wrong shape")
        try:
            object.__setattr__(self, "kappa", check_count("multiplicity kappa", self.kappa, 1))
        except ValueError as err:
            raise CertificateError(str(err)) from None
        if not np.isfinite(functions).all():
            raise CertificateError("certificate function has a non-finite value")
        self.validate()

    def validate(self) -> None:
        """Raise `CertificateError` unless every function vanishes at the
        base, is Lipschitz-1 and annihilates every inactive molecule, and no
        point pair is active for more than kappa functions; on the diagonal
        a difference is 0, within any slack, and a point paired with itself
        counts against no multiplicity. An empty family passes."""
        F, D = self.functions, self.host.dist
        if np.abs(F[:, self.host.base]).max(initial=0.0) > 1e-12:
            raise CertificateError("certificate function does not vanish at the base")
        diffs = np.abs(F[:, :, None] - F[:, None, :])
        slack = 1e-12 * (1.0 + D.max())
        if np.any(diffs > D + slack):
            raise CertificateError("certificate function exceeds Lipschitz constant 1")
        act = self.activity | self.activity.transpose(0, 2, 1)
        counts = act.sum(axis=0)
        np.fill_diagonal(counts, 0)
        if counts.max(initial=0) > self.kappa:
            raise CertificateError(
                "a point pair is active for more functions than the multiplicity"
            )
        if np.any((diffs > slack) & ~act):
            raise CertificateError(
                "certificate function does not annihilate an inactive molecule"
            )


def dual_lower_bound(m: FreeElement, p: float, cert: DualCertificate) -> float:
    """Certified lower bound (sum_u |<phi_u, m>|^p / kappa)^(1/p) of the
    p-norm of m; raises `CertificateError` if m lives on another host.

    Sound for any decomposition sum a_i mu_i of m: each pairing is at most
    sum of |a_i| over the molecules active for that function, subadditivity
    of t -> t^p turns that into a per-function bound, and the multiplicity
    cap lets the function sum be charged to kappa copies of the cost. A
    pairing of at most COEFF_TOL (|phi_u| . |m|) is rounding, not weight,
    and counts as zero: t^p would magnify it, and dropping a term only
    lowers the bound.
    """
    p = check_p(p)
    if m.host is not cert.host:
        raise CertificateError("certificate host differs from the element host")
    F, v = cert.functions, m.as_full_vector()
    pairings = F @ v
    pairings[np.abs(pairings) <= COEFF_TOL * (np.abs(F) @ np.abs(v))] = 0.0
    return float(((np.abs(pairings) ** p).sum() / cert.kappa) ** (1.0 / p))


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
