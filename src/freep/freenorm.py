"""The free p-norm engine over finite pointed metric spaces.

Elements of the span of point evaluations are sparse weight vectors with the
base point normalized away. The p-norm (0 < p <= 1) is the infimum of
(sum |a_i|^p)^(1/p) over decompositions into elementary molecules
(delta(x) - delta(y)) / d(x, y). The routes:

* `exact_norm_small(m, p)`: the exact norm and an optimal forest witness,
  for any p, by a Dreyfus-Wagner program over trees of the whole host in
  O(3^k n + 2^k n^2) time for k support points on n host points; it
  refuses a support plus the base of more than DEFAULT_CAP points.
  `exact_norms(D, W, p)`: the values alone of a stack of elements on hosts
  of one shape, from one table of the same program, with the same cap.
* `exact_norm_p1(m)`: the exact 1-norm, a transport cost, and an optimal
  forest witness, for a support of any size on a host of at most FLOW_CAP
  points.
* `upper_bound_from(m, p, decomp)` and `dual_lower_bound(m, p, cert)`:
  certified bounds for an element of any size, from a decomposition that
  reproduces m within `residual_tol` and from a `DualCertificate`, which
  is checked once, when it is made.

The exact routes refuse a weight total sum |w| or a norm beyond the double
range with a ValueError. The norm with molecules restricted to a subset of
the host is the norm over the induced subspace as its own host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Decomposition:
    """A formal combination sum a_i * molecule_i over one host."""

    host: PointedFiniteMetric
    terms: tuple[tuple[float, Molecule], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((float(a), mol) for a, mol in self.terms)
        )


def _unchecked(cls, fields: dict):
    """An instance of the frozen dataclass cls with the fields of this dict,
    which it keeps, without the checks and conversions of its constructor:
    for fields the engine made itself, such as molecule endpoints read off
    its own host."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def _term_sums(decomp: Decomposition) -> dict[int, float]:
    """The weight per point of the molecule terms summed, the base
    included; molecules over another host than decomp's raise."""
    acc: dict[int, float] = {}
    for a, mol in decomp.terms:
        if mol.host is not decomp.host:
            raise ValueError("decomposition mixes molecules over different hosts")
        f = a / decomp.host.dist.item(mol.x, mol.y)
        acc[mol.x] = acc.get(mol.x, 0.0) + f
        acc[mol.y] = acc.get(mol.y, 0.0) - f
    return acc


def evaluate(decomp: Decomposition) -> FreeElement:
    """Sum the molecule terms into a free element (base coordinate dropped)."""
    return FreeElement(decomp.host, _term_sums(decomp))


def coefficient_cost(a, p: float):
    """The p-cost (sum |a_i|^p)^(1/p) of the coefficients a."""
    return np.add.reduce(np.abs(a) ** p, axis=None) ** (1.0 / p)


def p_cost(decomp: Decomposition, p: float) -> float:
    """The coefficient cost of a decomposition; zero for an empty list."""
    return float(coefficient_cost(np.array([a for a, _ in decomp.terms]), check_p(p)))


def residual_tol(weights: dict) -> float:
    """The largest coordinate residual a reconstruction of the weights may
    leave: EVAL_TOL times their largest |weight|, so the check does not
    depend on the scale of the weights."""
    return EVAL_TOL * max(map(abs, weights.values()), default=0.0)


def decomposition_residual(m: FreeElement, decomp: Decomposition) -> float:
    """The largest coordinate residual of decomp against m, the sum of its
    terms compared with the weights of m, the base coordinate dropped. A
    residual that is not finite raises a ValueError, and so does a
    decomposition over another host."""
    if decomp.host is not m.host:
        raise ValueError("decomposition host differs from the element host")
    acc = _term_sums(decomp)
    acc.pop(m.host.base, None)
    diffs = [abs(acc.pop(i, 0.0) - w) for i, w in m.weights.items()]
    diffs += map(abs, acc.values())
    # the sum is NaN exactly when a difference is: none is negative
    residual = math.nan if math.isnan(sum(diffs)) else max(diffs, default=0.0)
    if not math.isfinite(residual):
        raise ValueError(f"decomposition has a residual of {residual} against the element")
    return residual


def upper_bound_from(m: FreeElement, p: float, decomp: Decomposition) -> float:
    """Certified upper bound: the cost of a decomposition verified to
    reproduce m within `residual_tol(m.weights)` per coordinate."""
    residual = decomposition_residual(m, decomp)
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
    """(bits, rank, layers) of the tree program on k terminals: the (2^k, k)
    membership table of the subsets, in doubles; the row rank[S] of each
    subset S of two or more terminals in its layer; and per popcount
    c = 2..k the layer (S, T, S - T). Its subsets S ascend, and row r of T,
    of 2^(c-1) - 1 entries, lists the splits of S[r], the proper parts that
    hold its lowest terminal, in descending order: the lowest terminal plus
    the bits of a descending code of c - 1 bits, short of all ones, dealt
    out to the places of the other terminals of S[r]."""
    size = 1 << k
    bits = (np.arange(size)[:, None] >> np.arange(k)) & 1
    count, rank, layers = bits.sum(axis=1), np.zeros(size, dtype=np.intp), []
    for c in range(2, k + 1):
        S = np.flatnonzero(count == c)
        rank[S] = np.arange(len(S))
        places = np.nonzero(bits[S])[1].reshape(-1, c)  # row by row, ascending
        codes = (np.arange((1 << (c - 1)) - 2, -1, -1)[:, None] >> np.arange(c - 1)) & 1
        T = (1 << places[:, :1]) + (1 << places[:, 1:]) @ codes.T
        layers.append((S, T, S[:, None] ^ T))
    return bits.astype(float), rank, layers


def _weight_floors(totals):
    """The rounding floors COEFF_TOL sum |w| of a list of weight totals
    sum |w|, each a numpy sum along a row of |w|. A total beyond the double
    range raises: its floor would pass no weight at all, and the norm would
    read 0."""
    if math.inf in totals:
        raise ValueError("the weight total sum |w| overflows to inf; scale the element down")
    return [COEFF_TOL * total for total in totals]


def _subset_flows(W, p):
    """(w(S), |w(S)|^p) over the subsets S of the terminals of every row w
    of the weight stack W (B, k), under the caller's
    np.errstate(over="ignore"): w(S) as one list per row, subset by
    subset, and the powers as one flat array; a subset sum at rounding level
    (at most the row's `_weight_floors`) carries no weight, not a tiny
    molecule, so its power is 0, and every other power is positive. The
    subset sums are one stacked product, bitwise those of one `bits @ w`
    per row (a `W @ bits.T` rounds differently)."""
    # the floors first: they refuse weights whose subset sums could overflow
    floors = _weight_floors(np.add.reduce(np.abs(W), axis=-1).tolist())
    wsum = (_subset_program(W.shape[1])[0] @ W[..., None])[..., 0].tolist()
    # scalar powers: numpy's array ** differs from pow() in the last bit on some inputs
    powers = [f**p if (f := abs(x)) > floor else 0.0 for row, floor in zip(wsum, floors) for x in row]
    return wsum, np.array(powers)


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
        ordered (host, S, u, split T), and the start of the run of each
        (host, S, u); the fp position of each (host, S); and the F position
        of each (host, S, v) with the start of its run of n hop terms in
        the order (host, S, v, u)."""

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
    for S, T, rest in _subset_program(k)[2]:
        # one host's branch terms in the order (S, u, split)
        Tpos, Rpos = (np.ravel(X[:, None] * n + v[:, None]) for X in (T, rest))
        out = np.ravel(Fb[..., None] + S[:, None] * n + v)
        layers.append(
            _read_only(
                np.ravel(Fb + Tpos),
                np.ravel(Fb + Rpos),
                np.arange(0, B * Tpos.size, T.shape[1]),
                np.ravel(fpb + S),
                out,
                np.arange(0, out.size * n, n),
            )
        )
    return _TreeProgram(
        _read_only(np.ravel(Fb[..., None] + t * n + v), np.ravel(np.broadcast_to(fpb[..., None] + t, (B, k, n)))),
        tuple(layers),
    )


def _tree_table(prog, Dp, Dt, fp, choices=None):
    """The tree program on the hosts of `prog`: the flat table of
    F[S, v], the least sum_e Dp(e) |W_e|^p over trees joining the terminals
    S to v in its host, W_e the weight on the side of edge e away from v,
    given the distance powers Dp (B, n, n), each symmetric, the terminal
    rows Dt (B, k, n) of Dp and the flow powers fp of `_subset_flows`.
    Given a list `choices`, it appends per layer the first minima that a
    witness is read from, flat: the place in its row of the split of each
    (host, S, u), then the hop point u of each (host, S, v).

    A singleton {t} costs |w_t|^p Dp(t, v). Then one popcount layer of
    subsets per step, for all hosts at once. The branch cost g[S][u] is the
    least F[T][u] + F[S - T][u] over the splits T of S: two gathers, an add
    and the run minima of `_least`. One hop F[S][v] = min_u g[S][u] + Dp(u,
    v) |w(S)|^p suffices because d^p is a metric for p <= 1: one broadcast
    of |w(S)|^p Dp(v, u) + g[S][u] over (B, S, v, u), its minima over the
    runs of n by `_least`, and one scatter into F.
    """
    B, n = len(Dp), Dp.shape[-1]
    F = np.zeros(fp.size * n)
    F[prog.single[0]] = fp[prog.single[1]] * Dt.ravel()
    hosts = Dp[:, None]
    for T, rest, bstarts, fpos, out, hstarts in prog.layers:
        g = _least(F[T] + F[rest], bstarts, choices)
        hop = fp[fpos].reshape(B, -1, 1, 1) * hosts
        hop += g.reshape(B, -1, 1, n)
        F[out] = _least(hop.ravel(), hstarts, choices)
    return F


def _least(X, starts, choices):
    """The minima of the runs of the flat X that begin at `starts`, all of
    one length, read at the first minimum of each run; given a list
    `choices`, the place of that minimum in its run is appended to it."""
    at = X.reshape(starts.size, -1).argmin(axis=1)
    if choices is not None:
        choices.append(at)
    return X[starts + at]


@np.errstate(over="ignore")
def _tree_costs(D, W, terminals, p, choices=None):
    """The tree table of the elements W (B, k) on the hosts D (B, n, n), row
    b of W weighing the points `terminals` of D[b], as F (B, 2^k, n), with
    the subset sums and flow powers of `_subset_flows` and the distance
    powers D^p, and the `choices` of `_tree_table`; a support of k points
    plus the base beyond DEFAULT_CAP is refused. A term of the table beyond
    the double range is inf, which a finite least cost never takes; an
    infinite least cost is a norm beyond that range, which `_roots`
    refuses."""
    (B, k), n = W.shape, D.shape[-1]
    if k + 1 > DEFAULT_CAP:
        raise ValueError(
            f"element has {k} support points plus the base, beyond "
            f"the exact-norm cap {DEFAULT_CAP}; "
            "use upper_bound_from / dual_lower_bound for certified bounds"
        )
    wsum, fp = _subset_flows(W, p)
    Dp = D**p
    F = _tree_table(_tree_program(k, n, B), Dp, Dp.take(terminals, axis=1), fp, choices)
    return F.reshape(B, -1, n), wsum, fp, Dp


def _roots(F, base, D, W, terminals, p):
    """The norms F[b, -1, base]^(1/p) of the tables F of `_tree_costs(D, W,
    terminals, p)`. A norm beyond the double range raises, naming p only
    when the element's least cost at p = 1, from one more table call, is a
    double: there its norm is in range."""
    roots = []
    for b, f in enumerate(F[:, -1, base].tolist()):
        try:
            root = f ** (1.0 / p)
        except OverflowError:
            root = math.inf
        if root == math.inf:
            if _tree_costs(D[b : b + 1], W[b : b + 1], terminals, 1.0)[0][0, -1, base] < math.inf:
                raise ValueError(f"p = {p} puts the norm beyond the double range; raise --p")
            raise ValueError("the free p-norm is beyond the double range; scale the element or the points down")
        roots.append(root)
    return roots


def exact_norms(D, W, p: float) -> list[float]:
    """Exact free p-norms, values only, of a stack of elements on hosts of
    one shape: element b weighs points 1..n-1 of the host with distance
    matrix D[b] (B, n, n) by W[b] (B, n - 1), point 0 being the base. One
    tree table serves the whole stack, with the cap and the refusals of
    `exact_norm_small`, its one-host call with a witness.

    Nothing here checks D: each D[b] must be a metric, as the matrix of a
    `PointedFiniteMetric` is, or the values are not norms. It must be
    exactly symmetric too, as a metric is: the hop reads D[b, v, u] as the
    distance from u to v."""
    p = check_p(p)
    terminals = range(1, W.shape[1] + 1)
    return _roots(_tree_costs(D, W, terminals, p)[0], 0, D, W, terminals, p)


def _has_cycle(n, edges):
    """Whether the edges (x, y, ...) on n points close a cycle, by a
    union-find."""
    root = list(range(n))
    for x, y, _ in edges:
        while root[x] != x:
            root[x] = x = root[root[x]]  # path halving
        while root[y] != y:
            root[y] = y = root[root[y]]
        if x == y:
            return True
        root[x] = y
    return False


def _forest_witness(host, edges, Dp, p):
    """The decomposition of the flow of edges (x, y, f), f > 0 carried from
    x to y, in row-major (x, y) order: one molecule x -> y per edge, its
    coefficient d(x, y) f. A flow with a cycle is first made a forest by
    `_cancel_cycles` on its antisymmetric n x n matrix."""
    if _has_cycle(host.n, edges):
        W = np.zeros((host.n, host.n))
        for x, y, f in edges:
            W[x, y], W[y, x] = f, -f
        _cancel_cycles(W, Dp, p)
        x, y = np.nonzero(W > 0)
        edges = zip(x.tolist(), y.tolist(), W[x, y].tolist())
    # endpoints as Python ints: reports serialize no numpy integers
    terms = [(host.dist.item(x, y) * f, _unchecked(Molecule, {"host": host, "x": x, "y": y})) for x, y, f in edges]
    return _unchecked(Decomposition, {"host": host, "terms": tuple(terms)})


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
    |W_e|)^p, W_e the weight of m on the side of edge e away from the base,
    which the tree program `_tree_table` finds on the host. The witness is
    read from the choices the table records, first minima in its order:
    from the full set at the base, each node (S, v) takes its hop point u
    and the split of S at u, O(k) lookups in all. One molecule per tree
    edge carrying nonzero weight, both endpoints anywhere in the host
    (every host point may serve as a Steiner point). Exact for every
    0 < p <= 1. A support plus the base of more than DEFAULT_CAP points
    raises a ValueError (use `upper_bound_from` and `dual_lower_bound`
    there), and so does a norm beyond the double range (`_roots`).
    """
    p = check_p(p)
    host = m.host
    if m.is_zero():
        return 0.0, Decomposition(host, ())
    terminals = sorted(m.weights)
    weights, D = np.array([[m.weights[t] for t in terminals]]), host.dist[None]
    choices = []
    F, (wsum,), fp, Dp = _tree_costs(D, weights, terminals, p, choices)
    value = _roots(F, host.base, D, weights, terminals, p)[0]
    _, rank, layers = _subset_program(len(terminals))
    n = host.n
    carried = {}  # weight carried from x to y, x < y, by the tree edges
    stack = [(len(wsum) - 1, host.base)]
    while stack:
        S, v = stack.pop()
        if S & (S - 1):
            c, r = S.bit_count() - 2, rank.item(S)
            u = choices[2 * c + 1].item(r * n + v)
            T = layers[c][1].item(r, choices[2 * c].item(r * n + u))
            stack += [(T, u), (S ^ T, u)]
        else:
            u = terminals[S.bit_length() - 1]
        if u != v and fp.item(S) > 0.0:
            x, y, f = (u, v, wsum[S]) if u < v else (v, u, -wsum[S])
            carried[x, y] = carried.get((x, y), 0.0) + f
    edges = sorted([(x, y, f) if f > 0 else (y, x, -f) for (x, y), f in carried.items() if f])
    return value, _forest_witness(host, edges, Dp[0], p)


# ---------------------------------------------------------------------------
# p = 1: a transportation problem from the positive to the negative points


def _transport(C, supply, demand, tol):
    """A least-cost flow F >= 0, F[i, j] sent from supply point i to demand
    point j at cost C[i, j] > 0 per unit, that ships the supply amounts to
    the demand amounts, as a dict of its positive entries at (i, j): cells
    of a spanning tree of the a + b points, so at most a + b - 1. An amount
    of at most tol left over is rounding and counts as zero.

    The transportation simplex (Dantzig 1951). The start fills the cells
    least cost first, in one stable sort of C, each time as much as both
    points have left, but the last open supply point fills each open demand
    point but the last, which takes any shortfall. Each fill hangs one of
    its points below the other: the demand point if it is empty and not the
    last, else the supply point. With one supply or one demand point the
    start is the flow: nearest first, a shortfall of the single point on its
    farthest partners.

    Each pivot reads the potentials u, v off the tree, u_i + v_j = C[i, j] /
    max C on its cells, and takes the first least reduced cost C[i, j] /
    max C - u_i - v_j; its cell enters if that cost and the cycle it closes,
    summed exactly, save more than COEFF_TOL of the start's cost per unit
    shipped, else the simplex ends. The least falling flow on the cycle
    moves round it, and of the cells it empties the last met from the apex,
    going the way the flow enters, leaves. So every tree cell at zero hangs
    a supply point below a demand point, as at the start: a strongly
    feasible tree (Cunningham, Math. Programming 1976), which no pivot
    returns to.
    """
    a, b = C.shape
    amount, flow, cost = [*supply, *demand], {}, C.ravel().tolist()
    parent, rows, cols = [-1] * (a + b), a, b  # the tree on rows 0..a-1, columns a..a+b-1
    for e in sorted(range(a * b), key=cost.__getitem__):
        i, j = divmod(e, b)
        y = a + j
        if parent[i] >= 0 or parent[y] >= 0:
            continue
        delta = amount[y] if rows == 1 < cols or amount[y] < amount[i] else amount[i]
        if delta:
            flow[i, j] = delta
        amount[i] = r if (r := amount[i] - delta) > tol else 0.0
        amount[y] = r if (r := amount[y] - delta) > tol else 0.0
        if cols > 1 and not amount[y]:
            parent[y], cols = i, cols - 1
        else:
            parent[i], rows = y, rows - 1
    if a > 1 < b:  # cells outside the tree to price
        Cs, nbrs = C / max(cost), [set() for _ in parent]
        depth, pot, cell = [0] * (a + b), [0.0] * (a + b), [None] * (a + b)
        least = COEFF_TOL * math.fsum(Cs.item(e) * f for e, f in flow.items()) / math.fsum(flow.values())

        def hang(x, y):  # hang x below y by its tree cell, and re-read the tree below x
            stack = [(x, y)]
            while stack:
                x, y = stack.pop()
                parent[x], depth[x], cell[x] = y, depth[y] + 1, (x, y - a) if x < a else (y, x - a)
                pot[x] = Cs.item(cell[x]) - pot[y]
                stack += [(z, x) for z in nbrs[x] if z != y]

        for x, y in enumerate(parent):
            if y >= 0:
                nbrs[x].add(y)
                nbrs[y].add(x)
        for x in nbrs[root := parent.index(-1)]:
            hang(x, root)
        while True:
            u = np.array(pot)
            R = Cs - u[:a, None]
            R -= u[a:]
            k, l = divmod(int(R.argmin()), b)
            if R.item(k, l) >= -least:  # nothing to gain, within rounding
                break
            x, y, up, down = k, a + l, [], []  # the tree paths from k and from l to the apex
            while x != y:
                if depth[x] >= depth[y]:
                    up.append(x)
                    x = parent[x]
                else:
                    down.append(y)
                    y = parent[y]
            # the cycle against the flow, the apex down to l, then k up: the flow falls where it runs row to column
            cycle = [(z, cell[z], z >= a) for z in reversed(down)] + [(z, cell[z], z < a) for z in up]
            if math.fsum([Cs.item(k, l), *(-Cs.item(c) if falls else Cs.item(c) for _, c, falls in cycle)]) >= -least:
                break
            theta = min(flow.get(c, 0.0) for _, c, falls in cycle if falls)
            for _, c, falls in cycle:
                f = flow.get(c, 0.0) + (-theta if falls else theta)
                flow[c] = f if f > tol else 0.0
            q = next(z for z, c, falls in cycle if falls and not flow[c])
            flow[k, l] = theta
            nbrs[q].remove(parent[q])
            nbrs[parent[q]].remove(q)
            nbrs[k].add(a + l)
            nbrs[a + l].add(k)
            hang(*((k, a + l) if q in up else (a + l, k)))  # the end below the leaving cell, from the other
        flow = {e: f for e, f in flow.items() if f}
    return flow


@np.errstate(over="ignore")
def _flow_cost(C, flow):
    """The cost sum C * F of the flow F whose positive entries are the dict
    `flow`, as a float, one numpy sum over the whole matrix; a cost beyond
    the double range reads inf."""
    F = np.zeros(C.shape)
    for e, f in flow.items():
        F[e] = f
    return float(np.add.reduce(C * F, axis=None))


def exact_norm_p1(m: FreeElement) -> tuple[float, Decomposition]:
    """Exact free 1-norm (the Kantorovich-Rubinstein transport cost) of m,
    with an optimal forest witness, on hosts of at most FLOW_CAP points.

    With the base carrying weight -sum(w), m is a balanced signed measure,
    and its norm is the least cost sum d(x, y) f(x, y) of a flow f >= 0 that
    each point x leaves with net amount w(x). Positive-to-negative edges
    suffice: a unit routed x -> z -> y costs at least d(x, y) by the
    triangle inequality, which the host guarantees, so the norm is the
    transportation problem with cost matrix dist[P][:, N] (`_transport`). A
    total at rounding level (at most COEFF_TOL sum |w|, the rule of
    `_subset_flows`) puts nothing on the base, and any other weight or
    left-over amount at that level counts as zero; a sum |w| or a cost
    beyond the double range raises. The edges that carry flow, a forest,
    are the witness: one molecule per edge, the flow times the edge length
    its coefficient. It shares no code with the tree program, so comparing
    it with `exact_norm_small(m, 1.0)` checks both.
    """
    host, n = m.host, m.host.n
    if n > FLOW_CAP:
        raise ValueError(f"host has {n} points, beyond the flow cap {FLOW_CAP}")
    if m.is_zero():
        return 0.0, Decomposition(host, ())
    rows = np.zeros((2, n))  # w and |w| over the host, one numpy sum each
    for x, wx in m.weights.items():
        rows[0, x], rows[1, x] = wx, abs(wx)
    with np.errstate(over="ignore"):
        net, total = np.add.reduce(rows, axis=1).tolist()
    (tol,) = _weight_floors([total])
    w = rows[0].tolist()
    w[host.base] = -net
    P = [x for x in range(n) if w[x] > tol]
    N = [y for y in range(n) if w[y] < -tol]
    C = host.dist.take(P, axis=0).take(N, axis=1)
    flow = _transport(C, [w[x] for x in P], [-w[y] for y in N], tol)
    cost = _flow_cost(C, flow)
    if math.isinf(cost):
        raise ValueError("the free 1-norm overflows to inf; scale the element or the points down")
    edges = [(P[i], N[j], f) for (i, j), f in sorted(flow.items())]
    return cost, _forest_witness(host, edges, host.dist, 1.0)


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
    later writes to the caller's arrays do not reach it, and of
    |functions|, which `dual_lower_bound` reads."""

    host: PointedFiniteMetric
    functions: np.ndarray  # (n_functions, n_points)
    kappa: int
    activity: np.ndarray  # (n_functions, n_points, n_points) bool, symmetric
    abs_functions: np.ndarray = field(init=False, repr=False, compare=False)  # |functions|

    def __post_init__(self):
        functions = np.atleast_2d(np.array(self.functions, dtype=float))
        activity = np.array(self.activity, dtype=bool)
        _read_only(functions, activity)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "activity", activity)
        object.__setattr__(self, "abs_functions", _read_only(np.abs(functions))[0])
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
    v = m.as_full_vector()
    pairings = np.abs(cert.functions.dot(v))
    pairings[pairings <= COEFF_TOL * cert.abs_functions.dot(np.abs(v))] = 0.0
    return float((np.add.reduce(pairings**p) / cert.kappa) ** (1.0 / p))


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
