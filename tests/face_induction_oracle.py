"""Reference decompositions by construction.

The constructive routes of the dyadic basis, which `freep.dyadic` computes
by analysis instead: the hat kernel expands a coordinate evaluation by recursive
midpoint splitting (`oracle_hat`), the step kernel resolves each coordinate
finer than the axis level by a hat expansion (`oracle_step`), and
delta(u) - delta(v) is walked one coordinate at a time along mesh-adjacent
`line_path` chains, each mesh step split into an axis step plus the step one
level coarser, down to the level-0 corners (`oracle_difference`). None of it
solves anything, so it checks `freep.dyadic`, which peels coefficients level
by level, from an independent direction: the basis is level-triangular, so
both must give the same unique coefficients.

The kernels compute in doubles or, in exact mode, in the ring of finite sums
of dyadic rationals times integer powers of X = 2^-alpha (`PowSum`); exact
coefficients check the rationals of `freep.dyadic`'s peel. The coarser-grid
interpolation is kept here too, in exact coordinates (`oracle_coarse_neighbors`),
as a check on `freep.dyadic`'s integer kernel over the numerators, and so
is the cost of a basis element's partition-of-unity decomposition, summed
over those neighbours with exact distances (`oracle_proof_cost`). So is a
mesh-adjacent chain by a level scan (`oracle_line_path`), which locates the
coarsest grid point between the endpoints level by level and extends
outward one mesh step per level: a check on `line_path`, which reads the
same chain off the binary expansion of its two gaps. The coordinate rules
the kernels share, the two coarser neighbours of a dyadic scalar
(`neighbors`) and a tuple with one coordinate replaced (`replaced`), are
kept here too.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from freep import dyadic
from freep.constants import check_alpha
from freep.dyadic import (
    BasisCombination,
    HatDecomposition,
    HatTerm,
    _check_dyadic_unit,
    line_path,
    molecule_l1,
)
from freep.metric import DyadicPoint, coordinate_level

# ---------------------------------------------------------------------------
# coordinate helpers


def neighbors(x: Fraction) -> tuple[Fraction, Fraction]:
    """The two adjacent coarser grid points x -+ 2^-n at x's own level n >= 1."""
    x = Fraction(x)
    n = coordinate_level(x)
    if n < 1:
        raise ValueError(f"{x} is at level 0 and has no canonical neighbors")
    h = Fraction(1, 2**n)
    return x - h, x + h


def replaced(x: Sequence, j: int, value) -> tuple:
    """Replace coordinate j (0-based)."""
    out = list(x)
    out[j] = value
    return tuple(out)


# ---------------------------------------------------------------------------
# coefficient arithmetic: doubles, or exact sums of q * X^m with X = 2^-alpha


class PowSum:
    """Finite sum of dyadic rationals times integer powers of X = 2^-alpha."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        self.terms = {m: q for m, q in (terms or {}).items() if q != 0}

    def __add__(self, other: "PowSum") -> "PowSum":
        out = dict(self.terms)
        for m, q in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + q
        return PowSum(out)

    def __sub__(self, other: "PowSum") -> "PowSum":
        return self + (-other)

    def __neg__(self) -> "PowSum":
        return PowSum({m: -q for m, q in self.terms.items()})

    def __mul__(self, other: "PowSum") -> "PowSum":
        out: dict[int, Fraction] = {}
        for m1, q1 in self.terms.items():
            for m2, q2 in other.terms.items():
                m = m1 + m2
                out[m] = out.get(m, Fraction(0)) + q1 * q2
        return PowSum(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, PowSum) and self.terms == other.terms

    def to_float(self, alpha: float) -> float:
        return float(sum(q * 2.0 ** (-m * alpha) for m, q in self.terms.items()))

    def __repr__(self) -> str:
        return f"PowSum({self.terms})"


class _FloatCoeffs:
    exact = False

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.one = 1.0

    def xm(self, m: int) -> float:
        return 2.0 ** (-m * self.alpha)

    def rat(self, q) -> float:
        return float(q)

    def is_zero(self, c) -> bool:
        return c == 0.0


class _ExactCoeffs:
    exact = True

    def __init__(self):
        self.one = PowSum({0: Fraction(1)})

    def xm(self, m: int) -> PowSum:
        return PowSum({m: Fraction(1)})

    def rat(self, q) -> PowSum:
        return PowSum({0: Fraction(q)})

    def is_zero(self, c) -> bool:
        return c.is_zero()


def _acc(target: dict, source: dict, factor=None) -> None:
    for key, c in source.items():
        inc = c if factor is None else factor * c
        if key in target:
            target[key] = target[key] + inc
        else:
            target[key] = inc


def _pruned(comb: dict, ctx) -> dict:
    if ctx.exact:
        return {k: c for k, c in comb.items() if not c.is_zero()}
    return dyadic._pruned(comb)


# ---------------------------------------------------------------------------
# the coarser-grid interpolation, in exact coordinates


def oracle_coarse_neighbors(v: DyadicPoint) -> tuple[tuple[DyadicPoint, Fraction], ...]:
    """The pairs (u, w(u, v)) of the coarser-grid interpolation of a point v
    at level k >= 1, origin included: each coordinate at level k moves to
    one of its two `neighbors` with weight 1/2, the others stay."""
    half = Fraction(1, 2)
    axes = [
        [(x, half) for x in neighbors(c)] if coordinate_level(c) == v.level else [(c, Fraction(1))]
        for c in v.coords()
    ]
    return tuple(
        (DyadicPoint.from_fractions(c for c, _ in combo), math.prod(q for _, q in combo))
        for combo in product(*axes)
    )


@lru_cache(maxsize=None)
def _exact_terms(v: DyadicPoint) -> tuple[tuple[float, float], ...]:
    """(weight, l1 distance) of each coarse neighbour of v, each computed
    exactly and rounded once."""
    return tuple((float(w), float(molecule_l1(v, u))) for u, w in oracle_coarse_neighbors(v))


def oracle_proof_cost(v: DyadicPoint, alpha: float, p: float) -> float:
    """Cost of the partition-of-unity decomposition of the basis element at v
    into molecules toward its coarser neighbours (origin included), one term
    per neighbour from its exact weight and l1 distance."""
    k = v.level
    if k == 0:
        return float(molecule_l1(v, DyadicPoint.origin(v.d))) ** alpha
    total = 0.0
    for weight, l1 in _exact_terms(v):
        total += (2.0 ** (k * alpha) * weight * l1**alpha) ** p
    return total ** (1.0 / p)


# ---------------------------------------------------------------------------
# the constructive kernels


def _hat_parts(u1: Fraction, u2: Fraction, v: Fraction):
    """Alpha-free kernel of the hat expansion.

    Returns (n, mu1, mu2, terms) with exact fractions; `terms` maps a
    position w at exact level l > n to (l, q), the coefficient being
    q * 2^((n-l)a). Positions merge across the two half-interval branches,
    so there is at most one term per level.
    """
    u1, u2, v = Fraction(u1), Fraction(u2), Fraction(v)
    gap = u2 - u1
    if gap <= 0 or gap.numerator != 1:
        raise ValueError("u1, u2 must be adjacent grid points with u1 < u2")
    n = coordinate_level(gap)
    if (u1 * 2**n).denominator != 1:
        raise ValueError(f"u1 = {u1} is not on the level-{n} grid")
    if not u1 <= v <= u2:
        raise ValueError(f"{v} outside [{u1}, {u2}]")
    coordinate_level(v)

    memo: dict[Fraction, tuple] = {}

    def rec(w: Fraction):
        if w in memo:
            return memo[w]
        if w == u1:
            res = (Fraction(1), Fraction(0), {})
        elif w == u2:
            res = (Fraction(0), Fraction(1), {})
        else:
            k = coordinate_level(w)
            h = Fraction(1, 2**k)
            m1a, m2a, ta = rec(w - h)
            m1b, m2b, tb = rec(w + h)
            half = Fraction(1, 2)
            terms: dict[Fraction, tuple[int, Fraction]] = {}
            for src in (ta, tb):
                for pos, (lvl, q) in src.items():
                    if pos in terms:
                        terms[pos] = (lvl, terms[pos][1] + half * q)
                    else:
                        terms[pos] = (lvl, half * q)
            terms[w] = (k, Fraction(1))
            res = (half * (m1a + m1b), half * (m2a + m2b), terms)
        memo[w] = res
        return res

    mu1, mu2, terms = rec(v)
    return n, mu1, mu2, terms


def oracle_hat(u1, u2, v, alpha: float) -> HatDecomposition:
    """The hat expansion of 2^(n*alpha) delta(v) built by midpoint splitting."""
    alpha = check_alpha(alpha)
    n, mu1, mu2, terms = _hat_parts(u1, u2, v)
    out = [
        HatTerm(float(q) * 2.0 ** ((n - lvl) * alpha), lvl, pos)
        for pos, (lvl, q) in terms.items()
    ]
    out.sort(key=lambda t: t.level)
    return HatDecomposition(float(mu1), float(mu2), tuple(out))


def _on_level_grid(c: Fraction, n: int) -> bool:
    return (c * 2**n).denominator == 1


def _step_comb(coords, axis, ctx, cache):
    key = (coords, axis)
    got = cache.get(key)
    if got is not None:
        return got
    n = coordinate_level(coords[axis])
    assert n >= 1
    h = Fraction(1, 2**n)
    bad = [j for j in range(len(coords)) if j != axis and not _on_level_grid(coords[j], n)]

    out: dict[DyadicPoint, object] = {}
    if not bad:
        out[DyadicPoint.from_fractions(coords)] = ctx.one
        for sgn in (1, -1):
            w = replaced(coords, axis, coords[axis] + sgn * h)
            wpt = DyadicPoint.from_fractions(w)
            if wpt.level == n:  # otherwise it sits on the coarser grid: zero term
                _acc(out, {wpt: ctx.one}, ctx.rat(Fraction(-1, 2)))
    else:
        j = bad[0]
        u1 = Fraction(math.floor(coords[j] * 2**n), 2**n)
        u2 = u1 + h
        _, mu1, mu2, terms = _hat_parts(u1, u2, coords[j])
        if mu1:
            _acc(out, _step_comb(replaced(coords, j, u1), axis, ctx, cache), ctx.rat(mu1))
        if mu2:
            _acc(out, _step_comb(replaced(coords, j, u2), axis, ctx, cache), ctx.rat(mu2))
        for pos, (lvl, q) in sorted(terms.items()):
            nu = ctx.rat(q) * ctx.xm(lvl - n)
            _acc(out, _step_comb(replaced(coords, j, pos), j, ctx, cache), nu)
            for sgn in (1, -1):
                moved = replaced(replaced(coords, axis, coords[axis] + sgn * h), j, pos)
                _acc(out, _step_comb(moved, j, ctx, cache), -(ctx.rat(Fraction(1, 2)) * nu))
    cache[key] = out
    return out


def oracle_step(
    v: DyadicPoint, axis: int, alpha: float | None = None, exact: bool = False
) -> BasisCombination:
    """The axis-step expansion at v built by hat expansions of the
    coordinates finer than the axis level; exact mode carries `PowSum`s."""
    ctx = _ExactCoeffs() if exact else _FloatCoeffs(check_alpha(alpha))
    return BasisCombination(_pruned(_step_comb(v.coords(), axis, ctx, {}), ctx))


# ---------------------------------------------------------------------------
# mesh-adjacent paths by a level scan


def oracle_line_path(u, v) -> list[Fraction]:
    """A chain from u to v whose consecutive entries share a level k and
    differ by exactly 2^-k.

    Built by locating the coarsest grid point between the two (the smaller
    candidate on ties) and extending outward one mesh step per level; the
    gap profile then carries at most two gaps per level, which yields the
    strict cost bound checked in the suite.
    """
    u = _check_dyadic_unit(u)
    v = _check_dyadic_unit(v)
    if u == v:
        raise ValueError("path endpoints must differ")
    a, b = (u, v) if u < v else (v, u)
    n = max(coordinate_level(a), coordinate_level(b))

    first = None
    for k in range(-1, n + 1):
        step = Fraction(2) if k == -1 else Fraction(1, 2**k)
        m = math.ceil(a / step) * step
        if m <= b:
            first = m
            n0 = k
            break
    assert first is not None

    lo = hi = first
    lows: list[Fraction] = []
    highs: list[Fraction] = []
    for k in range(n0 + 1, n + 1):
        h = Fraction(1, 2**k)
        if lo - h >= a:
            lo -= h
            lows.append(lo)
        if hi + h <= b:
            hi += h
            highs.append(hi)
    assert lo == a and hi == b
    path = list(reversed(lows)) + [first] + highs
    if u > v:
        path.reverse()
    return path


class _Decomposer:
    def __init__(self, d: int, ctx):
        self.d = d
        self.ctx = ctx
        self.step_cache: dict = {}

    def diff(self, u: tuple, v: tuple) -> dict:
        """Combination reconstructing delta(u) - delta(v)."""
        axes = [j for j in range(self.d) if u[j] != v[j]]
        if len(axes) == 1:
            return self.one_coord(u, v, axes[0])
        out: dict[DyadicPoint, object] = {}
        cur = list(v)
        for j in axes:
            nxt = list(cur)
            nxt[j] = u[j]
            _acc(out, self.one_coord(tuple(nxt), tuple(cur), j))
            cur = nxt
        return out

    def one_coord(self, u: tuple, v: tuple, axis: int) -> dict:
        out: dict[DyadicPoint, object] = {}
        path = line_path(v[axis], u[axis])
        for a, b in zip(path, path[1:]):
            _acc(out, self.adjacent(u, axis, a, b))
        return out

    def adjacent(self, template: tuple, axis: int, a: Fraction, b: Fraction) -> dict:
        """Combination for delta at (template with axis = b) minus delta at
        (template with axis = a), with |a - b| a single mesh step."""
        gap = abs(b - a)
        assert gap.numerator == 1
        m = coordinate_level(gap)
        ctx = self.ctx
        out: dict[DyadicPoint, object] = {}
        if m == 0:
            sign = 1 if b > a else -1
            _acc(out, self.point(replaced(template, axis, Fraction(1))), ctx.rat(sign))
            _acc(out, self.point(replaced(template, axis, Fraction(0))), ctx.rat(-sign))
            return out
        h = Fraction(1, 2**m)
        w = a if coordinate_level(a) == m else b
        if b == w:
            nu1, nu2 = (1, -1) if a == w + h else (1, 1)
        else:
            nu1, nu2 = (-1, 1) if b == w + h else (-1, -1)
        step = _step_comb(replaced(template, axis, w), axis, ctx, self.step_cache)
        _acc(out, step, ctx.rat(nu1) * ctx.xm(m))
        _acc(out, self.adjacent(template, axis, w - h, w + h), ctx.rat(Fraction(nu2, 2)))
        return out

    def point(self, coords: tuple) -> dict:
        """Combination for delta(coords): move to the coordinatewise-smallest
        corner sharing every binary coordinate, then add that corner."""
        corner = tuple(c if c in (0, 1) else Fraction(0) for c in coords)
        out: dict[DyadicPoint, object] = {}
        if corner != tuple(coords):
            _acc(out, self.diff(tuple(coords), corner))
        cpt = DyadicPoint.from_fractions(corner)
        if not cpt.is_origin():
            _acc(out, {cpt: self.ctx.one})
        return out


def oracle_difference(
    u: DyadicPoint, v: DyadicPoint, alpha: float | None = None, exact: bool = False
) -> BasisCombination:
    """Combination reconstructing delta(u) - delta(v), built by face
    induction; exact mode carries `PowSum` coefficients."""
    if u == v:
        raise ValueError("a molecule needs two distinct points")
    ctx = _ExactCoeffs() if exact else _FloatCoeffs(check_alpha(alpha))
    comb = _Decomposer(u.d, ctx).diff(u.coords(), v.coords())
    return BasisCombination(_pruned(comb, ctx))


def oracle_molecule(u: DyadicPoint, v: DyadicPoint, alpha: float) -> BasisCombination:
    """The normalized molecule (delta(u) - delta(v)) / |u - v|_1^alpha."""
    diff = oracle_difference(u, v, alpha)
    scale = 1.0 / float(molecule_l1(u, v)) ** alpha
    return BasisCombination({k: scale * c for k, c in diff.coeffs.items()})
