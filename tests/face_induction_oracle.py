"""Reference molecule decomposition by face induction.

The constructive route of the dyadic basis: delta(u) - delta(v) is walked
one coordinate at a time along mesh-adjacent `line_path` chains, and each
mesh step is split into an axis step (`step_decompose`'s combination) plus
the step one level coarser, down to the level-0 corners. It never solves
anything, so it checks the analysis operator of `freep.dyadic`, which peels
coefficients level by level, from an independent direction: the basis is
level-triangular, so both must give the same unique coefficients.
"""

from fractions import Fraction

from freep.constants import check_alpha
from freep.dyadic import (
    BasisCombination,
    _acc,
    _ExactCoeffs,
    _FloatCoeffs,
    _pruned,
    _step_comb,
    line_path,
    molecule_l1,
)
from freep.metric import DyadicPoint, coordinate_level, replaced


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
    return BasisCombination(_pruned(comb, ctx), exact)


def oracle_molecule(u: DyadicPoint, v: DyadicPoint, alpha: float) -> BasisCombination:
    """The normalized molecule (delta(u) - delta(v)) / |u - v|_1^alpha."""
    diff = oracle_difference(u, v, alpha)
    scale = 1.0 / float(molecule_l1(u, v)) ** alpha
    return BasisCombination({k: scale * c for k, c in diff.coeffs.items()}, False)
