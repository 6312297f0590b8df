import random
import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analysis_oracle import oracle_analysis_operator
from face_induction_oracle import (
    PowSum,
    neighbors,
    oracle_coarse_neighbors,
    oracle_difference,
    oracle_hat,
    oracle_line_path,
    oracle_molecule,
    oracle_proof_cost,
    oracle_step,
    replaced,
)
from freep import dyadic, metric
from freep.constants import basis_bound, rho, tau
from freep.dyadic import (
    BasisCombination,
    analyze,
    basis_element,
    basis_norm_check,
    basis_points,
    hat_decompose,
    line_path,
    molecule_decompose,
    molecule_target,
    reconstruction_residual,
    synthesize,
    verify_norming,
    _analysis_operator,
    _block_checks,
    _class_hosts,
    _class_norms,
    _coarse_neighbors,
    _grid_plan,
    _molecule_block,
    _molecule_blocks,
    _peel,
    _product_symbols,
    _product_values,
    _proof_cost,
    _residual_sups,
    _residual_symbols,
    _rounded,
)
from freep.freenorm import (
    DEFAULT_CAP,
    FreeElement,
    _tree_program,
    exact_norm_small,
    exact_norms,
)
from freep.metric import (
    DyadicPoint,
    PointedFiniteMetric,
    coordinate_level,
    dyadic_grid,
    holder_distort,
    l1_distances,
    l1_space,
)

F = Fraction


def step_element(v: DyadicPoint, axis: int) -> tuple[int, dict[DyadicPoint, Fraction]]:
    """(n, the step element delta(v) - (delta(v - h e_axis) + delta(v + h e_axis)) / 2),
    h = 2^-n at the level n >= 1 of v's axis coordinate, origin entry dropped."""
    coords = v.coords()
    out = {v: F(1)}
    for c in neighbors(coords[axis]):
        out[DyadicPoint.from_fractions(replaced(coords, axis, c))] = F(-1, 2)
    return coordinate_level(coords[axis]), {u: c for u, c in out.items() if not u.is_origin()}


def step_expansion(v: DyadicPoint, axis: int, alpha: float) -> BasisCombination:
    """The paper's step expansion, the analysis of 2^(n alpha) times the
    step element: its exact peel, rounded once; its cost is at most
    rho^(l+1) <= rho^d with l the number of coordinates of v finer than
    level n."""
    n, elem = step_element(v, axis)
    return BasisCombination(_rounded(_peel(elem), alpha, n))


def step_target(v: DyadicPoint, axis: int, alpha: float) -> dict[DyadicPoint, float]:
    """Point expansion of 2^(n alpha) times the step element."""
    n, elem = step_element(v, axis)
    return {u: float(c) * 2.0 ** (n * alpha) for u, c in elem.items()}


def molecule_difference(u: DyadicPoint, v: DyadicPoint, alpha: float) -> BasisCombination:
    """Combination reconstructing the unnormalized difference
    delta(u) - delta(v)."""
    return analyze({u: 1.0, v: -1.0}, alpha)


def dp(*coords):
    return DyadicPoint.from_fractions([F(c) for c in coords])


def hat_residual(u1, u2, v, alpha):
    dec = hat_decompose(u1, u2, v, alpha)
    gap = F(u2) - F(u1)
    n = gap.denominator.bit_length() - 1
    scale_n = 2.0 ** (n * alpha)
    acc = {}

    def add(pos, c):
        acc[pos] = acc.get(pos, 0.0) + c

    add(F(u1), dec.mu1 * scale_n)
    add(F(u2), dec.mu2 * scale_n)
    for t in dec.terms:
        h = F(1, 2**t.level)
        s = 2.0 ** (t.level * alpha)
        add(t.position, t.nu * s)
        add(t.position - h, -0.5 * t.nu * s)
        add(t.position + h, -0.5 * t.nu * s)
    add(F(v), -scale_n)
    return max(abs(c) for c in acc.values())


def test_hat_base_cases():
    dec = hat_decompose(0, 1, F(0), 0.5)
    assert (dec.mu1, dec.mu2, dec.terms) == (1.0, 0.0, ())
    dec = hat_decompose(F(1, 4), F(1, 2), F(1, 2), 0.5)
    assert (dec.mu1, dec.mu2, dec.terms) == (0.0, 1.0, ())


def test_hat_midpoint():
    dec = hat_decompose(0, 1, F(1, 2), 0.5)
    assert (dec.mu1, dec.mu2) == (0.5, 0.5)
    assert len(dec.terms) == 1
    t = dec.terms[0]
    assert (t.level, t.position) == (1, F(1, 2))
    assert t.nu == pytest.approx(2**-0.5)


def test_hat_quarter_point():
    dec = hat_decompose(0, 1, F(1, 4), 0.5)
    assert sorted(t.level for t in dec.terms) == [1, 2]
    assert hat_residual(0, 1, F(1, 4), 0.5) <= 1e-12


def test_hat_terms_unique_per_level_and_convex():
    for num in range(1, 32):
        v = F(num, 32)
        dec = hat_decompose(0, 1, v, 0.3)
        levels = [t.level for t in dec.terms]
        assert len(levels) == len(set(levels))
        assert dec.mu1 >= 0 and dec.mu2 >= 0
        assert dec.mu1 + dec.mu2 == pytest.approx(1.0, abs=1e-12)
        assert all(t.nu > 0 for t in dec.terms)


def test_hat_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hat_decompose(0, F(3, 4), F(1, 2), 0.5)  # endpoints not mesh-adjacent
    with pytest.raises(ValueError):
        hat_decompose(0, F(1, 2), F(3, 4), 0.5)  # v outside the interval


def test_step_base_case_d1():
    comb = step_expansion(dp(F(1, 2)), 0, 0.5)
    assert comb.coeffs == {dp(F(1, 2)): 1.0}
    assert reconstruction_residual(comb, step_target(dp(F(1, 2)), 0, 0.5), 0.5) <= 1e-12
    assert comb.p_cost(1.0) <= rho(1.0, 0.5)


def test_step_with_finer_coordinate_reconstructs():
    v = dp(F(1, 2), F(3, 8))  # axis-0 coordinate at level 1, axis-1 finer
    for alpha in (0.25, 0.5):
        comb = step_expansion(v, 0, alpha)
        assert reconstruction_residual(comb, step_target(v, 0, alpha), alpha) <= 1e-9


def test_step_cost_within_rho_power():
    for alpha, p in ((0.5, 1.0), (0.25, 0.5)):
        bound = rho(p, alpha) ** 2
        count = 0
        for v in dyadic_grid(2, 2):
            for axis in range(2):
                if v.coords()[axis] in (0, 1):
                    continue  # level-0 coordinate, no step element there
                comb = step_expansion(v, axis, alpha)
                assert comb.p_cost(p) <= bound + 1e-9
                count += 1
        assert count > 0


def test_line_path_examples():
    assert line_path(0, 1) == [F(0), F(1)]
    assert line_path(0, F(3, 4)) == [F(0), F(1, 2), F(3, 4)]
    path = line_path(F(1, 8), F(7, 8))
    assert path[0] == F(1, 8) and path[-1] == F(7, 8)
    p, alpha = 0.5, 0.5
    cost = sum(float(abs(b - a)) ** (p * alpha) for a, b in zip(path, path[1:])) ** (1 / p)
    assert cost < 2 ** (1 / p) * (1 / (1 - 2 ** (-p * alpha))) ** (
        1 / p
    ) * float(F(3, 4)) ** alpha
    with pytest.raises(ValueError):
        line_path(F(1, 2), F(1, 2))


def test_line_path_properties_sampled():
    for n in (3, 5):
        pts = [F(k, 2**n) for k in range(2**n + 1)]
        for i in range(0, len(pts), 3):
            for j in range(1, len(pts), 5):
                if pts[i] == pts[j]:
                    continue
                path = line_path(pts[i], pts[j])
                assert path[0] == pts[i] and path[-1] == pts[j]
                for a, b in zip(path, path[1:]):
                    gap = abs(b - a)
                    assert gap.numerator == 1
                    k = coordinate_level(gap)
                    assert (a * 2**k).denominator == 1 and (b * 2**k).denominator == 1


def test_line_path_equals_the_level_scan_oracle():
    """The binary expansion of the two gaps is the level scan's chain, on
    every ordered pair of the level-6 grid and on seeded pairs of endpoints
    at independent levels up to 40; invalid input gives the same errors."""
    grid = [F(k, 64) for k in range(65)]
    pairs = [(u, v) for u in grid for v in grid if u != v]
    rng = random.Random(7)
    while len(pairs) < 65 * 64 + 2000:
        u, v = (F(rng.randrange(2**n + 1), 2**n) for n in (rng.randint(0, 40), rng.randint(0, 40)))
        if u != v:
            pairs.append((u, v))
    for u, v in pairs:
        path = line_path(u, v)
        assert path == oracle_line_path(u, v), (u, v)
        assert all(type(x) is F for x in path)
    for u, v in [(F(1, 2), 0.5), (F(1, 3), 0), (F(-1, 2), 1), (0, 1.5), (float("nan"), 1)]:
        errors = []
        for path_of in (line_path, oracle_line_path):
            with pytest.raises(ValueError) as raised:
                path_of(u, v)
            errors.append(str(raised.value))
        assert errors[0] == errors[1], (u, v)


def test_molecule_d1_corner_to_corner():
    comb = molecule_decompose(dp(F(0)), dp(F(1)), 0.5)
    assert set(comb.coeffs) == {dp(F(1))}
    assert abs(abs(list(comb.coeffs.values())[0]) - 1.0) <= 1e-12


def test_molecule_d1_half_support_and_cost():
    u, v = dp(F(0)), dp(F(1, 2))
    comb = molecule_decompose(u, v, 0.5)
    assert set(comb.coeffs) == {dp(F(1)), dp(F(1, 2))}
    assert reconstruction_residual(comb, molecule_target(u, v, 0.5), 0.5) <= 1e-9
    assert comb.p_cost(0.5) <= tau(0.5, 0.5, 1) * rho(0.5, 0.5)


def test_molecule_exact_mode_is_structural():
    # the peel is exact: its weights rebuild delta(a) - delta(b) with no residual
    a, b = dp(F(1, 4), F(3, 4)), dp(F(1, 2), F(0))
    rebuilt = {}
    for v, beta in _peel({a: 1, b: -1}).items():
        rebuilt[v] = rebuilt.get(v, 0) + beta
        for u, weight in _coarse_neighbors(v) if v.level else ():
            rebuilt[u] = rebuilt.get(u, 0) - beta * weight
    assert {u: c for u, c in rebuilt.items() if c and not u.is_origin()} == {a: 1, b: -1}


def test_molecule_cost_dominates_molecule_norm():
    # molecules have norm exactly 1 over their own support plus the origin
    u, v = dp(F(1, 4)), dp(F(3, 4))
    alpha, p = 0.5, 0.5
    comb = molecule_decompose(u, v, alpha)
    from freep.metric import l1_space

    pts = [(0.0,), (0.25,), (0.75,)]
    raw = l1_space(pts, base=0)
    host = PointedFiniteMetric(raw.points, 0, raw.dist**alpha)
    from freep.freenorm import FreeElement

    s = 1.0 / 0.5**alpha
    m = FreeElement(host, {1: s, 2: -s})
    norm, _ = exact_norm_small(m, p)
    assert norm == pytest.approx(1.0, abs=1e-9)
    assert comb.p_cost(p) >= norm - 1e-9


def test_molecule_rejects_equal_points():
    with pytest.raises(ValueError):
        molecule_decompose(dp(F(1, 2)), dp(F(1, 2)), 0.5)


dyadic_scalar = st.integers(0, 8).map(lambda k: F(k, 8))


@settings(max_examples=20, deadline=None)
@given(
    st.tuples(dyadic_scalar, dyadic_scalar),
    st.tuples(dyadic_scalar, dyadic_scalar),
    st.sampled_from([0.25, 0.5, 0.75]),
)
def test_molecule_reconstruction_property(uc, vc, alpha):
    if uc == vc:
        return
    u, v = dp(*uc), dp(*vc)
    comb = molecule_decompose(u, v, alpha)
    assert reconstruction_residual(comb, molecule_target(u, v, alpha), alpha) <= 1e-9


def test_basis_element_examples():
    e = basis_element(dp(F(1)), 0.5)  # level 0: bare evaluation
    assert list(e.weights.values()) == [1.0]
    e = basis_element(dp(F(1, 2)), 0.5)
    by_point = {e.host.points[i][0]: w for i, w in e.weights.items()}
    assert by_point[0.5] == pytest.approx(2**0.5)
    assert by_point[1.0] == pytest.approx(-0.5 * 2**0.5)
    # the origin weight is normalized away, so only two entries remain
    assert len(e.weights) == 2

    e2 = basis_element(dp(F(1, 2), F(1, 2)), 0.5)
    corner_weights = [w for i, w in e2.weights.items() if e2.host.points[i] != (0.5, 0.5)]
    assert corner_weights == pytest.approx([-0.25 * 2**0.5] * 3)


def test_basis_element_rejects_origin():
    with pytest.raises(ValueError):
        basis_element(DyadicPoint.origin(2), 0.5)


def test_basis_norm_check_examples():
    value, bound = basis_norm_check(dp(F(1, 2)), 0.5, 1.0)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert bound == pytest.approx(1.0)
    value, bound = basis_norm_check(dp(F(1), F(1)), 0.5, 0.5)  # level 0
    assert value == pytest.approx(2.0**0.5, abs=1e-9)
    assert value <= bound + 1e-9


def test_basis_norm_check_proof_cost_fallback():
    v = dp(F(1, 2), F(1, 2))
    exact_val, _ = basis_norm_check(v, 0.5, 0.5)
    assert exact_val <= _proof_cost(1, 2, 0.5, 0.5) + 1e-9
    # the d = 3 centre point has all 8 corners as coarse neighbours, so its
    # host is beyond the exact-norm cap and the proof cost stands in
    centre = dp(F(1, 2), F(1, 2), F(1, 2))
    assert basis_element(centre, 0.5).host.n > DEFAULT_CAP
    value, bound = basis_norm_check(centre, 0.5, 0.5)
    assert value == _proof_cost(1, 3, 0.5, 0.5)
    assert value <= bound + 1e-9


ORACLE_GRIDS = ((1, 7), (2, 3), (3, 2))


@pytest.fixture(scope="module")
def basis_checks():
    """basis_norm_check at every basis point of ORACLE_GRIDS, by (d, k, alpha, p)."""
    return {
        (d, k, alpha, p): [basis_norm_check(v, alpha, p) for v in basis_points(d, k)]
        for d, k in ORACLE_GRIDS
        for alpha in (0.25, 0.5, 0.7)
        for p in (0.3, 0.5, 0.8, 1.0)
    }


def own_support_element(v: DyadicPoint, alpha: float) -> FreeElement:
    """v's basis element over its own support, v and its coarse neighbours
    ({0, v} for a corner), as a host of its own: the host of
    basis_element(r), r = 2^-k (1, ..., 1, 0, ..., 0) with one 1 per odd
    numerator of v (per coordinate 1 of a corner), moved by the isometry
    that sends the first axes to v's odd ones in order and then r to v. The
    base is the image of the origin, and every other point weighs what v's
    point expansion puts on it."""
    odd = [i for i, n in enumerate(v.nums) if n % 2]
    axes = odd + [i for i in range(v.d) if i not in odd]
    r = DyadicPoint(v.level, (1,) * len(odd) + (0,) * (v.d - len(odd)))
    h = F(1, 2**v.level)
    corner = [c - h if i in odd else c for i, c in enumerate(v.coords())]
    points = []
    for x in basis_element(r, alpha).host.points:
        y = list(corner)
        for i, axis in enumerate(axes):
            y[axis] += F(x[i])
        points.append(DyadicPoint.from_fractions(y))
    support = {u for u, _ in _coarse_neighbors(v)} if v.level else {DyadicPoint.origin(v.d)}
    assert points[1:] and set(points) == support | {v} and len(set(points)) == len(points)
    expansion = synthesize(BasisCombination({v: 1.0}), alpha)
    host = holder_distort(l1_space([q.floats() for q in points], base=0), alpha)
    return FreeElement(host, {i: expansion[q] for i, q in enumerate(points) if i})


def test_batched_basis_norms_equal_one_host_norms(basis_checks):
    """basis_norm_check, which the grid batch is pinned to, is bitwise the
    exact norm of each element over its own support, a host the test builds
    as the image of its class representative's host; beyond the cap it is
    the fallback cost of the exact oracle. Each is paired with the basis
    bound. Corners, points next to the origin, other points and fallback
    classes all occur."""
    kinds = Counter()
    for d, k in ORACLE_GRIDS:
        pts = basis_points(d, k)
        for alpha in (0.25, 0.5, 0.7):
            elems = [own_support_element(v, alpha) for v in pts]
            for p in (0.3, 0.5, 0.8, 1.0):
                bound = basis_bound(p, alpha, d)
                for v, e, (value, check_bound) in zip(pts, elems, basis_checks[d, k, alpha, p]):
                    if e.host.n > DEFAULT_CAP:
                        expected, kind = oracle_proof_cost(v, alpha, p), "fallback"
                    else:
                        expected = exact_norm_small(e, p)[0]
                        kind = "corner" if v.level == 0 else "next to the origin" if (
                            e.host.points[0] == (0.0,) * d) else "other"
                    kinds[kind] += 1
                    assert value.hex() == expected.hex(), (v, alpha, p)
                    assert check_bound == bound
    assert kinds == {"corner": 132, "next to the origin": 336, "other": 3408, "fallback": 108}


PROOF_COST_GRIDS = ((1, 9), (2, 5), (3, 3), (4, 2), (5, 1))


def test_proof_cost_equals_the_exact_oracle_bitwise():
    """The float fallback cost of a class (k, m), one double term repeated
    over the 2^m coarse neighbours, equals the term-by-term exact oracle at
    every basis point of that class on five grids."""
    count = 0
    for d, k in PROOF_COST_GRIDS:
        for v in basis_points(d, k):
            m = sum(n % 2 for n in v.nums)
            for alpha in (0.25, 0.5, 0.7):
                for p in (0.3, 0.5, 0.8, 1.0):
                    got, want = _proof_cost(v.level, m, alpha, p), oracle_proof_cost(v, alpha, p)
                    assert got.hex() == want.hex(), (v, alpha, p)
                    count += 1
    assert count == 38_328


def class_representatives(d: int, k: int, alpha: float) -> list[FreeElement]:
    """The basis elements of the class representatives
    2^-level (1, ..., 1, 0, ..., 0) of the level-k grid of [0, 1]^d, by
    (level, number of ones)."""
    return [
        basis_element(DyadicPoint(level, (1,) * m + (0,) * (d - m)), alpha)
        for level in range(k + 1)
        for m in range(1, d + 1)
    ]


@pytest.mark.parametrize("d,k", [(3, 1), (2, 2), (1, 5)])
def test_verify_norming_runs_one_exact_norms_call_per_host_shape(monkeypatch, d, k):
    """One exact_norms call per host shape of the class representatives
    within the cap, host sizes ascending, each carrying exactly the hosts
    and weights of their basis elements in (level, m) order: at most three
    calls and 17 exact norms over the three grids."""
    calls = []

    def counted(D, W, p):
        calls.append((D.tobytes(), W.tobytes()))
        return exact_norms(D, W, p)

    monkeypatch.setattr(dyadic, "exact_norms", counted)
    for alpha, p in ((0.5, 0.5), (0.7, 1.0)):
        calls.clear()
        verify_norming(d, alpha, p, k)
        by_size = {}
        for e in class_representatives(d, k, alpha):
            if e.host.n <= DEFAULT_CAP:
                by_size.setdefault(e.host.n, []).append(e)
        want = [
            (np.stack([e.host.dist for e in es]).tobytes(),
             np.array([[e.weights[i] for i in range(1, n)] for e in es]).tobytes())
            for n, es in sorted(by_size.items())
        ]
        assert calls == want and len(calls) <= 3
        assert sum(map(len, by_size.values())) == {(3, 1): 5, (2, 2): 6, (1, 5): 6}[d, k]


def test_basis_distance_stack_equals_the_element_hosts():
    """The l1 stack of every basis point's host, and each host stack of the
    class table, one per host size of the class representatives, raised to
    alpha: the distance matrices of the basis_element hosts bitwise."""
    for d, k in ORACLE_GRIDS:
        for alpha in (0.25, 0.5, 0.7):
            by_size = {}
            for v in basis_points(d, k):
                host = basis_element(v, alpha).host
                by_size.setdefault(host.n, []).append(host)
            for hosts in by_size.values():
                stack = l1_distances(np.array([host.points for host in hosts])) ** alpha
                for host, dist in zip(hosts, stack):
                    assert dist.tobytes() == host.dist.tobytes(), (host.points, alpha)
            reps = class_representatives(d, k, alpha)
            for classes, l1, _ in _class_hosts(d, k)[0]:
                for c, dist in zip(classes.tolist(), l1**alpha):
                    assert dist.tobytes() == reps[c].host.dist.tobytes(), (d, k, c, alpha)


def test_analyze_examples():
    alpha = 0.4
    v = dp(F(1, 2), F(1, 4))
    unit = analyze(synthesize(BasisCombination({v: 1.0}), alpha), alpha)
    assert set(unit.coeffs) == {v}
    assert unit.coeffs[v] == pytest.approx(1.0, abs=1e-12)

    point = analyze({v: 1.0}, alpha)
    back = synthesize(point, alpha)
    assert abs(back.get(v, 0.0) - 1.0) <= 1e-12

    assert analyze({}, alpha).coeffs == {}


def test_analyze_round_trip_random():
    rng = np.random.default_rng(17)
    pts = basis_points(2, 3)
    for _ in range(10):
        sel = rng.choice(len(pts), size=5, replace=False)
        coeffs = {pts[i]: float(rng.normal()) for i in sel}
        m = synthesize(BasisCombination(dict(coeffs)), 0.35)
        back = analyze(m, 0.35)
        assert set(back.coeffs) == set(coeffs)
        for k, c in coeffs.items():
            assert back.coeffs[k] == pytest.approx(c, abs=1e-9)


def exact_coefficients(m):
    """The basis coefficients of sum_x a_x delta(x) in the exact ring, each
    delta(x) = delta(x) - delta(origin) built by face induction."""
    out = {}
    for x, a in m.items():
        if x.is_origin():
            continue
        for v, c in oracle_difference(x, DyadicPoint.origin(x.d), exact=True).coeffs.items():
            out[v] = out.get(v, PowSum()) + PowSum({0: F(a)}) * c
    return {v: c for v, c in out.items() if not c.is_zero()}


def assert_rounded_once(m, alpha):
    got = analyze(m, alpha).coeffs
    want = exact_coefficients(m)
    assert set(got) == set(want)
    with localcontext() as ctx:
        ctx.prec = 50
        for v, c in want.items():
            exact = sum(
                Decimal(q.numerator) / Decimal(q.denominator) * Decimal(2) ** (-e * Decimal(alpha))
                for e, q in c.terms.items()
            )
            assert abs(Decimal(got[v]) - exact) <= Decimal("4e-16") * abs(exact), (v, got[v], exact)


@pytest.mark.parametrize("d,k", [(1, 5), (2, 3), (3, 2)])
def test_analysis_rounds_once(d, k):
    rng = np.random.default_rng([d, k])
    pts = basis_points(d, k)
    for alpha in (0.35, 0.5):
        for _ in range(3):
            sel = rng.choice(len(pts), size=6, replace=False)
            assert_rounded_once({pts[i]: float(rng.normal()) for i in sel}, alpha)


def test_analysis_rounds_once_on_an_all_dyadic_element():
    m = {dp(F(1, 2), 0): 1.0, dp(F(1, 2), F(1, 4)): -0.5, dp(1, 1): 0.25}
    assert_rounded_once(m, 0.5)
    level0 = {v: c for v, c in analyze(m, 0.5).coeffs.items() if v.level == 0}
    assert level0 == {dp(0, 1): -0.0625, dp(1, 0): 0.3125, dp(1, 1): 0.1875}


def test_analyze_depth_guard():
    deep = dp(F(1, 2**40))
    with pytest.raises(ValueError, match="dyadic"):
        analyze({deep: 1.0}, 0.5)


def test_verify_norming_d1_full_run():
    report = verify_norming(1, 0.5, 1.0, 3)
    assert report["complete"] and report["basis_ok"]
    assert report["max_molecule_cost"] <= report["molecule_bound"] + 1e-9
    assert report["max_molecule_residual"] <= 1e-9
    assert report["bm_bound"] == pytest.approx(
        rho(1.0, 0.5) * tau(1.0, 0.5, 1), rel=1e-12
    )


def test_verify_norming_budget_flag():
    report = verify_norming(1, 0.5, 1.0, 2, pair_budget=3)
    assert not report["complete"]


@pytest.mark.parametrize("d,k", [(2, 7), (20, 1)])
def test_verify_norming_refuses_oversized_grids(d, k):
    # (2^k + 1)^d - 1 basis points: 16,640 at (2, 7), and 3.5e9 grid points
    # to enumerate at (20, 1)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"{(2**k + 1) ** d - 1} basis points"):
        verify_norming(d, 0.5, 0.5, k)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("d, k, message", [
    (2, -1, "k_max must be an integer >= 0, got -1"),
    (2, 1.5, "k_max must be an integer >= 0, got 1.5"),
    (2.7, 1, "d must be an integer >= 1, got 2.7"),
], ids=["negative-kmax", "fractional-kmax", "fractional-d"])
def test_verify_norming_rejects_counts_that_are_not_grid_sizes(d, k, message):
    # unchecked, k_max = -1 would pass with an empty grid and d = 2.7 would
    # check the d = 2 grid
    with pytest.raises(ValueError, match=message):
        verify_norming(d, 0.5, 0.5, k)


def dense(M, n):
    """The matrix of N rows of `_analysis_operator`'s S or A, held by its
    nonzero entries column by column, rows strictly ascending in each
    column: zero elsewhere."""
    starts, rows, values = M
    assert starts[0] == 0 and starts[-1] == len(rows) and values.all()
    cols = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    assert (np.diff(cols * n + rows) > 0).all()
    out = np.zeros((n, len(starts) - 1))
    out[rows, cols] = values
    return out


@pytest.mark.parametrize("d, k", [(1, 9), (2, 5), (3, 3), (4, 2), (7, 1)])
def test_analysis_operator_equals_the_per_point_oracle(d, k):
    """The array kernel builds the grid order, S and A bitwise equal to the
    per-point route: exact Fraction peels of each delta, rounded once."""
    for alpha in (0.25, 0.5, 0.7):
        grid, S_want, A_want = oracle_analysis_operator(d, k, alpha)
        # from a freshly built grid plan, then from the cached one
        for cold in (True, False):
            if cold:
                _grid_plan.cache_clear()
            plan = _grid_plan(d, k)
            S, A = _analysis_operator(plan, alpha)
            assert [DyadicPoint.from_fractions(map(F, c)) for c in plan.coords.tolist()] == grid
            n = len(plan.coords) - 1
            assert dense(S, n).tobytes() == S_want.tobytes(), (alpha, cold)
            assert dense(A, n).tobytes() == A_want.tobytes(), (alpha, cold)


def layout(M):
    """The nonzero entries of a dense matrix by columns, rows ascending:
    (starts, rows, values), the layout of the grid plan."""
    cols, rows = np.nonzero(M.T)
    return np.searchsorted(cols, np.arange(M.shape[1] + 1)), rows, M[rows, cols]


def sparse_pair(rng, n, r, m):
    """X (n, r) and Y (r, m) with small integer entries, so that every sum
    is exact, and with empty columns in X and in Y, a Y entry on the row of
    an empty X column, and a product sum that cancels to exactly 0."""
    X = rng.integers(-3, 4, (n, r)) * (rng.random((n, r)) < 0.4)
    Y = rng.integers(-3, 4, (r, m)) * (rng.random((r, m)) < 0.4)
    X[:, 0] = Y[:, 1] = 0
    Y[0, 2] = 5
    X[:, 1], X[:, 2] = 0, X[:, 3]
    X[0, 2] = X[0, 3] = 2
    Y[:, 4] = 0
    Y[2, 4], Y[3, 4] = 1, -1
    return X.astype(float), Y.astype(float)


@pytest.mark.parametrize("seed", range(6))
def test_sparse_products_equal_the_dense_product(seed):
    """The symbolic half of X Y orders the products X[row, r] Y[r, col] by
    the key col * n + row and, within a key, for each entry of Y in turn
    over the entries of column r of X, then the appended entries (the X and
    Y entries one past the end); the numeric half adds them up to the dense
    X @ Y at its keys, zeros elsewhere, plus the appended -1 * 1. A sum that
    cancels keeps its key with the value 0."""
    rng = np.random.default_rng(seed)
    n, r, m = rng.integers(5, 30, 3)
    X, Y = sparse_pair(rng, n, r, m)
    listed = [(col * n + row, X[row, k] * Y[k, col])
              for col in range(m) for k in np.flatnonzero(Y[:, col])
              for row in np.flatnonzero(X[:, k])]
    # appended: a key that has products, and one of the empty column 1 of Y
    appended = np.array([listed[0][0], 1 * n + 2])
    want = sorted(listed + [(k, -1.0) for k in appended.tolist()], key=lambda kv: kv[0])
    product, keys = _product_symbols(layout(X), layout(Y), n, appended)
    x_values, y_values = np.append(layout(X)[2], -1.0), np.append(layout(Y)[2], 1.0)
    counts = np.diff(np.append(product.starts, len(product.x)))
    got = zip(np.repeat(keys, counts).tolist(),
              (x_values[product.x] * y_values[product.y]).tolist())
    assert list(got) == want
    sums = _product_values(product, x_values, y_values)
    assert (np.diff(keys) > 0).all()
    got = np.zeros((m, n))
    got.ravel()[keys] = sums
    want = (X @ Y).T.copy()
    want.ravel()[appended] -= 1.0
    assert np.array_equal(got, want)
    assert 4 * n + 0 in keys.tolist() and sums[keys.tolist().index(4 * n)] == 0.0


def dense_residuals(S, A, n):
    """R = S A - E from the dense matrices, E the point evaluations."""
    return dense(S, n) @ dense(A, n) - np.eye(n, n + 1, 1)


def point_residuals(S, A):
    """The sup norms of the N + 1 columns of R = S A - E, both halves of
    the kernel in one call."""
    return _residual_sups(_residual_symbols(S, A), S, A)


def molecule_checks(coords, A, residuals, I, J, alpha, p):
    """The costs and residual bounds of the molecules at the pairs (I, J),
    their block built from the grid coordinates and A and then evaluated."""
    return _block_checks(_molecule_block(coords, A, I, J), A, residuals, alpha, p)


def drawn(A, rng):
    """A with the same nonzero pattern and its values drawn at random: an
    analysis that does not invert the synthesis, so R is of order 1."""
    starts, rows, values = A
    return starts, rows, rng.normal(size=len(values))


@pytest.mark.parametrize("d, k", [(1, 6), (2, 3), (3, 2), (5, 1)])
def test_point_residuals_equal_the_dense_product(d, k):
    """The column sup norms of R = S A - E summed from the nonzero entries
    equal those of the dense product: within a few units of the last place
    of 1 for the grid's own A, and within 1e-12 relative for a drawn A."""
    rng = np.random.default_rng([d, k])
    for alpha in (0.25, 0.5, 0.7):
        S, A = _analysis_operator(_grid_plan(d, k), alpha)
        n = len(S[0]) - 1
        got = point_residuals(S, A)
        want = np.abs(dense_residuals(S, A, n)).max(axis=0)
        assert got[0] == 0.0 and np.abs(got - want).max() <= 4 * np.finfo(float).eps
        A = drawn(A, rng)
        want = np.abs(dense_residuals(S, A, n)).max(axis=0)
        assert want.min(initial=1.0, where=np.arange(n + 1) > 0) > 1e-3
        assert point_residuals(S, A) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("d, k", [(1, 5), (2, 2), (3, 1)])
def test_molecule_residual_bounds_cover_the_synthesis(d, k):
    # with a drawn A, each pair's bound covers its residual scale (R_i - R_j)
    # from the dense product, and equals it on the origin's pairs (R_0 = 0)
    rng = np.random.default_rng([d, k])
    alpha, p = 0.5, 0.7
    coords = _grid_plan(d, k).coords
    S, A = _analysis_operator(_grid_plan(d, k), alpha)
    n = len(coords) - 1
    A = drawn(A, rng)
    R = dense_residuals(S, A, n)
    residuals = point_residuals(S, A)
    for I, J in _molecule_blocks(n + 1, 10**6):
        scale = 1.0 / np.abs(coords[J] - coords[I]).sum(axis=1) ** alpha
        direct = np.abs((R[:, I] - R[:, J]) * scale).max(axis=0)
        bounds = molecule_checks(coords, A, residuals, I, J, alpha, p)[1]
        assert (bounds >= direct * (1 - 1e-12)).all()
        assert bounds[I == 0] == pytest.approx(direct[I == 0], rel=1e-12)


def test_grid_basis_norms_equal_basis_norm_checks(basis_checks):
    """The class values of a grid (`_class_norms`), one per class (k, m) at
    k d + m - 1, and at each basis point its class's value is that of
    basis_norm_check, which reads the table of the point's own level,
    bitwise, the d = 3 fallback cost included; verify_norming reports
    their maximum and the bound."""
    fallback = 0
    for d, k in ORACLE_GRIDS:
        pts = basis_points(d, k)
        classes = [v.level * d + sum(n % 2 for n in v.nums) - 1 for v in pts]
        assert sorted(set(classes)) == list(range((k + 1) * d))
        for alpha in (0.25, 0.5, 0.7):
            for p in (0.3, 0.5, 0.8, 1.0):
                checks = basis_checks[d, k, alpha, p]
                want = [value for value, _ in checks]
                # from a freshly built class table, then from the cached one
                for cold in (True, False):
                    if cold:
                        _class_hosts.cache_clear()
                    got = _class_norms(d, k, alpha, p)[classes]
                    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want], (
                        d, k, alpha, p, cold)
                report = verify_norming(d, alpha, p, k)
                assert report["max_basis_norm"].hex() == max(want).hex()
                assert {report["basis_bound"]} == {bound for _, bound in checks}
            fallback += sum(basis_element(v, alpha).host.n > DEFAULT_CAP for v in pts)
    assert fallback


@pytest.mark.parametrize("d", [9, 10, 12])
def test_basis_norm_check_builds_no_host_beyond_the_cap(monkeypatch, d):
    """The level-1 centre point's class host has 2^d + 1 points, beyond the
    cap: its value is the fallback cost bitwise, and no host over the cap
    is built, neither for it nor for any other class of its table."""
    build = dyadic.l1_distances

    def capped(X):
        assert X.shape[-2] <= DEFAULT_CAP, f"a host of {X.shape[-2]} points was built"
        return build(X)

    monkeypatch.setattr(dyadic, "l1_distances", capped)
    _class_hosts.cache_clear()
    centre = DyadicPoint(1, (1,) * d)
    for alpha, p in ((0.25, 0.3), (0.5, 0.5), (0.7, 1.0)):
        value, bound = basis_norm_check(centre, alpha, p)
        assert value.hex() == _proof_cost(1, d, alpha, p).hex(), (alpha, p)
        assert bound == basis_bound(p, alpha, d)


def hexed(report):
    return {key: value.hex() if isinstance(value, float) else value for key, value in report.items()}


def plan_arrays(plan):
    return [plan.levels, plan.coords, *plan.synthesis, *plan.peel]


def symbol_arrays(plan):
    """The symbols of the plan's residual and first molecule block."""
    product, columns = plan.residual
    return [*product, columns, *plan.block[:3], *plan.block.product, plan.block.pair]


def class_arrays(table):
    hosts, fallback = table
    return [*(a for host in hosts for a in host), fallback]


def tree_arrays(tree):
    return [*tree.single, *(a for layer in tree.layers for a in layer)]


@pytest.mark.parametrize("d,k", [(1, 5), (2, 2), (3, 1), (1, 7), (2, 3), (3, 2)])
def test_grid_plan_is_reused_and_changes_nothing(monkeypatch, d, k):
    """Each report from a plan built by its own call, then each again from
    the plan the last of them left, with the point, neighbour and peel
    builders refused: the same fields, bit for bit."""
    pairs = ((0.35, 0.4), (0.5, 1.0), (0.9, 0.7))
    cold = {}
    for alpha, p in pairs:
        _grid_plan.cache_clear()
        cold[alpha, p] = hexed(verify_norming(d, alpha, p, k))

    def refuse(*args):
        raise AssertionError("a cached grid plan was rebuilt")

    for name in ("basis_points", "_coarse_neighbors", "_grid_peel"):
        monkeypatch.setattr(dyadic, name, refuse)
    for alpha, p in pairs:
        assert hexed(verify_norming(d, alpha, p, k)) == cold[alpha, p], (alpha, p)


@pytest.mark.parametrize("d,k", [(3, 1), (2, 3), (1, 7), (3, 2)])
def test_grid_plan_is_read_only(d, k):
    """No cached array can be written, the class table's and the index
    arrays of the tree program of each of its host sizes included, a
    verify_norming call leaves their bytes as they were, and no array is
    N x N: the tree programs' arrays are flat, of a size set by the hosts,
    not by N^2, and the first molecule block's product lists the entries of
    the two columns of A of each of its pairs, no more."""
    plan, table = _grid_plan(d, k), _class_hosts(d, k)
    trees = [
        _tree_program(weights.shape[1], weights.shape[1] + 1, len(classes))
        for classes, _, weights in table[0]
    ]
    tree_parts = [a for tree in trees for a in tree_arrays(tree)]
    arrays = plan_arrays(plan) + symbol_arrays(plan) + class_arrays(table) + tree_parts
    assert all(a.ndim == 1 for a in tree_parts) and len(tree_parts) > 8
    before = [a.tobytes() for a in arrays]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 1
    verify_norming(d, 0.5, 0.5, k)
    assert _grid_plan(d, k) is plan and _class_hosts(d, k) is table
    assert [a.tobytes() for a in arrays] == before
    n = len(plan.coords) - 1
    assert max(a.size for a in plan_arrays(plan) + class_arrays(table)) < n * n
    counts = np.diff(plan.peel[0])
    assert len(plan.block.product.x) == (counts[plan.block.I] + counts[plan.block.J]).sum()


def bits(a):
    return np.asarray(a).view(np.int64).tolist()


@pytest.mark.parametrize("d,k", [(1, 5), (2, 2), (3, 1), (2, 3), (2, 4)])
def test_plan_symbols_equal_the_one_shot_kernel(d, k):
    """The plan's alpha-free symbols, applied at alpha, give the one-shot
    kernel's residuals and first-block costs and bounds bitwise; and each
    report, with every pair or with a budget below the block width (which
    cuts the cached block), is the maximum over the one-shot blocks."""
    plan = _grid_plan(d, k)
    n_points = len(plan.coords)
    pairs = n_points * (n_points - 1) // 2
    width = max(n_points - 1, dyadic._BLOCK_ENTRIES // n_points)
    I, J = next(_molecule_blocks(n_points, pairs))
    assert bits(plan.block.I) == bits(I) and bits(plan.block.J) == bits(J)
    for alpha, p in ((0.35, 0.4), (0.5, 1.0), (0.9, 0.7), (0.25, 0.3)):
        S, A = _analysis_operator(plan, alpha)
        residuals = point_residuals(S, A)
        assert bits(_residual_sups(plan.residual, S, A)) == bits(residuals)
        got = _block_checks(plan.block, A, residuals, alpha, p)
        want = molecule_checks(plan.coords, A, residuals, I, J, alpha, p)
        assert [bits(a) for a in got] == [bits(a) for a in want], (alpha, p)
        for budget in (pairs, width // 3):
            blocks = [
                molecule_checks(plan.coords, A, residuals, I, J, alpha, p)
                for I, J in _molecule_blocks(n_points, budget)
            ]
            report = verify_norming(d, alpha, p, k, pair_budget=budget)
            assert report["max_molecule_cost"].hex() == max(c.max() for c, _ in blocks).hex()
            assert report["max_molecule_residual"].hex() == max(b.max() for _, b in blocks).hex()


def test_warm_single_block_call_runs_no_symbolic_half(monkeypatch):
    """On a grid whose pairs fit in one block, a warm call runs only the
    numeric half of each product, with the same report bit for bit; on a
    grid of five blocks the later blocks still run the symbolic half."""
    grids = ((1, 5), (2, 2), (3, 1))
    pairs = ((0.35, 0.4), (0.5, 1.0), (0.9, 0.7))
    cold = {(d, k, a, p): hexed(verify_norming(d, a, p, k)) for d, k in grids for a, p in pairs}
    verify_norming(2, 0.5, 0.5, 3)

    def refuse(*args):
        raise AssertionError("symbolic half in a warm call")

    monkeypatch.setattr(dyadic, "_product_symbols", refuse)
    for (d, k, alpha, p), report in cold.items():
        assert hexed(verify_norming(d, alpha, p, k)) == report, (d, k, alpha, p)
    with pytest.raises(AssertionError, match="symbolic half"):
        verify_norming(2, 0.5, 0.5, 3)


@pytest.mark.parametrize("d,k", [(1, 5), (2, 3)])
def test_a_budget_cuts_the_first_block(d, k):
    """Budgets of none, one, a third of the first block, the block and one
    pair more: each report is the maximum over the one-shot blocks of the
    budgeted pairs, by float.hex, and 0.0 for no pair; (2, 3) has five
    blocks."""
    plan = _grid_plan(d, k)
    n_points = len(plan.coords)
    pairs = n_points * (n_points - 1) // 2
    width = len(plan.block.I)
    for alpha, p in ((0.35, 0.4), (0.9, 0.7)):
        S, A = _analysis_operator(plan, alpha)
        residuals = point_residuals(S, A)
        for budget in (0, 1, width // 3, width, width + 1):
            blocks = [
                molecule_checks(plan.coords, A, residuals, I, J, alpha, p)
                for I, J in _molecule_blocks(n_points, budget)
            ]
            report = verify_norming(d, alpha, p, k, pair_budget=budget)
            cost = max((c.max() for c, _ in blocks), default=0.0)
            residual = max((b.max() for _, b in blocks), default=0.0)
            assert report["max_molecule_cost"].hex() == float(cost).hex(), (alpha, p, budget)
            assert report["max_molecule_residual"].hex() == float(residual).hex()
            assert report["complete"] == (budget >= pairs)


def test_warm_call_under_the_block_width_runs_no_symbolic_half(monkeypatch):
    """A budget below the width of the plan's first block cuts that block: a
    warm call builds no smaller block, so it runs no symbolic half, on a
    grid of one block and on one of five."""
    cases = [(d, k, budget) for d, k in ((1, 5), (2, 3)) for budget in (0, 1, 40)]
    cold = {case: hexed(verify_norming(case[0], 0.5, 0.7, case[1], case[2])) for case in cases}

    def refuse(*args):
        raise AssertionError("symbolic half in a warm call")

    monkeypatch.setattr(dyadic, "_product_symbols", refuse)
    for (d, k, budget), report in cold.items():
        assert budget < len(_grid_plan(d, k).block.I)
        assert hexed(verify_norming(d, 0.5, 0.7, k, budget)) == report, (d, k, budget)


@pytest.mark.parametrize("d,k", [(2, 3), (3, 2)])
def test_plan_points_equal_checked_points(monkeypatch, d, k):
    """A cold plan builds its points and their coarse neighbours with no
    checked constructor call, and each equals the checked point of its
    level and numerators, its hash too."""
    checked = DyadicPoint.__post_init__

    def refuse(self):
        raise AssertionError("a checked point in the grid plan")

    with monkeypatch.context() as patch:
        patch.setattr(DyadicPoint, "__post_init__", refuse)
        _grid_plan.cache_clear()
        _coarse_neighbors.cache_clear()
        _grid_plan(d, k)
        points = sorted_grid(d, k)
        neighbours = [u for v in points if v.level for u, _ in _coarse_neighbors(v)]
    assert DyadicPoint.__post_init__ is checked
    for v in points + neighbours:
        want = DyadicPoint(v.level, v.nums)
        assert v == want and hash(v) == hash(want)
        assert type(v.level) is int and all(type(n) is int for n in v.nums)
    # every numerator tuple of the grid, canonical or not
    for nums in product(range(2**k + 1), repeat=d):
        got, want = DyadicPoint._exact(k, nums), DyadicPoint(k, nums)
        assert (got.level, got.nums) == (want.level, want.nums) and hash(got) == hash(want)


def test_verify_norming_does_no_per_point_analysis(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-point analysis in verify_norming")

    def refuse_check(*args):
        raise AssertionError("distance check in verify_norming")

    for name in ("_peel", "molecule_l1"):
        monkeypatch.setattr(dyadic, name, refuse)
    # the class table expands each representative within the cap once
    expansions = []
    expand = dyadic._iota_expansion

    def counted(v, alpha):
        expansions.append(v)
        return expand(v, alpha)

    monkeypatch.setattr(dyadic, "_iota_expansion", counted)
    # the basis hosts are metrics by construction: no distance matrix is
    # checked, neither by a host's constructor nor by a stack check that
    # either module may hold
    monkeypatch.setattr(PointedFiniteMetric, "_validate", refuse_check)
    for module in (dyadic, metric):
        monkeypatch.setattr(module, "check_distances", refuse_check, raising=False)
    # (3, 1) has the centre point, whose host is beyond the cap: the fallback
    # cost runs too. A cold plan and class table read the grid's points and
    # their coarse neighbours once, and expand at most one representative
    # per class; a warm call reads no point and expands none
    _grid_plan.cache_clear()
    _class_hosts.cache_clear()
    for warm in (False, True):
        if warm:
            for name in ("basis_points", "_coarse_neighbors"):
                monkeypatch.setattr(dyadic, name, refuse)
        for d, k in ((2, 2), (3, 1)):
            expansions.clear()
            report = verify_norming(d, 0.5, 0.5, k)
            assert report["basis_ok"] and report["complete"]
            assert len(expansions) <= (0 if warm else (k + 1) * d), (d, k, warm)


@pytest.mark.parametrize("n_points", [2, 3, 10, 33])
def test_molecule_blocks_take_the_budgeted_pairs_in_order(monkeypatch, n_points):
    pairs = list(combinations(range(n_points), 2))
    # the blocks' entry budget: one run wide, a few runs wide, and the default
    for entries in (0, 100, dyadic._BLOCK_ENTRIES):
        monkeypatch.setattr(dyadic, "_BLOCK_ENTRIES", entries)
        width = max(n_points - 1, entries // n_points)
        for budget in (-1, 0, 1, 5, n_points, len(pairs) - 1, len(pairs), len(pairs) + 7):
            got = []
            for I, J in _molecule_blocks(n_points, budget):
                assert len(I) <= width
                got += zip(I.tolist(), J.tolist())
            assert got == pairs[: max(budget, 0)]


@pytest.mark.parametrize("d,k", [(1, 5), (2, 2), (3, 1), (1, 7), (2, 3), (3, 2)])
def test_molecule_checks_do_not_depend_on_the_blocks(monkeypatch, d, k):
    # each pair's cost and residual bound, bitwise, whether its run shares a
    # block with other runs (the origin's run included) or fills one of its own
    n_points = (2**k + 1) ** d
    starts = np.concatenate(([0], np.cumsum(np.arange(n_points - 1, 0, -1))))
    for alpha, p in ((0.35, 0.4), (0.5, 1.0), (0.9, 0.7)):
        coords = _grid_plan(d, k).coords
        S, A = _analysis_operator(_grid_plan(d, k), alpha)
        residuals = point_residuals(S, A)
        # all pairs, and a budget that cuts the fourth run in the middle
        for budget in (int(starts[-1]), int(starts[3]) + 2):
            single = []
            for i in range(n_points - 1):
                js = np.arange(i + 1, n_points)[: max(budget - int(starts[i]), 0)]
                if js.size:
                    I = np.full(js.size, i)
                    single.append(molecule_checks(coords, A, residuals, I, js, alpha, p))
            for entries in (dyadic._BLOCK_ENTRIES, 5 * n_points):
                with monkeypatch.context() as patch:
                    patch.setattr(dyadic, "_BLOCK_ENTRIES", entries)
                    blocks = [
                        molecule_checks(coords, A, residuals, I, J, alpha, p)
                        for I, J in _molecule_blocks(n_points, budget)
                    ]
                for r in (0, 1):  # costs, residual bounds
                    got = np.concatenate([b[r] for b in blocks])
                    want = np.concatenate([b[r] for b in single])
                    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def sorted_grid(d, k):
    return sorted(dyadic_grid(d, k), key=lambda q: (q.level, q.nums))


def ring(betas, n=0):
    """Peel weights as the exact coefficients beta_v X^(k - n), X = 2^-alpha."""
    return {v: PowSum({v.level - n: beta}) for v, beta in betas.items()}


@pytest.mark.parametrize("d,k", [(1, 9), (2, 5), (3, 3), (4, 2)])
def test_coarse_neighbors_match_the_oracle(d, k):
    # the same neighbours in the same order, with the same exact weights
    for v in sorted_grid(d, k):
        if v.level:
            got = _coarse_neighbors(v)
            assert got == oracle_coarse_neighbors(v), v
            assert all(type(weight) is Fraction for _, weight in got)


@pytest.mark.parametrize("d,k", [(1, 4), (2, 2), (3, 1)])
def test_molecules_match_face_induction_oracle(d, k):
    alpha = 0.35
    for u, v in combinations(sorted_grid(d, k), 2):
        for got, want in (
            (molecule_difference(u, v, alpha), oracle_difference(u, v, alpha)),
            (molecule_decompose(u, v, alpha), oracle_molecule(u, v, alpha)),
        ):
            assert set(got.coeffs) == set(want.coeffs)
            for key, c in want.coeffs.items():
                assert got.coeffs[key] == pytest.approx(c, rel=1e-12, abs=1e-12)
        assert ring(_peel({u: 1, v: -1})) == oracle_difference(u, v, exact=True).coeffs


@pytest.mark.parametrize("d,k", [(1, 3), (2, 2)])
@pytest.mark.parametrize("p", [0.4, 1.0])
def test_verify_norming_batch_matches_single_pairs(d, k, p):
    alpha = 0.45
    pairs = list(combinations(sorted_grid(d, k), 2))
    for budget in (3, 40, len(pairs)):
        report = verify_norming(d, alpha, p, k, pair_budget=budget)
        assert report["complete"] == (budget >= len(pairs))
        combs = [(u, v, molecule_decompose(u, v, alpha)) for u, v in pairs[:budget]]
        cost = max(comb.p_cost(p) for _, _, comb in combs)
        residual = max(
            reconstruction_residual(comb, molecule_target(u, v, alpha), alpha)
            for u, v, comb in combs
        )
        assert report["max_molecule_cost"] == pytest.approx(cost, rel=1e-12)
        assert report["max_molecule_residual"] == pytest.approx(residual, abs=1e-14)


def row_order_sum(c, p):
    """sum |c_i|^p over the nonzero entries of c, the powers added one by
    one in their order."""
    total = 0.0
    for power in (np.abs(c[c != 0]) ** p).tolist():
        total += power
    return total


@pytest.mark.parametrize("d,k", [(1, 5), (2, 2), (3, 1), (2, 3)])
def test_molecule_costs_are_coefficient_cost_bitwise(d, k):
    """The block costs are the p-cost of each pair's nonzero coefficients,
    their powers added in row order, bitwise; and within 1e-12 relative of
    the p-cost over the dense coefficient column, which sums the zeros too,
    pairwise."""
    for alpha, p in ((0.35, 0.4), (0.5, 1.0), (0.9, 0.7), (0.25, 0.3)):
        coords = _grid_plan(d, k).coords
        S, A = _analysis_operator(_grid_plan(d, k), alpha)
        residuals = point_residuals(S, A)
        Ad = dense(A, len(coords) - 1)
        for I, J in _molecule_blocks(len(coords), 10**6):
            C = Ad[:, I] - Ad[:, J]
            C *= 1.0 / np.abs(coords[J] - coords[I]).sum(axis=1) ** alpha
            assert (C == 0).mean() > 0.5  # most coefficients vanish
            got = molecule_checks(coords, A, residuals, I, J, alpha, p)[0]
            want = np.array([row_order_sum(c, p) for c in C.T]) ** (1.0 / p)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
            dense_cost = (np.abs(C) ** p).sum(axis=0) ** (1.0 / p)
            assert got == pytest.approx(dense_cost, rel=1e-12, abs=0)


def test_molecule_checks_match_single_pairs():
    # at alpha = 1/2, X^2 = 1/2 is rational, so the molecules from (1/4, 1/4)
    # to level-3 points have exactly zero coefficients where A[:, u] and
    # A[:, v] are both nonzero; only exact cancellation there keeps these
    # unpruned p = 0.4 costs equal to the single-pair route (a rounding-level
    # entry of 4e-17 would move them by about 3e-7 relative)
    alpha, p = 0.5, 0.4
    plan = _grid_plan(2, 3)
    S, A = _analysis_operator(plan, alpha)
    grid = sorted_grid(2, 3)
    i = grid.index(dp(F(1, 4), F(1, 4)))
    js = np.arange(i + 1, len(grid))
    costs, residuals = molecule_checks(
        plan.coords, A, point_residuals(S, A), np.full(js.size, i), js, alpha, p
    )
    for j, cost, residual in zip(js, costs, residuals):
        comb = molecule_decompose(grid[i], grid[j], alpha)
        assert cost == pytest.approx(comb.p_cost(p), rel=1e-12)
        target = molecule_target(grid[i], grid[j], alpha)
        assert residual == pytest.approx(
            reconstruction_residual(comb, target, alpha), abs=1e-14
        )


@pytest.mark.parametrize("d,k", [(1, 4), (2, 2), (3, 1)])
def test_step_matches_constructive_oracle(d, k):
    count = 0
    for v in sorted_grid(d, k):
        for axis in range(d):
            if v.coords()[axis] in (0, 1):
                continue  # level-0 coordinate, no step element there
            n, elem = step_element(v, axis)
            assert ring(_peel(elem), n) == oracle_step(v, axis, exact=True).coeffs
            for alpha in (0.35, 0.5):
                # float equality of the nonzero coefficients is bitwise
                assert step_expansion(v, axis, alpha) == oracle_step(v, axis, alpha)
            count += 1
    assert count


def hat_cases():
    """Every interval of levels 0..3 with every v of level <= 8 inside it."""
    for n in range(4):
        for i in range(2**n):
            for num in range(2 ** (8 - n) * i, 2 ** (8 - n) * (i + 1) + 1):
                yield F(i, 2**n), F(i + 1, 2**n), F(num, 256)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
def test_hat_matches_constructive_oracle(alpha):
    for u1, u2, v in hat_cases():
        assert hat_decompose(u1, u2, v, alpha) == oracle_hat(u1, u2, v, alpha)


def test_hat_rejects_points_outside_the_unit_interval():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        hat_decompose(1, 2, F(3, 2), 0.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        hat_decompose(-1, 0, F(-1, 2), 0.5)
