import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analysis_oracle import oracle_analysis_operator
from face_induction_oracle import (
    PowSum,
    oracle_coarse_neighbors,
    oracle_difference,
    oracle_hat,
    oracle_molecule,
    oracle_proof_cost,
    oracle_step,
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
    step_decompose,
    synthesize,
    verify_norming,
    _analysis_operator,
    _basis_l1,
    _coarse_neighbors,
    _grid_basis_norms,
    _grid_plan,
    _molecule_blocks,
    _molecule_checks,
    _peel,
    _proof_cost,
    _step_element,
)
from freep.freenorm import DEFAULT_CAP, _tree_program, coefficient_cost, exact_norm_small, exact_norms
from freep.metric import DyadicPoint, PointedFiniteMetric, dyadic_grid

F = Fraction


def step_target(v: DyadicPoint, axis: int, alpha: float) -> dict[DyadicPoint, float]:
    """Point expansion of the step element (origin entries dropped)."""
    n, elem = _step_element(v, axis)
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
    comb = step_decompose(dp(F(1, 2)), 0, 0.5)
    assert comb.coeffs == {dp(F(1, 2)): 1.0}
    assert reconstruction_residual(comb, step_target(dp(F(1, 2)), 0, 0.5), 0.5) <= 1e-12
    assert comb.p_cost(1.0) <= rho(1.0, 0.5)


def test_step_with_finer_coordinate_reconstructs():
    v = dp(F(1, 2), F(3, 8))  # axis-0 coordinate at level 1, axis-1 finer
    for alpha in (0.25, 0.5):
        comb = step_decompose(v, 0, alpha)
        assert reconstruction_residual(comb, step_target(v, 0, alpha), alpha) <= 1e-9


def test_step_cost_within_rho_power():
    for alpha, p in ((0.5, 1.0), (0.25, 0.5)):
        bound = rho(p, alpha) ** 2
        count = 0
        for v in dyadic_grid(2, 2):
            for axis in range(2):
                if v.coords()[axis] in (0, 1):
                    continue  # level-0 coordinate, no step element there
                comb = step_decompose(v, axis, alpha)
                assert comb.p_cost(p) <= bound + 1e-9
                count += 1
        assert count > 0


def test_step_rejects_level_zero_axis():
    with pytest.raises(ValueError, match="level 0"):
        step_decompose(dp(F(0), F(1, 2)), 0, 0.5)


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
    from freep.metric import coordinate_level

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
    assert exact_val <= _proof_cost(v, 0.5, 0.5) + 1e-9
    # the d = 3 centre point has all 8 corners as coarse neighbours, so its
    # host is beyond the exact-norm cap and the proof cost stands in
    centre = dp(F(1, 2), F(1, 2), F(1, 2))
    assert basis_element(centre, 0.5).host.n > DEFAULT_CAP
    value, bound = basis_norm_check(centre, 0.5, 0.5)
    assert value == _proof_cost(centre, 0.5, 0.5)
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


def test_batched_basis_norms_equal_one_host_norms(basis_checks):
    """basis_norm_check, which the grid batch is pinned to, is the exact norm
    of each element on its own host bitwise, beyond the cap the fallback
    cost of the exact oracle, paired with the basis bound."""
    exact = 0
    for d, k in ORACLE_GRIDS:
        pts = basis_points(d, k)
        for alpha in (0.25, 0.5, 0.7):
            elems = [basis_element(v, alpha) for v in pts]
            for p in (0.3, 0.5, 0.8, 1.0):
                bound = basis_bound(p, alpha, d)
                for v, e, (value, check_bound) in zip(pts, elems, basis_checks[d, k, alpha, p]):
                    if e.host.n <= DEFAULT_CAP:
                        expected, exact = exact_norm_small(e, p)[0], exact + 1
                    else:
                        expected = oracle_proof_cost(v, alpha, p)
                    assert value.hex() == expected.hex(), (v, alpha, p)
                    assert check_bound == bound
    assert exact > 3000  # 3,876 of the 3,984 checks run the tree program


PROOF_COST_GRIDS = ((1, 9), (2, 5), (3, 3), (4, 2), (5, 1))


def test_proof_cost_equals_the_exact_oracle_bitwise():
    """The float fallback cost, one double term repeated over the 2^m coarse
    neighbours, equals the term-by-term exact oracle on every basis point of
    five grids."""
    count = 0
    for d, k in PROOF_COST_GRIDS:
        for v in basis_points(d, k):
            for alpha in (0.25, 0.5, 0.7):
                for p in (0.3, 0.5, 0.8, 1.0):
                    got, want = _proof_cost(v, alpha, p), oracle_proof_cost(v, alpha, p)
                    assert got.hex() == want.hex(), (v, alpha, p)
                    count += 1
    assert count == 38_328


@pytest.mark.parametrize("d,k", [(3, 1), (2, 2), (1, 5)])
def test_verify_norming_runs_one_exact_norms_call_carrying_every_host(monkeypatch, d, k):
    """One exact_norms call per verify_norming call, whose host groups carry
    every basis host within the cap, one group per host size."""
    calls = []

    def counted(hosts, p):
        calls.append(sorted(dist.shape for dist, _ in hosts))
        return exact_norms(hosts, p)

    monkeypatch.setattr(dyadic, "exact_norms", counted)
    for alpha, p in ((0.5, 0.5), (0.7, 1.0)):
        verify_norming(d, alpha, p, k)
    sizes = Counter(basis_element(v, 0.5).host.n for v in basis_points(d, k))
    want = sorted((count, n, n) for n, count in sizes.items() if n <= DEFAULT_CAP)
    assert calls == [want, want]


def test_basis_distance_stack_equals_the_element_hosts():
    for d, k in ORACLE_GRIDS:
        for alpha in (0.25, 0.5, 0.7):
            by_size = {}
            for v in basis_points(d, k):
                host = basis_element(v, alpha).host
                by_size.setdefault(host.n, []).append(host)
            for hosts in by_size.values():
                stack = _basis_l1(np.array([host.points for host in hosts])) ** alpha
                for host, dist in zip(hosts, stack):
                    assert dist.tobytes() == host.dist.tobytes(), (host.points, alpha)


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
    # (2^k + 1)^d - 1 basis points: dense N x N matrices of 4.4 GB at (2, 7),
    # and 3.5e9 grid points to enumerate at (20, 1)
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


def dense(A, n):
    """The N x (N + 1) matrix of `_analysis_operator`'s A, held by its
    nonzero entries column by column: zero elsewhere."""
    starts, rows, values = A
    assert (np.diff(starts) >= 0).all() and values.all()
    out = np.zeros((n, n + 1))
    out[rows, np.repeat(np.arange(n + 1), np.diff(starts))] = values
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
            nums, S, A = _analysis_operator(d, k, alpha)
            assert [DyadicPoint(k, n) for n in nums.tolist()] == grid
            assert S.tobytes() == S_want.tobytes(), (alpha, cold)
            assert dense(A, len(S)).tobytes() == A_want.tobytes(), (alpha, cold)


def test_grid_basis_norms_equal_basis_norm_checks(basis_checks):
    """The hosts read off the synthesis columns give the values of
    basis_norm_check bitwise, the d = 3 fallback cost included, and
    verify_norming reports their maximum and the bound."""
    fallback = 0
    for d, k in ORACLE_GRIDS:
        pts = basis_points(d, k)
        for alpha in (0.25, 0.5, 0.7):
            nums, S, A = _analysis_operator(d, k, alpha)
            for p in (0.3, 0.5, 0.8, 1.0):
                checks = basis_checks[d, k, alpha, p]
                want = [value for value, _ in checks]
                # from a freshly built grid plan, then from the cached one
                for cold in (True, False):
                    if cold:
                        _grid_plan.cache_clear()
                    got = _grid_basis_norms(d, k, S, alpha, p)
                    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want], (
                        d, k, alpha, p, cold)
                report = verify_norming(d, alpha, p, k)
                assert report["max_basis_norm"].hex() == max(want).hex()
                assert {report["basis_bound"]} == {bound for _, bound in checks}
            fallback += sum(basis_element(v, alpha).host.n > DEFAULT_CAP for v in pts)
    assert fallback


def hexed(report):
    return {key: value.hex() if isinstance(value, float) else value for key, value in report.items()}


def plan_arrays(plan):
    return [
        plan.nums, plan.levels, plan.coords, *plan.synthesis, *plan.peel, *plan.peel_columns,
        *(a for host in plan.hosts for a in host), plan.fallback[0],
    ]


def tree_arrays(tree):
    return [
        *tree.single, tree.terminal_rows, *tree.hop, tree.roots,
        *(a for layer in tree.layers for a in layer[:-1]),
    ]


@pytest.mark.parametrize("d,k", [(1, 5), (2, 2), (3, 1), (1, 7), (2, 3), (3, 2)])
def test_grid_plan_is_reused_and_changes_nothing(monkeypatch, d, k):
    """Each report from a plan built by its own call, then each again from
    the plan the last of them left, with the grid, neighbour and peel
    builders refused: the same fields, bit for bit."""
    pairs = ((0.35, 0.4), (0.5, 1.0), (0.9, 0.7))
    cold = {}
    for alpha, p in pairs:
        _grid_plan.cache_clear()
        cold[alpha, p] = hexed(verify_norming(d, alpha, p, k))

    def refuse(*args):
        raise AssertionError("a cached grid plan was rebuilt")

    for name in ("_grid", "_coarse_triplets", "_grid_peel"):
        monkeypatch.setattr(dyadic, name, refuse)
    for alpha, p in pairs:
        assert hexed(verify_norming(d, alpha, p, k)) == cold[alpha, p], (alpha, p)


@pytest.mark.parametrize("d,k", [(3, 1), (2, 3), (1, 7), (3, 2)])
def test_grid_plan_is_read_only(d, k):
    """No cached array can be written, the tree program's index arrays
    included, a verify_norming call leaves the plan's bytes as they were,
    and no array is N x N: the tree program's arrays are flat, of a size
    set by the hosts, not by N^2."""
    plan = _grid_plan(d, k)
    assert plan.tree is _tree_program(
        tuple((rows.shape[1], rows.shape[1] + 1, len(cols)) for cols, rows, _ in plan.hosts)
    )
    arrays = plan_arrays(plan) + tree_arrays(plan.tree)
    assert all(a.ndim == 1 for a in tree_arrays(plan.tree)) and len(tree_arrays(plan.tree)) > 8
    before = [a.tobytes() for a in arrays]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 1
    verify_norming(d, 0.5, 0.5, k)
    assert _grid_plan(d, k) is plan
    assert [a.tobytes() for a in arrays] == before
    n = len(plan.nums) - 1
    assert max(a.size for a in plan_arrays(plan)) < n * n


def test_verify_norming_does_no_per_point_analysis(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-point analysis in verify_norming")

    def refuse_check(*args):
        raise AssertionError("distance check in verify_norming")

    for name in ("_peel", "_iota_expansion", "_coarse_neighbors", "molecule_l1"):
        monkeypatch.setattr(dyadic, name, refuse)
    # the basis hosts are metrics by construction: no distance matrix is
    # checked, neither by a host's constructor nor by a stack check that
    # either module may hold
    monkeypatch.setattr(PointedFiniteMetric, "_validate", refuse_check)
    for module in (dyadic, metric):
        monkeypatch.setattr(module, "check_distances", refuse_check, raising=False)
    # (3, 1) has the centre point, whose host is beyond the cap: the fallback
    # cost runs too
    for d, k in ((2, 2), (3, 1)):
        report = verify_norming(d, 0.5, 0.5, k)
        assert report["basis_ok"] and report["complete"]


@pytest.mark.parametrize("n_points", [2, 3, 10, 33])
def test_molecule_blocks_take_the_budgeted_pairs_in_order(monkeypatch, n_points):
    pairs = list(combinations(range(n_points), 2))
    # the blocks' entry budget: one run wide, a few runs wide, and the default
    for entries in (0, 100, dyadic._BLOCK_ENTRIES):
        monkeypatch.setattr(dyadic, "_BLOCK_ENTRIES", entries)
        width = max(n_points - 1, entries // n_points)
        for budget in (-1, 0, 1, 5, n_points, len(pairs) - 1, len(pairs), len(pairs) + 7):
            got = []
            for I, J, cuts in _molecule_blocks(n_points, budget):
                assert len(I) <= width
                assert cuts[0] == 0 and cuts[-1] == len(I)
                # whole runs of one first point: only the budget cuts the last one
                for a, b in zip(cuts, cuts[1:]):
                    assert (I[a:b] == I[a]).all() and J[a] == I[a] + 1
                    assert J[b - 1] == n_points - 1 or len(got) + b == budget
                assert all(I[b - 1] < I[b] for b in cuts[1:-1])
                got += zip(I.tolist(), J.tolist())
            assert got == pairs[: max(budget, 0)]


@pytest.mark.parametrize("d,k", [(1, 5), (2, 2), (3, 1), (1, 7), (2, 3), (3, 2)])
def test_molecule_checks_do_not_depend_on_the_blocks(monkeypatch, d, k):
    # each pair's cost and residual, bitwise, whether its run shares a block
    # with other runs (the origin's run included) or fills one of its own
    n_points = (2**k + 1) ** d
    starts = np.concatenate(([0], np.cumsum(np.arange(n_points - 1, 0, -1))))
    for alpha, p in ((0.35, 0.4), (0.5, 1.0), (0.9, 0.7)):
        nums, S, A = _analysis_operator(d, k, alpha)
        coords = nums / 2.0**k
        # all pairs, and a budget that cuts the fourth run in the middle
        for budget in (int(starts[-1]), int(starts[3]) + 2):
            single = []
            for i in range(n_points - 1):
                js = np.arange(i + 1, n_points)[: max(budget - int(starts[i]), 0)]
                if js.size:
                    I = np.full(js.size, i)
                    single.append(_molecule_checks(coords, S, A, I, js, [0, js.size], alpha, p))
            for entries in (dyadic._BLOCK_ENTRIES, 5 * n_points):
                with monkeypatch.context() as patch:
                    patch.setattr(dyadic, "_BLOCK_ENTRIES", entries)
                    blocks = [
                        _molecule_checks(coords, S, A, I, J, cuts, alpha, p)
                        for I, J, cuts in _molecule_blocks(n_points, budget)
                    ]
                for r in (0, 1):  # costs, residuals
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


@pytest.mark.parametrize("d,k", [(1, 5), (2, 2), (3, 1), (2, 3)])
def test_molecule_costs_are_coefficient_cost_bitwise(d, k):
    """The block costs, |c|^p taken at the nonzero coefficients only, equal
    coefficient_cost over the dense coefficient columns bitwise."""
    for alpha, p in ((0.35, 0.4), (0.5, 1.0), (0.9, 0.7), (0.25, 0.3)):
        nums, S, A = _analysis_operator(d, k, alpha)
        coords = nums / 2.0**k
        Ad = dense(A, len(S))
        for I, J, cuts in _molecule_blocks(len(nums), 10**6):
            C = np.asfortranarray(Ad[:, I])
            C -= Ad[:, J]
            C *= 1.0 / np.abs(coords[J] - coords[I]).sum(axis=1) ** alpha
            want = coefficient_cost(C, p, axis=0)
            assert (C == 0).mean() > 0.5  # most coefficients vanish
            got = _molecule_checks(coords, S, A, I, J, cuts, alpha, p)[0]
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_molecule_checks_match_single_pairs():
    # at alpha = 1/2, X^2 = 1/2 is rational, so the molecules from (1/4, 1/4)
    # to level-3 points have exactly zero coefficients where A[:, u] and
    # A[:, v] are both nonzero; only exact cancellation there keeps these
    # unpruned p = 0.4 costs equal to the single-pair route (a rounding-level
    # entry of 4e-17 would move them by about 3e-7 relative)
    alpha, p = 0.5, 0.4
    nums, S, A = _analysis_operator(2, 3, alpha)
    grid = [DyadicPoint(3, n) for n in nums.tolist()]
    i = grid.index(dp(F(1, 4), F(1, 4)))
    js = np.arange(i + 1, len(grid))
    costs, residuals = _molecule_checks(
        nums / 8, S, A, np.full(js.size, i), js, [0, js.size], alpha, p
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
            n, elem = _step_element(v, axis)
            assert ring(_peel(elem), n) == oracle_step(v, axis, exact=True).coeffs
            for alpha in (0.35, 0.5):
                # float equality of the nonzero coefficients is bitwise
                assert step_decompose(v, axis, alpha) == oracle_step(v, axis, alpha)
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
