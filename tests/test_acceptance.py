"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred."""

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from constants_oracle import c_const_sup_oracle
from retraction_oracle import translate_element
from test_helpers import max_weight_diff

from freep.constants import c_const, retraction_bounds, rho, tau
from freep.cubes import CubeComplex, lambda_support, lambda_weight
from freep.dyadic import (
    BasisCombination,
    analyze,
    basis_norm_check,
    basis_points,
    hat_decompose,
    line_path,
    molecule_decompose,
    molecule_target,
    reconstruction_residual,
    synthesize,
    verify_norming,
)
from freep.freenorm import (
    FreeElement,
    dual_lower_bound,
    evaluate,
    exact_norm_p1,
    exact_norm_small,
    p_cost,
    upper_bound_from,
)
from freep.metric import coordinate_level, dyadic_grid, l1_space, lattice_l1_space
from freep.retraction import (
    build_context,
    lipschitz_upper_decomposition,
    lower_bound_witness,
    retract,
)

F = Fraction


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {label}")
        raise
    print(f"[criterion {number:02d}] PASS  {label}")


def test_criterion_01_constant_formula():
    with criterion(1, "sup oracle matches n^(1/p-1) within 1e-3"):
        for p in (1.0, 0.75, 0.5, 0.25):
            for n in range(1, 17):
                got = c_const_sup_oracle(p, n, 10**4)
                assert abs(got - c_const(p, n)) <= 1e-3, (p, n, got)


COMPLEXES = (
    CubeComplex(d=1, R=1.0, offsets=((0,), (1,), (2,), (3,))),
    CubeComplex(d=2, R=1.0, offsets=((0, 0),)),
    CubeComplex(d=2, R=1.0, offsets=((0, 0), (1, 0), (1, 1), (2, 1))),
    CubeComplex(d=3, R=1.0, offsets=((0, 0, 0), (1, 0, 0))),
)


def test_criterion_02_vertex_weight_properties():
    with criterion(2, "partition of unity 1e-12, Kronecker exact (1e4 points)"):
        rng = np.random.default_rng(2024)
        per_complex = 10**4 // len(COMPLEXES) + 1
        for complex in COMPLEXES:
            offsets = np.array(complex.offsets, dtype=float)
            for _ in range(per_complex):
                w = offsets[rng.integers(len(offsets))]
                x = complex.R * (w + rng.random(complex.d))
                total = sum(wt for _, wt in lambda_support(complex, x))
                assert abs(total - 1.0) <= 1e-12
            for v in complex.vertices():
                coords = complex.R * np.array(v, dtype=float)
                for u in complex.vertices():
                    expected = 1.0 if u == v else 0.0
                    assert lambda_weight(complex, u, coords) == expected


def test_criterion_03_p1_oracle_equivalence():
    with criterion(3, "min-cost flow equals enumeration on 100 random spaces"):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            pts = rng.random((n, 2)) * 3
            while len({tuple(r) for r in pts}) < n:
                pts = rng.random((n, 2)) * 3
            space = l1_space(pts, base=0)
            m = FreeElement(
                space, {i: float(rng.normal()) for i in range(1, n) if rng.random() < 0.85}
            )
            v_flow, _ = exact_norm_p1(m)
            v_enum, _ = exact_norm_small(m, 1.0)
            assert abs(v_flow - v_enum) <= 1e-7


def test_criterion_04_witness_value():
    with criterion(4, "witness dual and upper bounds equal C(p, 2^(d-1)) to 1e-9"):
        for d in (1, 2, 3):
            for p in (1.0, 0.75, 0.5):
                res = lower_bound_witness(d, p)
                target = c_const(p, 2 ** (d - 1))
                lower = dual_lower_bound(res.element, p, res.certificate)
                upper = upper_bound_from(res.element, p, res.upper_decomposition)
                assert abs(lower - target) <= 1e-9, (d, p, lower, target)
                assert abs(upper - target) <= 1e-9, (d, p, upper, target)


def test_criterion_05_upper_bound_sampling():
    with criterion(5, "1e3 seeded pairs per configuration within the upper constant"):
        for cfg_idx, complex in enumerate(COMPLEXES):
            d = complex.d
            offsets = np.array(complex.offsets, dtype=float)
            ctx = build_context(complex)
            for p in (1.0, 0.5):
                _, upper = retraction_bounds(p, d)
                rng = np.random.default_rng(500 + cfg_idx)
                for _ in range(10**3):
                    wa = offsets[rng.integers(len(offsets))]
                    wb = offsets[rng.integers(len(offsets))]
                    x = complex.R * (wa + rng.random(d))
                    y = complex.R * (wb + rng.random(d))
                    l1 = float(np.abs(x - y).sum())
                    dec = lipschitz_upper_decomposition(ctx, x, y)
                    assert p_cost(dec, p) <= upper * l1 * (1 + 1e-9)
                    m = retract(ctx, x) - retract(ctx, y)
                    assert max_weight_diff(evaluate(dec), m) <= 1e-9


def _hat_residual(v, alpha, dec):
    acc = {}

    def add(pos, c):
        acc[pos] = acc.get(pos, 0.0) + c

    add(F(0), dec.mu1)
    add(F(1), dec.mu2)
    for t in dec.terms:
        h = F(1, 2**t.level)
        s = 2.0 ** (t.level * alpha)
        add(t.position, t.nu * s)
        add(t.position - h, -0.5 * t.nu * s)
        add(t.position + h, -0.5 * t.nu * s)
    add(v, -1.0)
    return max(abs(c) for c in acc.values())


def test_criterion_06_hat_reconstruction_and_cost():
    with criterion(6, "hat expansion exact to 1e-9 with certified cost, levels <= 10"):
        points = [F(k, 2**10) for k in range(2**10 + 1)]
        for alpha in (0.25, 0.5, 0.75):
            decs = [(v, hat_decompose(0, 1, v, alpha)) for v in points]
            for v, dec in decs:
                assert _hat_residual(v, alpha, dec) <= 1e-9
            for p in (1.0, 0.5):
                bound = 2 ** (-alpha) * (1 / (1 - 2 ** (-p * alpha))) ** (1 / p)
                for v, dec in decs:
                    cost = (
                        sum(t.nu**p for t in dec.terms) ** (1 / p) if dec.terms else 0.0
                    )
                    assert cost <= bound + 1e-9, (v, alpha, p, cost)


def test_criterion_07_path_properties():
    with criterion(7, "mesh-adjacent paths satisfy endpoints, gaps, strict bound"):
        pts = [F(k, 256) for k in range(257)]
        combos = [(1.0, 0.5), (0.5, 0.25), (0.5, 0.75)]
        for i in range(257):
            for j in range(i + 1, 257):
                u, v = pts[i], pts[j]
                path = line_path(u, v)
                assert path[0] == u and path[-1] == v
                gaps = []
                for a, b in zip(path, path[1:]):
                    gap = b - a
                    assert gap > 0 and gap.numerator == 1
                    k = coordinate_level(gap)
                    assert (a * 2**k).denominator == 1
                    assert (b * 2**k).denominator == 1
                    gaps.append(float(gap))
                gaps = np.array(gaps)
                dist = float(v - u)
                for p, alpha in combos:
                    cost = (gaps ** (p * alpha)).sum() ** (1 / p)
                    strict = 2 ** (1 / p) * (1 / (1 - 2 ** (-p * alpha))) ** (1 / p)
                    assert cost < strict * dist**alpha


def test_criterion_08_molecules_and_basis_at_desk_scale():
    with criterion(8, "molecule costs within tau^d rho^d, basis norms within bound"):
        for d in (1, 2):
            grid = sorted(dyadic_grid(d, 2), key=lambda q: (q.level, q.nums))
            pairs = list(combinations(grid, 2))
            for alpha in (0.25, 0.5):
                decs = {}
                for u, v in pairs:
                    comb = molecule_decompose(u, v, alpha)
                    resid = reconstruction_residual(comb, molecule_target(u, v, alpha), alpha)
                    assert resid < 1e-9, (u, v, resid)
                    decs[(u, v)] = comb
                for p in (1.0, 0.5):
                    molecule_bound = tau(p, alpha, d) ** d * rho(p, alpha) ** d
                    for pair, comb in decs.items():
                        assert comb.p_cost(p) <= molecule_bound, (pair, alpha, p)
                    basis_bound = float(d) ** alpha * c_const(p, 2**d)
                    for v in basis_points(d, 3):
                        value, bound = basis_norm_check(v, alpha, p)
                        assert bound == pytest.approx(basis_bound, rel=1e-12)
                        assert value <= bound + 1e-9, (v, alpha, p, value)
                    report = verify_norming(d, alpha, p, 2)
                    assert report["bm_bound"] == pytest.approx(
                        c_const(p, 2**d) * rho(p, alpha) ** d * tau(p, alpha, d) ** d,
                        rel=1e-12,
                    )
                    assert report["complete"]


def test_criterion_09_symmetries():
    with criterion(9, "rescaling equality and translation covariance to 1e-9"):
        rng = np.random.default_rng(900)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            pts = sorted({tuple(int(c) for c in rng.integers(0, 3, size=d)) for _ in range(5)})
            space = lattice_l1_space(pts, 1.0, base=0)
            m = FreeElement(space, {i: float(rng.normal()) for i in range(1, len(pts))})
            R = float(rng.integers(1, 4))
            shift = tuple(int(c) for c in rng.integers(-2, 3, size=d))
            from retraction_oracle import rescale_check

            lhs, rhs = rescale_check(m, R, shift, 0.5)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

        complexes = {
            1: CubeComplex(d=1, R=1.0, offsets=((0,), (1,), (2,))),
            2: CubeComplex(d=2, R=1.0, offsets=((0, 0), (1, 0), (2, 0))),
            3: CubeComplex(d=3, R=1.0, offsets=((0, 0, 0), (1, 0, 0), (2, 0, 0))),
        }
        for _ in range(50):
            d = int(rng.integers(1, 4))
            ctx = build_context(complexes[d])
            x = np.array([rng.random() for _ in range(d)])
            s = np.zeros(d)
            s[0] = float(rng.integers(1, 3))
            lhs = retract(ctx, x + s)
            rhs = translate_element(ctx, retract(ctx, x), s)
            assert max_weight_diff(lhs, rhs) <= 1e-9


def test_criterion_10_round_trip():
    with criterion(10, "analyze then synthesize is the identity on 100 combinations"):
        rng = np.random.default_rng(1000)
        for trial in range(100):
            d = 1 if trial % 2 == 0 else 2
            pts = basis_points(d, 3)
            size = int(rng.integers(1, 7))
            sel = rng.choice(len(pts), size=size, replace=False)
            coeffs = {pts[i]: float(rng.normal()) for i in sel}
            alpha = float(rng.uniform(0.15, 0.85))
            m = synthesize(BasisCombination(dict(coeffs)), alpha)
            back = analyze(m, alpha)
            keys = set(back.coeffs) | set(coeffs)
            resid = max(
                abs(back.coeffs.get(k, 0.0) - coeffs.get(k, 0.0)) for k in keys
            )
            assert resid < 1e-9
