import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from enum_oracle import ORACLE_CAP, enumeration_norm
from hypothesis import given, settings
from hypothesis import strategies as st
from lp_oracle import lp_norm_p1
from test_helpers import max_weight_diff
from transport_oracle import ssp_transport
from tree_oracle import matrix_witness, oracle_splits, oracle_tree_norm

import freep
from freep import freenorm
from freep.cli import main
from freep.constants import P_FLOOR
from freep.freenorm import (
    COEFF_TOL,
    EVAL_TOL,
    CertificateError,
    Decomposition,
    DualCertificate,
    FreeElement,
    Molecule,
    dual_lower_bound,
    evaluate,
    exact_norm_p1,
    exact_norm_small,
    exact_norms,
    p_cost,
    parse_element,
    _cancel_cycles,
    _flow_cost,
    _forest_witness,
    _has_cycle,
    _subset_program,
    _transport,
    _tree_program,
    upper_bound_from,
)
from freep.metric import PointedFiniteMetric, holder_distort, l1_space
from freep.retraction import vertex_indicator_certificate


def three_point_space():
    # base 0, d(0,A)=1, d(0,B)=2, d(A,B)=1.2
    D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.2], [2.0, 1.2, 0.0]])
    return PointedFiniteMetric(("0", "A", "B"), 0, D)


def unit_molecule(s, x, y):
    """The element (delta(x) - delta(y)) / d(x, y) of the molecule at x, y."""
    inv = 1.0 / s.distance(x, y)
    return FreeElement(s, {x: inv, y: -inv})


def random_space(rng, n):
    pts = rng.random((n, 2)) * 3
    while len({tuple(r) for r in pts}) < n:
        pts = rng.random((n, 2)) * 3
    return l1_space(pts, base=0)


def random_element(rng, space):
    w = {i: float(rng.normal()) for i in range(1, space.n) if rng.random() < 0.85}
    return FreeElement(space, w)


ONE_SIDED = ("positive", "negative", "one positive")


def one_sided_element(rng, space, pattern, dyadic=False):
    """An element whose transport has one supply or one demand point: all
    weights positive (the base the one demand), all negative (the base the
    one supply), or one positive point outweighing the negatives around it
    (that point the one supply, the base a demand). Dyadic weights on a
    lattice host tie in cost and in amount."""
    support = [i for i in range(1, space.n) if rng.random() < 0.85] or [1]
    mag = rng.integers(1, 5, len(support)) / 4 if dyadic else np.abs(rng.normal(size=len(support))) + 1e-3
    w = dict(zip(support, -mag if pattern != "positive" else mag))
    if pattern == "one positive" and len(support) > 1:
        lone = support[int(rng.integers(len(support)))]
        w[lone] = -sum(w.values()) + 2 * abs(w[lone])
    return FreeElement(space, {i: float(x) for i, x in w.items()})


def induced(m, subset):
    """m over the subspace its host induces on `subset`, as its own host.

    The base stays the base when the subset holds it; otherwise the first
    subset point is the base, and m must sum to zero to be the same element.
    """
    subset, host = sorted(int(i) for i in subset), m.host
    base = subset.index(host.base) if host.base in subset else 0
    sub = PointedFiniteMetric([host.points[i] for i in subset], base, host.dist[np.ix_(subset, subset)])
    return FreeElement(sub, {subset.index(i): w for i, w in m.weights.items()})


def test_element_normalizes_base_and_zeros():
    s = three_point_space()
    m = FreeElement(s, {0: 5.0, 1: 0.0, 2: 2.0})
    assert m.weights == {2: 2.0}


def test_element_rejects_non_finite_weights():
    s = three_point_space()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"weight {bad!r} at point index 2 is not finite"):
            FreeElement(s, {1: 1.0, 2: bad})


def test_evaluate_examples():
    s = three_point_space()
    assert evaluate(Decomposition(s, ())).is_zero()
    mol = Molecule(s, 1, 2)
    m = evaluate(Decomposition(s, ((mol.distance, mol),)))
    assert m.weights == pytest.approx({1: 1.0, 2: -1.0})
    cancel = Decomposition(s, ((0.7, mol), (-0.7, mol)))
    assert evaluate(cancel).is_zero()


def test_evaluate_rejects_mixed_hosts():
    s1, s2 = three_point_space(), three_point_space()
    with pytest.raises(ValueError, match="different hosts"):
        evaluate(Decomposition(s1, ((1.0, Molecule(s2, 1, 2)),)))


def test_p_cost_examples():
    s = three_point_space()
    mol = Molecule(s, 1, 2)
    assert p_cost(Decomposition(s, ((1.0, mol),)), 0.5) == 1.0
    two = Decomposition(s, ((0.5, mol), (0.5, Molecule(s, 0, 1))))
    assert p_cost(two, 0.5) == pytest.approx(2.0)
    assert p_cost(Decomposition(s, ((3.0, mol), (4.0, mol))), 1.0) == pytest.approx(7.0)


def test_exact_norm_p1_examples():
    s = three_point_space()
    value, witness = exact_norm_p1(FreeElement(s, {1: 1.0}))
    assert value == pytest.approx(1.0, abs=1e-9)
    assert max_weight_diff(evaluate(witness), FreeElement(s, {1: 1.0})) < 1e-9

    mol = unit_molecule(s, 1, 2)
    value, _ = exact_norm_p1(mol)
    assert value == pytest.approx(1.0, abs=1e-9)

    value, _ = exact_norm_p1(FreeElement(s, {1: 1.0, 2: 1.0}))
    assert value == pytest.approx(3.0, abs=1e-9)


def test_exact_norm_small_two_point_isometry():
    s = l1_space([(0.0,), (0.7,)])
    m = FreeElement(s, {1: 1.0})
    for p in (1.0, 0.5, 0.25):
        value, witness = exact_norm_small(m, p)
        assert value == pytest.approx(0.7, abs=1e-9)
        assert upper_bound_from(m, p, witness) == pytest.approx(value, abs=1e-9)
        value2, _ = exact_norm_small(-2.5 * m, p)
        assert value2 == pytest.approx(2.5 * 0.7, abs=1e-9)


def test_exact_norm_small_square_witness_value():
    # unit square vertices under l1; spread element over the two vertical edges
    s = l1_space([(0, 0), (0, 1), (1, 0), (1, 1)], base=0)
    m = FreeElement(s, {1: 0.5, 3: 0.5, 2: -0.5})  # (0,1),(1,1) up, (1,0) down
    value, _ = exact_norm_small(m, 0.5)
    assert value == pytest.approx(2.0, abs=1e-9)


def test_exact_norm_cap_error():
    s = l1_space([(float(i), float(i) ** 2) for i in range(9)])
    with pytest.raises(ValueError, match="8 support points plus the base.*bound"):
        exact_norm_small(FreeElement(s, {i: 1.0 for i in range(1, 9)}), 0.5)


def test_exact_norm_cap_counts_terminals_not_host_points():
    s = l1_space([(float(i),) for i in range(9)])
    value, witness = exact_norm_small(FreeElement(s, {1: 1.0}), 0.5)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert len(witness.terms) == 1


def test_exact_norm_p1_matches_lp_oracle():
    rng = np.random.default_rng(1972)
    sizes = [n for n in range(2, 13) for _ in range(3)] + [20, 40, 80, 200]
    for draw, n in enumerate(sizes):
        for kind in ("plain", "holder", "lattice", "one-sided"):
            if kind == "lattice":
                s = lattice_space(rng, n)
                # dyadic weights on a lattice: ties in cost and in amount
                m = FreeElement(s, {i: int(rng.integers(-4, 5)) / 4 for i in range(1, n)})
            elif kind == "one-sided":
                # the forced flow: one supply or one demand point
                dyadic = bool(draw // len(ONE_SIDED) % 2)
                s = lattice_space(rng, n) if dyadic else random_space(rng, n)
                m = one_sided_element(rng, s, ONE_SIDED[draw % len(ONE_SIDED)], dyadic)
            else:
                s = random_space(rng, n)
                if kind == "holder":
                    s = holder_distort(s, float(rng.choice([0.3, 0.5, 0.7])))
                m = random_element(rng, s)
            value, witness = exact_norm_p1(m)
            want, _ = lp_norm_p1(m)
            assert value == pytest.approx(want, rel=1e-12, abs=1e-15), (n, kind)
            assert_optimal_forest(m, 1.0, value, witness, range(n))


def touches_base(witness):
    return any(witness.host.base in (mol.x, mol.y) for _, mol in witness.terms)


def test_exact_norm_p1_edge_cases():
    s = l1_space([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 0.5)], base=0)
    value, witness = exact_norm_p1(FreeElement(s, {}))
    assert value == 0.0 and witness.terms == ()

    # the total is 0: the base carries nothing
    m = FreeElement(s, {1: 1.0, 3: -1.0})
    value, witness = exact_norm_p1(m)
    assert value == pytest.approx(1.5, rel=1e-15)
    assert not touches_base(witness)
    assert_optimal_forest(m, 1.0, value, witness, range(s.n))

    # the total 5.6e-17 is rounding: no molecule to the base
    m = FreeElement(s, {1: 0.1, 2: 0.2, 3: -0.3})
    value, witness = exact_norm_p1(m)
    assert value == pytest.approx(lp_norm_p1(m)[0], rel=1e-12)
    assert not touches_base(witness)
    assert_optimal_forest(m, 1.0, value, witness, range(s.n))

    # a one-point support is one molecule to the base
    for w in (0.75, -2.0):
        m = FreeElement(s, {2: w})
        value, witness = exact_norm_p1(m)
        assert value == pytest.approx(2.0 * abs(w), rel=1e-15)
        assert [sorted((mol.x, mol.y)) for _, mol in witness.terms] == [[0, 2]]
        assert_optimal_forest(m, 1.0, value, witness, range(s.n))


def test_forced_flow_ships_nearest_first():
    # one supply point of 0.6 for demands 0.1, 0.2, 0.3 (costs 3, 2, 1): after
    # 0.3 and 0.2 it has 0.6 - 0.3 - 0.2 = 0.09999999999999998 left, and that
    # rounding-level shortfall lands on the farthest partner, as in successive
    # shortest paths; the same holds with one demand point
    C, amounts, total = np.array([[3.0, 2.0, 1.0]]), np.array([0.1, 0.2, 0.3]), np.array([0.6])
    want = [0.09999999999999998, 0.2, 0.3]
    assert _transport(C, total, amounts, 1e-15) == {(0, j): w for j, w in enumerate(want)}
    assert _transport(C.T, amounts, total, 1e-15) == {(i, 0): w for i, w in enumerate(want)}


def test_exact_norm_p1_flow_cap(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(freenorm, "FLOW_CAP", 5)
    s = l1_space([(float(i),) for i in range(6)])
    with pytest.raises(ValueError, match=r"^host has 6 points, beyond the flow cap 5$"):
        exact_norm_p1(FreeElement(s, {1: 1.0}))
    assert exact_norm_p1(FreeElement(l1_space([(float(i),) for i in range(5)]), {1: 1.0}))[0] == 1.0

    (tmp_path / "line.txt").write_text("1 0\n" + "".join(f"{i}.0\n" for i in range(6)))
    (tmp_path / "one.txt").write_text("1.0 1\n")
    code = main(["--command", "norm", "--p", "1",
                 "--in", str(tmp_path / "line.txt"), "--in", str(tmp_path / "one.txt")])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert "host has 6 points, beyond the flow cap 5" in out.err


def test_oracle_equivalence_p1():
    rng = np.random.default_rng(7)
    for draw in range(60):
        s = random_space(rng, int(rng.integers(2, 7)))
        if draw % 2:
            m = one_sided_element(rng, s, ONE_SIDED[draw // 2 % len(ONE_SIDED)])
        else:
            m = random_element(rng, s)
        v_flow, _ = exact_norm_p1(m)
        v_enum, _ = exact_norm_small(m, 1.0)
        assert abs(v_flow - v_enum) <= 1e-12 * v_enum


def test_sandwich_soundness_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_space(rng, 5)
        m = random_element(rng, s)
        if m.is_zero():
            continue
        for p in (1.0, 0.5):
            value, witness = exact_norm_small(m, p)
            assert upper_bound_from(m, p, witness) >= value - 1e-9
            # crude certificate: one scaled indicator per point
            n = s.n
            scale = s.dist[~np.eye(n, dtype=bool)].min()
            F = scale * np.eye(n)
            F[s.base] = scale
            F[s.base, s.base] = 0.0
            activity = np.zeros((n, n, n), dtype=bool)
            for u in range(n):
                activity[u, u, :] = True
                activity[u, :, u] = True
                activity[u, u, u] = False
            cert = DualCertificate(s, F, 2, activity)
            assert dual_lower_bound(m, p, cert) <= value + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.0, 0.5, 0.25]))
def test_homogeneity_and_p_triangle(seed, p):
    rng = np.random.default_rng(seed)
    s = random_space(rng, 4)
    m1, m2 = random_element(rng, s), random_element(rng, s)
    a = float(rng.normal())
    n1, _ = exact_norm_small(m1, p)
    assert exact_norm_small(a * m1, p)[0] == pytest.approx(abs(a) * n1, abs=1e-8)
    n2, _ = exact_norm_small(m2, p)
    n12, _ = exact_norm_small(m1 + m2, p)
    assert n12**p <= n1**p + n2**p + 1e-8


def test_restricted_norm_examples():
    # the norm over molecules within a subset is the norm of the induced subspace
    s = three_point_space()
    m = unit_molecule(s, 1, 2)
    full, _ = exact_norm_small(m, 0.5)
    assert exact_norm_small(induced(m, range(s.n)), 0.5)[0] == pytest.approx(full, abs=1e-9)
    on_pair, _ = exact_norm_small(induced(m, [1, 2]), 0.5)
    assert on_pair == pytest.approx(1.0, abs=1e-9)
    assert on_pair == pytest.approx(enumeration_norm(m, 0.5, [1, 2])[0], abs=1e-12)
    assert on_pair >= full - 1e-9


def test_restricted_norm_monotone_under_inclusion():
    rng = np.random.default_rng(3)
    s = random_space(rng, 6)
    m = FreeElement(s, {1: 1.0, 2: -0.4})
    small, _ = exact_norm_small(induced(m, [0, 1, 2]), 0.5)
    large, _ = exact_norm_small(induced(m, [0, 1, 2, 3, 4]), 0.5)
    assert small == pytest.approx(enumeration_norm(m, 0.5, [0, 1, 2])[0], rel=1e-9)
    assert large == pytest.approx(enumeration_norm(m, 0.5, [0, 1, 2, 3, 4])[0], rel=1e-9)
    assert large <= small + 1e-9


def test_upper_bound_padding_costs_more_for_small_p():
    s = three_point_space()
    m = unit_molecule(s, 1, 2)
    value, witness = exact_norm_small(m, 0.5)
    padded = Decomposition(
        s, witness.terms + ((0.3, Molecule(s, 0, 1)), (-0.3, Molecule(s, 0, 1)))
    )
    assert upper_bound_from(m, 0.5, padded) > value + 1e-6


def test_upper_bound_rejects_wrong_decomposition():
    s = three_point_space()
    m = unit_molecule(s, 1, 2)
    wrong = Decomposition(s, ((1.0, Molecule(s, 0, 1)),))
    with pytest.raises(ValueError, match="residual"):
        upper_bound_from(m, 0.5, wrong)


def test_upper_bound_refuses_to_drop_a_tiny_element():
    # the exact norm is 7.46e-12 at p = 0.5; under an absolute slack of
    # EVAL_TOL the empty decomposition certified 0.0
    s = l1_space([(0, 0), (1, 0), (0, 1)], base=0)
    m = FreeElement(s, {1: 1e-12, 2: -3e-12})
    assert exact_norm_small(m, 0.5)[0] == pytest.approx(7.464101615137753e-12, rel=1e-12)
    with pytest.raises(ValueError, match="residual"):
        upper_bound_from(m, 0.5, Decomposition(s, ()))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_upper_bound_refuses_a_non_finite_coefficient(bad):
    # on (0, 2) the bad coordinate 2 follows the exact coordinate 1, so a
    # maximum that let the first value stand against NaN would pass it
    s = three_point_space()
    m = unit_molecule(s, 1, 2)
    witness = exact_norm_small(m, 0.5)[1]
    for mol in (Molecule(s, 0, 2), Molecule(s, 1, 2)):
        with pytest.raises(ValueError, match="residual"):
            upper_bound_from(m, 0.5, Decomposition(s, witness.terms + ((bad, mol),)))


def test_upper_bound_refuses_molecules_over_another_host():
    # the other host has the same distances, so the residual alone is 0
    s, other = three_point_space(), three_point_space()
    m = unit_molecule(s, 1, 2)
    witness = exact_norm_small(m, 0.5)[1]
    foreign = tuple((a, Molecule(other, mol.x, mol.y)) for a, mol in witness.terms)
    with pytest.raises(ValueError, match="mixes molecules over different hosts"):
        upper_bound_from(m, 0.5, Decomposition(s, foreign))
    with pytest.raises(ValueError, match="decomposition host differs"):
        upper_bound_from(m, 0.5, Decomposition(other, foreign))


def test_upper_bound_takes_optimal_witnesses_of_large_elements():
    # at weights of order 1e9 an optimal witness reproduces the element
    # within a few 1e-7, its rounding at that scale
    for seed in range(12):
        rng = np.random.default_rng(seed)
        space = l1_space(rng.random((6, 2)), base=0)
        m = FreeElement(space, {i: 1e9 * float(rng.normal()) for i in range(1, 6)})
        for p, (value, witness) in ((0.5, exact_norm_small(m, 0.5)), (1.0, exact_norm_p1(m))):
            assert upper_bound_from(m, p, witness) == pytest.approx(value, rel=1e-9), (seed, p)


def test_dual_lower_bound_examples():
    s = l1_space([(0, 0), (0, 1), (1, 0), (1, 1)], base=0)
    zero = FreeElement(s, {})
    n = s.n
    F = np.eye(n)
    F[0] = 1.0
    F[0, 0] = 0.0
    activity = np.zeros((n, n, n), dtype=bool)
    for u in range(n):
        activity[u, u, :] = True
        activity[u, :, u] = True
        activity[u, u, u] = False
    cert = DualCertificate(s, F, 2, activity)
    assert dual_lower_bound(zero, 0.5, cert) == 0.0

    single = DualCertificate(
        s, F[1:2], 1, activity[1:2]
    )
    m = FreeElement(s, {1: 1.0})
    assert dual_lower_bound(m, 1.0, single) == pytest.approx(1.0)
    assert dual_lower_bound(m, 1.0, single) <= exact_norm_small(m, 1.0)[0] + 1e-9


def test_certificate_validation_names_the_violation():
    s = l1_space([(0.0,), (1.0,), (2.0,)])
    n = s.n
    activity = np.zeros((1, n, n), dtype=bool)
    activity[0, 1, :] = True
    activity[0, :, 1] = True
    steep = np.array([[0.0, 2.0, 0.0]])
    with pytest.raises(CertificateError, match="Lipschitz"):
        dual_lower_bound(FreeElement(s, {1: 1.0}), 0.5, DualCertificate(s, steep, 1, activity))
    off_base = np.array([[0.5, 1.0, 0.0]])
    with pytest.raises(CertificateError, match="base"):
        dual_lower_bound(FreeElement(s, {1: 1.0}), 0.5, DualCertificate(s, off_base, 1, activity))
    leaky = np.array([[0.0, 1.0, 1.0]])  # pair (0,2) inactive but f(0) != f(2)
    with pytest.raises(CertificateError, match="annihilate"):
        dual_lower_bound(FreeElement(s, {1: 1.0}), 0.5, DualCertificate(s, leaky, 1, activity))
    crowded = np.vstack([np.array([[0.0, 1.0, 0.0]])] * 2)
    act2 = np.vstack([activity, activity])
    with pytest.raises(CertificateError, match="multiplicity|active"):
        dual_lower_bound(FreeElement(s, {1: 1.0}), 0.5, DualCertificate(s, crowded, 1, act2))
    unit = np.array([[0.0, 1.0, 0.0]])
    for kappa in (0, 3.0, math.inf, math.nan, True):
        with pytest.raises(CertificateError, match="^multiplicity kappa must be an integer >= 1"):
            DualCertificate(s, unit, kappa, activity)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(CertificateError, match="^certificate function has a non-finite value$"):
            DualCertificate(s, np.array([[0.0, bad, 0.0]]), 1, activity)
    # a point paired with itself is no molecule: the zero function active on
    # the diagonal only counts against no multiplicity, whatever the count
    diagonal = np.vstack([activity, np.eye(n, dtype=bool)[None]])
    paired = DualCertificate(s, np.vstack([unit, np.zeros((1, n))]), 1, diagonal)
    assert dual_lower_bound(FreeElement(s, {1: 1.0}), 0.5, paired) == 1.0


def test_rounding_level_pairings_count_as_zero():
    # weights one ulp apart pair with the base function at rounding level,
    # and t^p would lift that term far above its size
    s = l1_space([(0.0,), (1.4,), (2.1,)], base=0)
    cert = vertex_indicator_certificate(s)
    a = 0.1006
    b = float(np.nextafter(a, 1.0))
    m = FreeElement(s, {1: a, 2: -b})
    p, scale = 0.3, 0.7
    assert dual_lower_bound(m, p, cert) == (((scale * a) ** p + (scale * b) ** p) / 2) ** (1 / p)
    assert dual_lower_bound(m, p, cert) <= exact_norm_small(m, p)[0]


def test_certificate_is_checked_once_when_made(monkeypatch):
    calls = []
    validate = DualCertificate.validate
    monkeypatch.setattr(DualCertificate, "validate", lambda self: calls.append(1) or validate(self))
    rng = np.random.default_rng(12)
    s = l1_space(rng.random((5, 2)) * 3, base=0)
    # x -> d(x, x_j) - d(base, x_j), one per point, every pair active for all
    F = (s.dist - s.dist[s.base][None, :]).T
    activity = np.repeat(~np.eye(s.n, dtype=bool)[None], s.n, axis=0)
    cert = DualCertificate(s, F, s.n, activity)
    elements = [FreeElement(s, {i: float(rng.normal()) for i in range(1, 5) if rng.random() < 0.7})
                for _ in range(5)]
    before = [dual_lower_bound(m, p, cert) for m in elements for p in (1.0, 0.3)]
    assert len(before) == 10 and all(before) and len(calls) == 1
    for a in (cert.functions, cert.activity):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    F[...], activity[...] = 0.0, False
    assert [dual_lower_bound(m, p, cert) for m in elements for p in (1.0, 0.3)] == before
    with pytest.raises(FrozenInstanceError):
        cert.kappa = 1
    other = FreeElement(l1_space([(0.0,), (1.0,)]), {1: 1.0})
    with pytest.raises(CertificateError, match="host"):
        dual_lower_bound(other, 0.5, cert)


def test_certificate_keeps_its_absolute_functions():
    s = l1_space([(0.0,), (1.0,), (2.5,)])
    F = (s.dist - s.dist[s.base][None, :]).T
    cert = DualCertificate(s, F, s.n, np.repeat(~np.eye(s.n, dtype=bool)[None], s.n, axis=0))
    assert cert.abs_functions.tobytes() == np.abs(cert.functions).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        cert.abs_functions[...] = 0
    with pytest.raises(TypeError):  # made by the certificate, never passed in
        DualCertificate(s, F, s.n, cert.activity, np.abs(F))


def test_empty_certificate_bounds_by_zero():
    s = l1_space([(0.0,), (1.0,), (2.0,)])
    cert = DualCertificate(s, np.zeros((0, 3)), 1, np.zeros((0, 3, 3), bool))
    for p in (1.0, 0.5):
        assert dual_lower_bound(FreeElement(s, {1: 1.0, 2: -0.5}), p, cert) == 0.0


def test_element_serialization_round_trip():
    s = three_point_space()
    assert parse_element(s, "0.25 1\n\n-1.5 2\n").weights == {1: 0.25, 2: -1.5}
    with pytest.raises(ValueError):
        parse_element(s, "0.5\n")


@pytest.mark.parametrize("text, line", [
    ("0.25 1\nx 2\n", "x 2"),
    ("0.25 1\n1.0 2.5\n", "1.0 2.5"),
    ("0.25 1 2\n", "0.25 1 2"),
])
def test_element_parse_errors_name_the_line(text, line):
    with pytest.raises(ValueError, match=f"element line '{line}' is not 'weight point-index'"):
        parse_element(three_point_space(), text)


@pytest.mark.parametrize("make", [
    lambda s: FreeElement(s, {1.5: 1.0}),
    lambda s: FreeElement(s, {True: 1.0}),
    lambda s: Molecule(s, 0, 1.5),
], ids=["element-float", "element-bool", "molecule-float"])
def test_point_indices_are_never_truncated(make):
    # truncated, FreeElement(s, {1.5: 1.0}) would weigh point 1
    with pytest.raises(ValueError, match="point index must be an integer >= 0"):
        make(three_point_space())


def test_point_indices_are_range_checked():
    s = three_point_space()
    with pytest.raises(ValueError, match="point index 3 out of range"):
        FreeElement(s, {3: 1.0})
    with pytest.raises(ValueError, match="point index 3 out of range"):
        Molecule(s, 0, 3)
    assert FreeElement(s, {np.int64(1): 1.0}).weights == {1: 1.0}


def assert_optimal_forest(m, p, value, witness, subset):
    """The witness is a forest on `subset`, reproduces m, and costs `value`."""
    assert len(witness.terms) <= len(subset) - 1
    root = {q: q for q in subset}

    def find(q):
        while root[q] != q:
            q = root[q]
        return q

    for _, mol in witness.terms:
        a, b = find(mol.x), find(mol.y)
        assert a != b, "witness molecules contain a cycle"
        root[a] = b
    assert max_weight_diff(evaluate(witness), m) <= EVAL_TOL
    assert p_cost(witness, p) == pytest.approx(value, rel=1e-12, abs=1e-15)


def lattice_space(rng, n):
    """Distinct points of {0, ..., k - 1}^2 under l1, k = max(3, ceil(sqrt(n))):
    many equal-cost trees."""
    k = max(3, math.isqrt(n - 1) + 1)
    cells = rng.choice(k * k, size=n, replace=False)
    return l1_space([(c // k, c % k) for c in sorted(cells)], base=0)


def test_tree_program_matches_enumeration_oracle():
    rng = np.random.default_rng(2024)
    for n in range(2, ORACLE_CAP + 1):
        for p in (1.0, 0.8, 0.5, 0.3):
            for kind in ("plain", "holder", "lattice"):
                s = lattice_space(rng, n) if kind == "lattice" else random_space(rng, n)
                if kind == "holder":
                    s = holder_distort(s, float(rng.uniform(0.3, 0.7)))
                m = random_element(rng, s)
                value, witness = exact_norm_small(m, p)
                want, _ = enumeration_norm(m, p)
                assert value == pytest.approx(want, rel=1e-9, abs=1e-15)
                assert_optimal_forest(m, p, value, witness, range(n))

                # a subset holding the base, and one without it
                with_base = [0, *rng.choice(np.arange(1, n), int(rng.integers(1, n)), replace=False)]
                subsets = [sorted(int(q) for q in with_base)]
                if n >= 3:
                    subsets.append(sorted(rng.choice(np.arange(1, n), int(rng.integers(2, n)),
                                                     replace=False).tolist()))
                for subset in subsets:
                    w = rng.normal(size=len(subset))
                    if 0 not in subset:
                        w -= w.mean()  # an element of the induced subspace: the total vanishes
                    mr = FreeElement(s, dict(zip(subset, w)))
                    sub = induced(mr, subset)
                    got, tree = exact_norm_small(sub, p)
                    want, _ = enumeration_norm(mr, p, subset)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
                    assert_optimal_forest(sub, p, got, tree, range(sub.host.n))


def terms_hex(decomp):
    return [(a.hex(), mol.x, mol.y) for a, mol in decomp.terms]


def host_draw(rng, n, kind):
    host = lattice_space(rng, n) if kind == "lattice" else random_space(rng, n)
    if kind == "holder":
        host = holder_distort(host, float(rng.uniform(0.3, 0.7)))
    draw = (lambda: float(rng.choice([-1.0, 0.5, 1.0]))) if kind == "lattice" else rng.normal
    return host, draw


def test_tree_program_matches_the_per_subset_loop_bitwise():
    """Values and witnesses equal the per-subset loop's to the bit, ties
    included (lattice hosts have many equal-cost trees), with the base at
    any index; the values of full-support elements based at point 0 equal
    it too, a stack of one to three hosts of one shape per exact_norms
    call, for every host size from 2 to 8 points."""
    rng = np.random.default_rng(12)
    for p, kind, _ in itertools.product((1.0, 0.8, 0.5, 0.3), ("plain", "holder", "lattice"), range(3)):
        for n in range(2, 9):
            hosts = [host_draw(rng, n, kind)[0] for _ in range(int(rng.integers(1, 4)))]
            draw = host_draw(rng, n, kind)[1]
            weights = np.array([[draw() for _ in range(n - 1)] for _ in hosts])
            batch = exact_norms(np.stack([h.dist for h in hosts]), weights, p)
            want = [oracle_tree_norm(FreeElement(h, dict(enumerate(w, 1))), p)[0]
                    for h, w in zip(hosts, weights)]
            assert [x.hex() for x in batch] == [x.hex() for x in want], (n, p, kind)

            host, draw = host_draw(rng, n, kind)
            s = PointedFiniteMetric(host.points, int(rng.integers(n)), host.dist)
            m = FreeElement(s, {i: draw() for i in range(n) if rng.random() < 0.7})
            value, witness = exact_norm_small(m, p)
            want, tree = oracle_tree_norm(m, p)
            assert value.hex() == want.hex(), (n, p, kind)
            assert terms_hex(witness) == terms_hex(tree), (n, p, kind)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(1, 7),
       st.sampled_from((1.0, 0.8, 0.5, 0.3)), st.sampled_from(("plain", "holder", "lattice")))
def test_small_supports_on_larger_hosts_match_the_per_subset_loop(seed, n, k, p, kind):
    """exact_norm_small on a host larger than the support, the base
    anywhere: the value and the witness of the per-subset loop, bitwise."""
    rng = np.random.default_rng(seed)
    host, draw = host_draw(rng, n, kind)
    s = PointedFiniteMetric(host.points, int(rng.integers(n)), host.dist)
    others = [i for i in range(n) if i != s.base]
    support = rng.choice(others, min(k, len(others)), replace=False).tolist()
    m = FreeElement(s, {i: draw() for i in support})
    value, witness = exact_norm_small(m, p)
    want, tree = oracle_tree_norm(m, p)
    assert value.hex() == want.hex()
    assert terms_hex(witness) == terms_hex(tree)


HOST_KINDS = ("plain", "holder", "lattice")


@pytest.mark.parametrize("kind", HOST_KINDS)
@pytest.mark.parametrize("n", [30, 60, 200])
def test_small_supports_on_large_hosts_match_the_per_subset_loop(n, kind):
    """exact_norm_small with 5 to 7 support points on hosts of up to 200
    points, the base anywhere: the value and the witness of the per-subset
    loop, bitwise."""
    rng = np.random.default_rng([n, HOST_KINDS.index(kind)])
    for k in (5, 6, 7):
        host, draw = host_draw(rng, n, kind)
        s = PointedFiniteMetric(host.points, int(rng.integers(n)), host.dist)
        others = [i for i in range(n) if i != s.base]
        m = FreeElement(s, {i: draw() for i in rng.choice(others, k, replace=False).tolist()})
        p = float(rng.choice([1.0, 0.8, 0.5, 0.3]))
        value, witness = exact_norm_small(m, p)
        want, tree = oracle_tree_norm(m, p)
        assert value.hex() == want.hex(), (k, p)
        assert terms_hex(witness) == terms_hex(tree), (k, p)


def test_split_table_matches_the_submask_loop():
    """Each popcount layer c of the split table lists its subsets ascending,
    rank inverts them, and row r holds the 2^(c-1) - 1 splits of subset r
    in the submask loop's order, with S - T beside them, for 1 to 12
    terminals."""
    for k in range(1, 13):
        splits = oracle_splits(k)
        bits, rank, layers = _subset_program(k)
        assert [len(S) for S, _, _ in layers] == [math.comb(k, c) for c in range(2, k + 1)]
        for c, (S, T, rest) in enumerate(layers, start=2):
            assert (bits[S].sum(axis=1) == c).all() and (np.diff(S) > 0).all()
            assert (rank[S] == np.arange(len(S))).all()
            assert T.shape == (len(S), 2 ** (c - 1) - 1)
            assert (rest == S[:, None] ^ T).all()
            for s, row in zip(S.tolist(), T.tolist()):
                assert row == splits[s].tolist(), (k, s)


@pytest.mark.parametrize("kind", HOST_KINDS)
def test_a_steiner_point_never_lowers_the_norm_at_p1(kind):
    """At p = 1 a point beyond the support and the base never lowers the
    norm (transport gains nothing from a Steiner point): the tree program
    on the host, on the subspace of the support plus the base, and the
    transport solve agree within 1e-12 relative, on hosts of 4 to 30 points
    with supports of 1 to 7 points."""
    rng = np.random.default_rng([20, HOST_KINDS.index(kind)])
    for _ in range(130):
        n = int(rng.integers(4, 31))
        host, draw = host_draw(rng, n, kind)
        support = rng.choice(np.arange(1, n), int(rng.integers(1, min(7, n - 1) + 1)), replace=False)
        m = FreeElement(host, {i: draw() for i in support.tolist()})
        value = exact_norm_small(m, 1.0)[0]
        assert exact_norm_small(induced(m, [0, *support]), 1.0)[0] == pytest.approx(value, rel=1e-12)
        assert exact_norm_p1(m)[0] == pytest.approx(value, rel=1e-12)


def test_tree_program_holds_no_entry_per_hop_term():
    """The index of the tree program grows like its branch terms, 3^k n B,
    not like its hop terms, 2^k n^2 B: a 200-point host with 7 terminals
    holds fewer than 2 3^k n B entries, where one per hop term alone would
    be 120 n^2 = 4.8 million."""

    def entries(part):
        if isinstance(part, np.ndarray):
            return part.size
        return sum(map(entries, part)) if isinstance(part, tuple) else 0

    k, n, B = 7, 200, 1
    assert entries(_tree_program(k, n, B)) < 2 * 3**k * n * B


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 7))
def test_norm_is_monotone_in_p(seed, n):
    rng = np.random.default_rng(seed)
    m = random_element(rng, random_space(rng, n))
    n05, _ = exact_norm_small(m, 0.5)
    n08, _ = exact_norm_small(m, 0.8)
    n1, _ = exact_norm_p1(m)
    assert n05 >= n08 - 1e-9
    assert n08 >= n1 - 1e-9


def test_a_p_below_the_floor_is_refused():
    # the norm of 0.25 (delta(1) - delta(2)) is 0.5 at every p, but t^p
    # rounds towards 1 and the power 1/p magnifies that: at p = 1e-10 the
    # exact norm read 0.5000002646744071, at p = 1e-17 it read 1.0
    s = l1_space([(0, 0), (1, 0), (0, 1)], base=0)
    m = FreeElement(s, {1: 0.25, 2: -0.25})
    value, witness = exact_norm_small(m, P_FLOOR)
    assert value == pytest.approx(0.5, rel=EVAL_TOL)
    assert upper_bound_from(m, P_FLOOR, witness) == pytest.approx(0.5, rel=EVAL_TOL)
    for p in (1e-10, 1e-17, np.nextafter(P_FLOOR, 0.0)):
        with pytest.raises(ValueError, match="exponent p must satisfy 2.22e-07 <= p <= 1"):
            exact_norm_small(m, p)
        with pytest.raises(ValueError, match="exponent p must satisfy"):
            upper_bound_from(m, p, witness)


def test_a_norm_beyond_the_double_range_is_refused():
    # the norm of delta(1) + delta(2) is 2^(1/p): a double at p = 0.001,
    # beyond the double range at p = 3e-7, where the last power overflows
    s = l1_space([(0, 0), (1, 0), (0, 1)], base=0)
    m = FreeElement(s, {1: 1.0, 2: 1.0})
    stack = s.dist[None], np.array([[1.0, 1.0]])
    assert exact_norm_small(m, 0.001)[0] == 1.0715086071862673e301
    assert exact_norms(*stack, 0.001) == [1.0715086071862673e301]
    with pytest.raises(ValueError, match="p = 3e-07 puts the norm beyond the double range"):
        exact_norm_small(m, 3e-7)
    with pytest.raises(ValueError, match="p = 3e-07 puts the norm beyond the double range"):
        exact_norms(*stack, 3e-7)


def test_exact_norms_name_p_only_where_the_norm_at_p_1_is_a_double():
    # on a host with a point 1e300 from the base: weight 1 there has the
    # norm 1e300 at p = 1, and weight 1e300 there the norm 1e600, which no
    # p brings into range; each element of a stack is judged by its own
    s = l1_space([(0.0, 0.0), (1e300, 0.0), (0.0, 1.0)], base=0)
    D = np.stack([s.dist, s.dist])
    scale, raise_p = "scale the element or the points down", "p = 3e-07 puts the norm beyond"
    for W, p, message in [
        ([[0.0, 1.0], [1e300, 1.0]], 0.3, scale),
        ([[1e300, 1.0], [1.0, 1.0]], 3e-7, scale),
        ([[0.0, 1.0], [1.0, 1.0]], 3e-7, raise_p),
        ([[1.0, 1.0], [1e300, 1.0]], 3e-7, raise_p),
    ]:
        with pytest.raises(ValueError, match=message):
            exact_norms(D, np.array(W), p)
    assert exact_norms(D, np.array([[0.0, 1.0], [1.0, 1.0]]), 0.3) == [
        exact_norm_small(FreeElement(s, {2: 1.0}), 0.3)[0],
        exact_norm_small(FreeElement(s, {1: 1.0, 2: 1.0}), 0.3)[0],
    ]
    with pytest.raises(ValueError, match=scale):
        exact_norm_small(FreeElement(s, {1: 1e300, 2: 1.0}), 0.3)


def test_equal_cost_trees_at_p1_give_a_forest():
    # l1 lattice and dyadic weights: pushing weight around a cycle is free
    s = l1_space([(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)], base=0)
    m = FreeElement(s, {1: -0.5, 2: -0.75, 3: -0.75, 4: 1.0})
    value, witness = exact_norm_small(m, 1.0)
    assert value == pytest.approx(enumeration_norm(m, 1.0)[0], rel=1e-12)
    assert_optimal_forest(m, 1.0, value, witness, range(s.n))


def test_rounding_level_subset_sum_carries_no_flow():
    s = l1_space([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 0.5)], base=0)
    m = FreeElement(s, {1: 0.1, 2: 0.2, 3: -0.3})  # sums to 5.6e-17
    for p in (0.3, 1.0):
        value, witness = exact_norm_small(m, p)
        assert value == pytest.approx(enumeration_norm(m, p)[0], rel=1e-12)
        assert_optimal_forest(m, p, value, witness, range(s.n))


def fresh_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(freep.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    return env


def test_import_leaves_scipy_optimize_unloaded():
    code = (
        "import sys, freep\n"
        "print('scipy.optimize' in sys.modules)\n"
        "s = freep.l1_space([(0.0,), (1.0,), (3.0,)], base=0)\n"
        "freep.exact_norm_p1(freep.FreeElement(s, {1: 1.0, 2: -0.5}))\n"
        "print(any(k.split('.')[0] == 'scipy' for k in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]


def test_norm_p1_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: the p = 1 norm must not need it
    (tmp_path / "space.txt").write_text("2 0\n0 0\n0.5 0\n0.5 0.25\n1 1\n")
    (tmp_path / "element.txt").write_text("1.0 1\n-0.5 2\n0.25 3\n")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from freep.cli import main\n"
        "sys.exit(main(['--command', 'norm', '--p', '1', '--in', 'space.txt',"
        " '--in', 'element.txt', '--out', 'report.json']))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=fresh_env(), cwd=tmp_path,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["command"] == "norm" and report["p"] == 1.0
    assert report["norm"] > 0 and report["witness"]


@pytest.mark.parametrize("p", [1.0, 0.5])
@pytest.mark.parametrize("cycle", [
    {(0, 1): 1.0, (1, 2): 1.0, (0, 2): -0.5},  # a consistently oriented cycle
    {(0, 1): 1.0, (1, 2): -0.25, (0, 2): 0.5},
    {(0, 1): -0.25, (1, 2): 1.0, (0, 2): -0.5},  # the mirror case
])
def test_cancel_cycles_keeps_element_and_cost(p, cycle):
    s = l1_space([(0.0,), (1.0,), (2.0,), (3.0,)])
    W = np.zeros((4, 4))
    for (x, y), f in {**cycle, (2, 3): 0.75}.items():
        W[x, y], W[y, x] = f, -f

    def witness(W):
        return Decomposition(s, tuple((s.distance(x, y) * W[x, y], Molecule(s, x, y))
                                      for x, y in zip(*np.nonzero(W > 0))))

    before = witness(W)
    _cancel_cycles(W, s.dist**p, p)
    after = witness(W)
    assert np.array_equal(W, -W.T)
    assert len(after.terms) == 3
    assert max_weight_diff(evaluate(after), evaluate(before)) <= 1e-15
    assert p_cost(after, p) <= p_cost(before, p) + 1e-15


def test_forest_witness_builds_its_molecules_unchecked(monkeypatch):
    # the witness reads its endpoints off the flow matrix of its own host,
    # so it skips the constructor's checks; each molecule equals the checked
    # one, endpoints Python ints, while a user's Molecule is still checked
    s = l1_space([(0.0,), (1.0,), (2.0,), (3.0,)])
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 0.5), (2, 3, 0.75)]  # a cycle 0 -> 1 -> 2 -> 0

    def refuse(self):
        raise AssertionError("a checked molecule in the witness")

    with monkeypatch.context() as patch:
        patch.setattr(Molecule, "__post_init__", refuse)
        witness = _forest_witness(s, edges, s.dist, 1.0)
    assert len(witness.terms) == 3
    for _, mol in witness.terms:
        assert type(mol.x) is type(mol.y) is int
        assert mol == Molecule(s, mol.x, mol.y) and hash(mol) == hash(Molecule(s, mol.x, mol.y))
    with pytest.raises(ValueError, match="a molecule needs two distinct points"):
        Molecule(s, 1, 1)


def test_forest_witness_peels_only_a_cycle(monkeypatch):
    s = l1_space([(0.0,), (1.0,), (2.0,), (3.0,)])
    flows = {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 0.75}
    edges = [(x, y, f) for (x, y), f in flows.items()]
    cycle = sorted(edges + [(2, 0, 0.5)])
    # a tree goes straight to its molecules
    with monkeypatch.context() as patch:
        patch.setattr(freenorm, "_cancel_cycles", None)
        tree = _forest_witness(s, edges, s.dist, 1.0)
    assert [(mol.x, mol.y) for _, mol in tree.terms] == list(flows)
    assert [a for a, _ in tree.terms] == [s.distance(*e) * f for e, f in flows.items()]
    # a cycle is cancelled: three molecules of the four edges are left, and
    # they carry the same element
    forest = _forest_witness(s, cycle, s.dist, 1.0)
    assert len(forest.terms) == 3
    flow = Decomposition(s, tuple((s.distance(x, y) * f, Molecule(s, x, y)) for x, y, f in cycle))
    assert max_weight_diff(evaluate(forest), evaluate(flow)) <= 1e-15


def transport_problem(m):
    """The transportation problem that `exact_norm_p1` solves for m: the
    cost matrix from the supply points P to the demand points N, their
    amounts, the rounding floor tol, and P and N."""
    host, w = m.host, m.as_full_vector()
    tol = COEFF_TOL * np.abs(w).sum()
    w[host.base] = -w.sum()
    P, N = np.flatnonzero(w > tol), np.flatnonzero(w < -tol)
    return host.dist[P][:, N], w[P], -w[N], tol, P, N


def flow_matrix(shape, flow):
    """The dense matrix of a dict of flows."""
    F = np.zeros(shape)
    for e, f in flow.items():
        F[e] = f
    return F


def transport_flow_matrix(m):
    """The antisymmetric n x n flow matrix of `_transport` for m, W[x, y]
    the amount shipped from x to y, and the numbers of supply and demand
    points: the oracle for the edge list of `exact_norm_p1`."""
    C, supply, demand, tol, P, N = transport_problem(m)
    F = flow_matrix(C.shape, _transport(C, supply, demand, tol))
    host = m.host
    W = np.zeros((host.n, host.n))
    W[P[:, None], N], W[N[:, None], P] = F, -F.T
    return W, len(P), len(N)


def test_p1_witness_is_the_flow_matrix_witness_bitwise():
    """exact_norm_p1's edge list gives the witness that the transport's
    n x n flow matrix gives, to the bit: one- and two-sided transports, on
    plain, Hölder and lattice hosts, and a flow with a cycle."""
    rng = np.random.default_rng(1009)
    two_sided = []
    for n in range(2, 41):
        for kind in ("plain", "holder", "lattice", "one-sided"):
            if kind == "lattice":
                s = lattice_space(rng, n)
                m = FreeElement(s, {i: int(rng.integers(-4, 5)) / 4 for i in range(1, n)})
            else:
                s = random_space(rng, n)
                if kind == "holder":
                    s = holder_distort(s, float(rng.choice([0.3, 0.5, 0.7])))
                m = (one_sided_element(rng, s, ONE_SIDED[n % 3]) if kind == "one-sided"
                     else random_element(rng, s))
            if m.is_zero():
                continue
            W, supply, demand = transport_flow_matrix(m)
            two_sided.append(min(supply, demand) > 1)
            want = matrix_witness(s, W, s.dist, 1.0)
            assert terms_hex(exact_norm_p1(m)[1]) == terms_hex(want), (n, kind)
    assert 0 < sum(two_sided) < len(two_sided)
    # supply points 1 and 2 both ship to demand points 0 and 3: a cycle
    s = l1_space([(0.0,), (1.0,), (2.0,), (3.0,)])
    P, N, F = np.array([1, 2]), np.array([0, 3]), np.array([[0.5, 0.25], [0.25, 0.5]])
    W = np.zeros((4, 4))
    W[P[:, None], N], W[N[:, None], P] = F, -F.T
    edges = sorted((int(P[i]), int(N[j]), float(F[i, j])) for i in range(2) for j in range(2))
    forest = _forest_witness(s, edges, s.dist, 1.0)
    assert len(forest.terms) < 4  # a forest on four points
    assert terms_hex(forest) == terms_hex(matrix_witness(s, W, s.dist, 1.0))


def transport_element(rng, host, kind, one_sided):
    """Gaussian weights on every non-base point, integer weights 1-3 on a
    lattice and weights 1 on a line, with random signs, or one sign for
    all, which leaves the base the one supply or demand point."""
    n = host.n
    mag = {"lattice": rng.integers(1, 4, n), "collinear": np.ones(n)}.get(kind, np.abs(rng.normal(size=n)))
    sign = np.full(n, rng.choice([-1, 1])) if one_sided else rng.choice([-1, 1], n)
    return FreeElement(host, {i: float(sign[i] * mag[i]) for i in range(1, n)})


def test_transport_matches_the_shortest_path_and_lp_oracles():
    """The simplex's flow costs what the successive-shortest-path flow and
    the LP oracle cost (up to 100 points), within 1e-12 relative, on one-
    and two-sided problems over hosts of 2-400 points: plain, Hölder, a
    lattice with integer weights and a line with weights +-1, the last two
    full of ties in cost and in amount. Each flow ships every amount up to
    tol, on at most |P| + |N| - 1 cells."""
    rng = np.random.default_rng(1951)
    shapes = set()
    for n in [*range(2, 13), 20, 40, 100, 400]:
        for kind in ("plain", "holder", "lattice", "collinear"):
            if kind == "collinear":
                host = l1_space([(float(x),) for x in rng.permutation(n)], base=0)
            else:
                host = lattice_space(rng, n) if kind == "lattice" else random_space(rng, n)
            if kind == "holder":
                host = holder_distort(host, float(rng.choice([0.3, 0.5, 0.7])))
            for one_sided in (False, True):
                m = transport_element(rng, host, kind, one_sided)
                C, supply, demand, tol, P, N = transport_problem(m)
                flow = _transport(C, supply, demand, tol)
                shapes.add(min(C.shape) > 1)
                assert len(flow) <= len(P) + len(N) - 1 and min(flow.values()) > tol
                F = flow_matrix(C.shape, flow)
                assert np.abs(F.sum(axis=1) - supply).max() <= tol, (n, kind, one_sided)
                assert np.abs(F.sum(axis=0) - demand).max() <= tol, (n, kind, one_sided)
                value = _flow_cost(C, flow)
                oracle = _flow_cost(C, ssp_transport(C, supply, demand, tol))
                assert value == pytest.approx(oracle, rel=1e-12), (n, kind, one_sided)
                if n <= 100:  # the LP oracle takes a second at 400 points
                    assert value == pytest.approx(lp_norm_p1(m)[0], rel=1e-12), (n, kind, one_sided)
    assert shapes == {False, True}


def test_p1_witness_is_a_forest_without_cancelling_cycles(monkeypatch):
    """On 200-point hosts where the successive-shortest-path flow closes
    cycles, the simplex's flow is a forest already: exact_norm_p1 never
    calls `_cancel_cycles`, its witness has at most as many terms as the
    support (the support and the base, less one), and it costs the value."""

    def refuse(*args):
        raise AssertionError("the p = 1 route cancelled a cycle")

    monkeypatch.setattr(freenorm, "_cancel_cycles", refuse)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        host = l1_space((rng.random((200, 2)) * 10).tolist())
        m = FreeElement(host, {i: float(rng.normal()) for i in range(1, 200)})
        C, supply, demand, tol, P, N = transport_problem(m)
        ssp = ssp_transport(C, supply, demand, tol)
        assert _has_cycle(host.n, [(int(P[i]), int(N[j]), f) for (i, j), f in ssp.items()])
        value, witness = exact_norm_p1(m)
        assert len(witness.terms) <= len(m.weights)
        assert upper_bound_from(m, 1.0, witness) == pytest.approx(value, rel=1e-12)


def certified_query_bits(rng):
    """The bits of one certified norm query shaped like the benchmark's: a
    host of 3-7 points in d = 1-3, plain or Hölder, a support of 1 to
    n - 1 points and p from the benchmark's mix; the values and witnesses
    (coefficients as hex, endpoints and their types) of both exact routes,
    the upper bound of each witness and a distance-function dual bound."""
    n, d = int(rng.integers(3, 8)), int(rng.integers(1, 4))
    host = l1_space((rng.random((n, d)) * 4.0).tolist())
    if rng.random() < 0.5:
        host = holder_distort(host, float(rng.choice([0.3, 0.5, 0.7])))
    support = rng.choice(np.arange(1, n), size=int(rng.integers(1, n)), replace=False)
    m = FreeElement(host, {int(j): float(rng.normal()) for j in support})
    p = float(rng.choice([1.0, 0.8, 0.5, 0.3]))
    D = host.dist
    cert = DualCertificate(
        host=host, functions=(D - D[host.base]).T, kappa=n,
        activity=np.broadcast_to(~np.eye(n, dtype=bool), (n, n, n)),
    )
    bits = []
    for value, witness, q in (*exact_norm_small(m, p), p), (*exact_norm_p1(m), 1.0):
        ends = [(mol.x, mol.y, type(mol.x).__name__, type(mol.y).__name__) for _, mol in witness.terms]
        bits += [float(value).hex(), terms_hex(witness), ends, upper_bound_from(m, q, witness).hex()]
    return bits + [dual_lower_bound(m, p, cert).hex()]


def test_certified_query_bits_are_pinned():
    """The values, witnesses and bounds of 100 seeded certified queries,
    one digest: a change to the engine that moves one bit of them fails."""
    rng = np.random.default_rng(2024)
    bits = [certified_query_bits(rng) for _ in range(100)]
    digest = hashlib.sha256(json.dumps(bits).encode()).hexdigest()
    assert digest == "7c98ceefbadc5536869b201427d02aea896397cda21afc990c50bf963ff1a88c"
