import numpy as np
import pytest
from cube_oracle import complex_shapes, oracle_find_cube, oracle_support
from retraction_oracle import (
    oracle_indicator_certificate,
    oracle_upper_decomposition,
    oracle_witness_edges,
    rescale_check,
    translate_element,
    vertex_index,
)
from test_helpers import max_weight_diff

from freep import cubes, retraction
from freep.cli import main
from freep.constants import c_const, retraction_bounds
from freep.cubes import CubeComplex, find_cubes
from freep.freenorm import evaluate, p_cost, upper_bound_from
from freep.retraction import (
    _images,
    _upper_decompositions,
    build_context,
    estimate_lipschitz,
    lipschitz_upper_decomposition,
    lower_bound_witness,
    retract,
    vertex_indicator_certificate,
)
from freep.freenorm import DualCertificate, FreeElement
from freep.metric import lattice_l1_space

UNIT_SQUARE = CubeComplex(d=2, R=1.0, offsets=((0, 0),))
TWO_CUBES_1D = CubeComplex(d=1, R=1.0, offsets=((0,), (1,)))


def test_retract_at_vertices_is_unit_evaluation():
    # at R = 0.7, (0.7 * 3) / 0.7 = 2.9999999999999996: the vertex R v of the
    # L-shaped complex lies an ulp off v and is still weighed as the vertex
    L_SHAPE = CubeComplex(d=2, R=0.7, offsets=((0, 0), (1, 0), (1, 1), (2, 1)))
    for complex in (UNIT_SQUARE, L_SHAPE):
        ctx = build_context(complex)
        for v in complex.vertices():
            m = retract(ctx, complex.R * np.array(v, dtype=float))
            if v == complex.base_vertex:
                assert m.is_zero()
            else:
                assert m.weights == {vertex_index(ctx, v): 1.0}, v


def test_retract_examples():
    ctx1 = build_context(CubeComplex(d=1, R=1.0, offsets=((0,),)))
    m = retract(ctx1, (0.3,))
    assert m.weights == pytest.approx({vertex_index(ctx1, (1,)): 0.3})
    ctx2 = build_context(UNIT_SQUARE)
    m2 = retract(ctx2, (0.5, 0.5))
    assert sorted(m2.weights.values()) == pytest.approx([0.25, 0.25, 0.25])


def test_translate_identity_and_covariance():
    ctx = build_context(TWO_CUBES_1D)
    m = retract(ctx, (0.3,))
    assert max_weight_diff(translate_element(ctx, m, (0.0,)), m) == 0.0
    shifted = translate_element(ctx, m, (1.0,))
    assert max_weight_diff(shifted, retract(ctx, (1.3,))) <= 1e-12
    back = translate_element(ctx, retract(ctx, (1.3,)), (-1.0,))
    assert max_weight_diff(back, m) <= 1e-12


def test_translate_errors():
    ctx = build_context(TWO_CUBES_1D)
    m = retract(ctx, (0.3,))
    with pytest.raises(ValueError, match="lattice"):
        translate_element(ctx, m, (0.5,))
    with pytest.raises(ValueError, match="missing"):
        translate_element(ctx, m, (2.0,))


def test_points_outside_the_union_raise():
    ctx = build_context(TWO_CUBES_1D)
    with pytest.raises(ValueError, match="outside"):
        retract(ctx, (2.5,))
    with pytest.raises(ValueError, match="outside"):
        lipschitz_upper_decomposition(ctx, (0.5,), (-1.0,))


def test_rescale_check_examples():
    space = lattice_l1_space([(0,), (1,)], 1.0)
    m = FreeElement(space, {1: 1.0})
    lhs, rhs = rescale_check(m, 1.0, (0,), 0.5)
    assert lhs == pytest.approx(rhs, abs=1e-9) == pytest.approx(1.0)
    lhs, rhs = rescale_check(m, 2.0, (0,), 0.5)
    assert rhs == pytest.approx(2.0)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_rescale_check_random_d2():
    rng = np.random.default_rng(9)
    pts = [(0, 0), (1, 0), (0, 1), (2, 2)]
    space = lattice_l1_space(pts, 1.0)
    for _ in range(5):
        m = FreeElement(space, {i: float(rng.normal()) for i in (1, 2, 3)})
        lhs, rhs = rescale_check(m, 3.0, (1, -1), 0.5)
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))


def test_upper_decomposition_trivial_and_single_axis():
    ctx = build_context(CubeComplex(d=3, R=1.0, offsets=((0, 0, 0),)))
    x = np.array([0.2, 0.7, 0.1])
    assert lipschitz_upper_decomposition(ctx, x, x).terms == ()
    y = x.copy()
    y[2] = 0.9
    dec = lipschitz_upper_decomposition(ctx, x, y)
    assert len(dec.terms) <= 2 ** (3 - 1)
    assert p_cost(dec, 0.5) <= c_const(0.5, 4) * abs(x[2] - y[2]) * (1 + 1e-12)
    m = retract(ctx, x) - retract(ctx, y)
    assert max_weight_diff(evaluate(dec), m) <= 1e-12


def test_upper_decomposition_cross_cube_band():
    complex = CubeComplex(d=2, R=1.0, offsets=((0, 0), (1, 0)))
    ctx = build_context(complex)
    rng = np.random.default_rng(21)
    _, upper = retraction_bounds(0.5, 2)
    for _ in range(200):
        x = np.array([2 * rng.random(), rng.random()])
        y = np.array([2 * rng.random(), rng.random()])
        l1 = np.abs(x - y).sum()
        dec = lipschitz_upper_decomposition(ctx, x, y)
        assert p_cost(dec, 0.5) <= upper * l1 * (1 + 1e-9)
        m = retract(ctx, x) - retract(ctx, y)
        assert max_weight_diff(evaluate(dec), m) <= 1e-9


def test_witness_d3_norm_is_exact():
    res = lower_bound_witness(3, 0.5)
    upper = upper_bound_from(res.element, 0.5, res.upper_decomposition)
    assert res.certified_value == pytest.approx(4.0, abs=1e-9)
    assert upper == pytest.approx(4.0, abs=1e-9)
    # the sandwich pins the exact norm at C(1/2, 4) = 4
    assert res.certified_value <= upper + 1e-12


def test_witness_element_shape():
    res = lower_bound_witness(2, 0.5)
    ctx = res.context
    w = res.element.weights
    assert w[vertex_index(ctx, (0, 1))] == pytest.approx(0.5)
    assert w[vertex_index(ctx, (1, 1))] == pytest.approx(0.5)
    assert w[vertex_index(ctx, (1, 0))] == pytest.approx(-0.5)
    assert vertex_index(ctx, (0, 0)) not in w


@pytest.mark.parametrize("d", range(1, 6))
def test_witness_decomposition_matches_the_edge_oracle(d):
    for p in (1.0, 0.75, 0.5, 0.3):
        res = lower_bound_witness(d, p)
        assert res.upper_decomposition == oracle_witness_edges(res.context)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_indicator_certificate_matches_the_oracle(d):
    for offsets in complex_shapes(d).values():
        # the last offset as the base, so it is not always vertex 0
        complex = CubeComplex(d=d, R=0.7, offsets=offsets, base_vertex=offsets[-1])
        space = build_context(complex).vertex_space
        cert = vertex_indicator_certificate(space)
        F, activity = oracle_indicator_certificate(space)
        assert cert.functions.tobytes() == F.tobytes()
        assert np.array_equal(cert.activity, activity)


def test_harness_d1_band_and_report():
    ctx = build_context(TWO_CUBES_1D)
    report = estimate_lipschitz(ctx, 0.5, n_samples=100, seed=4)
    assert report["theoretical_lower"] == 1.0
    assert report["theoretical_upper"] == pytest.approx(3.0)
    assert report["max_upper_cost_ratio"] <= 3.0 * (1 + 1e-9)
    assert 1.0 - 1e-9 <= report["max_lower_ratio"] <= 3.0 * (1 + 1e-9)
    assert report["witness_value"] == pytest.approx(1.0, abs=1e-9)
    assert report["max_reconstruction_residual"] <= 1e-9
    assert report["exact_norms_checked"] > 0


@pytest.mark.parametrize("offsets, n, checked", [
    (((0, 0, 0),), 8, 50),
    (((0, 0), (1, 0), (2, 0)), 8, 50),
    (((0, 0), (1, 0), (0, 1), (1, 1)), 9, 0),
], ids=["unit-cube-d3", "row-of-three-squares", "block-of-2x2-squares"])
def test_harness_checks_exact_norms_on_vertex_hosts_within_the_cap(offsets, n, checked):
    # the first 50 ratios are checked when the vertex host fits the
    # exact-norm cap of 8 points, and so does every support plus the base
    ctx = build_context(CubeComplex(d=len(offsets[0]), R=1.0, offsets=offsets))
    assert ctx.vertex_space.n == n
    report = estimate_lipschitz(ctx, 0.5, n_samples=60, seed=0)
    assert report["exact_norms_checked"] == checked


@pytest.mark.parametrize("d, p", [("2", "0.1"), ("3", "0.2")], ids=["square", "unit-cube-d3"])
def test_an_exact_norm_beyond_the_double_range_exits_2(capsys, d, p):
    # at R = 1e305 the cost of a sampled pair's upper decomposition
    # overflows first, with a warning, and the exact norm of that pair
    # refuses, on the 4 vertices of the square as on the 8 of the cube
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main(["--command", "retraction-verify", "--d", d, "--R", "1e305", "--p", p,
                     "--samples", "3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: p = {p} puts the norm beyond the double range; raise --p\n"


def test_harness_includes_witness_pair():
    ctx = build_context(UNIT_SQUARE)
    report = estimate_lipschitz(ctx, 0.5, n_samples=20, seed=0)
    assert report["max_lower_ratio"] >= c_const(0.5, 2) - 1e-9


def test_harness_p1_ratios_do_not_exceed_one():
    ctx = build_context(TWO_CUBES_1D)
    report = estimate_lipschitz(ctx, 1.0, n_samples=200, seed=8)
    assert report["max_upper_cost_ratio"] <= 1.0 + 1e-9


@pytest.mark.parametrize("kwargs, message", [
    (dict(n_samples=2.5), "n_samples must be an integer >= 0, got 2.5"),
    (dict(seed=-1), "seed must be an integer >= 0, got -1"),
    (dict(p=1.5), "exponent p must satisfy"),
])
def test_harness_refuses_bad_arguments(kwargs, message):
    args = dict(p=0.5, n_samples=10, seed=0) | kwargs
    with pytest.raises(ValueError, match=message):
        estimate_lipschitz(build_context(TWO_CUBES_1D), **args)


def test_harness_validates_the_certificate_once(monkeypatch):
    """One validation for the sampled pairs and one for the witness, not one
    per pair."""
    calls = []
    validate = DualCertificate.validate
    monkeypatch.setattr(DualCertificate, "validate", lambda self: calls.append(1) or validate(self))
    ctx = build_context(TWO_CUBES_1D)
    estimate_lipschitz(ctx, 0.5, n_samples=60, seed=2)
    assert len(calls) == 2


def test_batched_images_match_the_oracle_weights():
    complex = CubeComplex(d=2, R=0.7, offsets=((0, 0), (1, 0), (1, 1)))
    ctx = build_context(complex)
    rng = np.random.default_rng(3)
    offs = np.array(complex.offsets, dtype=float)
    X = complex.R * (offs[rng.integers(3, size=50)] + rng.random((50, 2)))
    X[::4, 1] = complex.R  # on the face shared by (1, 0) and (1, 1)
    W, images = _images(ctx, X)
    for x, w, image in zip(X, W, images):
        assert tuple(w.tolist()) == oracle_find_cube(complex, x)
        expected = {vertex_index(ctx, v): w for v, w in oracle_support(complex, x)}
        expected.pop(vertex_index(ctx, complex.base_vertex), None)
        assert list(image.weights.items()) == list(expected.items())


def _pairs(complex, rng, n=10):
    """Pairs of interior points, points on faces and vertices: each point
    with a random point of the complex, with a point of its own cube, and
    with itself."""
    d, R = complex.d, complex.R
    offs = np.array(complex.offsets, dtype=float)
    pts = [R * np.array(v, dtype=float) for v in complex.vertices()]
    for _ in range(n):
        w = offs[rng.integers(len(offs))]
        u = rng.random(d)
        pts.append(R * (w + u))
        u[rng.random(d) < 0.5] = rng.integers(0, 2)
        pts.append(R * (w + u))
    pairs = []
    for x in pts:
        w = np.array(oracle_find_cube(complex, x), dtype=float)
        pairs += [(x, pts[rng.integers(len(pts))]), (x, R * (w + rng.random(d))), (x, x)]
    return pairs


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_upper_decomposition_matches_the_oracle(d):
    """The one-pair view and the batched rows equal the per-pair oracle:
    coefficients bitwise, the same molecules in the same orientation and
    order."""
    rng = np.random.default_rng(80 + d)
    # and a gap along one axis only, so a bridge keeps the other axes
    gap_along_first_axis = ((0,) * d, (2,) + (0,) * (d - 1))
    for R in (1.0, 2.0, 0.7, 1e-3):
        for offsets in [*complex_shapes(d).values(), gap_along_first_axis]:
            complex = CubeComplex(d=d, R=R, offsets=offsets)
            ctx = build_context(complex)
            pairs = _pairs(complex, rng)
            expected = [oracle_upper_decomposition(ctx, x, y) for x, y in pairs]
            assert any(dec.terms for dec in expected)
            assert [lipschitz_upper_decomposition(ctx, x, y) for x, y in pairs] == expected
            X = np.array([x for x, _ in pairs])
            Y = np.array([y for _, y in pairs])
            batched = _upper_decompositions(ctx, X, Y, find_cubes(complex, X), find_cubes(complex, Y))
            assert batched == expected


def test_a_point_found_in_a_cube_is_retracted_there():
    """Just outside the last square, within the lookup's tolerance, a point
    is retracted and decomposed in that square."""
    ctx = build_context(CubeComplex(d=2, R=1.0, offsets=((0, 0), (1, 0))))
    x = (2 + 1.5e-12, 0.5)
    assert retract(ctx, x).weights == retract(ctx, (2.0, 0.5)).weights
    dec = lipschitz_upper_decomposition(ctx, x, (0.3, 0.2))
    assert dec == oracle_upper_decomposition(ctx, x, (0.3, 0.2))
    assert max_weight_diff(evaluate(dec), retract(ctx, x) - retract(ctx, (0.3, 0.2))) <= 1e-12


def test_harness_weighs_all_pairs_at_once(monkeypatch):
    """The number of tensor-product calls does not grow with the sample
    count: the sampled points, the decomposition rows and the witness."""
    calls = []
    kernel = cubes.tensor_weights

    def counted(T):
        calls.append(len(T))
        return kernel(T)

    monkeypatch.setattr(cubes, "tensor_weights", counted)
    monkeypatch.setattr(retraction, "tensor_weights", counted)
    ctx = build_context(CubeComplex(d=2, R=0.7, offsets=((0, 0), (1, 0), (1, 1))))
    per_run = []
    for samples in (100, 1000):
        calls.clear()
        estimate_lipschitz(ctx, 0.5, n_samples=samples, seed=1)
        per_run.append(len(calls))
    assert per_run[0] == per_run[1] <= 3
