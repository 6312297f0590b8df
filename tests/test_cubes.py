import re
from itertools import product

import numpy as np
import pytest

from cube_oracle import complex_shapes, oracle_find_cube, oracle_support, oracle_weight
from freep import cubes
from freep.cubes import (
    _CUBE_TOL,
    MAX_OFFSET,
    CubeComplex,
    find_cube,
    lambda_support,
    lambda_weight,
    load_complex,
    local_coords,
    scalar_coeff,
    tensor_weights,
    vertex_bits,
    vertex_weights,
)

TWO_CUBES = CubeComplex(d=2, R=1.0, offsets=((0, 0), (1, 0)))


def save_complex(complex: CubeComplex) -> str:
    """Serialize: first line "d R", one offset per line, base vertex last."""
    lines = [f"{complex.d} {complex.R!r}"]
    lines += [" ".join(str(c) for c in w) for w in complex.offsets]
    lines.append(" ".join(str(c) for c in complex.base_vertex))
    return "\n".join(lines) + "\n"


def test_scalar_coeff_cases():
    assert scalar_coeff(0.25, 1) == 0.25
    assert scalar_coeff(0.25, 0) == 0.75
    assert scalar_coeff(0.25, 2) == 0.0
    with pytest.raises(ValueError):
        scalar_coeff(1.25, 1)


def test_kronecker_at_vertices():
    for complex in (TWO_CUBES, CubeComplex(d=1, R=0.5, offsets=((0,), (1,)))):
        for v in complex.vertices():
            coords = complex.R * np.array(v, dtype=float)
            for u in complex.vertices():
                expected = 1.0 if u == v else 0.0
                assert lambda_weight(complex, u, coords) == expected


def test_weight_examples():
    one = CubeComplex(d=1, R=1.0, offsets=((0,),))
    assert lambda_weight(one, (0,), (0.3,)) == pytest.approx(0.7)
    assert lambda_weight(one, (1,), (0.3,)) == pytest.approx(0.3)
    square = CubeComplex(d=2, R=1.0, offsets=((0, 0),))
    assert lambda_weight(square, (1, 1), (0.3, 0.5)) == pytest.approx(0.15)


def test_support_at_vertex_and_interior():
    sup = lambda_support(TWO_CUBES, (1.0, 1.0))
    assert len(sup) == 1 and sup[0].vertex == (1, 1) and sup[0].weight == 1.0
    sup = lambda_support(TWO_CUBES, (0.25, 0.75))
    assert len(sup) == 4
    assert all(w > 0 for _, w in sup)


def test_shared_face_is_cube_independent():
    x = [(1.0, 0.375)]

    def support(w):
        row = tensor_weights(local_coords(TWO_CUBES, [w], x))[0]
        return sorted((tuple(np.add(w, b).tolist()), wt) for b, wt in zip(vertex_bits(2), row) if wt != 0.0)

    assert support((0, 0)) == support((1, 0))
    assert len(support((0, 0))) == 2


def test_a_point_found_in_a_cube_is_weighed_there():
    """The lookup's tolerance is the only containment rule: a point just
    outside the last square, within _CUBE_TOL (1 + max|z|), is weighed in it
    with its local coordinates clipped to the square."""
    x = (2 + 1.5e-12, 0.5)
    assert find_cube(TWO_CUBES, x) == (1, 0)
    assert lambda_support(TWO_CUBES, x) == lambda_support(TWO_CUBES, (2.0, 0.5))
    assert lambda_support(TWO_CUBES, x) == oracle_support(TWO_CUBES, x)


def test_partition_of_unity_random():
    rng = np.random.default_rng(0)
    complexes = [
        TWO_CUBES,
        CubeComplex(d=3, R=2.0, offsets=((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))),
    ]
    for complex in complexes:
        offsets = np.array(complex.offsets, dtype=float)
        for _ in range(2000):
            w = offsets[rng.integers(len(offsets))]
            x = complex.R * (w + rng.random(complex.d))
            sup = lambda_support(complex, x)
            assert abs(sum(wt for _, wt in sup) - 1.0) <= 1e-12
            assert len(sup) <= 2**complex.d


def test_support_contained_in_one_cube():
    rng = np.random.default_rng(1)
    for _ in range(500):
        x = np.array([rng.random() * 2, rng.random()])
        cube = find_cube(TWO_CUBES, x)
        verts = {
            tuple(c + b for c, b in zip(cube, bits))
            for bits in np.ndindex(2, 2)
        }
        assert all(v in verts for v, _ in lambda_support(TWO_CUBES, x))


def test_product_formula_against_one_dimensional():
    rng = np.random.default_rng(2)
    complex = CubeComplex(d=3, R=1.0, offsets=((0, 0, 0),))
    for _ in range(300):
        x = rng.random(3)
        for v, wt in lambda_support(complex, x):
            prod = 1.0
            for i in range(3):
                line = CubeComplex(d=1, R=1.0, offsets=((0,),))
                prod *= lambda_weight(line, (v[i],), (x[i],))
            assert abs(prod - wt) <= 1e-14


def test_point_outside_complex_raises():
    with pytest.raises(ValueError, match="outside"):
        find_cube(TWO_CUBES, (2.5, 0.5))
    with pytest.raises(ValueError, match="outside"):
        lambda_support(TWO_CUBES, (0.5, -0.5))


def test_complex_requires_cubes_and_valid_base():
    with pytest.raises(ValueError):
        CubeComplex(d=2, R=1.0, offsets=())
    with pytest.raises(ValueError):
        CubeComplex(d=2, R=1.0, offsets=((0, 0),), base_vertex=(5, 5))
    # truncated, d = 2.7 would build a d = 2 complex
    with pytest.raises(ValueError, match="d must be an integer >= 1, got 2.7"):
        CubeComplex(d=2.7, R=1.0, offsets=((0, 0),))


@pytest.mark.parametrize("text, message", [
    ("2.5 0.7\n0 0\n0 0\n", "first line '2.5 0.7' must hold an integer d and a real R"),
    ("2 r\n0 0\n0 0\n", "first line '2 r' must hold an integer d and a real R"),
    ("2\n0 0\n0 0\n", "first line '2' must hold an integer d and a real R"),
    ("2 0.7\n0 z\n0 0\n", "complex line '0 z' holds a value that is not an integer"),
    ("2 0.7\n0 0\n0 0.5\n", "complex line '0 0.5' holds a value that is not an integer"),
])
def test_complex_file_parse_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load_complex(text)


def test_complex_file_round_trip():
    text = save_complex(TWO_CUBES)
    back = load_complex(text)
    assert back == TWO_CUBES
    with pytest.raises(ValueError):
        load_complex("2 1.0\n0 0\n")  # no base vertex line


def test_complex_requires_finite_positive_R():
    for R in (float("inf"), float("nan"), -1.0, 0.0):
        with pytest.raises(ValueError, match="R must be a finite positive number"):
            CubeComplex(d=1, R=R, offsets=((0,),))
    for R in ("inf", "nan", "-1"):
        with pytest.raises(ValueError, match="complex file R must be a finite positive number"):
            load_complex(f"1 {R}\n0\n0\n")


def test_dimension_is_capped_before_any_vertex_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("vertices enumerated before the dimension check")

    monkeypatch.setattr(cubes, "product", refuse)
    for d in (cubes.MAX_D + 1, 64):
        with pytest.raises(ValueError, match=f"--d {d} is beyond the cap {cubes.MAX_D}"):
            CubeComplex(d=d, R=1.0, offsets=((0,) * d,))
        with pytest.raises(ValueError, match=f"--d {d} is beyond the cap {cubes.MAX_D}"):
            load_complex(f"{d} 1.0\n0\n0\n")
    monkeypatch.undo()
    assert CubeComplex(d=cubes.MAX_D, R=1.0, offsets=((0,) * cubes.MAX_D,)).d == cubes.MAX_D


def test_offsets_are_bounded():
    with pytest.raises(ValueError, match="offset coordinates"):
        CubeComplex(d=2, R=1.0, offsets=((0, MAX_OFFSET + 1),))
    far = CubeComplex(d=2, R=1.0, offsets=((-MAX_OFFSET, MAX_OFFSET),))
    x = (-MAX_OFFSET + 0.25, MAX_OFFSET + 1.0)
    assert find_cube(far, x) == oracle_find_cube(far, x) == (-MAX_OFFSET, MAX_OFFSET)
    assert lambda_support(far, x) == oracle_support(far, x)


def test_vertex_ids_match_a_dict_of_the_vertices():
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        for origin in (0, -5, MAX_OFFSET - 3, -MAX_OFFSET):
            offsets = {tuple(origin + rng.integers(0, 3, d)) for _ in range(4)}
            complex = CubeComplex(d=d, R=1.0, offsets=tuple(offsets))
            index = {v: i for i, v in enumerate(complex.vertices())}
            V = np.array(complex.vertices())[rng.integers(len(index), size=(4, 3))]
            want = [[index[tuple(v)] for v in row] for row in V.tolist()]
            assert cubes.vertex_ids(complex, V).tolist() == want
            assert cubes.vertex_ids(complex, V[1, 2]) == want[1][2]
            # vertices lie within origin + [0, 3]: name the first point beyond
            V[1, 2], V[3, 0] = origin + 5, origin + 6
            first = tuple([origin + 5] * d)
            with pytest.raises(ValueError, match=re.escape(f"lattice point {first} is missing")):
                cubes.vertex_ids(complex, V)
    with pytest.raises(ValueError, match="2 coordinates"):
        cubes.vertex_ids(TWO_CUBES, [0, 0, 0])


def test_scalar_coeff_is_elementwise_on_arrays():
    t = np.array([0.0, 0.25, 1.0])
    assert scalar_coeff(t, 1).tolist() == [0.0, 0.25, 1.0]
    assert scalar_coeff(t, 0).tolist() == [1.0, 0.75, 0.0]
    assert scalar_coeff(t, 3).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        scalar_coeff(np.array([0.5, 1.5]), 1)


def _sample_points(complex, rng, n=12):
    """Interior points, points on faces and at vertices, points nudged off a
    face by a fraction or a multiple of _CUBE_TOL (the tolerance pass, on
    either side of it), and points outside."""
    d, R = complex.d, complex.R
    offs = np.array(complex.offsets, dtype=float)
    pts = []
    for _ in range(n):
        w = offs[rng.integers(len(offs))]
        u = rng.random(d)
        pts.append(R * (w + u))
        face = u.copy()
        face[rng.random(d) < 0.5] = rng.integers(0, 2)
        pts.append(R * (w + face))
        nudged = face.copy()
        i = int(rng.integers(d))
        side = -1.0 if rng.random() < 0.5 else 1.0
        nudged[i] = float(rng.integers(0, 2)) + side * rng.choice([0.3, 0.9, 1.5, 3.0, 8.0]) * _CUBE_TOL
        pts.append(R * (w + nudged))
        pts.append(R * (rng.integers(-3, 4, size=d) + rng.random(d)))
    pts += [R * np.array(v, dtype=float) for v in complex.vertices()]
    return pts


def _or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_kernel_and_views_match_the_oracle(d):
    rng = np.random.default_rng(60 + d)
    bits = vertex_bits(d)
    for R in (1.0, 2.0, 0.7, 1e-3):
        for offsets in complex_shapes(d).values():
            complex = CubeComplex(d=d, R=R, offsets=offsets)
            inside = []
            for x in _sample_points(complex, rng):
                cube = _or_error(oracle_find_cube, complex, x)
                support = _or_error(oracle_support, complex, x)
                assert _or_error(find_cube, complex, x) == cube
                assert _or_error(lambda_support, complex, x) == support
                if support is ValueError:
                    with pytest.raises(ValueError):
                        vertex_weights(complex, [x])
                    continue
                inside.append((x, cube, support))
                for k in rng.choice(len(bits), size=min(3, len(bits)), replace=False):
                    v = tuple(int(c) for c in np.add(cube, bits[k]))
                    assert lambda_weight(complex, v, x) == oracle_weight(complex, v, x)
            W, L = vertex_weights(complex, [x for x, _, _ in inside])
            for (x, cube, support), w, row in zip(inside, W, L):
                assert tuple(w.tolist()) == cube
                dense = {v: wt for v, wt in support}
                for b, wt in zip(bits, row):
                    assert wt == dense.get(tuple(int(c) for c in w + b), 0.0)


def test_kernel_blocks_match_the_oracle():
    complex = CubeComplex(d=2, R=0.7, offsets=((0, 0), (1, 0), (1, 1)))
    step = cubes._BLOCK_CELLS >> complex.d
    rng = np.random.default_rng(7)
    offs = np.array(complex.offsets, dtype=float)
    n = 2 * step + 37
    X = complex.R * (offs[rng.integers(len(offs), size=n)] + rng.random((n, 2)))
    X[::5, 0] = complex.R * np.round(X[::5, 0] / complex.R)  # on a face
    W, L = vertex_weights(complex, X)
    assert W.shape == (n, 2) and L.shape == (n, 4)
    for x, w, row in zip(X, W, L):
        assert tuple(w.tolist()) == oracle_find_cube(complex, x)
        support = [(v, wt) for v, wt in oracle_support(complex, x)]
        assert [(tuple((w + b).tolist()), wt) for b, wt in zip(vertex_bits(2), row) if wt != 0.0] == support
    # the first point outside is named, wherever it sits among the blocks
    X[step + 3] = (5.0, 5.0)
    with pytest.raises(ValueError, match=r"point \(5.0, 5.0\) lies outside"):
        vertex_weights(complex, X)


def test_non_finite_points_lie_outside():
    for x in ((float("inf"), 0.5), (0.5, float("-inf")), (float("nan"), 0.5), (1e300, 0.5)):
        with pytest.raises(ValueError, match="outside"):
            find_cube(TWO_CUBES, x)
        with pytest.raises(ValueError, match="outside"):
            vertex_weights(TWO_CUBES, [x])


def test_kernel_rejects_malformed_input():
    with pytest.raises(ValueError, match="points must form"):
        vertex_weights(TWO_CUBES, [0.5, 0.5])
    with pytest.raises(ValueError, match="vertex must have"):
        lambda_weight(TWO_CUBES, (0,), (0.5, 0.5))
    W, L = vertex_weights(TWO_CUBES, np.empty((0, 2)))
    assert W.shape == (0, 2) and L.shape == (0, 4)


def test_vertex_bits_order_is_product_order():
    for d in (1, 2, 3):
        assert vertex_bits(d).tolist() == [list(b) for b in product((0, 1), repeat=d)]
        assert not vertex_bits(d).flags.writeable
