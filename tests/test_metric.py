from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from face_induction_oracle import neighbors
from freep.metric import (
    DyadicPoint,
    PointedFiniteMetric,
    coordinate_level,
    dyadic_grid,
    holder_distort,
    l1_space,
    lattice_l1_space,
    load_points,
    save_points,
)


def test_l1_space_distances():
    s = l1_space([(0, 0), (1, 0), (1, 1)])
    assert s.distance(0, 2) == 2.0
    assert s.distance(0, 1) == 1.0


def test_l1_space_rejects_duplicates():
    with pytest.raises(ValueError):
        l1_space([(0.0,), (0.0,)])


def test_duplicate_points_have_one_check():
    # the constructor's, whichever space builds the labels
    with pytest.raises(ValueError, match="^duplicate points in metric space$"):
        l1_space([(0.0,), (-0.0,)])
    with pytest.raises(ValueError, match="^duplicate points in metric space$"):
        lattice_l1_space([(1,), (1,)], 0.5)


def test_unit_square_vertex_distances():
    s = l1_space([(0, 0), (0, 1), (1, 0), (1, 1)])
    dists = {s.distance(i, j) for i, j in combinations(range(4), 2)}
    assert dists == {1.0, 2.0}


def test_metric_validation_catches_triangle_violation():
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        PointedFiniteMetric(("a", "b", "c"), 0, bad)


def test_metric_validation_rejects_non_finite_distances():
    with pytest.raises(ValueError, match=r"d\(0,1\) = nan is not finite"):
        l1_space([(0.0, 0.0), (float("nan"), 1.0)])
    inf = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(ValueError, match="not finite"):
        PointedFiniteMetric(("a", "b"), 0, inf)


@pytest.mark.parametrize("bad, message", [
    ([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]],
     "triangle inequality fails: d(0,2) > d(0,1) + d(1,2)"),
    ([[0.0, 1.0, 2.0], [1.0, 0.0, np.inf], [2.0, np.inf, 0.0]], "distance d(1,2) = inf is not finite"),
    ([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.5, 1.0, 0.0]], "distance matrix is not symmetric"),
    ([[0.0, 1.0, 2.0], [1.0, 0.5, 1.0], [2.0, 1.0, 0.0]], "distance matrix has a nonzero diagonal entry"),
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
     "off-diagonal distances must be strictly positive"),
], ids=["triangle", "non-finite", "asymmetric", "diagonal", "zero"])
def test_a_stack_with_one_bad_host_raises_its_message(bad, message):
    """A host with a bad distance matrix raises the message that names its
    fault; the library checks no stack of matrices."""
    with pytest.raises(ValueError) as alone:
        PointedFiniteMetric(("a", "b", "c"), 0, np.array(bad))
    assert str(alone.value) == message


def test_holder_identity_and_example():
    s = l1_space([(0.0,), (4.0,)])
    assert holder_distort(s, 1.0).distance(0, 1) == 4.0
    assert holder_distort(s, 0.5).distance(0, 1) == 2.0


def test_holder_distort_rechecks_the_triangle_inequality():
    # below distance 1 the constructor's slack is 1e-12 absolute, so it takes
    # an excess of 9e-13 at d(0,2); t^0.3 magnifies that excess to about
    # 4e-9 at this scale, and the re-check refuses the distorted host
    near, tiny = 1e-6, 1e-300
    far = near + tiny + 9e-13
    space = PointedFiniteMetric(
        ("a", "b", "c"), 0, np.array([[0.0, near, far], [near, 0.0, tiny], [far, tiny, 0.0]]))
    with pytest.raises(ValueError, match="triangle inequality fails"):
        holder_distort(space, 0.3)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 40)),
        min_size=3,
        max_size=5,
        unique=True,
    ),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_holder_preserves_triangle_inequality(points, alpha):
    space = l1_space(points)
    holder_distort(space, alpha)  # constructor re-validates all triples


def test_dyadic_grid_sizes():
    assert len(dyadic_grid(1, 0)) == 2
    assert len(dyadic_grid(2, 1)) == 9
    assert len(dyadic_grid(3, 2)) == 125


@pytest.mark.parametrize("d, k, message", [
    (2.5, 1, "d must be an integer >= 1, got 2.5"),
    (2, 1.5, "k must be an integer >= 0, got 1.5"),
    (2, -1, "k must be an integer >= 0, got -1"),
    (2, -2, "k must be an integer >= 0, got -2"),
])
def test_dyadic_grid_counts_are_integers(d, k, message):
    with pytest.raises(ValueError, match=message):
        dyadic_grid(d, k)


def test_dyadic_grid_nesting():
    for d, k in ((1, 2), (2, 1)):
        coarse = dyadic_grid(d, k)
        fine = dyadic_grid(d, k + 1)
        assert coarse <= fine
        assert len(fine - coarse) == (2 ** (k + 1) + 1) ** d - (2**k + 1) ** d


def test_levels():
    v = DyadicPoint.from_fractions([Fraction(1, 2), Fraction(1, 4)])
    assert v.level == 2
    assert coordinate_level(Fraction(3, 8)) == 3
    assert coordinate_level(2) == 0
    with pytest.raises(ValueError):
        coordinate_level(Fraction(1, 3))


def test_level_exhaustive_grid():
    for v in dyadic_grid(2, 3):
        assert v.level <= 3
        odd_at_3 = any(n % 2 == 1 for n in (c * 8 for c in v.coords()))
        assert (v.level == 3) == odd_at_3


def test_neighbors_examples():
    assert neighbors(Fraction(1, 2)) == (Fraction(0), Fraction(1))
    assert neighbors(Fraction(3, 8)) == (Fraction(1, 4), Fraction(1, 2))
    with pytest.raises(ValueError):
        neighbors(Fraction(1))


def test_neighbors_exhaustive_levels():
    for n in range(1, 7):
        for num in range(1, 2**n, 2):
            x = Fraction(num, 2**n)
            lo, hi = neighbors(x)
            assert 0 <= lo < x < hi <= 1
            assert hi - x == x - lo == Fraction(1, 2**n)
            assert coordinate_level(lo) < n and coordinate_level(hi) < n


def test_dyadic_point_canonical_form():
    assert DyadicPoint(3, (4, 2)) == DyadicPoint(2, (2, 1))
    with pytest.raises(ValueError):
        DyadicPoint(1, (3,))  # 3/2 outside [0, 1]


def test_lattice_space_scaling_is_exact():
    s = lattice_l1_space([(0, 0), (1, 2)], 3.0)
    assert s.distance(0, 1) == 3.0 * 3


def test_point_file_round_trip():
    text = save_points([(0.0, 0.5), (1.0, 0.25)], base=1)
    points, base = load_points(text)
    assert points == [(0.0, 0.5), (1.0, 0.25)]
    assert base == 1


def test_point_file_errors():
    with pytest.raises(ValueError):
        load_points("")
    with pytest.raises(ValueError):
        load_points("2 0\n0.0\n")  # wrong arity
    with pytest.raises(ValueError):
        load_points("1 5\n0.0\n")  # base out of range


@pytest.mark.parametrize("text, message", [
    ("2.5 0\n0 0\n1 1\n", "first line '2.5 0' must hold the dimension and the base index"),
    ("2 x\n0 0\n1 1\n", "first line '2 x' must hold the dimension and the base index"),
    ("2 0 1\n0 0\n1 1\n", "first line '2 0 1' must hold the dimension and the base index"),
    ("2 0\n0 0\n1 y\n", "point '1 y' holds a coordinate that is not a number"),
    ("2 0\n0 0\ninf 0\n0 1\n", "point 'inf 0' holds a coordinate that is not finite"),
    ("2 0\n0 0\n0 nan\n", "point '0 nan' holds a coordinate that is not finite"),
])
def test_point_file_parse_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        load_points(text)
