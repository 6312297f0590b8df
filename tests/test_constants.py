import math

import numpy as np
import pytest
from constants_oracle import c_const_sup_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from freep.constants import (
    basis_bound,
    bm_bound,
    c_const,
    retraction_bounds,
    rho,
    tau,
)
from freep.cubes import CubeComplex, lambda_weight
from freep.metric import DyadicPoint, l1_space, lattice_l1_space
from freep.retraction import lower_bound_witness

UNIT_SQUARE = CubeComplex(d=2, R=1.0, offsets=((0, 0),))

P_GRID = [1.0, 0.75, 0.5, 0.25]


def test_c_const_formula():
    assert c_const(1.0, 5) == 1.0
    assert c_const(0.5, 2) == pytest.approx(2.0, rel=1e-12)
    assert c_const(0.5, 8) == pytest.approx(8.0, rel=1e-12)


def test_c_const_rejects_bad_arguments():
    with pytest.raises(ValueError):
        c_const(0.5, 0)
    with pytest.raises(ValueError):
        c_const(0.0, 3)
    with pytest.raises(ValueError):
        c_const(1.5, 3)


@pytest.mark.parametrize("call, message", [
    (lambda: c_const(0.5, 2.5), "n must be an integer >= 1, got 2.5"),
    (lambda: c_const(0.5, True), "n must be an integer >= 1, got True"),
    (lambda: tau(0.5, 0.5, 2.5), "d must be an integer >= 1, got 2.5"),
    (lambda: retraction_bounds(0.5, 2.5), "d must be an integer >= 1, got 2.5"),
    (lambda: basis_bound(0.5, 0.5, 2.5), "d must be an integer >= 1, got 2.5"),
    (lambda: bm_bound(0.5, 0.5, 2.5), "d must be an integer >= 1, got 2.5"),
    (lambda: bm_bound(0.5, 0.5, 0), "d must be an integer >= 1, got 0"),
    (lambda: DyadicPoint(1.5, (1,)), "level must be an integer >= 0, got 1.5"),
    (lambda: DyadicPoint(2, (1.7, 2)), "numerator must be an integer, got 1.7"),
    (lambda: l1_space([(0.0,), (1.0,)], base=1.5), "base index must be an integer >= 0, got 1.5"),
    (lambda: lattice_l1_space([(0.5,), (1.7,)], 1.0),
     "lattice coordinate must be an integer, got 0.5"),
    (lambda: CubeComplex(d=1, R=1.0, offsets=((0.5,),)),
     "offset coordinate must be an integer, got 0.5"),
    (lambda: CubeComplex(d=1, R=1.0, offsets=((0,),), base_vertex=(0.9,)),
     "base vertex coordinate must be an integer, got 0.9"),
    (lambda: lambda_weight(UNIT_SQUARE, (0.9, 0.9), (0.5, 0.5)),
     "vertex coordinate must be an integer, got 0.9"),
    (lambda: lower_bound_witness(2.7, 0.5), "d must be an integer >= 1, got 2.7"),
], ids=["c_const", "c_const-bool", "tau", "retraction_bounds", "basis_bound", "bm_bound",
        "bm_bound-zero", "dyadic-level", "dyadic-numerator", "l1-base", "lattice-coordinate",
        "cube-offset", "cube-base-vertex", "lambda-vertex", "witness-d"])
def test_counts_are_never_truncated(call, message):
    # truncated, c_const(0.5, 2.5) would read 2.0, basis_bound would mix
    # d = 2.5 and d = 2, and lambda_weight would weigh vertex (0, 0)
    with pytest.raises(ValueError, match=message):
        call()


def test_integer_counts_of_any_integral_type_are_taken():
    assert c_const(0.5, np.int64(4)) == c_const(0.5, 4)
    assert basis_bound(0.5, 0.5, np.int32(2)) == basis_bound(0.5, 0.5, 2)
    assert DyadicPoint(np.int64(2), (np.int32(1), np.int64(2))) == DyadicPoint(2, (1, 2))
    assert l1_space([(0.0,), (1.0,)], base=np.int64(1)).base == 1
    assert lattice_l1_space([(np.int64(0),), (np.int32(1),)], 1.0).points == ((0,), (1,))
    cube = CubeComplex(d=1, R=1.0, offsets=((np.int64(1),),), base_vertex=(np.int32(2),))
    assert (cube.offsets, cube.base_vertex) == (((1,),), (2,))
    assert lambda_weight(UNIT_SQUARE, np.array([1, 1]), (0.5, 0.5)) == 0.25
    witness = lower_bound_witness(np.int64(2), 0.5)
    assert witness.certified_value == lower_bound_witness(2, 0.5).certified_value


def test_c_const_monotone_and_unital():
    for p in P_GRID:
        assert c_const(p, 1) == 1.0
        values = [c_const(p, n) for n in range(1, 17)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert all(c_const(1.0, n) == 1.0 for n in range(1, 17))


def test_sup_oracle_examples():
    assert c_const_sup_oracle(1.0, 3, 50) == pytest.approx(1.0, abs=1e-12)
    assert c_const_sup_oracle(0.5, 2, 100) == pytest.approx(2.0, abs=1e-3)
    assert c_const_sup_oracle(0.75, 4, 100) == pytest.approx(c_const(0.75, 4), abs=1e-3)


def test_sup_oracle_never_exceeds_closed_form():
    for p in P_GRID:
        for n in (1, 2, 5, 9):
            assert c_const_sup_oracle(p, n, 200) <= c_const(p, n) * (1 + 1e-12)


def test_rho_closed_form_p1():
    expected = 1.0 + 2.0 * 2**-0.5 / (1.0 - 2**-0.5)
    assert rho(1.0, 0.5) == pytest.approx(expected, rel=1e-12)
    # alpha -> 1 limit of the p = 1 expression is 3
    assert rho(1.0, 1.0 - 1e-12) == pytest.approx(3.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.02, max_value=0.98),
)
def test_rho_exceeds_one(p, alpha):
    assert rho(p, alpha) > 1.0


def test_tau_closed_form_d1():
    expected = 4.0 * (1.0 / (1.0 - 2**-0.5)) ** 2
    assert tau(1.0, 0.5, 1) == pytest.approx(expected, rel=1e-12)


def test_tau_factorization_d2():
    p, alpha, d = 0.5, 0.5, 2
    chain = c_const(p * alpha, d) ** alpha
    line = (1.0 / (1.0 - 2 ** (p * (alpha - 1.0)))) ** (1.0 / p)
    path = (1.0 / (1.0 - 2 ** (-p * alpha))) ** (1.0 / p)
    corner = (1.0 + (d - 1) ** (p * alpha)) ** (1.0 / p)
    assert tau(p, alpha, d) == pytest.approx(
        chain * 2 ** (2.0 / p) * line * path * corner, rel=1e-12
    )


def test_tau_nondecreasing_in_d():
    for p in (1.0, 0.5):
        for alpha in (0.25, 0.75):
            vals = [tau(p, alpha, d) for d in range(1, 6)]
            assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


def test_retraction_bounds_examples():
    assert retraction_bounds(1.0, 3) == (1.0, 1.0)
    lo, up = retraction_bounds(0.5, 2)
    assert (lo, up) == (pytest.approx(2.0), pytest.approx(12.0))
    lo, up = retraction_bounds(0.5, 1)
    assert (lo, up) == (pytest.approx(1.0), pytest.approx(3.0))


def test_retraction_bounds_equality_only_at_p1():
    for d in (1, 2, 4):
        lo, up = retraction_bounds(1.0, d)
        assert lo == up == 1.0
        for p in (0.75, 0.5, 0.25):
            lo, up = retraction_bounds(p, d)
            assert lo < up


def test_bm_bound_composition():
    for d in (1, 2, 3):
        got = bm_bound(1.0, 0.5, d)
        assert got == pytest.approx(rho(1.0, 0.5) ** d * tau(1.0, 0.5, d) ** d, rel=1e-12)
        assert math.isfinite(bm_bound(0.25, 0.9, d))
    assert bm_bound(1.0, 0.5, 1) == pytest.approx(rho(1.0, 0.5) * tau(1.0, 0.5, 1), rel=1e-12)
