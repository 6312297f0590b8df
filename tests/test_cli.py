import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freep import cubes, freenorm, metric
from freep.cli import main
from freep.constants import EVAL_TOL, P_FLOOR
from test_report_corpus import load as load_report_corpus


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def space_file(tmp_path):
    return write(tmp_path, "space.txt", "1 0\n0.0\n0.5\n1.0\n")


@pytest.fixture
def element_file(tmp_path):
    return write(tmp_path, "elem.txt", "1.0 1\n-0.25 2\n")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bm_report_and_byte_stability(capsys, tmp_path):
    args = ["--command", "bm-report", "--p", "1", "--alpha", "0.5", "--d", "1"]
    code, out1, _ = run(capsys, args)
    assert code == 0
    code, out2, _ = run(capsys, args)
    assert out1 == out2
    report = json.loads(out1)
    assert report["bm_bound"] == pytest.approx(271.76450198781731)
    assert report["retraction_lower"] == 1.0


def test_norm_command(capsys, space_file, element_file):
    code, out, _ = run(
        capsys,
        ["--command", "norm", "--p", "0.5", "--alpha", "0.5",
         "--in", space_file, "--in", element_file],
    )
    assert code == 0
    report = json.loads(out)
    assert report["norm"] > 0
    assert report["witness"]


def test_norm_on_a_host_beyond_the_cap_with_small_support(capsys, tmp_path):
    line = write(tmp_path, "line.txt", "1 0\n" + "".join(f"{i}.0\n" for i in range(9)))
    elem = write(tmp_path, "one.txt", "1.0 1\n")
    code, out, _ = run(capsys, ["--command", "norm", "--p", "0.5", "--in", line, "--in", elem])
    assert code == 0
    report = json.loads(out)
    assert report["n_points"] == 9
    assert report["norm"] == pytest.approx(1.0, abs=1e-12)


def test_norm_rejects_malformed_element(capsys, space_file, tmp_path):
    bad = write(tmp_path, "bad.txt", "not an element\n")
    code, _, err = run(
        capsys,
        ["--command", "norm", "--p", "1", "--in", space_file, "--in", bad],
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("space, element, message", [
    ("1 0\n0.0\n0.5\n", "1.0 1\nx 2\n", "element line 'x 2' is not 'weight point-index'"),
    ("2.5 0\n0 0\n1 1\n", "1.0 1\n",
     "first line '2.5 0' must hold the dimension and the base index"),
])
def test_parse_errors_name_the_line(capsys, tmp_path, space, element, message):
    argv = ["--command", "norm", "--p", "0.5", "--in", write(tmp_path, "space.txt", space),
            "--in", write(tmp_path, "elem.txt", element)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["--command", "norm", "--p", "0.5"],
    ["--command", "norm", "--p", "1"],
    ["--command", "decompose", "--alpha", "0.5"],
])
def test_non_finite_weight_is_rejected(capsys, space_file, tmp_path, command):
    bad = write(tmp_path, "nan.txt", "nan 1\n-0.25 2\n")
    code, out, err = run(capsys, [*command, "--in", space_file, "--in", bad])
    assert code == 2
    assert out == ""
    assert "weight nan at point index 1 is not finite" in err


@pytest.mark.parametrize("p", ["0.5", "1"])
def test_weights_whose_total_overflows_exit_2(capsys, tmp_path, p):
    # finite weights whose total sum |w| is inf: the rounding floor would
    # drop every flow and certify the norm 0; with one sign, their subset
    # sums overflow too
    space = write(tmp_path, "space.txt", README_FILES["README_SPACE"])
    for weights in ("1e308 1\n-1e308 2\n", "1e308 1\n1e308 2\n"):
        huge = write(tmp_path, "huge.txt", weights)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["--command", "norm", "--p", p, "--in", space,
                                          "--in", huge])
        assert code == 2
        assert out == ""
        assert "the weight total sum |w| overflows to inf" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], weights


def test_an_infinite_coordinate_exits_2(capsys, tmp_path):
    # a coordinate that is not finite is refused on its own line, an inf
    # and a nan alike, before any distance is taken
    element = write(tmp_path, "elem.txt", "1.0 1\n-1.0 2\n")
    for line in ("inf 0", "nan 0"):
        space = write(tmp_path, "space.txt", f"2 0\n0 0\n{line}\n0 1\n")
        for command in (["--command", "norm", "--p", "0.5"],
                        ["--command", "decompose", "--alpha", "0.5"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(capsys, [*command, "--in", space, "--in", element])
            assert code == 2, (line, command)
            assert out == ""
            assert f"point '{line}' holds a coordinate that is not finite" in err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_a_p_below_the_floor_exits_2(capsys, tmp_path):
    # t^p rounds towards 1 and the power 1/p magnifies that: at p = 1e-300
    # the molecule of length 2 read norm 1, though every p-norm of it is 2
    space = write(tmp_path, "space.txt", "2 0\n0 0\n1 0\n0 1\n")
    element = write(tmp_path, "elem.txt", "1.0 1\n-1.0 2\n")
    argv = ["--command", "norm", "--in", space, "--in", element, "--p"]
    code, out, err = run(capsys, [*argv, "1e-300"])
    assert code == 2
    assert out == ""
    assert "--p: exponent p must satisfy 2.22e-07 <= p <= 1, got 1e-300" in err
    code, out, _ = run(capsys, [*argv, repr(P_FLOOR)])
    assert code == 0
    assert json.loads(out)["norm"] == pytest.approx(2.0, rel=EVAL_TOL)


@pytest.mark.parametrize("flags, message", [
    (["--command", "lambda-check", "--d", "2", "--samples", "-5"],
     "--samples must be an integer >= 0, got -5"),
    (["--command", "retraction-verify", "--d", "2", "--p", "0.5", "--samples", "-5"],
     "--samples must be an integer >= 0, got -5"),
    (["--command", "bm-report", "--p", "1", "--alpha", "0.5", "--d", "0"],
     "--d must be an integer >= 1, got 0"),
    (["--command", "basis-verify", "--d", "1", "--alpha", "0.5", "--p", "1", "--kmax", "0"],
     "--kmax must be an integer >= 1, got 0"),
    (["--command", "lambda-check", "--d", "1", "--seed", "-3"],
     "--seed must be an integer >= 0, got -3"),
])
def test_counts_are_validated(capsys, flags, message):
    code, out, err = run(capsys, flags)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("values, message", [
    ({"seed": 1.5}, "--seed must be an integer >= 0, got 1.5"),
    ({"samples": True}, "--samples must be an integer >= 0, got True"),
    ({"d": 2.0}, "--d must be an integer >= 1, got 2.0"),
    ({"R": "abc"}, "--R must be a real number, got 'abc'"),
    ({"p": False}, "--p must be a real number, got False"),
    ({"in": "cx.txt"}, "--in must be a list of strings, got 'cx.txt'"),
    ({"in": [1]}, "--in must be a list of strings, got [1]"),
    ({"out": 3}, "--out must be a string, got 3"),
    ({"kmax": 1.5}, "--kmax must be an integer >= 1, got 1.5"),
])
def test_config_values_are_type_checked(capsys, tmp_path, values, message):
    cfg = write(tmp_path, "cfg.json",
                json.dumps({"command": "lambda-check", "d": 1, "samples": 10, **values}))
    code, out, err = run(capsys, ["--config", cfg])
    assert code == 2
    assert out == ""
    assert message in err


def test_norm_requires_two_inputs(capsys, space_file):
    code, _, err = run(capsys, ["--command", "norm", "--p", "1", "--in", space_file])
    assert code == 2


def test_retraction_verify(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        ["--command", "retraction-verify", "--d", "2", "--p", "0.5",
         "--seed", "5", "--samples", "40", "--out", str(out_file)],
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["witness_value"] == pytest.approx(2.0, abs=1e-9)
    assert report["max_upper_cost_ratio"] <= report["theoretical_upper"] * (1 + 1e-9)


def test_retraction_verify_from_complex_file(capsys, tmp_path):
    complex_file = write(tmp_path, "cx.txt", "2 1.0\n0 0\n1 0\n0 0\n")
    code, out, _ = run(
        capsys,
        ["--command", "retraction-verify", "--p", "1", "--seed", "1",
         "--samples", "30", "--in", complex_file],
    )
    assert code == 0
    report = json.loads(out)
    assert report["complex"] == [[0, 0], [1, 0]]
    assert report["max_upper_cost_ratio"] <= 1 + 1e-9


@pytest.mark.parametrize("source", ["1e8", "1e12", "file-1e300"])
def test_retraction_verify_checks_its_ratios_at_any_scale(capsys, tmp_path, source):
    # the exact norms are cross-checked as ratios over |x - y|_1, so the
    # scale R neither breaks the check nor changes how many pairs it covers
    if source.startswith("file"):
        scaled = ["--in", write(tmp_path, "cx.txt", "1 1e300\n5\n5\n")]
        unit = ["--in", write(tmp_path, "unit.txt", "1 1\n5\n5\n")]
    else:
        scaled, unit = ["--d", "2", "--R", source], ["--d", "2"]
    argv = ["--command", "retraction-verify", "--p", "0.5", "--samples", "200"]
    for seed in ("0", "1", "2", "3"):
        code, out, err = run(capsys, [*argv, *unit, "--seed", seed])
        assert code == 0, err
        checked = json.loads(out)["exact_norms_checked"]
        code, out, err = run(capsys, [*argv, *scaled, "--seed", seed])
        assert code == 0, (seed, err)
        assert json.loads(out)["exact_norms_checked"] == checked > 0


def test_a_scale_whose_distances_overflow_exits_2_without_warnings(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, ["--command", "retraction-verify", "--d", "2", "--p", "0.5", "--R", "1e308"])
    assert code == 2
    assert out == ""
    assert err == "error: distance d(0,3) = inf is not finite\n"
    assert not caught


# At small p the constants reach 1e8 to 1e34, where a value one rounding
# away from its constant differs from it by more than EVAL_TOL: each check
# of a value against a constant is relative to the constant.


@pytest.mark.parametrize("d, p", [("2", "0.03"), ("4", "0.1")])
def test_a_witness_value_at_small_p_passes_relative_to_its_constant(capsys, d, p):
    code, out, err = run(capsys, ["--command", "retraction-verify", "--d", d, "--p", p,
                                  "--samples", "50"])
    assert code == 0, err
    report = json.loads(out)
    gap = abs(report["witness_value"] - report["theoretical_lower"])
    assert EVAL_TOL < gap <= EVAL_TOL * report["theoretical_lower"]


def test_exact_norms_at_small_p_are_checked_relative_to_their_bounds(capsys, tmp_path):
    # the norms are about 1.5e34, and the exact cross-check ran out of
    # absolute slack with an AssertionError
    cx = write(tmp_path, "cx.txt", COMPLEX_FILES["TWO_SQUARES"])
    code, out, err = run(capsys, ["--command", "retraction-verify", "--p", "0.02",
                                  "--samples", "200", "--in", cx])
    assert code == 0, err
    report = json.loads(out)
    assert report["exact_norms_checked"] > 0 and report["max_upper_cost_ratio"] > 1e34


def test_a_basis_norm_at_small_p_passes_relative_to_its_bound(capsys):
    code, out, err = run(capsys, ["--command", "basis-verify", "--d", "4", "--alpha", "0.5",
                                  "--p", "0.1", "--kmax", "1"])
    assert code == 0, err
    report = json.loads(out)
    assert report["basis_ok"]
    gap = report["max_basis_norm"] - report["basis_bound"]
    assert EVAL_TOL < gap <= EVAL_TOL * report["basis_bound"]


def test_basis_verify(capsys):
    code, out, _ = run(
        capsys,
        ["--command", "basis-verify", "--d", "1", "--alpha", "0.5",
         "--p", "1", "--kmax", "2"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["complete"] is True
    assert report["max_molecule_cost"] <= report["molecule_bound"]


def test_basis_verify_default_budget_covers_the_d2_level4_grid(capsys):
    # 41,616 molecule pairs; the grid is checked in about a second
    code, out, _ = run(
        capsys,
        ["--command", "basis-verify", "--d", "2", "--alpha", "0.5",
         "--p", "0.5", "--kmax", "4"],
    )
    assert code == 0
    assert json.loads(out)["complete"] is True


def test_basis_verify_default_budget_covers_the_d1_level9_grid(capsys):
    # 131,328 molecule pairs, more than the old default budget of 100,000;
    # the default now covers every grid MAX_BASIS_POINTS admits
    code, out, err = run(
        capsys,
        ["--command", "basis-verify", "--d", "1", "--alpha", "0.5",
         "--p", "0.5", "--kmax", "9"],
    )
    assert code == 0, err
    assert json.loads(out)["complete"] is True


def test_basis_verify_catches_a_broken_analysis(capsys, monkeypatch):
    # one exact peel weight of a copy of the grid plan moved by 1e-6: the
    # columns of A through it no longer invert the synthesis, which only the
    # reconstruction check can see (the move is far too small for the costs)
    from freep import dyadic
    from freep.freenorm import EVAL_TOL

    plan = dyadic._grid_plan(2, 2)
    starts, rows, values = plan.peel
    values = values.copy()
    values[len(values) // 2] += 1e-6
    broken = plan._replace(peel=(starts, rows, values))
    monkeypatch.setattr(dyadic, "_grid_plan", lambda d, k_max: broken)
    assert dyadic.verify_norming(2, 0.5, 0.5, 2)["max_molecule_residual"] > EVAL_TOL
    code, out, err = run(
        capsys,
        ["--command", "basis-verify", "--d", "2", "--alpha", "0.5",
         "--p", "0.5", "--kmax", "2"],
    )
    assert code == 1 and json.loads(out)["max_molecule_residual"] > EVAL_TOL
    assert "check failed: a molecule decomposition does not reconstruct its molecule" in err


@pytest.mark.parametrize("d,kmax,count", [("2", "7", "16640"), ("20", "1", "3486784400")])
def test_basis_verify_refuses_oversized_grids(capsys, d, kmax, count):
    code, out, err = run(
        capsys,
        ["--command", "basis-verify", "--d", d, "--alpha", "0.5",
         "--p", "0.5", "--kmax", kmax],
    )
    assert (code, out) == (2, "")
    assert f"{count} basis points" in err and "--d" in err and "--kmax" in err


@pytest.fixture
def no_cube_work(monkeypatch):
    """Any cube lookup or retraction context fails the test at once, so a
    refusal that comes too late cannot start the work it guards."""
    from freep import retraction

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the dimension check")

    monkeypatch.setattr(retraction, "build_context", refuse)
    monkeypatch.setattr(cubes, "vertex_weights", refuse)


@pytest.mark.parametrize("command", [
    ["--command", "lambda-check", "--samples", "10"],
    ["--command", "retraction-verify", "--p", "0.5", "--samples", "10"],
])
@pytest.mark.parametrize("d", [cubes.MAX_D + 1, cubes.MAX_D + 2, 40])
def test_complex_commands_refuse_dimensions_beyond_the_cap(capsys, tmp_path, no_cube_work, command, d):
    code, out, err = run(capsys, command + ["--d", str(d)])
    assert (code, out) == (2, "")
    assert f"--d {d} is beyond the cap {cubes.MAX_D}" in err
    # a complex file whose first line gives such a d, whatever its offsets
    for offsets in ("0 " * d, "0 0"):
        cx = write(tmp_path, "cx.txt", f"{d} 1.0\n{offsets}\n{offsets}\n")
        code, out, err = run(capsys, command + ["--in", cx])
        assert (code, out) == (2, "")
        assert f"--d {d} is beyond the cap {cubes.MAX_D}" in err


def test_lambda_check_runs_at_the_dimension_cap(capsys):
    code, out, _ = run(capsys, ["--command", "lambda-check", "--d", str(cubes.MAX_D), "--samples", "10"])
    assert code == 0
    assert json.loads(out)["d"] == cubes.MAX_D


def test_decompose(capsys, space_file, element_file):
    code, out, _ = run(
        capsys,
        ["--command", "decompose", "--alpha", "0.5",
         "--in", space_file, "--in", element_file],
    )
    assert code == 0
    report = json.loads(out)
    assert report["residual"] <= 1e-9
    assert report["n_terms"] == len(report["coefficients"]) == 2


def test_decompose_takes_a_large_element_within_its_rounding(capsys, tmp_path):
    # the residual is 1.2e-7 at weights of order 1e9 and exactly 0 at order 1:
    # the slack scales with the element's largest weight
    space = write(tmp_path, "space.txt", "2 0\n0 0\n0.5 0\n0.5 0.25\n1 1\n0.25 0.75\n")
    for scale in (1.0, 1e9):
        weights = [scale, -0.5 * scale, 0.25 * scale, 0.75 * scale]
        lines = "".join(f"{w!r} {i}\n" for i, w in enumerate(weights, 1))
        element = write(tmp_path, "elem.txt", lines)
        code, out, err = run(
            capsys, ["--command", "decompose", "--alpha", "0.5", "--in", space, "--in", element])
        assert code == 0, (scale, err)
        assert json.loads(out)["residual"] <= EVAL_TOL * scale


@pytest.mark.parametrize("weight", ["1e-14", "1e-200", "1e-320"])
def test_decompose_takes_a_tiny_element(capsys, tmp_path, weight):
    # coefficients are pruned relative to the largest, so a tiny element
    # keeps them all, down to a subnormal weight
    space = write(tmp_path, "space.txt", "2 0\n0 0\n0.5 0\n0.5 0.25\n1 1\n")
    element = write(tmp_path, "tiny.txt", f"{weight} 1\n")
    code, out, err = run(
        capsys, ["--command", "decompose", "--alpha", "0.5", "--in", space, "--in", element])
    assert code == 0, err
    report = json.loads(out)
    assert report["n_terms"] == 2
    assert report["residual"] <= EVAL_TOL * float(weight)


def test_decompose_takes_a_subnormal_element_of_several_weights(capsys, tmp_path):
    # EVAL_TOL times the largest |weight| underflows to 0 here, so the element
    # is analysed and checked scaled into [1/2, 1): its coefficients are
    # those of the same element scaled by 2^1070, scaled back, each rounded
    # once
    space = write(tmp_path, "space.txt", "2 0\n0 0\n0.5 0\n0.5 0.25\n1 1\n0.25 0.75\n")
    weights = (1e-320, -5e-321, 2.5e-321, 7.5e-321)
    reports = []
    for name, scale in (("tiny.txt", 0), ("big.txt", 1070)):
        lines = "".join(f"{math.ldexp(w, scale)!r} {i}\n" for i, w in enumerate(weights, 1))
        element = write(tmp_path, name, lines)
        code, out, err = run(
            capsys, ["--command", "decompose", "--alpha", "0.5", "--in", space, "--in", element])
        assert code == 0, err
        reports.append(json.loads(out))
    tiny, big = reports
    assert tiny["n_terms"] == big["n_terms"] == 9
    assert tiny["residual"] == 0.0
    assert [c["coeff"] for c in tiny["coefficients"]] == [
        math.ldexp(c["coeff"], -1070) for c in big["coefficients"]
    ]


def test_decompose_refuses_a_base_off_the_origin(capsys, tmp_path):
    # the base evaluation is the zero vector, so the weight at point 1 would
    # be dropped without a word while the basis is pointed at the origin
    space = write(tmp_path, "space.txt", "2 1\n0 0\n0.5 0.5\n0.25 0\n")
    element = write(tmp_path, "elem.txt", "1.0 1\n-0.5 2\n")
    code, out, err = run(
        capsys, ["--command", "decompose", "--alpha", "0.5", "--in", space, "--in", element]
    )
    assert code == 2
    assert out == ""
    assert f"the base point 1 of {space} is (0.5, 0.5)" in err


@pytest.mark.parametrize("args, message", [
    (["--command", "basis-verify", "--p", "0.01", "--alpha", "0.5", "--d", "1", "--kmax", "1"],
     "report value 'bm_bound' is inf"),
    (["--command", "bm-report", "--p", "0.01", "--alpha", "0.5", "--d", "3"],
     "--p 0.01 --alpha 0.5 --d 3 take a constant beyond the double range"),
    (["--command", "retraction-verify", "--p", "0.001", "--d", "2", "--samples", "3"],
     "--p 0.001 --d 2 --samples 3 take a constant beyond the double range"),
    # 2^(p (alpha - 1)) or 2^(-p alpha) rounds to 1 in tau and rho, whose
    # geometric sums are then beyond the double range
    (["--command", "bm-report", "--p", "0.5", "--alpha", "0.9999999999999999", "--d", "1"],
     "--p 0.5 --alpha 0.9999999999999999 --d 1 take a constant beyond the double range; "
     "raise --p or lower --d or move --alpha away from 0 and 1"),
    (["--command", "bm-report", "--p", "0.5", "--alpha", "1e-17", "--d", "1"],
     "--p 0.5 --alpha 1e-17 --d 1 take a constant beyond the double range; "
     "raise --p or lower --d or move --alpha away from 0 and 1"),
    (["--command", "basis-verify", "--p", "0.5", "--alpha", "0.9999999999999999", "--d", "1",
      "--kmax", "1"],
     "--p 0.5 --alpha 0.9999999999999999 --d 1 --kmax 1 take a constant beyond the double range"),
    (["--command", "basis-verify", "--p", "0.5", "--alpha", "1e-17", "--d", "1", "--kmax", "1"],
     "--p 0.5 --alpha 1e-17 --d 1 --kmax 1 take a constant beyond the double range"),
], ids=["basis-verify", "bm-report", "retraction-verify", "bm-report-alpha-below-1",
        "bm-report-alpha-above-0", "basis-verify-alpha-below-1", "basis-verify-alpha-above-0"])
def test_constants_beyond_the_double_range_exit_2(capsys, args, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, args)
    assert code == 2
    assert out == ""
    assert message in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_a_point_gap_beyond_the_double_range_exits_2(capsys, tmp_path):
    # the gap from 1e308 to -1e308 overflows to inf, which the metric names
    # without a numpy warning
    space = write(tmp_path, "space.txt", "1 0\n0\n1e308\n-1e308\n")
    element = write(tmp_path, "elem.txt", "1.0 1\n")
    code, out, err = run(capsys, ["--command", "norm", "--p", "0.5", "--in", space, "--in", element])
    assert code == 2
    assert out == ""
    assert "distance d(1,2) = inf is not finite" in err


def test_a_distance_sum_beyond_the_double_range_passes_the_triangle_check(capsys, tmp_path):
    # d(1, 0) + d(0, 1) overflows to inf, which bounds every distance
    space = write(tmp_path, "space.txt", "2 0\n0 0\n1e308 0\n")
    element = write(tmp_path, "elem.txt", "1.0 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["--command", "norm", "--p", "0.5",
                                      "--in", space, "--in", element])
    assert code == 0, err
    assert json.loads(out)["norm"] == 1e308
    assert not caught


def test_a_p1_norm_beyond_the_double_range_exits_2(capsys, tmp_path):
    # each distance and weight is finite, and the transport cost 1e300 * 1e300
    # is not
    space = write(tmp_path, "space.txt", "2 0\n0 0\n0 1e300\n")
    element = write(tmp_path, "elem.txt", "1e300 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["--command", "norm", "--p", "1",
                                      "--in", space, "--in", element])
    assert code == 2
    assert out == ""
    assert err == "error: the free 1-norm overflows to inf; scale the element or the points down\n"
    assert not caught


@pytest.mark.parametrize("space, element, norm", [
    ("FAR_SPACE", "FAR_ELEMENT", 1.0000000000000384e+300),
    ("FAR_SPACE4", "FAR_PAIR", 2.3784142300055335e+300),
], ids=["one-weight", "two-weights"])
def test_a_tree_norm_with_terms_beyond_the_double_range_passes(capsys, tmp_path, space, element,
                                                              norm):
    # the single-point term of the far point, 1e240 * 1e240, is inf in the
    # tree table, and so are hop terms of the backtracking; the least cost is
    # finite, and so is the norm
    args = ["--in", write(tmp_path, "space.txt", FAR_FILES[space]),
            "--in", write(tmp_path, "elem.txt", FAR_FILES[element])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["--command", "norm", "--p", "0.8", *args])
    assert code == 0, err
    assert json.loads(out)["norm"] == norm
    assert not caught


def test_a_tree_norm_beyond_the_double_range_exits_2(capsys, tmp_path):
    # the weight 1e300 sits on the point 1e300 from the base, so every tree
    # costs inf: the norm is refused before the backtracking
    args = ["--in", write(tmp_path, "space.txt", FAR_FILES["FAR_SPACE"]),
            "--in", write(tmp_path, "elem.txt", "1e300 1\n")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["--command", "norm", "--p", "0.8", *args])
    assert code == 2
    assert out == ""
    assert err == ("error: the free p-norm is beyond the double range; scale the element or "
                   "the points down\n")
    assert not caught


@pytest.mark.parametrize("p", ["0.001", "0.3"])
def test_a_tree_norm_beyond_the_double_range_at_p_1_names_no_p(capsys, tmp_path, p):
    # at these p the least tree cost is a double and only its root
    # overflows, but the norm is 1e600 at p = 1 too: no p brings it into
    # range, so the advice is to scale, not to raise --p
    args = ["--in", write(tmp_path, "space.txt", FAR_FILES["FAR_SPACE"]),
            "--in", write(tmp_path, "elem.txt", "1e300 1\n")]
    code, out, err = run(capsys, ["--command", "norm", "--p", p, *args])
    assert code == 2
    assert out == ""
    assert err == ("error: the free p-norm is beyond the double range; scale the element or "
                   "the points down\n")


@pytest.mark.parametrize("text", ["2 1e308\n0 0\n1 0\n0 0\n", "1 1e308\n1\n1\n"],
                         ids=["two-squares", "line"])
def test_a_scale_whose_vertex_coordinates_overflow_exits_2(capsys, tmp_path, text):
    # R times the vertex coordinate 2 is inf, and so would be the points
    # sampled in the cube beside it; the flag route's one cube at the origin
    # has no vertex coordinate beyond 1
    args = ["--in", write(tmp_path, "cx.txt", text)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["--command", "lambda-check", *args])
    assert code == 2
    assert out == ""
    assert err == ("error: R = 1e+308 times the vertex coordinate 2 is beyond the double "
                   "range; lower R\n")
    assert not caught


@pytest.mark.parametrize("args, message", [
    (["--command", "norm", "--p", "0.001", "--in", "README_SPACE", "--in", "README_ELEMENT"],
     "p = 0.001 puts the norm beyond the double range; raise --p"),
    (["--command", "norm", "--p", "1e-4", "--in", "README_SPACE", "--in", "README_ELEMENT"],
     "p = 0.0001 puts the norm beyond the double range; raise --p"),
    (["--command", "retraction-verify", "--p", "0.001", "--samples", "3", "--in", "L_SHAPE"],
     "--p 0.001 --samples 3 take a constant beyond the double range; raise --p"),
], ids=["norm-0.001", "norm-1e-4", "retraction-verify-file"])
def test_values_beyond_the_double_range_name_no_flag_the_command_lacks(
        capsys, tmp_path, args, message):
    # none of these commands takes --d, so the advice names --p alone
    files = {**COMPLEX_FILES, **README_FILES}
    args = [write(tmp_path, a, files[a]) if a in files else a for a in args]
    code, out, err = run(capsys, args)
    assert code == 2
    assert out == ""
    assert message in err and "--d" not in err


@pytest.mark.parametrize("flag, command", [
    ("R", ["--command", "lambda-check", "--d", "1"]),
    ("p", ["--command", "bm-report", "--alpha", "0.5", "--d", "2"]),
    ("alpha", ["--command", "bm-report", "--p", "0.5", "--d", "2"]),
])
def test_config_integers_beyond_the_double_range_exit_2(capsys, tmp_path, flag, command):
    huge = "1" + "0" * 400
    cfg = write(tmp_path, "cfg.json", f'{{"{flag}": {huge}}}')
    code, out, err = run(capsys, [*command, "--config", cfg])
    assert code == 2
    assert out == ""
    assert f"--{flag} must be a real number, got an integer beyond the double range" in err
    assert huge not in err


def test_lambda_check(capsys, tmp_path):
    runs = [["--d", "2", "--R", "3", "--samples", "200", "--seed", "0"]]
    # complex files at R = 0.7, whose vertex v placed at R v divides back
    # to v only up to an ulp
    for name in ("L_SHAPE", "GAPPED_R07"):
        runs.append(["--samples", "10", "--in", write(tmp_path, f"{name}.txt", COMPLEX_FILES[name])])
    for args in runs:
        code, out, err = run(capsys, ["--command", "lambda-check", *args])
        assert code == 0, (args, err)
        report = json.loads(out)
        assert report["kronecker_exact"] is True
        assert report["max_partition_deviation"] <= 1e-12


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = write(
        tmp_path,
        "cfg.json",
        json.dumps({"command": "bm-report", "p": 1.0, "alpha": 0.5, "d": 2}),
    )
    code, out, _ = run(capsys, ["--config", cfg, "--d", "1"])
    assert code == 0
    assert json.loads(out)["d"] == 1


def test_an_unknown_command_exits_2_listing_the_commands_in_order(capsys, tmp_path):
    with pytest.raises(SystemExit) as exited:
        main(["--command", "bogus"])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    listing = err[err.index("invalid choice"):]
    names = ["norm", "retraction-verify", "basis-verify", "decompose", "bm-report",
             "lambda-check"]
    places = [listing.index(name) for name in names]
    assert places == sorted(places)
    cfg = write(tmp_path, "cfg.json", json.dumps({"command": "bogus"}))
    code, out, err = run(capsys, ["--config", cfg])
    assert code == 2
    assert out == ""
    assert "--command is required (or must be set in the config file)" in err


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, ["--command", "bm-report", "--p", "1"])
    assert code == 2
    assert "requires" in err


COMPLEX_FILES = {
    "TWO_SQUARES": "2 1.0\n0 0\n1 0\n0 0\n",
    "L_SHAPE": "2 0.7\n0 0\n1 0\n1 1\n2 1\n0 0\n",
    "GAPPED": "2 1.0\n0 0\n2 0\n0 0\n",
    "GAPPED_R07": "2 0.7\n0 0\n2 0\n0 0\n",
    "LINE_R07": "1 0.7\n-2\n-1\n0\n3\n-2\n",
    "L_3_5": "2 0.7\n3 5\n4 5\n4 6\n3 5\n",
}

# points 1e300 apart carrying weights of 1e300, so that some terms of the
# tree program leave the double range although the norm need not
FAR_FILES = {
    "FAR_SPACE": "2 0\n0 0\n1e300 0\n0 1\n",
    "FAR_SPACE4": "2 0\n0 0\n1e300 0\n0 1\n1 0\n",
    "FAR_ELEMENT": "1e300 2\n",
    "FAR_PAIR": "1e300 2\n1e300 3\n",
}


# the point set and element that scripts/readme_commands.sh writes for the
# README file commands
README_FILES = {
    "README_SPACE": "2 0\n0 0\n0.5 0\n0.5 0.25\n1 1\n",
    "README_ELEMENT": "1.0 1\n-0.5 2\n0.25 3\n",
}


def test_retraction_verify_lower_bound_ignores_rounding_pairings(capsys, tmp_path):
    # an image difference off the base pairs with the base function at
    # rounding level, and t^0.3 magnified that above the exact norm
    cx = write(tmp_path, "cx.txt", COMPLEX_FILES["LINE_R07"])
    code, out, err = run(capsys, ["--command", "retraction-verify", "--p", "0.3", "--seed", "5",
                                  "--samples", "400", "--in", cx])
    assert code == 0, err
    assert json.loads(out)["exact_norms_checked"] == 50


# the corpus names of the input files above
CORPUS_FILES = {"TWO_SQUARES": "two_squares.txt", "L_SHAPE": "L.txt", "GAPPED": "gapped.txt",
                "L_3_5": "L35.txt", "README_SPACE": "space.txt", "README_ELEMENT": "element.txt",
                "FAR_SPACE": "far.txt", "FAR_SPACE4": "far4.txt", "FAR_ELEMENT": "far_element.txt",
                "FAR_PAIR": "far_pair.txt"}


@pytest.mark.parametrize("args", [
    ["--command", "lambda-check", "--d", "3", "--R", "2", "--samples", "10000", "--seed", "0"],
    ["--command", "retraction-verify", "--d", "2", "--p", "0.5", "--seed", "7", "--samples", "1000"],
    ["--command", "lambda-check", "--d", "3", "--R", "2", "--samples", "2000", "--seed", "3"],
    ["--command", "retraction-verify", "--p", "0.8", "--seed", "3", "--samples", "200",
     "--in", "TWO_SQUARES"],
    ["--command", "retraction-verify", "--p", "0.3", "--seed", "5", "--samples", "400",
     "--in", "L_SHAPE"],
    ["--command", "retraction-verify", "--p", "0.3", "--seed", "5", "--samples", "400",
     "--in", "GAPPED"],
    ["--command", "retraction-verify", "--d", "3", "--p", "0.75", "--R", "0.7", "--seed", "2",
     "--samples", "500"],
    ["--command", "basis-verify", "--d", "2", "--alpha", "0.5", "--p", "0.5", "--kmax", "2"],
    ["--command", "basis-verify", "--d", "1", "--kmax", "5", "--alpha", "0.7", "--p", "0.3"],
    ["--command", "basis-verify", "--d", "3", "--kmax", "1", "--alpha", "0.25", "--p", "0.4"],
    ["--command", "norm", "--p", "0.5", "--alpha", "0.5", "--in", "README_SPACE",
     "--in", "README_ELEMENT"],
    ["--command", "retraction-verify", "--p", "1", "--seed", "5", "--samples", "400",
     "--in", "L_3_5"],
    ["--command", "norm", "--p", "0.8", "--in", "FAR_SPACE", "--in", "FAR_ELEMENT"],
    ["--command", "norm", "--p", "0.8", "--in", "FAR_SPACE4", "--in", "FAR_PAIR"],
], ids=["readme-lambda-check", "readme-retraction-verify", "lambda-check-2000",
        "retraction-verify-two-squares", "retraction-verify-L", "retraction-verify-gapped",
        "retraction-verify-d3", "readme-basis-verify", "basis-verify-d1", "basis-verify-d3",
        "readme-norm", "retraction-verify-L-3-5-p1", "norm-far", "norm-far-pair"])
def test_reports_are_byte_stable(args):
    """The report is a run of scripts/report_corpus.py on input files of the
    same bytes, so the corpus aggregate digest (tests/test_report_corpus.py)
    pins its bytes."""
    corpus = load_report_corpus()
    assert [CORPUS_FILES.get(a, a) for a in args] in corpus.corpus_runs()
    files = {**COMPLEX_FILES, **README_FILES, **FAR_FILES}
    for name in set(args) & set(CORPUS_FILES):
        assert corpus._files()[CORPUS_FILES[name]] == files[name]


@pytest.mark.parametrize("command", [
    ["--command", "lambda-check"],
    ["--command", "retraction-verify", "--p", "0.5"],
], ids=["lambda-check", "retraction-verify"])
@pytest.mark.parametrize("R", ["inf", "nan", "-1"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_scale_must_be_finite_and_positive(capsys, tmp_path, command, R, source):
    if source == "flag":
        args = ["--d", "1", "--R", R]
    else:
        args = ["--in", write(tmp_path, "cx.txt", f"1 {R}\n0\n0\n")]
    # one check, the constructor's, whichever the source
    message = f"error: R must be a finite positive number, got {float(R)!r}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, [*command, *args, "--samples", "5"])
    assert code == 2
    assert out == ""
    assert message in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", [
    ["--command", "lambda-check"],
    ["--command", "retraction-verify", "--p", "0.5"],
], ids=["lambda-check", "retraction-verify"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_a_subnormal_scale_exits_2_and_the_smallest_normal_is_taken(
        capsys, tmp_path, command, source):
    # a subnormal R keeps only a few bits in the lattice distances R k
    def args(R):
        if source == "flag":
            return ["--d", "2", "--R", R]
        return ["--in", write(tmp_path, "cx.txt", f"2 {R}\n0 0\n1 0\n0 0\n")]

    for R in ("1e-320", "1e-310"):
        code, out, err = run(capsys, [*command, *args(R), "--samples", "20"])
        assert code == 2
        assert out == ""
        assert f"R = {float(R)!r} is subnormal" in err
    for R in ("2.2250738585072014e-308", "1e-300"):
        code, _, err = run(capsys, [*command, *args(R), "--samples", "20"])
        assert code == 0, (R, err)


def test_lambda_check_weighs_all_samples_at_once(capsys, monkeypatch):
    """The number of cube-layer calls does not grow with the sample count."""
    counts = {}

    def counted(name):
        fn = getattr(cubes, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    per_run = []
    for samples in (200, 2000):
        counts.clear()
        with monkeypatch.context() as mp:
            for name in ("find_cube", "lambda_weight", "lambda_support", "vertex_weights"):
                mp.setattr(cubes, name, counted(name))
            code, _, _ = run(capsys, ["--command", "lambda-check", "--d", "3", "--R", "2",
                                      "--samples", str(samples), "--seed", "1"])
        assert code == 0
        per_run.append(dict(counts))
    assert per_run[0] == per_run[1]
    assert per_run[0].get("vertex_weights", 0) <= 2


def test_lambda_check_catches_a_wrong_kernel(capsys, monkeypatch):
    """The partition and product checks are independent of the kernel: a
    relative error of 1e-13 in its weights fails the run."""
    kernel = cubes.vertex_weights

    def skewed(*args, **kwargs):
        W, L = kernel(*args, **kwargs)
        return W, L * (1.0 + 1e-13 * (L < 1.0))

    monkeypatch.setattr(cubes, "vertex_weights", skewed)
    code, out, err = run(capsys, ["--command", "lambda-check", "--d", "2", "--samples", "50"])
    assert code == 1
    report = json.loads(out)
    assert report["max_partition_deviation"] > 1e-14
    assert report["max_product_deviation"] > 1e-15
    assert "check failed" in err


def refuse_constant(token):
    raise ValueError(f"the report holds {token}, which is not JSON")


def run_contract(argv, codes=(0, 1, 2)):
    """`main(argv)` in process with RuntimeWarning as an error, checked
    against the contract of every command: an exit status in `codes` and no
    traceback; at 2 one `error:` line and no report; otherwise a strict JSON
    report, with one `check failed:` line at 1 and nothing on stderr at 0.
    Returns the report, or None at 2."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    assert code in codes, err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and re.fullmatch(r"error: [^\n]+\n", err.getvalue())
        return None
    assert re.fullmatch(r"check failed: [^\n]+\n" if code else "", err.getvalue())
    return json.loads(out.getvalue(), parse_constant=refuse_constant)


# a signed number of magnitude 1e-300 to 1e300, or a small integer
magnitude = st.builds(lambda sign, m, e: sign * m * 10.0**e, st.sampled_from([-1.0, 1.0]),
                      st.floats(1.0, 9.99), st.integers(-300, 299))
number = st.one_of(st.sampled_from([0.0, 1.0, 2.0, -1.0]), magnitude)


@st.composite
def norm_inputs(draw):
    d, n = draw(st.integers(1, 3)), draw(st.integers(2, 8))
    points = draw(st.lists(st.tuples(*[number] * d), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.tuples(number, st.integers(0, n - 1)), min_size=1, max_size=n))
    space = f"{d} {draw(st.integers(0, n - 1))}\n" + "".join(" ".join(map(repr, q)) + "\n" for q in points)
    return space, "".join(f"{w!r} {i}\n" for w, i in weights)


# the same examples on every run: where the rounding error of the base
# weight, minus the sum of the others, is not small beside a far smaller
# weight, the two p = 1 routes part by a few 1e-12 relative, a rounding
# limit of the transport that rare examples reach
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(files=norm_inputs(), p=st.sampled_from(["1", "0.5"]))
@example(files=(FAR_FILES["FAR_SPACE"], "1e300 1\n"), p="1")
@example(files=(FAR_FILES["FAR_SPACE"], "1e300 1\n"), p="0.5")
def test_norm_contract(files, p):
    """`norm` on point files of 2-8 points in d = 1-3 and signed elements,
    coordinates and weights of magnitude 1e-300 to 1e300 (among them the
    far point `1e300 0`): exit 0 with a strict JSON report, or 2 with one
    `error:` line, and no RuntimeWarning. Within the cap at p = 1 the
    transport's norm is the tree program's."""
    with tempfile.TemporaryDirectory() as tmp:
        space, element = Path(tmp, "space.txt"), Path(tmp, "element.txt")
        space.write_text(files[0])
        element.write_text(files[1])
        report = run_contract(["--command", "norm", "--p", p, "--in", str(space), "--in", str(element)],
                              codes=(0, 2))
    if report is None:
        return
    points, base = metric.load_points(files[0])
    m = freenorm.parse_element(metric.l1_space(points, base), files[1])
    if p == "1" and len(m.weights) + 1 <= freenorm.DEFAULT_CAP:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, _ = freenorm.exact_norm_small(m, 1.0)
        assert value == pytest.approx(report["norm"], rel=1e-12, abs=0.0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p=st.one_of(st.floats(P_FLOOR / 2, 1.5), st.sampled_from([0.3, 0.5, 0.75, 1.0])),
       alpha=st.floats(-0.5, 1.5), d=st.one_of(st.integers(0, 64), st.integers(1, 4)))
@example(p=P_FLOOR / 2, alpha=-0.5, d=0)
@example(p=P_FLOOR, alpha=0.5, d=64)
@example(p=1.5, alpha=1.5, d=1)
@example(p=1.0, alpha=0.5, d=2)
def test_bm_report_contract(p, alpha, d):
    """`bm-report` at p from P_FLOOR / 2 to 1.5, alpha from -0.5 to 1.5 and
    d from 0 to 64: exit 0 with a strict JSON report, or 2 with one `error:`
    line, and no RuntimeWarning."""
    report = run_contract(["--command", "bm-report", f"--p={p!r}", f"--alpha={alpha!r}", f"--d={d}"])
    if report is not None:
        assert (report["p"], report["alpha"], report["d"]) == (p, alpha, d)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(d=st.integers(0, cubes.MAX_D + 1), R=st.floats(1e-320, 1e300),
       samples=st.integers(0, 40), seed=st.one_of(st.integers(0, 2**64), st.integers()))
@example(d=cubes.MAX_D, R=1e-320, samples=40, seed=0)
@example(d=cubes.MAX_D + 1, R=1e300, samples=0, seed=-1)
@example(d=1, R=1e300, samples=40, seed=2**80)
def test_lambda_check_contract(d, R, samples, seed):
    """`lambda-check` on the flag complex at d from 0 to MAX_D + 1, R from
    1e-320 to 1e300, 0-40 samples and any seed: exit 0 or 1 with a strict
    JSON report, or 2 with one `error:` line, and no RuntimeWarning."""
    report = run_contract(["--command", "lambda-check", f"--d={d}", f"--R={R!r}",
                           f"--samples={samples}", f"--seed={seed}"])
    if report is not None:
        assert (report["d"], report["R"], report["samples"], report["seed"]) == (d, R, samples, seed)
