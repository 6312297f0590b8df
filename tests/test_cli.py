import hashlib
import json
import warnings

import numpy as np
import pytest

from freep import cubes
from freep.cli import main


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
    # drop every flow and certify the norm 0
    space = write(tmp_path, "space.txt", README_FILES["README_SPACE"])
    huge = write(tmp_path, "huge.txt", "1e308 1\n-1e308 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["--command", "norm", "--p", p, "--in", space, "--in", huge])
    assert code == 2
    assert out == ""
    assert "the weight total sum |w| overflows to inf" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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
], ids=["basis-verify", "bm-report", "retraction-verify"])
def test_constants_beyond_the_double_range_exit_2(capsys, args, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, args)
    assert code == 2
    assert out == ""
    assert message in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


# sha256 of the reports before the cube layer became one array kernel: the
# README lambda-check and retraction-verify, and a lambda-check and a
# retraction-verify on the two-square complex file as the benchmark runs them;
# then, from before the upper decompositions became batched rows, three
# retraction-verify runs whose pairs cross an L-shaped complex, a gap along
# one axis, and d = 3 cubes at R = 0.7; then, from before the basis norms
# became one tree-program call per host size, the README basis-verify, two
# more basis-verify grids (d = 3 sends its centre to the fallback cost), and
# the README norm report with its witness, on the README command files
@pytest.mark.parametrize("args, digest", [
    (["--command", "lambda-check", "--d", "3", "--R", "2", "--samples", "10000", "--seed", "0"],
     "d76a1433a33d51be659dbb3f345409e3858c1f79e00d6db8d2ad68daa278796a"),
    (["--command", "retraction-verify", "--d", "2", "--p", "0.5", "--seed", "7", "--samples", "1000"],
     "b1675717b1b1f5d249ec564c6e41268aa42d69dc5afb4db22b8fc8505284ebe5"),
    (["--command", "lambda-check", "--d", "3", "--R", "2", "--samples", "2000", "--seed", "3"],
     "93ee04a1a40d8b7b0d5d8dcc4235500fe29c66e03586bd523448b84a62abf22e"),
    (["--command", "retraction-verify", "--p", "0.8", "--seed", "3", "--samples", "200",
      "--in", "TWO_SQUARES"],
     "d7adf76a62afd3e2200c8653b72fa407d9601a1b4073b7fd857a673c76060f89"),
    (["--command", "retraction-verify", "--p", "0.3", "--seed", "5", "--samples", "400",
      "--in", "L_SHAPE"],
     "d3d18c0437e1c5b4ebb59b9bfbbedba956b6515e79a337e0317a477ca3d53cdf"),
    (["--command", "retraction-verify", "--p", "0.3", "--seed", "5", "--samples", "400",
      "--in", "GAPPED"],
     "ef2114aca426c0ec63ae3c2ccc01cbd0c7a63764637786525c62c1a6a08a1d50"),
    (["--command", "retraction-verify", "--d", "3", "--p", "0.75", "--R", "0.7", "--seed", "2",
      "--samples", "500"],
     "bf749c1e61a679334aba106f344eb1ee0b8b5f6bcf1e43b0cbd1a74c2f0739e9"),
    (["--command", "basis-verify", "--d", "2", "--alpha", "0.5", "--p", "0.5", "--kmax", "2"],
     "66f1d9ab3357c3c226da279a8b221a0a901513dbe22c5e016f87a34b3a9937d0"),
    (["--command", "basis-verify", "--d", "1", "--kmax", "5", "--alpha", "0.7", "--p", "0.3"],
     "0fe5959c84542a6114d5944031370c9824f2456f5c760defda52a51b506645cc"),
    (["--command", "basis-verify", "--d", "3", "--kmax", "1", "--alpha", "0.25", "--p", "0.4"],
     "cf1480212879d8ef6592f580339506a34b15a83582ec1be823fa22c781f3f144"),
    (["--command", "norm", "--p", "0.5", "--alpha", "0.5", "--in", "README_SPACE",
      "--in", "README_ELEMENT"],
     "69290d445abb052f90c43a323d369bc9218bf46ca17a7bff378481f6dbbd884f"),
], ids=["readme-lambda-check", "readme-retraction-verify", "lambda-check-2000",
        "retraction-verify-two-squares", "retraction-verify-L", "retraction-verify-gapped",
        "retraction-verify-d3", "readme-basis-verify", "basis-verify-d1", "basis-verify-d3",
        "readme-norm"])
def test_reports_are_byte_stable(capsys, tmp_path, args, digest):
    files = {**COMPLEX_FILES, **README_FILES}
    args = [write(tmp_path, a, files[a]) if a in files else a for a in args]
    code, out, _ = run(capsys, args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", [
    ["--command", "lambda-check"],
    ["--command", "retraction-verify", "--p", "0.5"],
], ids=["lambda-check", "retraction-verify"])
@pytest.mark.parametrize("R", ["inf", "nan", "-1"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_scale_must_be_finite_and_positive(capsys, tmp_path, command, R, source):
    if source == "flag":
        args, message = ["--d", "1", "--R", R], f"--R must be a finite positive number, got {float(R)!r}"
    else:
        args = ["--in", write(tmp_path, "cx.txt", f"1 {R}\n0\n0\n")]
        message = f"complex file R must be a finite positive number, got {float(R)!r}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, [*command, *args, "--samples", "5"])
    assert code == 2
    assert out == ""
    assert message in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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
