import json

import pytest

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


def test_lambda_check(capsys):
    code, out, _ = run(
        capsys,
        ["--command", "lambda-check", "--d", "2", "--R", "3",
         "--samples", "200", "--seed", "0"],
    )
    assert code == 0
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
