"""End-to-end runs of the command-line frontend."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spherecrit
from spherecrit import (
    HomogeneousPolynomial,
    axis_monomial,
    geometric_power_polynomial,
    read_polynomial,
    scaled_tolerance,
    weighted_axis_quadratic,
    write_polynomial,
)
from spherecrit import genlab
from spherecrit.cli import main
from spherecrit.critsolve import DEFAULT_TOL_CRIT

DATA = Path(__file__).parent / "data"


@pytest.fixture
def diag123_file(tmp_path):
    path = tmp_path / "diag123.json"
    write_polynomial(weighted_axis_quadratic(3), path)
    return str(path)


@pytest.fixture
def x1cubed_file(tmp_path):
    path = tmp_path / "x1cubed.json"
    write_polynomial(axis_monomial(2, 3), path)
    return str(path)


def test_classify_human_output(diag123_file, capsys):
    assert main(["classify", "--poly", diag123_file]) == 0
    out = capsys.readouterr().out
    assert "critical points: 6" in out
    assert out.count("SOSC") >= 2
    assert "FONC_ONLY=4" in out and "SOSC=2" in out


def test_classify_json_output(diag123_file, capsys):
    assert main(["classify", "--poly", diag123_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 6
    verdicts = sorted(p["verdict"] for p in doc)
    assert verdicts.count("SOSC") == 2
    assert all(set(p) >= {"x", "lambda", "margin", "verdict"} for p in doc)


def test_classify_csv_output(diag123_file, capsys):
    assert main(["classify", "--poly", diag123_file, "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "verdict,lambda,margin,residual,x1,x2,x3"
    assert len(lines) == 7


def test_classify_output_file(diag123_file, tmp_path, capsys):
    target = tmp_path / "out.json"
    assert main(
        ["classify", "--poly", diag123_file, "--json", "--output", str(target)]
    ) == 0
    assert json.loads(target.read_text())


def test_classify_zero_polynomial_exit_3(tmp_path):
    path = tmp_path / "zero.json"
    write_polynomial(HomogeneousPolynomial(2, 2, {}), path)
    assert main(["classify", "--poly", str(path)]) == 3


def test_classify_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n":2,"d":2,"terms":[{"exp":[1,0],"coef":1.0}]}')
    assert main(["classify", "--poly", str(path)]) == 2
    err = capsys.readouterr().err
    assert "exponent sum 1 != degree 2" in err


def test_classify_malformed_term_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n":2,"d":2,"terms":[{"exp":[2,0],"coef":"1.0"}]}')
    assert main(["classify", "--poly", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'coef' must be a number in term [2, 0]" in captured.err


def test_classify_coefficient_beyond_float64_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"n":1,"d":1,"terms":[{"exp":[1],"coef":%d}]}' % 10**400)
    assert main(["classify", "--poly", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "out of float64 range" in captured.err


@pytest.mark.parametrize(
    "text",
    [
        '{"n":0,"d":2,"terms":[]}',
        '{"n":2,"d":0,"terms":[{"exp":[0,0],"coef":1.0}]}',
        '{"n":1,"d":1,"terms":[{"exp":[1],"coef":1e400}]}',
        '{"n":2,"d":3,"terms":[{"exp":[3,0],"coef":1e155},{"exp":[0,3],"coef":1e155}]}',
    ],
    ids=["n=0", "d=0", "coef=1e400", "norm=1e155"],
)
def test_classify_constructor_rejection_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["classify", "--poly", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("polynomial format error: ")


def test_classify_missing_file_exit_2(tmp_path):
    assert main(["classify", "--poly", str(tmp_path / "nope.json")]) == 2


def test_detect_witness_output(x1cubed_file, capsys):
    assert main(["detect", "--poly", x1cubed_file, "--point", "0,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mu"] == pytest.approx(0.0, abs=1e-12)
    assert doc["lambda"] == pytest.approx(0.0, abs=1e-12)
    assert doc["third_singular_value"] <= 1e-10
    assert doc["oracle_on_locus"] is True


def test_detect_no_witness(diag123_file, capsys):
    assert main(["detect", "--poly", diag123_file, "--point", "1,0,0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("no witness: SOSC margin = 1")


@pytest.mark.parametrize(
    "poly, point, golden",
    [
        ("x1cubed_n2", "0,1", "detect_x1cubed_n2_at_e2"),
        ("x1cubed_n2", "1,0", "detect_x1cubed_n2_at_e1"),
        ("x1cubed_n3", "0,0.6,0.8", "detect_x1cubed_n3"),
    ],
    ids=["witness n=2", "no witness", "witness n=3"],
)
def test_detect_golden_stdout(poly, point, golden, capsys):
    # Byte goldens: a -0.0 determinant or a reordered payload key shows here.
    assert main(["detect", "--poly", str(DATA / f"{poly}.json"), "--point", point]) == 0
    assert capsys.readouterr().out == (DATA / f"{golden}.stdout.txt").read_text()


def test_detect_not_critical_exit_4(diag123_file, capsys):
    assert main(["detect", "--poly", diag123_file, "--point", "0.7,0.7,0.14"]) == 4
    err = capsys.readouterr().err
    assert "not critical" in err
    assert "FONC residual" in err


def test_detect_not_critical_reports_scaled_tolerance(tmp_path, capsys):
    # ||f|| is about 11.2, so the printed threshold is the scaled one, not the base.
    path = tmp_path / "big.json"
    f = HomogeneousPolynomial(3, 2, {(2, 0, 0): 3.0, (0, 2, 0): 6.0, (0, 0, 2): 9.0})
    write_polynomial(f, path)
    assert main(["detect", "--poly", str(path), "--point", "0.6,0.8,0"]) == 4
    err = capsys.readouterr().err
    assert f"exceeds tolerance {scaled_tolerance(f, DEFAULT_TOL_CRIT):.6e}" in err
    assert scaled_tolerance(f, DEFAULT_TOL_CRIT) > 10 * DEFAULT_TOL_CRIT


def test_detect_normalization_warning(diag123_file, capsys):
    assert main(["detect", "--poly", diag123_file, "--point", "1.001,0,0"]) == 0
    captured = capsys.readouterr()
    assert "normalizing input point" in captured.err


def test_detect_bad_point_exit_2(diag123_file, capsys):
    assert main(["detect", "--poly", diag123_file, "--point", "1,0"]) == 2
    assert main(["detect", "--poly", diag123_file, "--point", "a,b,c"]) == 2


def test_detect_zero_point_exit_2(x1cubed_file, capsys):
    assert main(["detect", "--poly", x1cubed_file, "--point", "0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "point must be nonzero" in captured.err


def test_classify_zero_starts_exit_2(diag123_file, capsys):
    assert main(["classify", "--poly", diag123_file, "--starts", "0"]) == 2
    assert "need 1 to 20000 starts, got 0" in capsys.readouterr().err


def test_classify_starts_above_max_exit_2(diag123_file, capsys):
    # Rejected before the (starts x n) start array is allocated.
    assert main(["classify", "--poly", diag123_file, "--starts", "20001"]) == 2
    assert "need 1 to 20000 starts, got 20001" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["nan,1", "inf,1"])
def test_detect_non_finite_point_exit_2(tmp_path, capsys, point):
    path = tmp_path / "p.json"
    write_polynomial(geometric_power_polynomial(2, 3), path)
    assert main(["detect", "--poly", str(path), "--point", point]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_oracle2_off_locus(tmp_path, capsys):
    path = tmp_path / "p.json"
    write_polynomial(geometric_power_polynomial(2, 3), path)
    assert main(["oracle2", "--poly", str(path)]) == 0
    out = capsys.readouterr().out
    assert "on_locus: false" in out
    assert "certificate:" in out


def test_oracle2_on_locus(x1cubed_file, capsys):
    assert main(["oracle2", "--poly", x1cubed_file]) == 0
    assert "on_locus: true" in capsys.readouterr().out


def test_oracle2_rejects_n3(diag123_file, capsys):
    for flags in ([], ["--certify"]):
        assert main(["oracle2", "--poly", diag123_file, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: exact oracle needs n = 2, got n = 3\n"


def test_oracle2_certify_flag(tmp_path, capsys):
    path = tmp_path / "p.json"
    write_polynomial(geometric_power_polynomial(2, 3), path)
    assert main(["oracle2", "--poly", str(path), "--certify"]) == 0
    assert "certified" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["cubic_n2", "x1cubed_n2", "zero_at_infinity_n2", "isotropic_n2"])
@pytest.mark.parametrize("certify", [False, True], ids=["plain", "certify"])
def test_oracle2_golden_stdout(name, certify, capsys):
    argv = ["oracle2", "--poly", str(DATA / f"{name}.json")]
    suffix = ".certify" if certify else ""
    assert main(argv + ["--certify"] * certify) == 0
    golden = DATA / f"oracle2_{name}{suffix}.stdout.txt"
    assert capsys.readouterr().out == golden.read_text()


def test_witness_d2_suite(capsys):
    assert main(["witness", "--mode", "d2", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "witness_d2_n3.stdout.txt").read_text()
    assert "suite witness_d2(n=3): PASS" in out


def test_witness_general_suite(capsys):
    assert main(["witness", "--mode", "general", "--n", "2", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "witness_general_n2_d3.stdout.txt").read_text()
    assert "PASS" in out


def test_witness_degenerate_suite(capsys):
    assert main(["witness", "--mode", "degenerate", "--n", "2", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "witness_degenerate_n2_d3.stdout.txt").read_text()
    assert "PASS" in out


def test_witness_degenerate_needs_two_variables(capsys):
    assert main(["witness", "--mode", "degenerate", "--n", "1", "--d", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need n >= 2" in captured.err


def test_witness_general_needs_degree(capsys):
    assert main(["witness", "--mode", "general", "--n", "2"]) == 2


@pytest.mark.parametrize("d", ["3", "7"])
def test_witness_d2_rejects_other_degree(d, capsys):
    assert main(["witness", "--mode", "d2", "--n", "2", "--d", d]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d = 2 only" in captured.err


def test_witness_d2_accepts_degree_two(capsys):
    assert main(["witness", "--mode", "d2", "--n", "3", "--d", "2"]) == 0
    assert capsys.readouterr().out == (DATA / "witness_d2_n3.stdout.txt").read_text()


def test_witness_general_beyond_closed_form_limit(capsys):
    assert main(["witness", "--mode", "general", "--n", "11", "--d", "3"]) == 2
    assert "n <= 10" in capsys.readouterr().err


def test_sample_writes_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = main(
        [
            "sample",
            "--n", "2",
            "--d", "3",
            "--trials", "5",
            "--seed", "7",
            "--output", str(report),
            "--csv", str(csv_path),
            "--dump-dir", str(tmp_path / "dumps"),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["trials"] == 5
    assert doc["total_degenerate"] == 0
    assert csv_path.exists()
    out = capsys.readouterr().out
    assert "degenerate_hits: 0" in out


def test_sample_dump_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(genlab, "random_polynomial", lambda n, d, seed: axis_monomial(3, 4))
    dumps = tmp_path / "dumps"
    args = ["sample", "--n", "3", "--d", "4", "--trials", "1",
            "--output", str(tmp_path / "r.json"), "--dump-dir", str(dumps)]
    assert main(args) == 1
    dumped = [
        line.removeprefix("degenerate polynomial dumped: ")
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("degenerate polynomial dumped: ")
    ]
    assert dumped and all(Path(path).parent == dumps for path in dumped)
    assert all(Path(path).exists() for path in dumped)


def test_sample_dumps_from_two_seeds_keep_their_polynomials(tmp_path, monkeypatch):
    # A degenerate form per poly seed, each with its own coefficient: the
    # dump of one seed's run must survive another seed's run into one dir.
    def degenerate(n, d, seed):
        return HomogeneousPolynomial(n, d, {(d,) + (0,) * (n - 1): 1.0 + seed % 5})

    monkeypatch.setattr(genlab, "random_polynomial", degenerate)
    dumps = tmp_path / "dumps"
    reports = {}
    for seed in (0, 1):
        reports[seed] = tmp_path / f"r{seed}.json"
        args = ["sample", "--n", "3", "--d", "4", "--trials", "1", "--seed", str(seed),
                "--output", str(reports[seed]), "--dump-dir", str(dumps)]
        assert main(args) == 1
    for seed, report in reports.items():
        doc = json.loads(report.read_text())
        [path] = doc["dumped_files"]
        expected = degenerate(3, 4, doc["records"][0]["poly_seed"])
        assert read_polynomial(path).coefficient_vector().tolist() == (
            expected.coefficient_vector().tolist()
        )
    assert len(list(dumps.iterdir())) == 2


def test_sample_stdout_deterministic(tmp_path, capsys):
    args = [
        "sample",
        "--n", "2",
        "--d", "3",
        "--trials", "3",
        "--seed", "1",
        "--output", str(tmp_path / "r.json"),
        "--dump-dir", str(tmp_path / "dumps"),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_sample_has_no_starts_option(tmp_path, capsys):
    # sample solves with the default start budget; only classify takes one.
    args = ["sample", "--n", "2", "--d", "3", "--trials", "1", "--starts", "5",
            "--output", str(tmp_path / "r.json"), "--dump-dir", str(tmp_path / "dumps")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments: --starts 5" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_quad_writes_report(tmp_path, capsys):
    report = tmp_path / "quad.json"
    code = main(
        ["quad", "--n", "3", "--trials", "5", "--seed", "2", "--output", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert "disagreements: 0" in capsys.readouterr().out


def test_quad_disagreement_fails_sweep_and_exit_1(tmp_path, monkeypatch, capsys):
    real = genlab._pipeline_quadratic_degenerate
    flipped = 2 * genlab.SEED_STRIDE + 1  # trial 1 of the sweep at seed 2

    def pipeline(A, seed):
        degenerate, starts_used = real(A, seed)
        return degenerate != (seed == flipped), starts_used

    monkeypatch.setattr(genlab, "_pipeline_quadratic_degenerate", pipeline)
    report = genlab.run_quadratic_sweep(3, 3, seed=2)
    # A generic quadratic form passes the solver's check on a first round of
    # 12 B = 36 of its 300 starts (B = n at d = 2).
    assert report.disagreements == [
        {"trial": 1, "quadratic_rule": False, "pipeline": True, "starts_used": 36}
    ]
    assert report.passed is False
    args = ["quad", "--n", "3", "--trials", "3", "--seed", "2", "--output", str(tmp_path / "q.json")]
    assert main(args) == 1
    assert "disagreements: 1" in capsys.readouterr().out
    assert json.loads((tmp_path / "q.json").read_text())["passed"] is False


def test_quad_empty_dimension_exit_2(tmp_path, capsys):
    report = tmp_path / "quad.json"
    assert main(["quad", "--n", "0", "--trials", "1", "--output", str(report)]) == 2
    assert "n >= 1" in capsys.readouterr().err
    assert not report.exists()


def test_cli_17_digit_output(diag123_file, capsys):
    main(["detect", "--poly", diag123_file, "--point", "1,0,0"])
    out = capsys.readouterr().out
    # margin 1 prints as the bare shortest 17-significant-digit form
    assert "margin = 1" in out


def test_classify_golden_stdout(capsys):
    assert main(["classify", "--poly", str(DATA / "cubic_n3.json")]) == 0
    assert capsys.readouterr().out == (DATA / "cubic_n3.classify.txt").read_text()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_classify_golden_csv_and_json(fmt, capsys):
    assert main(["classify", "--poly", str(DATA / "cubic_n3.json"), f"--{fmt}"]) == 0
    assert capsys.readouterr().out == (DATA / f"cubic_n3.classify.{fmt}").read_text()


def test_classify_json_is_strict_for_one_variable(tmp_path, capsys):
    # n = 1 has no tangent space, so the margin is +inf: JSON gets null.
    path = tmp_path / "n1.json"
    write_polynomial(HomogeneousPolynomial(1, 3, {(3,): 2.0}), path)
    assert main(["classify", "--poly", str(path), "--json"]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert [p["lambda"] for p in doc] == [-6.0, 6.0]
    assert all(p["margin"] is None and p["verdict"] == "SOSC" for p in doc)


def test_sample_golden_stdout_and_report(tmp_path, monkeypatch, capsys):
    # n = 2 runs the exact oracle on every trial; n = 3 pins the trial path
    # without it (solve, analysis, witness scan, quantiles) bit for bit.
    monkeypatch.chdir(tmp_path)
    for n, d in ((2, 3), (3, 4)):
        stem = f"sample_n{n}_d{d}_t3"
        args = ["sample", "--n", str(n), "--d", str(d), "--trials", "3",
                "--output", "report.json", "--dump-dir", "dumps"]
        assert main(args) == 0
        assert capsys.readouterr().out == (DATA / f"{stem}.stdout.txt").read_text()
        doc = json.loads((tmp_path / "report.json").read_text())
        assert isinstance(doc.pop("runtime_seconds"), float)
        golden = (DATA / f"{stem}.report.json").read_text()
        assert json.dumps(doc, indent=2) + "\n" == golden


def test_module_entry_point_missing_file_exit_2(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(spherecrit.__file__).parents[1])}
    args = ["classify", "--poly", str(tmp_path / "nope.json")]
    done = subprocess.run(
        [sys.executable, "-m", "spherecrit.cli", *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 2
    assert "file error" in done.stderr


def test_console_script_resolves_to_main():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["spherecrit"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main
