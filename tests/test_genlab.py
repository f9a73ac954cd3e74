"""Witness suites, degenerate families, randomized experiments, reports."""

import csv
import json

import numpy as np
import pytest

from spherecrit import (
    ClassifiedPoint,
    CriticalPair,
    ExperimentConfig,
    SolverConfig,
    axis_monomial,
    certify_against_oracle,
    classify_all,
    check_planted_quadratic,
    enumerate_power_critical_points,
    geometric_power_polynomial,
    quadratic_form_polynomial,
    random_polynomial,
    run_degenerate_family,
    run_quadratic_sweep,
    run_random_genericity,
    run_witness_d2,
    run_witness_general,
    weighted_axis_quadratic,
    write_polynomial,
)
from spherecrit import genlab
from spherecrit.cli import main
from spherecrit.genlab import _dump_polynomial
from spherecrit import read_polynomial


# ---------------------------------------------------------------------------
# Instance builders
# ---------------------------------------------------------------------------


def test_weighted_axis_quadratic_terms():
    p = weighted_axis_quadratic(3)
    assert p.terms == {(2, 0, 0): 0.5, (0, 2, 0): 1.0, (0, 0, 2): 1.5}


def test_geometric_power_terms():
    assert geometric_power_polynomial(2, 3).terms == {(3, 0): 2.0, (0, 3): 4.0}
    assert geometric_power_polynomial(2, 4).terms == {(4, 0): 4.0, (0, 4): 16.0}
    assert geometric_power_polynomial(2, 1).terms == {(1, 0): 0.5, (0, 1): 0.25}


@pytest.mark.parametrize(
    "build",
    [
        lambda: weighted_axis_quadratic(0),
        lambda: geometric_power_polynomial(0, 3),
        lambda: geometric_power_polynomial(2, 0),
        lambda: axis_monomial(0, 3),
    ],
    ids=["weighted_axis_quadratic(0)", "geometric_power(0,3)", "geometric_power(2,0)",
         "axis_monomial(0,3)"],
)
def test_builders_reject_bad_shape(build):
    with pytest.raises(ValueError, match="positive integer"):
        build()


def test_quadratic_form_polynomial_hessian_round_trip():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((4, 4))
    A = 0.5 * (G + G.T)
    f = quadratic_form_polynomial(A)
    x = rng.standard_normal(4)
    assert np.allclose(f.hessian(x), A, atol=1e-12)
    assert f.evaluate(x) == pytest.approx(0.5 * x @ A @ x, rel=1e-12)


@pytest.mark.parametrize(
    "A", [np.float64(3.0), np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2))],
    ids=["0-d", "1-d", "2x3", "3-d"],
)
def test_quadratic_form_polynomial_rejects_non_square(A):
    with pytest.raises(ValueError, match="must be square"):
        quadratic_form_polynomial(A)


def _count(n, d):
    X, lam = enumerate_power_critical_points(n, d)
    assert X.shape == (lam.size, n)
    return lam.size


def test_power_point_enumeration_counts():
    # Odd d: two points per nonempty support; even d: 2^(|S|) per support.
    assert _count(2, 3) == 2 * 3
    assert _count(3, 3) == 2 * 7
    assert _count(2, 4) == 8  # 2 + 2 + 4
    assert _count(3, 4) == 26  # 3^3 - 1
    assert _count(2, 1) == 2
    for n in (5, 6):
        assert _count(n, 3) == 2 * (2**n - 1)  # 62, 126
        assert _count(n, 4) == 3**n - 1  # 242, 728


def _power_points_by_loop(n, d):
    """Reference enumeration: one Python iteration per support and sign choice."""
    alpha = 2.0 ** (d - 2)
    if d == 1:
        c = np.array([alpha ** (k + 1) for k in range(n)])
        nrm = float(np.linalg.norm(c))
        return [(-c / nrm, -nrm), (c / nrm, nrm)]
    points = []
    exponent = 1.0 / (d - 2)
    for mask in range(1, 2**n):
        support = [k for k in range(n) if mask >> k & 1]
        coef = np.array([(d * alpha ** (k + 1)) ** (-exponent) for k in support])
        lam_mag = float(np.sum(coef**2) ** (-(d - 2) / 2.0))
        radial = lam_mag**exponent * coef
        if d % 2 == 1:
            for lam_sign in (-1.0, 1.0):
                x = np.zeros(n)
                x[support] = lam_sign * radial
                points.append((x, lam_sign * lam_mag))
        else:
            for signs in range(2 ** len(support)):
                x = np.zeros(n)
                for pos, k in enumerate(support):
                    x[k] = (1.0 if signs >> pos & 1 else -1.0) * radial[pos]
                points.append((x, lam_mag))
    points.sort(key=lambda item: (item[1], tuple(item[0])))
    return points


@pytest.mark.parametrize("d", [1, 3, 4, 5, 6, 7])
def test_power_point_enumeration_matches_reference_loop(d):
    # Same count and row order; values agree to rounding (numpy's vectorised
    # pow and row sums may differ from the scalar ones in the last bits).
    for n in range(1, 9):
        X, lam = enumerate_power_critical_points(n, d)
        ref = _power_points_by_loop(n, d)
        assert lam.size == len(ref), (n, d)
        X_ref = np.array([x for x, _ in ref])
        lam_ref = np.array([m for _, m in ref])
        assert np.all(np.abs(X - X_ref) <= 1e-15), (n, d)
        assert np.all(np.abs(lam - lam_ref) <= 1e-15 * np.abs(lam_ref)), (n, d)
        assert np.array_equal(X == 0, X_ref == 0), (n, d)


def test_power_point_enumeration_is_critical():
    for n, d in [(2, 3), (3, 4), (2, 5), (3, 1), (5, 3), (5, 4), (6, 3), (6, 4)]:
        p = geometric_power_polynomial(n, d)
        for x, lam in zip(*enumerate_power_critical_points(n, d)):
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(p.gradient(x) - lam * x) <= 1e-9 * max(
                1.0, p.coefficient_norm
            )


def test_power_point_enumeration_rejects_d2():
    with pytest.raises(ValueError):
        enumerate_power_critical_points(2, 2)


def test_power_point_enumeration_limited_to_n10():
    with pytest.raises(ValueError, match="n <= 10"):
        enumerate_power_critical_points(11, 3)
    with pytest.raises(ValueError, match="n <= 10"):
        run_witness_general(11, 3)


# ---------------------------------------------------------------------------
# Deterministic suites
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_witness_d2_suite_passes(n):
    report = run_witness_d2(n)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_witness_d2_details():
    report = run_witness_d2(3)
    names = [c.name for c in report.checks]
    assert "critical_count" in names
    assert "bordered_determinant_nonzero" in names
    det_check = next(c for c in report.checks if c.name == "bordered_determinant_nonzero")
    assert "det -2" in det_check.detail  # first axis value


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [1, 3, 4, 5])
def test_witness_general_suite_passes(n, d):
    report = run_witness_general(n, d)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_witness_general_checks_every_closed_form_point():
    report = run_witness_general(5, 4)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    check = next(c for c in report.checks if c.name == "enumeration_is_critical")
    assert check.detail.startswith("242 closed-form points")


def test_witness_general_rejects_quadratic():
    with pytest.raises(ValueError, match="d = 2"):
        run_witness_general(2, 2)


# Every solver seed 0-9 must pass, except on x1^4 over S^2, whose flagged
# points leave the locus at seeds 1, 5 and 8 (ROADMAP item 3).
@pytest.mark.parametrize(
    "kind,n,d,seeds",
    [
        pytest.param(kind, n, d, seeds, id=f"{kind}-{n}-{d}")
        for kind, n, d, seeds in [
            ("repeated_lambda1", 2, 2, range(10)),
            ("repeated_lambda1", 3, 2, range(10)),
            ("repeated_lambda1", 4, 2, range(10)),
            ("repeated_lambda1", 5, 2, range(10)),
            ("single_monomial", 2, 3, range(10)),
            ("single_monomial", 3, 3, range(10)),
            ("single_monomial", 4, 3, range(10)),
            ("single_monomial", 2, 4, range(10)),
            ("single_monomial", 3, 4, [0]),
        ]
    ],
)
def test_degenerate_family_suites_pass(kind, n, d, seeds):
    for seed in seeds:
        report = run_degenerate_family(kind, n, d, seed)
        assert report.passed, (seed, [
            (c.name, c.detail) for c in report.checks if not c.passed
        ])


def test_degenerate_family_validates_arguments():
    with pytest.raises(ValueError, match="d = 2"):
        run_degenerate_family("repeated_lambda1", 3, 3)
    with pytest.raises(ValueError, match="d >= 3"):
        run_degenerate_family("single_monomial", 3, 2)
    with pytest.raises(ValueError, match="unknown kind"):
        run_degenerate_family("nonsense", 3, 2)


@pytest.mark.parametrize(
    "kind,d", [("repeated_lambda1", 2), ("single_monomial", 3), ("repeated_lambda1", 3)]
)
def test_degenerate_family_needs_two_variables(kind, d):
    # Checked once, before the kind dispatch, so an input that also fails
    # the kind's degree check raises the same error.
    with pytest.raises(ValueError, match="need n >= 2"):
        run_degenerate_family(kind, 1, d)


def test_degenerate_family_fails_without_witness_at_anchor(monkeypatch):
    monkeypatch.setattr(genlab, "detect_sosc_failure", lambda f, x: None)
    report = run_degenerate_family("repeated_lambda1", 3, 2)
    assert not report.passed
    failed = [(c.name, c.detail) for c in report.checks if not c.passed]
    assert failed == [("witness_at_anchor", "no witness at the anchor point")]
    assert "bordered_determinant_vanishes" not in [c.name for c in report.checks]


def test_witness_suites_need_two_variables():
    with pytest.raises(ValueError, match="need n >= 2"):
        run_witness_d2(1)
    with pytest.raises(ValueError, match="need n >= 2 and d >= 1"):
        run_witness_general(1, 3)


# ---------------------------------------------------------------------------
# Randomized experiments
# ---------------------------------------------------------------------------


def test_random_genericity_no_degenerate_hits(tmp_path):
    config = ExperimentConfig(
        n=2, d=3, trials=40, seed=5, dump_dir=str(tmp_path / "dumps")
    )
    report = run_random_genericity(config)
    assert report.total_degenerate == 0
    assert report.total_rank_witnesses == 0
    assert report.dumped_files == []
    assert report.min_sosc_margin is not None and report.min_sosc_margin > 0
    assert report.margin_quantiles["min"] == pytest.approx(report.min_sosc_margin)


def test_random_genericity_records_are_conserved(tmp_path):
    config = ExperimentConfig(
        n=3, d=3, trials=10, seed=9, dump_dir=str(tmp_path / "dumps")
    )
    report = run_random_genericity(config)
    assert len(report.records) == 10
    for record in report.records:
        assert sum(record.verdict_histogram.values()) == record.critical_count
        assert record.critical_count >= 2
        assert record.oracle_on_locus is None  # n = 3: no exact oracle


def test_random_genericity_quadratic_case_matches_eigen_rule(tmp_path):
    # d = 2 draws: zero degenerate hits, consistent with a simple least
    # eigenvalue on every trial.
    from spherecrit import quadratic_degeneracy, random_polynomial
    from spherecrit.genlab import SEED_STRIDE

    config = ExperimentConfig(
        n=2, d=2, trials=100, seed=21, dump_dir=str(tmp_path / "dumps")
    )
    report = run_random_genericity(config)
    assert report.total_degenerate == 0
    for record in report.records:
        f = random_polynomial(2, 2, config.seed * SEED_STRIDE + record.trial)
        A = f.hessian(np.zeros(2))
        assert not quadratic_degeneracy(A).degenerate


def test_random_genericity_oracle_recorded_for_n2(tmp_path):
    config = ExperimentConfig(
        n=2, d=4, trials=5, seed=3, dump_dir=str(tmp_path / "dumps")
    )
    report = run_random_genericity(config)
    assert all(record.oracle_on_locus is False for record in report.records)


def test_random_genericity_reproducible(tmp_path):
    config = ExperimentConfig(
        n=2, d=3, trials=8, seed=13, dump_dir=str(tmp_path / "dumps")
    )
    a = run_random_genericity(config)
    b = run_random_genericity(config)
    a.runtime_seconds = b.runtime_seconds = 0.0  # the one field that varies
    assert a.to_json() == b.to_json()


def test_random_genericity_at_n1_has_no_rank_hits(tmp_path):
    # On the 0-sphere the scan has no tangent directions to test.
    config = ExperimentConfig(n=1, d=3, trials=4, seed=2, dump_dir=str(tmp_path / "dumps"))
    report = run_random_genericity(config)
    assert report.total_rank_witnesses == 0
    for record in report.records:
        assert record.critical_count == 2
        assert record.rank_witness_hits == 0


def _count_constructions(monkeypatch, cls) -> list:
    """Record one entry per construction of ``cls`` while the test runs."""
    built = []
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return built


def test_suites_build_no_per_point_objects(monkeypatch, tmp_path, capsys):
    # Between the solver and the suites, the CLI and the certification
    # report critical sets stay arrays; only classify_all builds one
    # ClassifiedPoint (and its pair) per point.
    pairs = _count_constructions(monkeypatch, CriticalPair)
    points = _count_constructions(monkeypatch, ClassifiedPoint)
    assert run_degenerate_family("single_monomial", 3, 4).passed
    config = ExperimentConfig(n=3, d=3, trials=2, seed=4, dump_dir=str(tmp_path))
    assert run_random_genericity(config).total_degenerate == 0
    assert run_witness_d2(3).passed
    assert run_witness_general(3, 4).passed
    report = certify_against_oracle(random_polynomial(2, 3, 4), SolverConfig(starts=1, seed=0))
    assert not report.certified and report.only_oracle.size
    poly = tmp_path / "cubic.json"
    write_polynomial(axis_monomial(3, 3), poly)
    for fmt in ([], ["--csv"], ["--json"]):
        assert main(["classify", "--poly", str(poly)] + fmt) == 0
    assert capsys.readouterr().out
    assert pairs == [] and points == []
    classified = classify_all(axis_monomial(3, 3))
    assert len(classified) > 100
    assert len(points) == len(pairs) == len(classified)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=2, d=3, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=0, d=3, trials=1)


def test_report_json_round_trip(tmp_path):
    config = ExperimentConfig(
        n=2, d=3, trials=4, seed=2, dump_dir=str(tmp_path / "dumps")
    )
    report = run_random_genericity(config)
    doc = json.loads(report.to_json())
    assert doc["trials"] == 4
    assert doc["total_degenerate"] == 0
    assert len(doc["records"]) == 4
    assert list(doc)[-1] == "runtime_seconds"


def test_report_csv_format(tmp_path):
    config = ExperimentConfig(
        n=2, d=3, trials=4, seed=2, dump_dir=str(tmp_path / "dumps")
    )
    report = run_random_genericity(config)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "seed",
        "critical_count",
        "sosc_count",
        "fonc_only_count",
        "degenerate_count",
        "min_margin",
    ]
    assert len(rows) == 5
    for row in rows[1:]:
        assert int(row[4]) == 0
        assert float(row[5]) > 0


def test_dump_polynomial_round_trip(tmp_path):
    f = geometric_power_polynomial(2, 3)
    path = _dump_polynomial(f, str(tmp_path / "dumps"), "probe.json")
    assert read_polynomial(path) == f


# ---------------------------------------------------------------------------
# Quadratic sweep
# ---------------------------------------------------------------------------


def test_quadratic_sweep_agreement():
    report = run_quadratic_sweep(4, 40, seed=8)
    assert report.passed
    assert report.disagreements == []
    assert report.degenerate_count == 0
    assert len(report.planted) == 2


def test_quadratic_sweep_rejects_bad_sizes():
    with pytest.raises(ValueError, match="n >= 1"):
        run_quadratic_sweep(0, 1)
    with pytest.raises(ValueError, match="trials >= 1"):
        run_quadratic_sweep(3, 0)


def test_quadratic_sweep_planted_detection():
    for k in (2, 3):
        result = check_planted_quadratic(5, k, seed=100 + k)
        assert result["quadratic_rule"] is True
        assert result["pipeline"] is True


@pytest.mark.parametrize("n,multiplicity", [(3, 1), (2, 3)])
def test_planted_quadratic_multiplicity_range(n, multiplicity):
    with pytest.raises(ValueError, match="need 2 <= multiplicity <= n"):
        check_planted_quadratic(n, multiplicity)


def test_identity_matrix_fully_degenerate():
    # Every sphere point is an SONC-degenerate minimizer of x.x / 2.
    from spherecrit import SolverConfig, Verdict, classify_all, quadratic_degeneracy

    qd = quadratic_degeneracy(np.eye(3))
    assert qd.degenerate and qd.lambda1_multiplicity == 3
    f = quadratic_form_polynomial(np.eye(3))
    points = classify_all(f, SolverConfig(seed=0, starts=40))
    assert points
    assert all(p.verdict is Verdict.SONC_DEGENERATE for p in points)


def test_quadratic_sweep_report_json():
    report = run_quadratic_sweep(3, 5, seed=1)
    doc = json.loads(report.to_json())
    assert doc["passed"] is True
    assert doc["trials"] == 5
    assert list(doc) == [
        "n", "trials", "seed", "degenerate_count", "disagreements", "planted",
        "passed", "runtime_seconds",
    ]
