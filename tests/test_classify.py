"""Tangent spectrum and FONC/SONC/SOSC classification."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from spherecrit import (
    HomogeneousPolynomial,
    SolverConfig,
    Verdict,
    ZeroPolynomialError,
    analyze_points,
    axis_monomial,
    classify_all,
    classify_point,
    find_critical_pairs,
    random_polynomial,
    scaled_tolerance,
    weighted_axis_quadratic,
    write_polynomial,
)
from spherecrit.classify import _tangent_bases
from spherecrit.cli import main
from conftest import unit


def _random_tangent_frame(x, rng):
    """An orthonormal basis of x-perp independent of the library's choice."""
    n = x.size
    M = np.concatenate([x[:, None], rng.standard_normal((n, n - 1))], axis=1)
    Q, _ = np.linalg.qr(M)
    return Q[:, 1:]


def test_tangent_basis_is_orthonormal_and_tangent():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        X = np.array([unit(rng.standard_normal(n)) for _ in range(10)])
        bases = _tangent_bases(X)
        assert bases.shape == (10, n, n - 1)
        for x, B in zip(X, bases):
            assert np.allclose(B.T @ B, np.eye(n - 1), atol=1e-12)
            assert np.linalg.norm(B.T @ x) <= 1e-12


def test_tangent_spectrum_weighted_quadratic(diag123):
    eigenvalues = analyze_points(diag123, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).eigenvalues
    assert np.allclose(eigenvalues[0], [2.0, 3.0], atol=1e-12)
    assert np.allclose(eigenvalues[1], [1.0, 3.0], atol=1e-12)


def test_tangent_spectrum_monomial_off_axis():
    f = HomogeneousPolynomial(2, 4, {(4, 0): 1.0})
    eigenvalues = analyze_points(f, [[0.0, 1.0]]).eigenvalues[0]
    assert np.allclose(eigenvalues, [0.0], atol=0.0)


def test_tangent_spectrum_basis_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 6))
        f = random_polynomial(n, d, rng)
        x = unit(rng.standard_normal(n))
        ours = analyze_points(f, [x]).eigenvalues[0]
        B = _random_tangent_frame(x, rng)
        M = B.T @ f.hessian(x) @ B
        theirs = np.linalg.eigvalsh(0.5 * (M + M.T))
        scale = max(1.0, np.linalg.norm(f.hessian(x)))
        assert np.max(np.abs(ours - theirs)) <= 1e-10 * scale


def test_tangent_spectrum_rejects_non_unit(diag123):
    with pytest.raises(ValueError, match="unit sphere"):
        analyze_points(diag123, [[1.0, 1.0, 0.0]])


def test_classify_weighted_quadratic_first_axis(diag123):
    point = classify_point(diag123, [1.0, 0.0, 0.0])
    assert point.verdict is Verdict.SOSC
    assert point.pair.lam == 1.0
    assert point.sosc_margin == 1.0


def test_classify_weighted_quadratic_middle_axis(diag123):
    point = classify_point(diag123, [0.0, 1.0, 0.0])
    assert point.verdict is Verdict.FONC_ONLY
    assert point.pair.lam == 2.0
    assert point.sosc_margin == -1.0


def test_classify_degenerate_monomial_point():
    f = HomogeneousPolynomial(3, 3, {(3, 0, 0): 1.0})
    point = classify_point(f, [0.0, 1.0, 0.0])
    assert point.verdict is Verdict.SONC_DEGENERATE
    assert point.pair.lam == 0.0
    assert point.sosc_margin == 0.0


def test_classify_not_critical(diag123):
    point = classify_point(diag123, unit([1.0, 1.0, 0.0]))
    assert point.verdict is Verdict.NOT_CRITICAL
    assert analyze_points(diag123, [point.pair.x]).residuals[0] > 1e-6


def test_classify_all_weighted_quadratic(diag123):
    points = classify_all(diag123)
    assert len(points) == 6
    sosc = [p for p in points if p.verdict is Verdict.SOSC]
    fonc = [p for p in points if p.verdict is Verdict.FONC_ONLY]
    assert len(sosc) == 2 and len(fonc) == 4
    for p in sosc:
        assert abs(abs(p.pair.x[0]) - 1.0) <= 1e-9  # +-e1 only


def test_classify_all_cubic_minimizers(cubic_sum):
    # The global minimum f = -1 is attained at -e1 and -e2, and both must be
    # SOSC.  The angular parametrization f(t) = cos^3 t + sin^3 t also has a
    # local minimum at t = pi/4 (f rises on both sides of 1/sqrt(2)), so
    # +(1,1)/sqrt(2) is a third legitimate SOSC point.
    points = classify_all(cubic_sum)
    sosc = [p for p in points if p.verdict is Verdict.SOSC]
    assert len(sosc) == 3
    global_min = [p for p in sosc if p.pair.lam == pytest.approx(-3.0, abs=1e-9)]
    assert len(global_min) == 2
    for p in global_min:
        assert min(p.pair.x) == pytest.approx(-1.0, abs=1e-9)
        assert cubic_sum.evaluate(p.pair.x) == pytest.approx(-1.0, abs=1e-12)
    s = 1.0 / math.sqrt(2.0)
    third = [p for p in sosc if p.pair.lam > 0]
    assert len(third) == 1
    assert np.allclose(third[0].pair.x, [s, s], atol=1e-9)


def test_sosc_points_are_local_minima(diag123):
    # 200 random tangent perturbations of size 1e-3 never go below f(x).
    rng = np.random.default_rng(4)
    x = np.array([1.0, 0.0, 0.0])
    base = diag123.evaluate(x)
    B = _tangent_bases(x[None])[0]
    for _ in range(200):
        u = B @ unit(rng.standard_normal(2))
        x_new = unit(x + 1e-3 * u)
        assert diag123.evaluate(x_new) >= base - 1e-12


def test_fonc_only_point_admits_descent(diag123):
    # At e2 the most negative tangent eigenvalue direction is e1, and moving
    # that way strictly decreases f on the sphere.
    x = np.array([0.0, 1.0, 0.0])
    base = diag123.evaluate(x)
    descent = unit(x + 1e-3 * np.array([1.0, 0.0, 0.0]))
    assert diag123.evaluate(descent) < base


def test_n1_edge_vacuous_sosc():
    f = HomogeneousPolynomial(1, 3, {(3,): 1.0})
    for s in (1.0, -1.0):
        point = classify_point(f, [s])
        assert point.verdict is Verdict.SOSC
        assert point.sosc_margin == math.inf
        assert point.tangent_eigenvalues.size == 0


def test_verdict_bands_partition():
    # Exactly one verdict per point: bands of the margin axis are disjoint
    # and exhaustive at any tolerance.
    rng = np.random.default_rng(29)
    for _ in range(15):
        f = random_polynomial(3, 3, rng)
        x = unit(rng.standard_normal(3))
        point = classify_point(f, x)
        assert point.verdict in (
            Verdict.NOT_CRITICAL,
            Verdict.FONC_ONLY,
            Verdict.SONC_DEGENERATE,
            Verdict.SOSC,
        )


def test_classified_point_serialization(diag123, tmp_path, capsys):
    path = tmp_path / "diag123.json"
    write_polynomial(diag123, path)
    assert main(["classify", "--poly", str(path), "--json"]) == 0
    doc = next(p for p in json.loads(capsys.readouterr().out) if p["x"][0] > 0.5)
    assert set(doc) == {
        "x",
        "lambda",
        "residual",
        "tangent_eigenvalues",
        "margin",
        "verdict",
    }
    assert doc["verdict"] == "SOSC"
    assert doc["lambda"] == pytest.approx(1.0, abs=1e-12)
    assert doc["tangent_eigenvalues"] == pytest.approx([2.0, 3.0], abs=1e-9)


def test_classify_rejects_zero_polynomial():
    zero = HomogeneousPolynomial(2, 2, {})
    with pytest.raises(ZeroPolynomialError):
        classify_point(zero, [1.0, 0.0])
    with pytest.raises(ZeroPolynomialError):
        classify_all(zero)


def test_classify_all_respects_solver_seed(diag123):
    a = classify_all(diag123, SolverConfig(seed=1))
    b = classify_all(diag123, SolverConfig(seed=1))
    assert [p.verdict for p in a] == [p.verdict for p in b]
    assert all(np.array_equal(p.pair.x, q.pair.x) for p, q in zip(a, b))


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(a)) or a == b


@pytest.mark.parametrize(
    "f",
    [
        random_polynomial(2, 3, 11),
        random_polynomial(3, 4, 12),
        random_polynomial(4, 3, 13),
        HomogeneousPolynomial(1, 3, {(3,): 2.0}),
        axis_monomial(3, 4),
    ],
    ids=["random(2,3)", "random(3,4)", "random(4,3)", "n=1", "axis_monomial(3,4)"],
)
def test_classify_all_matches_classify_point(f):
    # The batched analysis of a whole critical set and the one-row analysis
    # of each of its points must agree row by row.
    points = classify_all(f, SolverConfig(seed=5))
    assert points
    residuals = analyze_points(f, [p.pair.x for p in points]).residuals.tolist()
    for batched, residual in zip(points, residuals):
        single = classify_point(f, batched.pair.x)
        assert batched.verdict is single.verdict
        assert _close(batched.sosc_margin, single.sosc_margin)
        assert _close(batched.pair.lam, single.pair.lam)
        assert _close(residual, analyze_points(f, [batched.pair.x]).residuals[0])
        assert batched.tangent_eigenvalues.shape == (f.n - 1,)
        for a, b in zip(batched.tangent_eigenvalues, single.tangent_eigenvalues):
            assert _close(a, b)


def test_analyze_points_input_checks(diag123):
    with pytest.raises(ZeroPolynomialError):
        analyze_points(HomogeneousPolynomial(3, 2, {}), np.eye(3))
    with pytest.raises(ValueError, match="shape"):
        analyze_points(diag123, np.eye(2))
    with pytest.raises(ValueError, match="unit sphere"):
        analyze_points(diag123, [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="unit sphere"):
        analyze_points(diag123, [[1.0, 0.0, 0.0], [np.nan, 1.0, 0.0]])
    with pytest.raises(ValueError, match="shape"):
        classify_point(diag123, [1.0, 0.0])


def test_analyze_points_eigenvectors_are_tangent_eigenvectors():
    rng = np.random.default_rng(31)
    f = random_polynomial(4, 3, rng)
    X = rng.standard_normal((6, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    analysis = analyze_points(f, X)
    for x, H, w, Y in zip(X, analysis.hessians, analysis.eigenvalues, analysis.eigenvectors):
        assert np.allclose(Y.T @ Y, np.eye(3), atol=1e-12)
        assert np.linalg.norm(Y.T @ x) <= 1e-12
        assert np.allclose(Y.T @ H @ Y, np.diag(w), atol=1e-10 * max(1.0, np.linalg.norm(H)))


def _scaled(f, c):
    return HomogeneousPolynomial.from_coefficient_vector(f.n, f.d, c * f.coefficient_vector())


@pytest.mark.parametrize("norm", [0.25, 40.0])
def test_analysis_reports_the_thresholds_it_applied(norm):
    f = random_polynomial(3, 3, 8)
    f = _scaled(f, norm / f.coefficient_norm)
    analysis = analyze_points(f, np.eye(3))
    assert analysis.crit_tol == scaled_tolerance(f, 1e-9) == 1e-9 * max(1.0, f.coefficient_norm)
    assert analysis.class_tol == scaled_tolerance(f, 1e-7) == 1e-7 * max(1.0, f.coefficient_norm)


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 4), (3, 4), (4, 3)])
def test_verdicts_invariant_under_scaling_above_unit_norm(n, d):
    """classify_all(c f) keeps its verdict histogram and critical count for c >= 1.

    The forms have unit coefficient norm, so every scaled copy stays on the
    norm >= 1 side of the tolerance floor.  Extending this to norms below 1
    is ROADMAP item 2.
    """
    for seed in range(8):
        f = random_polynomial(n, d, [n, d, seed])
        f = _scaled(f, 1.0 / f.coefficient_norm)
        summaries = [
            (len(points), Counter(p.verdict for p in points))
            for points in (
                classify_all(_scaled(f, c), SolverConfig(seed=seed))
                for c in (1.0, 10.0, 1e3, 1e6, 1e12, 1e150)
            )
        ]
        assert summaries == summaries[:1] * 6, (n, d, seed)


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 4), (3, 4), (4, 3), (3, 5)])
def test_analysis_is_exact_under_the_antipodal_map(n, d):
    # f(-x) = (-1)^d f(x) exactly in floating point, and the solver returns
    # every row's mirror bitwise, so the analysis of the mirror rows gives
    # lam(-x) = (-1)^d lam(x), the same residual and, for even d, the same
    # Hessian and margin, bit for bit, whatever their positions in the batch.
    for seed in range(10):
        f = random_polynomial(n, d, [24, n, d, seed])
        X = find_critical_pairs(f, SolverConfig(seed=seed)).X
        mirror = [np.flatnonzero((X == -x).all(axis=1))[0] for x in X]
        a = analyze_points(f, X)
        assert a.lam[mirror].tobytes() == ((-1.0) ** d * a.lam).tobytes(), seed
        assert a.residuals[mirror].tobytes() == a.residuals.tobytes(), seed
        if d % 2 == 0:
            assert a.margins[mirror].tobytes() == a.margins.tobytes(), seed
