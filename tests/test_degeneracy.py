"""Rank witness, bordered determinant, quadratic rule, and the exact n = 2 oracle."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from spherecrit import (
    HomogeneousPolynomial,
    NotCriticalError,
    SolverConfig,
    Verdict,
    ZeroPolynomialError,
    analyze_points,
    axis_monomial,
    bordered_determinants,
    build_witness_matrix,
    classify_all,
    classify_point,
    detect_sosc_failure,
    enumerate_power_critical_points,
    exact_oracle_n2,
    find_critical_pairs,
    geometric_power_polynomial,
    quadratic_degeneracy,
    quadratic_form_polynomial,
    random_polynomial,
    rank_deficient,
    scaled_tolerance,
    weighted_axis_quadratic,
)
from spherecrit.classify import DEFAULT_TOL_CLASS
from spherecrit import _intpoly
from spherecrit._intpoly import _binary_form, _critical_form, _partials, _primitive, _prs_gcd
from spherecrit.critsolve import (
    DEFAULT_TOL_CRIT,
    _finish,
    _newton_polish,
    _system_jacobian,
    enumerate_critical_pairs_n2,
)
from spherecrit.degeneracy import OracleResult, _determinant_zero_bound
from conftest import unit


# ---------------------------------------------------------------------------
# Witness matrix assembly
# ---------------------------------------------------------------------------


def test_witness_matrix_zero_gradient_case():
    # f = x1^3 (n = 3) at x = e2, y = e3: gradient and hessian both vanish,
    # so the columns are (0; 0), (e2; e3), (0; e2): rank exactly 2.
    f = axis_monomial(3, 3)
    W = build_witness_matrix(f, [[0.0, 1.0, 0.0]], [[[0.0, 0.0, 1.0]]])
    expected = np.zeros((6, 3))
    expected[1, 1] = 1.0
    expected[5, 1] = 1.0
    expected[4, 2] = 1.0
    assert np.array_equal(W[0, 0], expected)
    sv = np.linalg.svd(W[0, 0], compute_uv=False)
    assert sv[2] == pytest.approx(0.0, abs=1e-14)
    assert sv[1] > 0.5
    assert rank_deficient(f, W)[0, 0]


def test_witness_matrix_weighted_quadratic_full_rank(diag123):
    # Columns (e1; 2 e2), (e1; e2), (0; e1): the independent oracle is a
    # direct SVD of the hand-built 6 x 3 matrix.
    W = build_witness_matrix(diag123, [[1.0, 0.0, 0.0]], [[[0.0, 1.0, 0.0]]])
    hand = np.zeros((6, 3))
    hand[0, 0] = 1.0
    hand[4, 0] = 2.0
    hand[0, 1] = 1.0
    hand[4, 1] = 1.0
    hand[3, 2] = 1.0
    assert np.array_equal(W[0, 0], hand)
    sv = np.linalg.svd(hand, compute_uv=False)
    assert np.allclose(np.linalg.svd(W[0, 0], compute_uv=False), sv, atol=1e-14)
    assert sv[2] > 0.3
    assert not rank_deficient(diag123, W)[0, 0]


def test_witness_matrix_repeated_eigenvalue_rank_two():
    f = quadratic_form_polynomial(np.diag([1.0, 1.0, 2.0]))
    W = build_witness_matrix(f, [[1.0, 0.0, 0.0]], [[[0.0, 1.0, 0.0]]])
    # Columns (e1; e2), (e1; e2), (0; e1): first two coincide.
    assert np.array_equal(W[0, 0, :, 0], W[0, 0, :, 1])
    assert np.linalg.svd(W[0, 0], compute_uv=False)[2] == pytest.approx(0.0, abs=1e-14)


def test_witness_matrix_validation(diag123):
    with pytest.raises(ValueError, match="shape"):
        build_witness_matrix(diag123, [[1.0, 0.0]], [[[0.0, 1.0, 0.0]]])
    with pytest.raises(ValueError, match="shape"):
        build_witness_matrix(diag123, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="shape"):
        build_witness_matrix(diag123, np.eye(3), np.zeros((2, 1, 3)))
    with pytest.raises(ValueError, match="shape"):
        build_witness_matrix(diag123, np.eye(3), np.zeros((3, 1, 2)))
    with pytest.raises(ValueError, match="nonzero"):
        build_witness_matrix(diag123, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], np.ones((2, 1, 3)))


def test_witness_matrix_batch_shapes(diag123):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, 3))
    W = build_witness_matrix(diag123, X, rng.standard_normal((4, 2, 3)))
    assert W.shape == (4, 2, 6, 3)
    assert rank_deficient(diag123, W).shape == (4, 2)
    assert rank_deficient(diag123, W[1, 0]).shape == ()
    assert build_witness_matrix(diag123, X, np.zeros((4, 0, 3))).shape == (4, 0, 6, 3)
    assert build_witness_matrix(diag123, np.zeros((0, 3)), np.zeros((0, 2, 3))).shape == (
        0, 2, 6, 3)


def test_witness_matrix_at_n1():
    # The sphere in one dimension has no tangent directions: an empty Y gives
    # an empty batch, and a direction is refused instead of yielding a 2 x 3
    # matrix with two singular values.
    f = random_polynomial(1, 3, 4)
    W = build_witness_matrix(f, [[1.0], [-1.0]], np.zeros((2, 0, 1)))
    assert W.shape == (2, 0, 2, 3)
    hits = rank_deficient(f, W)
    assert hits.shape == (2, 0) and hits.dtype == bool
    with pytest.raises(ValueError, match="n = 1 has no tangent directions"):
        build_witness_matrix(f, [[1.0]], [[[0.0]]])


# ---------------------------------------------------------------------------
# Witness detection
# ---------------------------------------------------------------------------


def test_detect_on_flat_monomial_point():
    f = axis_monomial(3, 3)
    w = detect_sosc_failure(f, [0.0, 1.0, 0.0])
    assert w is not None
    assert abs(w.y @ w.x) <= 1e-10
    assert np.linalg.norm(w.y) == pytest.approx(1.0, abs=1e-12)
    assert w.mu == pytest.approx(0.0, abs=1e-12)
    assert w.lam == pytest.approx(0.0, abs=1e-12)
    assert w.rank_defect_measure <= 1e-10
    assert w.bordered_residual <= 1e-10


def test_detect_none_on_strict_minimizer(diag123):
    assert detect_sosc_failure(diag123, [1.0, 0.0, 0.0]) is None


def test_detect_none_on_fonc_only_point(diag123):
    # SONC already fails at e2 (margin -1), so there is no degeneracy
    # witness to return there.
    assert detect_sosc_failure(diag123, [0.0, 1.0, 0.0]) is None


def test_detect_repeated_eigenvalue_witness():
    f = quadratic_form_polynomial(np.diag([1.0, 1.0, 2.0]))
    w = detect_sosc_failure(f, [1.0, 0.0, 0.0])
    assert w is not None
    assert abs(abs(w.y[1]) - 1.0) <= 1e-10  # y = +-e2
    assert w.mu == pytest.approx(0.0, abs=1e-12)
    assert w.rank_defect_measure <= 1e-12
    assert abs(w.bordered_det) <= 1e-12


def test_detect_raises_off_critical_points(diag123):
    with pytest.raises(NotCriticalError, match="FONC residual"):
        detect_sosc_failure(diag123, unit([1.0, 1.0, 1.0]))


def _rotated_repeated_bottom():
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    A = Q @ np.diag([-1.0, -1.0, 2.0]) @ Q.T
    return quadratic_form_polynomial(0.5 * (A + A.T)), unit(Q[:, 0])


@pytest.mark.parametrize(
    "f, x",
    [
        # The anchors run_degenerate_family probes, where det is exactly 0.
        (quadratic_form_polynomial(np.diag([1.0, 1.0, 2.0])), [1.0, 0.0, 0.0]),
        (axis_monomial(3, 3), [0.0, 1.0, 0.0]),
        # A rotated instance, where rounding leaves det slightly off 0.
        _rotated_repeated_bottom(),
    ],
    ids=["repeated_lambda1", "single_monomial", "rotated"],
)
def test_witness_bordered_det_matches_bordered_determinant(f, x):
    w = detect_sosc_failure(f, x)
    assert w is not None
    assert w.bordered_det == bordered_determinants(f, [w.x], [w.lam])[0]


def test_witness_reconstruction_validates_converse():
    # From the witness pair alone: the FONC residual at x and the Rayleigh
    # quotient margin at y must both be inside tolerance.
    cases = [
        (quadratic_form_polynomial(np.diag([1.0, 1.0, 2.0])), [1.0, 0.0, 0.0]),
        (axis_monomial(3, 3), [0.0, 1.0, 0.0]),
        (axis_monomial(2, 4), [0.0, 1.0]),
    ]
    for f, x in cases:
        w = detect_sosc_failure(f, x)
        assert w is not None
        lam = f.d * f.evaluate(w.x)
        fonc = np.linalg.norm(f.gradient(w.x) - lam * w.x)
        margin = w.y @ f.hessian(w.x) @ w.y - lam
        assert fonc <= scaled_tolerance(f, DEFAULT_TOL_CRIT)
        assert margin <= scaled_tolerance(f, DEFAULT_TOL_CLASS)


# ---------------------------------------------------------------------------
# Bordered determinant
# ---------------------------------------------------------------------------


def test_bordered_matrix_weighted_quadratic(diag123):
    # The Newton Jacobian is the bordered matrix [[H - lam I, x], [x^T, 0]]
    # with its last (lam) column negated.
    X = np.array([[1.0, 0.0, 0.0]])
    matrices = _system_jacobian(diag123, np.array([[1.0, 0.0, 0.0, 1.0]]))
    hand = np.array(
        [
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    assert matrices.shape == (1, 4, 4)
    assert np.array_equal(matrices[0], hand)
    assert bordered_determinants(diag123, X, [1.0])[0] == pytest.approx(-2.0, abs=1e-12)


def _reference_bordered(H, X, lam):
    """The bordered matrices [[H - lam I, x], [x^T, 0]] built directly: the
    reference that bordered_determinants must match bit for bit."""
    k, n = X.shape
    M = np.zeros((k, n + 1, n + 1))
    M[:, :n, :n] = H
    idx = np.arange(n)
    M[:, idx, idx] -= lam[:, None]
    M[:, :n, n] = X
    M[:, n, :n] = X
    return M


def _assert_matches_reference(f, X, lam):
    got = bordered_determinants(f, X, lam)
    ref = np.linalg.det(_reference_bordered(f.hessian_many(X), X, lam))
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))
    return got


def test_bordered_determinants_bitwise_equal_reference_on_random_forms():
    # Negating one column negates the LU's last pivot exactly, so the
    # determinant is the reference's bit for bit, at every batch size.
    rng = np.random.default_rng(2025)
    for n in range(1, 7):
        for d in range(1, 7):
            f = random_polynomial(n, d, rng)
            for rows in (1, 2, 7, 64):
                X = rng.standard_normal((rows, n))
                X /= np.linalg.norm(X, axis=1, keepdims=True)
                _assert_matches_reference(f, X, d * f.evaluate_many(X))


def test_bordered_determinants_keep_the_sign_of_exact_zeros():
    # The constructed degenerate families hold exact zeros.  The reference
    # returns +0.0 there, and so must bordered_determinants: a -0.0 would
    # be printed by `detect`.
    zeros = 0
    for n in range(2, 6):
        families = [axis_monomial(n, d) for d in (3, 4, 5)]
        families.append(quadratic_form_polynomial(np.diag([1.0, 1.0] + list(range(2, n)))))
        for f in families:
            found = find_critical_pairs(f, SolverConfig(seed=n))
            _assert_matches_reference(f, found.X, found.lam)
            V = np.random.default_rng(n).standard_normal((20, n))
            V[:, 0] = 0.0
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            got = _assert_matches_reference(f, V, f.d * f.evaluate_many(V))
            zeros += np.count_nonzero(got == 0.0)
    assert zeros > 0


def test_bordered_determinant_degenerate_monomial():
    f = axis_monomial(2, 3)
    det = bordered_determinants(f, [[0.0, 1.0]], [0.0])[0]
    assert det == pytest.approx(0.0, abs=1e-14)


def test_bordered_determinant_at_power_polynomial_points():
    # n = 2, d = 3: supports {1}, {2}, {1,2} give |det| = 6, 12, 12/sqrt(5)
    # (diagonal closed form |d-2|^(|S|-1) |lam|^(n-1)).
    p = geometric_power_polynomial(2, 3)
    X, lam = enumerate_power_critical_points(2, 3)
    assert lam.size == 6
    dets = bordered_determinants(p, X, lam)
    magnitudes = sorted(np.abs(dets))
    expected = sorted([6.0, 6.0, 12.0, 12.0, 12.0 / math.sqrt(5.0), 12.0 / math.sqrt(5.0)])
    assert np.allclose(magnitudes, expected, rtol=1e-10)
    assert np.all(np.abs(dets) > _zero_bound(p, X))


def _zero_bound(f, X):
    # The largest |det| that vanishes at each unit point of X, its factors
    # mu_i - lam read from the tangent spectrum.
    analysis = analyze_points(f, X)
    return _determinant_zero_bound(analysis.eigenvalues - analysis.lam[:, None], analysis.class_tol)


def test_determinant_zero_bound_leaves_the_smallest_factor():
    # tol times the n - 2 largest |factors|, each at least tol; n = 2 leaves tol.
    bound = _determinant_zero_bound([[1e-8, -10.0, 20.0], [0.0, 0.0, 3.0], [5.0, 5.0, 5.0]], 1e-7)
    np.testing.assert_allclose(bound, [1e-7 * 200.0, 1e-7 * 1e-7 * 3.0, 1e-7 * 25.0], rtol=1e-15)
    assert _determinant_zero_bound([[-4.0]], 1e-7).tolist() == [1e-7]


@pytest.mark.parametrize("n, d", [(4, 4), (5, 4), (3, 5)])
def test_power_family_determinants_nonzero_under_the_one_rule(n, d):
    # The closed-form points the witness suite checks: none vanishes under
    # the zero rule run_degenerate_family also applies.
    p = geometric_power_polynomial(n, d)
    X, lam = enumerate_power_critical_points(n, d)
    assert np.all(np.abs(bordered_determinants(p, X, lam)) > _zero_bound(p, X))


def _family_anchors():
    # The polynomial and anchor run_degenerate_family probes for each kind.
    for n in range(2, 7):
        diag = [1.0, 1.0] + [float(k) for k in range(2, n)]
        yield quadratic_form_polynomial(np.diag(diag)), np.eye(n)[0]
    for n in range(2, 6):
        for d in range(3, 7):
            yield axis_monomial(n, d), np.eye(n)[1]


def test_family_anchor_determinants_vanish_under_the_one_rule():
    anchors = list(_family_anchors())
    assert len(anchors) == 21
    for f, x in anchors:
        w = detect_sosc_failure(f, x)
        assert w is not None
        assert abs(w.bordered_det) <= _zero_bound(f, [x])[0]


def test_bordered_determinants_batch_matches_rows():
    # One batched call reproduces the one-row call of each point up to the
    # rounding of the batched Hessian jets.
    rng = np.random.default_rng(37)
    for n, d in ((2, 3), (3, 4), (5, 3)):
        f = random_polynomial(n, d, rng)
        X = rng.standard_normal((7, n))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        lam = d * f.evaluate_many(X)
        batched = bordered_determinants(f, X, lam)
        assert batched.shape == (7,)
        for x, lm, det in zip(X, lam, batched):
            assert bordered_determinants(f, [x], [lm])[0] == pytest.approx(det, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("c", [1e-3, 10.0, 1e3])
def test_bordered_determinants_homogeneous_of_degree_n_minus_1(n, c):
    # Scaling f and lam by c scales the n x n block of the bordered matrix
    # but not its border, so det picks up c^(n - 1).  The zero rule reads
    # its n - 1 factors mu_i - lam, each linear in c like the margin band.
    rng = np.random.default_rng([n, 41])
    f = random_polynomial(n, 3, rng)
    cf = HomogeneousPolynomial.from_coefficient_vector(n, 3, c * f.coefficient_vector())
    X = rng.standard_normal((5, n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    lam = 3 * f.evaluate_many(X)
    dets = bordered_determinants(f, X, lam)
    assert np.allclose(bordered_determinants(cf, X, c * lam), c ** (n - 1) * dets, rtol=1e-10, atol=0)


def test_bordered_determinants_input_checks(diag123):
    with pytest.raises(ValueError, match="shape"):
        bordered_determinants(diag123, np.eye(2), [1.0, 2.0])
    with pytest.raises(ValueError, match="lam must have shape"):
        bordered_determinants(diag123, np.eye(3), 1.0)
    with pytest.raises(ValueError, match=r"points must have shape \(k, 3\)"):
        bordered_determinants(diag123, [1.0, 0.0, 0.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# Quadratic specialization
# ---------------------------------------------------------------------------


def test_quadratic_degeneracy_simple_spectrum():
    for n in (2, 3, 6):
        qd = quadratic_degeneracy(np.diag(np.arange(1.0, n + 1.0)))
        assert not qd.degenerate
        assert qd.lambda1_multiplicity == 1


def test_quadratic_degeneracy_repeated_bottom():
    qd = quadratic_degeneracy(np.diag([1.0, 1.0, 2.0]))
    assert qd.degenerate and qd.lambda1_multiplicity == 2
    qd = quadratic_degeneracy(np.eye(4))
    assert qd.degenerate and qd.lambda1_multiplicity == 4


def test_quadratic_degeneracy_repeated_interior_is_fine():
    # Only the least eigenvalue matters.
    qd = quadratic_degeneracy(np.diag([1.0, 2.0, 2.0]))
    assert not qd.degenerate
    assert qd.lambda1_multiplicity == 1


def test_quadratic_degeneracy_random_matrices_generic():
    rng = np.random.default_rng(37)
    hits = 0
    for _ in range(1000):
        G = rng.standard_normal((6, 6))
        hits += quadratic_degeneracy(0.5 * (G + G.T)).degenerate
    assert hits == 0


def test_quadratic_degeneracy_rejects_empty_matrix():
    with pytest.raises(ValueError, match="nonempty"):
        quadratic_degeneracy(np.zeros((0, 0)))


def test_quadratic_degeneracy_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        quadratic_degeneracy(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_quadratic_equivalence_with_detector():
    # detect_sosc_failure at the bottom eigenvector agrees with the
    # eigenvalue rule, degenerate and non-degenerate alike.
    rng = np.random.default_rng(41)
    matrices = [np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 1.0, 3.0])]
    for _ in range(10):
        G = rng.standard_normal((3, 3))
        matrices.append(0.5 * (G + G.T))
    for A in matrices:
        f = quadratic_form_polynomial(A)
        w, V = np.linalg.eigh(A)
        witness = detect_sosc_failure(f, V[:, 0])
        assert (witness is not None) == quadratic_degeneracy(A).degenerate


# ---------------------------------------------------------------------------
# Exact n = 2 oracle
# ---------------------------------------------------------------------------


def test_oracle_monomial_on_locus():
    result = exact_oracle_n2(axis_monomial(2, 3))
    assert result.on_locus
    assert result.gcd_degree == 1
    # gcd is monic t (common projective root (0, 1), the e2 direction).
    assert result.gcd == (0.0, 1.0)


def test_oracle_power_polynomial_off_locus():
    result = exact_oracle_n2(geometric_power_polynomial(2, 3))
    assert not result.on_locus
    assert result.gcd_degree == 0
    assert not result.vanishes_at_infinity


def test_oracle_isotropic_quadratic_on_locus():
    f = HomogeneousPolynomial(2, 2, {(2, 0): 0.5, (0, 2): 0.5})
    result = exact_oracle_n2(f)
    assert result.on_locus
    assert result.gcd_degree == -1  # g = 0: radial f


def test_oracle_linear_generic_off_locus():
    f = HomogeneousPolynomial(2, 1, {(1, 0): 1.0, (0, 1): 2.0})
    result = exact_oracle_n2(f)
    assert not result.on_locus


def test_oracle_distinct_diagonal_quadratic_off_locus():
    f = HomogeneousPolynomial(2, 2, {(2, 0): 0.5, (0, 2): 1.0})
    assert not exact_oracle_n2(f).on_locus


def test_oracle_zero_at_infinity_only():
    # g = x2^2 (1.5 x2 - 2.1 x1) misses x1^3 and x1^2: a double root at
    # (1, 0), and its dehomogenization at x2 = 1 is square-free.
    result = exact_oracle_n2(_ZERO_AT_INFINITY_FORMS[0])
    assert result.on_locus
    assert result.gcd_degree == 0
    assert result.vanishes_at_infinity
    assert result.certificate == "g has a double root at infinity (x2 = 0 direction)"


def test_oracle_common_factor_and_zero_at_infinity():
    result = exact_oracle_n2(_ZERO_AT_INFINITY_FORMS[1])
    assert result.on_locus
    assert result.gcd_degree == 1
    assert result.gcd == (0.0, 1.0)
    assert result.vanishes_at_infinity
    assert result.certificate == (
        "g has a repeated factor of degree 1 and a double root at infinity"
    )


def test_oracle_requires_n2(diag123):
    with pytest.raises(ValueError, match="n = 2"):
        exact_oracle_n2(diag123)
    with pytest.raises(ZeroPolynomialError):
        exact_oracle_n2(HomogeneousPolynomial(2, 2, {}))


def test_oracle_agrees_with_numeric_pipeline_on_random_inputs():
    # off-locus oracle verdicts must match "no degenerate point found".
    for i in range(200):
        d = (3, 4, 5)[i % 3]
        f = random_polynomial(2, d, 9000 + i)
        result = exact_oracle_n2(f)
        points = classify_all(f, SolverConfig(seed=9500 + i))
        numeric_degenerate = any(
            p.verdict is Verdict.SONC_DEGENERATE for p in points
        )
        if not result.on_locus:
            assert not numeric_degenerate, f"seed {9000 + i}"


def test_oracle_flags_constructed_degenerate_cases():
    for f in (axis_monomial(2, 3), axis_monomial(2, 4)):
        assert exact_oracle_n2(f).on_locus
    f = quadratic_form_polynomial(np.diag([2.0, 2.0]))
    assert exact_oracle_n2(f).on_locus


# ---------------------------------------------------------------------------
# The integer pencil form g against a float reference
# ---------------------------------------------------------------------------


def _reference_pencil_form(f, number=float):
    """g = x2 df/dx1 - x1 df/dx2 in ``number``, one coefficient at a time."""
    d = f.d
    a = [number(0)] * (d + 1)
    for (e1, _), c in f.terms.items():
        a[e1] = number(c)
    g = [number(0)] * (d + 1)
    for j in range(d + 1):
        if j + 1 <= d:
            g[j] += (j + 1) * a[j + 1]
        if j >= 1:
            g[j] -= (d - j + 1) * a[j - 1]
    return g


def _binary(d, coefs):
    return HomogeneousPolynomial(2, d, {(i, d - i): c for i, c in coefs.items()})


_CONSTRUCTED_BINARY_FORMS = (
    [axis_monomial(2, d) for d in range(1, 9)]
    + [_binary(d, {0: 1.0}) for d in range(1, 9)]  # x2^d
    + [geometric_power_polynomial(2, d) for d in range(1, 9)]
    + [
        _binary(2, {2: 1.0, 0: 1.0}),  # x1^2 + x2^2
        _binary(4, {4: 1.0, 2: 2.0, 0: 1.0}),  # (x1^2 + x2^2)^2
        _binary(4, {2: 1.0}),  # x1^2 x2^2
        _binary(6, {6: 1.0, 4: 3.0, 2: 3.0, 0: 1.0}),  # (x1^2 + x2^2)^3
    ]
)


@pytest.mark.parametrize(
    "forms",
    [[random_polynomial(2, d, 700 + 10 * d + s) for s in range(8)] for d in range(1, 9)]
    + [_CONSTRUCTED_BINARY_FORMS],
    ids=[f"random_d{d}" for d in range(1, 9)] + ["constructed"],
)
def test_pencil_form_matches_reference(forms):
    for f in forms:
        g = np.array(_binary_form(f.coefficient_vector()[::-1].tolist()))
        assert g.tobytes() == np.array(_reference_pencil_form(f)).tobytes(), f.terms


# ---------------------------------------------------------------------------
# Integer oracle against the rational Euclid it replaced
# ---------------------------------------------------------------------------


def _reference_strip(p):
    k = len(p)
    while k and p[k - 1] == 0:
        k -= 1
    return p[:k]


def _reference_poly_mod(u, v):
    u = list(u)
    dv = len(v) - 1
    lead = v[-1]
    while len(u) - 1 >= dv:
        q = u[-1] / lead
        if q:
            shift = len(u) - 1 - dv
            for i in range(dv + 1):
                u[shift + i] -= q * v[i]
        u.pop()
    return u


def _reference_poly_gcd(u, v):
    """Euclid over Fraction, made monic after every step."""
    u, v = _reference_strip(u), _reference_strip(v)
    while v:
        u, v = v, _reference_strip(_reference_poly_mod(u, v))
        lead = u[-1]
        if lead != 1:
            u = [c / lead for c in u]
    if u:
        lead = u[-1]
        u = [c / lead for c in u]
    return u


def _reference_oracle(f):
    """exact_oracle_n2 over Fraction: rational g, monic Euclid of g and g'."""
    g = _reference_strip(_reference_pencil_form(f, Fraction))
    if not g:
        return OracleResult(
            on_locus=True,
            certificate="g vanishes identically; every direction is critical and degenerate",
            gcd_degree=-1,
            gcd=None,
            vanishes_at_infinity=True,
        )
    h = _reference_poly_gcd(g, [j * c for j, c in enumerate(g)][1:])
    degree = len(h) - 1
    vanishes_at_infinity = len(g) < f.d
    if degree >= 1 and vanishes_at_infinity:
        certificate = f"g has a repeated factor of degree {degree} and a double root at infinity"
    elif degree >= 1:
        certificate = f"g has a repeated factor of degree {degree}; its roots are degenerate directions"
    elif vanishes_at_infinity:
        certificate = "g has a double root at infinity (x2 = 0 direction)"
    else:
        certificate = (
            "g is square-free and has at most a simple root at infinity; "
            "no degenerate direction, real or complex"
        )
    return OracleResult(
        on_locus=degree >= 1 or vanishes_at_infinity,
        certificate=certificate,
        gcd_degree=degree,
        gcd=tuple(float(c) for c in h) if degree >= 1 else None,
        vanishes_at_infinity=vanishes_at_infinity,
    )


def _product_form(*factors):
    """Product of powers (a x1 + b x2)^k, given as (a, b, k) triples."""
    coefs = np.array([1])
    for a, b, k in factors:
        for _ in range(k):
            coefs = np.convolve(coefs, [b, a])  # index = power of x1
    d = len(coefs) - 1
    return _binary(d, {i: float(c) for i, c in enumerate(coefs) if c})


# Products of linear forms with repeated roots: g has a repeated factor.
_REPEATED_ROOT_PRODUCTS = (
    _product_form((1, 2, 6), (1, 1, 2)),  # (x1 + 2 x2)^6 (x1 + x2)^2
    _product_form((1, -1, 4), (2, 1, 1)),  # (x1 - x2)^4 (2 x1 + x2)
    _product_form((1, 0, 3), (1, 1, 3)),  # x1^3 (x1 + x2)^3
    _product_form((3, 1, 3), (1, -2, 2)),  # (3 x1 + x2)^3 (x1 - 2 x2)^2: gcd t + 1/3
)
# g misses x1^d and x1^(d-1): a double root at infinity.
_ZERO_AT_INFINITY_FORMS = (
    _binary(3, {3: 1.0, 1: 1.5, 0: 0.7}),
    _binary(5, {5: 1.0, 3: 2.5, 2: 2.5, 0: 1.0}),
)


def _assert_same_oracle_result(got, expected, label):
    assert got == expected, label
    if expected.gcd is not None:
        assert [c.hex() for c in got.gcd] == [c.hex() for c in expected.gcd], label


def _oracle_forms():
    """Random forms of degree 1 to 8, the constructed forms, repeated-root
    products and forms zero at infinity."""
    forms = [random_polynomial(2, d, 5100 + 10 * d + s) for d in range(1, 9) for s in range(6)]
    forms += list(_CONSTRUCTED_BINARY_FORMS)
    return forms + list(_REPEATED_ROOT_PRODUCTS) + list(_ZERO_AT_INFINITY_FORMS)


def _small_integer_forms():
    """100 nonzero forms of each degree 1 to 8 with coefficients in -2 .. 2."""
    rng = np.random.default_rng(31)
    forms = []
    for d in range(1, 9):
        checked = 0
        while checked < 100:
            coefs = rng.integers(-2, 3, size=d + 1)
            if coefs.any():
                forms.append(_binary(d, {i: float(c) for i, c in enumerate(coefs) if c}))
                checked += 1
    return forms


def test_integer_oracle_matches_rational_euclid():
    for f in _oracle_forms():
        _assert_same_oracle_result(exact_oracle_n2(f), _reference_oracle(f), f.terms)
    for f in _REPEATED_ROOT_PRODUCTS:
        assert exact_oracle_n2(f).gcd_degree >= 1, f.terms


def test_oracle_exactness_under_scaling():
    # Membership is a projective property of the coefficients.  Scaling by a
    # power of two is exact in floats, so every field must stay the same.
    anchors = [random_polynomial(2, d, 5300 + d) for d in range(1, 9)]
    anchors += list(_REPEATED_ROOT_PRODUCTS) + list(_ZERO_AT_INFINITY_FORMS)
    anchors += [axis_monomial(2, 3), geometric_power_polynomial(2, 5)]
    for f in anchors:
        base = exact_oracle_n2(f)
        for k in (-400, -60, 60, 400):
            terms = {e: math.ldexp(c, k) for e, c in f.terms.items()}
            g = HomogeneousPolynomial(2, f.d, terms)
            _assert_same_oracle_result(exact_oracle_n2(g), base, (f.terms, k))
    # Other scalings round the coefficients; random forms stay off the locus.
    for seed in range(5):
        f = random_polynomial(2, 4, seed)
        assert not exact_oracle_n2(f).on_locus
        for c in (1e-150, 1e-12, 3.0, 1e12, 1e150):
            g = HomogeneousPolynomial(2, 4, {e: c * v for e, v in f.terms.items()})
            assert not exact_oracle_n2(g).on_locus, (seed, c)


def _isotropic_products():
    """(x1^2 + x2^2) h for h = x1, 2 x2 - x1 and a seeded integer form of
    each degree d - 2, d = 3..8: g is (x1^2 + x2^2) g_h, zero at (1, +-i)."""
    hs = [[0, 1], [2, -1]]  # index = power of x1
    hs += [np.random.default_rng(d).integers(-9, 10, size=d - 1) for d in range(3, 9)]
    return [
        _binary(len(h) + 1, {i: float(c) for i, c in enumerate(np.convolve([1, 0, 1], h)) if c})
        for h in hs
    ]


def _enumerate_root_by_root(f):
    """enumerate_critical_pairs_n2 with its seeds built one root at a time,
    each a new array normalized by np.linalg.norm."""
    g, h = _critical_form(f)
    candidates = [np.array([1.0, 0.0])] if len(g) <= f.d else []
    if len(g) > 1:
        top = max(map(abs, g))
        p = np.array([c / top for c in reversed(g)])
        if len(h) > 1:
            p = np.polydiv(p, [c / h[-1] for c in reversed(h)])[0]
        for z in np.roots(p):
            if abs(z.imag) <= 1e-8 * max(1.0, abs(z)):
                u = np.array([float(z.real), 1.0])
                candidates.append(u / np.linalg.norm(u))
    X0, tol = np.array(candidates), scaled_tolerance(f, DEFAULT_TOL_CRIT)
    return _finish(f, _newton_polish(f, X0, f.d * f.evaluate_many(X0), accept_tol=tol), tol)[0]


@pytest.mark.bitwise
def test_array_built_seeds_match_root_by_root_seeds():
    forms = [random_polynomial(2, d, 5500 + 10 * d + s) for d in range(2, 9) for s in range(20)]
    forms += list(_REPEATED_ROOT_PRODUCTS) + list(_ZERO_AT_INFINITY_FORMS)
    forms += _isotropic_products()
    # g(t, 1) over its largest coefficient has leading coefficients that
    # round to zero, which the root finder drops.
    forms += [
        _binary(3, {2: 1e-300, 0: 1e150, 3: 1.0}),
        _binary(4, {3: 1e-200, 1: 1e150, 0: 1.0}),
        _binary(5, {4: 1e-310, 0: 1e100, 2: 3.0}),
    ]
    for f in forms:
        got, expected = enumerate_critical_pairs_n2(f), _enumerate_root_by_root(f)
        assert got.X.tobytes() == expected.X.tobytes(), f.terms
        assert got.lam.tobytes() == expected.lam.tobytes(), f.terms
        assert got.starts_used == expected.starts_used, f.terms


def test_isotropic_roots_of_g_are_not_degenerate():
    # x1 (x1^2 + x2^2) restricts to cos(theta) on the circle: no critical
    # point is degenerate, though g = x2 (x1^2 + x2^2) vanishes at (1, +-i).
    for f in _isotropic_products():
        result = exact_oracle_n2(f)
        assert not result.on_locus, f.terms
        assert result.gcd_degree == 0, f.terms
        verdicts = [p.verdict for p in classify_all(f)]
        assert Verdict.SONC_DEGENERATE not in verdicts, f.terms


def test_oracle_matches_rational_reference_on_small_integers():
    for f in _small_integer_forms():
        _assert_same_oracle_result(exact_oracle_n2(f), _reference_oracle(f), f.terms)


def _prs_critical_form(f):
    """(g, h) of :func:`_critical_form` with h from the primitive PRS alone."""
    g = _intpoly._strip(_binary_form(_intpoly._integer_coefficients(f)))
    if len(g) <= 1:
        return g, [1] * len(g)
    return g, _prs_gcd(_primitive(g), _primitive(_partials(g)[0]))


def test_modular_coprimality_test_matches_the_prs():
    # h = [1] from the modular test only where the PRS gives [1] too, and the
    # test settles every square-free g of these forms.
    for f in _oracle_forms() + _small_integer_forms():
        g, h = _prs_critical_form(f)
        assert _critical_form(f) == (g, h), f.terms
        if len(g) > 1:
            assert _intpoly._coprime_mod_prime(g) == (h == [1]), f.terms


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_prime_dividing_the_leading_coefficient_takes_the_prs(d, monkeypatch):
    # g's x1^d coefficient is -a_(d-1), the x1^(d-1) x2 coefficient of f:
    # a multiple of the prime there leaves the modular test inconclusive.
    coefs = dict(enumerate(np.random.default_rng(d).integers(1, 10, size=d + 1).tolist()))
    coefs[d - 1] = float(3 * _intpoly._PRIME)  # exact in float64
    f = _binary(d, coefs)
    g, h = _prs_critical_form(f)
    assert g[-1] % _intpoly._PRIME == 0 and not _intpoly._coprime_mod_prime(g)
    calls = []
    monkeypatch.setattr(_intpoly, "_prs_gcd", lambda u, v: calls.append(1) or _prs_gcd(u, v))
    assert _critical_form(f) == (g, h) and calls == [1]
    _assert_same_oracle_result(exact_oracle_n2(f), _reference_oracle(f), f.terms)


@pytest.mark.parametrize("prime", [3, 5])
def test_small_prime_falls_back_to_the_prs(prime, monkeypatch):
    # Modulo 3 or 5 many square-free g share a factor with g' or lose their
    # leading coefficient; each such form must still come out square-free,
    # and the repeated-root products keep their h.
    monkeypatch.setattr(_intpoly, "_PRIME", prime)
    inconclusive = 0
    for f in _small_integer_forms() + list(_REPEATED_ROOT_PRODUCTS):
        g, h = _prs_critical_form(f)
        inconclusive += len(g) > 1 and h == [1] and not _intpoly._coprime_mod_prime(g)
        assert _critical_form(f) == (g, h), f.terms
        _assert_same_oracle_result(exact_oracle_n2(f), _reference_oracle(f), f.terms)
    assert inconclusive >= 20
    for f in _REPEATED_ROOT_PRODUCTS:
        assert len(_critical_form(f)[1]) > 1, f.terms


def test_numeric_degenerate_point_implies_on_locus():
    # A real degenerate point is a repeated real root of g.
    for f in _CONSTRUCTED_BINARY_FORMS:
        if any(p.verdict is Verdict.SONC_DEGENERATE for p in classify_all(f)):
            assert exact_oracle_n2(f).on_locus, f.terms


# ---------------------------------------------------------------------------
# Cross-characterization consistency
# ---------------------------------------------------------------------------


def test_witness_iff_degenerate_verdict():
    cases = [
        (weighted_axis_quadratic(3), [1.0, 0.0, 0.0], False),
        (quadratic_form_polynomial(np.diag([1.0, 1.0, 2.0])), [1.0, 0.0, 0.0], True),
        (axis_monomial(3, 3), [0.0, 1.0, 0.0], True),
        (geometric_power_polynomial(2, 3), unit([2.0, 1.0]), False),
    ]
    for f, x, expected in cases:
        x = np.asarray(x, dtype=float)
        witness = detect_sosc_failure(f, x)
        verdict = classify_point(f, x).verdict
        assert (witness is not None) == expected
        assert (verdict is Verdict.SONC_DEGENERATE) == expected
        if witness is not None:
            assert rank_deficient(f, build_witness_matrix(f, [witness.x], [[witness.y]]))[0, 0]
            assert abs(witness.bordered_det) <= _zero_bound(f, [witness.x])[0]


def test_sosc_eigenvectors_keep_full_rank(diag123):
    # At a strict minimizer no tangent eigenvector produces a rank drop.
    x = np.array([1.0, 0.0, 0.0])
    Y = analyze_points(diag123, [x]).eigenvectors.swapaxes(1, 2)
    assert not np.any(rank_deficient(diag123, build_witness_matrix(diag123, [x], Y)))


@pytest.mark.parametrize("n, d, seed", [(2, 3, 1), (3, 4, 2), (4, 3, 3)])
def test_batched_witness_matches_build_witness_matrix(n, d, seed):
    # One batch over every (critical point, tangent eigenvector) pair must
    # reproduce the one-matrix batch of each direction.
    f = random_polynomial(n, d, seed)
    X = np.array([p.x for p in find_critical_pairs(f, SolverConfig(seed=seed)).pairs])
    Y = analyze_points(f, X).eigenvectors.swapaxes(1, 2)
    W = build_witness_matrix(f, X, Y)
    sv = np.linalg.svd(W, compute_uv=False)
    assert sv.shape == (X.shape[0], n - 1, 3)
    for i, x in enumerate(X):
        for k in range(n - 1):
            single = build_witness_matrix(f, [x], [[Y[i, k]]])[0, 0]
            single_sv = np.linalg.svd(single, compute_uv=False)
            scale = max(1.0, single_sv[0])
            assert np.max(np.abs(W[i, k] - single)) <= 1e-12 * scale
            assert abs(sv[i, k, 2] - single_sv[2]) <= 1e-12 * scale


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_witness_third_singular_value_matches_build_witness_matrix(n, d):
    # detect_sosc_failure assembles its witness matrix from its analysis's
    # gradient and Hessian: the same bits as build_witness_matrix's jets.
    f = axis_monomial(n, d)
    w = detect_sosc_failure(f, np.eye(n)[1])
    W = build_witness_matrix(f, [w.x], [[w.y]])[0, 0]
    assert w.rank_defect_measure == float(np.linalg.svd(W, compute_uv=False)[2])


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 4), (3, 4), (4, 3)])
def test_witness_and_determinant_measure_the_tangent_gaps(n, d):
    # At a unit critical point with tangent eigenvalues mu_i, the witness
    # matrix of a unit eigenvector has singular-value product |mu_i - lam|
    # and the bordered determinant is -prod_i (mu_i - lam).  For any unit
    # tangent y the product is sqrt((y.Hy - lam)^2 + 2 ||r||^2), r the part
    # of Hy off x and y.  Each signal computes its number by its own route.
    rng = np.random.default_rng([n, d, 22])
    for seed in range(4):
        f = random_polynomial(n, d, rng)
        X = find_critical_pairs(f, SolverConfig(seed=seed)).X
        analysis = analyze_points(f, X)
        gaps = analysis.eigenvalues - analysis.lam[:, None]
        W = build_witness_matrix(f, X, analysis.eigenvectors.swapaxes(1, 2))
        products = np.linalg.svd(W, compute_uv=False).prod(axis=-1)
        np.testing.assert_allclose(products, np.abs(gaps), rtol=1e-12, atol=0)
        dets = bordered_determinants(f, X, analysis.lam)
        np.testing.assert_allclose(dets, -gaps.prod(axis=1), rtol=1e-12, atol=0)

        Y = rng.standard_normal(X.shape)
        Y -= np.einsum("ij,ij->i", Y, X)[:, None] * X
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        HY = np.einsum("kij,kj->ki", analysis.hessians, Y)
        rayleigh = np.einsum("ij,ij->i", Y, HY)
        r = HY - rayleigh[:, None] * Y - np.einsum("ij,ij->i", X, HY)[:, None] * X
        expected = np.hypot(rayleigh - analysis.lam, np.sqrt(2.0) * np.linalg.norm(r, axis=1))
        W = build_witness_matrix(f, X, Y[:, None, :])[:, 0]
        products = np.linalg.svd(W, compute_uv=False).prod(axis=-1)
        np.testing.assert_allclose(products, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "diag, verdict, vanishes",
    [
        # Every factor is 1e-3, far outside the band; det is -1e-9 and -1e-15.
        ([0.0, 1e-3, 1e-3, 1e-3], Verdict.SOSC, False),
        ([0.0] + [1e-3] * 5, Verdict.SOSC, False),
        # One factor 1e-8 inside the band; det is -1e-4.
        ([0.0, 1e-8, 10.0, 10.0, 10.0, 10.0], Verdict.SONC_DEGENERATE, True),
    ],
    ids=["sosc_n4", "sosc_n6", "degenerate_n6"],
)
def test_determinant_vanishes_exactly_with_a_factor_in_the_band(diag, verdict, vanishes):
    # The size of a product says nothing about its smallest factor at n >= 3.
    f = quadratic_form_polynomial(np.diag(diag))
    x = np.eye(len(diag))[0]
    analysis = analyze_points(f, [x])
    assert analysis.verdicts == [verdict]
    det = bordered_determinants(f, [x], analysis.lam)[0]
    assert (abs(det) <= _zero_bound(f, [x])[0]) == vanishes


@pytest.mark.parametrize(
    "diag, margin",
    [([0.0, 1e-6, 1.0], 1e-6), ([1e4, 1e4 + 50.0, 3e4], 50.0)],
    ids=["margin_1e-6", "margin_50"],
)
def test_rank_witness_keeps_full_rank_outside_the_band(diag, margin):
    # SOSC points whose smallest gap is far outside the band at any scale of f.
    f = quadratic_form_polynomial(np.diag(diag))
    x = np.eye(len(diag))[0]
    analysis = analyze_points(f, [x])
    assert analysis.verdicts == [Verdict.SOSC]
    assert analysis.margins[0] == pytest.approx(margin, rel=1e-9)
    W = build_witness_matrix(f, [x], analysis.eigenvectors.swapaxes(1, 2))
    assert not np.any(rank_deficient(f, W))


def test_verdict_rank_witness_and_determinant_agree_on_a_gap_sweep():
    # x^T A x / 2 at e1 with A diagonal: lam = c, bottom gap +-c rho, the
    # other gaps above c / 3, over c in [1e-3, 1e6] and rho in
    # [1e-12, 1e-1].  Away from the band edge, where rounding may split a
    # tie, the three decisions agree.
    rng = np.random.default_rng(2233)
    decided = Counter()
    for trial in range(450):
        n = (3, 4, 6)[trial % 3]
        c = 10.0 ** rng.uniform(-3.0, 6.0)
        bottom = c * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -1.0))
        rest = bottom + c * np.sort(rng.uniform(0.5, 3.0, n - 2))
        f = quadratic_form_polynomial(np.diag(np.concatenate([[c, bottom], rest])))
        x = np.eye(n)[0]
        analysis = analyze_points(f, [x])
        if abs(abs(analysis.margins[0]) - analysis.class_tol) <= 1e-9 * analysis.class_tol:
            continue
        degenerate = analysis.verdicts[0] is Verdict.SONC_DEGENERATE
        W = build_witness_matrix(f, [x], analysis.eigenvectors.swapaxes(1, 2))
        assert rank_deficient(f, W).any() == degenerate, (n, c, bottom)
        det = bordered_determinants(f, [x], analysis.lam)[0]
        assert (abs(det) <= _zero_bound(f, [x])[0]) == degenerate, (n, c, bottom)
        decided[analysis.verdicts[0]] += 1
    assert min(decided.values()) >= 50 and len(decided) == 3, decided
