"""Rank witness, bordered determinant, quadratic rule, and the exact n = 2 oracle."""

import math
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
from spherecrit._intpoly import _binary_form, _strip, _witness_minor_forms
from spherecrit.critsolve import DEFAULT_TOL_CRIT, _system_jacobian
from spherecrit.degeneracy import DEFAULT_TOL_DET, OracleResult
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
    assert rank_deficient(W)[0, 0]


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
    assert not rank_deficient(W)[0, 0]


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
    assert rank_deficient(W).shape == (4, 2)
    assert rank_deficient(W[1, 0]).shape == ()
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
    hits = rank_deficient(W)
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
    # The one bordered builder is the Newton Jacobian: the bordered matrix
    # [[H - lam I, x], [x^T, 0]] with its last (lam) column negated.
    X = np.array([[1.0, 0.0, 0.0]])
    matrices = _system_jacobian(diag123, X, np.array([1.0]))
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
    reference that bordered_determinants, taken from the Newton Jacobian,
    must match bit for bit."""
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
    # returns +0.0 there, and so must 0.0 - det(J): unary negation would
    # give -0.0, which `detect` would print.
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
    assert np.all(np.abs(dets) > scaled_tolerance(p, DEFAULT_TOL_DET))


@pytest.mark.parametrize("n, d", [(4, 4), (5, 4), (3, 5)])
def test_power_family_determinants_nonzero_under_the_one_rule(n, d):
    # The closed-form points the witness suite checks: none vanishes under
    # the zero rule run_degenerate_family also applies.
    p = geometric_power_polynomial(n, d)
    dets = bordered_determinants(p, *enumerate_power_critical_points(n, d))
    assert np.all(np.abs(dets) > scaled_tolerance(p, DEFAULT_TOL_DET))


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
        assert abs(w.bordered_det) <= scaled_tolerance(f, DEFAULT_TOL_DET)


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
    # but not its border, so det picks up c^(n - 1).  The zero rule's
    # threshold is linear in ||f||, so it tracks this scaling only at n = 2.
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
    assert result.minors_all_zero


def test_oracle_linear_generic_off_locus():
    f = HomogeneousPolynomial(2, 1, {(1, 0): 1.0, (0, 1): 2.0})
    result = exact_oracle_n2(f)
    assert not result.on_locus


def test_oracle_distinct_diagonal_quadratic_off_locus():
    f = HomogeneousPolynomial(2, 2, {(2, 0): 0.5, (0, 2): 1.0})
    assert not exact_oracle_n2(f).on_locus


def test_oracle_zero_at_infinity_only():
    # Every minor misses x1^4, so all vanish at (1, 0); their
    # dehomogenizations at x2 = 1 are coprime.
    result = exact_oracle_n2(_ZERO_AT_INFINITY_FORMS[0])
    assert result.on_locus
    assert result.gcd_degree == 0
    assert result.vanishes_at_infinity
    assert result.certificate == "minors share the zero (1, 0) at infinity (x2 = 0 direction)"


def test_oracle_common_factor_and_zero_at_infinity():
    result = exact_oracle_n2(_ZERO_AT_INFINITY_FORMS[1])
    assert result.on_locus
    assert result.gcd_degree == 1
    assert result.gcd == (0.0, 1.0)
    assert result.vanishes_at_infinity
    assert result.certificate == (
        "minors share a degree-1 factor and a common zero at infinity"
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
# Closed-form minors against the general 3x3 determinant of polynomials
# ---------------------------------------------------------------------------


def _reference_add(a, b, sign=1):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += sign * v
    return out


def _reference_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _reference_det3(r0, r1, r2):
    a, b, c = r0
    d, e, g = r1
    h, i, j = r2
    m0 = _reference_add(_reference_mul(e, j), _reference_mul(g, i), -1)
    m1 = _reference_add(_reference_mul(d, j), _reference_mul(g, h), -1)
    m2 = _reference_add(_reference_mul(d, i), _reference_mul(e, h), -1)
    return _reference_add(
        _reference_add(_reference_mul(a, m0), _reference_mul(b, m1), -1),
        _reference_mul(c, m2),
    )


def _reference_minor_forms(f):
    """The four 3x3 minors of [f1, x1, 0; f2, x2, 0; (H y)_1, y1, x1;
    (H y)_2, y2, x2] with y = (x2, -x1), each a general polynomial determinant
    (lists indexed by the power of x1)."""
    d = f.d
    a = [Fraction(0)] * (d + 1)
    for (e1, _), c in f.terms.items():
        a[e1] = Fraction(c)
    f1 = [(i + 1) * a[i + 1] for i in range(d)]
    f2 = [(d - i) * a[i] for i in range(d)]
    f11 = [(i + 1) * f1[i + 1] for i in range(d - 1)]
    f12 = [(d - 1 - i) * f1[i] for i in range(d - 1)]
    f22 = [(d - 1 - i) * f2[i] for i in range(d - 1)]
    one, zero = Fraction(1), Fraction(0)
    y1, y2 = [one, zero], [zero, -one]
    x1, x2 = [zero, one], [one, zero]
    hy1 = _reference_add(_reference_mul(f11 or [zero], y1), _reference_mul(f12 or [zero], y2))
    hy2 = _reference_add(_reference_mul(f12 or [zero], y1), _reference_mul(f22 or [zero], y2))
    r1, r2 = (f1, x1, [zero]), (f2, x2, [zero])
    r3, r4 = (hy1, y1, x1), (hy2, y2, x2)
    return [
        _reference_det3(r1, r2, r3),
        _reference_det3(r1, r2, r4),
        _reference_det3(r1, r3, r4),
        _reference_det3(r2, r3, r4),
    ]


def _reference_pencil_form(f):
    """g = x2 df/dx1 - x1 df/dx2 in float64, one coefficient at a time."""
    d = f.d
    a = np.zeros(d + 1)
    for (e1, _), c in f.terms.items():
        a[e1] = c
    g = np.zeros(d + 1)
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
def test_closed_form_minors_match_determinant_route(forms):
    # The integer minors are the rational ones times the common power-of-two
    # denominator of the coefficients: the minors are linear in f.
    for f in forms:
        scale = max(Fraction(c).denominator for c in f.terms.values())
        got = [_strip(m) for m in _witness_minor_forms(f)]
        expected = [[scale * c for c in _strip(m)] for m in _reference_minor_forms(f)]
        assert got == expected, f.terms
        g = np.array(_binary_form(f.coefficient_vector()[::-1].tolist())[0])
        assert g.tobytes() == _reference_pencil_form(f).tobytes(), f.terms


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
    """exact_oracle_n2 over Fraction: rational minors, monic Euclid."""
    stripped = [_reference_strip(m) for m in _reference_minor_forms(f)]
    nonzero = [m for m in stripped if m]
    if not nonzero:
        return OracleResult(
            on_locus=True,
            certificate="all 3x3 minors vanish identically; every nonzero x admits a witness",
            gcd_degree=-1,
            gcd=None,
            vanishes_at_infinity=True,
            minors_all_zero=True,
        )
    vanishes_at_infinity = all(len(m) <= f.d + 1 for m in stripped)
    g = nonzero[0]
    for m in nonzero[1:]:
        g = _reference_poly_gcd(g, m)
        if len(g) == 1:
            break
    degree = len(g) - 1
    if degree >= 1 and vanishes_at_infinity:
        certificate = f"minors share a degree-{degree} factor and a common zero at infinity"
    elif degree >= 1:
        certificate = f"minors share a degree-{degree} factor; its roots are witness directions"
    elif vanishes_at_infinity:
        certificate = "minors share the zero (1, 0) at infinity (x2 = 0 direction)"
    else:
        certificate = (
            "minors are coprime and do not all vanish at x2 = 0; "
            "no nonzero complex witness pair exists"
        )
    return OracleResult(
        on_locus=degree >= 1 or vanishes_at_infinity,
        certificate=certificate,
        gcd_degree=degree,
        gcd=tuple(float(c) for c in g) if degree >= 1 else None,
        vanishes_at_infinity=vanishes_at_infinity,
        minors_all_zero=False,
    )


def _product_form(*factors):
    """Product of powers (a x1 + b x2)^k, given as (a, b, k) triples."""
    coefs = np.array([1])
    for a, b, k in factors:
        for _ in range(k):
            coefs = np.convolve(coefs, [b, a])  # index = power of x1
    d = len(coefs) - 1
    return _binary(d, {i: float(c) for i, c in enumerate(coefs) if c})


# Products of linear forms with repeated roots: their minors share a factor.
_REPEATED_ROOT_PRODUCTS = (
    _product_form((1, 2, 6), (1, 1, 2)),  # (x1 + 2 x2)^6 (x1 + x2)^2
    _product_form((1, -1, 4), (2, 1, 1)),  # (x1 - x2)^4 (2 x1 + x2)
    _product_form((1, 0, 3), (1, 1, 3)),  # x1^3 (x1 + x2)^3
    _product_form((3, 1, 3), (1, -2, 2)),  # (3 x1 + x2)^3 (x1 - 2 x2)^2: gcd t + 1/3
)
# Every minor misses x1^(d+1): a common zero at infinity.
_ZERO_AT_INFINITY_FORMS = (
    _binary(3, {3: 1.0, 1: 1.5, 0: 0.7}),
    _binary(5, {5: 1.0, 3: 2.5, 2: 2.5, 0: 1.0}),
)


def _assert_same_oracle_result(got, expected, label):
    assert got == expected, label
    if expected.gcd is not None:
        assert [c.hex() for c in got.gcd] == [c.hex() for c in expected.gcd], label


def test_integer_oracle_matches_rational_euclid():
    forms = [random_polynomial(2, d, 5100 + 10 * d + s) for d in range(1, 9) for s in range(6)]
    forms += list(_CONSTRUCTED_BINARY_FORMS)
    forms += list(_REPEATED_ROOT_PRODUCTS) + list(_ZERO_AT_INFINITY_FORMS)
    for f in forms:
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
            assert rank_deficient(build_witness_matrix(f, [witness.x], [[witness.y]]))[0, 0]
            assert abs(witness.bordered_det) <= scaled_tolerance(f, DEFAULT_TOL_DET)


def test_sosc_eigenvectors_keep_full_rank(diag123):
    # At a strict minimizer no tangent eigenvector produces a rank drop.
    x = np.array([1.0, 0.0, 0.0])
    Y = analyze_points(diag123, [x]).eigenvectors.swapaxes(1, 2)
    assert not np.any(rank_deficient(build_witness_matrix(diag123, [x], Y)))


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
