"""Degeneracy detection: SONC points of the sphere problem where SOSC fails.

For generic objectives the degenerate locus is empty, so reliable detection
needs more than one signal.  Three characterizations are implemented and
kept deliberately separate:

1. Rank witness.  At a critical point x with multiplier lam, SOSC failure
   at an SONC point is equivalent to the existence of a nonzero y with
   y.x = 0 making the 2n x 3 block matrix

       [ grad f(x)       x   0 ]
       [ hess f(x) y     y   x ]

   rank deficient (rank <= 2), which :func:`rank_deficient` decides in the
   margin band for the batches of :func:`build_witness_matrix`.  The witness
   of :func:`detect_sosc_failure` is the bottom tangent eigenvector.  Any
   (x, y) satisfying the rank condition forces the FONC to hold at x while
   the SOSC fails, so a witness can be re-validated from (x, y) alone.

2. Bordered determinant.  A witness (y, mu) solves
   hess f(x) y - lam y - mu x = 0 with y.x = 0, which makes the symmetric
   (n+1) x (n+1) bordered matrix [[hess f(x) - lam I, x], [x^T, 0]] singular
   (the Newton Jacobian of :mod:`spherecrit.critsolve` with its lam column
   negated, built here from the Hessian on its own).  det = 0 is necessary
   for degeneracy, not sufficient, and is reported as a corroborating
   signal only (:func:`bordered_determinants`, and ``bordered_det`` of a
   witness).  At a unit x it is -prod_i (mu_i - lam),
   zero when |det| over its n - 2 largest factors is in the margin band.

3. Exact n = 2 oracle.  On the circle f has derivative -g in the angle,
   with g = x2 f1 - x1 f2 the binary form whose roots are the critical
   directions, and the SOSC margin at a critical direction is the second
   derivative.  So a critical direction is degenerate exactly when it is a
   repeated projective root of g, real or complex: the n = 2
   eigendiscriminant (Abo, Seigal & Sturmfels).  This is decided exactly
   over the integers: every float coefficient is m 2^e, so scaling f by the
   common power-of-two denominator of its coefficients gives an integer g,
   and a primitive polynomial remainder sequence (pseudo-remainders with the
   content divided out) computes gcd(g, dg/dt) of its dehomogenization, in
   :mod:`spherecrit._intpoly`, which gives the n = 2 enumeration of
   :mod:`spherecrit.critsolve` the same g.  With a double-root check in the
   x2 = 0 direction this is a tolerance-free membership test for the complex
   degeneracy locus.  A real degenerate point forces membership; the
   converse can fail (complex-only repeated roots), so oracle verdict and
   numeric detection are always reported side by side, never merged.

The d = 2 specialization is :func:`quadratic_degeneracy`: for f = x^T A x / 2
some SONC point is degenerate exactly when the least eigenvalue of A is not
simple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import DEFAULT_TOL_CLASS, Verdict, analyze_points
from ._intpoly import _critical_form
from .critsolve import _reject_zero, scaled_tolerance
from .polyhom import HomogeneousPolynomial

__all__ = [
    "DegeneracyWitness",
    "QuadraticDegeneracy",
    "OracleResult",
    "NotCriticalError",
    "build_witness_matrix",
    "rank_deficient",
    "detect_sosc_failure",
    "bordered_determinants",
    "quadratic_degeneracy",
    "exact_oracle_n2",
]

DEFAULT_TOL_EIG = 1e-8


class NotCriticalError(ValueError):
    """The queried point does not satisfy the FONC to tolerance."""


@dataclass
class DegeneracyWitness:
    """A tangent direction y certifying SOSC failure at the critical point x.

    ``mu`` is the multiplier with hess f(x) y - lam y = mu x;
    ``rank_defect_measure`` is the third singular value of the witness
    matrix, for display only: :func:`rank_deficient` decides on the product
    of all three singular values.  ``bordered_residual`` is the norm of
    (hess f(x) y - lam y - mu x, y.x) and ``bordered_det`` the determinant
    of the bordered matrix.
    """

    x: np.ndarray
    y: np.ndarray
    mu: float
    lam: float
    rank_defect_measure: float
    bordered_residual: float
    bordered_det: float


@dataclass
class QuadraticDegeneracy:
    degenerate: bool
    lambda1_multiplicity: int


@dataclass
class OracleResult:
    """Exact complex-locus membership for n = 2.

    ``on_locus`` is True when g = x2 f1 - x1 f2 has a repeated projective
    root or vanishes identically.  ``gcd`` holds the monic repeated part of
    g's dehomogenization when its degree is at least one: the primitive
    integer gcd(g, dg/dt) with each coefficient divided by the leading one,
    correctly rounded to float.  ``gcd_degree`` is -1 exactly when g = 0
    (radial f), and ``vanishes_at_infinity`` marks a double root of g in
    the x2 = 0 direction.
    """

    on_locus: bool
    certificate: str
    gcd_degree: int
    gcd: tuple[float, ...] | None
    vanishes_at_infinity: bool


def build_witness_matrix(f: HomogeneousPolynomial, X, Y) -> np.ndarray:
    """Witness matrices, shape (k, m, 2n, 3), at the rows x of X, shape
    (k, n), each with its m directions y in Y, shape (k, m, n): columns
    (grad f(x); hess f(x) y), (x; y) and (0; x).  n = 1 has no tangent
    directions, so there only m = 0 is accepted."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    G = f.gradient_many(X)  # rejects X unless its shape is (k, n)
    k, n = X.shape
    if Y.ndim != 3 or Y.shape[0] != k or Y.shape[2] != n:
        raise ValueError(f"Y must have shape ({k}, m, {n}), got {Y.shape}")
    if n == 1 and Y.shape[1]:
        raise ValueError("n = 1 has no tangent directions")
    if not np.all(np.any(X, axis=1)):
        raise ValueError("rows of X must be nonzero")
    return _witness_matrices(X, G, f.hessian_many(X), Y)


def _witness_matrices(X: np.ndarray, G: np.ndarray, H: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The one assembly of :func:`build_witness_matrix`'s matrices from the
    points X, their gradients G and Hessians H, and the directions Y; an
    analysis's ``gradients`` and ``hessians`` give the same bits as its jets."""
    n = X.shape[1]
    W = np.zeros(Y.shape[:2] + (2 * n, 3))
    W[..., :n, 0] = G[:, None, :]
    W[..., n:, 0] = Y @ H
    W[..., :n, 1] = X[:, None, :]
    W[..., n:, 1] = Y
    W[..., n:, 2] = X[:, None, :]
    return W


def rank_deficient(f: HomogeneousPolynomial, W) -> np.ndarray:
    """Rank <= 2 of each witness matrix of f in W, shape (..., 2n, 3), at a unit
    critical point and unit tangent y: the singular values' product, |mu - lam|
    for an eigenvector y, is within ``scaled_tolerance(f, DEFAULT_TOL_CLASS)``."""
    sv = np.linalg.svd(np.asarray(W, dtype=np.float64), compute_uv=False)
    return sv.prod(axis=-1) <= scaled_tolerance(f, DEFAULT_TOL_CLASS)


def detect_sosc_failure(f: HomogeneousPolynomial, x) -> DegeneracyWitness | None:
    """Search for a degeneracy witness at a critical point.

    Returns None when the SOSC margin is strictly positive beyond tolerance
    (no witness exists) and also when the margin is negative beyond
    tolerance (the point fails the SONC outright, so it is not on the
    degenerate locus).  Raises :class:`NotCriticalError` when x does not
    satisfy the FONC, since the rank characterization presumes a critical
    point.

    The witness direction is the eigenvector of the smallest tangent
    eigenvalue, normalized to unit length; mu is recovered by the
    one-dimensional least squares mu = x . (hess f(x) y - lam y), exact when
    the bordered system holds.
    """
    analysis = analyze_points(f, [x])
    verdict = analysis.verdicts[0]
    if verdict is Verdict.NOT_CRITICAL:
        raise NotCriticalError(
            f"FONC residual {analysis.residuals[0]:.6e} exceeds tolerance "
            f"{analysis.crit_tol:.6e}"
        )
    if verdict is not Verdict.SONC_DEGENERATE:
        return None  # SOSC (vacuously for n = 1) or SONC fails outright

    x = analysis.points[0].copy()
    lam = float(analysis.lam[0])
    H = analysis.hessians[0]
    y = analysis.eigenvectors[0, :, 0].copy()
    hy = H @ y
    mu = float(x @ (hy - lam * y))
    W = _witness_matrices(analysis.points, analysis.gradients, analysis.hessians, y[None, None])[0, 0]
    bordered_vec = np.concatenate([hy - lam * y - mu * x, [x @ y]])
    return DegeneracyWitness(
        x=x,
        y=y,
        mu=mu,
        lam=lam,
        rank_defect_measure=float(np.linalg.svd(W, compute_uv=False)[2]),
        bordered_residual=float(np.linalg.norm(bordered_vec)),
        bordered_det=float(bordered_determinants(f, x[None], analysis.lam[:1])[0]),
    )


def bordered_determinants(f: HomogeneousPolynomial, X, lam) -> np.ndarray:
    """det of the bordered matrix at each row of X with multiplier lam[i].

    Zero is necessary at degenerate points, not sufficient: a vanishing
    determinant does not by itself certify one.  The matrix is built from
    one ``hessian_many`` call, its diagonal H_ii - lam rounded once, so the
    determinant does not depend on how a GEMM sums the Newton Jacobian.
    """
    X = np.asarray(X, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != X.shape[:1]:
        raise ValueError(f"lam must have shape {X.shape[:1]}, got {lam.shape}")
    H = f.hessian_many(X)  # rejects X unless its shape is (k, n)
    k, n = X.shape
    M = np.zeros((k, n + 1, n + 1))
    M[:, :n, :n] = H
    M.reshape(k, (n + 1) ** 2)[:, : n * (n + 2) : n + 2] -= lam[:, None]
    M[:, :n, n] = X
    M[:, n, :n] = X
    return np.linalg.det(M)


def _determinant_zero_bound(gaps, tol) -> np.ndarray:
    """Largest |det| that vanishes for bordered determinants with factors
    mu_i - lam in ``gaps``, shape (..., n - 1): tol times the n - 2 largest
    |factors|, each at least tol, so the factor det leaves is within +-tol."""
    return tol * np.sort(np.maximum(np.abs(gaps), tol), axis=-1)[..., 1:].prod(axis=-1)


def quadratic_degeneracy(A) -> QuadraticDegeneracy:
    """Degeneracy rule for f = x^T A x / 2: least eigenvalue not simple.

    Symmetric eigenvalues are perfectly conditioned, so the multiplicity
    decision uses the tight threshold ``DEFAULT_TOL_EIG`` * ||A||_F.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise ValueError(f"A must be square and nonempty, got shape {A.shape}")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.linalg.norm(A))):
        raise ValueError("A must be symmetric")
    w = np.linalg.eigvalsh(A)
    tol = DEFAULT_TOL_EIG * np.linalg.norm(A)
    multiplicity = int(np.count_nonzero(w - w[0] <= tol))
    return QuadraticDegeneracy(degenerate=multiplicity >= 2, lambda1_multiplicity=multiplicity)


# ---------------------------------------------------------------------------
# Exact n = 2 oracle: the repeated roots of the integer g of :mod:`spherecrit._intpoly`.
# ---------------------------------------------------------------------------


def exact_oracle_n2(f: HomogeneousPolynomial) -> OracleResult:
    """Exact membership test for the complex degeneracy locus at n = 2.

    A critical direction is degenerate exactly when it is a repeated
    projective root of g = x2 f1 - x1 f2.  The finite ones are the roots of
    the primitive-PRS gcd(g, dg/dt) of the dehomogenized integer g; the
    x2 = 0 direction is a double root when g misses both x1^d and x1^(d-1).
    """
    _reject_zero(f)
    if f.n != 2:
        raise ValueError(f"exact oracle needs n = 2, got n = {f.n}")
    g, h = _critical_form(f)
    if not g:
        return OracleResult(
            on_locus=True,
            certificate="g vanishes identically; every direction is critical and degenerate",
            gcd_degree=-1,
            gcd=None,
            vanishes_at_infinity=True,
        )

    gcd_degree = len(h) - 1
    vanishes_at_infinity = len(g) < f.d  # g misses x1^d and x1^(d-1)
    if gcd_degree >= 1 and vanishes_at_infinity:
        certificate = (
            f"g has a repeated factor of degree {gcd_degree} and a double root at infinity"
        )
    elif gcd_degree >= 1:
        certificate = (
            f"g has a repeated factor of degree {gcd_degree}; its roots are degenerate directions"
        )
    elif vanishes_at_infinity:
        certificate = "g has a double root at infinity (x2 = 0 direction)"
    else:
        certificate = (
            "g is square-free and has at most a simple root at infinity; "
            "no degenerate direction, real or complex"
        )
    return OracleResult(
        on_locus=gcd_degree >= 1 or vanishes_at_infinity,
        certificate=certificate,
        gcd_degree=gcd_degree,
        gcd=tuple(c / h[-1] for c in h) if gcd_degree >= 1 else None,
        vanishes_at_infinity=vanishes_at_infinity,
    )
