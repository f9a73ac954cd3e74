"""Degeneracy detection: SONC points of the sphere problem where SOSC fails.

For generic objectives the degenerate locus is empty, so reliable detection
needs more than one signal.  Three characterizations are implemented and
kept deliberately separate:

1. Rank witness.  At a critical point x with multiplier lam, SOSC failure
   at an SONC point is equivalent to the existence of a nonzero y with
   y.x = 0 making the 2n x 3 block matrix

       [ grad f(x)       x   0 ]
       [ hess f(x) y     y   x ]

   rank deficient (rank <= 2), which :func:`rank_deficient` decides for the
   batches of :func:`build_witness_matrix`.  :func:`detect_sosc_failure`
   takes y from the bottom tangent eigenvector.  Conversely, any pair (x, y)
   satisfying the rank condition forces the FONC to hold at x while the SOSC
   fails, so a returned witness can be re-validated from (x, y) alone.

2. Bordered determinant.  A witness (y, mu) solves
   hess f(x) y - lam y - mu x = 0 with y.x = 0, which makes the symmetric
   (n+1) x (n+1) bordered matrix [[hess f(x) - lam I, x], [x^T, 0]] singular:
   the Newton Jacobian of :mod:`spherecrit.critsolve` with its lam column
   negated.  det = 0 is necessary for degeneracy, not sufficient, and is
   reported as a corroborating signal only (:func:`bordered_determinants`,
   and ``bordered_det`` of a witness).  It counts as zero when
   |det| <= ``scaled_tolerance(f, DEFAULT_TOL_DET)``, and nowhere else.

3. Exact n = 2 oracle.  For binary forms the constraint y.x = 0 pins
   y = (x2, -x1) up to scale (over the complex numbers too), so the rank
   condition reduces to four binary forms of degree d + 1, the 3 x 3 minors,
   sharing a common nonzero complex root.  The minors have the closed form
   x1 g, x2 g, |x|^2 f1 - x1 q and |x|^2 f2 - x2 q, with g = x2 f1 - x1 f2
   the binary form whose roots are the critical directions and
   q = y^T hess f(x) y.  Common roots are decided exactly over the
   integers: every float coefficient is m 2^e, so scaling f by the common
   power-of-two denominator of its coefficients gives integer minors, and a
   primitive polynomial remainder sequence (pseudo-remainders with the
   content divided out) computes the GCD of their dehomogenizations, in
   :mod:`spherecrit._intpoly`, where the n = 2 enumeration of
   :mod:`spherecrit.critsolve` builds the same g.  With a common-root check
   in the x2 = 0 direction this is a tolerance-free membership test for the
   complex degeneracy locus.  A real degenerate point forces membership; the
   converse can fail (complex-only witnesses), so oracle verdict and numeric
   detection are always reported side by side, never merged.

The d = 2 specialization is :func:`quadratic_degeneracy`: for f = x^T A x / 2
some SONC point is degenerate exactly when the least eigenvalue of A is not
simple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import Verdict, analyze_points
from ._intpoly import _primitive, _prs_gcd, _strip, _witness_minor_forms
from .critsolve import _reject_zero, _system_jacobian
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

DEFAULT_TOL_RANK = 1e-6
DEFAULT_TOL_DET = 1e-6
DEFAULT_TOL_EIG = 1e-8


class NotCriticalError(ValueError):
    """The queried point does not satisfy the FONC to tolerance."""


@dataclass
class DegeneracyWitness:
    """A tangent direction y certifying SOSC failure at the critical point x.

    ``mu`` is the multiplier with hess f(x) y - lam y = mu x;
    ``rank_defect_measure`` is the third singular value of the witness
    matrix; ``bordered_residual`` is the norm of
    (hess f(x) y - lam y - mu x, y.x); ``bordered_det`` is the determinant
    of the bordered matrix, which vanishes when it is at most
    ``scaled_tolerance(f, DEFAULT_TOL_DET)`` in magnitude.
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

    ``on_locus`` is True when a nonzero complex pair (x, y), y.x = 0, makes
    the witness matrix rank deficient.  ``gcd`` holds the monic common
    factor of the dehomogenized minors when its degree is at least one: the
    primitive integer GCD h with each coefficient divided by the leading one,
    correctly rounded to float.
    """

    on_locus: bool
    certificate: str
    gcd_degree: int
    gcd: tuple[float, ...] | None
    vanishes_at_infinity: bool
    minors_all_zero: bool


def _witness_matrices(g, H, x, Y) -> np.ndarray:
    """Witness matrices at x, one per row y of Y: columns (g; H y), (x; y), (0; x).

    g and x have shape (..., n), the symmetric H (..., n, n) and Y
    (..., m, n); the result has shape (..., m, 2n, 3).
    """
    n = x.shape[-1]
    W = np.zeros(Y.shape[:-1] + (2 * n, 3))
    W[..., :n, 0] = g[..., None, :]
    W[..., n:, 0] = Y @ H
    W[..., :n, 1] = x[..., None, :]
    W[..., n:, 1] = Y
    W[..., n:, 2] = x[..., None, :]
    return W


def build_witness_matrix(f: HomogeneousPolynomial, X, Y) -> np.ndarray:
    """Witness matrices, shape (k, m, 2n, 3), at the rows x of X, shape
    (k, n), each with its m directions y in Y, shape (k, m, n).  n = 1 has
    no tangent directions, so there only m = 0 is accepted."""
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
    return _witness_matrices(G, f.hessian_many(X), X, Y)


def rank_deficient(W) -> np.ndarray:
    """Numerical rank <= 2 of each witness matrix in W, shape (..., 2n, 3):
    third (last) singular value at most ``DEFAULT_TOL_RANK`` times the first."""
    sv = np.linalg.svd(np.asarray(W, dtype=np.float64), compute_uv=False)
    return sv[..., -1] <= DEFAULT_TOL_RANK * sv[..., 0]


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
    W = _witness_matrices(analysis.gradients[0], H, x, y[None, :])[0]
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

    A determinant vanishes when |det| <= ``scaled_tolerance(f,
    DEFAULT_TOL_DET)``.  Zero is necessary at degenerate points, not
    sufficient: a vanishing determinant does not by itself certify one.
    It is 0.0 minus det of the Newton Jacobian, so an exact zero reads +0.0.
    """
    X = np.asarray(X, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != X.shape[:1]:
        raise ValueError(f"lam must have shape {X.shape[:1]}, got {lam.shape}")
    return 0.0 - np.linalg.det(_system_jacobian(f, X, lam))


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
# Exact n = 2 oracle: the GCD of the integer minors of :mod:`spherecrit._intpoly`.
# ---------------------------------------------------------------------------


def exact_oracle_n2(f: HomogeneousPolynomial) -> OracleResult:
    """Exact membership test for the complex degeneracy locus at n = 2.

    Over the complex numbers the solutions of y.x = 0 with x != 0 form the
    single direction y = (x2, -x1) up to scale, so a nonzero witness pair
    exists exactly when the four 3x3 minors of the witness matrix, binary
    forms of degree d + 1, share a common projective root.  The decision is
    a primitive-PRS GCD of the dehomogenized integer minors, plus a shared
    root at infinity when every minor misses the x1^(d+1) monomial.
    """
    _reject_zero(f)
    if f.n != 2:
        raise ValueError(f"exact oracle needs n = 2, got n = {f.n}")
    minors = _witness_minor_forms(f)
    stripped = [_strip(m) for m in minors]

    if not any(stripped):
        return OracleResult(
            on_locus=True,
            certificate="all 3x3 minors vanish identically; every nonzero x admits a witness",
            gcd_degree=-1,
            gcd=None,
            vanishes_at_infinity=True,
            minors_all_zero=True,
        )

    top = f.d + 1  # coefficient index of x1^(d+1)
    vanishes_at_infinity = all(len(m) <= top for m in stripped)

    # Minor 1 is t times minor 2, so the GCD starts from minor 2.
    h: list[int] = []
    for m in stripped[1:]:
        if m:
            h = _prs_gcd(h, _primitive(m))
            if len(h) == 1:
                break
    gcd_degree = len(h) - 1
    on_locus = gcd_degree >= 1 or vanishes_at_infinity

    if gcd_degree >= 1 and vanishes_at_infinity:
        certificate = (
            f"minors share a degree-{gcd_degree} factor and a common zero at infinity"
        )
    elif gcd_degree >= 1:
        certificate = (
            f"minors share a degree-{gcd_degree} factor; its roots are witness directions"
        )
    elif vanishes_at_infinity:
        certificate = "minors share the zero (1, 0) at infinity (x2 = 0 direction)"
    else:
        certificate = (
            "minors are coprime and do not all vanish at x2 = 0; "
            "no nonzero complex witness pair exists"
        )
    return OracleResult(
        on_locus=on_locus,
        certificate=certificate,
        gcd_degree=gcd_degree,
        gcd=tuple(c / h[-1] for c in h) if gcd_degree >= 1 else None,
        vanishes_at_infinity=vanishes_at_infinity,
        minors_all_zero=False,
    )
