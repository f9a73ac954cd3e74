"""Degeneracy detection: SONC points of the sphere problem where SOSC fails.

For generic objectives the degenerate locus is empty, so reliable detection
needs more than one signal.  Three characterizations are implemented and
kept deliberately separate:

1. Rank witness.  At a critical point x with multiplier lam, SOSC failure
   at an SONC point is equivalent to the existence of a nonzero y with
   y.x = 0 making the 2n x 3 block matrix

       [ grad f(x)       x   0 ]
       [ hess f(x) y     y   x ]

   rank deficient (rank <= 2).  :func:`detect_sosc_failure` takes y from the
   bottom tangent eigenvector and measures deficiency via the third singular
   value.  Conversely, any pair (x, y) satisfying the rank condition forces
   the FONC to hold at x while the SOSC fails, so a returned witness can be
   re-validated from (x, y) alone.

2. Bordered determinant.  A witness (y, mu) solves
   hess f(x) y - lam y - mu x = 0 with y.x = 0, which makes the symmetric
   (n+1) x (n+1) bordered matrix [[hess f(x) - lam I, x], [x^T, 0]] singular.
   det = 0 is necessary for degeneracy, not sufficient, and is reported as a
   corroborating signal only (:func:`bordered_determinants`, and
   ``bordered_det`` of a witness).

3. Exact n = 2 oracle.  For binary forms the constraint y.x = 0 pins
   y = (x2, -x1) up to scale (over the complex numbers too), so the rank
   condition reduces to four binary forms of degree d + 1, the 3 x 3 minors,
   sharing a common nonzero complex root.  The minors have the closed form
   x1 g, x2 g, |x|^2 f1 - x1 q and |x|^2 f2 - x2 q, with g = x2 f1 - x1 f2
   the binary form whose roots are the critical directions and
   q = y^T hess f(x) y.  Common roots are decided exactly with
   rational arithmetic: float coefficients are binary rationals, so
   Fraction-based GCD of the dehomogenized minors (plus a common-root check
   in the x2 = 0 direction) gives a tolerance-free membership test for the
   complex degeneracy locus.  A real degenerate point forces membership; the
   converse can fail (complex-only witnesses), so oracle verdict and numeric
   detection are always reported side by side, never merged.

The d = 2 specialization is :func:`quadratic_degeneracy`: for f = x^T A x / 2
some SONC point is degenerate exactly when the least eigenvalue of A is not
simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classify import (
    DEFAULT_TOL_CLASS,
    PointAnalysis,
    Verdict,
    analyze_points,
)
from .critsolve import (
    DEFAULT_TOL_CRIT,
    _binary_form,
    _partials,
    _reject_zero,
)
from .polyhom import HomogeneousPolynomial

__all__ = [
    "WitnessMatrix",
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
    "witness_to_dict",
]

DEFAULT_TOL_RANK = 1e-6
DEFAULT_TOL_DET = 1e-8
DEFAULT_TOL_EIG = 1e-8


class NotCriticalError(ValueError):
    """The queried point does not satisfy the FONC to tolerance."""


@dataclass
class WitnessMatrix:
    """The 2n x 3 rank-test matrix and its singular values (descending)."""

    matrix: np.ndarray
    singular_values: np.ndarray


@dataclass
class DegeneracyWitness:
    """A tangent direction y certifying SOSC failure at the critical point x.

    ``mu`` is the multiplier with hess f(x) y - lam y = mu x;
    ``rank_defect_measure`` is the third singular value of the witness
    matrix; ``bordered_residual`` is the norm of
    (hess f(x) y - lam y - mu x, y.x); ``bordered_scale`` is the magnitude
    scale (1 + ||hess f(x)||_F + |lam|)^(n+1) that near-zero tests of
    ``bordered_det`` compare against, since the determinant grows like a
    product of row norms.
    """

    x: np.ndarray
    y: np.ndarray
    mu: float
    lam: float
    rank_defect_measure: float
    bordered_residual: float
    bordered_det: float
    bordered_scale: float


@dataclass
class QuadraticDegeneracy:
    degenerate: bool
    lambda1_multiplicity: int


@dataclass
class OracleResult:
    """Exact complex-locus membership for n = 2.

    ``on_locus`` is True when a nonzero complex pair (x, y), y.x = 0, makes
    the witness matrix rank deficient.  ``gcd`` holds the monic common
    factor of the dehomogenized minors (float view of exact rationals) when
    its degree is at least one.
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


def build_witness_matrix(f: HomogeneousPolynomial, x, y) -> WitnessMatrix:
    """Assemble the 2n x 3 matrix with columns (grad f; hess f y), (x; y), (0; x)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = f.n
    if x.shape != (n,) or y.shape != (n,):
        raise ValueError(f"x and y must have shape ({n},), got {x.shape} and {y.shape}")
    if not np.any(x):
        raise ValueError("x must be nonzero")
    W = _witness_matrices(f.gradient(x), f.hessian(x), x, y[None, :])[0]
    return WitnessMatrix(matrix=W, singular_values=np.linalg.svd(W, compute_uv=False))


def rank_deficient(wm: WitnessMatrix) -> bool:
    """Numerical rank <= 2 decision: third singular value at most
    ``DEFAULT_TOL_RANK`` times the first."""
    sv = wm.singular_values
    return bool(sv[2] <= DEFAULT_TOL_RANK * sv[0])


def detect_sosc_failure(
    f: HomogeneousPolynomial,
    x,
    *,
    tol_crit: float = DEFAULT_TOL_CRIT,
    tol_class: float = DEFAULT_TOL_CLASS,
) -> DegeneracyWitness | None:
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
    return _witness_at(analyze_points(f, [x], tol_crit=tol_crit, tol_class=tol_class))


def _witness_at(analysis: PointAnalysis) -> DegeneracyWitness | None:
    """:func:`detect_sosc_failure` at the single row of ``analysis``."""
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
    M, scale = _bordered(analysis.hessians[:1], analysis.points[:1], analysis.lam[:1])
    return DegeneracyWitness(
        x=x,
        y=y,
        mu=mu,
        lam=lam,
        rank_defect_measure=float(np.linalg.svd(W, compute_uv=False)[2]),
        bordered_residual=float(np.linalg.norm(bordered_vec)),
        bordered_det=float(np.linalg.det(M)[0]),
        bordered_scale=float(scale[0]),
    )


def _bordered(H: np.ndarray, X: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bordered matrices [[H - lam I, x], [x^T, 0]], one per row x of X, and
    their magnitude scales (1 + ||H||_F + |lam|)^(n+1).

    H has shape (k, n, n), X (k, n) and lam (k,); the matrices have shape
    (k, n+1, n+1).  The Frobenius norms are BLAS dot products, so each
    equals ``np.linalg.norm`` of its own matrix bit for bit.
    """
    k, n = X.shape
    M = np.zeros((k, n + 1, n + 1))
    M[:, :n, :n] = H - lam[:, None, None] * np.eye(n)
    M[:, :n, n] = X
    M[:, n, :n] = X
    h = H.reshape(k, 1, n * n)
    frobenius = np.sqrt(h @ h.swapaxes(1, 2))[:, 0, 0]
    return M, (1.0 + frobenius + np.abs(lam)) ** (n + 1)


def bordered_determinants(f: HomogeneousPolynomial, X, lam) -> np.ndarray:
    """det of the bordered matrix at each row of X with multiplier lam[i].

    Zero is necessary at degenerate points, not sufficient: a vanishing
    determinant does not by itself certify a degenerate point.
    """
    X = np.asarray(X, dtype=np.float64)
    H = f.hessian_many(X)  # rejects X unless its shape is (k, n)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != X.shape[:1]:
        raise ValueError(f"lam must have shape ({X.shape[0]},), got {lam.shape}")
    return np.linalg.det(_bordered(H, X, lam)[0])


def quadratic_degeneracy(A) -> QuadraticDegeneracy:
    """Degeneracy rule for f = x^T A x / 2: least eigenvalue not simple.

    Symmetric eigenvalues are perfectly conditioned, so the multiplicity
    decision uses the tight threshold ``DEFAULT_TOL_EIG`` * ||A||_F.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.linalg.norm(A))):
        raise ValueError("A must be symmetric")
    w = np.linalg.eigvalsh(A)
    tol = DEFAULT_TOL_EIG * np.linalg.norm(A)
    multiplicity = int(np.count_nonzero(w - w[0] <= tol))
    return QuadraticDegeneracy(degenerate=multiplicity >= 2, lambda1_multiplicity=multiplicity)


def witness_to_dict(f: HomogeneousPolynomial, witness: DegeneracyWitness) -> dict:
    """JSON-ready view of a witness; adds the exact oracle verdict for n = 2."""
    payload = {
        "x": [float(v) for v in witness.x],
        "y": [float(v) for v in witness.y],
        "mu": witness.mu,
        "lambda": witness.lam,
        "third_singular_value": witness.rank_defect_measure,
        "bordered_det": witness.bordered_det,
    }
    if f.n == 2:
        payload["oracle_on_locus"] = exact_oracle_n2(f).on_locus
    return payload


# ---------------------------------------------------------------------------
# Exact n = 2 oracle: binary-form minors and rational GCD.
#
# Binary forms of degree k are coefficient lists of length k + 1 over
# Fraction, index i holding the coefficient of x1^i x2^(k-i).  The same list
# read as a univariate polynomial in t = x1 is the dehomogenization at
# x2 = 1, which is what the Euclidean algorithm runs on.
# ---------------------------------------------------------------------------


def _strip(p: list[Fraction]) -> list[Fraction]:
    k = len(p)
    while k and p[k - 1] == 0:
        k -= 1
    return p[:k]


def _poly_mod(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
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


def _poly_gcd(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
    u, v = _strip(u), _strip(v)
    while v:
        u, v = v, _strip(_poly_mod(u, v))
        # Monic normalization keeps the rationals from ballooning.
        lead = u[-1]
        if lead != 1:
            u = [c / lead for c in u]
    if u:
        lead = u[-1]
        u = [c / lead for c in u]
    return u


def _witness_minor_forms(f: HomogeneousPolynomial) -> list[list[Fraction]]:
    """The four 3x3 minors of the witness matrix with y = (x2, -x1).

    With g = x2 f1 - x1 f2 and q = y^T hess f y = x2^2 f11 - 2 x1 x2 f12 +
    x1^2 f22, expanding along the third column gives the minors of rows
    (1,2,3) and (1,2,4) as x1 g and x2 g, and expanding along the first row
    gives rows (1,3,4) and (2,3,4) as |x|^2 f1 - x1 q and |x|^2 f2 - x2 q.
    Each is a binary form of degree d + 1 with exactly rational coefficients
    (floats are binary rationals).
    """
    g, f1, f2 = _binary_form(f, Fraction)
    f11, f12 = _partials(f1)
    f22 = _partials(f2)[1]
    z = [Fraction(0)]  # multiplying by x1 prepends a zero, by x2 appends one
    q = [u - 2 * v + w for u, v, w in zip(f11 + z + z, z + f12 + z, z + z + f22)]
    return [
        z + g,
        g + z,
        [u + v - w for u, v, w in zip(z + z + f1, f1 + z + z, z + q)],
        [u + v - w for u, v, w in zip(z + z + f2, f2 + z + z, q + z)],
    ]


def exact_oracle_n2(f: HomogeneousPolynomial) -> OracleResult:
    """Exact membership test for the complex degeneracy locus at n = 2.

    Over the complex numbers the solutions of y.x = 0 with x != 0 form the
    single direction y = (x2, -x1) up to scale, so a nonzero witness pair
    exists exactly when the four 3x3 minors of the witness matrix, binary
    forms of degree d + 1, share a common projective root.  The decision is
    a rational-arithmetic GCD of the dehomogenized minors, plus a shared
    root at infinity when every minor misses the x1^(d+1) monomial.
    """
    _reject_zero(f)
    if f.n != 2:
        raise ValueError(f"exact oracle needs n = 2, got n = {f.n}")
    minors = _witness_minor_forms(f)
    stripped = [_strip(m) for m in minors]
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

    top = f.d + 1  # coefficient index of x1^(d+1)
    vanishes_at_infinity = all(len(m) <= top for m in stripped)

    g = nonzero[0]
    for m in nonzero[1:]:
        g = _poly_gcd(g, m)
        if len(g) == 1:
            break
    gcd_degree = len(g) - 1
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
        gcd=tuple(float(c) for c in g) if gcd_degree >= 1 else None,
        vanishes_at_infinity=vanishes_at_infinity,
        minors_all_zero=False,
    )
