"""First and second order optimality status of sphere points.

At a unit vector x, feasible directions are the tangent space x-perp.  With
lam = d f(x) (the exact multiplier at critical points, by Euler's identity)
the second-order behaviour is read off the spectrum of B^T hess f(x) B where
the columns of B are an orthonormal tangent basis:

* every tangent eigenvalue  > lam  ->  SOSC, x is a strict local minimizer;
* smallest tangent eigenvalue == lam (within tolerance) -> SONC holds but
  SOSC fails, the degenerate case this package exists to detect;
* some tangent eigenvalue  < lam  ->  FONC_ONLY, x is not a local minimizer.

Points whose FONC residual ||grad f(x) - lam x|| exceeds tolerance are
classified NOT_CRITICAL.  For n = 1 the tangent space is empty and every
critical point is vacuously SOSC.

:func:`analyze_points` does this analysis for a whole batch of points at
once; :func:`classify_point` is its one-row verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
# The gufunc behind np.linalg.eigh, called directly to skip the wrapper's
# per-call cost; its LinAlgError cannot fire on the finite, bounded
# tangent matrices of checked unit rows.
from numpy.linalg import _umath_linalg

from .critsolve import (
    DEFAULT_TOL_CRIT,
    CriticalPair,
    SolverConfig,
    _reject_zero,
    find_critical_pairs,
    scaled_tolerance,
)
from .polyhom import HomogeneousPolynomial

__all__ = [
    "Verdict",
    "ClassifiedPoint",
    "PointAnalysis",
    "analyze_points",
    "classify_point",
    "classify_all",
]

DEFAULT_TOL_CLASS = 1e-7
UNIT_NORM_TOL = 1e-10


class Verdict(str, enum.Enum):
    NOT_CRITICAL = "NOT_CRITICAL"
    FONC_ONLY = "FONC_ONLY"
    SONC_DEGENERATE = "SONC_DEGENERATE"
    SOSC = "SOSC"


@dataclass
class ClassifiedPoint:
    """A point with its verdict; ``tangent_eigenvalues`` are the eigenvalues
    of B^T hess f(x) B, ascending (empty for n = 1)."""

    pair: CriticalPair
    tangent_eigenvalues: np.ndarray
    sosc_margin: float
    verdict: Verdict


@dataclass
class PointAnalysis:
    """First and second order data at k unit vectors, one row per point.

    ``points`` (k, n), ``lam`` = d f(x), ``gradients`` (k, n), ``residuals``
    = ||grad f(x) - lam x|| and ``hessians`` are row-aligned with
    ``verdicts``; k = 0 keeps the trailing shapes.  :meth:`classified` builds
    the per-point objects.
    ``eigenvalues`` (k, n-1, ascending) and ``eigenvectors`` (k, n, n-1, unit
    columns in ambient coordinates) are the eigenpairs of B^T hess f(x) B.
    ``margins`` is the smallest tangent eigenvalue minus lam, inf for n = 1.
    ``crit_tol`` and ``class_tol`` are the absolute residual and margin
    thresholds the verdicts applied.
    """

    points: np.ndarray
    lam: np.ndarray
    gradients: np.ndarray
    residuals: np.ndarray
    hessians: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    margins: np.ndarray
    verdicts: list[Verdict]
    crit_tol: float
    class_tol: float

    def classified(self) -> list[ClassifiedPoint]:
        """One :class:`ClassifiedPoint` per row."""
        pairs = zip(self.points.copy(), self.lam.tolist())
        rows = zip(self.eigenvalues, self.margins.tolist(), self.verdicts)
        return [ClassifiedPoint(CriticalPair(*p), *row) for p, row in zip(pairs, rows)]


def _tangent_bases(X: np.ndarray) -> np.ndarray:
    """Householder bases of the tangent spaces at the rows of X, (k, n, n-1):
    the reflection sending e1 onto the line through x, minus its first column."""
    n = X.shape[1]
    nrm = np.sqrt(np.add.reduce(X * X, axis=1))
    V = X.copy()
    V[:, 0] += np.where(X[:, 0] >= 0, nrm, -nrm)
    scale = 2.0 / np.einsum("ij,ij->i", V, V)
    return np.eye(n)[:, 1:] - scale[:, None, None] * (V[:, :, None] * V[:, None, 1:])


def analyze_points(f: HomogeneousPolynomial, X) -> PointAnalysis:
    """First and second order analysis of every row of X in one batch.

    Rows must be unit vectors.  :func:`scaled_tolerance` turns the base
    tolerances ``DEFAULT_TOL_CRIT`` and ``DEFAULT_TOL_CLASS`` into the
    absolute ``crit_tol`` and ``class_tol`` of the result.
    The margin tolerance is two orders looser than the residual one because
    second-order quantities amplify solver error.  The degenerate band is
    two-sided: a margin within +-class_tol of zero is reported
    SONC_DEGENERATE even when slightly negative, which is the conservative
    choice for detecting a measure-zero locus.
    """
    _reject_zero(f)
    X = np.asarray(X, dtype=np.float64)
    lam = f.d * f.evaluate_many(X)  # rejects X unless its shape is (k, n)
    norms = np.sqrt(np.add.reduce(X * X, axis=1))
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))  # NaN-safe
    if off.size:
        raise ValueError(f"point must lie on the unit sphere, got norm {norms[off[0]]!r}")
    crit_tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
    class_tol = scaled_tolerance(f, DEFAULT_TOL_CLASS)

    G = f.gradient_many(X)
    R = G - lam[:, None] * X
    residuals = np.sqrt(np.add.reduce(R * R, axis=1))
    H = f.hessian_many(X)
    B = _tangent_bases(X)
    M = B.swapaxes(1, 2) @ H @ B
    eigenvalues, V = _umath_linalg.eigh_lo(0.5 * (M + M.swapaxes(1, 2)), signature="d->dd")
    Y = B @ V
    Y /= np.sqrt(np.add.reduce(Y * Y, axis=1, keepdims=True))
    margins = np.full(X.shape[0], np.inf) if f.n == 1 else eigenvalues[:, 0] - lam

    verdicts = [
        Verdict.NOT_CRITICAL if r > crit_tol
        else Verdict.SOSC if m > class_tol
        else Verdict.SONC_DEGENERATE if m >= -class_tol
        else Verdict.FONC_ONLY
        for r, m in zip(residuals.tolist(), margins.tolist())
    ]
    return PointAnalysis(
        points=X,
        lam=lam,
        gradients=G,
        residuals=residuals,
        hessians=H,
        eigenvalues=eigenvalues,
        eigenvectors=Y,
        margins=margins,
        verdicts=verdicts,
        crit_tol=crit_tol,
        class_tol=class_tol,
    )


def classify_point(f: HomogeneousPolynomial, x) -> ClassifiedPoint:
    """Verdict for one unit vector, with margins, at the thresholds of
    :func:`analyze_points`."""
    return analyze_points(f, [x]).classified()[0]


def classify_all(
    f: HomogeneousPolynomial, config: SolverConfig | None = None
) -> list[ClassifiedPoint]:
    """Find critical pairs by multistart Newton and classify each of them."""
    return analyze_points(f, find_critical_pairs(f, config).X).classified()
