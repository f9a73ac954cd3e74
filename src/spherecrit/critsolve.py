"""Critical pairs of a homogeneous polynomial on the unit sphere.

A critical pair is a unit vector x together with a multiplier lam solving
grad f(x) = lam x.  By Euler's identity lam = d f(x) at every such point.
Two finders are provided:

* :func:`find_critical_pairs` runs multistart damped Newton on the square
  system F(x, lam) = (grad f(x) - lam x, (x.x - 1)/2) with the full
  (n+1) x (n+1) Jacobian.  It works for any n but offers only stochastic
  coverage for n >= 3.

* :func:`enumerate_critical_pairs_n2` is exact for n = 2: critical
  directions are the real projective roots of the degree-d binary form
  g = x2 * df/dx1 - x1 * df/dx2.  g is built over the integers from the
  exact coefficients of f, so three decisions take no tolerance: f is
  radial exactly when g = 0, the x2 = 0 direction is a root exactly when
  g's x1^d coefficient is zero (a root at infinity), and repeated roots
  are divided out through the primitive-PRS gcd(g, g').  The companion
  matrix of the square-free part of g(t, 1) gives the other candidates;
  only these are Newton-polished, so the returned set is the real
  critical set up to root-finding tolerance.

:func:`certify_against_oracle` cross-checks the two finders on the same
input, which is how multistart coverage is validated at n = 2.

All Newton starts for one solve are drawn up front from the configured seed
(row order fixed), so results are deterministic regardless of how the
independent per-start iterations would be scheduled.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .polyhom import HomogeneousPolynomial, ZeroPolynomialError

__all__ = [
    "CriticalPair",
    "CriticalSet",
    "SolverConfig",
    "CertificationReport",
    "scaled_tolerance",
    "find_critical_pairs",
    "enumerate_critical_pairs_n2",
    "certify_against_oracle",
]

DEFAULT_TOL_CRIT = 1e-9
DEFAULT_DEDUP_RADIUS = 1e-6
MAX_STARTS = 20000
MAX_ITERATIONS = 100  # Newton iterations per start
# Step halvings per Newton iteration.  Along a Newton step s,
# F(z + t s) ~ (1 - t) F(z) for small t, so a step of length 2^-4 or less
# keeps at least 94 % of the residual: a slow step by the MAX_SLOW_STEPS rule.
# A row that finds no decrease by 2^-4 is abandoned one slow iteration early.
MAX_HALVINGS = 4
MAX_SLOW_STEPS = 2  # consecutive slow iterations before a start is abandoned
LSTSQ_RCOND = 1e-10  # relative singular value cutoff of the multiple-root polish


def scaled_tolerance(f: HomogeneousPolynomial, base: float) -> float:
    """The absolute threshold of every test on f: base * max(1, coefficient norm).

    Residuals, margins and multipliers are linear in the coefficients of f,
    so each base tolerance scales with the coefficient norm, with a floor
    at norm 1.
    """
    return base * max(1.0, f.coefficient_norm)


@dataclass(frozen=True)
class CriticalPair:
    """A unit vector with multiplier satisfying grad f(x) = lam x to tolerance."""

    x: np.ndarray
    lam: float
    residual: float


@dataclass(frozen=True, eq=False)
class _PairView(Sequence):
    """Read-only :class:`CriticalPair` view of row-aligned arrays: its length
    reads them, and only indexing and iteration build pairs."""

    X: np.ndarray
    lam: np.ndarray
    residual: np.ndarray

    def __len__(self) -> int:
        return self.lam.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(_PairView(self.X[i], self.lam[i], self.residual[i]))
        return CriticalPair(self.X[i].copy(), float(self.lam[i]), float(self.residual[i]))

    def __iter__(self):
        rows = zip(self.X.copy(), self.lam.tolist(), self.residual.tolist())
        return (CriticalPair(x, lam, res) for x, lam, res in rows)


@dataclass
class CriticalSet:
    """Deduplicated critical pairs as arrays, plus solver bookkeeping.

    Row i of ``X`` (k, n) is a unit vector with multiplier ``lam[i]`` and
    FONC residual ``residual[i]`` = ||grad f(x) - lam x||.  Rows ascend by
    (lam, x1, ..., xn), lie more than ``DEFAULT_DEDUP_RADIUS`` apart, and
    come in exact antipodal pairs: with row (x, lam, r) the set holds
    (-x, (-1)^d lam, r) bitwise.  An empty set keeps ``X`` at (0, n).
    ``pairs`` views the rows as :class:`CriticalPair` objects.
    ``all_critical`` marks the radially symmetric n = 2 special case
    f = c (x1^2 + x2^2)^(d/2), where the whole circle is critical; the rows
    then hold the two antipodal representatives at the first axis.
    """

    X: np.ndarray
    lam: np.ndarray
    residual: np.ndarray
    starts_used: int
    converged_fraction: float
    all_critical: bool = False

    @property
    def pairs(self) -> Sequence[CriticalPair]:
        return _PairView(self.X, self.lam, self.residual)


@dataclass(frozen=True)
class SolverConfig:
    """Multistart Newton knobs: start count and seed.

    ``starts=None`` selects the default 50 * d * n, capped at 20000.
    Everything else is fixed by the solver, not configured: acceptance at
    ``scaled_tolerance(f, DEFAULT_TOL_CRIT)``, merging at
    ``DEFAULT_DEDUP_RADIUS``, and the iteration, step-halving and slow-step
    caps.
    """

    starts: int | None = None
    seed: int = 0


@dataclass
class CertificationReport:
    """Outcome of cross-checking multistart against the exact n = 2 oracle."""

    certified: bool
    all_critical: bool
    matched: int
    only_multistart: list[CriticalPair] = field(default_factory=list)
    only_oracle: list[CriticalPair] = field(default_factory=list)


def _reject_zero(f: HomogeneousPolynomial) -> None:
    if f.is_zero:
        raise ZeroPolynomialError(
            "zero polynomial rejected: every sphere point is a degenerate critical point"
        )


def _system_residual(f: HomogeneousPolynomial, X: np.ndarray, lam: np.ndarray) -> np.ndarray:
    n = f.n
    F = np.empty((X.shape[0], n + 1))
    F[:, :n] = f.gradient_many(X) - lam[:, None] * X
    F[:, n] = 0.5 * (np.einsum("ij,ij->i", X, X) - 1.0)
    return F


def _bordered(H: np.ndarray, X: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Bordered matrices [[H - lam I, x], [x^T, 0]], one per row x of X.

    H has shape (k, n, n), X (k, n) and lam (k,); the result has shape
    (k, n+1, n+1).  Its determinant is the bordered-determinant signal of
    :mod:`spherecrit.degeneracy`.
    """
    k, n = X.shape
    M = np.zeros((k, n + 1, n + 1))
    M[:, :n, :n] = H
    idx = np.arange(n)
    M[:, idx, idx] -= lam[:, None]
    M[:, :n, n] = X
    M[:, n, :n] = X
    return M


def _system_jacobian(f: HomogeneousPolynomial, X: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Jacobian of the critical-pair system: the bordered matrix with its lam
    column negated, so it is singular exactly where the bordered one is."""
    J = _bordered(f.hessian_many(X), X, lam)
    J[:, :-1, -1] = -X
    return J


def _solve_steps(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched linear solve; rows with a singular Jacobian are flagged, not raised.

    The whole batch is solved first.  Only when LAPACK rejects it are rows
    with a zero or non-finite determinant flagged unusable and the rest
    solved again; ``_newton_polish`` hands the flagged rows to its
    truncated-SVD polish.  ``det`` and ``solve`` factor the same matrices
    with the same LU, so the second solve meets no zero pivot.
    """
    bad = np.zeros(rhs.shape[0], dtype=bool)
    try:
        steps = np.linalg.solve(J, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        det = np.linalg.det(J)
        bad = ~np.isfinite(det) | (det == 0.0)
        J = np.where(bad[:, None, None], np.eye(rhs.shape[1]), J)
        steps = np.linalg.solve(J, rhs[..., None])[..., 0]
    usable = ~bad & np.isfinite(steps).all(axis=1)
    return steps, usable


def _lstsq_steps(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched truncated-SVD least-squares steps.

    Near-null Jacobian directions (manifolds of critical points, multiple
    roots) are dropped rather than amplified, so the step corrects only the
    well-determined components.
    """
    try:
        U, s, Vt = np.linalg.svd(J)
    except np.linalg.LinAlgError:
        return np.zeros_like(rhs), np.zeros(rhs.shape[0], dtype=bool)
    cutoff = LSTSQ_RCOND * s[:, :1]
    safe = np.where(s > 0.0, s, 1.0)
    sinv = np.where(s > cutoff, 1.0 / safe, 0.0)
    z = np.einsum("kms,km->ks", U, rhs) * sinv
    steps = np.einsum("ksm,ks->km", Vt, z)
    usable = np.isfinite(steps).all(axis=1)
    return steps, usable


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, the one norm kernel of the Newton loop."""
    return np.sqrt(np.einsum("...i,...i", A, A))


# One error state per solve: wild rows overflow, and the isfinite tests drop them.
@np.errstate(all="ignore")
def _newton_polish(
    f: HomogeneousPolynomial,
    X0: np.ndarray,
    lam0: np.ndarray,
    *,
    accept_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on the critical-pair system, batched over start rows.

    A row stops once its residual passes ``scaled_tolerance(f, 1e-13)``, or
    after ``MAX_ITERATIONS`` iterations.
    Each row takes the longest step 2^-k (k = 0 .. ``MAX_HALVINGS``, so down
    to 1/16) that strictly decreases its residual norm, as sequential
    halving would.  One residual call tests a block of step lengths for
    every row still looking, as many as fit in the start count, so a sparse
    straggler set scans all lengths in one call.  Rows that cannot decrease
    the residual at any of these lengths (a shorter step would be slow
    anyway), and rows whose residual fell by less than 10 % in each of the
    last ``MAX_SLOW_STEPS`` iterations, are abandoned.  Rows without a
    Newton step (a singular Jacobian, as at a degenerate critical point)
    leave the loop for the multiple-root polish, as do converged rows whose
    last accepted step left more than 10 % of the residual (linear
    convergence, or no step at all).  A row is converged exactly when its
    final residual is at most ``accept_tol``: no row's residual ever rises,
    and the stop tolerance lies below ``accept_tol``.
    Returns the final points, multipliers, and the converged mask.
    """
    n = f.n
    stop_tol = scaled_tolerance(f, 1e-13)
    Z = np.concatenate([np.asarray(X0, float), np.asarray(lam0, float)[:, None]], axis=1)
    size = Z.shape[0]
    F = _system_residual(f, Z[:, :n], Z[:, n])
    Fn = _row_norms(F)
    active = np.isfinite(Fn)
    singular = np.zeros(size, dtype=bool)
    linear = np.ones(size, dtype=bool)  # last accepted step kept > 10 % of the residual
    stalls = np.zeros(size, dtype=np.int64)

    for _ in range(MAX_ITERATIONS):
        active &= ~(Fn <= stop_tol)
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        J = _system_jacobian(f, Z[rows, :n], Z[rows, n])
        J[~np.isfinite(J)] = 0.0
        steps, usable = _solve_steps(J, -F[rows])
        singular[rows[~usable]] = True
        before = Fn[rows].copy()
        improved = np.zeros(rows.size, dtype=bool)
        trying = np.flatnonzero(usable)
        k = 0  # halvings already tried by every row still trying
        while trying.size and k <= MAX_HALVINGS:
            # Steps 2^-k .. 2^-(k+m-1) in one call of at most `size` rows.
            m = min(MAX_HALVINGS + 1 - k, max(1, size // trying.size))
            sub = rows[trying]
            trial = Z[sub] + np.ldexp(1.0, -np.arange(k, k + m))[:, None, None] * steps[trying]
            flat = trial.reshape(-1, n + 1)
            Ft = _system_residual(f, flat[:, :n], flat[:, n]).reshape(trial.shape)
            Ftn = _row_norms(Ft)
            ok = Ftn < Fn[sub]  # an active row's Fn is finite; NaN never compares below it
            hit = ok.any(axis=0)
            first = ok.argmax(axis=0)[hit], np.flatnonzero(hit)  # longest decreasing step
            acc = sub[hit]
            Z[acc] = trial[first]
            F[acc] = Ft[first]
            Fn[acc] = Ftn[first]
            improved[trying[hit]] = True
            trying = trying[~hit]
            k += m
        # Wandering rows shave off a sliver of residual per iteration without
        # converging (deep damping).  Genuine roots contract by at least half
        # per step even at multiple roots, so MAX_SLOW_STEPS near-unit ratios
        # in a row mark a start worth abandoning in favor of the remaining
        # oversampled ones.
        moved = rows[improved]
        slow = Fn[moved] > 0.9 * before[improved]
        linear[moved] = Fn[moved] > 0.1 * before[improved]
        stalls[moved[slow]] += 1
        stalls[moved[~slow]] = 0
        # Abandon the rows that could not decrease the residual and the
        # hopeless stallers.
        active[np.concatenate([rows[~improved], moved[stalls[moved] >= MAX_SLOW_STEPS]])] = False

    # Multiple-root polish.  Plain Newton converges only linearly to roots
    # with a singular Jacobian (critical points that are themselves
    # degenerate), stalling a few orders above machine precision, which is
    # enough to throw off second-order margins downstream, and takes no
    # step at all where the Jacobian is exactly singular.  Truncated
    # least-squares steps ignore the null directions (e.g. a whole circle of
    # critical points) and overshooting by the root multiplicity restores
    # fast convergence.  At a simple root the last Newton step cut the
    # residual more than tenfold, so only singular rows and converged rows
    # whose last step did not are polished.
    floor = scaled_tolerance(f, 1e-14)
    polish = np.flatnonzero((((Fn <= accept_tol) & linear) | singular) & (Fn > floor))
    for _ in range(8):
        if polish.size == 0:
            break
        J = _system_jacobian(f, Z[polish, :n], Z[polish, n])
        J[~np.isfinite(J)] = 0.0
        steps, usable = _lstsq_steps(J, -F[polish])
        Z0 = Z[polish]
        moved = np.zeros(polish.size, dtype=bool)
        for factor in (1.0, 2.0, 3.0):
            trial = Z0 + factor * steps
            Ft = _system_residual(f, trial[:, :n], trial[:, n])
            Ftn = _row_norms(Ft)
            better = usable & np.isfinite(Ftn) & (Ftn < Fn[polish])
            acc = polish[better]
            Z[acc] = trial[better]
            F[acc] = Ft[better]
            Fn[acc] = Ftn[better]
            moved |= better
        polish = polish[moved & (Fn[polish] > floor)]

    return Z[:, :n], Z[:, n], Fn <= accept_tol


def _projection_windows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate rows of X within ``DEFAULT_DEDUP_RADIUS`` of each row, by projection.

    |u.(a - b)| <= |a - b| for a unit vector u, so every row that near row i
    sits at positions lo[i] .. hi[i] - 1 of the returned order of X's
    projections, which lie within the radius (plus rounding slack) of u.X[i].
    u has nonzero entries, distinct in absolute value: it is the normal of
    no subsphere x_i = 0 or x_i = +-x_j, where constructed critical sets lie.
    """
    u = np.cos(np.arange(1.0, X.shape[1] + 1.0))
    u /= np.linalg.norm(u)
    c = X @ u
    order = np.argsort(c, kind="stable")
    p = c[order]
    width = DEFAULT_DEDUP_RADIUS + 1e-12
    return order, np.searchsorted(p, c - width, "left"), np.searchsorted(p, c + width, "right")


def _collect_pairs(
    f: HomogeneousPolynomial, X: np.ndarray, lam: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize, filter by residual ``tol``, mirror, and dedup at
    ``DEFAULT_DEDUP_RADIUS``.  Returns the rows of X, lam and the residual
    in :class:`CriticalSet` order, closed under the antipodal map exactly."""
    norms = np.linalg.norm(X, axis=1)
    keep = norms > 0.5
    X, lam = X[keep] / norms[keep, None], lam[keep]
    res = np.linalg.norm(f.gradient_many(X) - lam[:, None] * X, axis=1)
    keep = res <= tol
    X, lam, res = X[keep], lam[keep], res[keep]

    # x critical implies -x critical with lam * (-1)^d and the same residual,
    # so each row is followed by its mirror and the dedup runs once on both.
    X = np.stack([X, -X], axis=1).reshape(-1, f.n)
    lam = np.stack([lam, (-1.0) ** f.d * lam], axis=1).reshape(-1)
    res = np.repeat(res, 2)

    # Greedy dedup, tightest residual first: a row is kept unless an earlier
    # kept row lies within DEFAULT_DEDUP_RADIUS, so each kept row covers its
    # later neighbours in one vector test over its window.  A row alone in
    # its window has no neighbour: it is kept and covers nothing.  A row and
    # its mirror are adjacent in the stable order, and -y covers -x exactly
    # when y covers x (negation is exact), so both are kept or both covered.
    order = np.argsort(res, kind="stable")
    Xo = X[order]
    by_p, lo, hi = _projection_windows(Xo)
    covered = np.zeros(order.size, dtype=bool)
    pending = np.flatnonzero(hi - lo > 1)
    while pending.size:  # visits only uncovered rows: one per tight cluster
        i = pending[0]
        near = by_p[lo[i] : hi[i]]
        near = near[near > i]
        covered[near[np.linalg.norm(Xo[near] - Xo[i], axis=1) <= DEFAULT_DEDUP_RADIUS]] = True
        pending = pending[1:][~covered[pending[1:]]]
    kept = order[~covered]
    X, lam, res = X[kept], lam[kept], res[kept]
    # Ascending by (lam, x1, ..., xn); lexsort's last key is the primary one.
    order = np.lexsort((*X.T[::-1], lam))
    return X[order], lam[order], res[order]


def _solve_from(f: HomogeneousPolynomial, X0: np.ndarray) -> CriticalSet:
    """Newton-polish the unit start rows X0 and collect the converged pairs."""
    tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
    X, lam, ok = _newton_polish(f, X0, f.d * f.evaluate_many(X0), accept_tol=tol)
    rows = _collect_pairs(f, X[ok], lam[ok], tol)
    return CriticalSet(*rows, starts_used=X0.shape[0], converged_fraction=float(np.mean(ok)))


def find_critical_pairs(
    f: HomogeneousPolynomial, config: SolverConfig | None = None
) -> CriticalSet:
    """All critical pairs reachable by multistart Newton from uniform sphere starts.

    Non-converged starts are counted in ``converged_fraction``, not returned.
    Each returned pair has residual at most
    ``scaled_tolerance(f, DEFAULT_TOL_CRIT)``, and its bitwise mirror
    (-x, (-1)^d lam, same residual) is returned too.
    """
    cfg = config or SolverConfig()
    _reject_zero(f)
    n, d = f.n, f.d
    starts = cfg.starts if cfg.starts is not None else min(50 * d * n, MAX_STARTS)
    if starts < 1:
        raise ValueError(f"need at least one start, got {starts}")

    rng = np.random.default_rng(cfg.seed)
    X0 = rng.standard_normal((starts, n))
    norms = np.linalg.norm(X0, axis=1)
    norms[norms == 0.0] = 1.0
    X0 /= norms[:, None]
    return _solve_from(f, X0)


# ---------------------------------------------------------------------------
# Binary forms over the integers, shared with the oracle of degeneracy.  A
# form of degree k is a list of k + 1 coefficients, index i that of
# x1^i x2^(k-i); read in t = x1 it is the dehomogenization at x2 = 1, which
# the primitive remainder sequence runs on.
# ---------------------------------------------------------------------------


def _partials(a: list) -> tuple[list, list]:
    """d/dx1 and d/dx2 of a binary form; the first is also d/dt of its dehomogenization."""
    k = len(a) - 1
    return [(i + 1) * a[i + 1] for i in range(k)], [(k - i) * a[i] for i in range(k)]


def _binary_form(a: list) -> tuple[list, list, list]:
    """g = x2 * df/dx1 - x1 * df/dx2 and the partials df/dx1, df/dx2 (n = 2).

    ``a`` holds the coefficients of f, index i that of x1^i x2^(d-i), and the
    returned lists are indexed the same way, in the number type of ``a``.
    g vanishes exactly where the gradient is parallel to x, so its projective
    roots are the critical directions.  deg g = d unless g is identically
    zero (radially symmetric f).
    """
    f1, f2 = _partials(a)
    return [u - v for u, v in zip(f1 + [0], [0] + f2)], f1, f2


def _strip(p: list[int]) -> list[int]:
    k = len(p)
    while k and p[k - 1] == 0:
        k -= 1
    return p[:k]


def _primitive(p: list[int]) -> list[int]:
    """p (stripped, nonzero) over its content, leading coefficient positive."""
    c = math.gcd(*p)
    if p[-1] < 0:
        c = -c
    return [a // c for a in p]


def _prem(u: list[int], v: list[int]) -> list[int]:
    """Primitive part of the pseudo-remainder of u by v, [] when it is zero.

    Each step replaces u by lead(v) u - top(u) t^shift v, which cancels the
    top coefficient, so the remainder is u mod v over the rationals times a
    nonzero integer, which the primitive part drops.
    """
    lead = v[-1]
    shift = len(u) - len(v)
    while u and shift >= 0:
        top = u[-1]
        u = [lead * c for c in u[:-1]]
        for i, c in enumerate(v[:-1]):
            u[shift + i] -= top * c
        u = _strip(u)
        shift = len(u) - len(v)
    return _primitive(u) if u else []


def _prs_gcd(u: list[int], v: list[int]) -> list[int]:
    """Primitive GCD of the primitive polynomials u and v ([] is zero)."""
    while v:
        u, v = v, _prem(u, v)
    return u


def _integer_coefficients(f: HomogeneousPolynomial) -> list[int]:
    """Coefficients of the binary form f, index i that of x1^i x2^(d-i),
    times their common power-of-two denominator: exact integers."""
    ratios = [c.as_integer_ratio() for c in f.coefficient_vector()[::-1].tolist()]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios]


def enumerate_critical_pairs_n2(f: HomogeneousPolynomial) -> CriticalSet:
    """Exact enumeration of the critical set for n = 2 via binary-form roots."""
    _reject_zero(f)
    if f.n != 2:
        raise ValueError(f"exact enumeration needs n = 2, got n = {f.n}")
    # g from the integer coefficients of f, so each test on it is exact.
    # Only roots of g are seeded: e1 when g's x1^d coefficient is zero (a
    # root at infinity), and when g = 0 (radial f), where the whole circle
    # is critical and e1, the one candidate kept, represents it.
    g = _strip(_binary_form(_integer_coefficients(f))[0])
    candidates = [np.array([1.0, 0.0])] if len(g) <= f.d else []
    if len(g) > 1:  # g(t, 1) has finite roots
        top = max(map(abs, g))  # int / int rounds correctly and cannot overflow here
        p = np.array([c / top for c in reversed(g)])
        h = _prs_gcd(_primitive(g), _primitive(_partials(g)[0]))
        if len(h) > 1:  # g has a repeated root: keep its square-free part
            p = np.polydiv(p, [c / h[-1] for c in reversed(h)])[0]
        for z in np.roots(p):
            if abs(z.imag) <= 1e-8 * max(1.0, abs(z)):
                u = np.array([float(z.real), 1.0])
                candidates.append(u / np.linalg.norm(u))
    U = np.array(candidates)
    found = _solve_from(f, np.vstack([U, -U]))
    found.all_critical = not g
    return found


def certify_against_oracle(
    f: HomogeneousPolynomial, config: SolverConfig | None = None
) -> CertificationReport:
    """Compare multistart output with the exact n = 2 enumeration.

    An empty discrepancy report means the multistart solver found exactly
    the oracle's critical set.  The radial special case cannot be matched
    pairwise and is flagged instead of certified.
    """
    oracle = enumerate_critical_pairs_n2(f)
    if oracle.all_critical:
        return CertificationReport(certified=False, all_critical=True, matched=0)
    found = find_critical_pairs(f, config)
    lam_tol = scaled_tolerance(f, 1e-6)

    # Each oracle row takes the first unused found row near it, if any.
    near = (np.linalg.norm(oracle.X[:, None] - found.X, axis=2) <= DEFAULT_DEDUP_RADIUS) & (
        np.abs(oracle.lam[:, None] - found.lam) <= lam_tol
    )
    used = np.zeros(found.lam.shape[0], dtype=bool)
    matched = np.zeros(oracle.lam.shape[0], dtype=bool)
    for i, row in enumerate(near):
        first = np.flatnonzero(row & ~used)[:1]
        used[first] = matched[i] = first.size > 0
    found_pairs, oracle_pairs = found.pairs, oracle.pairs  # each view read once
    only_multistart = [found_pairs[i] for i in np.flatnonzero(~used).tolist()]
    only_oracle = [oracle_pairs[i] for i in np.flatnonzero(~matched).tolist()]
    return CertificationReport(
        certified=not only_multistart and not only_oracle,
        all_critical=False,
        matched=int(np.count_nonzero(matched)),
        only_multistart=only_multistart,
        only_oracle=only_oracle,
    )
