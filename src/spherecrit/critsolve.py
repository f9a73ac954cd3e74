"""Critical pairs of a homogeneous polynomial on the unit sphere.

A critical pair is a unit vector x together with a multiplier lam solving
grad f(x) = lam x.  By Euler's identity lam = d f(x) at every such point.
Two finders are provided:

* :func:`find_critical_pairs` runs multistart damped Newton on the square
  system F(x, lam) = (grad f(x) - lam x, (x.x - 1)/2) with the full
  (n+1) x (n+1) Jacobian.  It works for any n but offers only stochastic
  coverage for n >= 3.  A first round of at most 12 starts per complex
  class suffices when its result passes a completeness check for generic
  forms; otherwise the whole start budget runs.

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
independent per-start iterations would be scheduled, or whether the starts
after the first round run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._intpoly import _critical_form
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
DEFAULT_TOL_STOP = 1e-13  # Newton stops a row once its residual is this small, scaled
DEFAULT_TOL_POLISH = 1e-14  # the multiple-root polish leaves rows this small, scaled
DEFAULT_DEDUP_RADIUS = 1e-6
MAX_STARTS = 20000
MAX_ITERATIONS = 100  # Newton iterations per start
# Step halvings per Newton iteration.  Along a Newton step s,
# F(z + t s) ~ (1 - t) F(z) for small t, so a step of length 2^-4 or less
# keeps at least 94 % of the residual: a slow step by the MAX_SLOW_STEPS rule.
# A row that finds no decrease by 2^-4 is abandoned one slow iteration early.
MAX_HALVINGS = 4
STEP_LENGTHS = np.ldexp(1.0, -np.arange(MAX_HALVINGS + 1))  # 1, 1/2, ..., 2^-MAX_HALVINGS
MAX_SLOW_STEPS = 2  # consecutive slow iterations before a start is abandoned
# Converged starts each class {x, -x} needs before the first round is
# trusted: a class seen only once or twice suggests unseen ones (Good, 1953).
MIN_CLASS_HITS = 3
# First-round starts per complex class.  At 8, 6-7 % of n = 3 solves and 24 %
# at (4, 3) fall back to the full budget; at 16 most solves are 3-12 % slower.
STARTS_PER_CLASS = 4 * MIN_CLASS_HITS
LSTSQ_RCOND = 1e-10  # relative singular value cutoff of the multiple-root polish
OVERSHOOT_FACTORS = np.array([1.0, 2.0, 3.0])  # step multiples the polish tries


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


@dataclass
class CriticalSet:
    """Deduplicated critical pairs as arrays, plus solver bookkeeping.

    Row i of ``X`` (k, n) is a unit vector with multiplier ``lam[i]``, whose
    FONC residual ``analyze_points`` measures.  Rows ascend by
    (lam, x1, ..., xn), lie more than ``DEFAULT_DEDUP_RADIUS`` apart, and
    come in exact antipodal pairs: with row (x, lam) the set holds
    (-x, (-1)^d lam) bitwise.  An empty set keeps ``X`` at (0, n).
    ``pairs`` builds a list of one :class:`CriticalPair` per row when read.
    ``all_critical`` marks the radially symmetric n = 2 special case
    f = c (x1^2 + x2^2)^(d/2), where the whole circle is critical; the rows
    then hold the two antipodal representatives at the first axis.
    ``starts_used`` counts the starts that were Newton-polished: for
    :func:`find_critical_pairs` its first round or the whole start budget,
    for :func:`enumerate_critical_pairs_n2` its seeds, one per real root
    of g; ``converged_fraction`` is the share of those that converged.
    """

    X: np.ndarray
    lam: np.ndarray
    starts_used: int
    converged_fraction: float
    all_critical: bool = False

    @property
    def pairs(self) -> list[CriticalPair]:
        return [CriticalPair(*row) for row in zip(self.X.copy(), self.lam.tolist())]


@dataclass(frozen=True)
class SolverConfig:
    """Multistart Newton knobs: start budget and seed.

    ``starts`` is a budget of unit starts, 1 to ``MAX_STARTS`` (20000);
    ``None`` selects the default 50 * d * n, capped at 20000.  The solver
    polishes a first round of the starts and spends the rest only when that
    round does not look complete (see :func:`find_critical_pairs`).
    Everything else is fixed by the solver, not configured: acceptance at
    ``scaled_tolerance(f, DEFAULT_TOL_CRIT)``, merging at
    ``DEFAULT_DEDUP_RADIUS``, the completeness check, and the iteration,
    step-halving and slow-step caps.
    """

    starts: int | None = None
    seed: int = 0


@dataclass
class CertificationReport:
    """Outcome of cross-checking multistart against the exact n = 2 oracle.

    ``only_multistart`` and ``only_oracle`` hold the unmatched unit vectors
    of each finder, shape (k, 2), in :class:`CriticalSet` row order; the
    multiplier of a row x is lam = d f(x).
    """

    certified: bool
    all_critical: bool
    matched: int
    only_multistart: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    only_oracle: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))


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


def _system_jacobian(f: HomogeneousPolynomial, X: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Jacobian of the critical-pair system at the rows x of X: the bordered
    matrix [[hess f(x) - lam I, x], [x^T, 0]] with its lam column negated,
    and the package's one bordered builder; callers handle non-finite entries."""
    k, n = X.shape[0], f.n
    J = np.empty((k, n + 1, n + 1))
    J[:, :n, :n] = f.hessian_many(X)
    J.reshape(k, (n + 1) ** 2)[:, : n * (n + 2) : n + 2] -= lam[:, None]  # H - lam I
    J[:, :n, n] = -X
    J[:, n, :n] = X
    J[:, n, n] = 0.0
    return J


def _solve_steps(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched linear solve; rows with a singular Jacobian are flagged, not raised.

    The whole batch is solved first.  Only when LAPACK rejects it are rows
    with a zero or non-finite determinant flagged unusable and the rest
    solved again; ``_newton_polish`` hands the flagged rows to its
    pseudo-inverse polish.  ``det`` and ``solve`` factor the same matrices
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
    """Batched Moore-Penrose steps pinv(J) @ rhs, dropping singular values
    at or below ``LSTSQ_RCOND`` times the largest of each J.

    Near-null Jacobian directions (manifolds of critical points, multiple
    roots) are dropped rather than amplified, so the step corrects only the
    well-determined components.
    """
    try:
        steps = (np.linalg.pinv(J, rcond=LSTSQ_RCOND) @ rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.zeros_like(rhs), np.zeros(rhs.shape[0], dtype=bool)
    return steps, np.isfinite(steps).all(axis=1)


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, the one norm kernel of the Newton loop."""
    return np.sqrt(np.einsum("...i,...i", A, A))


def _trial_steps(
    f: HomogeneousPolynomial, Z: np.ndarray, F: np.ndarray, rows: np.ndarray, solver, scales
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One Newton-type step from each given row of Z = [X | lam], by
    ``solver`` on the Jacobian with non-finite entries zeroed, tried at every
    scale in one residual call.  Returns the usable-step mask, the trial
    rows and their residual rows, both (scales, rows, n + 1), and the
    residual norms (scales, rows), inf where non-finite or unusable."""
    n = f.n
    z = Z.take(rows, axis=0)
    J = _system_jacobian(f, z[:, :n], z[:, n])
    J[~np.isfinite(J)] = 0.0
    steps, usable = solver(J, -F.take(rows, axis=0))
    trial = z + scales[:, None, None] * steps
    flat = trial.reshape(-1, n + 1)
    Ft = _system_residual(f, flat[:, :n], flat[:, n]).reshape(trial.shape)
    Ftn = _row_norms(Ft)
    Ftn[~(np.isfinite(Ftn) & usable)] = np.inf
    return usable, trial, Ft, Ftn


# One error state per solve: wild rows overflow, and the isfinite tests drop them.
@np.errstate(all="ignore")
def _newton_polish(
    f: HomogeneousPolynomial,
    X0: np.ndarray,
    lam0: np.ndarray,
    *,
    accept_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on the critical-pair system, batched over start rows.

    A row stops once its residual passes the scaled ``DEFAULT_TOL_STOP``, or
    after ``MAX_ITERATIONS`` iterations.
    Each row takes the longest step 2^-k (k = 0 .. ``MAX_HALVINGS``, so down
    to 1/16) that strictly decreases its residual norm, as sequential
    halving would.  One :func:`_trial_steps` call per iteration tests every
    step length for every active row.  Rows that cannot decrease the
    residual at any of these lengths (a shorter step would be slow anyway),
    and rows whose residual fell by less than 10 % in each of the last
    ``MAX_SLOW_STEPS`` iterations, are abandoned.  A row is
    converged exactly when its final residual, after the multiple-root
    polish, is at most ``accept_tol``: no row's residual ever rises, and the
    stop tolerance lies below ``accept_tol``.
    Returns Z = [X | lam] with one row per start, the residual rows F and
    their norms Fn, and the mask of rows :func:`_polish_multiple_roots` must
    see: rows without a Newton step (a singular Jacobian, as at a degenerate
    critical point), and rows within ``accept_tol`` whose last accepted step
    left more than 10 % of the residual (linear convergence, or no step at
    all), unless they already lie below the polish floor.
    """
    n = f.n
    stop_tol = scaled_tolerance(f, DEFAULT_TOL_STOP)
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
        before = Fn[rows]
        usable, trial, Ft, Ftn = _trial_steps(f, Z, F, rows, _solve_steps, STEP_LENGTHS)
        singular[rows[~usable]] = True
        ok = Ftn < before
        cols = np.flatnonzero(ok.any(axis=0))
        first = ok.argmax(axis=0)[cols]  # the longest decreasing step
        acc = rows[cols]
        Z[acc] = trial[first, cols]
        F[acc] = Ft[first, cols]
        Fn[acc] = Ftn[first, cols]
        # An accepted step strictly lowers the residual; other rows keep theirs.
        after = Fn[rows]
        improved = after < before
        # Wandering rows shave off a sliver of residual per iteration without
        # converging (deep damping).  Genuine roots contract by at least half
        # per step even at multiple roots, so MAX_SLOW_STEPS near-unit ratios
        # in a row mark a start worth abandoning in favor of the remaining
        # oversampled ones.  Rows that could not decrease the residual are
        # abandoned too, so their stall counts do not matter.
        linear[rows[improved]] = (after > 0.1 * before)[improved]
        stalled = np.where(after > 0.9 * before, stalls[rows] + 1, 0)
        stalls[rows] = stalled
        active[rows] = improved & (stalled < MAX_SLOW_STEPS)

    floor = scaled_tolerance(f, DEFAULT_TOL_POLISH)
    polish = (((Fn <= accept_tol) & linear) | singular) & (Fn > floor)
    return Z, F, Fn, polish


@np.errstate(all="ignore")
def _polish_multiple_roots(
    f: HomogeneousPolynomial, Z: np.ndarray, F: np.ndarray, Fn: np.ndarray, polish: np.ndarray
) -> None:
    """Multiple-root polish of the masked rows of Z, F and Fn, in place.

    Plain Newton converges only linearly to roots with a singular Jacobian
    (critical points that are themselves degenerate), stalling a few orders
    above machine precision, which is enough to throw off second-order
    margins downstream, and takes no step at all where the Jacobian is
    exactly singular.  Truncated least-squares steps ignore the null
    directions (e.g. a whole circle of critical points) and overshooting by
    the root multiplicity restores fast convergence: each of at most 8
    rounds moves a row to its best trial at ``OVERSHOOT_FACTORS`` times the
    step, if that lowers its residual.  At a simple root the last Newton
    step cut the residual more than tenfold, so :func:`_newton_polish`
    masks only singular rows and converged rows whose last step did not.
    """
    floor = scaled_tolerance(f, DEFAULT_TOL_POLISH)
    rows = np.flatnonzero(polish)
    for _ in range(8):
        if rows.size == 0:
            break
        _, trial, Ft, Ftn = _trial_steps(f, Z, F, rows, _lstsq_steps, OVERSHOOT_FACTORS)
        cols = np.flatnonzero(Ftn.min(axis=0) < Fn[rows])
        best = Ftn.argmin(axis=0)[cols]  # the earliest of equal trials
        acc = rows[cols]
        Z[acc] = trial[best, cols]
        F[acc] = Ft[best, cols]
        Fn[acc] = Ftn[best, cols]
        rows = acc[Fn[acc] > floor]


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
    f: HomogeneousPolynomial, X: np.ndarray, lam: np.ndarray, res: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize, mirror, and dedup at ``DEFAULT_DEDUP_RADIUS``, tightest
    Newton residual ``res`` first.  Returns the rows of X and lam in
    :class:`CriticalSet` order, closed under the antipodal map exactly, and
    per row the number of input rows the merge assigned to its class
    {x, -x}.  Rows of norm 1/2 or less are dropped: once ||f|| > 5e8 the
    acceptance tolerance no longer keeps a row off x = 0."""
    norms = np.linalg.norm(X, axis=1)
    keep = norms > 0.5
    X, lam, res = X.compress(keep, axis=0) / norms[keep, None], lam[keep], res[keep]

    # x critical implies -x critical with lam * (-1)^d, so each row is
    # followed by its mirror, with its residual, and the dedup runs once on both.
    X = np.stack([X, -X], axis=1).reshape(-1, f.n)
    lam = np.stack([lam, (-1.0) ** f.d * lam], axis=1).reshape(-1)
    res = np.repeat(res, 2)

    # Greedy dedup, tightest residual first: a row is kept unless an earlier
    # kept row lies within DEFAULT_DEDUP_RADIUS, so each kept row covers its
    # later uncovered neighbours in one vector test over its window, and
    # counts them as its hits.  A row alone in its window has no neighbour:
    # it is kept, covers nothing and has one hit.  A row and its mirror are
    # adjacent in the stable order, and -y covers -x exactly when y covers x
    # (negation is exact), so both are kept or both covered, with equal
    # hits: the converged rows that reached their class from either side.
    order = np.argsort(res, kind="stable")
    Xo = X.take(order, axis=0)
    by_p, lo, hi = _projection_windows(Xo)
    covered = np.zeros(order.size, dtype=bool)
    hits = np.ones(order.size, dtype=np.int64)
    pending = np.flatnonzero(hi - lo > 1)
    while pending.size:  # visits only uncovered rows: one per tight cluster
        i = pending[0]
        near = by_p[lo[i] : hi[i]]
        near = near[(near > i) & ~covered[near]]
        near = near[np.linalg.norm(Xo.take(near, axis=0) - Xo[i], axis=1) <= DEFAULT_DEDUP_RADIUS]
        covered[near] = True
        hits[i] += near.size
        pending = pending[1:][~covered[pending[1:]]]
    kept = order[~covered]
    X, lam, hits = X.take(kept, axis=0), lam[kept], hits[~covered]
    # Ascending by (lam, x1, ..., xn); lexsort's last key is the primary one.
    order = np.lexsort((*X.T[::-1], lam))
    return X.take(order, axis=0), lam[order], hits[order]


def _class_bound(n: int, d: int) -> int:
    """Complex eigenvector classes {x, -x} of a generic form of degree d in n
    variables (Cartwright and Sturmfels): ((d-1)^n - 1) / (d-2), which is n
    at d = 2 and 1 at d = 1."""
    return n if d == 2 else ((d - 1) ** n - 1) // (d - 2)


def _finish(
    f: HomogeneousPolynomial, passes: list[tuple], tol: float
) -> tuple[CriticalSet, np.ndarray]:
    """The one assembly of a :class:`CriticalSet`: one multiple-root polish and
    one merge over the rows of every Newton pass, each row counted in
    ``starts_used``.  Also returns the merge's hits, per returned row."""
    Z, F, Fn, polish = (np.concatenate(parts) for parts in zip(*passes))
    _polish_multiple_roots(f, Z, F, Fn, polish)
    ok = Fn <= tol
    X, lam, hits = _collect_pairs(f, Z[ok, : f.n], Z[ok, f.n], Fn[ok])
    found = CriticalSet(X, lam, starts_used=ok.size, converged_fraction=float(np.mean(ok)))
    return found, hits


def _solve_from(f: HomogeneousPolynomial, X0: np.ndarray) -> CriticalSet:
    """Newton-polish the unit start rows X0 and collect the converged pairs."""
    tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
    return _finish(f, [_newton_polish(f, X0, f.d * f.evaluate_many(X0), accept_tol=tol)], tol)[0]


def find_critical_pairs(
    f: HomogeneousPolynomial, config: SolverConfig | None = None
) -> CriticalSet:
    """All critical pairs reachable by multistart Newton from uniform sphere starts.

    The configured ``starts`` is a budget.  Newton polishes a first round
    of min(half the starts rounded up, ``STARTS_PER_CLASS`` * B) starts,
    B = :func:`_class_bound` complex classes {x, -x}, and the solve stops
    there when the round looks like the complete critical set of a generic
    form: no row needs the multiple-root polish, the class count k satisfies
    1 <= k <= B, k has the parity of B, and, when k < B, every class was
    reached by at least ``MIN_CLASS_HITS`` converged starts.
    Otherwise the remaining starts are Newton-polished too, and the polish
    and merge run over all the starts.  Non-converged starts are counted in
    ``converged_fraction``, not returned.  Each returned pair's Newton
    residual was at most ``scaled_tolerance(f, DEFAULT_TOL_CRIT)``, and its
    bitwise mirror (-x, (-1)^d lam) is returned too.
    """
    cfg = config or SolverConfig()
    _reject_zero(f)
    n, d = f.n, f.d
    starts = cfg.starts if cfg.starts is not None else min(50 * d * n, MAX_STARTS)
    if not 1 <= starts <= MAX_STARTS:
        raise ValueError(f"need 1 to {MAX_STARTS} starts, got {starts}")

    rng = np.random.default_rng(cfg.seed)
    X0 = rng.standard_normal((starts, n))
    norms = np.linalg.norm(X0, axis=1)
    norms[norms == 0.0] = 1.0
    X0 /= norms[:, None]
    lam0 = d * f.evaluate_many(X0)
    tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
    bound = _class_bound(n, d)
    first_round = min((starts + 1) // 2, STARTS_PER_CLASS * bound)
    first = _newton_polish(f, X0[:first_round], lam0[:first_round], accept_tol=tol)
    _, _, Fn, polish = first
    # One class reached MIN_CLASS_HITS times needs that many converged rows.
    if np.count_nonzero(Fn <= tol) >= MIN_CLASS_HITS and not polish.any():
        found, hits = _finish(f, [first], tol)
        k = found.lam.size // 2
        # A generic form has at most B classes, so k = B leaves none unseen.
        if k == bound or (1 <= k < bound and (bound - k) % 2 == 0 and hits.min() >= MIN_CLASS_HITS):
            return found
    second = _newton_polish(f, X0[first_round:], lam0[first_round:], accept_tol=tol)
    return _finish(f, [first, second], tol)[0]


def enumerate_critical_pairs_n2(f: HomogeneousPolynomial) -> CriticalSet:
    """Exact enumeration of the critical set for n = 2 via binary-form roots."""
    _reject_zero(f)
    if f.n != 2:
        raise ValueError(f"exact enumeration needs n = 2, got n = {f.n}")
    # g and its repeated part h from the integer coefficients of f, so each
    # test on them is exact.
    # Only roots of g are seeded, one direction each (the merge adds the
    # mirrors): e1 when g's x1^d coefficient is zero (a root at infinity),
    # and when g = 0 (radial f), where the whole circle is critical and e1,
    # the one candidate kept, represents it.
    g, h = _critical_form(f)
    candidates = [np.array([1.0, 0.0])] if len(g) <= f.d else []
    if len(g) > 1:  # g(t, 1) has finite roots
        top = max(map(abs, g))  # int / int rounds correctly and cannot overflow here
        p = np.array([c / top for c in reversed(g)])
        if len(h) > 1:  # g has a repeated root: keep its square-free part
            p = np.polydiv(p, [c / h[-1] for c in reversed(h)])[0]
        for z in np.roots(p):
            if abs(z.imag) <= 1e-8 * max(1.0, abs(z)):
                u = np.array([float(z.real), 1.0])
                candidates.append(u / np.linalg.norm(u))
    found = _solve_from(f, np.array(candidates))
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

    # Each oracle row takes the first unused found row within the merge
    # radius, the merge's own test for "same point", if any.
    near = np.linalg.norm(oracle.X[:, None] - found.X, axis=2) <= DEFAULT_DEDUP_RADIUS
    used = np.zeros(found.lam.shape[0], dtype=bool)
    matched = np.zeros(oracle.lam.shape[0], dtype=bool)
    for i, row in enumerate(near):
        first = np.flatnonzero(row & ~used)[:1]
        used[first] = matched[i] = first.size > 0
    return CertificationReport(
        certified=bool(used.all() and matched.all()),
        all_critical=False,
        matched=int(np.count_nonzero(matched)),
        only_multistart=found.X[~used],
        only_oracle=oracle.X[~matched],
    )
