"""Critical pairs of a homogeneous polynomial on the unit sphere.

A critical pair is a unit vector x together with a multiplier lam solving
grad f(x) = lam x.  By Euler's identity lam = d f(x) at every such point.
Two finders are provided:

* :func:`find_critical_pairs` runs multistart damped Newton on the square
  system F(x, lam) = (grad f(x) - lam x, (x.x - 1)/2) with the full
  (n+1) x (n+1) Jacobian, each evaluated as a polynomial map of (x, lam).
  It works for any n but offers only stochastic coverage for n >= 3.  A
  first round of at most 12 starts per complex class suffices when its
  result passes a completeness check for generic forms; otherwise the
  whole start budget runs.

* :func:`enumerate_critical_pairs_n2` is exact for n = 2: critical
  directions are the real projective roots of the degree-d binary form
  g = x2 * df/dx1 - x1 * df/dx2.  g is built over the integers from the
  exact coefficients of f, so three decisions take no tolerance: f is
  radial exactly when g = 0, the x2 = 0 direction is a root exactly when
  g's x1^d coefficient is zero (a root at infinity), and repeated roots
  are divided out through the exact gcd(g, g') of :mod:`._intpoly`.  The
  companion matrix of the square-free part of g(t, 1) gives the other
  candidates; only these are Newton-polished, so the returned set is the
  real critical set up to root-finding tolerance.

:func:`certify_against_oracle` cross-checks the two finders on the same
input, which is how multistart coverage is validated at n = 2.

All Newton starts for one solve are drawn in row order from one generator
seeded with the configured seed, the starts after the first round only when
they run, so results are deterministic regardless of how the independent
per-start iterations would be scheduled, and a start's row is the same
whether or not the later starts run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
# The gufunc behind np.linalg.solve, called directly: the wrapper costs a
# few microseconds per Newton step, and its LinAlgError rejects the whole
# batch for one singular row.
from numpy.linalg import _umath_linalg

# The C einsum behind np.einsum, called directly: the wrapper costs a few
# microseconds per call, and each Newton step makes two calls.
try:
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum

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
# 1, 1/2, ..., 2^-MAX_HALVINGS, shaped (k, 1, 1) to scale a batch of steps
STEP_LENGTHS = np.ldexp(1.0, -np.arange(MAX_HALVINGS + 1))[:, None, None]
MAX_SLOW_STEPS = 2  # consecutive slow iterations before a start is abandoned
# Converged starts each class {x, -x} needs before the first round is
# trusted: a class seen only once or twice suggests unseen ones (Good, 1953).
MIN_CLASS_HITS = 3
# First-round starts per complex class.  At 8, 6-7 % of n = 3 solves and 24 %
# at (4, 3) fall back to the full budget; at 16 most solves are 3-12 % slower.
STARTS_PER_CLASS = 4 * MIN_CLASS_HITS
LSTSQ_RCOND = 1e-10  # relative singular value cutoff of the multiple-root polish
OVERSHOOT_FACTORS = np.array([1.0, 2.0, 3.0])[:, None, None]  # step multiples the polish tries


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


def _system_residual(f: HomogeneousPolynomial, Z: np.ndarray) -> np.ndarray:
    """F(z) = (grad f(x) - lam x, (x.x - 1)/2) at the rows z = (x, lam) of Z.

    The gradient rows are f's residual bundle, one polynomial map of z; the
    sphere row is computed apart, as a GEMM would move its last bit."""
    F = f._jet(1, Z)
    X = Z[:, : f.n]
    F[:, f.n] = 0.5 * (c_einsum("ij,ij->i", X, X) - 1.0)
    return F


def _system_jacobian(f: HomogeneousPolynomial, Z: np.ndarray) -> np.ndarray:
    """Jacobian of the critical-pair system at the rows z = (x, lam) of Z:
    [[hess f(x) - lam I, -x], [x^T, 0]], the bordered matrix with its lam
    column negated; callers handle non-finite entries.

    The Hessian block is f's Jacobian bundle, one polynomial map of z whose
    GEMM also subtracts lam, so H_ii - lam is rounded as BLAS sums it.  The
    border and the corner are written apart: -x and an exact +0.0, signs of
    zeros kept."""
    k, n = Z.shape[0], f.n
    J = f._jet(2, Z).reshape(k, n + 1, n + 1)
    X = Z[:, :n]
    np.negative(X, out=J[:, :n, n])
    J[:, n, :n] = X
    J[:, n, n] = 0.0
    return J


def _solve_steps(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched linear solve, one LAPACK dgesv call over the batch; a row is
    usable exactly when its own step is finite.

    A row with a zero pivot (an exactly singular Jacobian) comes back NaN
    and one that overflows comes back non-finite; neither raises, and the
    other rows are solved as they would be alone.  ``_newton_polish`` hands
    the flagged rows to its pseudo-inverse polish.
    """
    with np.errstate(all="ignore"):
        steps = _umath_linalg.solve1(J, rhs, signature="dd->d")
    return steps, np.logical_and.reduce(np.isfinite(steps), axis=1)


def _lstsq_steps(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Moore-Penrose steps pinv(J) @ rhs, dropping singular values
    at or below ``LSTSQ_RCOND`` times the largest of each J.

    Near-null Jacobian directions (manifolds of critical points, multiple
    roots) are dropped rather than amplified, so the step corrects only the
    well-determined components.  When an SVD fails, the batch is retried
    row by row, so only the failing row gets no step (zero, not usable).
    """
    try:
        steps = (np.linalg.pinv(J, rcond=LSTSQ_RCOND) @ rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if rhs.shape[0] == 1:
            return np.zeros_like(rhs), np.zeros(1, dtype=bool)
        return tuple(map(np.concatenate, zip(*map(_lstsq_steps, J[:, None], rhs[:, None]))))
    return steps, np.logical_and.reduce(np.isfinite(steps), axis=1)


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, the one norm kernel of the Newton loop."""
    return np.sqrt(c_einsum("...i,...i", A, A))


def _trial_steps(
    f: HomogeneousPolynomial, z: np.ndarray, Fz: np.ndarray, solver, scales: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One Newton-type step from each row (x, lam) of z, whose residual rows
    are Fz, by ``solver`` on the Jacobian with non-finite entries zeroed,
    tried at every scale of ``scales``, shaped (k, 1, 1), in one residual
    call.  Returns the usable-step mask, the trial rows and their residual
    rows, both (scales * rows, n + 1) with row s * rows + i the step of row
    i at ``scales[s]``, and the residual norms (scales, rows); each caller
    masks the unusable rows."""
    J = _system_jacobian(f, z)
    J[~np.isfinite(J)] = 0.0
    steps, usable = solver(J, -Fz)
    trial = (z + scales * steps).reshape(-1, z.shape[1])
    Ft = _system_residual(f, trial)
    return usable, trial, Ft, _row_norms(Ft).reshape(scales.size, -1)


# One error state per solve: wild rows overflow, and the isfinite tests drop them.
@np.errstate(all="ignore")
def _newton_polish(
    f: HomogeneousPolynomial,
    X0: np.ndarray,
    lam0: np.ndarray,
    *,
    accept_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on the critical-pair system of ``f``, batched over
    start rows.

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
    The active rows are kept compact (indices, points, residual rows and
    norms, stall counts), each accepted trial gathered by its flat index;
    a row is written back once, when it stops.
    Returns Z = [X | lam] with one row per start, the residual rows F and
    their norms Fn, and the mask of rows :func:`_polish_multiple_roots` must
    see: rows without a Newton step (a singular Jacobian, as at a degenerate
    critical point), and rows within ``accept_tol`` whose last accepted step
    left more than 10 % of the residual (linear convergence, or no step at
    all), unless they already lie below the polish floor.
    """
    stop_tol = scaled_tolerance(f, DEFAULT_TOL_STOP)
    Z = np.concatenate([np.asarray(X0, float), np.asarray(lam0, float)[:, None]], axis=1)
    F = _system_residual(f, Z)
    Fn = _row_norms(F)
    singular = np.zeros(Fn.size, dtype=bool)
    linear = np.ones(Fn.size, dtype=bool)  # last accepted step kept > 10 % of the residual
    rows = (np.isfinite(Fn) & (Fn > stop_tol)).nonzero()[0]
    if rows.size:  # the enumeration's seeds start below the stop tolerance
        z, Fz, Fnz = Z.take(rows, axis=0), F.take(rows, axis=0), Fn.take(rows)
        stalls = np.zeros(rows.size, dtype=np.int64)
        lanes = np.arange(rows.size)  # each active row's column in Ftn
        stopped = []  # (rows, z, Fz, Fnz) of the rows each iteration stops

        for _ in range(MAX_ITERATIONS):
            if rows.size == 0:
                break
            usable, trial, Ft, Ftn = _trial_steps(f, z, Fz, _solve_steps, STEP_LENGTHS)
            if np.count_nonzero(usable) < rows.size:  # NaN and inf never compare below a residual
                singular[rows[~usable]] = True
                Ftn[:, ~usable] = np.inf
            ok = Ftn < Fnz
            moved = np.logical_or.reduce(ok, axis=0)
            pick = ok.argmax(axis=0) * rows.size + lanes[: rows.size]  # the longest decreasing step
            before = Fnz
            if np.count_nonzero(moved) < rows.size:  # no step length lowers these rows' residuals
                idle, cols = (~moved).nonzero()[0], moved.nonzero()[0]
                stopped.append((rows[idle], z.take(idle, axis=0), Fz.take(idle, axis=0), Fnz[idle]))
                pick, before, rows, stalls = pick[cols], Fnz[cols], rows[cols], stalls[cols]
            z, Fz, Fnz = trial.take(pick, axis=0), Ft.take(pick, axis=0), Ftn.take(pick)
            # Wandering rows shave off a sliver of residual per iteration without
            # converging (deep damping).  Genuine roots contract by at least half
            # per step even at multiple roots, so MAX_SLOW_STEPS near-unit ratios
            # in a row mark a start worth abandoning in favor of the remaining
            # oversampled ones.
            linear[rows] = Fnz > 0.1 * before
            stalls = np.where(Fnz > 0.9 * before, stalls + 1, 0)
            going = (stalls < MAX_SLOW_STEPS) & (Fnz > stop_tol)
            if np.count_nonzero(going) < rows.size:
                done, keep = (~going).nonzero()[0], going.nonzero()[0]
                stopped.append((rows[done], z.take(done, axis=0), Fz.take(done, axis=0), Fnz[done]))
                rows, stalls, Fnz = rows[keep], stalls[keep], Fnz[keep]
                z, Fz = z.take(keep, axis=0), Fz.take(keep, axis=0)

        stopped.append((rows, z, Fz, Fnz))  # rows still active after MAX_ITERATIONS
        rows, z, Fz, Fnz = (np.concatenate(parts) for parts in zip(*stopped))
        Z[rows], F[rows], Fn[rows] = z, Fz, Fnz
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
    rows = polish.nonzero()[0]
    for _ in range(8):
        if rows.size == 0:
            break
        z, Fz = Z.take(rows, axis=0), F.take(rows, axis=0)
        usable, trial, Ft, Ftn = _trial_steps(f, z, Fz, _lstsq_steps, OVERSHOOT_FACTORS)
        Ftn[~(np.isfinite(Ftn) & usable)] = np.inf  # for the min over trials
        cols = (Ftn.min(axis=0) < Fn.take(rows)).nonzero()[0]
        pick = Ftn.argmin(axis=0).take(cols) * rows.size + cols  # the earliest of equal trials
        acc = rows.take(cols)
        Z[acc], F[acc], Fn[acc] = trial.take(pick, axis=0), Ft.take(pick, axis=0), Ftn.take(pick)
        rows = acc[Fn[acc] > floor]


@lru_cache(maxsize=None)
def _unit_direction(n: int) -> np.ndarray:
    """The read-only projection direction of :func:`_projection_windows` in R^n."""
    u = np.cos(np.arange(1.0, n + 1.0))
    u /= np.linalg.norm(u)
    u.flags.writeable = False
    return u


def _projection_windows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate rows of X within ``DEFAULT_DEDUP_RADIUS`` of each row, by projection.

    |u.(a - b)| <= |a - b| for a unit vector u, so every row that near row i
    sits at positions lo[i] .. hi[i] - 1 of the returned order of X's
    projections, which lie within the radius (plus rounding slack) of u.X[i].
    u has nonzero entries, distinct in absolute value: it is the normal of
    no subsphere x_i = 0 or x_i = +-x_j, where constructed critical sets lie.
    """
    c = X @ _unit_direction(X.shape[1])
    order = c.argsort(kind="stable")
    p = c[order]
    width = DEFAULT_DEDUP_RADIUS + 1e-12
    return order, p.searchsorted(c - width, "left"), p.searchsorted(c + width, "right")


def _collect_pairs(
    f: HomogeneousPolynomial, X: np.ndarray, lam: np.ndarray, res: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize, mirror, and dedup at ``DEFAULT_DEDUP_RADIUS``, tightest
    Newton residual ``res`` first.  Returns the rows of X and lam in
    :class:`CriticalSet` order, closed under the antipodal map exactly, and
    per row the number of input rows the merge assigned to its class
    {x, -x}.  Rows of norm 1/2 or less are dropped: once ||f|| > 5e8 the
    acceptance tolerance no longer keeps a row off x = 0."""
    norms = np.sqrt(np.add.reduce(X * X, axis=1))
    keep = norms > 0.5
    X, lam, res = X.compress(keep, axis=0) / norms[keep, None], lam[keep], res[keep]

    # x critical implies -x critical with lam * (-1)^d, so each row is
    # followed by its mirror, with its residual, and the dedup runs once on both.
    both, lams = np.empty((2 * lam.size, f.n)), np.empty(2 * lam.size)
    both[0::2], lams[0::2] = X, lam
    np.negative(X, out=both[1::2])
    np.multiply(lam, (-1.0) ** f.d, out=lams[1::2])
    X, lam, res = both, lams, res.repeat(2)

    # Greedy dedup, tightest residual first: a row is kept unless an earlier
    # kept row lies within DEFAULT_DEDUP_RADIUS, so each kept row covers its
    # later uncovered neighbours in one vector test over its window, and
    # counts them as its hits.  A row alone in its window has no neighbour:
    # it is kept, covers nothing and has one hit.  A row and its mirror are
    # adjacent in the stable order, and -y covers -x exactly when y covers x
    # (negation is exact), so both are kept or both covered, with equal
    # hits: the converged rows that reached their class from either side.
    order = res.argsort(kind="stable")
    Xo = X.take(order, axis=0)
    by_p, lo, hi = _projection_windows(Xo)
    # A row whose window starts at its own projection position starts a
    # group: every row before it lies farther away than the radius, so
    # groups dedup independently.  A group whose rows all lie within the
    # radius of its tightest row is settled in one pass: that row is kept
    # and covers the rest, as the greedy loop would.  Only the other groups'
    # rows go through the loop.
    first = lo.take(by_p) == np.arange(order.size)
    group = np.empty(order.size, dtype=np.intp)
    group[by_p] = first.cumsum() - 1
    starts = first.nonzero()[0]
    lead = np.minimum.reduceat(by_p, starts)  # the tightest row of each group
    gap = Xo - Xo.take(lead[group], axis=0)
    far = np.sqrt(np.add.reduce(gap * gap, axis=1)) > DEFAULT_DEDUP_RADIUS
    settled = ~np.logical_or.reduceat(far[by_p], starts)
    covered = settled[group]
    covered[lead[settled]] = False
    hits = np.ones(order.size, dtype=np.int64)
    hits[lead[settled]] = np.bincount(group)[settled]
    if np.count_nonzero(settled) < settled.size:
        pending = ((hi - lo > 1) & ~settled[group]).nonzero()[0]
        while pending.size:  # visits only uncovered rows: one per tight cluster
            i = pending[0]
            near = by_p[lo[i] : hi[i]]
            near = near[(near > i) & ~covered[near]]
            gap = Xo.take(near, axis=0) - Xo[i]
            near = near[np.sqrt(np.add.reduce(gap * gap, axis=1)) <= DEFAULT_DEDUP_RADIUS]
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
    f: HomogeneousPolynomial, newton: tuple, tol: float
) -> tuple[CriticalSet, np.ndarray]:
    """The one assembly of a :class:`CriticalSet`: the multiple-root polish
    of one :func:`_newton_polish` result (Z, F, Fn, polish), in place, and
    the merge of its converged rows, each row counted in ``starts_used``.
    Also returns the merge's hits, per returned row.  Rows outside the
    polish mask are left as they are."""
    Z, F, Fn, polish = newton
    if np.count_nonzero(polish):
        _polish_multiple_roots(f, Z, F, Fn, polish)
    ok = Fn <= tol
    X, lam, hits = _collect_pairs(f, Z[ok, : f.n], Z[ok, f.n], Fn[ok])
    fraction = float(np.count_nonzero(ok) / ok.size)  # a Python float: np.float64 prints otherwise
    found = CriticalSet(X, lam, starts_used=ok.size, converged_fraction=fraction)
    return found, hits


def _draw_starts(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """The next ``rows`` uniform unit starts of ``rng``; a zero draw stays 0."""
    X0 = rng.standard_normal((rows, n))
    norms = np.sqrt(np.add.reduce(X0 * X0, axis=1))
    norms[norms == 0.0] = 1.0
    return X0 / norms[:, None]


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
    tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
    bound = _class_bound(n, d)
    first_round = min((starts + 1) // 2, STARTS_PER_CLASS * bound)
    X0 = _draw_starts(rng, first_round, n)
    first = _newton_polish(f, X0, d * f.evaluate_many(X0), accept_tol=tol)
    _, _, Fn, polish = first
    # One class reached MIN_CLASS_HITS times needs that many converged rows.
    if np.count_nonzero(Fn <= tol) >= MIN_CLASS_HITS and not np.count_nonzero(polish):
        found, hits = _finish(f, first, tol)
        k = found.lam.size // 2
        # A generic form has at most B classes, so k = B leaves none unseen.
        if k == bound or (1 <= k < bound and (bound - k) % 2 == 0 and hits.min() >= MIN_CLASS_HITS):
            return found
    X0 = _draw_starts(rng, starts - first_round, n)
    second = _newton_polish(f, X0, d * f.evaluate_many(X0), accept_tol=tol)
    return _finish(f, tuple(map(np.concatenate, zip(first, second))), tol)[0]


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
    t = np.empty(0)  # the real finite roots of g(t, 1)
    if len(g) > 1:  # g(t, 1) has finite roots
        top = max(map(abs, g))  # int / int rounds correctly and cannot overflow here
        p = np.array([c / top for c in reversed(g)])
        if len(h) > 1:  # g has a repeated root: keep its square-free part
            p = np.polydiv(p, [c / h[-1] for c in reversed(h)])[0]
        # np.roots without its wrapper: zero leading coefficients dropped,
        # the eigenvalues of the companion matrix of the rest, then a root
        # t = 0 per zero trailing coefficient.
        nz = p.nonzero()[0]
        q = p[nz[0] : nz[-1] + 1]
        z = np.zeros(p.size - 1 - nz[0], complex)
        if q.size > 1:
            A = np.eye(q.size - 1, k=-1)
            A[0] = -q[1:] / q[0]
            z[: q.size - 1] = np.linalg.eigvals(A)
        t = z.real[np.abs(z.imag) <= 1e-8 * np.maximum(1.0, np.abs(z))]
    X0 = np.ones((t.size, 2))  # the direction (t, 1) of each root, normalized
    X0[:, 0] = t
    X0 /= np.sqrt(t * t + 1.0)[:, None]
    if len(g) <= f.d:
        X0 = np.concatenate(([[1.0, 0.0]], X0))
    tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
    found = _finish(f, _newton_polish(f, X0, f.d * f.evaluate_many(X0), accept_tol=tol), tol)[0]
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
    gap = oracle.X[:, None] - found.X
    near = np.sqrt(np.add.reduce(gap * gap, axis=2)) <= DEFAULT_DEDUP_RADIUS
    used = np.zeros(found.lam.shape[0], dtype=bool)
    matched = np.zeros(oracle.lam.shape[0], dtype=bool)
    for i, row in enumerate(near):
        first = (row & ~used).nonzero()[0][:1]
        used[first] = matched[i] = first.size > 0
    hits = int(np.count_nonzero(matched))
    return CertificationReport(
        certified=bool(hits == matched.size and np.count_nonzero(used) == used.size),
        all_critical=False,
        matched=hits,
        only_multistart=found.X[~used],
        only_oracle=oracle.X[~matched],
    )
