"""Multistart solver, exact n = 2 enumeration, and their cross-certification."""

import functools
import math

import numpy as np
import pytest

from spherecrit import critsolve
from spherecrit import (
    HomogeneousPolynomial,
    SolverConfig,
    ZeroPolynomialError,
    certify_against_oracle,
    enumerate_critical_pairs_n2,
    find_critical_pairs,
    axis_monomial,
    random_polynomial,
    scaled_tolerance,
    weighted_axis_quadratic,
)
from spherecrit.critsolve import DEFAULT_DEDUP_RADIUS, DEFAULT_TOL_CRIT
def _has_pair(pairs, x, lam, xtol=1e-8, ltol=1e-8):
    return any(
        np.linalg.norm(p.x - np.asarray(x)) <= xtol and abs(p.lam - lam) <= ltol
        for p in pairs
    )


def test_linear_closed_form():
    f = HomogeneousPolynomial(2, 1, {(1, 0): 1.0})
    found = find_critical_pairs(f)
    assert len(found.pairs) == 2
    assert _has_pair(found.pairs, [1.0, 0.0], 1.0)
    assert _has_pair(found.pairs, [-1.0, 0.0], -1.0)


def test_weighted_quadratic_eigenpairs(diag123):
    found = find_critical_pairs(diag123)
    assert len(found.pairs) == 6
    for k, lam in ((0, 1.0), (1, 2.0), (2, 3.0)):
        e = np.zeros(3)
        e[k] = 1.0
        assert _has_pair(found.pairs, e, lam)
        assert _has_pair(found.pairs, -e, lam)


def test_cubic_sum_six_pairs(cubic_sum):
    # Exact critical directions: e1, e2, (1,1)/sqrt(2) and antipodes, with
    # lam = 3 f(x) (hand factorization of x2 f_x1 - x1 f_x2 = 3 x1 x2 (x1 - x2)).
    found = find_critical_pairs(cubic_sum)
    assert len(found.pairs) == 6
    s = 1.0 / math.sqrt(2.0)
    for x, lam in [
        ([1, 0], 3.0),
        ([0, 1], 3.0),
        ([s, s], 3.0 / math.sqrt(2.0)),
        ([-1, 0], -3.0),
        ([0, -1], -3.0),
        ([-s, -s], -3.0 / math.sqrt(2.0)),
    ]:
        assert _has_pair(found.pairs, x, lam), (x, lam)


def test_pair_invariants_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        f = random_polynomial(n, d, rng)
        tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
        found = find_critical_pairs(f, SolverConfig(seed=int(rng.integers(1 << 30))))
        assert found.pairs, "expected at least one critical pair"
        for p in found.pairs:
            assert p.residual <= tol
            assert abs(p.x @ p.x - 1) <= 1e-12
            assert abs(np.linalg.norm(p.x) - 1.0) <= 1e-12
            # Euler identity under the FONC pins the multiplier.
            assert abs(p.lam - f.d * f.evaluate(p.x)) <= tol


def test_antipodal_closure():
    rng = np.random.default_rng(17)
    for d in (2, 3, 4, 5):
        f = random_polynomial(3, d, rng)
        found = find_critical_pairs(f)
        sign = 1.0 if d % 2 == 0 else -1.0
        for p in found.pairs:
            mirrored = [
                q
                for q in found.pairs
                if np.linalg.norm(q.x + p.x) <= DEFAULT_DEDUP_RADIUS
            ]
            assert mirrored, f"antipode missing for {p.x}"
            assert abs(mirrored[0].lam - sign * p.lam) <= 1e-8


def test_pairwise_separation_respects_dedup_radius():
    f = random_polynomial(3, 3, 21)
    found = find_critical_pairs(f)
    for i, p in enumerate(found.pairs):
        for q in found.pairs[i + 1 :]:
            assert np.linalg.norm(p.x - q.x) > DEFAULT_DEDUP_RADIUS


def test_zero_polynomial_rejected():
    zero = HomogeneousPolynomial(2, 2, {})
    with pytest.raises(ZeroPolynomialError):
        find_critical_pairs(zero)
    with pytest.raises(ZeroPolynomialError):
        enumerate_critical_pairs_n2(zero)


def test_enumeration_matches_hand_factorization(cubic_sum):
    found = enumerate_critical_pairs_n2(cubic_sum)
    assert not found.all_critical
    assert len(found.pairs) == 6
    s = 1.0 / math.sqrt(2.0)
    assert _has_pair(found.pairs, [s, s], 3.0 * cubic_sum.evaluate([s, s]))


def test_enumeration_diagonal_quadratic():
    f = HomogeneousPolynomial(2, 2, {(2, 0): 0.5, (0, 2): 1.0})
    found = enumerate_critical_pairs_n2(f)
    assert len(found.pairs) == 4
    assert _has_pair(found.pairs, [1.0, 0.0], 1.0)
    assert _has_pair(found.pairs, [-1.0, 0.0], 1.0)
    assert _has_pair(found.pairs, [0.0, 1.0], 2.0)
    assert _has_pair(found.pairs, [0.0, -1.0], 2.0)


def test_enumeration_radial_special_case():
    f = HomogeneousPolynomial(2, 4, {(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0})
    found = enumerate_critical_pairs_n2(f)
    assert found.all_critical
    # Newton leaves e1 untouched: the residual there is exactly zero.
    X = np.array([p.x for p in found.pairs])
    assert X.tobytes() == np.array([[-1.0, -0.0], [1.0, 0.0]]).tobytes()
    assert found.starts_used == 2
    assert found.converged_fraction == 1.0
    for p in found.pairs:
        assert abs(p.lam - 4.0) <= 1e-9


def test_enumeration_requires_n2(diag123):
    with pytest.raises(ValueError, match="n = 2"):
        enumerate_critical_pairs_n2(diag123)


def test_direction_count_bounded_by_degree():
    # At most d projective critical directions (roots of a degree-d binary
    # form), i.e. at most 2d points, unless the radial case triggers.
    rng = np.random.default_rng(31)
    for d in (2, 3, 4, 5):
        for _ in range(5):
            f = random_polynomial(2, d, rng)
            found = enumerate_critical_pairs_n2(f)
            assert not found.all_critical
            assert len(found.pairs) <= 2 * d


def test_certification_on_cubic(cubic_sum):
    report = certify_against_oracle(cubic_sum)
    assert report.certified
    assert report.matched == 6
    assert not report.only_multistart and not report.only_oracle


def test_certification_random_batch():
    # Stochastic miss budget: at most one failure out of thirty runs.
    certified = 0
    for i in range(30):
        d = (3, 4, 5)[i % 3]
        f = random_polynomial(2, d, 5000 + i)
        report = certify_against_oracle(f, SolverConfig(seed=6000 + i))
        certified += bool(report.certified)
    assert certified >= 29


def test_certification_flags_radial_case():
    f = HomogeneousPolynomial(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    report = certify_against_oracle(f)
    assert report.all_critical
    assert not report.certified


def test_deterministic_given_seed():
    f = random_polynomial(3, 3, 77)
    a = find_critical_pairs(f, SolverConfig(seed=5))
    b = find_critical_pairs(f, SolverConfig(seed=5))
    assert len(a.pairs) == len(b.pairs)
    for p, q in zip(a.pairs, b.pairs):
        assert np.array_equal(p.x, q.x)
        assert p.lam == q.lam


def test_starts_default_and_override():
    f = random_polynomial(2, 3, 1)
    found = find_critical_pairs(f)
    assert found.starts_used == 50 * 3 * 2
    found = find_critical_pairs(f, SolverConfig(starts=37))
    assert found.starts_used == 37


@pytest.mark.parametrize(
    "fields",
    [{"tol_crit": math.nan}, {"tol_crit": -1e-9}, {"dedup_radius": math.nan},
     {"dedup_radius": -1.0}, {"dedup_radius": math.inf}],
)
def test_bad_solver_tolerance_rejected(fields):
    with pytest.raises(ValueError, match="finite and non-negative"):
        SolverConfig(**fields)
    with pytest.raises(ValueError, match="finite and non-negative"):
        enumerate_critical_pairs_n2(random_polynomial(2, 3, 1), **fields)


def test_n1_sphere_is_two_points():
    f = HomogeneousPolynomial(1, 3, {(3,): 2.0})
    found = find_critical_pairs(f)
    assert len(found.pairs) == 2
    assert _has_pair(found.pairs, [1.0], 6.0)
    assert _has_pair(found.pairs, [-1.0], -6.0)


def test_weighted_quadratic_multistart_matches_oracle_n2():
    p = weighted_axis_quadratic(2)
    report = certify_against_oracle(p)
    assert report.certified and report.matched == 4


def test_degenerate_circle_points_land_on_locus():
    # x1^3 with n = 2: the degenerate pair +-e2 must be located to high
    # accuracy despite the singular Jacobian there (multiple-root polish).
    f = HomogeneousPolynomial(2, 3, {(3, 0): 1.0})
    found = find_critical_pairs(f, SolverConfig(seed=2))
    near_e2 = [p for p in found.pairs if abs(p.x[1]) > 0.9]
    assert near_e2
    for p in near_e2:
        assert abs(p.x[0]) <= 1e-7
        assert abs(p.lam) <= 1e-9


def test_converged_fraction_reported():
    f = random_polynomial(2, 4, 10)
    found = find_critical_pairs(f)
    assert 0.0 < found.converged_fraction <= 1.0


def test_collect_pairs_closure_on_critical_subsphere():
    # x1^4 in four variables: the whole subsphere x1 = 0 is critical, so the
    # solver returns about as many pairs as it has starts.  The set must be
    # closed under x -> -x (lam unchanged for even d), its points must stay
    # more than dedup_radius apart, and its size is pinned to the 1512 pairs
    # the solver returns for this seed (1518 with an 8-slow-step cap).
    cfg = SolverConfig(seed=0)
    f = axis_monomial(4, 4)
    found = find_critical_pairs(f, cfg)
    X = np.array([p.x for p in found.pairs])
    lam = np.array([p.lam for p in found.pairs])
    assert len(found.pairs) == 1512
    for i, x in enumerate(X):
        dist = np.linalg.norm(X - x, axis=1)
        dist[i] = np.inf
        assert dist.min() > cfg.dedup_radius
        twin = np.argmin(np.linalg.norm(X + x, axis=1))
        assert np.linalg.norm(X[twin] + x) <= cfg.dedup_radius
        assert abs(lam[twin] - lam[i]) <= scaled_tolerance(f, DEFAULT_TOL_CRIT)


def _sequential_halving_polish(
    f,
    X0,
    lam0,
    *,
    accept_tol,
    max_slow_steps=critsolve.MAX_SLOW_STEPS,
):
    """Reference damped Newton that tries one step length per residual call.

    Same iteration, acceptance, stall and multiple-root polish rules as
    ``critsolve._newton_polish``; only the backtracking loop differs, halving
    the step of every row still looking after each call.  ``max_slow_steps``
    is the number of consecutive slow iterations that abandons a row.
    """
    n = f.n
    stop_tol = scaled_tolerance(f, 1e-13)
    Z = np.concatenate([np.asarray(X0, float), np.asarray(lam0, float)[:, None]], axis=1)
    with np.errstate(all="ignore"):
        F = critsolve._system_residual(f, Z[:, :n], Z[:, n])
    Fn = np.linalg.norm(F, axis=1)
    active = np.isfinite(Fn)
    done = np.zeros(Z.shape[0], dtype=bool)
    stalls = np.zeros(Z.shape[0], dtype=np.int64)
    for _ in range(critsolve.MAX_ITERATIONS):
        finished = active & (Fn <= stop_tol)
        done |= finished
        active &= ~finished
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        with np.errstate(all="ignore"):
            J = critsolve._system_jacobian(f, Z[rows, :n], Z[rows, n])
            J[~np.isfinite(J)] = 0.0
            steps, usable = critsolve._solve_steps(J, -F[rows])
        before = Fn[rows].copy()
        improved = np.zeros(rows.size, dtype=bool)
        t = np.ones(rows.size)
        trying = np.flatnonzero(usable)
        for _ in range(critsolve.MAX_HALVINGS + 1):
            if trying.size == 0:
                break
            sub = rows[trying]
            trial = Z[sub] + t[trying, None] * steps[trying]
            with np.errstate(all="ignore"):
                Ft = critsolve._system_residual(f, trial[:, :n], trial[:, n])
            Ftn = np.linalg.norm(Ft, axis=1)
            ok = np.isfinite(Ftn) & (Ftn < Fn[sub])
            acc = sub[ok]
            Z[acc] = trial[ok]
            F[acc] = Ft[ok]
            Fn[acc] = Ftn[ok]
            improved[trying[ok]] = True
            trying = trying[~ok]
            t[trying] *= 0.5
        moved = rows[improved]
        slow = Fn[moved] > 0.9 * before[improved]
        stalls[moved[slow]] += 1
        stalls[moved[~slow]] = 0
        abandon = np.concatenate([rows[~improved], moved[stalls[moved] >= max_slow_steps]])
        done[abandon[Fn[abandon] <= accept_tol]] = True
        active[abandon] = False
    done |= active & (Fn <= accept_tol)

    floor = scaled_tolerance(f, 1e-14)
    polish = np.flatnonzero(done & (Fn > floor))
    for _ in range(8):
        if polish.size == 0:
            break
        with np.errstate(all="ignore"):
            J = critsolve._system_jacobian(f, Z[polish, :n], Z[polish, n])
            J[~np.isfinite(J)] = 0.0
            steps, usable = critsolve._lstsq_steps(J, -F[polish])
        best_norm = Fn[polish].copy()
        best_z = Z[polish].copy()
        best_f = F[polish].copy()
        moved = np.zeros(polish.size, dtype=bool)
        for factor in (1.0, 2.0, 3.0):
            trial = Z[polish] + factor * steps
            with np.errstate(all="ignore"):
                Ft = critsolve._system_residual(f, trial[:, :n], trial[:, n])
            Ftn = np.linalg.norm(Ft, axis=1)
            better = usable & np.isfinite(Ftn) & (Ftn < best_norm)
            best_z[better] = trial[better]
            best_f[better] = Ft[better]
            best_norm[better] = Ftn[better]
            moved |= better
        Z[polish] = best_z
        F[polish] = best_f
        Fn[polish] = best_norm
        polish = polish[moved & (best_norm > floor)]
    return Z[:, :n], Z[:, n], done


@pytest.mark.parametrize(
    "f",
    [
        random_polynomial(2, 3, 101),
        random_polynomial(3, 4, 102),
        random_polynomial(4, 3, 103),
        axis_monomial(3, 4),
    ],
    ids=["random(2,3)", "random(3,4)", "random(4,3)", "axis_monomial(3,4)"],
)
def test_step_ladder_matches_sequential_halving(f):
    # The block ladder must pick the longest decreasing step, exactly as
    # halving one step length per call does.  Batch shapes differ, so BLAS
    # may round the residuals differently in the last bits.
    rng = np.random.default_rng(7)
    X0 = rng.standard_normal((50 * f.n * f.d, f.n))
    X0 /= np.linalg.norm(X0, axis=1)[:, None]
    tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
    lam0 = f.d * f.evaluate_many(X0)
    X, lam, done = critsolve._newton_polish(f, X0, lam0, accept_tol=tol)
    X_ref, lam_ref, done_ref = _sequential_halving_polish(f, X0, lam0, accept_tol=tol)
    np.testing.assert_array_equal(done, done_ref)
    np.testing.assert_allclose(X[done], X_ref[done], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(lam[done], lam_ref[done], rtol=0.0, atol=1e-12)


def _greedy_dedup_reference(X, res, dedup_radius):
    kept = []
    for i in np.argsort(res, kind="stable"):
        if all(np.linalg.norm(X[j] - X[i]) > dedup_radius for j in kept):
            kept.append(int(i))
    return sorted(kept)


@pytest.mark.parametrize("X", [np.zeros((0, 3)), np.full((4, 3), 0.25)], ids=["empty", "short"])
def test_collect_pairs_without_usable_rows(X):
    # No rows, or rows too short to normalize: nothing survives.
    f = random_polynomial(3, 3, 4)
    assert critsolve._collect_pairs(f, X, np.ones(X.shape[0]), 1e-6, 1e-6) == []


def test_collect_pairs_dedup_matches_greedy_reference():
    # Every unit vector is critical for x.x with lam = 2; a distinct offset
    # of lam per row orders the rows by residual and identifies each kept one.
    f = HomogeneousPolynomial(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    radius = 1e-6
    rng = np.random.default_rng(11)
    base = rng.standard_normal((40, 3))
    base[:, 0] = np.abs(base[:, 0]) + 1.0  # one hemisphere: every antipode is new
    base /= np.linalg.norm(base, axis=1)[:, None]
    cloud = [base, base[:10]]  # exact duplicates
    for scale in (0.9, 1.1, 1.8, 2.2):  # neighbours and chains of neighbours
        u = rng.standard_normal(base.shape)
        u -= np.einsum("ij,ij->i", u, base)[:, None] * base
        u /= np.linalg.norm(u, axis=1)[:, None]
        cloud.append(base + scale * radius * u)
    X = np.concatenate(cloud)
    X /= np.linalg.norm(X, axis=1)[:, None]
    lam = 2.0 + rng.permutation(X.shape[0]) * 1e-12
    res = np.linalg.norm(f.gradient_many(X) - lam[:, None] * X, axis=1)

    pairs = critsolve._collect_pairs(f, X, lam, 1e-6, radius)
    kept = sorted(int(np.flatnonzero(lam == p.lam)[0]) for p in pairs if p.x[0] > 0)
    expected = _greedy_dedup_reference(X, res, radius)
    assert kept == expected
    assert len(pairs) == 2 * len(expected)
    assert 40 < len(expected) < X.shape[0]


@pytest.mark.parametrize(
    "f",
    [random_polynomial(3, 3, 2), axis_monomial(3, 4), weighted_axis_quadratic(4)],
    ids=["random(3,3)", "axis_monomial(3,4)", "weighted_axis_quadratic(4)"],
)
def test_collect_pairs_sorted_by_lambda_then_x(f):
    # Ascending (lam, x1, ..., xn) whatever the input order; ties in lam
    # (the +-e_k pairs, the critical subsphere) are broken by x.
    pairs = find_critical_pairs(f, SolverConfig(seed=1)).pairs
    X = np.array([p.x for p in pairs])
    lam = np.array([p.lam for p in pairs])
    order = np.random.default_rng(5).permutation(len(pairs))
    again = critsolve._collect_pairs(
        f, X[order], lam[order], scaled_tolerance(f, DEFAULT_TOL_CRIT), 1e-6
    )
    assert len(again) == len(pairs)
    for found in (pairs, again):
        keys = [(p.lam, tuple(p.x)) for p in found]
        assert keys == sorted(keys)


def test_early_abandon_keeps_every_critical_class(monkeypatch):
    # Starts that stay slow for MAX_SLOW_STEPS iterations are abandoned.  The
    # critical classes must be those found when such rows may wander for
    # eight slow iterations.
    cases = [(n, d, 300 + 10 * n + d + k) for n, d in ((3, 3), (3, 4), (4, 3)) for k in range(8)]
    fast = [
        find_critical_pairs(random_polynomial(n, d, s), SolverConfig(seed=s)) for n, d, s in cases
    ]
    reference = functools.partial(_sequential_halving_polish, max_slow_steps=8)
    monkeypatch.setattr(critsolve, "_newton_polish", reference)
    for (n, d, s), found in zip(cases, fast):
        slow = find_critical_pairs(random_polynomial(n, d, s), SolverConfig(seed=s))
        assert len(found.pairs) == len(slow.pairs), (n, d, s)
        assert all(_has_pair(slow.pairs, p.x, p.lam) for p in found.pairs), (n, d, s)


def test_solve_steps_skips_det_on_nonsingular_batch(monkeypatch):
    J = np.random.default_rng(1).standard_normal((50, 4, 4))
    rhs = np.random.default_rng(2).standard_normal((50, 4))

    def no_det(_):
        raise AssertionError("det called on a nonsingular batch")

    monkeypatch.setattr(np.linalg, "det", no_det)
    steps, usable = critsolve._solve_steps(J, rhs)
    assert usable.all()
    np.testing.assert_array_equal(steps, np.linalg.solve(J, rhs[..., None])[..., 0])


def test_solve_steps_flags_singular_row():
    J = np.random.default_rng(3).standard_normal((20, 4, 4))
    J[7] = np.outer([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 2.0, 0.5])  # rank one
    rhs = np.random.default_rng(4).standard_normal((20, 4))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J[7], rhs[7])
    steps, usable = critsolve._solve_steps(J, rhs)
    assert np.flatnonzero(~usable).tolist() == [7]
    for i in np.flatnonzero(usable):
        np.testing.assert_array_equal(steps[i], np.linalg.solve(J[i], rhs[i]))


def test_solve_steps_row_fallback_flags_lapack_rejection(monkeypatch):
    # A det that misses the singular row leaves it to the row-by-row solve,
    # which must still flag it.
    J = np.random.default_rng(5).standard_normal((6, 3, 3))
    J[2] = 0.0
    rhs = np.ones((6, 3))
    monkeypatch.setattr(np.linalg, "det", lambda J: np.ones(J.shape[0]))
    steps, usable = critsolve._solve_steps(J, rhs)
    assert np.flatnonzero(~usable).tolist() == [2]
    for i in np.flatnonzero(usable):
        np.testing.assert_array_equal(steps[i], np.linalg.solve(J[i], rhs[i]))


def _count_rows(monkeypatch, name):
    rows = []
    inner = getattr(critsolve, name)

    def counted(f, X, lam):
        rows.append(X.shape[0])
        return inner(f, X, lam)

    monkeypatch.setattr(critsolve, name, counted)
    return rows


def test_residual_calls_per_solve_bounded(monkeypatch):
    # Backtracking tests a block of step lengths per residual call, and
    # starts that stay slow are dropped early.  On this solve sequential
    # halving made 526 residual calls; the block ladder made 75 residual and
    # 21 Jacobian calls with an 8-slow-step cap, and 30 and 11 with
    # MAX_SLOW_STEPS = 2.  The counts are deterministic, so the ceilings
    # guard the work without timing.
    residual_rows = _count_rows(monkeypatch, "_system_residual")
    jacobian_rows = _count_rows(monkeypatch, "_system_jacobian")
    found = find_critical_pairs(random_polynomial(3, 4, 5), SolverConfig(seed=1))
    assert found.pairs
    assert len(residual_rows) <= 40
    assert len(jacobian_rows) <= 14
    assert max(residual_rows) <= found.starts_used
