"""Multistart solver, exact n = 2 enumeration, and their cross-certification."""

import functools
import math
from pathlib import Path

import numpy as np
import pytest

from spherecrit import critsolve
from spherecrit import (
    HomogeneousPolynomial,
    SolverConfig,
    ZeroPolynomialError,
    analyze_points,
    certify_against_oracle,
    classify_all,
    enumerate_critical_pairs_n2,
    exact_oracle_n2,
    find_critical_pairs,
    axis_monomial,
    random_polynomial,
    read_polynomial,
    run_degenerate_family,
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


def _assert_exact_antipodal_pairs(X, lam, res, d):
    """Row (x, lam, r) implies row (-x, (-1)^d lam, r), x and lam bitwise."""
    rows = {np.append(x, l).tobytes(): r for x, l, r in zip(X, lam, res.tolist())}
    for x, l, r in zip(X, lam, res.tolist()):
        twin = np.append(-x, (-1.0) ** d * l).tobytes()
        assert rows.get(twin) == r, f"no exact antipode for {x}"


def test_antipodal_closure():
    # Every returned row's mirror is returned bitwise: the four criterion-4
    # shapes and (4,4), critical subspheres, and the n = 2 enumeration.
    shapes = ((2, 3), (3, 3), (2, 4), (3, 4), (4, 4))
    cases = [(find_critical_pairs, random_polynomial(n, d, 17 + d)) for n, d in shapes]
    cases += [(find_critical_pairs, axis_monomial(n, d)) for n, d in ((3, 3), (4, 4))]
    cases += [(enumerate_critical_pairs_n2, random_polynomial(2, d, 17)) for d in (3, 4, 5, 8)]
    for solve, f in cases:
        found = solve(f)
        _assert_exact_antipodal_pairs(found.X, found.lam, found.residual, f.d)


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
    # form), i.e. at most 2d points, unless the radial case triggers.  The
    # complex roots of a generic g come in conjugate pairs, so the number of
    # real directions has the parity of d.
    rng = np.random.default_rng(31)
    for d in (2, 3, 4, 5):
        for _ in range(5):
            f = random_polynomial(2, d, rng)
            found = enumerate_critical_pairs_n2(f)
            assert not found.all_critical
            assert len(found.pairs) <= 2 * d
            assert (len(found.pairs) // 2) % 2 == d % 2


@pytest.mark.parametrize(
    "f",
    [
        HomogeneousPolynomial(2, 2, {(2, 0): 1 / 7, (0, 2): 1 / 7}),
        HomogeneousPolynomial(2, 4, {(4, 0): 0.1, (2, 2): 0.2, (0, 4): 0.1}),
        HomogeneousPolynomial(2, 4, {(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0}),
        # fl(1/3) (x1^2 + x2^2)^3: 3 fl(1/3) rounds to 1, so f is radial only
        # up to rounding and its g is not zero.
        HomogeneousPolynomial(2, 6, {(6, 0): 1 / 3, (4, 2): 1.0, (2, 4): 1.0, (0, 6): 1 / 3}),
        *(random_polynomial(2, d, 900 + d) for d in (2, 3, 4, 5, 8)),
    ],
    ids=["(x1^2+x2^2)/7", "0.1(x1^2+x2^2)^2", "(x1^2+x2^2)^2", "fl(1/3)(x1^2+x2^2)^3"]
    + [f"random_d{d}" for d in (2, 3, 4, 5, 8)],
)
def test_enumeration_radial_exactly_when_oracle_minors_vanish(f):
    # All four witness minors vanish exactly when g = 0, which is the
    # enumeration's radial test.
    assert enumerate_critical_pairs_n2(f).all_critical == exact_oracle_n2(f).minors_all_zero


def test_certification_on_cubic(cubic_sum):
    report = certify_against_oracle(cubic_sum)
    assert report.certified
    assert report.matched == 6
    assert report.only_multistart.shape == report.only_oracle.shape == (0, 2)


def test_certification_random_batch():
    # Stochastic miss budget: at most one failure out of thirty runs.
    certified = 0
    for i in range(30):
        d = (3, 4, 5)[i % 3]
        f = random_polynomial(2, d, 5000 + i)
        report = certify_against_oracle(f, SolverConfig(seed=6000 + i))
        certified += bool(report.certified)
    assert certified >= 29


def test_certification_reports_points_only_the_oracle_found():
    f = random_polynomial(2, 3, 4)
    report = certify_against_oracle(f, SolverConfig(starts=1, seed=0))
    assert not report.certified
    assert report.matched == 2
    assert report.only_oracle.shape == (4, 2)
    assert report.only_multistart.shape == (0, 2)
    # Each unmatched row is an oracle point; lam = d f(x) recovers its multiplier.
    oracle = enumerate_critical_pairs_n2(f)
    for x in report.only_oracle:
        i = np.flatnonzero((oracle.X == x).all(axis=1))
        assert i.size == 1 and oracle.lam[i[0]] == pytest.approx(f.d * f.evaluate(x), abs=1e-12)


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


@pytest.mark.parametrize(
    "f",
    [random_polynomial(3, 3, 77), axis_monomial(3, 3), HomogeneousPolynomial(1, 3, {(3,): 2.0})],
    ids=["random(3,3)", "axis_monomial(3,3)", "n1"],
)
def test_pairs_view_matches_arrays_bitwise(f):
    # The pairs view is built from X, lam and residual when read, row for row.
    found = find_critical_pairs(f, SolverConfig(seed=5))
    pairs = found.pairs
    k = found.lam.shape[0]
    assert k > 0 and len(pairs) == k
    assert found.X.shape == (k, f.n) and found.residual.shape == (k,)
    for i, p in enumerate(pairs):
        assert p.x.tobytes() == found.X[i].tobytes()
        assert type(p.lam) is float and p.lam == found.lam[i]
        assert type(p.residual) is float and p.residual == found.residual[i]
    assert [p.lam for p in pairs[1::2]] == found.lam[1::2].tolist()
    assert pairs[-1].x.tobytes() == found.X[-1].tobytes()
    pairs[0].x[:] = np.nan  # a pair's x is a copy: the set cannot be edited through it
    assert np.isfinite(found.X).all()


def test_empty_critical_set_keeps_its_shape():
    # A unit-norm form whose single start does not converge (the default
    # start count finds points), so the set is empty; its arrays keep
    # (0, n) through the analysis and the classified list.
    f = HomogeneousPolynomial(
        3, 4, {(0, 4, 0): 0.5, (1, 1, 2): 0.5, (2, 1, 1): -0.5, (1, 2, 1): -0.5}
    )
    assert f.coefficient_norm == 1.0
    config = SolverConfig(starts=1, seed=1)
    found = find_critical_pairs(f, config)
    assert found.converged_fraction == 0.0
    assert found.X.shape == (0, 3) and found.lam.shape == found.residual.shape == (0,)
    assert len(found.pairs) == 0 and list(found.pairs) == []
    analysis = analyze_points(f, found.X)
    assert analysis.points.shape == (0, 3) and analysis.eigenvalues.shape == (0, 2)
    assert analysis.verdicts == []
    assert classify_all(f, config) == []


def test_starts_default_and_override():
    f = random_polynomial(2, 3, 1)
    found = find_critical_pairs(f)
    assert found.starts_used == 50 * 3 * 2
    found = find_critical_pairs(f, SolverConfig(starts=37))
    assert found.starts_used == 37


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
    # more than DEFAULT_DEDUP_RADIUS apart, and its size is pinned to the 1506 pairs
    # the solver returns for this seed (1518 with an 8-slow-step cap, 1512
    # with 30 halvings per iteration).
    f = axis_monomial(4, 4)
    found = find_critical_pairs(f, SolverConfig(seed=0))
    X = np.array([p.x for p in found.pairs])
    lam = np.array([p.lam for p in found.pairs])
    assert len(found.pairs) == 1506
    for i, x in enumerate(X):
        dist = np.linalg.norm(X - x, axis=1)
        dist[i] = np.inf
        assert dist.min() > DEFAULT_DEDUP_RADIUS
        twin = np.argmin(np.linalg.norm(X + x, axis=1))
        assert np.linalg.norm(X[twin] + x) <= DEFAULT_DEDUP_RADIUS
        assert abs(lam[twin] - lam[i]) <= scaled_tolerance(f, DEFAULT_TOL_CRIT)


def _sequential_halving_polish(
    f,
    X0,
    lam0,
    *,
    accept_tol,
    max_halvings=critsolve.MAX_HALVINGS,
    max_slow_steps=critsolve.MAX_SLOW_STEPS,
):
    """Reference damped Newton that tries one step length per residual call.

    Same iteration, acceptance, stall and multiple-root polish rules as
    ``critsolve._newton_polish``, including its polish gate (singular rows,
    and converged rows whose last accepted step left more than 10 % of the
    residual); only the backtracking loop differs, halving
    the step of every row still looking after each call.  ``max_halvings``
    is the number of halvings a row tries before it is abandoned, and
    ``max_slow_steps`` the number of consecutive slow iterations that
    abandons a row.
    """
    n = f.n
    stop_tol = scaled_tolerance(f, 1e-13)
    Z = np.concatenate([np.asarray(X0, float), np.asarray(lam0, float)[:, None]], axis=1)
    with np.errstate(all="ignore"):
        F = critsolve._system_residual(f, Z[:, :n], Z[:, n])
    Fn = np.linalg.norm(F, axis=1)
    active = np.isfinite(Fn)
    done = np.zeros(Z.shape[0], dtype=bool)
    singular = np.zeros(Z.shape[0], dtype=bool)
    linear = np.ones(Z.shape[0], dtype=bool)
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
        singular[rows[~usable]] = True
        before = Fn[rows].copy()
        improved = np.zeros(rows.size, dtype=bool)
        t = np.ones(rows.size)
        trying = np.flatnonzero(usable)
        for _ in range(max_halvings + 1):
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
        linear[moved] = Fn[moved] > 0.1 * before[improved]
        stalls[moved[slow]] += 1
        stalls[moved[~slow]] = 0
        abandon = np.concatenate([rows[~improved], moved[stalls[moved] >= max_slow_steps]])
        done[abandon[Fn[abandon] <= accept_tol]] = True
        active[abandon] = False
    done |= active & (Fn <= accept_tol)

    floor = scaled_tolerance(f, 1e-14)
    polish = np.flatnonzero(((done & linear) | singular) & (Fn > floor))
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
    done |= singular & (Fn <= accept_tol)
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
    # No rows, or rows too short to normalize: nothing survives, and the
    # empty arrays keep their row shapes.
    f = random_polynomial(3, 3, 4)
    X, lam, res = critsolve._collect_pairs(f, X, np.ones(X.shape[0]), 1e-6)
    assert X.shape == (0, 3) and lam.shape == (0,) and res.shape == (0,)


def _tangent_offsets(rng, X, scales):
    """Rows of X moved by scales (times DEFAULT_DEDUP_RADIUS) in random tangent directions."""
    u = rng.standard_normal(X.shape)
    u -= np.einsum("ij,ij->i", u, X)[:, None] * X
    u /= np.linalg.norm(u, axis=1)[:, None]
    return X + np.reshape(scales, (-1, 1)) * DEFAULT_DEDUP_RADIUS * u


def _scattered_cloud(rng):
    # 40 points on one hemisphere, so every antipode is new, plus exact
    # duplicates, neighbours and chains of neighbours.
    base = rng.standard_normal((40, 3))
    base[:, 0] = np.abs(base[:, 0]) + 1.0
    base /= np.linalg.norm(base, axis=1)[:, None]
    cloud = [base, base[:10]]
    cloud += [_tangent_offsets(rng, base, scale) for scale in (0.9, 1.1, 1.8, 2.2)]
    X = np.concatenate(cloud)
    return X, 2.0 + rng.permutation(X.shape[0]) * 1e-12


def _clustered_cloud(rng):
    # What a real solve hands over: hundreds of converged rows on a few
    # points, nearly all within 1e-3 radii of their point, one cluster
    # spread over about a radius, and every row's antipode with lam 1e-12
    # higher.  An antipode duplicates its row's mirror bitwise and ranks
    # after it, so it is never kept.
    centres = rng.standard_normal((5, 3))
    centres /= np.linalg.norm(centres, axis=1)[:, None]
    which = rng.integers(0, centres.shape[0], 300)
    spread = np.where(which == 0, 1.0, 1e-3) * rng.random(which.size)
    X = _tangent_offsets(rng, centres[which], spread)
    lam = 2.0 + rng.permutation(X.shape[0]) * 2e-12
    return np.concatenate([X, -X]), np.concatenate([lam, lam + 1e-12])


def test_collect_pairs_dedup_matches_greedy_reference():
    # Every unit vector is critical for x.x with lam = 2; a distinct offset
    # of lam per row orders the rows by residual and identifies each kept
    # one.  The reference dedups the mirrored set: each normalized row
    # followed by (-x, lam) with its residual.  ``kept_range`` bounds the
    # kept count: most clustered rows are covered.
    f = HomogeneousPolynomial(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    cases = [(_scattered_cloud, (82, 418)), (_clustered_cloud, (10, 30))]
    for cloud, kept_range in cases:
        X, lam = cloud(np.random.default_rng(11))
        X /= np.linalg.norm(X, axis=1)[:, None]
        res = np.linalg.norm(f.gradient_many(X) - lam[:, None] * X, axis=1)

        X_out, lam_out, res_out = critsolve._collect_pairs(f, X, lam, 1e-6)
        # Mirrored row i is kept when the output holds its (x, lam) bitwise,
        # x normalized as _collect_pairs does.
        Xn = X / np.linalg.norm(X, axis=1)[:, None]
        Xm = np.stack([Xn, -Xn], axis=1).reshape(-1, 3)
        lam_m = np.repeat(lam, 2)
        same = (X_out[:, None, :] == Xm).all(axis=2) & (lam_out[:, None] == lam_m)
        kept = np.flatnonzero(same.any(axis=0)).tolist()
        expected = _greedy_dedup_reference(Xm, np.repeat(res, 2), DEFAULT_DEDUP_RADIUS)
        assert kept == expected, cloud.__name__
        assert lam_out.shape[0] == len(expected), cloud.__name__
        assert kept_range[0] <= len(expected) <= kept_range[1], cloud.__name__
        _assert_exact_antipodal_pairs(X_out, lam_out, res_out, f.d)


@pytest.mark.parametrize(
    "f",
    [random_polynomial(3, 3, 2), axis_monomial(3, 4), weighted_axis_quadratic(4)],
    ids=["random(3,3)", "axis_monomial(3,4)", "weighted_axis_quadratic(4)"],
)
def test_collect_pairs_sorted_by_lambda_then_x(f):
    # Ascending (lam, x1, ..., xn) whatever the input order; ties in lam
    # (the +-e_k pairs, the critical subsphere) are broken by x.
    found = find_critical_pairs(f, SolverConfig(seed=1))
    order = np.random.default_rng(5).permutation(found.lam.shape[0])
    tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
    again = critsolve._collect_pairs(f, found.X[order], found.lam[order], tol)
    assert again[1].shape == found.lam.shape
    for X, lam in ((found.X, found.lam), again[:2]):
        keys = [(lam_i, tuple(x)) for x, lam_i in zip(X.tolist(), lam.tolist())]
        assert keys == sorted(keys)


@pytest.mark.slow
def test_early_abandon_keeps_every_critical_class(monkeypatch):
    # Starts that stay slow for MAX_SLOW_STEPS iterations, or find no
    # decrease within MAX_HALVINGS halvings, are abandoned.  The critical
    # classes must be those found when such rows may wander for eight slow
    # iterations and halve their step down to 2^-30.
    shapes = ((2, 8), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3))
    cases = [(n, d, 300 + 10 * n + d + k) for n, d in shapes for k in range(8)]
    fast = [
        find_critical_pairs(random_polynomial(n, d, s), SolverConfig(seed=s)) for n, d, s in cases
    ]
    reference = functools.partial(_sequential_halving_polish, max_halvings=30, max_slow_steps=8)
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


def _singular_start():
    # On x1^3 with lam = 0 the Jacobian rows of x2 and x3 are proportional,
    # so LAPACK rejects the Newton step at this start off the circle x1 = 0.
    f = axis_monomial(3, 3)
    x = np.array([[1e-3, 0.6, 0.8]])
    x /= np.linalg.norm(x)
    return f, x, np.zeros(1), scaled_tolerance(f, DEFAULT_TOL_CRIT)


def test_singular_row_converges_through_polish():
    f, x, lam, tol = _singular_start()
    J = critsolve._system_jacobian(f, x, lam)
    assert not critsolve._solve_steps(J, np.ones((1, 4)))[1].any()
    X, lam, done = critsolve._newton_polish(f, x, lam, accept_tol=tol)
    assert done.tolist() == [True]
    assert abs(X[0, 0]) <= 1e-15 and abs(lam[0]) <= 1e-15
    np.testing.assert_allclose(X[0, 1:], x[0, 1:], rtol=1e-6)


def test_singular_row_without_svd_is_not_converged(monkeypatch):
    f, x, lam, tol = _singular_start()

    def no_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rhs = np.ones((2, 4))
    steps, usable = critsolve._lstsq_steps(np.zeros((2, 4, 4)), rhs)
    assert not usable.any()
    np.testing.assert_array_equal(steps, np.zeros_like(rhs))
    X, _, done = critsolve._newton_polish(f, x, lam, accept_tol=tol)
    assert done.tolist() == [False]
    np.testing.assert_array_equal(X, x)


def _record_polish_rows(monkeypatch):
    """Residual rows handed to the multiple-root polish, one array per call."""
    seen = []
    lstsq = critsolve._lstsq_steps

    def recording(J, rhs):
        seen.append(-rhs)
        return lstsq(J, rhs)

    monkeypatch.setattr(critsolve, "_lstsq_steps", recording)
    return seen


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_polish_skips_quadratically_converged_rows(monkeypatch, n, d):
    # Generic forms have simple roots only.  There Newton converges
    # quadratically, so a converged row's last step cut its residual more
    # than tenfold and the row has no use for the polish.  Without the gate
    # every converged row above the polish floor went there (about 30 to 50
    # rows per solve on these forms).
    seen = _record_polish_rows(monkeypatch)
    for s in range(10):
        found = find_critical_pairs(random_polynomial(n, d, 700 + s), SolverConfig(seed=s))
        assert found.pairs
    assert seen == []


@pytest.mark.parametrize(
    "n, d, pairs", [(3, 3, 724), (2, 4, 6), (3, 4, 1038)], ids=["x1^3 S^2", "x1^4 S^1", "x1^4 S^2"]
)
def test_polish_still_sees_multiple_roots(monkeypatch, n, d, pairs):
    # x1^3 leaves rows with exactly singular Jacobians; Newton converges to
    # the roots of x1^4 only linearly.  Both kinds must reach the polish,
    # and the family check of the constructed instance must still pass.
    # The S^2 counts sample one critical set, so they move with how many
    # wandering starts land on it, not with the points the paper counts.
    seen = _record_polish_rows(monkeypatch)
    found = find_critical_pairs(axis_monomial(n, d), SolverConfig(seed=0))
    assert seen
    assert len(found.pairs) == pairs
    assert run_degenerate_family("single_monomial", n, d, seed=0).passed


def _count_rows(monkeypatch, name):
    rows = []
    inner = getattr(critsolve, name)

    def counted(f, X, lam):
        rows.append(X.shape[0])
        return inner(f, X, lam)

    monkeypatch.setattr(critsolve, name, counted)
    return rows


def _tiny_form(n, d, seed, norm):
    """random_polynomial(n, d, seed) rescaled to coefficient norm ``norm``."""
    base = random_polynomial(n, d, seed).coefficient_vector()
    return HomogeneousPolynomial.from_coefficient_vector(n, d, base * (norm / np.linalg.norm(base)))


def test_residual_calls_per_solve_bounded(monkeypatch):
    # Backtracking tests a block of step lengths per residual call, and
    # starts that stay slow are dropped early.  On the first solve
    # sequential halving made 526 residual calls; the block ladder made 75
    # residual and 21 Jacobian calls with an 8-slow-step cap, 30 and 11 with
    # MAX_SLOW_STEPS = 2, 27 and 10 (12564 residual rows) once quadratically
    # converged rows skip the multiple-root polish, and 19 and 10 (7426
    # rows) with MAX_HALVINGS = 4.  On the tiny-norm form, like the
    # benchmark's, capping the halvings at 4 cut 68 residual calls and
    # 35162 rows to 18 and 6166.  The counts are deterministic, so the
    # ceilings guard the work without timing.
    residual_rows = _count_rows(monkeypatch, "_system_residual")
    jacobian_rows = _count_rows(monkeypatch, "_system_jacobian")
    cases = [(random_polynomial(3, 4, 5), 9000), (_tiny_form(3, 4, 5, 1e-12), 7500)]
    for f, max_rows in cases:
        residual_rows.clear()
        jacobian_rows.clear()
        found = find_critical_pairs(f, SolverConfig(seed=1))
        assert found.pairs
        assert len(residual_rows) <= 24, f.coefficient_norm
        assert sum(residual_rows) <= max_rows, f.coefficient_norm
        assert len(jacobian_rows) <= 14, f.coefficient_norm
        assert max(residual_rows) <= found.starts_used


def _binary_product(*factors):
    """Product of powers (a x1 + b x2)^k, given as (a, b, k) triples."""
    coefs = np.array([1])
    for a, b, k in factors:
        for _ in range(k):
            coefs = np.convolve(coefs, [b, a])  # index = power of x1
    d = len(coefs) - 1
    return HomogeneousPolynomial(2, d, {(i, d - i): float(c) for i, c in enumerate(coefs) if c})


def _record_seeds(monkeypatch):
    seeds = []
    inner = critsolve._solve_from

    def recorded(f, X0):
        seeds.append(X0)
        return inner(f, X0)

    monkeypatch.setattr(critsolve, "_solve_from", recorded)
    return seeds


@pytest.mark.parametrize("d", [3, 4, 5, 8])
def test_enumeration_polishes_only_candidate_roots(monkeypatch, d):
    # Companion roots are accurate to rounding, so Newton has nothing left
    # to do.  Seeding e1 on every form kept two rows in the loop for about
    # five more iterations: 2-10 Jacobian calls per enumeration.
    jacobian_rows = _count_rows(monkeypatch, "_system_jacobian")
    seeds = _record_seeds(monkeypatch)
    rng = np.random.default_rng(7100 + d)
    for _ in range(25):
        calls = len(jacobian_rows)
        found = enumerate_critical_pairs_n2(random_polynomial(2, d, rng))
        assert len(jacobian_rows) - calls <= 1
        assert (seeds[-1][:, 1] != 0.0).all()  # e1 is no root here
        assert found.converged_fraction == 1.0


def _zero_at_infinity():
    return read_polynomial(Path(__file__).parent / "data" / "zero_at_infinity_n2.json")


@pytest.mark.parametrize(
    "f",
    [axis_monomial(2, 3), axis_monomial(2, 4), axis_monomial(2, 5), _zero_at_infinity()],
    ids=["x1^3", "x1^4", "x1^5", "zero_at_infinity_n2"],
)
def test_enumeration_seeds_e1_at_root_at_infinity(monkeypatch, f):
    # g's x1^d coefficient vanishes: x2 = 0 is a root of g at infinity,
    # which the companion matrix of g(t, 1) cannot see.
    seeds = _record_seeds(monkeypatch)
    found = enumerate_critical_pairs_n2(f)
    assert [1.0, 0.0] in seeds[0].tolist() and [-1.0, 0.0] in seeds[0].tolist()
    lam = f.d * f.evaluate([1.0, 0.0])
    assert _has_pair(found.pairs, [1.0, 0.0], lam)
    assert _has_pair(found.pairs, [-1.0, 0.0], (-1) ** f.d * lam)


@pytest.mark.parametrize(
    "factors, points, roots",
    [
        (((1, 2, 6), (1, 1, 2)), 8, (-2, -1)),
        (((1, -1, 4), (2, 1, 1)), 6, (1,)),
        (((1, 0, 3), (1, 1, 3)), 8, (-1,)),
    ],
    ids=["(x1+2x2)^6(x1+x2)^2", "(x1-x2)^4(2x1+x2)", "x1^3(x1+x2)^3"],
)
def test_enumeration_repeated_root_products(factors, points, roots):
    # Four, three and four critical directions.  Each multiple root t of f
    # is a multiple root of g, whose companion roots scatter (or turn
    # complex) unless g's square-free part is taken; then it is found to
    # the last bits, and once.
    found = enumerate_critical_pairs_n2(_binary_product(*factors))
    assert len(found.pairs) == points
    for t in roots:
        u = np.array([t, 1.0]) / math.hypot(t, 1.0)
        assert np.min(np.linalg.norm(found.X - u, axis=1)) <= 1e-12
