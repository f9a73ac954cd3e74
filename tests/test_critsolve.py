"""Multistart solver, exact n = 2 enumeration, and their cross-certification."""

import functools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from spherecrit import critsolve
from spherecrit import (
    HomogeneousPolynomial,
    SolverConfig,
    Verdict,
    ZeroPolynomialError,
    analyze_points,
    certify_against_oracle,
    classify_all,
    enumerate_critical_pairs_n2,
    exact_oracle_n2,
    find_critical_pairs,
    axis_monomial,
    geometric_power_polynomial,
    monomial_basis,
    random_polynomial,
    read_polynomial,
    run_degenerate_family,
    scaled_tolerance,
    weighted_axis_quadratic,
)
from spherecrit.critsolve import (
    DEFAULT_DEDUP_RADIUS,
    DEFAULT_TOL_CRIT,
    DEFAULT_TOL_POLISH,
    DEFAULT_TOL_STOP,
)
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
    # Every returned row is a unit vector whose FONC residual, as the
    # analysis measures it, passes the analysis's threshold: on random forms
    # and on the same forms rescaled to tiny and huge coefficient norms.
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        base = random_polynomial(n, d, rng)
        config = SolverConfig(seed=int(rng.integers(1 << 30)))
        for f in (base, _rescaled(base, 1e-12), _rescaled(base, 1e150)):
            tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
            found = find_critical_pairs(f, config)
            assert found.pairs, "expected at least one critical pair"
            analysis = analyze_points(f, found.X)
            assert Verdict.NOT_CRITICAL not in analysis.verdicts
            assert np.all(analysis.residuals <= analysis.crit_tol)
            for p in found.pairs:
                assert abs(p.x @ p.x - 1) <= 1e-12
                assert abs(np.linalg.norm(p.x) - 1.0) <= 1e-12
                # Euler identity under the FONC pins the multiplier.
                assert abs(p.lam - f.d * f.evaluate(p.x)) <= tol


def _assert_exact_antipodal_pairs(X, lam, d):
    """Row (x, lam) implies row (-x, (-1)^d lam), x and lam bitwise."""
    rows = {np.append(x, l).tobytes() for x, l in zip(X, lam)}
    for x, l in zip(X, lam):
        assert np.append(-x, (-1.0) ** d * l).tobytes() in rows, f"no exact antipode for {x}"


def test_antipodal_closure():
    # Every returned row's mirror is returned bitwise: the four criterion-4
    # shapes and (4,4), critical subspheres, and the n = 2 enumeration.
    shapes = ((2, 3), (3, 3), (2, 4), (3, 4), (4, 4))
    cases = [(find_critical_pairs, random_polynomial(n, d, 17 + d)) for n, d in shapes]
    cases += [(find_critical_pairs, axis_monomial(n, d)) for n, d in ((3, 3), (4, 4))]
    cases += [(enumerate_critical_pairs_n2, random_polynomial(2, d, 17)) for d in (3, 4, 5, 8)]
    for solve, f in cases:
        found = solve(f)
        _assert_exact_antipodal_pairs(found.X, found.lam, f.d)


def _signed_permutation(f, perm, signs):
    """f∘P for (P y)_i = signs[i] * y[perm[i]], built exactly from f's terms:
    exponent i moves to position perm[i], the coefficient takes the sign
    prod signs[i]^e_i."""
    terms = {}
    for exp, coef in f.terms.items():
        moved = [0] * f.n
        for i, e in enumerate(exp):
            moved[perm[i]] = e
        terms[tuple(moved)] = coef * math.prod(int(s) ** e for s, e in zip(signs, exp))
    return HomogeneousPolynomial(f.n, f.d, terms)


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 4), (3, 4), (4, 3), (2, 5)])
def test_answers_invariant_under_signed_permutation(n, d):
    # A signed permutation P of the coordinates is an exact isometry, so f
    # and f∘P have the same critical set up to P: the same point count,
    # verdicts and multipliers, and P maps each point of f∘P onto a point
    # of f.  At n = 2 the exact oracle and the enumeration agree too.
    for i in range(20):
        rng = np.random.default_rng([29, n, d, i])
        f = random_polynomial(n, d, rng)
        perm, signs = rng.permutation(n), rng.choice([-1.0, 1.0], n)
        g = _signed_permutation(f, perm, signs)
        a, b = (find_critical_pairs(h, SolverConfig(seed=i)) for h in (f, g))
        assert a.X.shape == b.X.shape, i
        verdicts = [sorted(analyze_points(h, s.X).verdicts) for h, s in ((f, a), (g, b))]
        assert verdicts[0] == verdicts[1], i
        la, lb = np.sort(a.lam), np.sort(b.lam)
        assert np.all(np.abs(la - lb) <= 1e-9 * np.maximum(1.0, np.abs(la))), i
        gap = np.linalg.norm(signs * b.X[:, perm][:, None] - a.X, axis=2).min(axis=1)
        assert np.all(gap <= DEFAULT_DEDUP_RADIUS), i
        if n == 2:
            assert exact_oracle_n2(g).on_locus == exact_oracle_n2(f).on_locus, i
            rows = [enumerate_critical_pairs_n2(h).X.shape for h in (f, g)]
            assert rows[0] == rows[1], i


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
    assert found.starts_used == 1  # e1 alone is seeded; the merge adds -e1
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


def _eigenvector_classes(n, d):
    """Complex eigenvector classes {x, -x} of a generic form (Cartwright and
    Sturmfels): ((d-1)^n - 1) / (d-2)."""
    return ((d - 1) ** n - 1) // (d - 2)


def test_class_bound_counts_eigenvector_classes():
    # The solver's bound: n classes for a quadratic form (its eigenvectors),
    # one for a linear form (its gradient direction), d at n = 2.
    assert [critsolve._class_bound(n, 2) for n in (1, 2, 5)] == [1, 2, 5]
    assert [critsolve._class_bound(n, 1) for n in (1, 2, 5)] == [1, 1, 1]
    assert [critsolve._class_bound(2, d) for d in (3, 4, 8)] == [3, 4, 8]
    for n, d in ((3, 3), (3, 4), (4, 4), (5, 3), (5, 4), (10, 4)):
        assert critsolve._class_bound(n, d) == _eigenvector_classes(n, d)
    assert critsolve._class_bound(4, 4) == 40


@pytest.mark.parametrize(
    "n, d, forms", [(3, 3, 40), (3, 4, 40), (4, 3, 40), (4, 4, 20), (5, 3, 20)]
)
def test_class_count_bounded_with_parity_above_n2(n, d, forms):
    # A real critical class is a real eigenvector class of the form, and the
    # non-real ones come in conjugate pairs, so a complete critical set of a
    # generic form has at most B classes, with the parity of B.
    bound = _eigenvector_classes(n, d)
    for s in range(forms):
        found = find_critical_pairs(random_polynomial(n, d, [15, n, d, s]), SolverConfig(seed=s))
        k = len(found.X) // 2
        assert k <= bound and (bound - k) % 2 == 0, (s, k, bound)


@pytest.mark.xfail(strict=True, reason="multistart misses one class of 40 (ROADMAP item 6)")
def test_class_count_parity_on_geometric_power_4_4():
    # sum_k 4^k xk^4 has all 40 classes real; at seed 0 multistart returns
    # 78 points, 39 classes, so the parity check fails.
    found = find_critical_pairs(geometric_power_polynomial(4, 4), SolverConfig(seed=0))
    assert (_eigenvector_classes(4, 4) - len(found.X) // 2) % 2 == 0


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
    # The oracle reports g = 0 (where all four witness minors vanish) as
    # gcd_degree -1, which is the enumeration's radial test.
    assert enumerate_critical_pairs_n2(f).all_critical == (exact_oracle_n2(f).gcd_degree == -1)


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
    # The pairs list is built from X and lam when read, row for row.
    found = find_critical_pairs(f, SolverConfig(seed=5))
    pairs = found.pairs
    k = found.lam.shape[0]
    assert k > 0 and len(pairs) == k
    assert found.X.shape == (k, f.n)
    for i, p in enumerate(pairs):
        assert p.x.tobytes() == found.X[i].tobytes()
        assert type(p.lam) is float and p.lam == found.lam[i]
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
    assert found.X.shape == (0, 3) and found.lam.shape == (0,)
    assert len(found.pairs) == 0 and list(found.pairs) == []
    analysis = analyze_points(f, found.X)
    assert analysis.points.shape == (0, 3) and analysis.eigenvalues.shape == (0, 2)
    assert analysis.verdicts == []
    assert classify_all(f, config) == []


def test_starts_default_and_override():
    # ``starts`` is a budget; ``starts_used`` counts the starts Newton
    # polished: the first round, min(half rounded up, 12 B), when they pass
    # the completeness check, and all of them when they do not (x1^3 needs
    # the polish).  A binary cubic has B = 3 classes.
    f = random_polynomial(2, 3, 1)
    assert find_critical_pairs(f).starts_used == 36
    assert find_critical_pairs(f, SolverConfig(starts=37)).starts_used == 19
    assert find_critical_pairs(axis_monomial(3, 3)).starts_used == 50 * 3 * 3
    assert find_critical_pairs(axis_monomial(3, 3), SolverConfig(starts=37)).starts_used == 37


def _rescaled(f, norm):
    """f rescaled to coefficient norm ``norm``."""
    v = f.coefficient_vector()
    return HomogeneousPolynomial.from_coefficient_vector(f.n, f.d, v * (norm / np.linalg.norm(v)))


def _unit_starts(n, starts, seed):
    """The start rows find_critical_pairs draws for ``SolverConfig(starts, seed)``."""
    X0 = np.random.default_rng(seed).standard_normal((starts, n))
    return X0 / np.linalg.norm(X0, axis=1)[:, None]


def _solve_all(f, X0):
    """Every start row of X0 Newton-polished in one pass, then polished and merged."""
    tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
    newton = critsolve._newton_polish(f, X0, f.d * f.evaluate_many(X0), accept_tol=tol)
    return critsolve._finish(f, newton, tol)[0]


@pytest.mark.parametrize(
    "n, d, first_round, fallbacks",
    [(2, 3, 36, ()), (3, 3, 84, ()), (2, 4, 48, ()), (3, 4, 156, ())],
    ids=["2-3", "3-3", "2-4", "3-4"],
)
def test_half_budget_matches_full_budget_on_criterion_4_shapes(n, d, first_round, fallbacks):
    # Generic forms pass the check on the first round of the default budget,
    # 12 B starts here, with the answer of the full budget: the class count
    # and the verdicts.  At (2, 4) seed 17 the round finds all 4 classes, one
    # of them reached twice: k = B passes without the hit check.
    starts = 50 * d * n
    for s in range(20):
        f = random_polynomial(n, d, [24, n, d, s])
        found = find_critical_pairs(f, SolverConfig(seed=s))
        full = _solve_all(f, _unit_starts(n, starts, s))
        assert found.starts_used == (starts if s in fallbacks else first_round), s
        assert full.starts_used == starts, s
        assert found.X.shape == full.X.shape, s
        np.testing.assert_allclose(found.X, full.X, rtol=0.0, atol=1e-9)
        assert analyze_points(f, found.X).verdicts == analyze_points(f, full.X).verdicts, s


@pytest.mark.parametrize(
    "f, seed",
    [
        (axis_monomial(3, 3), 0),
        (_rescaled(random_polynomial(3, 4, 5), 1e-12), 1),
        (geometric_power_polynomial(4, 4), 0),
    ],
    ids=["x1^3(n=3)", "tiny(3,4)", "geometric_power(4,4)"],
)
def test_lazy_second_round_matches_up_front_draw(monkeypatch, f, seed):
    # The second round's starts are drawn only when the first round fails
    # the check, from the same generator.  They and their multipliers are
    # the rows of a draw of the whole budget up front, and so is the result.
    starts = 50 * f.n * f.d
    bound = critsolve._class_bound(f.n, f.d)
    first_round = min((starts + 1) // 2, critsolve.STARTS_PER_CLASS * bound)
    X0 = _unit_starts(f.n, starts, seed)
    lam0 = f.d * f.evaluate_many(X0)
    tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
    rounds = (slice(None, first_round), slice(first_round, None))
    passes = [critsolve._newton_polish(f, X0[r], lam0[r], accept_tol=tol) for r in rounds]
    reference = critsolve._finish(f, tuple(map(np.concatenate, zip(*passes))), tol)[0]

    drawn = []
    inner = critsolve._newton_polish

    def recorded(f, X0, lam0, **kwargs):
        drawn.append((X0, lam0))
        return inner(f, X0, lam0, **kwargs)

    monkeypatch.setattr(critsolve, "_newton_polish", recorded)
    found = find_critical_pairs(f, SolverConfig(seed=seed))
    assert [x.shape[0] for x, _ in drawn] == [first_round, starts - first_round]
    assert np.concatenate([x for x, _ in drawn]).tobytes() == X0.tobytes()
    assert np.concatenate([lam for _, lam in drawn]).tobytes() == lam0.tobytes()
    assert found.starts_used == reference.starts_used == starts
    assert found.converged_fraction == reference.converged_fraction
    assert found.X.tobytes() == reference.X.tobytes()
    assert found.lam.tobytes() == reference.lam.tobytes()


@pytest.mark.parametrize(
    "f, masked", [(random_polynomial(3, 4, 5), False), (axis_monomial(3, 3), True)], ids=["generic", "x1^3"]
)
def test_finish_writes_only_the_polished_rows(f, masked):
    # find_critical_pairs reuses its first pass after _finish only when no
    # row of it is masked: the polish writes into the masked rows alone.
    X0 = _unit_starts(f.n, 156, 1)
    tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
    newton = critsolve._newton_polish(f, X0, f.d * f.evaluate_many(X0), accept_tol=tol)
    polish = newton[3]
    assert polish.any() == masked
    before = [a.copy() for a in newton[:3]]
    critsolve._finish(f, newton, tol)
    for old, new in zip(before, newton[:3]):
        assert old[~polish].tobytes() == new[~polish].tobytes()
    assert (newton[2][polish] < before[2][polish]).any() == masked


def _first_round(f, config):
    """What the check sees on the first round of the starts: class count k,
    bound B, rows needing the multiple-root polish, and the fewest hits."""
    starts = config.starts or 50 * f.d * f.n
    bound = critsolve._class_bound(f.n, f.d)
    first_round = min((starts + 1) // 2, critsolve.STARTS_PER_CLASS * bound)
    X0 = _unit_starts(f.n, starts, config.seed)[:first_round]
    tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
    lam0 = f.d * f.evaluate_many(X0)
    Z, _, Fn, polish = critsolve._newton_polish(f, X0, lam0, accept_tol=tol)
    ok = Fn <= tol
    _, lam, hits = critsolve._collect_pairs(f, Z[ok, :-1], Z[ok, -1], Fn[ok])
    k = lam.size // 2
    return k, bound, int(np.count_nonzero(polish)), int(hits.min()) if hits.size else 0


@pytest.mark.parametrize(
    "f, config, failing",
    [
        (axis_monomial(3, 4), SolverConfig(seed=0), "k > B"),
        (axis_monomial(3, 3), SolverConfig(seed=0), "polish"),
        (_rescaled(random_polynomial(3, 4, 5), 1e-4), SolverConfig(seed=0), "k = 0"),
        (
            HomogeneousPolynomial(
                3, 4, {(0, 4, 0): 0.5, (1, 1, 2): 0.5, (2, 1, 1): -0.5, (1, 2, 1): -0.5}
            ),
            SolverConfig(starts=2, seed=1),
            "k = 0",
        ),
        (geometric_power_polynomial(4, 4), SolverConfig(seed=0), "hits"),
    ],
    ids=[
        "axis_monomial(3,4)",
        "axis_monomial(3,3)",
        "tiny(3,4)",
        "unit_norm(3,4)",
        "geometric_power(4,4)",
    ],
)
def test_failed_check_spends_the_full_budget(f, config, failing):
    # Each condition of the check, failing on the first round, sends the
    # solve to all the starts.  x1^3 fails on the polish alone (one class of
    # 19 hits), the geometric power form on the hits alone (38 classes of 40,
    # parity holds).  The unit-norm form of
    # test_empty_critical_set_keeps_its_shape converges neither of its two
    # starts, so its k = 0 does not rest on the tiny coefficient norm.
    k, bound, polish, hits = _first_round(f, config)
    fails = {
        "k > B": k > bound,
        "polish": polish > 0,
        "k = 0": k == 0,
        "hits": hits < critsolve.MIN_CLASS_HITS,
        "parity": (bound - k) % 2 == 1,
    }
    assert fails[failing], (k, bound, polish, hits)
    if failing in ("polish", "hits"):
        assert [c for c, v in fails.items() if v] == [failing], (k, bound, polish, hits)
    found = find_critical_pairs(f, config)
    budget = config.starts or 50 * f.d * f.n
    assert found.starts_used == budget
    full = _solve_all(f, _unit_starts(f.n, budget, config.seed))
    assert found.X.shape == full.X.shape


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="rows on the x1 = 0 continuum of x1^6 contract too slowly to stop and too fast "
    "to be abandoned, so both passes run every iteration (ROADMAP item 3)",
)
@pytest.mark.parametrize("n", [3, 4])
def test_sixth_order_continuum_stops_before_the_iteration_cap(n, monkeypatch):
    # Each Newton iteration makes one _trial_steps call with the LU solver;
    # the multiple-root polish calls it with the least-squares one.
    calls = []
    trial_steps = critsolve._trial_steps

    def counted(f, z, Fz, solver, scales):
        if solver is critsolve._solve_steps:
            calls.append(1)
        return trial_steps(f, z, Fz, solver, scales)

    monkeypatch.setattr(critsolve, "_trial_steps", counted)
    find_critical_pairs(axis_monomial(n, 6), SolverConfig(seed=0))
    assert len(calls) < 2 * critsolve.MAX_ITERATIONS


@pytest.mark.parametrize("starts", [1, 2, 37])
def test_small_start_budgets(starts):
    # One start has no second half; a class reached by one or two starts
    # never passes the hit check.
    f = random_polynomial(2, 3, 1)
    found = find_critical_pairs(f, SolverConfig(starts=starts))
    assert found.starts_used == (starts if starts < 3 else (starts + 1) // 2)
    assert found.X.shape[0] > 0 and 0.0 < found.converged_fraction <= 1.0


@pytest.mark.parametrize(
    "n, d, starts, first_round",
    [
        (2, 5, None, 60),  # 12 B = 12 * 5 below half of 500
        (4, 4, None, 400),  # half of 800 below 12 B = 12 * 40
        (2, 3, 1, 1),
        (2, 3, 2, 2),  # a round of 1 row cannot show 3 hits, so both starts run
        (2, 3, 37, 19),  # half of 37, rounded up, below 12 B = 36
    ],
)
def test_first_round_size(n, d, starts, first_round):
    # A generic form passes the check on its first round of
    # min(ceil(S / 2), 12 B) starts, so that round is all it polishes.
    f = random_polynomial(n, d, [28, n, d])
    assert find_critical_pairs(f, SolverConfig(starts=starts)).starts_used == first_round


@pytest.mark.parametrize("starts", [0, -3, critsolve.MAX_STARTS + 1, 10**12])
def test_start_budget_out_of_range_rejected(starts):
    # Rejected before any start is drawn: 10^12 rows would not fit in memory.
    with pytest.raises(ValueError, match=f"need 1 to {critsolve.MAX_STARTS} starts, got {starts}"):
        find_critical_pairs(random_polynomial(2, 3, 1), SolverConfig(starts=starts))


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


def _ladder_form(d, eps):
    """x1^d + (d/2 + eps) x1^(d-2) x2^2 + sum_{a<=d-3} c_a x1^a x2^(d-a):
    e1 is critical with lam = d and tangent margin 2 eps."""
    rng = np.random.default_rng([12, d, 0])
    terms = {(d, 0): 1.0, (d - 2, 2): d / 2 + eps}
    for a in range(d - 2):
        terms[(a, d - a)] = rng.standard_normal()
    return HomogeneousPolynomial(2, d, terms)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_resolution_ladder_near_degenerate_e1(d):
    # As eps shrinks toward the locus from either side, the multistart
    # solver, the exact enumeration and the classifier still resolve e1:
    # same count, certified, off the locus, SOSC above and FONC_ONLY below.
    # -e1 has margin -2 eps for odd d, the same for even d.
    for eps in (1e-3, -1e-3, 1e-5, -1e-5):
        f = _ladder_form(d, eps)
        found = find_critical_pairs(f, SolverConfig(seed=0))
        assert len(found.X) == len(enumerate_critical_pairs_n2(f).X) == 2 * d, eps
        assert certify_against_oracle(f).certified, eps
        assert not exact_oracle_n2(f).on_locus, eps
        e1 = np.array([[1.0, 0.0]])
        assert analyze_points(f, e1).margins[0] == pytest.approx(2 * eps, rel=1e-9)
        for sign, flip in ((1, 1), (-1, (-1) ** d)):
            near = np.linalg.norm(found.X - sign * e1, axis=1) <= DEFAULT_DEDUP_RADIUS
            verdict = Verdict.SOSC if flip * eps > 0 else Verdict.FONC_ONLY
            assert analyze_points(f, found.X[near]).verdicts == [verdict], (eps, sign)


def _ladder_form_n3(d, eps):
    """x1^d + (d/2 + eps) x1^(d-2) x2^2 + d x1^(d-2) x3^2 plus seeded terms
    of x1-degree at most d - 3: e1 is critical with lam = d and tangent
    margins 2 eps and d."""
    rng = np.random.default_rng([12, 3, d, 0])
    terms = {(d, 0, 0): 1.0, (d - 2, 2, 0): d / 2 + eps, (d - 2, 0, 2): float(d)}
    for a in range(d - 2):
        for b in range(d - a + 1):
            terms[(a, b, d - a - b)] = rng.standard_normal()
    return HomogeneousPolynomial(3, d, terms)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_resolution_ladder_near_degenerate_e1_n3(d):
    # The n = 3 ladder: multistart resolves e1 from either side of the
    # locus, SOSC above and FONC_ONLY below.  -e1 has margins (-1)^d 2 eps
    # and (-1)^d d, so it fails the SONC at odd d and follows eps at even d.
    # The class count k passes the completeness check's bound and parity
    # and does not change when eps changes sign.
    bound = critsolve._class_bound(3, d)
    counts = {}
    for eps in (1e-3, -1e-3, 1e-5, -1e-5):
        f = _ladder_form_n3(d, eps)
        found = find_critical_pairs(f, SolverConfig(seed=0))
        k = found.lam.size // 2
        assert 1 <= k <= bound and (bound - k) % 2 == 0, (eps, k)
        counts.setdefault(abs(eps), set()).add(k)
        e1 = np.array([[1.0, 0.0, 0.0]])
        assert analyze_points(f, e1).margins[0] == pytest.approx(2 * eps, rel=1e-9)
        for sign in (1, -1):
            near = np.linalg.norm(found.X - sign * e1, axis=1) <= DEFAULT_DEDUP_RADIUS
            sosc = eps > 0 and (sign == 1 or d % 2 == 0)
            verdict = Verdict.SOSC if sosc else Verdict.FONC_ONLY
            assert analyze_points(f, found.X[near]).verdicts == [verdict], (eps, sign)
    assert all(len(ks) == 1 for ks in counts.values()), counts


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the merge radius keeps a nearby FONC_ONLY row instead of the SOSC point e1 "
    "(ROADMAP items 11 and 12)",
)
@pytest.mark.parametrize("d", [3, 4, 5])
def test_resolution_ladder_keeps_the_local_minimizer_e1_n3(d):
    # One rung below the ladder above: at eps = +1e-6, e1 is a critical
    # point with residual 0 and margin +2e-6, a strict local minimizer.
    # Today the only returned row within DEFAULT_DEDUP_RADIUS of e1 is a
    # FONC_ONLY point 4.7e-7 to 9.4e-7 away.
    f = _ladder_form_n3(d, 1e-6)
    e1 = np.array([[1.0, 0.0, 0.0]])
    if analyze_points(f, e1).verdicts != [Verdict.SOSC]:
        pytest.fail("e1 is no longer SOSC at eps = +1e-6")
    found = find_critical_pairs(f, SolverConfig(seed=0))
    near = np.linalg.norm(found.X - e1, axis=1) <= DEFAULT_DEDUP_RADIUS
    assert analyze_points(f, found.X[near]).verdicts == [Verdict.SOSC]


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
    """Reference Newton pass that tries one step length per residual call.

    Same iteration, acceptance and stall rules as ``critsolve._newton_polish``
    and the same results: Z = [X | lam], F, Fn and the polish gate (singular
    rows, and converged rows whose last accepted step left more than 10 %
    of the residual); only the backtracking loop differs, halving the step
    of every row still looking after each call.  ``max_halvings`` is the
    number of halvings a row tries before it is abandoned, and
    ``max_slow_steps`` the number of consecutive slow iterations that
    abandons a row.
    """
    stop_tol = scaled_tolerance(f, DEFAULT_TOL_STOP)
    Z = np.concatenate([np.asarray(X0, float), np.asarray(lam0, float)[:, None]], axis=1)
    with np.errstate(all="ignore"):
        F = critsolve._system_residual(f, Z)
    Fn = np.linalg.norm(F, axis=1)
    active = np.isfinite(Fn)
    singular = np.zeros(Z.shape[0], dtype=bool)
    linear = np.ones(Z.shape[0], dtype=bool)
    stalls = np.zeros(Z.shape[0], dtype=np.int64)
    for _ in range(critsolve.MAX_ITERATIONS):
        active &= ~(Fn <= stop_tol)
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        with np.errstate(all="ignore"):
            J = critsolve._system_jacobian(f, Z[rows])
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
                Ft = critsolve._system_residual(f, trial)
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
        active[np.concatenate([rows[~improved], moved[stalls[moved] >= max_slow_steps]])] = False
    floor = scaled_tolerance(f, DEFAULT_TOL_POLISH)
    return Z, F, Fn, (((Fn <= accept_tol) & linear) | singular) & (Fn > floor)


def _reference_root_polish(f, Z, F, Fn, polish):
    """Reference multiple-root polish, in place: each round moves a row to
    the best of its three trial points, if that lowers its residual."""
    floor = scaled_tolerance(f, DEFAULT_TOL_POLISH)
    polish = np.flatnonzero(polish)
    for _ in range(8):
        if polish.size == 0:
            break
        with np.errstate(all="ignore"):
            J = critsolve._system_jacobian(f, Z[polish])
            J[~np.isfinite(J)] = 0.0
            steps, usable = critsolve._lstsq_steps(J, -F[polish])
        best_norm = Fn[polish].copy()
        best_z = Z[polish].copy()
        best_f = F[polish].copy()
        moved = np.zeros(polish.size, dtype=bool)
        for factor in (1.0, 2.0, 3.0):
            trial = Z[polish] + factor * steps
            with np.errstate(all="ignore"):
                Ft = critsolve._system_residual(f, trial)
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


@pytest.mark.parametrize(
    "f",
    [
        random_polynomial(2, 3, 101),
        random_polynomial(3, 4, 102),
        random_polynomial(4, 3, 103),
        axis_monomial(3, 4),
        axis_monomial(3, 3),
        _rescaled(random_polynomial(3, 4, 5), 1e-12),
    ],
    ids=[
        "random(2,3)",
        "random(3,4)",
        "random(4,3)",
        "axis_monomial(3,4)",
        "axis_monomial(3,3)",
        "tiny(3,4)",
    ],
)
def test_step_ladder_matches_sequential_halving(f):
    # Trying all step lengths in one call must pick the longest decreasing
    # step, exactly as halving one step length per call does; x1^3 adds
    # exactly singular Jacobians, and every converged row of the tiny-norm
    # form reaches the polish.  Batch shapes differ, so BLAS may round the
    # residuals differently in the last bits.
    rng = np.random.default_rng(7)
    X0 = rng.standard_normal((50 * f.n * f.d, f.n))
    X0 /= np.linalg.norm(X0, axis=1)[:, None]
    tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
    lam0 = f.d * f.evaluate_many(X0)
    Z, F, Fn, polish = critsolve._newton_polish(f, X0, lam0, accept_tol=tol)
    Z_ref, F_ref, Fn_ref, polish_ref = _sequential_halving_polish(f, X0, lam0, accept_tol=tol)
    np.testing.assert_array_equal(polish, polish_ref)
    critsolve._polish_multiple_roots(f, Z, F, Fn, polish)
    _reference_root_polish(f, Z_ref, F_ref, Fn_ref, polish_ref)
    done = Fn <= tol
    np.testing.assert_array_equal(done, Fn_ref <= tol)
    np.testing.assert_allclose(Z[done], Z_ref[done], rtol=0.0, atol=1e-12)


def _greedy_dedup_reference(X, res, dedup_radius):
    """Kept rows, ascending, and their hits: each row joins the first kept
    row within the radius, tightest residual first, or is kept itself."""
    hits = {}
    for i in np.argsort(res, kind="stable"):
        near = [j for j in hits if np.linalg.norm(X[j] - X[i]) <= dedup_radius]
        if near:
            hits[near[0]] += 1
        else:
            hits[int(i)] = 1
    kept = sorted(hits)
    return kept, [hits[i] for i in kept]


@pytest.mark.parametrize("X", [np.zeros((0, 3)), np.full((4, 3), 0.25)], ids=["empty", "short"])
def test_collect_pairs_without_usable_rows(X):
    # No rows, or rows too short to normalize: nothing survives, and the
    # empty arrays keep their row shapes.
    f = random_polynomial(3, 3, 4)
    X, lam, hits = critsolve._collect_pairs(f, X, np.ones(X.shape[0]), np.zeros(X.shape[0]))
    assert X.shape == (0, 3) and lam.shape == hits.shape == (0,)


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


def _straddling_cloud(rng):
    # Tight clusters, which the merge settles in one pass, and one cluster
    # whose rows straddle the radius around its tightest row, which takes
    # the greedy loop; one call runs both.
    centres = rng.standard_normal((6, 3))
    centres /= np.linalg.norm(centres, axis=1)[:, None]
    which = rng.integers(0, centres.shape[0], 240)
    spread = np.where(which == 0, 1.5, 1e-3) * rng.random(which.size)
    X = _tangent_offsets(rng, centres[which], spread)
    lam = 2.0 + rng.permutation(X.shape[0]) * 1e-12
    Xn = X / np.linalg.norm(X, axis=1)[:, None]
    reach = [
        np.linalg.norm(Xn[which == c] - Xn[which == c][np.argmin(lam[which == c])], axis=1).max()
        for c in range(centres.shape[0])
    ]
    assert reach[0] > DEFAULT_DEDUP_RADIUS and max(reach[1:]) <= 0.01 * DEFAULT_DEDUP_RADIUS
    return X, lam


def test_collect_pairs_dedup_matches_greedy_reference():
    # Every unit vector is critical for x.x with lam = 2; a distinct offset
    # of lam per row orders the rows by residual and identifies each kept
    # one.  The reference dedups the mirrored set: each normalized row
    # followed by (-x, lam) with its residual.  ``kept_range`` bounds the
    # kept count: most clustered rows are covered.  A kept row's hits are
    # the rows merged into it, itself included, and its mirror's are equal.
    f = HomogeneousPolynomial(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    cases = [(_scattered_cloud, (82, 418)), (_clustered_cloud, (10, 30)), (_straddling_cloud, (12, 40))]
    for cloud, kept_range in cases:
        X, lam = cloud(np.random.default_rng(11))
        X /= np.linalg.norm(X, axis=1)[:, None]
        res = np.linalg.norm(f.gradient_many(X) - lam[:, None] * X, axis=1)

        X_out, lam_out, hits_out = critsolve._collect_pairs(f, X, lam, res)
        # Mirrored row i is kept when the output holds its (x, lam) bitwise,
        # x normalized as _collect_pairs does.
        Xn = X / np.linalg.norm(X, axis=1)[:, None]
        Xm = np.stack([Xn, -Xn], axis=1).reshape(-1, 3)
        lam_m = np.repeat(lam, 2)
        same = (X_out[:, None, :] == Xm).all(axis=2) & (lam_out[:, None] == lam_m)
        kept = np.flatnonzero(same.any(axis=0)).tolist()
        expected, hits = _greedy_dedup_reference(Xm, np.repeat(res, 2), DEFAULT_DEDUP_RADIUS)
        assert kept == expected, cloud.__name__
        assert hits_out.tolist() == [hits[expected.index(j)] for j in same.argmax(axis=1)]
        assert hits_out.sum() == Xm.shape[0], cloud.__name__
        by_x = {x.tobytes(): h for x, h in zip(X_out, hits_out.tolist())}
        assert all(by_x[(-x).tobytes()] == h for x, h in zip(X_out, hits_out.tolist()))
        assert max(hits) > 1, cloud.__name__
        assert lam_out.shape[0] == len(expected), cloud.__name__
        assert kept_range[0] <= len(expected) <= kept_range[1], cloud.__name__
        _assert_exact_antipodal_pairs(X_out, lam_out, f.d)


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
    res = analyze_points(f, found.X).residuals
    again = critsolve._collect_pairs(f, found.X[order], found.lam[order], res[order])
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
    # The reference replaces every Newton pass: the rows it polishes are the
    # starts the solve counts, and some solves run both passes.
    reference = functools.partial(_sequential_halving_polish, max_halvings=30, max_slow_steps=8)
    polished = []

    def counted(f, X0, lam0, **kwargs):
        polished.append(X0.shape[0])
        return reference(f, X0, lam0, **kwargs)

    monkeypatch.setattr(critsolve, "_newton_polish", counted)
    two_pass = 0
    for (n, d, s), found in zip(cases, fast):
        polished.clear()
        slow = find_critical_pairs(random_polynomial(n, d, s), SolverConfig(seed=s))
        assert sum(polished) == slow.starts_used, (n, d, s)
        two_pass += len(polished) == 2
        assert len(found.pairs) == len(slow.pairs), (n, d, s)
        assert all(_has_pair(slow.pairs, p.x, p.lam) for p in found.pairs), (n, d, s)
    assert two_pass > 0


@pytest.mark.bitwise
def test_solve_steps_skips_det_on_nonsingular_batch(monkeypatch):
    J = np.random.default_rng(1).standard_normal((50, 4, 4))
    rhs = np.random.default_rng(2).standard_normal((50, 4))

    def no_det(_):
        raise AssertionError("det called on a nonsingular batch")

    monkeypatch.setattr(np.linalg, "det", no_det)
    steps, usable = critsolve._solve_steps(J, rhs)
    assert usable.all()
    np.testing.assert_array_equal(steps, np.linalg.solve(J, rhs[..., None])[..., 0])


@pytest.mark.bitwise
def test_solve_steps_flags_singular_row(monkeypatch):
    # One LAPACK call over the batch: a singular row comes back NaN and an
    # overflowing one non-finite, with no warning, no det and no re-solve,
    # and every other row is its own solve bit for bit.
    J = np.random.default_rng(3).standard_normal((20, 4, 4))
    J[7] = np.outer([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 2.0, 0.5])  # rank one
    J[12] = np.diag([1e-200, 1.0, 1.0, 1.0])
    rhs = np.random.default_rng(4).standard_normal((20, 4))
    rhs[12] = [1e200, 1.0, 1.0, 1.0]  # the step's first entry, 1e400, overflows
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J[7], rhs[7])
    expected = {i: np.linalg.solve(J[i], rhs[i]) for i in range(20) if i != 7}
    np.testing.assert_array_equal(expected[12], [np.inf, 1.0, 1.0, 1.0])

    def forbidden(*_):
        raise AssertionError("det or a second solve on a singular batch")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steps, usable = critsolve._solve_steps(J, rhs)
    np.testing.assert_array_equal(usable, np.isfinite(steps).all(axis=1))
    assert np.flatnonzero(~usable).tolist() == [7, 12]
    assert np.isnan(steps[7]).all()
    for i in np.flatnonzero(usable):
        np.testing.assert_array_equal(steps[i], expected[i])


def _explicit_system(f, Z):
    """The residual's gradient rows and the Jacobian assembled around the
    jets at the rows z = (x, lam) of Z."""
    k, n = Z.shape[0], f.n
    X, lam = Z[:, :n], Z[:, n]
    G = f.gradient_many(X) - lam[:, None] * X
    J = np.empty((k, n + 1, n + 1))
    J[:, :n, :n] = f.hessian_many(X)
    idx = np.arange(n)
    J[:, idx, idx] -= lam[:, None]
    J[:, :n, n] = -X
    J[:, n, :n] = X
    J[:, n, n] = 0.0
    return G, J


@pytest.mark.bitwise
@np.errstate(all="ignore")
def test_system_map_matches_explicit_assembly():
    # The kernel's two entry points evaluate the system as one polynomial
    # map of z = (x, lam) each.  The sphere row, the border -x, x and the
    # corner are written apart, so they keep their bits and signs of zeros,
    # and non-finite entries stay where the explicit assembly has them.  The
    # kernel pads every batch to four rows or more, so its GEMM sums each
    # entry in pool order, lam's term last, one row as any other: the
    # gradient rows are the explicit ones bit for bit and the Hessian block
    # lies within 4 ulp of max(|H_ij|, |lam|).
    rng = np.random.default_rng(35)
    for n in range(1, 6):
        for d in range(1, 7):
            base = random_polynomial(n, d, rng)
            for f in (base, _rescaled(base, 1e-12), _rescaled(base, 1e150)):
                for rows in (1, 2, 7, 64):
                    X = rng.standard_normal((rows, n))
                    X /= np.linalg.norm(X, axis=1, keepdims=True)
                    lam = d * f.evaluate_many(X)
                    X[0, 0], lam[0] = 0.0, -0.0
                    if rows > 1:
                        X[1, -1], lam[1] = -0.0, 0.0
                        X[-1] *= 1e200  # overflows from d = 2 on
                    Z = np.column_stack([X, lam])
                    F = critsolve._system_residual(f, Z)
                    J = critsolve._system_jacobian(f, Z)
                    G, ref = _explicit_system(f, Z)
                    label = (n, d, f.coefficient_norm, rows)

                    sphere = 0.5 * (np.einsum("ij,ij->i", X, X) - 1.0)
                    assert F[:, n].tobytes() == sphere.tobytes(), label
                    assert J[:, :n, n].tobytes() == ref[:, :n, n].tobytes(), label
                    assert J[:, n, :].tobytes() == ref[:, n, :].tobytes(), label
                    finite = np.isfinite(ref)
                    np.testing.assert_array_equal(np.isfinite(J), finite, err_msg=str(label))
                    np.testing.assert_array_equal(
                        np.isfinite(F[:, :n]).all(axis=1), np.isfinite(G).all(axis=1), str(label)
                    )

                    ok = np.isfinite(G).all(axis=1)
                    H, H_ref = J[:, :n, :n], ref[:, :n, :n]
                    assert F[ok, :n].tobytes() == G[ok].tobytes(), label
                    slack = 4 * np.spacing(np.maximum(abs(H_ref), abs(lam)[:, None, None]))
                    assert (abs(H - H_ref)[finite[:, :n, :n]] <= slack[finite[:, :n, :n]]).all(), label


@pytest.mark.bitwise
@pytest.mark.parametrize("n, d", [(1, 3), (2, 3), (3, 4), (4, 3), (3, 5), (2, 6)])
def test_kernel_rows_do_not_depend_on_the_batch(n, d):
    # Every kernel gives a row the same bits in a batch of any size at any
    # offset: slices of one seeded batch equal the rows of the full batch.
    rng = np.random.default_rng([25, n, d])
    f = random_polynomial(n, d, rng)
    X = rng.standard_normal((155, n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    Z = np.column_stack([X, d * f.evaluate_many(X)])
    kernels = [
        lambda rows: f.evaluate_many(X[rows]),
        lambda rows: f.gradient_many(X[rows]),
        lambda rows: f.hessian_many(X[rows]),
        lambda rows: critsolve._system_residual(f, Z[rows]),
        lambda rows: critsolve._system_jacobian(f, Z[rows]),
    ]
    for k, kernel in enumerate(kernels):
        full = kernel(slice(None))
        for length in (*range(1, 14), 37, 64):
            for offset in (0, 5, 155 - length):
                rows = slice(offset, offset + length)
                assert kernel(rows).tobytes() == full[rows].tobytes(), (k, length, offset)


def _singular_start():
    # On x1^3 with lam = 0 the Jacobian rows of x2 and x3 are proportional,
    # so LAPACK rejects the Newton step at this start off the circle x1 = 0.
    f = axis_monomial(3, 3)
    x = np.array([[1e-3, 0.6, 0.8]])
    x /= np.linalg.norm(x)
    return f, x, np.zeros(1), scaled_tolerance(f, DEFAULT_TOL_CRIT)


def _newton_then_polish(f, X0, lam0, tol):
    """One Newton pass and the multiple-root polish of the rows it flags."""
    Z, F, Fn, polish = critsolve._newton_polish(f, X0, lam0, accept_tol=tol)
    assert polish.tolist() == [True]
    critsolve._polish_multiple_roots(f, Z, F, Fn, polish)
    return Z[:, :-1], Z[:, -1], Fn <= tol


def test_singular_row_converges_through_polish():
    f, x, lam, tol = _singular_start()
    J = critsolve._system_jacobian(f, np.column_stack([x, lam]))
    assert not critsolve._solve_steps(J, np.ones((1, 4)))[1].any()
    X, lam, done = _newton_then_polish(f, x, lam, tol)
    assert done.tolist() == [True]
    assert abs(X[0, 0]) <= 1e-15 and abs(lam[0]) <= 1e-15
    np.testing.assert_allclose(X[0, 1:], x[0, 1:], rtol=1e-6)


def test_singular_row_without_svd_is_not_converged(monkeypatch):
    # The polish step's pseudo-inverse comes from an SVD; when LAPACK cannot
    # compute it the row gets no step and stays where Newton left it.
    f, x, lam, tol = _singular_start()

    def no_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "pinv", no_svd)
    rhs = np.ones((2, 4))
    steps, usable = critsolve._lstsq_steps(np.zeros((2, 4, 4)), rhs)
    assert not usable.any()
    np.testing.assert_array_equal(steps, np.zeros_like(rhs))
    X, _, done = _newton_then_polish(f, x, lam, tol)
    assert done.tolist() == [False]
    np.testing.assert_array_equal(X, x)


@pytest.mark.bitwise
def test_lstsq_steps_retry_a_failing_batch_row_by_row(monkeypatch):
    # One failing SVD costs its own row the step, not the batch's: the
    # batch is retried row by row, and each other row gets the step of the
    # unpatched batch call bit for bit.
    rng = np.random.default_rng(29)
    J = rng.standard_normal((5, 4, 4)) @ np.diag([1.0, 1.0, 1.0, 0.0])  # rank 3
    rhs = rng.standard_normal((5, 4))
    expected, expected_usable = critsolve._lstsq_steps(J, rhs)
    assert expected_usable.all()
    marked = J[2].copy()
    pinv = np.linalg.pinv
    batches = []

    def failing_on_marked(a, *args, **kwargs):
        batches.append(a.shape[0])
        if any(np.array_equal(m, marked) for m in a):
            raise np.linalg.LinAlgError("SVD did not converge")
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", failing_on_marked)
    steps, usable = critsolve._lstsq_steps(J, rhs)
    assert batches == [5, 1, 1, 1, 1, 1]
    assert usable.tolist() == [True, True, False, True, True]
    assert not steps[2].any()
    assert steps[usable].tobytes() == expected[usable].tobytes()


def _truncated_svd_steps(J, rhs):
    """The polish step written out: singular values at or below
    LSTSQ_RCOND times the largest are dropped, the rest inverted."""
    U, s, Vt = np.linalg.svd(J)
    cutoff = critsolve.LSTSQ_RCOND * s[:, :1]
    sinv = np.where(s > cutoff, 1.0 / np.where(s > 0.0, s, 1.0), 0.0)
    return np.einsum("ksm,ks->km", Vt, np.einsum("kms,km->ks", U, rhs) * sinv)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_lstsq_steps_match_truncated_svd(m):
    # Stacks of rank 1 .. m-1, spread over twelve orders of magnitude, plus
    # an all-zero Jacobian, whose step is zero.
    rng = np.random.default_rng([23, m])
    rank = np.arange(60) % (m - 1) + 1
    U = rng.standard_normal((60, m, m)) * (np.arange(m) < rank[:, None, None])
    J = U @ rng.standard_normal((60, m, m)) * 10.0 ** rng.uniform(-6, 6, (60, 1, 1))
    J[0] = 0.0
    rhs = rng.standard_normal((60, m))
    assert (np.linalg.matrix_rank(J[1:]) == rank[1:]).all()
    steps, usable = critsolve._lstsq_steps(J, rhs)
    ref = _truncated_svd_steps(J, rhs)
    assert usable.all()
    assert not steps[0].any() and not ref[0].any()
    err = np.linalg.norm(steps - ref, axis=1)
    assert (err[1:] <= 1e-12 * np.linalg.norm(ref[1:], axis=1)).all()


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

    def counted(f, Z):
        rows.append(Z.shape[0])
        return inner(f, Z)

    monkeypatch.setattr(critsolve, name, counted)
    return rows


def test_residual_calls_per_solve_bounded(monkeypatch):
    # Backtracking tests every step length in one residual call per Newton
    # iteration, and starts that stay slow are dropped early.  On the first solve
    # sequential halving made 526 residual calls; the block ladder made 75
    # residual and 21 Jacobian calls with an 8-slow-step cap, 30 and 11 with
    # MAX_SLOW_STEPS = 2, 27 and 10 (12564 residual rows) once quadratically
    # converged rows skip the multiple-root polish, and 19 and 10 (7426
    # rows) with MAX_HALVINGS = 4.  On the tiny-norm form, like the
    # benchmark's, capping the halvings at 4 cut 68 residual calls and
    # 35162 rows to 18 and 6166.  With a first round of 12 B starts, the
    # first solve stopped at 156 starts after 19 residual calls (1974 rows)
    # and 10 Jacobian calls.  One call per Newton iteration (all five step
    # lengths) and per polish round (all three factors) makes that 11 calls
    # of up to 780 rows (4476 rows); the tiny-norm form fails the check and
    # pays a second Newton pass: 24 → 8 residual calls, 6157 rows either
    # way, up to 2115 rows a call, and 6 Jacobian calls.  The counts are
    # deterministic, so the ceilings guard the work without timing.
    residual_rows = _count_rows(monkeypatch, "_system_residual")
    jacobian_rows = _count_rows(monkeypatch, "_system_jacobian")
    f = random_polynomial(3, 4, 5)
    cases = [(f, 9000), (_rescaled(f, 1e-12), 7500)]
    for f, max_rows in cases:
        residual_rows.clear()
        jacobian_rows.clear()
        found = find_critical_pairs(f, SolverConfig(seed=1))
        assert found.pairs
        assert len(residual_rows) <= 12, f.coefficient_norm
        assert sum(residual_rows) <= max_rows, f.coefficient_norm
        assert len(jacobian_rows) <= 14, f.coefficient_norm
        assert max(residual_rows) <= critsolve.STEP_LENGTHS.size * found.starts_used


def _binary_product(*factors):
    """Product of powers (a x1 + b x2)^k, given as (a, b, k) triples."""
    coefs = np.array([1])
    for a, b, k in factors:
        for _ in range(k):
            coefs = np.convolve(coefs, [b, a])  # index = power of x1
    d = len(coefs) - 1
    return HomogeneousPolynomial(2, d, {(i, d - i): float(c) for i, c in enumerate(coefs) if c})


def _record_seeds(monkeypatch):
    """The start rows of every Newton pass, one array per pass."""
    seeds = []
    inner = critsolve._newton_polish

    def recorded(f, X0, lam0, **kwargs):
        seeds.append(X0)
        return inner(f, X0, lam0, **kwargs)

    monkeypatch.setattr(critsolve, "_newton_polish", recorded)
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
    # One seed per direction: e1 is seeded, and the merge adds -e1.
    assert [1.0, 0.0] in seeds[0].tolist() and len(seeds[0]) == len(found.pairs) // 2
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


def _kostlan_form(n, d, seed):
    """A Kostlan form: the coefficient of x^alpha is drawn from N(0, d!/alpha!),
    so E f(x) f(y) = (x.y)^d and the ensemble is orthogonally invariant."""
    basis = monomial_basis(n, d)
    var = [math.factorial(d) / math.prod(map(math.factorial, a)) for a in basis]
    coefs = np.random.default_rng(seed).standard_normal(len(basis)) * np.sqrt(var)
    return HomogeneousPolynomial.from_coefficient_vector(n, d, coefs)


def _z_score(counts, expected, expected_se=0.0):
    """(mean - expected) over the combined standard error."""
    se = np.std(counts, ddof=1) / math.sqrt(len(counts))
    return (np.mean(counts) - expected) / math.hypot(se, expected_se)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_kac_rice_count_n2(d):
    # A Kostlan binary form has 2 sqrt(3d - 2) critical points on average
    # (Draisma and Horobet, 2016).  A finder that loses a class {x, -x} in
    # every second solve reads z from -5.2 to -6.5 on these 150 forms.
    forms = [_kostlan_form(2, d, [18, 2, d, s]) for s in range(150)]
    multistart = [len(find_critical_pairs(f, SolverConfig(seed=s)).X) for s, f in enumerate(forms)]
    exact = [len(enumerate_critical_pairs_n2(f).X) for f in forms]
    for counts in (multistart, exact):
        z = _z_score(counts, 2.0 * math.sqrt(3 * d - 2))
        assert abs(z) <= 3.5, (np.mean(counts), z)


def _kac_rice_points(n, d, samples=400_000):
    """Expected critical points of a Kostlan form on S^(n-1) (Breiding, 2017),
    and its Monte Carlo standard error:
    vol(S^(n-1)) (2 pi d)^(-(n-1)/2) E|det(sqrt(d(d-1)) M - d z I)|, with M
    an (n-1) x (n-1) GOE matrix (diagonal variance 2, off-diagonal 1) and
    z ~ N(0, 1)."""
    m = n - 1
    rng = np.random.default_rng([18, n, d])
    dets = []
    chunk = 100_000
    for _ in range(samples // chunk):
        A = rng.standard_normal((chunk, m, m))
        M = (A + A.swapaxes(1, 2)) / math.sqrt(2.0)
        z = rng.standard_normal(chunk)
        hessians = math.sqrt(d * (d - 1)) * M - d * z[:, None, None] * np.eye(m)
        dets.append(np.abs(np.linalg.det(hessians)))
    dets = np.concatenate(dets)
    scale = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2) * (2.0 * math.pi * d) ** (-m / 2)
    return scale * dets.mean(), scale * dets.std() / math.sqrt(samples)


@pytest.mark.slow
@pytest.mark.parametrize("n, d, forms", [(3, 3, 300), (3, 4, 200), (4, 3, 300)])
def test_kac_rice_count_n3_and_up(n, d, forms):
    # The multistart mean count against the Kac-Rice expectation, with the
    # standard errors of both combined.  A solver that loses a class in
    # every second solve reads z = -6.1 at (3, 3), -4.0 at (3, 4) and -3.8
    # at (4, 3), where 200 forms would read only -3.0 and pass.
    found = [
        len(find_critical_pairs(_kostlan_form(n, d, [18, n, d, s]), SolverConfig(seed=s)).X)
        for s in range(forms)
    ]
    expected, expected_se = _kac_rice_points(n, d)
    z = _z_score(found, expected, expected_se)
    assert abs(z) <= 3.5, (np.mean(found), expected, z)
