"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Criteria 1-3 exercise the deterministic witness suites, 4-5 the randomized
experiments at full size, 6 the calculus invariants, 7 the two directions of
the rank-witness characterization, and 8 the quadratic specialization.
Criteria 4 and 5 also compare their discrete answers with a committed digest.
"""

import hashlib
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from spherecrit import (
    SolverConfig,
    Verdict,
    analyze_points,
    axis_monomial,
    bordered_determinants,
    build_witness_matrix,
    certify_against_oracle,
    classify_point,
    detect_sosc_failure,
    enumerate_power_critical_points,
    ExperimentConfig,
    geometric_power_polynomial,
    quadratic_form_polynomial,
    random_polynomial,
    rank_deficient,
    run_degenerate_family,
    run_quadratic_sweep,
    run_random_genericity,
    run_witness_d2,
    run_witness_general,
    scaled_tolerance,
    weighted_axis_quadratic,
)
from spherecrit.classify import DEFAULT_TOL_CLASS
from spherecrit.critsolve import DEFAULT_TOL_CRIT
from conftest import central_difference_gradient, central_difference_hessian, unit


DIGEST = Path(__file__).parent / "data" / "acceptance_digest.json"


def _report(criterion: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {status} ({elapsed:.2f}s) {detail}")


def _check_digest(criterion: str, answers: dict[str, list], totals: dict[str, dict]) -> None:
    """Compare each shape's answers with its entry in ``DIGEST``: the SHA-256
    of the answers as compact JSON, and their totals, which a failure sets
    beside the new ones.  Answers hold counts and flags only, as the last
    bits of a margin depend on the BLAS library.  After a change that moves
    answers on purpose, copy the new entries from the message into the file."""
    expected = json.loads(DIGEST.read_text(encoding="utf-8"))[criterion]
    got = {
        shape: {
            "sha256": hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest(),
            "totals": totals[shape],
        }
        for shape, rows in answers.items()
    }
    moved = {
        shape: {"expected": expected.get(shape), "got": got.get(shape)}
        for shape in expected.keys() | got.keys()
        if expected.get(shape) != got.get(shape)
    }
    assert not moved, f"{criterion} answers moved: {json.dumps(moved, sort_keys=True)}"


def test_criterion_1_witness_suite_quadratic():
    t0 = time.perf_counter()
    failures = []
    for n in (2, 3, 4, 5):
        report = run_witness_d2(n)
        if not report.passed:
            failures.append((n, [c.name for c in report.checks if not c.passed]))
    # Anchor value: n = 3, first axis, determinant by cofactor expansion.
    det = bordered_determinants(weighted_axis_quadratic(3), [[1.0, 0.0, 0.0]], [1.0])[0]
    anchor_ok = abs(det - (-2.0)) <= 1e-8
    margin = classify_point(weighted_axis_quadratic(3), [1.0, 0.0, 0.0]).sosc_margin
    margin_ok = abs(margin - 1.0) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = not failures and anchor_ok and margin_ok and elapsed < 5.0
    _report(1, ok, elapsed, f"n in 2..5 suites, det(e1)= {det:.6g}, margin(e1)= {margin:.6g}")
    assert not failures, failures
    assert anchor_ok and margin_ok
    assert elapsed < 5.0


def test_criterion_2_witness_suite_power_family():
    t0 = time.perf_counter()
    failures = []
    for d in (1, 3, 4, 5):
        for n in (2, 3):
            report = run_witness_general(n, d)
            if not report.passed:
                failures.append(
                    (n, d, [c.name for c in report.checks if not c.passed])
                )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(2, ok, elapsed, "d in {1,3,4,5} x n in {2,3}, dets positive, oracle off-locus")
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_3_degenerate_detection():
    t0 = time.perf_counter()
    failures = []
    report = run_degenerate_family("repeated_lambda1", 3, 2)
    if not report.passed:
        failures.append(("repeated_lambda1", [c.name for c in report.checks if not c.passed]))
    for d in (3, 4):
        for n in (2, 3):
            report = run_degenerate_family("single_monomial", n, d)
            if not report.passed:
                failures.append(
                    (f"single_monomial n={n} d={d}",
                     [c.name for c in report.checks if not c.passed])
                )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _report(3, ok, elapsed, "repeated bottom eigenvalue + pure powers all flagged")
    assert not failures, failures
    assert elapsed < 10.0


@pytest.mark.bitwise
@pytest.mark.slow
def test_criterion_4_randomized_genericity(tmp_path):
    t0 = time.perf_counter()
    degenerate = 0
    rank_hits = 0
    min_margin = np.inf
    dumped = []
    full_budget = 0  # trials whose first round failed the completeness check
    answers, totals = {}, {}
    for n, d in ((2, 3), (3, 3), (2, 4), (3, 4)):
        config = ExperimentConfig(
            n=n, d=d, trials=1000, seed=0, dump_dir=str(tmp_path / "dumps")
        )
        report = run_random_genericity(config)
        degenerate += report.total_degenerate
        rank_hits += report.total_rank_witnesses
        if report.min_sosc_margin is not None:
            min_margin = min(min_margin, report.min_sosc_margin)
        dumped.extend(report.dumped_files)
        full_budget += sum(r.starts_used == 50 * d * n for r in report.records)
        records = report.records
        verdicts = Counter()
        for r in records:
            verdicts.update(r.verdict_histogram)
        answers[f"n={n},d={d}"] = [
            [r.poly_seed, r.starts_used, r.critical_count, sorted(r.verdict_histogram.items()),
             r.degenerate_hits, r.rank_witness_hits, r.oracle_on_locus]
            for r in records
        ]
        totals[f"n={n},d={d}"] = {
            "trials": len(records),
            "starts_used": sum(r.starts_used for r in records),
            "critical_count": sum(r.critical_count for r in records),
            "verdicts": dict(verdicts),
            "degenerate_hits": sum(r.degenerate_hits for r in records),
            "rank_witness_hits": sum(r.rank_witness_hits for r in records),
            "oracle_on_locus": sum(bool(r.oracle_on_locus) for r in records),
        }
    elapsed = time.perf_counter() - t0
    ok = degenerate == 0 and rank_hits == 0 and min_margin > 0 and elapsed < 600.0
    _report(
        4,
        ok,
        elapsed,
        f"4000 trials: degenerate={degenerate}, rank witnesses={rank_hits}, "
        f"min SOSC margin={min_margin:.3e}, full start budget={full_budget}",
    )
    assert degenerate == 0, f"degenerate polynomials dumped: {dumped}"
    assert rank_hits == 0, f"rank witnesses found: {dumped}"
    assert min_margin > 0
    assert elapsed < 600.0
    _check_digest("criterion_4", answers, totals)


@pytest.mark.bitwise
def test_criterion_5_n2_completeness_certification():
    t0 = time.perf_counter()
    certified = 0
    discrepancies = []
    answers = {f"n=2,d={d}": [] for d in (3, 4, 5)}
    for i in range(100):
        d = (3, 4, 5)[i % 3]
        poly_seed = 31000 + i
        solver_seed = 32000 + i
        f = random_polynomial(2, d, poly_seed)
        report = certify_against_oracle(f, SolverConfig(seed=solver_seed))
        answers[f"n=2,d={d}"].append(
            [poly_seed, report.certified, report.matched,
             len(report.only_multistart), len(report.only_oracle)]
        )
        if report.certified:
            certified += 1
        else:
            discrepancies.append(
                {
                    "poly_seed": poly_seed,
                    "solver_seed": solver_seed,
                    "d": d,
                    "only_multistart": len(report.only_multistart),
                    "only_oracle": len(report.only_oracle),
                }
            )
    elapsed = time.perf_counter() - t0
    ok = certified >= 99 and elapsed < 120.0
    _report(5, ok, elapsed, f"certified {certified}/100; discrepancies: {discrepancies}")
    assert certified >= 99, discrepancies
    assert elapsed < 120.0
    totals = {
        shape: {
            key: sum(row[k] for row in rows)
            for k, key in enumerate(("certified", "matched", "only_multistart", "only_oracle"), 1)
        }
        for shape, rows in answers.items()
    }
    _check_digest("criterion_5", answers, totals)


def test_criterion_6_calculus_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    euler_ok = fd_ok = basis_ok = 0
    trials = 500
    for _ in range(trials):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 7))
        f = random_polynomial(n, d, rng)
        x = rng.standard_normal(n)
        val, g, H = f.evaluate(x), f.gradient(x), f.hessian(x)

        s1 = 1.0 + abs(d * val) + np.linalg.norm(g) * np.linalg.norm(x)
        s2 = 1.0 + np.linalg.norm(H) * np.linalg.norm(x) + np.linalg.norm(g)
        if (
            abs(g @ x - d * val) <= 1e-10 * s1
            and np.linalg.norm(H @ x - (d - 1) * g) <= 1e-10 * s2
        ):
            euler_ok += 1

        h = 1e-5 * max(1.0, np.linalg.norm(x))
        fd_g = central_difference_gradient(f, x, h)
        fd_H = central_difference_hessian(f, x, h)
        if (
            np.linalg.norm(fd_g - g) <= 1e-5 * max(1.0, np.linalg.norm(g))
            and np.linalg.norm(fd_H - H) <= 1e-5 * max(1.0, np.linalg.norm(H))
        ):
            fd_ok += 1

        if n == 1:
            basis_ok += 1
        else:
            u = unit(rng.standard_normal(n))
            ours = analyze_points(f, [u]).eigenvalues[0]
            M = np.concatenate([u[:, None], rng.standard_normal((n, n - 1))], axis=1)
            Q, _ = np.linalg.qr(M)
            B = Q[:, 1:]
            theirs = np.linalg.eigvalsh(0.5 * (B.T @ f.hessian(u) @ B + (B.T @ f.hessian(u) @ B).T))
            if np.max(np.abs(ours - theirs)) <= 1e-10 * max(
                1.0, np.linalg.norm(f.hessian(u))
            ):
                basis_ok += 1
    elapsed = time.perf_counter() - t0
    ok = euler_ok == trials and fd_ok == trials and basis_ok == trials
    _report(
        6,
        ok,
        elapsed,
        f"euler {euler_ok}/{trials}, finite differences {fd_ok}/{trials}, "
        f"basis invariance {basis_ok}/{trials}",
    )
    assert euler_ok == trials
    assert fd_ok == trials
    assert basis_ok == trials


def test_criterion_7_bidirectional_witness_consistency():
    t0 = time.perf_counter()

    # Forward/converse on the constructed degenerate instances of criterion 3.
    degenerate_cases = [
        (quadratic_form_polynomial(np.diag([1.0, 1.0, 2.0])), np.array([1.0, 0.0, 0.0])),
    ]
    for d in (3, 4):
        for n in (2, 3):
            e2 = np.zeros(n)
            e2[1] = 1.0
            degenerate_cases.append((axis_monomial(n, d), e2))
    converse_ok = True
    for f, x in degenerate_cases:
        w = detect_sosc_failure(f, x)
        if w is None:
            converse_ok = False
            continue
        lam = f.d * f.evaluate(w.x)
        fonc = np.linalg.norm(f.gradient(w.x) - lam * w.x)
        margin = w.y @ f.hessian(w.x) @ w.y - lam
        crit_tol = scaled_tolerance(f, DEFAULT_TOL_CRIT)
        if fonc > crit_tol or margin > scaled_tolerance(f, DEFAULT_TOL_CLASS):
            converse_ok = False

    # Full rank at every tangent eigenvector of the SOSC points of criteria 1-2.
    forward_ok = True
    sosc_points = []
    for n in (2, 3, 4, 5):
        p = weighted_axis_quadratic(n)
        e1 = np.zeros(n)
        e1[0] = 1.0
        sosc_points.append((p, e1))
        sosc_points.append((p, -e1))
    for d in (1, 3, 4, 5):
        for n in (2, 3):
            p = geometric_power_polynomial(n, d)
            for x in enumerate_power_critical_points(n, d)[0]:
                if classify_point(p, unit(x)).verdict is Verdict.SOSC:
                    sosc_points.append((p, unit(x)))
    checked = 0
    for f, x in sosc_points:
        # The unit tangent eigenvector directions B @ V[:, k].
        Y = analyze_points(f, [x]).eigenvectors.swapaxes(1, 2)
        hits = rank_deficient(f, build_witness_matrix(f, [x], Y))
        checked += hits.size
        if hits.any():
            forward_ok = False
    elapsed = time.perf_counter() - t0
    ok = converse_ok and forward_ok
    _report(
        7,
        ok,
        elapsed,
        f"{len(degenerate_cases)} degenerate witnesses reconstructed, "
        f"{checked} SOSC eigenvector directions stay full rank",
    )
    assert converse_ok
    assert forward_ok


@pytest.mark.slow
def test_criterion_8_quadratic_equivalence_sweep():
    t0 = time.perf_counter()
    report = run_quadratic_sweep(5, 500, seed=17)
    elapsed = time.perf_counter() - t0
    planted_ok = all(p["quadratic_rule"] and p["pipeline"] for p in report.planted)
    ok = not report.disagreements and planted_ok
    _report(
        8,
        ok,
        elapsed,
        f"500 random draws, {len(report.disagreements)} disagreements, "
        f"planted multiplicities detected: {planted_ok}",
    )
    assert report.disagreements == []
    assert planted_ok
