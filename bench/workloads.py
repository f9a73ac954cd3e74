"""Benchmark workloads: inputs made from the seed, the ops, and their checks.

A workload is a list of rounds; a round holds one op of every kind the
workload mixes.  The runner stops only at round boundaries, so every run
measures the same mix whatever its length.  Ops call the program through
module attributes looked up at call time (``genlab.run_random_genericity``),
which is what lets the traced run see them after wrappers are installed.

Each op's output is checked after the timed interval by its ``check``, which
returns the failure reasons (empty when the op succeeded) and the number of
critical pairs the output holds that the harness itself verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from spherecrit import classify, critsolve, degeneracy, genlab, polyhom

WORKLOADS = ("genericity", "certify_n2", "degenerate")

GENERICITY_SHAPES = ((2, 3), (3, 3), (2, 4), (3, 4))
CERTIFY_DEGREES = (3, 4, 5, 8)
CONSTRUCTED = (
    ("repeated_lambda1", 3, 2),
    ("repeated_lambda1", 4, 2),
    ("repeated_lambda1", 5, 2),
    ("single_monomial", 3, 3),
    ("single_monomial", 3, 4),
    ("single_monomial", 4, 4),
)
# Generic forms rescaled to coefficient norms 1e-2 .. 1e-12, the range over
# which verdicts are not scale invariant.  The norms are fixed so that every
# seed draws the same amount of spurious output; the seed picks the forms.
# Each shape has four cheap norms and one tiny norm whose output is large.
RESCALED_NORMS = (1e-2, 1e-4, 1e-6, 1e-8)
TINY_NORMS = {(2, 3): 1e-10, (3, 3): 1e-10, (2, 4): 1e-12, (3, 4): 1e-12}
# Input pools in rounds.  A run that outlasts its pool starts it again; the
# program keeps no cache keyed by polynomial, so a repeat costs the same.
GENERICITY_ROUNDS = 512
CERTIFY_ROUNDS = 384
# Rounds a run makes however long they take: enough for a 90th percentile
# of round times with ten rounds above it, and for two runs of each
# degenerate input, whose best counts.
MIN_ROUNDS = {"genericity": 100, "certify_n2": 100, "degenerate": 2}
# The degenerate inputs run exactly twice (about 25 s at the time of writing)
# whatever the time budget: a best-of-three where a faster program fits a
# third round would read faster than the best-of-two it is compared with.
MAX_ROUNDS = {"degenerate": 2}

# Scale-invariant FONC check the harness applies to returned points:
# ||grad f(x) - lam x|| <= VERIFY_REL_TOL * ||f|| and | ||x|| - 1 | small.
VERIFY_REL_TOL = 1e-6
VERIFY_UNIT_TOL = 1e-9
SEED_SPACE = 2**31


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``expect_ok`` is False for inputs on which the program is known to fail
    some of the time today; their failures are counted, and any other failure
    makes the run incorrect.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], int]]
    expect_ok: bool = True


def _int_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0]) % SEED_SPACE


def verified_count(f, X, lam) -> int:
    """Critical pairs among rows of X that pass the harness's own FONC check."""
    X = np.asarray(X, dtype=np.float64).reshape(-1, f.n)
    if X.shape[0] == 0:
        return 0
    lam = np.asarray(lam, dtype=np.float64)
    res = np.linalg.norm(f.gradient_many(X) - lam[:, None] * X, axis=1)
    unit = np.abs(np.linalg.norm(X, axis=1) - 1.0)
    ok = (res <= VERIFY_REL_TOL * f.coefficient_norm) & (unit <= VERIFY_UNIT_TOL)
    return int(np.count_nonzero(ok))


# ---------------------------------------------------------------------------
# genericity: criterion-4 trials through run_random_genericity
# ---------------------------------------------------------------------------


def check_genericity(report) -> tuple[list[str], int]:
    """Fails on a degenerate or non-critical verdict, a rank-witness hit, a
    dumped file, or fewer than two critical points (a form on the sphere has
    a minimum and a maximum)."""
    reasons = []
    (record,) = report.records
    hist = record.verdict_histogram
    for verdict in (classify.Verdict.SONC_DEGENERATE, classify.Verdict.NOT_CRITICAL):
        if hist.get(verdict.value, 0):
            reasons.append(f"{hist[verdict.value]} {verdict.value}")
    if record.rank_witness_hits:
        reasons.append(f"{record.rank_witness_hits} rank-witness hits")
    if report.dumped_files:
        reasons.append(f"dumped {len(report.dumped_files)} file(s)")
    verified = record.critical_count - hist.get(classify.Verdict.NOT_CRITICAL.value, 0)
    if verified < 2:
        reasons.append(f"{verified} critical points")
    return reasons, verified


def genericity_op(n: int, d: int, seed: int, dump_dir: str) -> Op:
    config = genlab.ExperimentConfig(n=n, d=d, trials=1, seed=seed, dump_dir=dump_dir)
    return Op(
        kind=f"genericity({n},{d})",
        run=lambda: genlab.run_random_genericity(config),
        check=check_genericity,
    )


def _genericity_rounds(seed: int, dump_dir: str, count: int) -> list[list[Op]]:
    return [
        [
            genericity_op(n, d, _int_seed(seed, 1, r, k), dump_dir)
            for k, (n, d) in enumerate(GENERICITY_SHAPES)
        ]
        for r in range(count)
    ]


# ---------------------------------------------------------------------------
# certify_n2: the `oracle2 --certify` path on random binary forms
# ---------------------------------------------------------------------------


def check_certify(output) -> tuple[list[str], int]:
    """Fails when multistart and the exact enumeration disagree, or when the
    exact oracle puts a random form on the degeneracy locus."""
    report, oracle = output
    reasons = []
    if not report.certified:
        reasons.append(
            f"not certified: {len(report.only_multistart)} only multistart, "
            f"{len(report.only_oracle)} only oracle, all_critical={report.all_critical}"
        )
    if oracle.on_locus:
        reasons.append(f"oracle on locus: {oracle.certificate}")
    return reasons, report.matched


def certify_op(f) -> Op:
    def run():
        return critsolve.certify_against_oracle(f), degeneracy.exact_oracle_n2(f)

    return Op(kind=f"certify_n2(d={f.d})", run=run, check=check_certify)


def _certify_rounds(seed: int, count: int) -> list[list[Op]]:
    return [
        [
            certify_op(polyhom.random_polynomial(2, d, [seed, 2, r, k]))
            for k, d in enumerate(CERTIFY_DEGREES)
        ]
        for r in range(count)
    ]


# ---------------------------------------------------------------------------
# degenerate: constructed instances and rescaled generic draws
# ---------------------------------------------------------------------------


def family_polynomial(kind: str, n: int, d: int):
    """The polynomial run_degenerate_family builds for (kind, n, d)."""
    if kind == "repeated_lambda1":
        return genlab.quadratic_form_polynomial(
            np.diag([1.0, 1.0] + [float(k) for k in range(2, n)])
        )
    return genlab.axis_monomial(n, d)


def constructed_op(kind: str, n: int, d: int, seed: int) -> Op:
    f = family_polynomial(kind, n, d)
    verified: list[int] = []

    def check(report) -> tuple[list[str], int]:
        # The suite keeps its critical set to itself.  The solve is
        # deterministic in (f, seed), so the check repeats it once, outside
        # the timed interval, to count the pairs the harness can verify.
        if not verified:
            found = critsolve.find_critical_pairs(f, critsolve.SolverConfig(seed=seed))
            verified.append(
                verified_count(f, [p.x for p in found.pairs], [p.lam for p in found.pairs])
            )
        reasons = [f"{c.name}: {c.detail}" for c in report.checks if not c.passed]
        return reasons, verified[0]

    return Op(
        kind=f"{kind}({n},{d})",
        run=lambda: genlab.run_degenerate_family(kind, n, d, seed=seed),
        check=check,
        expect_ok=False,
    )


def rescaled_form(n: int, d: int, norm: float, seed):
    base = polyhom.random_polynomial(n, d, seed).coefficient_vector()
    return polyhom.HomogeneousPolynomial.from_coefficient_vector(
        n, d, base * (norm / np.linalg.norm(base))
    )


def check_rescaled(f, points) -> tuple[list[str], int]:
    """Fails on any degenerate verdict or fewer than two critical points."""
    reasons = []
    degenerate = sum(p.verdict is classify.Verdict.SONC_DEGENERATE for p in points)
    if degenerate:
        reasons.append(f"{degenerate} SONC_DEGENERATE of {len(points)} points")
    if len(points) < 2:
        reasons.append(f"{len(points)} critical points")
    verified = verified_count(f, [p.pair.x for p in points], [p.pair.lam for p in points])
    return reasons, verified


def rescaled_op(f, seed: int) -> Op:
    config = critsolve.SolverConfig(seed=seed)
    return Op(
        kind=f"rescaled({f.n},{f.d},|f|={f.coefficient_norm:.0e})",
        run=lambda: classify.classify_all(f, config),
        check=lambda points: check_rescaled(f, points),
        expect_ok=False,
    )


def _degenerate_rounds(seed: int) -> list[list[Op]]:
    ops = [
        constructed_op(kind, n, d, _int_seed(seed, 3, k))
        for k, (kind, n, d) in enumerate(CONSTRUCTED)
    ]
    for k, (n, d) in enumerate(GENERICITY_SHAPES):
        for j, norm in enumerate(RESCALED_NORMS + (TINY_NORMS[n, d],)):
            f = rescaled_form(n, d, norm, [seed, 4, k, j])
            ops.append(rescaled_op(f, _int_seed(seed, 5, k, j)))
    return [ops]


def build(name: str, seed: int, dump_dir: str) -> list[list[Op]]:
    """The rounds of workload ``name`` for ``seed``; the same seed gives the
    same inputs."""
    if name == "genericity":
        return _genericity_rounds(seed, dump_dir, GENERICITY_ROUNDS)
    if name == "certify_n2":
        return _certify_rounds(seed, CERTIFY_ROUNDS)
    if name == "degenerate":
        return _degenerate_rounds(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def warmup(name: str, seed: int, dump_dir: str) -> list[Op]:
    """Cheap ops that load every code path before timing starts."""
    if name == "genericity":
        return _genericity_rounds(seed + 1, dump_dir, 1)[0]
    if name == "certify_n2":
        return _certify_rounds(seed + 1, 1)[0]
    return [
        rescaled_op(rescaled_form(n, d, 1.0, [seed, 6, k]), k)
        for k, (n, d) in enumerate(GENERICITY_SHAPES)
    ] + [constructed_op("single_monomial", 3, 3, 0)]
