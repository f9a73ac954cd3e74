"""Experiment harness: witness suites, degenerate families, random sampling.

Deterministic witness suites exercise closed-form instances whose critical
structure is known exactly; they must pass exactly, not statistically.  The
randomized runners sample the coefficient space and check that degeneracy
never occurs off the constructed instances, dumping any offending polynomial
to disk for inspection.

Reports are plain dataclasses with JSON and CSV views; an experiment
report's summary is read off its trial records.  Everything is deterministic
given the config seed except ``runtime_seconds``, which the JSON view writes
last and the CSV view leaves out.  The suites judge with the thresholds
their analyses applied.
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .classify import UNIT_NORM_TOL, Verdict, analyze_points
from .critsolve import DEFAULT_DEDUP_RADIUS, SolverConfig, find_critical_pairs
from .degeneracy import (
    _determinant_zero_bound,
    _witness_matrices,
    bordered_determinants,
    build_witness_matrix,
    detect_sosc_failure,
    exact_oracle_n2,
    quadratic_degeneracy,
    rank_deficient,
)
from .polyhom import HomogeneousPolynomial, random_polynomial, write_polynomial

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "SuiteReport",
    "QuadSweepReport",
    "weighted_axis_quadratic",
    "geometric_power_polynomial",
    "axis_monomial",
    "quadratic_form_polynomial",
    "enumerate_power_critical_points",
    "run_random_genericity",
    "run_witness_d2",
    "run_witness_general",
    "run_degenerate_family",
    "run_quadratic_sweep",
    "check_planted_quadratic",
]

SEED_STRIDE = 1_000_003  # per-trial seeds: base * SEED_STRIDE + trial
PLANTED_MULTIPLICITIES = (2, 3)  # least-eigenvalue multiplicities the quad sweep plants
# The suites' own threshold, outside the analysis's scaled ones.
CLOSED_FORM_TOL = 1e-8  # computed axes, lambdas, margins, determinants vs their closed forms


# ---------------------------------------------------------------------------
# Constructed instances
# ---------------------------------------------------------------------------


def weighted_axis_quadratic(n: int) -> HomogeneousPolynomial:
    """(x1^2 + 2 x2^2 + ... + n xn^2) / 2: critical points are the signed axes
    with multiplier k at the k-th axis, and only the first axis is SOSC."""
    return quadratic_form_polynomial(np.diag(np.arange(1.0, n + 1)))


def geometric_power_polynomial(n: int, d: int) -> HomogeneousPolynomial:
    """sum_k alpha^k xk^d with alpha = 2^(d-2), a degeneracy-free instance.

    For every d != 2 all of its real critical points keep the bordered
    determinant away from zero, so it anchors the non-degenerate side of the
    test suites.
    """
    alpha = 2.0 ** (d - 2)
    terms = {}
    for k in range(n):
        exp = [0] * n
        exp[k] = d
        terms[tuple(exp)] = alpha ** (k + 1)
    return HomogeneousPolynomial(n, d, terms)


def axis_monomial(n: int, d: int) -> HomogeneousPolynomial:
    """x1^d: for d >= 3 the entire subsphere x1 = 0 is critical and degenerate."""
    return HomogeneousPolynomial(n, d, {(d,) + (0,) * (n - 1): 1.0})


def quadratic_form_polynomial(A) -> HomogeneousPolynomial:
    """x^T A x / 2 for symmetric A, so that hess f == A everywhere."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    n = A.shape[0]
    terms = {}
    for i in range(n):
        for j in range(i, n):
            exp = [0] * n
            exp[i] += 1
            exp[j] += 1
            coef = 0.5 * A[i, i] if i == j else 0.5 * (A[i, j] + A[j, i])
            if coef != 0.0:
                terms[tuple(exp)] = float(coef)
    return HomogeneousPolynomial(n, 2, terms)


def enumerate_power_critical_points(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form real critical points of the geometric power polynomial.

    Stationarity forces xk = 0 or xk^(d-2) = lam / (d alpha^k) on each
    coordinate, so points are indexed by a sign pattern s != 0: for even d
    each sk is in {-1, 0, 1} and lam > 0; for odd d each sk is in {0, 1},
    times the sign of lam, and both lam branches occur.  That gives
    2 (2^n - 1) points for odd d and 3^n - 1 for even d; n is kept to at
    most 10 (59048 points).  Returns ``(X, lam)``, X of shape (k, n) and
    lam of shape (k,), rows ascending by (lam, x1, ..., xn) as in
    :class:`~spherecrit.critsolve.CriticalSet`.
    """
    if d == 2:
        raise ValueError("d = 2 is the quadratic case; its enumeration is the eigenbasis")
    if not (1 <= n <= 10 and d >= 1):
        raise ValueError(f"closed-form enumeration needs 1 <= n <= 10, d >= 1; got {n}, {d}")
    alpha = 2.0 ** (d - 2)
    if d == 1:
        c = alpha ** np.arange(1.0, n + 1)
        nrm = float(np.linalg.norm(c))
        return np.array([-c, c]) / nrm, np.array([-nrm, nrm])

    base = 3 if d % 2 == 0 else 2
    S = np.arange(base**n)[:, None] // base ** np.arange(n) % base  # base-b digits
    if base == 3:
        S = np.delete(S - 1, (base**n - 1) // 2, axis=0)  # the middle row is 0
        signs = 1
    else:
        S = np.concatenate([-S[1:], S[1:]])
        signs = np.sign(S.sum(axis=1))
    exponent = 1.0 / (d - 2)
    # Scalar pow: numpy's vectorised pow may round the last bit differently.
    coef = np.array([(d * alpha ** k) ** -exponent for k in range(1, n + 1)])
    lam_mag = np.where(S != 0, coef**2, 0.0).sum(axis=1) ** (-(d - 2) / 2.0)
    X = S * (lam_mag[:, None] ** exponent * coef)  # sk |xk|
    lam = signs * lam_mag
    order = np.lexsort(np.vstack([X.T[::-1], lam]))  # the last key sorts first
    return X[order], lam[order]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, bool(passed), detail))


@dataclass
class ExperimentConfig:
    n: int
    d: int
    trials: int
    seed: int = 0
    dump_dir: str = "degenerate_dumps"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")


@dataclass
class TrialRecord:
    trial: int
    poly_seed: int
    starts_used: int  # starts the solver Newton-polished, of its budget
    critical_count: int
    verdict_histogram: dict[str, int]
    min_sosc_margin: float | None
    degenerate_hits: int
    rank_witness_hits: int
    oracle_on_locus: bool | None


@dataclass
class ExperimentReport:
    """A genericity run, one record per trial; the summary properties are
    read off ``records``."""

    n: int
    d: int
    trials: int
    seed: int
    dumped_files: list[str]
    records: list[TrialRecord]
    runtime_seconds: float

    @property
    def total_degenerate(self) -> int:
        return sum(r.degenerate_hits for r in self.records)

    @property
    def total_rank_witnesses(self) -> int:
        return sum(r.rank_witness_hits for r in self.records)

    @property
    def min_sosc_margin(self) -> float | None:
        quantiles = self.margin_quantiles
        return None if quantiles is None else quantiles["min"]

    @property
    def margin_quantiles(self) -> dict[str, float] | None:
        """numpy's default quantiles of the trials' least SOSC margins."""
        margins = [r.min_sosc_margin for r in self.records if r.min_sosc_margin is not None]
        if not margins:
            return None
        qs = np.quantile(margins, (0.0, 0.25, 0.5, 0.75, 1.0)).tolist()
        return dict(zip(("min", "q25", "median", "q75", "max"), qs))

    def to_json(self) -> str:
        """The config, the summary, then the fields after ``seed``."""
        doc = asdict(self)
        config = {key: doc.pop(key) for key in ("n", "d", "trials", "seed")}
        summary = "total_degenerate", "total_rank_witnesses", "min_sosc_margin", "margin_quantiles"
        doc = {**config, **{key: getattr(self, key) for key in summary}, **doc}
        return json.dumps(doc, indent=2) + "\n"

    def write_csv(self, path) -> None:
        """One row per trial: seed, counts per class, min SOSC margin."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                [
                    "seed",
                    "critical_count",
                    "sosc_count",
                    "fonc_only_count",
                    "degenerate_count",
                    "min_margin",
                ]
            )
            for r in self.records:
                hist = r.verdict_histogram
                writer.writerow(
                    [
                        r.poly_seed,
                        r.critical_count,
                        hist.get(Verdict.SOSC.value, 0),
                        hist.get(Verdict.FONC_ONLY.value, 0),
                        hist.get(Verdict.SONC_DEGENERATE.value, 0),
                        "" if r.min_sosc_margin is None else repr(r.min_sosc_margin),
                    ]
                )


@dataclass
class QuadSweepReport:
    n: int
    trials: int
    seed: int
    degenerate_count: int
    disagreements: list[dict]
    planted: list[dict]
    runtime_seconds: float

    @property
    def passed(self) -> bool:
        return not self.disagreements and all(
            p["quadratic_rule"] and p["pipeline"] for p in self.planted
        )

    def to_json(self) -> str:
        doc = {**asdict(self), "passed": self.passed}
        doc["runtime_seconds"] = doc.pop("runtime_seconds")  # the runtime stays last
        return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Randomized genericity experiment
# ---------------------------------------------------------------------------


def _dump_polynomial(f: HomogeneousPolynomial, dump_dir: str, name: str) -> str:
    directory = Path(dump_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    write_polynomial(f, path)
    return str(path)


def run_random_genericity(config: ExperimentConfig) -> ExperimentReport:
    """Sample random objectives and verify that no SONC point is degenerate.

    Every critical point of every draw is classified and scanned for rank
    witnesses; any degenerate hit is a hard failure that also dumps the
    offending polynomial to ``config.dump_dir`` for inspection.
    """
    t0 = time.perf_counter()
    records: list[TrialRecord] = []
    dumped: list[str] = []

    for trial in range(config.trials):
        poly_seed = config.seed * SEED_STRIDE + trial
        f = random_polynomial(config.n, config.d, poly_seed)
        found = find_critical_pairs(f, SolverConfig(seed=poly_seed + 1))
        analysis = analyze_points(f, found.X)
        # Any real witness at x is a tangent eigenvector (up to eigenvalue
        # multiplicity), so these k * (n - 1) directions cover every candidate.
        W = _witness_matrices(
            analysis.points,
            analysis.gradients,
            analysis.hessians,
            analysis.eigenvectors.swapaxes(1, 2),
        )
        rank_hits = int(np.count_nonzero(rank_deficient(f, W)))

        histogram = dict(Counter(verdict.value for verdict in analysis.verdicts))
        degenerate = histogram.get(Verdict.SONC_DEGENERATE.value, 0)
        sosc = np.array([v is Verdict.SOSC for v in analysis.verdicts], dtype=bool)
        sosc &= np.isfinite(analysis.margins)
        min_margin = float(analysis.margins[sosc].min()) if sosc.any() else None

        oracle_on_locus = exact_oracle_n2(f).on_locus if config.n == 2 else None
        if degenerate or rank_hits:
            dumped.append(
                _dump_polynomial(
                    f,
                    config.dump_dir,
                    f"degenerate_n{config.n}_d{config.d}_seed{poly_seed}.json",
                )
            )
        records.append(
            TrialRecord(
                trial=trial,
                poly_seed=poly_seed,
                starts_used=found.starts_used,
                critical_count=len(analysis.verdicts),
                verdict_histogram=histogram,
                min_sosc_margin=min_margin,
                degenerate_hits=degenerate,
                rank_witness_hits=rank_hits,
                oracle_on_locus=oracle_on_locus,
            )
        )

    return ExperimentReport(
        n=config.n,
        d=config.d,
        trials=config.trials,
        seed=config.seed,
        records=records,
        dumped_files=dumped,
        runtime_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Witness suites (deterministic, must pass exactly)
# ---------------------------------------------------------------------------


def run_witness_d2(n: int) -> SuiteReport:
    """Quadratic witness suite on (x1^2 + 2 x2^2 + ... + n xn^2) / 2.

    Checks the full known structure: 2n critical points at the signed axes
    with multiplier k, SOSC exactly at the first axis with margin 1, a
    nonvanishing bordered determinant everywhere (closed form
    -prod_{j != k} (j - k)), and no degeneracy witness anywhere.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    p = weighted_axis_quadratic(n)
    report = SuiteReport(name=f"witness_d2(n={n})")
    found = find_critical_pairs(p)
    X = found.X

    report.add("critical_count", X.shape[0] == 2 * n, f"found {X.shape[0]}, expected {2 * n}")

    # Row j of `hit` marks the found pairs at the signed axis targets[j].
    targets = np.concatenate([np.eye(n), -np.eye(n)])
    target_lam = np.tile(np.arange(1.0, n + 1.0), 2)
    hit = (np.linalg.norm(X - targets[:, None, :], axis=2) <= CLOSED_FORM_TOL) & (
        np.abs(found.lam - target_lam[:, None]) <= CLOSED_FORM_TOL
    )
    report.add("pairs_are_signed_axes", hit.any(axis=1).all(), "each +-e_k present with lambda = k")

    analysis = analyze_points(p, X)
    axes = np.argmax(np.abs(X), axis=1)
    # Closed-form margins: 1 at +-e1, 1 - (k + 1) = -k at the other axes.
    margins_off = np.abs(analysis.margins - np.where(axes == 0, 1.0, -axes)) > CLOSED_FORM_TOL
    expected = [Verdict.SOSC if k == 0 else Verdict.FONC_ONLY for k in axes.tolist()]
    margins = zip(axes.tolist(), analysis.margins.tolist())
    report.add(
        "sosc_only_at_first_axis",
        not margins_off.any()
        and analysis.verdicts == expected
        and analysis.verdicts.count(Verdict.SOSC) == 2,
        "; ".join(f"axis {k + 1}: margin {m:.3e}" for k, m in margins),
    )

    dets = bordered_determinants(p, np.eye(n), np.arange(1.0, n + 1.0))
    gaps = np.arange(n) - np.arange(n)[:, None] + np.eye(n)  # j - k in row k, 1 at j = k
    closed_form = -gaps.prod(axis=1)
    # The closed forms are nonzero integers, so matching them keeps det off zero.
    det_off = np.abs(dets - closed_form) > CLOSED_FORM_TOL * np.maximum(1.0, np.abs(closed_form))
    det_detail = "; ".join(f"axis {k + 1}: det {det:.6g}" for k, det in enumerate(dets.tolist()))
    report.add("bordered_determinant_nonzero", not det_off.any(), det_detail)

    no_witness = {Verdict.SONC_DEGENERATE, Verdict.NOT_CRITICAL}.isdisjoint(analysis.verdicts)
    report.add("no_degeneracy_witness", no_witness, "detector returned None everywhere")
    return report


def run_witness_general(n: int, d: int) -> SuiteReport:
    """Witness suite on the geometric power polynomial for d != 2.

    Every real critical point must pass the FONC with its closed-form lam and
    keep |det H(x, lam)| above the margin band times its n - 2 largest factors
    |mu_i - lam| and at the closed form |d - 2|^(|support| - 1) |lam|^(n - 1)
    (the Hessian is diagonal), and no SONC point may be degenerate.
    For n = 2 the exact oracle must place the polynomial off the locus.
    """
    if d == 2:
        raise ValueError("d = 2 is covered by run_witness_d2")
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    p = geometric_power_polynomial(n, d)
    report = SuiteReport(name=f"witness_general(n={n}, d={d})")
    X, lams = enumerate_power_critical_points(n, d)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    analysis = analyze_points(p, X)
    lam_off = np.abs(analysis.lam - lams) > CLOSED_FORM_TOL * np.maximum(1.0, np.abs(lams))
    report.add(
        "enumeration_is_critical",
        np.all(analysis.residuals <= analysis.crit_tol) and not lam_off.any(),
        f"{lams.size} closed-form points, FONC residual <= {analysis.crit_tol:.3e}",
    )

    dets = np.abs(bordered_determinants(p, X, lams))
    gaps = analysis.eigenvalues - analysis.lam[:, None]
    vanishing = int(np.count_nonzero(dets <= _determinant_zero_bound(gaps, analysis.class_tol)))
    support = np.count_nonzero(X, axis=1)  # the closed form writes exact zeros
    expected = abs(d - 2.0) ** (support - 1) * np.abs(lams) ** (n - 1)
    report.add(
        "bordered_determinant_positive",
        vanishing == 0,
        f"min |det| = {dets.min():.3e}; {vanishing} vanish at +-{analysis.class_tol:.3e}",
    )
    report.add(
        "bordered_determinant_matches_diag_formula",
        np.all(np.abs(dets - expected) <= CLOSED_FORM_TOL * np.maximum(1.0, expected)),
        "|det| = |d-2|^(|S|-1) |lam|^(n-1) at every point",
    )

    degenerate = analysis.verdicts.count(Verdict.SONC_DEGENERATE)
    report.add("no_sonc_degenerate", degenerate == 0, f"{degenerate} degenerate verdicts")

    if n == 2:
        oracle = exact_oracle_n2(p)
        report.add("oracle_off_locus", not oracle.on_locus, oracle.certificate)
    return report


def run_degenerate_family(kind: str, n: int, d: int, seed: int = 0) -> SuiteReport:
    """Constructed degenerate instances that the pipeline must flag.

    ``repeated_lambda1`` (d = 2): the least eigenvalue has multiplicity two,
    so the minimizers form a circle of SONC-degenerate points.
    ``single_monomial`` (d >= 3): f = x1^d is critical with multiplier zero
    on the whole subsphere x1 = 0, with vanishing tangent Hessian.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    report = SuiteReport(name=f"degenerate_family({kind}, n={n}, d={d})")
    if kind == "repeated_lambda1":
        if d != 2:
            raise ValueError("repeated_lambda1 requires d = 2")
        diag = [1.0, 1.0] + [float(k) for k in range(2, n)]
        A = np.diag(diag)
        f = quadratic_form_polynomial(A)
        anchor = np.eye(n)[0]
        anchor_gaps = np.array(diag[1:]) - diag[0]  # mu_i - lam at the anchor
        locus = lambda X: np.linalg.norm(X[:, 2:], axis=1)
    elif kind == "single_monomial":
        if d < 3:
            raise ValueError("single_monomial requires d >= 3")
        f = axis_monomial(n, d)
        anchor = np.eye(n)[1]
        anchor_gaps = np.zeros(n - 1)  # hess f and lam vanish at the anchor
        locus = lambda X: np.abs(X[:, 0])
    else:
        raise ValueError(f"unknown kind {kind!r}")

    analysis = analyze_points(f, find_critical_pairs(f, SolverConfig(seed=seed)).X)
    flagged = np.array([v is Verdict.SONC_DEGENERATE for v in analysis.verdicts], dtype=bool)
    degenerate = int(np.count_nonzero(flagged))
    report.add(
        "pipeline_flags_degenerate",
        degenerate >= 1,
        f"{degenerate} SONC_DEGENERATE of {flagged.size} critical points",
    )
    report.add(
        "degenerate_points_on_expected_locus",
        degenerate > 0 and np.all(locus(analysis.points[flagged]) <= DEFAULT_DEDUP_RADIUS),
        "all flagged points lie on the known degenerate set",
    )

    witness = detect_sosc_failure(f, anchor)
    if witness is None:
        report.add("witness_at_anchor", False, "no witness at the anchor point")
    else:
        report.add(
            "witness_at_anchor",
            rank_deficient(f, build_witness_matrix(f, [witness.x], [[witness.y]]))[0, 0],
            f"third singular value {witness.rank_defect_measure:.3e}",
        )
        bound = _determinant_zero_bound(anchor_gaps, analysis.class_tol)
        report.add(
            "bordered_determinant_vanishes",
            abs(witness.bordered_det) <= bound,
            f"|det H| = {abs(witness.bordered_det):.3e} <= {bound:.3e}",
        )
        report.add(
            "witness_residuals_small",
            witness.bordered_residual <= analysis.crit_tol
            and abs(witness.y @ witness.x) <= UNIT_NORM_TOL,
            f"bordered residual {witness.bordered_residual:.3e}",
        )

    if kind == "repeated_lambda1":
        qd = quadratic_degeneracy(A)
        report.add(
            "quadratic_rule_agrees",
            qd.degenerate and qd.lambda1_multiplicity == 2,
            f"multiplicity {qd.lambda1_multiplicity}",
        )
    if kind == "single_monomial" and n >= 3:
        samples = 5
        V = np.random.default_rng(seed).standard_normal((samples, n))
        V[:, 0] = 0.0
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        flagged = analyze_points(f, V).verdicts.count(Verdict.SONC_DEGENERATE)
        report.add(
            "sampled_locus_points_flagged",
            flagged == samples,
            f"{flagged}/{samples} random points of the subsphere x1 = 0",
        )

    if n == 2:
        oracle = exact_oracle_n2(f)
        report.add("oracle_on_locus", oracle.on_locus, oracle.certificate)
    return report


# ---------------------------------------------------------------------------
# Quadratic sweep
# ---------------------------------------------------------------------------


def _pipeline_quadratic_degenerate(A: np.ndarray, seed: int) -> tuple[bool, int]:
    """Whether the pipeline finds a degenerate point of x^T A x, and the
    starts its solve Newton-polished."""
    f = quadratic_form_polynomial(A)
    found = find_critical_pairs(f, SolverConfig(seed=seed))
    return Verdict.SONC_DEGENERATE in analyze_points(f, found.X).verdicts, found.starts_used


def check_planted_quadratic(n: int, multiplicity: int, seed: int = 0) -> dict:
    """Detectability of a planted least-eigenvalue multiplicity.

    Builds A = Q D Q^T with the bottom eigenvalue repeated ``multiplicity``
    times (random orthogonal Q), then runs both the eigenvalue rule and the
    full pipeline.
    """
    if not 2 <= multiplicity <= n:
        raise ValueError("need 2 <= multiplicity <= n")
    rng = np.random.default_rng(seed)
    eigenvalues = np.concatenate(
        [np.full(multiplicity, -1.0), np.linspace(0.5, 2.0, n - multiplicity)]
    )
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(eigenvalues) @ Q.T
    A = 0.5 * (A + A.T)
    pipeline, starts_used = _pipeline_quadratic_degenerate(A, seed + 1)
    return {
        "multiplicity": multiplicity,
        "quadratic_rule": quadratic_degeneracy(A).degenerate,
        "pipeline": pipeline,
        "starts_used": starts_used,
    }


def run_quadratic_sweep(n: int, trials: int, seed: int = 0) -> QuadSweepReport:
    """Cross-validate the eigenvalue rule against the pipeline on random A.

    Random symmetric matrices generically have a simple least eigenvalue, so
    both detectors should report non-degenerate on every draw.  Each
    multiplicity of ``PLANTED_MULTIPLICITIES`` that fits in n is planted
    once and must be caught by both.
    """
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    disagreements: list[dict] = []
    degenerate_count = 0
    for trial in range(trials):
        G = rng.standard_normal((n, n))
        A = 0.5 * (G + G.T)
        rule = quadratic_degeneracy(A).degenerate
        pipe, starts_used = _pipeline_quadratic_degenerate(A, seed * SEED_STRIDE + trial)
        if rule or pipe:
            degenerate_count += 1
        if rule != pipe:
            disagreements.append(
                {
                    "trial": trial,
                    "quadratic_rule": rule,
                    "pipeline": pipe,
                    "starts_used": starts_used,
                }
            )
    planted_results = [
        check_planted_quadratic(n, k, seed=seed + 1000 + k)
        for k in PLANTED_MULTIPLICITIES
        if k <= n
    ]
    return QuadSweepReport(
        n=n,
        trials=trials,
        seed=seed,
        degenerate_count=degenerate_count,
        disagreements=disagreements,
        planted=planted_results,
        runtime_seconds=time.perf_counter() - t0,
    )
