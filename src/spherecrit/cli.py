"""Command-line frontend: polynomial file in, classification or report out.

Subcommands: classify, detect, oracle2, witness, sample, quad.

Exit codes
    0  success
    1  suite or experiment failure (degenerate hit, check failed)
    2  input error (bad file, bad flags, unsupported dimension)
    3  zero polynomial
    4  queried point is not critical

Numeric values in human-readable output are printed with 17 significant
digits so that they round-trip to the exact float64.  Output is byte-stable
for identical invocations; the only varying field, runtime, goes to the JSON
report files and never to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from typing import Sequence

import numpy as np

from .classify import analyze_points
from .critsolve import SolverConfig, certify_against_oracle, find_critical_pairs
from .degeneracy import NotCriticalError, detect_sosc_failure, exact_oracle_n2
from .genlab import (
    ExperimentConfig,
    run_degenerate_family,
    run_quadratic_sweep,
    run_random_genericity,
    run_witness_d2,
    run_witness_general,
)
from .polyhom import PolynomialFormatError, ZeroPolynomialError, read_polynomial

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_INPUT = 2
EXIT_ZERO_POLY = 3
EXIT_NOT_CRITICAL = 4


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _cmd_classify(args) -> int:
    f = read_polynomial(args.poly)
    found = find_critical_pairs(f, SolverConfig(starts=args.starts, seed=args.seed))
    a = analyze_points(f, found.X)
    verdicts = [v.value for v in a.verdicts]
    rows = list(zip(verdicts, a.lam.tolist(), a.margins.tolist(), a.residuals.tolist(),
                    a.points.tolist(), a.eigenvalues.tolist()))
    if args.json:
        # n = 1 has no tangent space: its margin is +inf, written as null.
        doc = [
            {"x": x, "lambda": lam, "residual": res, "tangent_eigenvalues": eig,
             "margin": m if math.isfinite(m) else None, "verdict": v}
            for v, lam, m, res, x, eig in rows
        ]
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    elif args.csv:
        lines = ["verdict,lambda,margin,residual," + ",".join(f"x{i+1}" for i in range(f.n))]
        for v, lam, m, res, x, _ in rows:
            lines.append(",".join([v, _fmt(lam), _fmt(m), _fmt(res)] + [_fmt(c) for c in x]))
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"critical points: {len(rows)}"]
        for v, lam, m, _, x, _ in rows:
            coords = ", ".join(_fmt(c) for c in x)
            lines.append(f"{v:<16} lambda={_fmt(lam)} margin={_fmt(m)} x=[{coords}]")
        summary = ", ".join(f"{k}={c}" for k, c in sorted(Counter(verdicts).items()))
        lines.append(f"summary: {summary if summary else 'no critical points found'}")
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_detect(args) -> int:
    f = read_polynomial(args.poly)
    try:
        x = np.array([float(v) for v in args.point.split(",")])
    except ValueError:
        print(f"cannot parse point {args.point!r}", file=sys.stderr)
        return EXIT_INPUT
    if x.shape != (f.n,):
        print(f"point has {x.size} coordinates, expected {f.n}", file=sys.stderr)
        return EXIT_INPUT
    if not np.all(np.isfinite(x)):
        print("point coordinates must be finite", file=sys.stderr)
        return EXIT_INPUT
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        print("point must be nonzero", file=sys.stderr)
        return EXIT_INPUT
    if abs(nrm - 1.0) > 1e-6:
        print(
            f"warning: normalizing input point (adjustment {abs(nrm - 1.0):.3e})",
            file=sys.stderr,
        )
    x /= nrm
    try:
        w = detect_sosc_failure(f, x)
    except NotCriticalError as exc:
        print(f"point is not critical: {exc}", file=sys.stderr)
        return EXIT_NOT_CRITICAL
    if w is None:
        margin = analyze_points(f, [x]).margins[0]
        sys.stdout.write(f"no witness: SOSC margin = {_fmt(margin)}\n")
        return EXIT_OK
    payload = {"x": w.x.tolist(), "y": w.y.tolist(), "mu": w.mu, "lambda": w.lam,
               "third_singular_value": w.rank_defect_measure, "bordered_det": w.bordered_det}
    if f.n == 2:
        payload["oracle_on_locus"] = exact_oracle_n2(f).on_locus
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_oracle2(args) -> int:
    f = read_polynomial(args.poly)
    result = exact_oracle_n2(f)
    sys.stdout.write(f"on_locus: {'true' if result.on_locus else 'false'}\n")
    sys.stdout.write(f"certificate: {result.certificate}\n")
    if args.certify:
        report = certify_against_oracle(f)
        status = "certified" if report.certified else "NOT certified"
        sys.stdout.write(
            f"multistart vs enumeration: {status} "
            f"(matched {report.matched}, only_multistart {len(report.only_multistart)}, "
            f"only_oracle {len(report.only_oracle)}, "
            f"all_critical {'true' if report.all_critical else 'false'})\n"
        )
    return EXIT_OK


def _cmd_witness(args) -> int:
    if args.mode != "d2" and args.d is None:
        print(f"--d is required for --mode {args.mode}", file=sys.stderr)
        return EXIT_INPUT
    if args.mode == "d2" and args.d not in (None, 2):
        print(f"--mode d2 runs d = 2 only, got --d {args.d}", file=sys.stderr)
        return EXIT_INPUT
    if args.mode == "d2":
        report = run_witness_d2(args.n)
    elif args.mode == "general":
        report = run_witness_general(args.n, args.d)
    else:
        kind = "repeated_lambda1" if args.d == 2 else "single_monomial"
        report = run_degenerate_family(kind, args.n, args.d)
    for check in report.checks:
        mark = "ok  " if check.passed else "FAIL"
        detail = f"  {check.detail}" if check.detail else ""
        sys.stdout.write(f"[{mark}] {check.name}{detail}\n")
    sys.stdout.write(f"suite {report.name}: {'PASS' if report.passed else 'FAIL'}\n")
    return EXIT_OK if report.passed else EXIT_SUITE_FAILED


def _cmd_sample(args) -> int:
    config = ExperimentConfig(
        n=args.n,
        d=args.d,
        trials=args.trials,
        seed=args.seed,
        starts=args.starts,
        dump_dir=args.dump_dir,
    )
    report = run_random_genericity(config)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    if args.csv:
        report.write_csv(args.csv)
    total_critical = sum(r.critical_count for r in report.records)
    min_margin = "n/a" if report.min_sosc_margin is None else _fmt(report.min_sosc_margin)
    sys.stdout.write(
        f"trials: {report.trials}, critical points: {total_critical}, "
        f"degenerate_hits: {report.total_degenerate}, "
        f"rank_witnesses: {report.total_rank_witnesses}, "
        f"min_sosc_margin: {min_margin}\n"
    )
    sys.stdout.write(f"report written to {args.output}\n")
    if report.dumped_files:
        for path in report.dumped_files:
            sys.stdout.write(f"degenerate polynomial dumped: {path}\n")
        return EXIT_SUITE_FAILED
    return EXIT_OK


def _cmd_quad(args) -> int:
    report = run_quadratic_sweep(args.n, args.trials, args.seed)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    sys.stdout.write(
        f"trials: {report.trials}, degenerate: {report.degenerate_count}, "
        f"disagreements: {len(report.disagreements)}, "
        f"planted detected: {sum(1 for p in report.planted if p['quadratic_rule'] and p['pipeline'])}"
        f"/{len(report.planted)}\n"
    )
    sys.stdout.write(f"report written to {args.output}\n")
    return EXIT_OK if report.passed else EXIT_SUITE_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherecrit",
        description="Critical points of homogeneous polynomials on the unit sphere: "
        "find, classify, and probe for second-order degeneracy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="find and classify all critical points")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--starts", type=int, default=None,
                   help="Newton start budget, 1 to 20000 (default 50*d*n)")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable JSON output")
    fmt.add_argument("--csv", action="store_true", help="CSV output")
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("detect", help="probe one point for a degeneracy witness")
    p.add_argument("--poly", required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("oracle2", help="exact complex-locus membership (n = 2)")
    p.add_argument("--poly", required=True)
    p.add_argument("--certify", action="store_true",
                   help="also cross-check multistart against the exact enumeration")
    p.set_defaults(func=_cmd_oracle2)

    p = sub.add_parser("witness", help="run a deterministic witness suite")
    p.add_argument("--mode", required=True, choices=["d2", "general", "degenerate"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("sample", help="randomized genericity experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=None)
    p.add_argument("--output", default="sample_report.json")
    p.add_argument("--csv", default=None, help="also write a per-trial CSV")
    p.add_argument("--dump-dir", dest="dump_dir", default="degenerate_dumps")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("quad", help="random symmetric-matrix degeneracy sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="quad_report.json")
    p.set_defaults(func=_cmd_quad)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolynomialFormatError as exc:
        print(f"polynomial format error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ZeroPolynomialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_POLY
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
