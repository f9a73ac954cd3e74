#!/usr/bin/env python3
"""Self-test of the benchmark harness; exits 0 when every check passes.

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that the
result line names every metric of BENCHMARK.json with its unit, that each
failure check flags a known-bad input and passes a good one, and that tracing
leaves the program as it found it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile

import run_bench

run_bench._prepare()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from spherecrit import classify, critsolve, degeneracy, genlab, polyhom  # noqa: E402


def tiny_rounds(name: str, seed: int, dump_dir: str):
    if name == "genericity":
        return [[workloads.genericity_op(2, 3, seed, dump_dir),
                 workloads.genericity_op(3, 3, seed, dump_dir)]]
    if name == "certify_n2":
        return [[workloads.certify_op(genlab.random_polynomial(2, 3, seed))]]
    return [[
        workloads.constructed_op("single_monomial", 3, 3, seed),
        workloads.rescaled_op(workloads.rescaled_form(2, 3, 1e-8, seed), seed),
        workloads.rescaled_op(workloads.rescaled_form(2, 3, 1.0, seed), seed),
    ]]


def check_result_lines(spec: dict) -> None:
    workloads.build = tiny_rounds
    workloads.warmup = lambda *args: []
    workloads.MIN_ROUNDS = dict.fromkeys(workloads.WORKLOADS, 1)
    for trace, key, units in ((0, "end_to_end", dict(run_bench.END_TO_END)),
                              (1, "per_layer", {m: u for m, u, _ in tracing.METRICS})):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == units, f"BENCHMARK.json {key} differs from the harness: {declared} != {units}"
        for name in workloads.WORKLOADS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run_bench.main(["--workload", name, "--seconds", "0", "--trace", str(trace)])
            assert code == 0
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            assert got == declared, f"{name} trace={trace}: {got} != {declared}"
            for metric, v in result["metrics"].items():
                assert math.isfinite(v["value"]), (name, metric, v)
            print(f"ok  {name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")


def check_failure_checks(dump_dir: str) -> None:
    good = genlab.run_random_genericity(
        genlab.ExperimentConfig(n=3, d=4, trials=1, seed=5, dump_dir=dump_dir))
    assert workloads.check_genericity(good)[0] == []

    real_random = genlab.random_polynomial
    genlab.random_polynomial = lambda n, d, seed: genlab.axis_monomial(3, 4)
    try:
        bad = genlab.run_random_genericity(
            genlab.ExperimentConfig(n=3, d=4, trials=1, seed=5, dump_dir=dump_dir))
    finally:
        genlab.random_polynomial = real_random
    reasons, _ = workloads.check_genericity(bad)
    assert any("SONC_DEGENERATE" in r for r in reasons), reasons
    assert any("rank-witness" in r for r in reasons), reasons
    assert any("dumped" in r for r in reasons), reasons

    f = genlab.random_polynomial(2, 4, 3)
    good = (critsolve.certify_against_oracle(f), degeneracy.exact_oracle_n2(f))
    assert workloads.check_certify(good)[0] == []
    on_locus = genlab.axis_monomial(2, 4)
    bad = (critsolve.certify_against_oracle(on_locus), degeneracy.exact_oracle_n2(on_locus))
    assert any("on locus" in r for r in workloads.check_certify(bad)[0])

    suite = genlab.SuiteReport(name="known bad")
    suite.add("degenerate_points_on_expected_locus", False, "flagged point off the locus")
    op = workloads.constructed_op("single_monomial", 3, 3, 0)
    assert op.check(suite)[0] == ["degenerate_points_on_expected_locus: flagged point off the locus"]

    f = genlab.axis_monomial(3, 3)
    flat = [classify.classify_point(f, np.array([0.0, 0.6, 0.8])),
            classify.classify_point(f, np.array([0.0, -0.6, -0.8]))]
    assert any("SONC_DEGENERATE" in r for r in workloads.check_rescaled(f, flat)[0])
    assert any("critical points" in r for r in workloads.check_rescaled(f, [])[0])
    generic = workloads.rescaled_form(3, 4, 1.0, 0)
    assert workloads.check_rescaled(generic, classify.classify_all(generic))[0] == []

    # Points a tiny-norm form accepts at its absolute tolerance are not
    # critical at the scale of the form; the harness's own check says so.
    tiny = workloads.rescaled_form(2, 3, 1e-12, 0)
    spurious = classify.classify_all(tiny)
    assert spurious and workloads.check_rescaled(tiny, spurious)[1] < len(spurious)
    print("ok  every failure check flags its known-bad input and passes a good one")


def check_tracing_restores() -> None:
    before = (genlab.run_random_genericity, classify.find_critical_pairs,
              vars(polyhom.HomogeneousPolynomial)["gradient_many"])
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert classify.find_critical_pairs is critsolve.find_critical_pairs
        assert classify.find_critical_pairs is not before[1]
        tracer.begin_op()
        classify.classify_all(genlab.random_polynomial(2, 3, 0))
        tracer.end_op()
    after = (genlab.run_random_genericity, classify.find_critical_pairs,
             vars(polyhom.HomogeneousPolynomial)["gradient_many"])
    assert all(a is b for a, b in zip(before, after)), "wrappers left installed"
    _, self_s = tracing.summarize(tracer)
    op = tracer.spans[0]
    total = op[tracing.END] - op[tracing.START]
    assert abs(sum(self_s.values()) - total) <= 1e-9 * max(1.0, total)
    assert self_s["critsolve"] > 0 and self_s["classify"] > 0 and self_s["polyhom"] > 0
    print("ok  tracing wraps shared names once, accounts for op time and restores the program")


def main() -> int:
    with open(run_bench.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    check_tracing_restores()
    with tempfile.TemporaryDirectory(prefix=".bench_dumps_", dir=run_bench.ROOT) as dump_dir:
        check_failure_checks(dump_dir)
    check_result_lines(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
