#!/usr/bin/env python3
"""spherecrit benchmark: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout::

    python3 bench/run_bench.py --workload genericity --seed 1 --seconds 25 --trace 0
    python3 bench/run_bench.py --workload all --seed 1 --seconds 25 --trace 1
    python3 bench/selftest.py

Workloads (see ``workloads.py``): ``genericity`` (criterion-4 trials),
``certify_n2`` (multistart certified against the exact n = 2 enumeration plus
the exact oracle) and ``degenerate`` (constructed degenerate instances and
generic forms rescaled to tiny norms).  Each is a closed loop with one caller:
the next op starts when the previous one returns, and runs stop at round
boundaries so that every run measures the same mix.  A round holds one op of
every kind the workload mixes.  Throughput counts ops; latency is the time of
a round.  A single op's time is set mostly by its kind, so percentiles over
single ops fall in the gaps between kinds and move by 20-60 % from seed to
seed; a round's time does not.

``--trace 0`` prints the end-to-end metrics: set-up time, throughput, median
and tail latency, peak memory and critical pairs found per trial.
``--trace 1`` runs the loop untraced and then traced, each for half the time,
and prints the per-layer metrics, a self-time table, the tracing overhead and
whether the layer predictions hold.  Every op's output is checked after the
timed interval.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are normalized for machine speed.  After every op a fixed reference
kernel that shares no code with the program runs for
REF_SHARE of the op's time, and the op times of a round are multiplied by
REF_NOMINAL_S / (mean kernel time around that round): they read as on a
machine where the kernel takes REF_NOMINAL_S.  Set-up times use the run's
mean factor.  On the shared two-core machine
this was built on, other tenants slow every process by up to a third for tens
of seconds at a time; the ratio of op time to kernel time moves far less.  An
input that runs more than once in a run (every degenerate input runs exactly
twice) counts its best time.  The mean speed factor is printed.

BLAS runs on one thread: the matrices are tiny, and a second thread on a
two-core machine adds noise and no speed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HELD_OUT_SEED = 7919  # later gain claims must also hold on this seed
SETUP_REPEATS = 7
REF_SHARE = 0.15  # reference-kernel time per second of measured time
REF_NOMINAL_S = 0.002
REF_WINDOW_S = 2.0  # op time around a round whose kernel runs set its factor
SETUP_TIMEOUT_S = 60
TAIL_PCT = 90.0
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("points_found_per_trial", "count"),
)


def _prepare() -> None:
    """Pin BLAS threads and put the checkout's sources on the path."""
    if not (SRC / "spherecrit" / "__init__.py").is_file():
        raise SystemExit(f"error: no spherecrit sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def _setup_probe(workload: str, seed: int) -> None:
    """Import the package and build the inputs in this fresh process."""
    t0 = time.perf_counter()
    import spherecrit.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    import workloads

    workloads.build(workload, seed, dump_dir=str(ROOT / "unused"))
    print(repr(time.perf_counter() - t0))


class Reference:
    """Fixed numpy and Python kernel whose mean time tracks machine speed."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._A = rng.standard_normal((40, 6, 6)) + 6.0 * np.eye(6)
        self._b = rng.standard_normal((40, 6))
        self.total = 0.0
        self.count = 0

    def _kernel(self) -> None:
        np = self._np
        for _ in range(30):
            np.linalg.solve(self._A, self._b[..., None])
            np.einsum("kij,kj->ki", self._A, self._b)
            x = 0
            for i in range(300):
                x += i * i

    def sample(self, measured_s: float) -> None:
        """Run the kernel at least once and for REF_SHARE of ``measured_s``."""
        spent = 0.0
        count = 0
        while count == 0 or spent < REF_SHARE * measured_s:
            t0 = time.perf_counter()
            self._kernel()
            spent += time.perf_counter() - t0
            count += 1
        self.total += spent
        self.count += count

    def mean_factor(self) -> float:
        """Multiplier taking this run's times to reference speed."""
        return REF_NOMINAL_S * self.count / self.total


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh processes, after one warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True, cwd=ROOT)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _execute(op, tracer=None) -> tuple[float, object, str | None]:
    error = output = None
    if tracer is not None:
        tracer.begin_op()
    t0 = time.perf_counter()
    try:
        output = op.run()
    except Exception:  # one broken op must not hide the others' results
        error = traceback.format_exc()
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_op()
    return t1 - t0, output, error


def run_loop(rounds, budget_s: float, ref: Reference, min_rounds: int = 1,
             max_rounds: int | None = None, tracer=None) -> list[tuple]:
    """Run whole rounds until ``budget_s`` has passed and ``min_rounds`` ran,
    or until ``max_rounds`` ran.

    Returns every op as (op, seconds, output, error, round index).  Seconds
    are normalized with the reference kernel runs around the op's round.  An
    input that ran more than once counts its best time: a
    repeat does the same work, and only other tenants make it slower.
    """
    raw = []
    kernel = []  # per round: (op seconds, kernel seconds, kernel runs)
    start = time.perf_counter()
    r = 0
    while (r < min_rounds or time.perf_counter() - start < budget_s) and r != max_rounds:
        spent_before, count_before, busy = ref.total, ref.count, 0.0
        for op in rounds[r % len(rounds)]:
            seconds, output, error = _execute(op, tracer)
            ref.sample(seconds)
            busy += seconds
            raw.append((op, seconds, output, error, r))
        kernel.append((busy, ref.total - spent_before, ref.count - count_before))
        r += 1
    factors = [_window_factor(kernel, i) for i in range(len(kernel))]
    samples = [(op, seconds * factors[i], output, error, i) for op, seconds, output, error, i in raw]
    best: dict[int, float] = {}
    for op, seconds, *_ in samples:
        best[id(op)] = min(seconds, best.get(id(op), math.inf))
    return [(op, best[id(op)], *rest) for op, _, *rest in samples]


def _window_factor(kernel: list[tuple[float, float, int]], r: int) -> float:
    """Speed factor of round ``r`` from the kernel runs of the rounds around
    it, widened until they cover REF_WINDOW_S of op time: a short round's
    few kernel runs alone are too noisy."""
    lo = hi = r
    while sum(k[0] for k in kernel[lo:hi + 1]) < REF_WINDOW_S and (lo > 0 or hi < len(kernel) - 1):
        lo, hi = max(lo - 1, 0), min(hi + 1, len(kernel) - 1)
    spent = sum(k[1] for k in kernel[lo:hi + 1])
    count = sum(k[2] for k in kernel[lo:hi + 1])
    return REF_NOMINAL_S * count / spent


def check_samples(samples) -> dict:
    """Apply every op's check; count failures and verified critical pairs."""
    failed = unexpected = 0
    points = []
    by_kind: dict[str, dict] = {}
    for op, _, output, error, _ in samples:
        if error is not None:
            reasons, verified = [f"raised: {error.strip().splitlines()[-1]}"], 0
            unexpected += 1
        else:
            reasons, verified = op.check(output)
            if reasons and op.expect_ok:
                unexpected += 1
        failed += bool(reasons)
        points.append(verified)
        entry = by_kind.setdefault(op.kind, {"failed": 0, "reasons": []})
        entry["failed"] += bool(reasons)
        if reasons and reasons not in entry["reasons"]:
            entry["reasons"].append(reasons)
    return {"attempted": len(samples), "failed": failed, "unexpected": unexpected,
            "points": points, "by_kind": by_kind}


def round_seconds(samples) -> list[float]:
    """Time of each round: one op of every kind the workload mixes."""
    totals: dict[int, float] = {}
    for _, seconds, _, _, r in samples:
        totals[r] = totals.get(r, 0.0) + seconds
    return list(totals.values())


def latency_stats(seconds: list[float]) -> dict:
    """Median and tail: TAIL_PCT when it leaves TAIL_BEYOND samples above it,
    else the maximum.

    The tail percentile is fixed rather than the highest one the sample
    count allows, so that a faster program, which fits more rounds in a run,
    is not reported at a higher percentile.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    rank = math.ceil(TAIL_PCT / 100.0 * n)  # nearest rank
    if n - rank >= TAIL_BEYOND:
        tail, pct = ordered[rank - 1], TAIL_PCT
    else:
        tail, pct = ordered[-1], 100.0
    return {"p50_ms": 1e3 * statistics.median(ordered), "tail_ms": 1e3 * tail,
            "tail_pct": pct, "samples": n, "beyond": n - rank if pct < 100.0 else 0}


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def _print_kinds(samples, checked: dict) -> None:
    seconds: dict[str, list[float]] = {}
    for op, t, _, _, _ in samples:
        seconds.setdefault(op.kind, []).append(t)
    print(f"  {'kind':34s} {'ops':>5s} {'p50 ms':>9s} {'failed':>6s}")
    for kind, times in seconds.items():
        entry = checked["by_kind"][kind]
        print(f"  {kind:34s} {len(times):5d} {1e3 * statistics.median(times):9.2f} {entry['failed']:6d}")
        for reasons in entry["reasons"][:2]:
            print(f"      failed: {'; '.join(reasons)[:160]}")


def run_end_to_end(name: str, seed: int, seconds: float, dump_dir: str) -> tuple[dict, dict]:
    import workloads

    ref = Reference()
    setup = measure_setup(name, seed)
    rounds = workloads.build(name, seed, dump_dir)
    for op in workloads.warmup(name, seed, dump_dir):
        _execute(op)
    start = time.perf_counter()
    samples = run_loop(rounds, seconds, ref, workloads.MIN_ROUNDS[name],
                       workloads.MAX_ROUNDS.get(name))
    elapsed = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = check_samples(samples)
    lat = latency_stats(round_seconds(samples))
    # A set-up lasts too short a time for kernel runs of its own to gauge
    # machine speed well; the run's mean factor does.
    setup = [t * ref.mean_factor() for t in setup]
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(samples) / sum(s[1] for s in samples),
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "peak_rss_mb": rss_mb,
        "points_found_per_trial": statistics.fmean(checked["points"]),
    }
    print(f"[{name}] closed loop, 1 caller: {len(samples)} ops in {elapsed:.2f} s; "
          f"mean speed factor {ref.mean_factor():.4f} over {ref.count} reference kernel runs")
    print(f"  setup_s                {values['setup_s']:.4f} s  (median of {len(setup)} fresh processes: "
          + ", ".join(f"{t:.3f}" for t in setup) + ")")
    print(f"  ops_per_s              {values['ops_per_s']:.4f} 1/s")
    print(f"  latency_p50_ms         {values['latency_p50_ms']:.3f} ms  (per round of "
          f"{len(rounds[0])} ops, one of each kind)")
    print(f"  latency_tail_ms        {values['latency_tail_ms']:.3f} ms  (p{lat['tail_pct']:.1f}: "
          f"{lat['beyond']} of {lat['samples']} rounds beyond)")
    print(f"  failed_frac            {checked['failed'] / checked['attempted']:.4f}  "
          f"({checked['failed']} of {checked['attempted']} ops; {checked['unexpected']} unexpected)")
    print(f"  peak_rss_mb            {values['peak_rss_mb']:.2f} MB")
    print(f"  points_found_per_trial {values['points_found_per_trial']:.4f} verified critical pairs per op")
    _print_kinds(samples, checked)
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    return metrics, checked


def run_traced(name: str, seed: int, seconds: float, dump_dir: str) -> tuple[dict, dict]:
    import tracing
    import workloads

    rounds = workloads.build(name, seed, dump_dir)
    for op in workloads.warmup(name, seed, dump_dir):
        _execute(op)
    plain_ref, traced_ref = Reference(), Reference()
    plain = run_loop(rounds, seconds / 2, plain_ref)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run_loop(rounds, seconds / 2, traced_ref, tracer=tracer)
    checked = check_samples(plain + traced)
    k = traced_ref.mean_factor()
    values, self_s = tracing.summarize(tracer)
    for metric, unit, _ in tracing.METRICS:
        if unit == "s":
            values[metric] *= k
    self_s = {layer: v * k for layer, v in self_s.items()}
    plain_rate = len(plain) / sum(s[1] for s in plain)
    traced_rate = len(traced) / sum(s[1] for s in traced)
    values["failed_frac"] = checked["failed"] / checked["attempted"]
    values["trace_overhead_frac"] = 1.0 - traced_rate / plain_rate

    op_s = sum(self_s.values())
    print(f"[{name}] traced: {len(traced)} ops at {traced_rate:.3f}/s; "
          f"untraced: {len(plain)} ops at {plain_rate:.3f}/s; speed factor {k:.4f}")
    print(f"  {'layer':12s} {'self s/op':>12s} {'share':>7s}")
    for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        label = "unaccounted" if layer == "bench" else layer
        print(f"  {label:12s} {s:12.6f} {s / op_s if op_s else 0.0:7.3f}")
    print(f"  {'op total':12s} {op_s:12.6f}")
    expected = tracing.DOMINANT.get(name)
    top = max(tracing.LAYERS, key=lambda layer: self_s[layer])
    if expected:
        verdict = "holds" if top == expected else "is WRONG"
        print(f"  prediction: {expected} self time dominates {name} -- {verdict} "
              f"(largest: {top}, share {self_s[top] / op_s:.3f})")
    for metric, unit, _ in tracing.METRICS:
        print(f"  {metric:40s} {values[metric]:.6g} {unit}")
    _print_kinds(traced, checked)
    metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in tracing.METRICS}
    return metrics, checked


def _print_predictions() -> None:
    import tracing

    print("layer metric -> end-to-end metric it should move (workload):")
    for layer_metrics, e2e, where in tracing.PREDICTIONS:
        print(f"  {layer_metrics} -> {e2e} ({where})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "genericity", "certify_n2", "degenerate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    _prepare()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    prov = provenance(args.seed)
    print("spherecrit benchmark  " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    if args.trace:
        _print_predictions()
    runner = run_traced if args.trace else run_end_to_end
    correct, attempted, failed, metrics = True, 0, 0, {}
    with tempfile.TemporaryDirectory(prefix=".bench_dumps_", dir=ROOT) as dump_dir:
        for name in names:
            got, checked = runner(name, args.seed, args.seconds, dump_dir)
            leftovers = os.listdir(dump_dir)
            if leftovers:
                print(f"  dump directory holds {len(leftovers)} file(s)")
            correct &= checked["unexpected"] == 0
            attempted += checked["attempted"]
            failed += checked["failed"]
            if len(names) == 1:
                metrics = got
            else:
                metrics.update({f"{name}.{m}": v for m, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
