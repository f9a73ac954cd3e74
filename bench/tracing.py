"""Spans around the program's public names, for the benchmark's traced run.

Nothing here runs unless :func:`installed` is entered.  It replaces every
public function of the spherecrit modules, in every module namespace that
holds it (``spherecrit.classify.find_critical_pairs`` as well as
``spherecrit.critsolve.find_critical_pairs``), and the jet, single-point and
constructor methods of ``HomogeneousPolynomial``, with wrappers that record a
span: name, layer, start, end, parent span and op id.  Leaving the context
restores the originals.

A layer is the module that defines the function.  A span's self time is its
duration minus its children's; the root span of each op belongs to the
``bench`` layer, so its self time is the part of the op no layer accounts for.
"""

from __future__ import annotations

import functools
import time
import types
from contextlib import contextmanager

import spherecrit
from spherecrit import classify, cli, critsolve, degeneracy, genlab, polyhom

LAYERS = ("polyhom", "critsolve", "classify", "degeneracy", "genlab", "cli")
MODULES = (spherecrit, polyhom, critsolve, classify, degeneracy, genlab, cli)
JET_METHODS = ("evaluate_many", "gradient_many", "hessian_many")
POINT_METHODS = ("evaluate", "gradient", "hessian")
SOLVE = "critsolve.find_critical_pairs"
BORDERED = ("degeneracy.bordered_matrix", "degeneracy.bordered_determinant", "degeneracy.bordered_scale")

# Which end-to-end metric each layer metric should move, and on which
# workload.  Later changes cite metrics and workloads by these names.
PREDICTIONS = (
    ("polyhom.jet_calls_per_op, polyhom.rows_per_jet_call, polyhom.jet_s_per_op",
     "ops_per_s, latency_p50_ms", "genericity, certify_n2"),
    ("polyhom.single_point_calls_per_op", "ops_per_s", "degenerate"),
    ("polyhom.construct_s_per_op", "latency_p50_ms; setup_s", "genericity; all"),
    ("critsolve.self_s_per_op, critsolve.residual_evals_per_solve", "ops_per_s", "genericity"),
    ("critsolve.self_s_per_op, critsolve.pairs_per_solve", "ops_per_s", "degenerate"),
    ("critsolve.starts_per_solve", "must not lower points_found_per_trial", "genericity"),
    ("critsolve.enumerate_s_per_op, critsolve.certify_s_per_op", "ops_per_s", "certify_n2"),
    ("classify.point_calls_per_op, classify.s_per_op", "ops_per_s", "degenerate (genericity slightly)"),
    ("degeneracy.witness_matrix_calls_per_op, degeneracy.witness_s_per_op", "ops_per_s", "genericity"),
    ("degeneracy.oracle_s_per_op", "ops_per_s", "certify_n2"),
    ("degeneracy.bordered_s_per_op", "ops_per_s", "degenerate"),
    ("genlab.self_s_per_op, genlab.dumps", "none", "-"),
)
# The layer whose self time should be the largest share of op time.
DOMINANT = {"genericity": "critsolve", "degenerate": "critsolve"}

# name, unit and better-direction of every per-layer metric, in output order.
METRICS = (
    ("polyhom.jet_calls_per_op", "count", "lower"),
    ("polyhom.rows_per_jet_call", "rows", "higher"),
    ("polyhom.jet_s_per_op", "s", "lower"),
    ("polyhom.single_point_calls_per_op", "count", "lower"),
    ("polyhom.construct_s_per_op", "s", "lower"),
    ("polyhom.self_s_per_op", "s", "lower"),
    ("critsolve.solve_s_per_op", "s", "lower"),
    ("critsolve.self_s_per_op", "s", "lower"),
    ("critsolve.residual_evals_per_solve", "count", "lower"),
    ("critsolve.jacobian_evals_per_solve", "count", "lower"),
    ("critsolve.starts_per_solve", "count", "lower"),
    ("critsolve.converged_frac", "ratio", "higher"),
    ("critsolve.pairs_per_solve", "count", "higher"),
    ("critsolve.enumerate_s_per_op", "s", "lower"),
    ("critsolve.certify_s_per_op", "s", "lower"),
    ("classify.point_calls_per_op", "count", "lower"),
    ("classify.s_per_op", "s", "lower"),
    ("degeneracy.witness_matrix_calls_per_op", "count", "lower"),
    ("degeneracy.witness_s_per_op", "s", "lower"),
    ("degeneracy.oracle_s_per_op", "s", "lower"),
    ("degeneracy.bordered_s_per_op", "s", "lower"),
    ("degeneracy.self_s_per_op", "s", "lower"),
    ("genlab.self_s_per_op", "s", "lower"),
    ("genlab.dumps", "count", "lower"),
    ("polyhom.self_share", "ratio", "lower"),
    ("critsolve.self_share", "ratio", "lower"),
    ("classify.self_share", "ratio", "lower"),
    ("degeneracy.self_share", "ratio", "lower"),
    ("genlab.self_share", "ratio", "lower"),
    ("unaccounted_share", "ratio", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)

# span fields
NAME, LAYER, START, END, PARENT, OP, EXTRA = range(7)


class Tracer:
    """In-memory span store; one per traced phase."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.ops = 0

    def open(self, name: str, layer: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self.ops, None])

    def close(self, extra=None) -> None:
        span = self.spans[self._stack.pop()]
        span[END] = time.perf_counter()
        span[EXTRA] = extra

    def begin_op(self) -> None:
        self.open("bench.op", "bench")

    def end_op(self) -> None:
        self.close()
        self.ops += 1


def _rows(args, kwargs, result):
    pts = args[1] if len(args) > 1 else kwargs["pts"]
    return len(pts)


def _solve_info(args, kwargs, result):
    return (result.starts_used, result.converged_fraction, len(result.pairs))


EXTRACTORS = {
    **{f"polyhom.{m}": _rows for m in JET_METHODS},
    SOLVE: _solve_info,
}


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    extract = EXTRACTORS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.open(name, layer)
        extra = None
        try:
            result = fn(*args, **kwargs)
            if extract is not None:
                extra = extract(args, kwargs, result)
            return result
        finally:
            tracer.close(extra)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Install span wrappers for the duration of the block."""
    saved: list[tuple[object, str, object]] = []
    wrappers: dict[int, object] = {}
    try:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith("spherecrit."):
                    continue
                layer = value.__module__.rsplit(".", 1)[1]
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = _wrap(tracer, value, f"{layer}.{value.__name__}", layer)
                    wrappers[id(value)] = wrapper
                saved.append((module, attr, value))
                setattr(module, attr, wrapper)
        cls = polyhom.HomogeneousPolynomial
        for attr in ("__init__",) + POINT_METHODS + JET_METHODS:
            value = vars(cls)[attr]
            name = "polyhom.construct" if attr == "__init__" else f"polyhom.{attr}"
            saved.append((cls, attr, value))
            setattr(cls, attr, _wrap(tracer, value, name, "polyhom"))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def summarize(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and per-layer self seconds per op from the spans."""
    spans = tracer.spans
    ops = max(tracer.ops, 1)
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    in_solve = [False] * len(spans)
    self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    jet_calls = jet_rows = 0
    jet_s = 0.0
    solve_residuals = solve_jacobians = 0
    solves: list[tuple[int, float, int]] = []
    for i, s in enumerate(spans):
        name, parent = s[NAME], s[PARENT]
        duration = s[END] - s[START]
        self_s[s[LAYER]] += duration - child[i]
        in_solve[i] = name == SOLVE or (parent >= 0 and in_solve[parent])
        calls[name] = calls.get(name, 0) + 1
        parent_name = spans[parent][NAME] if parent >= 0 else ""
        # Count a function once even when it calls itself through another
        # public name of the same family (bordered_determinant -> bordered_matrix).
        if not (name in BORDERED and parent_name in BORDERED):
            inclusive[name] = inclusive.get(name, 0.0) + duration
        method = name.split(".", 1)[1]
        if method in JET_METHODS:
            # Jets a single-point call makes on its behalf are counted as the
            # single-point call, not as a batched call of one row.
            if parent_name.split(".", 1)[-1] not in POINT_METHODS:
                jet_calls += 1
                jet_rows += s[EXTRA] or 0
                jet_s += duration
            if in_solve[i]:
                solve_residuals += method == "gradient_many"
                solve_jacobians += method == "hessian_many"
        if name == SOLVE and s[EXTRA] is not None:
            solves.append(s[EXTRA])

    nsolve = max(len(solves), 1)
    op_time = sum(self_s.values())
    incl = lambda *names: sum(inclusive.get(n, 0.0) for n in names) / ops
    metrics = {
        "polyhom.jet_calls_per_op": jet_calls / ops,
        "polyhom.rows_per_jet_call": jet_rows / max(jet_calls, 1),
        "polyhom.jet_s_per_op": jet_s / ops,
        "polyhom.single_point_calls_per_op": sum(calls.get(f"polyhom.{m}", 0) for m in POINT_METHODS) / ops,
        "polyhom.construct_s_per_op": incl("polyhom.construct"),
        "polyhom.self_s_per_op": self_s["polyhom"] / ops,
        "critsolve.solve_s_per_op": incl(SOLVE),
        "critsolve.self_s_per_op": self_s["critsolve"] / ops,
        "critsolve.residual_evals_per_solve": solve_residuals / nsolve,
        "critsolve.jacobian_evals_per_solve": solve_jacobians / nsolve,
        "critsolve.starts_per_solve": sum(s[0] for s in solves) / nsolve,
        "critsolve.converged_frac": sum(s[1] for s in solves) / nsolve,
        "critsolve.pairs_per_solve": sum(s[2] for s in solves) / nsolve,
        "critsolve.enumerate_s_per_op": incl("critsolve.enumerate_critical_pairs_n2"),
        "critsolve.certify_s_per_op": incl("critsolve.certify_against_oracle"),
        "classify.point_calls_per_op": calls.get("classify.classify_point", 0) / ops,
        "classify.s_per_op": self_s["classify"] / ops,
        "degeneracy.witness_matrix_calls_per_op": calls.get("degeneracy.build_witness_matrix", 0) / ops,
        "degeneracy.witness_s_per_op": incl("degeneracy.build_witness_matrix"),
        "degeneracy.oracle_s_per_op": incl("degeneracy.exact_oracle_n2"),
        "degeneracy.bordered_s_per_op": incl(*BORDERED),
        "degeneracy.self_s_per_op": self_s["degeneracy"] / ops,
        "genlab.self_s_per_op": self_s["genlab"] / ops,
        "genlab.dumps": float(calls.get("polyhom.write_polynomial", 0)),
    }
    for layer in ("polyhom", "critsolve", "classify", "degeneracy", "genlab"):
        metrics[f"{layer}.self_share"] = self_s[layer] / op_time if op_time else 0.0
    metrics["unaccounted_share"] = self_s["bench"] / op_time if op_time else 0.0
    return metrics, {layer: v / ops for layer, v in self_s.items()}
