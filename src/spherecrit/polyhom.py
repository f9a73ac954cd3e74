"""Homogeneous polynomials: representation, calculus, serialization, sampling.

A polynomial is stored sparsely as a map from exponent tuples to float
coefficients.  Exponent tuples always have length ``n`` and sum to exactly
``d``, so the representation cannot hold mixed-degree expressions, and the
homogeneity identities (f(t x) = t^d f(x), Euler's relations) hold by
construction up to floating-point rounding.

The dense coefficient view uses graded lexicographic monomial order.  All
stored monomials share the single grade ``d``, so the order reduces to
descending lexicographic comparison of exponent tuples; it is fixed here once
and reused for serialization and random sampling so that artifacts are
reproducible without relying on dict iteration order.

Polynomial file format (JSON, UTF-8)::

    {"n": 2, "d": 2, "terms": [{"exp": [2, 0], "coef": 1.0}, ...]}

Exponents of each term must sum to ``d``; duplicate exponent vectors are
rejected.  Coefficients are written with 17 significant digits, enough for a
lossless float64 round trip.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

Monomial = tuple[int, ...]

__all__ = [
    "Monomial",
    "HomogeneousPolynomial",
    "PolynomialFormatError",
    "ZeroPolynomialError",
    "monomial_basis",
    "basis_size",
    "random_polynomial",
    "parse_polynomial",
    "serialize_polynomial",
    "read_polynomial",
    "write_polynomial",
]


class PolynomialFormatError(ValueError):
    """A polynomial file or term list violates the storage format."""


class ZeroPolynomialError(ValueError):
    """An analysis entry point received the zero polynomial.

    The zero polynomial is representable (empty term map) but every point of
    the sphere is a degenerate critical point for it, so solvers and
    classifiers refuse it up front instead of producing noise.
    """


@lru_cache(maxsize=None)
def monomial_basis(n: int, d: int) -> tuple[Monomial, ...]:
    """All exponent tuples of length ``n`` summing to ``d``, graded-lex order."""
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got d={d}")
    # Variable-index multisets map one-to-one onto exponent tuples.
    exps = (
        tuple(map(combo.count, range(n)))
        for combo in itertools.combinations_with_replacement(range(n), d)
    )
    return tuple(sorted(exps, reverse=True))


def basis_size(n: int, d: int) -> int:
    """Number of degree-``d`` monomials in ``n`` variables."""
    return math.comb(n + d - 1, d)


def _powers_table(pts: np.ndarray, dmax: int) -> np.ndarray:
    """table[k, i, e] = pts[k, i]**e for e = 0..dmax, built by repeated multiply.

    One table is shared by a bundle's columns evaluated at the same points,
    which replaces per-term float pow calls with gathers.
    """
    table = np.empty((pts.shape[0], pts.shape[1], dmax + 1))
    table[:, :, 0] = 1.0
    for e in range(1, dmax + 1):
        table[:, :, e] = table[:, :, e - 1] * pts
    return table


class _BundlePlan(NamedTuple):
    """Support-only plan of one jet bundle, shared by every polynomial with
    one support; each polynomial keeps only its weight matrix.

    ``exps`` is the monomial pool (rows in order of first appearance) and
    ``cols`` / ``dmax`` index the powers table, so that
    value[k, c] = sum_j monomial_j(pts[k]) * weights[j, c].  Entry t of the
    index arrays puts ``(coefs[source[t]] * a[t]) * b[t]`` into weight cell
    ``(rows[t], columns[t])``, where ``a`` and ``b`` are the exponents
    brought down by the first and second derivative (1 where none was).
    """

    exps: np.ndarray
    cols: np.ndarray
    dmax: int
    shape: tuple[int, int]
    rows: np.ndarray
    columns: np.ndarray
    source: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _bundle_plan(
    n: int, order: tuple[Monomial, ...], columns: list[tuple[int, ...]]
) -> _BundlePlan:
    """Plan of the bundle whose column c differentiates the polynomial with
    support ``order`` by the variables ``columns[c]`` (none, one or two)."""
    index: dict[Monomial, int] = {}
    entries = []
    for c, variables in enumerate(columns):
        for k, exp in enumerate(order):
            lowered, brought = list(exp), [1, 1]
            for t, i in enumerate(variables):
                brought[t] = lowered[i]
                lowered[i] -= 1
            if min(lowered) >= 0:
                entries.append((index.setdefault(tuple(lowered), len(index)), c, k, *brought))
    exps = _frozen(np.array(list(index), dtype=np.intp).reshape(len(index), n))
    rows, weight_cols, source, a, b = _frozen(np.array(entries, dtype=np.intp).reshape(-1, 5).T)
    return _BundlePlan(
        exps=exps,
        cols=np.broadcast_to(np.arange(n), exps.shape),
        dmax=int(exps.max(initial=0)),
        shape=(len(index), len(columns)),
        rows=rows,
        columns=weight_cols,
        source=source,
        a=_frozen(a.astype(np.float64)),
        b=_frozen(b.astype(np.float64)),
    )


@lru_cache(maxsize=256)
def _derivative_plan(
    n: int, order: tuple[Monomial, ...]
) -> tuple[tuple[_BundlePlan, ...], tuple[np.ndarray, np.ndarray]]:
    """Bundle plans of the value, gradient and Hessian of every polynomial
    whose support is ``order`` (graded lex), and the Hessian's upper
    triangle in the order of the Hessian columns; all arrays read-only."""
    triangle = tuple(_frozen(t) for t in np.triu_indices(n))
    plans = (
        _bundle_plan(n, order, [()]),
        _bundle_plan(n, order, [(i,) for i in range(n)]),
        _bundle_plan(n, order, list(zip(*triangle))),
    )
    return plans, triangle


class HomogeneousPolynomial:
    """Immutable homogeneous polynomial of degree ``d`` in ``n`` variables.

    Everything that depends only on the support (the sorted exponent rows,
    the monomial pools of the value, gradient and Hessian bundles, where
    each coefficient lands in their weights, and the Hessian's triangle) is
    a read-only derivative plan, cached per ``(n, support)`` and shared by
    all polynomials with that support.  Construction validates the terms and
    fills this instance's own three weight matrices from the plans.
    Instances never mutate afterwards and are safe to share read-only across
    concurrent workers.  All methods are pure.
    """

    __slots__ = (
        "_n",
        "_d",
        "_exps",
        "_coefs",
        "_norm",
        "_plans",
        "_weights",
        "_triangle",
    )

    def __init__(self, n: int, d: int, terms: Mapping[Monomial, float]):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"variable count must be a positive integer, got {n!r}")
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ValueError(f"degree must be a positive integer, got {d!r}")
        cleaned: dict[Monomial, float] = {}
        for exp, coef in terms.items():
            key = tuple(int(e) for e in exp)
            if len(key) != n:
                raise ValueError(
                    f"exponent vector {list(key)} has length {len(key)}, expected {n}"
                )
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in term {list(key)}")
            if sum(key) != d:
                raise ValueError(
                    f"exponent sum {sum(key)} != degree {d} in term {list(key)}"
                )
            c = float(coef)
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient {coef!r} in term {list(key)}")
            if c != 0.0:
                cleaned[key] = c

        order = tuple(sorted(cleaned, reverse=True))  # graded lex; single grade here
        self._coefs = np.array([cleaned[e] for e in order], dtype=np.float64)
        with np.errstate(over="ignore"):
            self._norm = float(np.linalg.norm(self._coefs))
        if not math.isfinite(self._norm):
            raise ValueError(
                f"coefficient norm overflows float64 (largest coefficient "
                f"{np.max(np.abs(self._coefs)):.3g}); rescale the polynomial"
            )
        self._n = n
        self._d = d
        self._plans, self._triangle = _derivative_plan(n, order)
        self._weights = tuple(np.zeros(plan.shape) for plan in self._plans)
        for plan, weights in zip(self._plans, self._weights):
            # Each (row, column) cell occurs at most once, so assignment is
            # the sum over terms.
            weights[plan.rows, plan.columns] = self._coefs[plan.source] * plan.a * plan.b
        self._exps = self._plans[0].exps  # the value pool is the support

    @property
    def n(self) -> int:
        return self._n

    @property
    def d(self) -> int:
        return self._d

    @property
    def terms(self) -> dict[Monomial, float]:
        """Copy of the term map (exponent tuple -> coefficient)."""
        return {
            tuple(int(e) for e in exp): float(c)
            for exp, c in zip(self._exps.tolist(), self._coefs)
        }

    @property
    def num_terms(self) -> int:
        return int(self._coefs.size)

    @property
    def is_zero(self) -> bool:
        return self._coefs.size == 0

    @property
    def coefficient_norm(self) -> float:
        """Euclidean norm of the dense coefficient vector."""
        return self._norm

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        return (
            self._n == other._n
            and self._d == other._d
            and self._exps.shape == other._exps.shape
            and bool(np.all(self._exps == other._exps))
            and bool(np.all(self._coefs == other._coefs))
        )

    def __repr__(self) -> str:
        return (
            f"HomogeneousPolynomial(n={self._n}, d={self._d}, "
            f"{self.num_terms} terms)"
        )

    def _as_matrix(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self._n:
            raise ValueError(f"points must have shape (k, {self._n}), got {pts.shape}")
        return pts

    def _as_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._n,):
            raise ValueError(f"point has shape {x.shape}, expected ({self._n},)")
        return x

    def _jet(self, k: int, pts: np.ndarray) -> np.ndarray:
        """Bundle k (0 value, 1 gradient, 2 Hessian triangle) at the rows of
        ``pts``: one powers table, one gather and product, one GEMM."""
        plan = self._plans[k]
        table = _powers_table(pts, plan.dmax)
        return table[:, plan.cols, plan.exps].prod(axis=2) @ self._weights[k]

    def evaluate(self, x) -> float:
        """Value of the polynomial at a point of length ``n``."""
        x = self._as_point(x)
        return float(self.evaluate_many(x[None, :])[0])

    def evaluate_many(self, pts) -> np.ndarray:
        """Values at many points; ``pts`` has one point per row."""
        return self._jet(0, self._as_matrix(pts))[:, 0]

    def gradient(self, x) -> np.ndarray:
        """Analytic gradient at a point; satisfies grad f(x).x = d f(x)."""
        x = self._as_point(x)
        return self.gradient_many(x[None, :])[0]

    def gradient_many(self, pts) -> np.ndarray:
        """Gradients at many points, shape (k, n) for ``pts`` of shape (k, n)."""
        return self._jet(1, self._as_matrix(pts))

    def hessian(self, x) -> np.ndarray:
        """Symmetric Hessian at a point; satisfies hess f(x) x = (d-1) grad f(x)."""
        x = self._as_point(x)
        return self.hessian_many(x[None, :])[0]

    def hessian_many(self, pts) -> np.ndarray:
        """Hessians at many points, shape (k, n, n), each one symmetric."""
        pts = self._as_matrix(pts)
        vals = self._jet(2, pts)
        rows, cols = self._triangle
        H = np.zeros((pts.shape[0], self._n, self._n))
        H[:, rows, cols] = vals
        H[:, cols, rows] = vals
        return H

    def coefficient_vector(self) -> np.ndarray:
        """Dense coefficient vector in the fixed graded-lex monomial order."""
        basis = monomial_basis(self._n, self._d)
        index = {exp: k for k, exp in enumerate(basis)}
        vec = np.zeros(len(basis))
        for exp, c in zip(map(tuple, self._exps.tolist()), self._coefs):
            vec[index[exp]] = c
        return vec

    @classmethod
    def from_coefficient_vector(cls, n: int, d: int, values) -> "HomogeneousPolynomial":
        """Inverse of :meth:`coefficient_vector`; lossless round trip."""
        values = np.asarray(values, dtype=np.float64)
        expected = basis_size(n, d)
        if values.shape != (expected,):
            raise ValueError(
                f"coefficient vector has shape {values.shape}, expected ({expected},)"
            )
        basis = monomial_basis(n, d)
        return cls(n, d, {exp: v for exp, v in zip(basis, values) if v != 0.0})


def random_polynomial(n: int, d: int, seed) -> HomogeneousPolynomial:
    """Polynomial with iid standard normal coefficients on every monomial.

    Deterministic for a given ``seed`` (anything accepted by
    ``numpy.random.default_rng``).  A standard normal law is absolutely
    continuous, which is all the genericity experiments require.
    """
    rng = np.random.default_rng(seed)
    return HomogeneousPolynomial.from_coefficient_vector(
        n, d, rng.standard_normal(basis_size(n, d))
    )


def serialize_polynomial(f: HomogeneousPolynomial) -> str:
    """Render ``f`` in the JSON file format, terms in graded-lex order."""
    entries = []
    for exp, c in zip(f._exps.tolist(), f._coefs):
        exp_str = ", ".join(str(int(e)) for e in exp)
        entries.append(f'{{"exp": [{exp_str}], "coef": {float(c):.17g}}}')
    if entries:
        body = ",\n    ".join(entries)
        terms = f"[\n    {body}\n  ]"
    else:
        terms = "[]"
    return f'{{"n": {f.n}, "d": {f.d}, "terms": {terms}}}\n'


def _require_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise PolynomialFormatError(f"'{key}' must be an integer, got {value!r}")
    return value


def parse_polynomial(text: str) -> HomogeneousPolynomial:
    """Parse the JSON file format, rejecting non-homogeneous input.

    Raises :class:`PolynomialFormatError` naming the offending term when an
    exponent sum does not match the declared degree or when two terms carry
    the same exponent vector; every :class:`HomogeneousPolynomial` check
    failure is re-raised as one.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolynomialFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PolynomialFormatError("top level must be a JSON object")
    for key in ("n", "d", "terms"):
        if key not in doc:
            raise PolynomialFormatError(f"missing required key '{key}'")
    n = _require_int(doc, "n")
    d = _require_int(doc, "d")
    raw_terms = doc["terms"]
    if not isinstance(raw_terms, list):
        raise PolynomialFormatError("'terms' must be a list")

    terms: dict[Monomial, float] = {}
    for entry in raw_terms:
        if not isinstance(entry, dict) or "exp" not in entry or "coef" not in entry:
            raise PolynomialFormatError(
                f"each term needs 'exp' and 'coef' keys, got {entry!r}"
            )
        exp_raw = entry["exp"]
        if (
            not isinstance(exp_raw, list)
            or len(exp_raw) != n
            or any(not isinstance(e, int) or isinstance(e, bool) for e in exp_raw)
        ):
            raise PolynomialFormatError(
                f"'exp' must be a list of {n} integers, got {exp_raw!r}"
            )
        exp = tuple(exp_raw)
        if exp in terms:
            raise PolynomialFormatError(f"duplicate monomial {exp_raw}")
        coef = entry["coef"]
        if isinstance(coef, bool) or not isinstance(coef, (int, float)):
            raise PolynomialFormatError(f"'coef' must be a number in term {exp_raw}")
        try:
            terms[exp] = float(coef)
        except OverflowError:
            raise PolynomialFormatError(
                f"coefficient out of float64 range in term {exp_raw}"
            ) from None
    try:
        return HomogeneousPolynomial(n, d, terms)
    except ValueError as exc:
        raise PolynomialFormatError(str(exc)) from exc


def read_polynomial(path) -> HomogeneousPolynomial:
    return parse_polynomial(Path(path).read_text(encoding="utf-8"))


def write_polynomial(f: HomogeneousPolynomial, path) -> None:
    Path(path).write_text(serialize_polynomial(f), encoding="utf-8")
