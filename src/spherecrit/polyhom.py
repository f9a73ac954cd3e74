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

import json
import math
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Mapping

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

    def gen(vars_left: int, total: int) -> Iterator[Monomial]:
        if vars_left == 1:
            yield (total,)
            return
        for e in range(total, -1, -1):
            for rest in gen(vars_left - 1, total - e):
                yield (e,) + rest

    return tuple(gen(n, d))


def basis_size(n: int, d: int) -> int:
    """Number of degree-``d`` monomials in ``n`` variables."""
    return math.comb(n + d - 1, d)


def _powers_table(pts: np.ndarray, dmax: int) -> np.ndarray:
    """table[k, i, e] = pts[k, i]**e for e = 0..dmax, built by repeated multiply.

    One table is shared by all term sets evaluated at the same points, which
    replaces per-term float pow calls with gathers.
    """
    table = np.empty((pts.shape[0], pts.shape[1], dmax + 1))
    table[:, :, 0] = 1.0
    for e in range(1, dmax + 1):
        table[:, :, e] = table[:, :, e - 1] * pts
    return table


class _TermBundle:
    """Shared monomial list plus an output weight matrix.

    Evaluates several polynomials (e.g. all partial derivatives) that share
    a monomial pool in one gather + matmul: value[k, c] =
    sum_j monomial_j(pts[k]) * weights[j, c].
    """

    __slots__ = ("exps", "cols", "weights", "dmax")

    def __init__(self, n: int, monomials: list[Monomial], weights: np.ndarray):
        self.exps = np.array(monomials, dtype=np.intp).reshape(len(monomials), n)
        self.cols = np.broadcast_to(np.arange(n), self.exps.shape)
        self.weights = weights
        self.dmax = int(self.exps.max(initial=0))

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        table = _powers_table(pts, self.dmax)
        monomials = table[:, self.cols, self.exps].prod(axis=2)
        return monomials @ self.weights


def _bundle_from_term_sets(
    n: int, term_sets: list[tuple[list[Monomial], list[float]]]
) -> _TermBundle:
    index: dict[Monomial, int] = {}
    monomials: list[Monomial] = []
    for exps, _ in term_sets:
        for exp in exps:
            if exp not in index:
                index[exp] = len(monomials)
                monomials.append(exp)
    weights = np.zeros((len(monomials), len(term_sets)))
    for c, (exps, coefs) in enumerate(term_sets):
        for exp, coef in zip(exps, coefs):
            weights[index[exp], c] += coef
    return _TermBundle(n, monomials, weights)


class HomogeneousPolynomial:
    """Immutable homogeneous polynomial of degree ``d`` in ``n`` variables.

    Instances precompute the term data of all first and second partial
    derivatives at construction, never mutate afterwards, and are safe to
    share read-only across concurrent workers.  All methods are pure.
    """

    __slots__ = (
        "_n",
        "_d",
        "_exps",
        "_coefs",
        "_norm",
        "_value_bundle",
        "_grad_bundle",
        "_hess_bundle",
        "_hess_rows",
        "_hess_cols",
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

        order = sorted(cleaned, reverse=True)  # graded lex; single grade here
        self._n = n
        self._d = d
        self._exps = np.array(order, dtype=np.int64).reshape(len(order), n)
        self._coefs = np.array([cleaned[e] for e in order], dtype=np.float64)
        self._norm = float(np.linalg.norm(self._coefs))

        def differentiate(
            term_set: tuple[list[Monomial], list[float]], i: int
        ) -> tuple[list[Monomial], list[float]]:
            exps_out: list[Monomial] = []
            coefs_out: list[float] = []
            for exp, coef in zip(*term_set):
                if exp[i] > 0:
                    lowered = list(exp)
                    lowered[i] -= 1
                    exps_out.append(tuple(lowered))
                    coefs_out.append(coef * exp[i])
            return exps_out, coefs_out

        base = (list(order), [cleaned[e] for e in order])
        self._value_bundle = _bundle_from_term_sets(n, [base])
        partials = [differentiate(base, i) for i in range(n)]
        self._grad_bundle = _bundle_from_term_sets(n, partials)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        self._hess_bundle = _bundle_from_term_sets(
            n, [differentiate(partials[i], j) for i, j in pairs]
        )
        self._hess_rows = np.array([i for i, _ in pairs], dtype=np.intp)
        self._hess_cols = np.array([j for _, j in pairs], dtype=np.intp)

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

    def evaluate(self, x) -> float:
        """Value of the polynomial at a point of length ``n``."""
        x = self._as_point(x)
        return float(self.evaluate_many(x[None, :])[0])

    def evaluate_many(self, pts) -> np.ndarray:
        """Values at many points; ``pts`` has one point per row."""
        pts = self._as_matrix(pts)
        return self._value_bundle.evaluate(pts)[:, 0]

    def gradient(self, x) -> np.ndarray:
        """Analytic gradient at a point; satisfies grad f(x).x = d f(x)."""
        x = self._as_point(x)
        return self.gradient_many(x[None, :])[0]

    def gradient_many(self, pts) -> np.ndarray:
        return self._grad_bundle.evaluate(self._as_matrix(pts))

    def hessian(self, x) -> np.ndarray:
        """Symmetric Hessian at a point; satisfies hess f(x) x = (d-1) grad f(x)."""
        x = self._as_point(x)
        return self.hessian_many(x[None, :])[0]

    def hessian_many(self, pts) -> np.ndarray:
        pts = self._as_matrix(pts)
        vals = self._hess_bundle.evaluate(pts)
        H = np.zeros((pts.shape[0], self._n, self._n))
        H[:, self._hess_rows, self._hess_cols] = vals
        H[:, self._hess_cols, self._hess_rows] = vals
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


def _format_coefficient(c: float) -> str:
    # 17 significant digits: lossless float64 round trip.
    return format(float(c), ".17g")


def serialize_polynomial(f: HomogeneousPolynomial) -> str:
    """Render ``f`` in the JSON file format, terms in graded-lex order."""
    entries = []
    for exp, c in zip(f._exps.tolist(), f._coefs):
        exp_str = ", ".join(str(int(e)) for e in exp)
        entries.append(f'{{"exp": [{exp_str}], "coef": {_format_coefficient(c)}}}')
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
