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


class _BundlePlan(NamedTuple):
    """Support-only plan of one jet bundle, shared by every polynomial with
    one support; each polynomial keeps only its weight matrix.

    ``exps`` is the monomial pool (rows in order of first appearance); with
    ``dmax`` and ``variables`` (0 .. width - 1, the gather's column index)
    it indexes the powers table, so that
    value[k, c] = sum_j monomial_j(pts[k]) * weights[j, c].  ``template``
    holds the weights no coefficient sets, and zeros where the
    coefficients go: entry t of the index arrays puts
    ``(coefs[source[t]] * a[t]) * b[t]`` into weight cell
    ``(rows[t], columns[t])``, where ``a`` and ``b`` are the exponents
    brought down by the first and second derivative (1 where none was).
    """

    exps: np.ndarray
    dmax: int
    variables: np.ndarray
    template: np.ndarray
    rows: np.ndarray
    columns: np.ndarray
    source: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _polynomial_map(pts: np.ndarray, plan: _BundlePlan, weights: np.ndarray) -> np.ndarray:
    """value[k, c] = sum_j monomial_j(pts[k]) * weights[j, c] over the pool
    of ``plan``: one powers table, one gather and product, one GEMM.  Points
    with fewer coordinates than the pool's variables take 0 for the rest.

    The table, table[r, i, e] = pts[r, i]**e for e = 0..dmax, is built by
    repeated multiply over one contiguous plane per exponent, which
    replaces per-term float pow calls with gathers.  numpy hands a one-row
    batch, and every one-column map, to BLAS gemv, which groups a dot
    product's terms by the row count modulo 4.  So the points are padded
    with zero rows to a multiple of 4, at least 4: a row's bits then do not
    depend on the rows evaluated with it.
    """
    (k, n), width = pts.shape, plan.exps.shape[1]
    planes = np.zeros((plan.dmax + 1, max(4, -(-k // 4) * 4), width))
    planes[0] = 1.0
    if plan.dmax:
        planes[1, :k, :n] = pts
    for e in range(2, plan.dmax + 1):
        np.multiply(planes[e - 1], planes[1], out=planes[e])
    table = planes.transpose(1, 2, 0)
    return (np.multiply.reduce(table[:, plan.variables, plan.exps], axis=2) @ weights)[:k]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _bundle_plan(
    width: int,
    order: tuple[Monomial, ...],
    columns: list[tuple[int, ...] | None],
    lam_terms: list[tuple[Monomial, list[int]]],
) -> _BundlePlan:
    """Plan of the bundle whose column c differentiates the polynomial with
    support ``order`` by the variables ``columns[c]`` (none, one or two, in
    ascending order), or is zero where that is None.  The pool ends with
    the monomials ``lam_terms``, each with weight -1 in its columns."""
    index: dict[Monomial, int] = {}
    entries = []
    for c, variables in enumerate(columns):
        if variables is None:
            continue
        for k, exp in enumerate(order):
            lowered, brought = list(exp), [1, 1]
            for t, i in enumerate(variables):
                brought[t] = lowered[i]
                lowered[i] -= 1
            if min(lowered) >= 0:
                entries.append((index.setdefault(tuple(lowered), len(index)), c, k, *brought))
    template = np.zeros((len(index) + len(lam_terms), len(columns)))
    for exp, cells in lam_terms:
        template[index.setdefault(exp, len(index)), cells] = -1.0
    exps = _frozen(np.array(list(index), dtype=np.intp).reshape(len(index), width))
    rows, weight_cols, source, a, b = _frozen(np.array(entries, dtype=np.intp).reshape(-1, 5).T)
    return _BundlePlan(
        exps=exps,
        dmax=int(exps.max(initial=0)),
        variables=_frozen(np.arange(width)),
        template=_frozen(template),
        rows=rows,
        columns=weight_cols,
        source=source,
        a=_frozen(a.astype(np.float64)),
        b=_frozen(b.astype(np.float64)),
    )


@lru_cache(maxsize=256)
def _derivative_plan(n: int, order: tuple[Monomial, ...]) -> tuple[_BundlePlan, ...]:
    """Bundle plans of every polynomial f whose support is ``order`` (graded
    lex), all arrays read-only: f's value at x, and the critical-pair
    system's residual rows grad f(x) - lam x (last column zero) and Jacobian
    block hess f(x) - lam I (row-major (n+1) x (n+1), border zero) at
    z = (x, lam).  Both cells (i, j) and (j, i) of the Jacobian take the
    variables in ascending order, so their weights are rounded alike."""
    z_order = tuple(exp + (0,) for exp in order)
    lam = (0,) * n + (1,)
    lam_x = [(lam[:i] + (1,) + lam[i + 1 :], [i]) for i in range(n)]  # lam x_i in column i
    diagonal = list(range(0, n * (n + 2), n + 2))  # the cells (i, i), i < n
    cells = [None if n in ij else tuple(sorted(ij)) for ij in itertools.product(range(n + 1), repeat=2)]
    return (
        _bundle_plan(n, order, [()], []),
        _bundle_plan(n + 1, z_order, [(i,) for i in range(n)] + [None], lam_x),
        _bundle_plan(n + 1, z_order, cells, [(lam, diagonal)]),
    )


def _check_shape(n, d) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"variable count must be a positive integer, got {n!r}")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"degree must be a positive integer, got {d!r}")


class HomogeneousPolynomial:
    """Immutable homogeneous polynomial of degree ``d`` in ``n`` variables.

    Everything that depends only on the support (the sorted exponent rows,
    the monomial pools of the value bundle and of the critical-pair system
    grad f(x) - lam x, hess f(x) - lam I in z = (x, lam), and where each
    coefficient lands in their weights) is a read-only derivative plan,
    cached per ``(n, support)`` and shared by all polynomials with that
    support.  The gradient and the Hessian are the system at lam = 0.
    Construction validates the terms and fills this instance's own three
    weight matrices from the plans.
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
    )

    def __init__(self, n: int, d: int, terms: Mapping[Monomial, float]):
        _check_shape(n, d)
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
        self._set_terms(n, d, order, np.array([cleaned[e] for e in order], dtype=np.float64))

    def _set_terms(self, n: int, d: int, order: tuple[Monomial, ...], coefs: np.ndarray) -> None:
        """Fill the instance from its validated support ``order`` (graded lex)
        and the nonzero finite coefficients ``coefs`` in that order."""
        with np.errstate(over="ignore"):
            self._norm = float(np.linalg.norm(coefs))
        if not math.isfinite(self._norm):
            raise ValueError(
                f"coefficient norm overflows float64 (largest coefficient "
                f"{np.max(np.abs(coefs)):.3g}); rescale the polynomial"
            )
        self._n = n
        self._d = d
        self._coefs = coefs
        self._plans = _derivative_plan(n, order)
        self._weights = tuple(plan.template.copy() for plan in self._plans)
        for plan, weights in zip(self._plans, self._weights):
            # Each (row, column) cell occurs at most once, so assignment is
            # the sum over terms.
            weights[plan.rows, plan.columns] = coefs[plan.source] * plan.a * plan.b
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
        """Bundle k at the rows of ``pts``: 0 the value at x; 1 the residual
        rows grad f(x) - lam x, last column 0, and 2 the flattened Jacobian
        block hess f(x) - lam I, border 0, at z = (x, lam), or at (x, 0)
        for rows x."""
        return _polynomial_map(pts, self._plans[k], self._weights[k])

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
        return self._jet(1, self._as_matrix(pts))[:, : self._n]

    def hessian(self, x) -> np.ndarray:
        """Symmetric Hessian at a point; satisfies hess f(x) x = (d-1) grad f(x)."""
        x = self._as_point(x)
        return self.hessian_many(x[None, :])[0]

    def hessian_many(self, pts) -> np.ndarray:
        """Hessians at many points, shape (k, n, n), each one symmetric."""
        pts, n = self._as_matrix(pts), self._n
        return self._jet(2, pts).reshape(pts.shape[0], n + 1, n + 1)[:, :n, :n]

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
        """Inverse of :meth:`coefficient_vector`; lossless round trip.

        Equal to the term-map constructor on ``dict(zip(monomial_basis(n, d),
        values))``, errors included, without its per-term checks: the basis
        exponents are valid by construction.
        """
        values = np.asarray(values, dtype=np.float64)
        expected = basis_size(n, d)
        if values.shape != (expected,):
            raise ValueError(
                f"coefficient vector has shape {values.shape}, expected ({expected},)"
            )
        basis = monomial_basis(n, d)
        _check_shape(n, d)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = bad[0]
            raise ValueError(f"non-finite coefficient {values[i]!r} in term {list(basis[i])}")
        support = np.flatnonzero(values)
        f = cls.__new__(cls)
        f._set_terms(n, d, tuple(map(basis.__getitem__, support.tolist())), values[support])
        return f


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
