"""Representation, calculus, serialization, and sampling of homogeneous polynomials."""

import itertools
import json
import math

import numpy as np
import pytest

from spherecrit import polyhom
from spherecrit import (
    HomogeneousPolynomial,
    PolynomialFormatError,
    basis_size,
    geometric_power_polynomial,
    monomial_basis,
    parse_polynomial,
    random_polynomial,
    serialize_polynomial,
    weighted_axis_quadratic,
)
from conftest import central_difference_gradient, central_difference_hessian


def test_monomial_basis_order_and_size():
    assert monomial_basis(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_basis(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(monomial_basis(3, 4)) == basis_size(3, 4) == 15
    assert basis_size(5, 6) == math.comb(10, 6)


def test_monomial_basis_matches_brute_force_definition():
    # random_polynomial draws coefficients in basis order, so this also pins
    # every seeded form.
    for n in range(1, 7):
        for d in range(7):
            exps = (e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d)
            assert monomial_basis(n, d) == tuple(sorted(exps, reverse=True)), (n, d)


def test_monomial_basis_rejects_bad_shape():
    with pytest.raises(ValueError, match="at least one variable, got n=0"):
        monomial_basis(0, 2)
    with pytest.raises(ValueError, match="nonnegative, got d=-1"):
        monomial_basis(2, -1)


def test_evaluate_pythagorean():
    f = HomogeneousPolynomial(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    assert f.evaluate([3.0, 4.0]) == 25.0


def test_evaluate_weighted_quadratic_at_axis():
    p = weighted_axis_quadratic(3)
    assert p.evaluate([0.0, 1.0, 0.0]) == 1.0


def test_evaluate_at_origin_is_zero():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        f = random_polynomial(n, d, rng)
        assert f.evaluate(np.zeros(n)) == 0.0


def test_homogeneity_scaling():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        f = random_polynomial(n, d, rng)
        x = rng.standard_normal(n)
        t = float(rng.standard_normal())
        bound = 1e-10 * (1 + abs(t) ** d) * f.coefficient_norm * max(
            np.linalg.norm(x), 1e-12
        ) ** d
        assert abs(f.evaluate(t * x) - t**d * f.evaluate(x)) <= max(bound, 1e-12)


def test_gradient_monomial():
    f = HomogeneousPolynomial(2, 3, {(3, 0): 1.0})
    assert np.array_equal(f.gradient([1.0, 0.0]), [3.0, 0.0])


def test_gradient_geometric_power_d3():
    # alpha = 2, p = 2 x1^3 + 4 x2^3, grad at (1, 1) by direct differentiation.
    p = geometric_power_polynomial(2, 3)
    assert p.terms == {(3, 0): 2.0, (0, 3): 4.0}
    assert np.array_equal(p.gradient([1.0, 1.0]), [6.0, 12.0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 7))
        f = random_polynomial(n, d, rng)
        x = rng.standard_normal(n)
        h = 1e-5 * max(1.0, np.linalg.norm(x))
        g = f.gradient(x)
        fd = central_difference_gradient(f, x, h)
        assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_hessian_quadratic_is_constant():
    A = np.diag([1.0, 2.0, 3.0])
    f = HomogeneousPolynomial(
        3, 2, {(2, 0, 0): 0.5, (0, 2, 0): 1.0, (0, 0, 2): 1.5}
    )
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(3)
        assert np.allclose(f.hessian(x), A, atol=0.0)


def test_hessian_vanishes_off_axis():
    for n in (2, 3):
        for d in (3, 4, 5):
            f = HomogeneousPolynomial(n, d, {(d,) + (0,) * (n - 1): 1.0})
            e2 = np.zeros(n)
            e2[1] = 1.0
            assert np.array_equal(f.hessian(e2), np.zeros((n, n)))


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 7))
        f = random_polynomial(n, d, rng)
        x = rng.standard_normal(n)
        h = 1e-5 * max(1.0, np.linalg.norm(x))
        H = f.hessian(x)
        fd = central_difference_hessian(f, x, h)
        assert np.linalg.norm(fd - H) <= 1e-5 * max(1.0, np.linalg.norm(H))


@pytest.mark.parametrize("k", [0, 5])
def test_empty_term_sets_give_exact_zeros(k):
    # The zero polynomial has no terms; a linear form has no Hessian terms.
    X = np.random.default_rng(8).standard_normal((k, 3))
    zero = HomogeneousPolynomial(3, 2, {})
    for values, shape in [
        (zero.evaluate_many(X), (k,)),
        (zero.gradient_many(X), (k, 3)),
        (zero.hessian_many(X), (k, 3, 3)),
        (random_polynomial(3, 1, 2).hessian_many(X), (k, 3, 3)),
    ]:
        assert values.shape == shape
        assert not values.any()


def test_euler_identities():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 7))
        f = random_polynomial(n, d, rng)
        x = rng.standard_normal(n)
        g = f.gradient(x)
        H = f.hessian(x)
        val = f.evaluate(x)
        scale1 = 1.0 + abs(d * val) + np.linalg.norm(g) * np.linalg.norm(x)
        assert abs(g @ x - d * val) <= 1e-10 * scale1
        scale2 = 1.0 + np.linalg.norm(H) * np.linalg.norm(x) + np.linalg.norm(g)
        assert np.linalg.norm(H @ x - (d - 1) * g) <= 1e-10 * scale2


def test_random_polynomial_deterministic():
    a = random_polynomial(2, 3, 12345)
    b = random_polynomial(2, 3, 12345)
    assert a == b
    assert np.array_equal(a.coefficient_vector(), b.coefficient_vector())
    c = random_polynomial(2, 3, 12346)
    assert not np.array_equal(a.coefficient_vector(), c.coefficient_vector())


def test_random_polynomial_coefficient_count():
    f = random_polynomial(3, 4, 0)
    assert f.coefficient_vector().shape == (15,)


def test_random_polynomial_mean_near_zero():
    # Law of large numbers: the pooled coefficient mean of many draws is a
    # mean of N iid standard normals, so |mean| <= 3 / sqrt(N) at 3 sigma.
    draws = 10_000
    total = 0.0
    count = 0
    for seed in range(draws):
        vec = random_polynomial(2, 2, seed).coefficient_vector()
        total += float(vec.sum())
        count += vec.size
    assert abs(total / count) <= 3.0 / math.sqrt(count)


def test_from_coefficient_vector_rejects_wrong_shape():
    with pytest.raises(ValueError, match=r"shape \(5,\), expected \(6,\)"):
        HomogeneousPolynomial.from_coefficient_vector(3, 2, np.ones(5))
    with pytest.raises(ValueError, match=r"shape \(2, 3\), expected \(6,\)"):
        HomogeneousPolynomial.from_coefficient_vector(3, 2, np.ones((2, 3)))
    for n, d in ((2, 0), (True, 2)):  # shapes with a basis but no polynomial
        with pytest.raises(ValueError) as mapped:
            HomogeneousPolynomial(n, d, {})
        with pytest.raises(ValueError) as dense:
            HomogeneousPolynomial.from_coefficient_vector(n, d, np.ones(basis_size(n, d)))
        assert str(dense.value) == str(mapped.value)


def test_from_coefficient_vector_equals_term_map_constructor():
    # The direct dense build and the term-map constructor give the same
    # instance bit for bit, exact zeros dropped, at every (n, d) shape.
    rng = np.random.default_rng(43)
    for n in range(1, 6):
        for d in range(1, 7):
            values = rng.standard_normal(basis_size(n, d))
            values[rng.random(values.size) < 0.4] = 0.0
            values[rng.random(values.size) < 0.1] = -0.0
            dense = HomogeneousPolynomial.from_coefficient_vector(n, d, values)
            mapped = HomogeneousPolynomial(n, d, dict(zip(monomial_basis(n, d), values)))
            assert dense == mapped
            assert dense.terms == mapped.terms
            assert dense.coefficient_norm == mapped.coefficient_norm
            for a, b in zip(dense._weights, mapped._weights):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e155])
def test_from_coefficient_vector_errors_match_term_map_constructor(bad):
    # A non-finite entry names its first term; an overflowing norm names the
    # largest coefficient.  Both read as the term-map constructor's errors.
    values = np.zeros(basis_size(3, 2))
    values[[1, 4]] = [2.0, bad]
    with pytest.raises(ValueError) as mapped:
        HomogeneousPolynomial(3, 2, dict(zip(monomial_basis(3, 2), values)))
    with pytest.raises(ValueError) as dense:
        HomogeneousPolynomial.from_coefficient_vector(3, 2, values)
    assert str(dense.value) == str(mapped.value)


def test_coefficient_vector_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        f = random_polynomial(n, d, rng)
        g = HomogeneousPolynomial.from_coefficient_vector(n, d, f.coefficient_vector())
        assert f == g


def test_equality_with_other_types_and_repr():
    f = HomogeneousPolynomial(3, 2, {(2, 0, 0): 1.0, (0, 1, 1): -2.0})
    assert f.__eq__(1) is NotImplemented
    assert f != 1
    assert repr(f) == "HomogeneousPolynomial(n=3, d=2, 2 terms)"


def test_parse_example():
    text = '{"n":2,"d":2,"terms":[{"exp":[2,0],"coef":1.0},{"exp":[0,2],"coef":1.0}]}'
    f = parse_polynomial(text)
    assert f.n == 2 and f.d == 2
    assert f.terms == {(2, 0): 1.0, (0, 2): 1.0}
    assert f.evaluate([3.0, 4.0]) == 25.0


def test_parse_rejects_wrong_exponent_sum():
    text = '{"n":2,"d":2,"terms":[{"exp":[1,0],"coef":1.0}]}'
    with pytest.raises(PolynomialFormatError, match=r"exponent sum 1 != degree 2"):
        parse_polynomial(text)


def test_parse_rejects_duplicate_monomial():
    text = '{"n":2,"d":2,"terms":[{"exp":[2,0],"coef":1.0},{"exp":[2,0],"coef":2.0}]}'
    with pytest.raises(PolynomialFormatError, match="duplicate monomial"):
        parse_polynomial(text)


def test_parse_rejects_bad_json_and_structure():
    with pytest.raises(PolynomialFormatError, match="invalid JSON"):
        parse_polynomial("{not json")
    with pytest.raises(PolynomialFormatError, match="missing required key"):
        parse_polynomial('{"n": 2, "d": 2}')
    with pytest.raises(PolynomialFormatError, match="must be an integer"):
        parse_polynomial('{"n": 2.5, "d": 2, "terms": []}')
    with pytest.raises(PolynomialFormatError, match="negative exponent"):
        parse_polynomial('{"n": 2, "d": 1, "terms": [{"exp": [2, -1], "coef": 1.0}]}')


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n":0,"d":2,"terms":[]}', "variable count must be a positive integer"),
        ('{"n":2,"d":0,"terms":[{"exp":[0,0],"coef":1.0}]}', "degree must be a positive integer"),
        ('{"n":1,"d":1,"terms":[{"exp":[1],"coef":1e400}]}', r"non-finite coefficient inf in term \[1\]"),
        ('{"n":1,"d":1,"terms":[{"exp":[1],"coef":1e155}]}', "coefficient norm overflows float64"),
    ],
    ids=["n=0", "d=0", "coef=1e400", "norm=1e155"],
)
def test_parse_reraises_constructor_checks(text, message):
    with pytest.raises(PolynomialFormatError, match=message):
        parse_polynomial(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[2, 2, []]", "top level must be a JSON object"),
        ('{"n":2,"d":2,"terms":{"exp":[2,0],"coef":1}}', "'terms' must be a list"),
        ('{"n":2,"d":2,"terms":[{"coef":1.0}]}', "each term needs 'exp' and 'coef'"),
        ('{"n":2,"d":2,"terms":[{"exp":[2,0]}]}', "each term needs 'exp' and 'coef'"),
        ('{"n":2,"d":2,"terms":[{"exp":[2,0,0],"coef":1}]}', "'exp' must be a list of 2 integers"),
        ('{"n":2,"d":1,"terms":[{"exp":[true,0],"coef":1}]}', "'exp' must be a list of 2 integers"),
        ('{"n":2,"d":2,"terms":[{"exp":[2,0],"coef":"1"}]}', "'coef' must be a number in term"),
        ('{"n":2,"d":2,"terms":[{"exp":[2,0],"coef":true}]}', "'coef' must be a number in term"),
    ],
    ids=["top-level list", "terms object", "no exp", "no coef", "exp length", "exp bool"]
    + ["coef string", "coef bool"],
)
def test_parse_rejects_malformed_terms(text, message):
    with pytest.raises(PolynomialFormatError, match=message):
        parse_polynomial(text)


def test_parse_rejects_coefficient_beyond_float64():
    text = '{"n":1,"d":1,"terms":[{"exp":[1],"coef":%d}]}' % 10**400
    with pytest.raises(PolynomialFormatError, match=r"out of float64 range in term \[1\]"):
        parse_polynomial(text)


def test_serialize_parse_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        f = random_polynomial(n, d, rng)
        again = parse_polynomial(serialize_polynomial(f))
        assert again == f


def test_serialize_uses_17_significant_digits():
    f = HomogeneousPolynomial(2, 1, {(1, 0): 0.1, (0, 1): 1.0 / 3.0})
    text = serialize_polynomial(f)
    assert "0.10000000000000001" in text
    assert "0.33333333333333331" in text
    doc = json.loads(text)
    assert doc["n"] == 2 and doc["d"] == 1


def test_serialize_is_stable_round_trip_text():
    f = random_polynomial(3, 3, 99)
    text = serialize_polynomial(f)
    assert serialize_polynomial(parse_polynomial(text)) == text


def test_zero_coefficients_are_dropped():
    f = HomogeneousPolynomial(2, 2, {(2, 0): 0.0, (0, 2): 0.0})
    assert f.is_zero
    assert f.num_terms == 0
    assert serialize_polynomial(f) == '{"n": 2, "d": 2, "terms": []}\n'
    assert parse_polynomial(serialize_polynomial(f)).is_zero


def test_constructor_validation():
    with pytest.raises(ValueError, match="exponent sum"):
        HomogeneousPolynomial(2, 2, {(1, 0): 1.0})
    with pytest.raises(ValueError, match="length"):
        HomogeneousPolynomial(2, 2, {(2, 0, 0): 1.0})
    with pytest.raises(ValueError, match="positive integer"):
        HomogeneousPolynomial(0, 2, {})
    with pytest.raises(ValueError, match="positive integer"):
        HomogeneousPolynomial(2, 0, {})
    with pytest.raises(ValueError, match="non-finite"):
        HomogeneousPolynomial(1, 1, {(1,): float("nan")})


def test_dimension_mismatch_errors():
    f = random_polynomial(3, 2, 0)
    with pytest.raises(ValueError, match="shape"):
        f.evaluate([1.0, 2.0])
    with pytest.raises(ValueError, match="shape"):
        f.gradient([1.0, 2.0])
    with pytest.raises(ValueError, match="shape"):
        f.hessian(np.ones(4))


def test_terms_property_returns_copy():
    f = HomogeneousPolynomial(2, 2, {(2, 0): 1.0})
    t = f.terms
    t[(0, 2)] = 5.0
    assert f.terms == {(2, 0): 1.0}


def _reference_bundles(f):
    """The term-set construction the derivative plan replaced: per-polynomial
    term lists, merged into one monomial pool per bundle.  The residual and
    Jacobian bundles are in z = (x, lam), their columns f's partials and the
    Hessian's (n+1) x (n+1) cells, row-major with a zero border, and their
    pools end with the lam terms.  Returns (exps, dmax, weights, template,
    reached) per bundle, the template holding only the lam terms' -1
    weights and ``reached`` marking the cells some term lands in."""
    n = f.n

    def bundle(term_sets, width, lam_terms):
        index = {}
        for exps, _ in term_sets:
            for exp in exps:
                index.setdefault(exp, len(index))
        for exp, _ in lam_terms:
            index[exp] = len(index)
        template = np.zeros((len(index), len(term_sets)))
        for exp, cols in lam_terms:
            template[index[exp], cols] = -1.0
        weights = template.copy()
        reached = np.zeros(weights.shape, dtype=bool)
        for c, (exps, coefs) in enumerate(term_sets):
            for exp, coef in zip(exps, coefs):
                weights[index[exp], c] += coef
                reached[index[exp], c] = True
        exps = np.array(list(index), dtype=np.intp).reshape(len(index), width)
        return exps, int(exps.max(initial=0)), weights, template, reached

    def differentiate(term_set, i):
        lowered = [
            (exp[:i] + (exp[i] - 1,) + exp[i + 1 :], coef * exp[i])
            for exp, coef in zip(*term_set)
            if exp[i] > 0
        ]
        return [e for e, _ in lowered], [c for _, c in lowered]

    order = sorted(f.terms, reverse=True)
    coefs = [f.terms[e] for e in order]
    partials = [differentiate(([e + (0,) for e in order], coefs), i) for i in range(n)]
    zero = ([], [])
    cells = [
        differentiate(partials[min(i, j)], max(i, j)) if max(i, j) < n else zero
        for i in range(n + 1)
        for j in range(n + 1)
    ]
    lam = (0,) * n + (1,)
    lam_x = [(lam[:i] + (1,) + lam[i + 1 :], [i]) for i in range(n)]
    diagonal = [(lam, [i * (n + 2) for i in range(n)])]
    return [
        bundle([(order, coefs)], n, []),
        bundle(partials + [zero], n + 1, lam_x),
        bundle(cells, n + 1, diagonal),
    ]


def _assert_matches_reference(f):
    # The weights gather from f's coefficients, then 0.0 and -1.0.
    zero, minus_one = f.num_terms, f.num_terms + 1
    for plan, got, (exps, dmax, weights, template, reached) in zip(
        f._plans, f._weights, _reference_bundles(f)
    ):
        assert plan.exps.dtype == exps.dtype and plan.exps.shape == exps.shape
        assert np.array_equal(plan.exps, exps)
        assert plan.dmax == dmax
        assert plan.source.shape == plan.a.shape == plan.b.shape == weights.shape
        assert np.array_equal(plan.source == zero, ~reached & (template == 0.0))
        assert np.array_equal(plan.source == minus_one, template == -1.0)
        assert got.shape == weights.shape
        assert got.tobytes() == weights.tobytes()
    # Mirrored Hessian cells (i, j) and (j, i) hold the same weights, bit for bit.
    cells = f._weights[2].reshape(-1, f.n + 1, f.n + 1)
    assert cells.tobytes() == cells.transpose(0, 2, 1).copy().tobytes()


def test_derivative_plan_matches_term_set_construction():
    # Same monomial order and multiplication order: every weight bitwise.
    rng = np.random.default_rng(41)
    for n in range(1, 6):
        for d in range(1, 7):
            values = rng.standard_normal(basis_size(n, d)) * 10.0 ** rng.integers(-8, 9, basis_size(n, d))
            _assert_matches_reference(HomogeneousPolynomial.from_coefficient_vector(n, d, values))
            values[rng.random(values.size) < 0.6] = 0.0
            _assert_matches_reference(HomogeneousPolynomial.from_coefficient_vector(n, d, values))
    # (c a) b and (c b) a can differ only when neither exponent is a power
    # of two, first at d = 8 (x1^3 x2^5): there the mirrored cells must
    # still agree bit for bit.
    for n, d in ((2, 8), (3, 8), (2, 11)):
        for seed in range(3):
            _assert_matches_reference(random_polynomial(n, d, [41, n, d, seed]))


def test_derivative_plan_cache_hit_and_miss_agree():
    polyhom._derivative_plan.cache_clear()
    values = np.random.default_rng(42).standard_normal(basis_size(3, 4))
    miss = HomogeneousPolynomial.from_coefficient_vector(3, 4, values)
    hit = HomogeneousPolynomial.from_coefficient_vector(3, 4, values)
    info = polyhom._derivative_plan.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    for a, b in zip(miss._plans, hit._plans):
        assert a.exps.tobytes() == b.exps.tobytes() and a.dmax == b.dmax
    for a, b in zip(miss._weights, hit._weights):
        assert a.tobytes() == b.tobytes()


def test_polynomials_of_one_support_share_no_mutable_weights():
    f = random_polynomial(2, 5, 1)
    g = random_polynomial(2, 5, 2)
    for a, b in zip(f._weights, g._weights):
        assert not np.shares_memory(a, b)
    for a, b in zip(f._plans, g._plans):
        assert a is b
        for shared in (a.exps, a.variables, a.source, a.a, a.b):
            assert not shared.flags.writeable
    assert f._exps is g._exps and not f._exps.flags.writeable
    before = f.gradient([0.6, 0.8])
    g._weights[1][:] = 0.0
    assert f.gradient([0.6, 0.8]).tobytes() == before.tobytes()


def test_coefficient_norm_overflow_rejected():
    # Beyond about 1.34e154 the squared norm overflows and every threshold
    # scaled by it would be inf.
    with pytest.raises(ValueError, match="rescale"):
        HomogeneousPolynomial(2, 3, {(3, 0): 1e155, (0, 3): 1e155})
    f = HomogeneousPolynomial(2, 3, {(3, 0): 1e150, (0, 3): 1e150})
    assert math.isfinite(f.coefficient_norm)
