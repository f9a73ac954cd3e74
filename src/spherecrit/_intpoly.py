"""Binary forms over the integers: the exact layer of the n = 2 finders.

A form of degree k is a list of k + 1 ints, index i holding the coefficient
of x1^i x2^(k-i); read in t = x1 it is the dehomogenization at x2 = 1, which
the primitive polynomial remainder sequence runs on.
"""

import math

from .polyhom import HomogeneousPolynomial


def _partials(a: list) -> tuple[list, list]:
    """d/dx1 and d/dx2 of a binary form; the first is also d/dt of its dehomogenization."""
    k = len(a) - 1
    return [(i + 1) * a[i + 1] for i in range(k)], [(k - i) * a[i] for i in range(k)]


def _binary_form(a: list) -> tuple[list, list, list]:
    """g = x2 * df/dx1 - x1 * df/dx2 and the partials df/dx1, df/dx2 (n = 2).

    ``a`` holds the coefficients of f, index i that of x1^i x2^(d-i), and the
    returned lists are indexed the same way, in the number type of ``a``.
    g vanishes exactly where the gradient is parallel to x, so its projective
    roots are the critical directions.  deg g = d unless g is identically
    zero (radially symmetric f).
    """
    f1, f2 = _partials(a)
    return [u - v for u, v in zip(f1 + [0], [0] + f2)], f1, f2


def _strip(p: list[int]) -> list[int]:
    k = len(p)
    while k and p[k - 1] == 0:
        k -= 1
    return p[:k]


def _primitive(p: list[int]) -> list[int]:
    """p (stripped, nonzero) over its content, leading coefficient positive."""
    c = math.gcd(*p)
    if p[-1] < 0:
        c = -c
    return [a // c for a in p]


def _prem(u: list[int], v: list[int]) -> list[int]:
    """Primitive part of the pseudo-remainder of u by v, [] when it is zero.

    Each step replaces u by lead(v) u - top(u) t^shift v, which cancels the
    top coefficient, so the remainder is u mod v over the rationals times a
    nonzero integer, which the primitive part drops.
    """
    lead = v[-1]
    shift = len(u) - len(v)
    while u and shift >= 0:
        top = u[-1]
        u = [lead * c for c in u[:-1]]
        for i, c in enumerate(v[:-1]):
            u[shift + i] -= top * c
        u = _strip(u)
        shift = len(u) - len(v)
    return _primitive(u) if u else []


def _prs_gcd(u: list[int], v: list[int]) -> list[int]:
    """Primitive GCD of the primitive polynomials u and v ([] is zero)."""
    while v:
        u, v = v, _prem(u, v)
    return u


def _integer_coefficients(f: HomogeneousPolynomial) -> list[int]:
    """Coefficients of the binary form f, index i that of x1^i x2^(d-i),
    times their common power-of-two denominator: exact integers."""
    ratios = [c.as_integer_ratio() for c in f.coefficient_vector()[::-1].tolist()]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios]


def _witness_minor_forms(f: HomogeneousPolynomial) -> list[list[int]]:
    """The four 3x3 minors of the witness matrix with y = (x2, -x1).

    With g = x2 f1 - x1 f2 and q = y^T hess f y = x2^2 f11 - 2 x1 x2 f12 +
    x1^2 f22, expanding along the third column gives the minors of rows
    (1,2,3) and (1,2,4) as x1 g and x2 g, and expanding along the first row
    gives rows (1,3,4) and (2,3,4) as |x|^2 f1 - x1 q and |x|^2 f2 - x2 q.
    Each is a binary form of degree d + 1, computed from the integer
    coefficients of :func:`_integer_coefficients`, so exactly (the minors
    are linear in f, hence scaled by the same power of two).
    """
    g, f1, f2 = _binary_form(_integer_coefficients(f))
    f11, f12 = _partials(f1)
    f22 = _partials(f2)[1]
    z = [0]  # multiplying by x1 prepends a zero, by x2 appends one
    q = [u - 2 * v + w for u, v, w in zip(f11 + z + z, z + f12 + z, z + z + f22)]
    return [
        z + g,
        g + z,
        [u + v - w for u, v, w in zip(z + z + f1, f1 + z + z, z + q)],
        [u + v - w for u, v, w in zip(z + z + f2, f2 + z + z, q + z)],
    ]

