"""Binary forms over the integers: the exact layer of the n = 2 finders.

A form of degree k is a list of k + 1 ints, index i holding the coefficient
of x1^i x2^(k-i); read in t = x1 it is the dehomogenization at x2 = 1, which
the primitive polynomial remainder sequence runs on.  :func:`_critical_form`
gives the n = 2 enumeration and the exact oracle the same g and the same
repeated part gcd(g, g').  A Euclid modulo the word-size prime ``_PRIME``
settles the generic, square-free g first; the primitive PRS, whose
coefficients grow, runs only when that test fails.  Both run the one
pseudo-division loop of :func:`_pseudo_remainder`, over the integers for
the PRS and modulo the prime for the coprimality test.
"""

import math

from .polyhom import HomogeneousPolynomial

# Residues below 2^31 keep every product of the modular Euclid a small int.
_PRIME = 2**31 - 1


def _partials(a: list) -> tuple[list, list]:
    """d/dx1 and d/dx2 of a binary form; the first is also d/dt of its dehomogenization."""
    k = len(a) - 1
    return [(i + 1) * a[i + 1] for i in range(k)], [(k - i) * a[i] for i in range(k)]


def _binary_form(a: list) -> list:
    """g = x2 * df/dx1 - x1 * df/dx2 of the binary form f (n = 2).

    ``a`` holds the coefficients of f, index i that of x1^i x2^(d-i), and g
    is indexed the same way, in the number type of ``a``.  g vanishes exactly
    where the gradient is parallel to x, so its projective roots are the
    critical directions.  deg g = d unless g is identically zero (radially
    symmetric f).
    """
    f1, f2 = _partials(a)
    return [u - v for u, v in zip(f1 + [0], [0] + f2)]


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


def _pseudo_remainder(u: list[int], v: list[int], p: int = 0) -> list[int]:
    """Pseudo-remainder of u by v (both stripped, v nonzero), stripped: [] is zero.

    Each step pops the top coefficient of u, which it consumes, and replaces
    u by lead(v) u - top(u) t^shift v, so the remainder is u mod v over the
    rationals times a nonzero integer.  With a prime p that does not divide
    lead(v), every new coefficient is reduced modulo p, and that integer is
    a unit modulo p.
    """
    lead, low = v[-1], v[:-1]
    while len(u) >= len(v):
        top = u.pop()
        shift = len(u) - len(low)
        if p:
            u = [lead * c % p for c in u[:shift]] + [
                (lead * c - top * b) % p for c, b in zip(u[shift:], low)
            ]
        else:
            u = [lead * c for c in u[:shift]] + [lead * c - top * b for c, b in zip(u[shift:], low)]
    while u and not u[-1]:
        u.pop()
    return u


def _prs_gcd(u: list[int], v: list[int]) -> list[int]:
    """Primitive GCD of the primitive polynomials u and v ([] is zero)."""
    while v:
        r = _pseudo_remainder(u, v)
        u, v = v, _primitive(r) if r else []
    return u


def _coprime_mod_prime(g: list[int]) -> bool:
    """True when g (stripped, degree >= 1) and dg/dt are coprime modulo
    ``_PRIME`` and the prime does not divide g's leading coefficient.

    Then gcd(g, dg/dt) over the integers is constant: a primitive common
    factor h divides g, so the prime does not divide its leading
    coefficient, and h mod the prime, of h's degree, divides both residues
    (Brown, J. ACM 18(4), 1971).  Euclid runs on the pseudo-remainders of
    :func:`_pseudo_remainder` modulo the prime.
    """
    p = _PRIME
    u = [c % p for c in g]
    if not u[-1]:
        return False
    v = _strip([i * c % p for i, c in enumerate(u)][1:])
    while len(v) > 1:
        u, v = v, _pseudo_remainder(u, v, p)
    return len(v) == 1


def _integer_coefficients(f: HomogeneousPolynomial) -> list[int]:
    """Coefficients of the binary form f, index i that of x1^i x2^(d-i),
    times their common power-of-two denominator: exact integers."""
    ratios = [c.as_integer_ratio() for c in f.coefficient_vector()[::-1].tolist()]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios]


def _critical_form(f: HomogeneousPolynomial) -> tuple[list[int], list[int]]:
    """g of the binary form f, stripped, and its repeated part h.

    g is :func:`_binary_form` of the exact integer coefficients of f, and h
    is the primitive gcd(g, dg/dt) of the dehomogenizations: its roots are
    the repeated finite roots of g.  h is [] when g is zero and [1] when g
    is a nonzero constant or :func:`_coprime_mod_prime` holds; otherwise
    the primitive PRS computes it.
    """
    g = _strip(_binary_form(_integer_coefficients(f)))
    if len(g) <= 1:
        return g, [1] * len(g)
    if _coprime_mod_prime(g):
        return g, [1]
    return g, _prs_gcd(_primitive(g), _primitive(_partials(g)[0]))
