"""Sparse multivariate polynomials over exact rationals.

Terms are keyed by exponent vectors (tuples of length ``n``); coefficients
are ``fractions.Fraction`` and zero coefficients are never stored, so two
polynomials are equal exactly when their term maps are.  The monomial order
throughout is graded lex: compare total degree first, then the exponent
tuples lexicographically.

There are two ways in.  ``Polynomial(n, terms)`` validates and normalizes
input from outside: users, the parser, JSON records and tests.
``Polynomial._trusted(n, terms)`` wraps, unchecked, terms the library built
itself: length-n tuples of ints mapped to nonzero ``Fraction``s.  The
constructor refuses float coefficients and ``bool`` exponents rather than
store a float's binary value or a ``True`` key.  A product counts its term
products against ``combinat.SIZE_CAP`` before making any.
"""

import math
from fractions import Fraction
from numbers import Rational

from .combinat import check_size, check_vector


def _exact(value) -> Fraction:
    """``Fraction(value)``, refusing floats: a float such as 0.1 is not the
    rational it was written as."""
    if isinstance(value, float):
        raise ValueError(f"coefficients must be exact, got the float {value!r}")
    return Fraction(value)


def graded_lex_key(nu):
    """Sort key realizing the graded lex order on exponent vectors."""
    return (sum(nu), nu)


class Polynomial:
    """Immutable sparse polynomial in ``n`` variables over Q."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError(f"need at least one variable, got n = {n}")
        self.n = n
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = check_vector(exps)
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} has length != {n}")
            coeff = _exact(coeff)
            if coeff:
                clean[exps] = coeff
        self._terms = clean

    @staticmethod
    def _trusted(n, terms):
        out = Polynomial.__new__(Polynomial)
        out.n, out._terms = n, terms
        return out

    # construction helpers

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, value):
        return cls(n, {(0,) * n: value})

    @classmethod
    def monomial(cls, n, exps, coeff=1):
        return cls(n, {tuple(exps): coeff})

    @classmethod
    def variable(cls, n, i):
        """The variable x_i (1-based)."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside [1, {n}]")
        exps = [0] * n
        exps[i - 1] = 1
        return cls(n, {tuple(exps): 1})

    # inspection

    def is_zero(self):
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def support(self):
        """The exponent vectors carrying nonzero coefficients (a set view)."""
        return self._terms.keys()

    def items(self):
        return self._terms.items()

    def sorted_terms(self):
        """Terms as (exponents, coefficient) pairs, descending graded lex."""
        return sorted(self._terms.items(),
                      key=lambda item: graded_lex_key(item[0]), reverse=True)

    def coefficient(self, nu) -> Fraction:
        return self._terms.get(tuple(nu), Fraction(0))

    def integer_terms(self):
        """``(scale, {exps: int})``: the terms times the lcm of their denominators."""
        scale = math.lcm(*(c.denominator for c in self._terms.values()))
        return scale, {e: c.numerator * (scale // c.denominator)
                       for e, c in self._terms.items()}

    def leading_monomial(self):
        """Graded-lex-greatest (exponents, coefficient) pair; error on zero."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading monomial")
        exps = max(self._terms, key=graded_lex_key)
        return exps, self._terms[exps]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    # arithmetic

    def _require_same_ring(self, other):
        if self.n != other.n:
            raise ValueError(f"mixed variable counts: {self.n} vs {other.n}")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ring(other)
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            new = terms.get(exps, 0) + coeff
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        return Polynomial._trusted(self.n, terms)

    def __neg__(self):
        return Polynomial._trusted(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def scale(self, value):
        value = _exact(value)
        terms = {e: c * value for e, c in self._terms.items()} if value else {}
        return Polynomial._trusted(self.n, terms)

    def __mul__(self, other):
        if isinstance(other, Rational):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ring(other)
        check_size(len(self) * len(other), "term products of {}-term by {}-term polynomials",
                   len(self), len(other))
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(exps, 0) + c1 * c2
                if new:
                    terms[exps] = new
                else:
                    terms.pop(exps, None)
        return Polynomial._trusted(self.n, terms)

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self.scale(other)
        return NotImplemented

    def __repr__(self):
        if not self._terms:
            return f"Polynomial({self.n}, 0)"
        body = " + ".join(f"{coeff}*X^{exps}" for exps, coeff in self.sorted_terms())
        return f"Polynomial({self.n}, {body})"


def random_polynomial(rng, n: int, max_degree: int, max_terms: int = 8) -> Polynomial:
    """Up to ``max_terms`` random terms of degree <= ``max_degree``, drawn
    from ``rng``, with coefficients p/q for -9 <= p <= 9 and 1 <= q <= 9."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(0, max_degree)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Polynomial(n, terms)


def diff_pairing(p: Polynomial, q: Polynomial) -> Fraction:
    """Apply ``p`` as a differential operator to ``q`` and evaluate at zero:
    the bilinear form with <X^nu, X^mu> = 0 for nu != mu and
    <X^nu, X^nu> = prod(nu_i!).
    """
    p._require_same_ring(q)
    total = Fraction(0)
    small, large = (p, q) if len(p) <= len(q) else (q, p)
    for exps, coeff in small.items():
        other = large.coefficient(exps)
        if other:
            weight = math.prod(math.factorial(e) for e in exps)
            total += coeff * other * weight
    return total
