"""Exact reference arithmetic owned by the benchmark.

Polynomials here are plain dicts from exponent tuples to ``Fraction`` (or
int) coefficients with no zero entries.  Nothing in this module imports
``qsymq``: inputs are generated and answers are checked with code that
shares nothing with the program under test.
"""

from fractions import Fraction
from itertools import combinations
from math import comb


def is_dyck_vector(nu) -> bool:
    """Every partial sum nu_1 + ... + nu_l is at most l - 1."""
    total = 0
    for l, e in enumerate(nu, start=1):
        total += e
        if total > l - 1:
            return False
    return True


def ballot(n: int, k: int) -> int:
    """(n - k) / (n + k) * C(n + k, k): Dyck vectors of length n and degree k."""
    if k >= n:
        return 0
    return (n - k) * comb(n + k, k) // (n + k)


def graded_lex_key(nu):
    return (sum(nu), tuple(nu))


def vectors_of_degree(n: int, d: int):
    """All vectors in N^n with entry sum d."""
    if n == 1:
        return [(d,)]
    return [(first,) + rest for first in range(d + 1)
            for rest in vectors_of_degree(n - 1, d - first)]


def add_into(acc: dict, terms, scale=1) -> None:
    """acc += scale * terms, dropping zero coefficients."""
    for exps, c in terms.items():
        new = acc.get(exps, 0) + scale * c
        if new:
            acc[exps] = new
        else:
            acc.pop(exps, None)


def multiply(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            add_into(out, {tuple(a + b for a, b in zip(e1, e2)): c1 * c2})
    return out


def monomial_qsym_terms(alpha, n: int, shift=None) -> dict:
    """X^shift * M_alpha(x1..xn): spread the parts of alpha over increasing
    positions."""
    shift = shift or (0,) * n
    out = {}
    for positions in combinations(range(n), len(alpha)):
        exps = list(shift)
        for pos, part in zip(positions, alpha):
            exps[pos] += part
        out[tuple(exps)] = 1
    return out


def descent_set(alpha) -> frozenset:
    out, total = set(), 0
    for part in alpha[:-1]:
        total += part
        out.add(total)
    return frozenset(out)


def fundamental_terms(alpha, n: int) -> dict:
    """F_alpha(x1..xn): X^nu with coefficient 1 for every nu whose nonzero
    entries form a composition refining alpha."""
    d, base = sum(alpha), descent_set(alpha)
    return {nu: 1 for nu in vectors_of_degree(n, d)
            if base <= descent_set(tuple(e for e in nu if e))}


def expression_text(terms: dict) -> str:
    """Render a polynomial in the CLI grammar, e.g. ``3/4*x1^2*x3 - x2``."""
    pieces = []
    for exps, coeff in sorted(terms.items(), key=lambda t: graded_lex_key(t[0]),
                              reverse=True):
        coeff = Fraction(coeff)
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}"
                   for i, e in enumerate(exps, start=1) if e]
        body = "*".join([str(abs(coeff))] + factors)
        sign = "-" if coeff < 0 else "+"
        pieces.append(f"{'-' if coeff < 0 else ''}{body}" if not pieces
                      else f"{sign} {body}")
    return " ".join(pieces) if pieces else "0"
