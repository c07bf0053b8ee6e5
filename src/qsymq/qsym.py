"""Monomial and fundamental quasi-symmetric polynomials in n variables.

``monomial_qsym`` spreads the parts of a composition over all increasing
position choices; ``fundamental_qsym`` sums M_beta over
``combinat.refinements(alpha, n)``, the refinements with at most ``n`` parts
and so the only nonzero ones.  Both count their terms against
``combinat.SIZE_CAP`` before building anything.  Products of fundamentals
are computed combinatorially through shuffles of descent words, with direct
polynomial multiplication kept as the testing oracle.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .combinat import (
    canonical_descent_word,
    check_composition,
    check_size,
    composition_from_subset,
    refinements,
    shuffles,
    word_descent_set,
)
from .poly import Polynomial


def monomial_qsym(alpha, n: int) -> Polynomial:
    """M_alpha in n variables: the sum of X^nu over all nu with c(nu) = alpha.

    M of the empty composition is 1; the result is zero when alpha has more
    parts than there are variables.  Its C(n, len(alpha)) terms are counted
    first, and ``ResourceLimitError`` is raised when they exceed
    ``combinat.SIZE_CAP``.
    """
    alpha = check_composition(alpha)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_size(comb(n, len(alpha)), "terms in M_{} in {} variables", alpha, n)
    terms, one = {}, Fraction(1)
    for positions in combinations(range(n), len(alpha)):
        exps = [0] * n
        for pos, part in zip(positions, alpha):
            exps[pos] = part
        terms[tuple(exps)] = one
    return Polynomial._trusted(n, terms)


def check_fundamental_size(alpha, n: int) -> int:
    """The number of terms of F_alpha in n variables, counted from |alpha|,
    len(alpha) and n; ``ResourceLimitError`` when it exceeds
    ``combinat.SIZE_CAP``."""
    # C(d - ell, r) refinements have ell + r parts and C(n, ell + r) terms
    # each; by Vandermonde's identity the sum over r is C(d - ell + n, n - ell)
    d, ell = sum(alpha), len(alpha)
    terms = comb(d - ell + n, n - ell) if ell <= n else 0
    check_size(terms, "terms in F_{} in {} variables", alpha, n)
    return terms


def fundamental_qsym(alpha, n: int) -> Polynomial:
    """F_alpha in n variables: the sum of M_beta over all refinements beta.

    Only the refinements with at most n parts are summed, so the cost follows
    the number of terms, not 2 ** (|alpha| - len(alpha)).  That number is
    counted first, and ``ResourceLimitError`` is raised when it exceeds
    ``combinat.SIZE_CAP``.
    """
    alpha = check_composition(alpha)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_fundamental_size(alpha, n)
    # refinements with more than n parts vanish; the rest have disjoint supports
    terms = {}
    for beta in refinements(alpha, n):
        terms.update(monomial_qsym(beta, n).items())
    return Polynomial._trusted(n, terms)


def f_product(alpha, beta, word_builder=canonical_descent_word):
    """Composition expansion of F_alpha * F_beta via shuffles of descent words.

    Returns (gamma, multiplicity) pairs, sorted, with total multiplicity
    binom(|alpha| + |beta|, |beta|).  The expansion is independent of the
    choice of descent words and holds in any number of variables:
    sum(mult * F_gamma) = F_alpha * F_beta.  ``ResourceLimitError`` is
    raised when that total exceeds ``combinat.SIZE_CAP`` words.
    """
    alpha, beta = check_composition(alpha), check_composition(beta)
    d = sum(alpha) + sum(beta)
    check_size(comb(d, sum(beta)), "shuffle words in F_{} * F_{}", alpha, beta)
    u = word_builder(alpha)
    v = word_builder(beta, offset=sum(alpha))
    counts = {}
    for w in shuffles(u, v):
        gamma = composition_from_subset(word_descent_set(w), d)
        counts[gamma] = counts.get(gamma, 0) + 1
    return sorted(counts.items())

