"""Monomial and fundamental quasi-symmetric polynomials in n variables.

``monomial_qsym`` spreads the parts of a composition over all increasing
position choices; ``fundamental_qsym`` sums them over the refinements with
at most ``n`` parts, the only nonzero ones.  Products of fundamentals are
computed combinatorially through shuffles of descent words, with direct
polynomial multiplication kept as the testing oracle.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

from .combinat import (
    canonical_descent_word,
    check_composition,
    composition_from_subset,
    descent_set,
    shuffles,
    word_descent_set,
    zero_erasure,
)
from .poly import Polynomial


def monomial_qsym(alpha, n: int) -> Polynomial:
    """M_alpha in n variables: the sum of X^nu over all nu with c(nu) = alpha.

    M of the empty composition is 1; the result is zero when alpha has more
    parts than there are variables.
    """
    alpha = check_composition(alpha)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    terms = {}
    for positions in combinations(range(n), len(alpha)):
        exps = [0] * n
        for pos, part in zip(positions, alpha):
            exps[pos] = part
        terms[tuple(exps)] = 1
    return Polynomial(n, terms)


@lru_cache(maxsize=None)
def _fundamental(alpha, n):
    # refinements with more than n parts vanish; the rest have disjoint supports
    d, base = sum(alpha), descent_set(alpha)
    free = sorted(set(range(1, d)) - base)
    terms = {}
    for r in range(min(len(free), n - len(alpha)) + 1):
        for extra in combinations(free, r):
            beta = composition_from_subset(base | set(extra), d)
            terms.update(monomial_qsym(beta, n).items())
    return Polynomial(n, terms)


def fundamental_qsym(alpha, n: int) -> Polynomial:
    """F_alpha in n variables: the sum of M_beta over all refinements beta.

    Only the refinements with at most n parts are summed, so the cost follows
    the number of terms, not 2 ** (|alpha| - len(alpha)).  Cached per
    (alpha, n); polynomials are immutable so sharing is safe.
    """
    alpha = check_composition(alpha)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _fundamental(alpha, n)


def f_product(alpha, beta, word_builder=canonical_descent_word):
    """Composition expansion of F_alpha * F_beta via shuffles of descent words.

    Returns (gamma, multiplicity) pairs, sorted, with total multiplicity
    binom(|alpha| + |beta|, |beta|).  The expansion is independent of the
    choice of descent words and holds in any number of variables:
    sum(mult * F_gamma) = F_alpha * F_beta.
    """
    alpha, beta = check_composition(alpha), check_composition(beta)
    u = word_builder(alpha)
    v = word_builder(beta, offset=sum(alpha))
    d = sum(alpha) + sum(beta)
    counts = {}
    for w in shuffles(u, v):
        gamma = composition_from_subset(word_descent_set(w), d)
        counts[gamma] = counts.get(gamma, 0) + 1
    return sorted(counts.items())


def is_quasisymmetric(p: Polynomial) -> bool:
    """True iff the coefficient of X^nu depends only on c(nu)."""
    classes = {}
    for exps, coeff in p.items():
        classes.setdefault(zero_erasure(exps), []).append(coeff)
    for alpha, coeffs in classes.items():
        if len(set(coeffs)) != 1:
            return False
        # every vector in the class must appear, all with that coefficient
        if len(coeffs) != comb(p.n, len(alpha)):
            return False
    return True


def reverse_variables(p: Polynomial) -> Polynomial:
    """The algebra involution x_i -> x_{n-i+1}; maps F_alpha to F_reversed(alpha)."""
    return Polynomial(p.n, {tuple(reversed(e)): c for e, c in p.items()})


def embed_shifted(p: Polynomial, n: int) -> Polynomial:
    """View a polynomial in x_1..x_m as one in x_2..x_n (index shift by one)."""
    if p.n + 1 != n:
        raise ValueError(f"can only embed {p.n} variables into {p.n + 1}, got {n}")
    return Polynomial(n, {(0,) + e: c for e, c in p.items()})


def frel_decompose(alpha, n: int) -> tuple[Polynomial, Polynomial]:
    """Split F_alpha(x_1..x_n) = x_1 * A + B along its first variable.

    For alpha_1 > 1, A = F_(alpha_1 - 1, alpha_2, ...) in all n variables;
    for alpha_1 = 1, A = F_(alpha_2, ...) in x_2..x_n.  In both cases
    B = F_alpha(x_2..x_n).
    """
    alpha = check_composition(alpha)
    if not alpha:
        raise ValueError("the empty composition has no first part to peel")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if alpha[0] > 1:
        a = fundamental_qsym((alpha[0] - 1,) + alpha[1:], n)
    else:
        a = embed_shifted(fundamental_qsym(alpha[1:], n - 1), n)
    b = embed_shifted(fundamental_qsym(alpha, n - 1), n)
    return a, b
