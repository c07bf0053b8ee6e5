"""Compositions, exponent vectors, Dyck paths, and lattice-path counting.

Compositions are tuples of positive integers; exponent vectors are tuples of
``n`` non-negative integers, read simultaneously as monomial exponents and as
north/east lattice paths of height ``n`` and width ``|nu|``.  A vector is
*Dyck* when its path stays weakly above the diagonal, i.e. when every partial
sum satisfies ``nu_1 + ... + nu_l <= l - 1``; otherwise it is *transdiagonal*.
There are exactly ``catalan(n)`` Dyck vectors of length ``n``.
"""

import math
from itertools import combinations, combinations_with_replacement
from operator import sub

Composition = tuple[int, ...]
ExponentVector = tuple[int, ...]

# Desk-scale caps on n.  Counting formulas stay exact for any n, but path
# enumeration is exponential and exact elimination grows faster still;
# refuse silently huge jobs instead of hanging.
COUNTING_CAP = 20
ENUMERATION_CAP = 12
ORACLE_CAP = 8
# Terms of one F_alpha, or shuffle words of one F product, built per request.
SIZE_CAP = 100_000


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds the desk-scale caps."""


def _check_cap(n: int, cap: int, what: str, name: str = "n") -> None:
    if n > cap:
        raise ResourceLimitError(f"{what} capped at {name} <= {cap}; got {name} = {n}")


def check_size(count: int, what: str, *args) -> None:
    """Refuse more than ``SIZE_CAP`` items; ``what.format(*args)`` names them,
    formatted only on failure."""
    if count > SIZE_CAP:
        raise ResourceLimitError(f"more than {SIZE_CAP} " + what.format(*args))


# ---------------------------------------------------------------------------
# compositions


def check_composition(alpha) -> Composition:
    """Validate and normalize a composition (any iterable of parts >= 1)."""
    alpha = tuple(alpha)
    for part in alpha:
        if type(part) is not int or part < 1:  # exactly int, so not bool
            raise ValueError(f"composition parts must be integers >= 1, got {alpha}")
    return alpha


def composition_from_subset(subset, d: int) -> Composition:
    """Composition of ``d`` whose descent set is ``subset`` (a subset of [1, d-1]).

    >>> composition_from_subset({2, 3, 5}, 7)
    (2, 1, 2, 2)
    """
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    points = sorted(subset)
    for a in points:
        if not 1 <= a <= d - 1:
            raise ValueError(f"subset element {a} outside [1, {d - 1}]")
    if d == 0:
        return ()
    cuts = [0] + points + [d]
    return tuple(b - a for a, b in zip(cuts, cuts[1:]))


def descent_set(alpha) -> frozenset:
    """Partial sums of ``alpha`` excluding the total: the descent set D(alpha)."""
    alpha = check_composition(alpha)
    out, total = [], 0
    for part in alpha[:-1]:
        total += part
        out.append(total)
    return frozenset(out)


def refinements(alpha, n: int) -> list[Composition]:
    """The refinements of ``alpha`` with at most ``n`` parts: the supersets of
    D(alpha) inside [1, |alpha|-1] with at most ``n - 1`` elements, listed by
    size and then in lex order of the added points.

    Lowering ``n`` cuts this list to a prefix; with ``n >= |alpha|`` it holds
    all ``2 ** (|alpha| - len(alpha))`` refinements.
    """
    alpha = check_composition(alpha)
    d = sum(alpha)
    base = descent_set(alpha)
    free = sorted(set(range(1, d)) - base)
    out = []
    for r in range(min(len(free), n - len(alpha)) + 1):
        for extra in combinations(free, r):
            out.append(composition_from_subset(base | set(extra), d))
    return out


# ---------------------------------------------------------------------------
# exponent vectors and path classification


def check_vector(nu) -> ExponentVector:
    nu = tuple(nu)
    for e in nu:
        if type(e) is not int or e < 0:  # exactly int, so not bool
            raise ValueError(f"vector entries must be integers >= 0, got {nu}")
    return nu


def last_nonzero(nu) -> int:
    """Position (1-based) of the last nonzero entry; 0 for the zero vector."""
    nu = tuple(nu)
    for i in range(len(nu), 0, -1):
        if nu[i - 1]:
            return i
    return 0


def zero_erasure(nu) -> Composition:
    """The composition c(nu) obtained by erasing zero entries."""
    return tuple(e for e in check_vector(nu) if e)


def is_dyck(nu) -> bool:
    """Partial sums never reach the diagonal: nu_1 + ... + nu_l <= l - 1 for all l."""
    total = 0
    for l, e in enumerate(check_vector(nu), start=1):
        total += e
        if total >= l:
            return False
    return True


def vectors_of_degree(n: int, d: int):
    """All vectors in N^n with |nu| = d, in ascending lex order.

    Stars and bars: the partial sums nu_1 + ... + nu_i for i < n are a weakly
    increasing sequence in [0, d], and their lex order is that of the vectors.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for sums in combinations_with_replacement(range(d + 1), n - 1):
        yield tuple(map(sub, sums + (d,), (0,) + sums))


def enumerate_dyck(n: int, k: int | None = None) -> list[ExponentVector]:
    """All Dyck vectors of length ``n`` (degree ``k`` only, if given), in
    ascending graded lex order.  Total count is ``catalan(n)``; the count at
    degree ``k`` is ``ballot(n, k)``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k is not None and k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    _check_cap(n, ENUMERATION_CAP, "Dyck enumeration")
    # (prefix, sum) pairs in lex order; the entry at 1-based position pos + 1
    # may raise the sum up to pos, and up to k when k is given
    paths = [((), 0)]
    for pos in range(n):
        top = pos if k is None else min(pos, k)
        paths = [(prefix + (e,), total + e) for prefix, total in paths
                 for e in range(top - total + 1)]
    out = [prefix for prefix, total in paths if k is None or total == k]
    out.sort(key=sum)  # stable: lex order within each degree
    return out


# ---------------------------------------------------------------------------
# counting


def catalan(n: int) -> int:
    """C_n = binom(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _check_cap(n, COUNTING_CAP, "Catalan numbers")
    return math.comb(2 * n, n) // (n + 1)


def ballot(n: int, k: int) -> int:
    """Number of Dyck vectors of length n and degree k:
    (n - k) / (n + k) * binom(n + k, k) for k < n, and 0 for k >= n.
    """
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n = {n}, k = {k}")
    _check_cap(n, COUNTING_CAP, "ballot numbers")
    if k >= n:
        return 0
    num = (n - k) * math.comb(n + k, k)
    assert num % (n + k) == 0
    return num // (n + k)


def dn_k(n: int, k: int) -> int:
    """Dyck words of length 2n ending with exactly k falls (equivalently, with
    exactly k factors): k * (2n - k - 1)! / (n! * (n - k)!).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n = {n}, k = {k}")
    _check_cap(n, COUNTING_CAP, "path counting")
    num = k * math.factorial(2 * n - k - 1)
    den = math.factorial(n) * math.factorial(n - k)
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# Dyck words (up/down steps) and path statistics


def vector_to_dyck_word(eta) -> str:
    """Encode a Dyck vector as a word over U/D:
    D^eta_1 U D^eta_2 U ... D^eta_n U D^(n - |eta|).

    The word ends with exactly ``n - |eta|`` falls.
    """
    eta = check_vector(eta)
    if not is_dyck(eta):
        raise ValueError(f"{eta} is transdiagonal, not a Dyck vector")
    n = len(eta)
    parts = ["D" * e + "U" for e in eta]
    parts.append("D" * (n - sum(eta)))
    return "".join(parts)


def trailing_falls(word: str) -> int:
    return len(word) - len(word.rstrip("D"))


def factor_count(word: str) -> int:
    """Number of returns to the axis (irreducible factors of the word)."""
    height = factors = 0
    for step in word:
        height += 1 if step == "U" else -1
        if height == 0:
            factors += 1
    return factors


def path_statistics(n: int) -> dict[int, tuple[int, int]]:
    """For each k in [1, n], the pair (paths ending with exactly k falls,
    paths with exactly k factors) over all Dyck words of length 2n, read off
    the Dyck vectors of ``enumerate_dyck(n)`` through ``vector_to_dyck_word``.
    Both counts equal ``dn_k(n, k)``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    by_falls = {k: 0 for k in range(1, n + 1)}
    by_factors = {k: 0 for k in range(1, n + 1)}
    for word in map(vector_to_dyck_word, enumerate_dyck(n)):
        by_falls[trailing_falls(word)] += 1
        by_factors[factor_count(word)] += 1
    return {k: (by_falls[k], by_factors[k]) for k in range(1, n + 1)}


# ---------------------------------------------------------------------------
# words, descents, shuffles


def word_descent_set(word) -> frozenset:
    """Positions i (1-based) with word[i] > word[i+1]."""
    return frozenset(i for i in range(1, len(word)) if word[i - 1] > word[i])


def canonical_descent_word(alpha, offset: int = 0) -> tuple[int, ...]:
    """A permutation word of {offset+1, ..., offset+|alpha|} whose descent set
    is exactly D(alpha).

    Runs are written increasingly and later runs take the smaller value
    blocks, so every run boundary is a descent and nothing else is.

    >>> canonical_descent_word((2, 1))
    (2, 3, 1)
    >>> canonical_descent_word((1, 2), offset=3)
    (6, 4, 5)
    """
    alpha = check_composition(alpha)
    word = []
    high = offset + sum(alpha)
    for part in alpha:
        word.extend(range(high - part + 1, high + 1))
        high -= part
    return tuple(word)


def shuffles(u, v) -> list[tuple]:
    """All interleavings of ``u`` and ``v`` keeping each word's internal order.

    The words must have disjoint letters; the result has binom(|u|+|v|, |v|)
    elements.
    """
    u, v = tuple(u), tuple(v)
    if set(u) & set(v):
        raise ValueError(f"words must have disjoint letters: {u} and {v}")
    out = []
    # u's letters go to each choice of positions, in lex order, so the
    # words that put u's letters earliest come first
    for spots in combinations(range(len(u) + len(v)), len(u)):
        word = list(v)
        for i, x in zip(spots, u):
            word.insert(i, x)
        out.append(tuple(word))
    return out
