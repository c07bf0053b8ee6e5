import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qsymq.combinat import (
    canonical_descent_word,
    check_composition,
    composition_from_subset,
    descent_set,
    refinements,
)
from qsymq.poly import Polynomial

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")


@st.composite
def compositions(draw, max_size=6, min_size=0):
    d = draw(st.integers(min_size, max_size))
    if d == 0:
        return ()
    subset = draw(st.sets(st.integers(1, d - 1))) if d > 1 else set()
    return composition_from_subset(subset, d)


@st.composite
def vectors(draw, n=None, max_n=6, max_degree=6):
    if n is None:
        n = draw(st.integers(1, max_n))
    d = draw(st.integers(0, max_degree))
    exps = [0] * n
    for _ in range(d):
        exps[draw(st.integers(0, n - 1))] += 1
    return tuple(exps)


@st.composite
def polynomials(draw, n=None, max_n=4, max_degree=5, max_terms=6):
    if n is None:
        n = draw(st.integers(1, max_n))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(vectors(n=n, max_degree=max_degree))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        terms[exps] = coeff
    return Polynomial(n, terms)


def random_vector(rng: random.Random, n, degree):
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def compositions_of(d):
    """All compositions of ``d`` (the refinements of ``(d,)``), in ascending
    lex order on the parts."""
    return sorted(refinements((d,) if d else (), d))


def reference_vectors_of_degree(n, d):
    """All vectors in N^n with |nu| = d, in ascending lex order: a first
    entry, then any vector of the rest."""
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in reference_vectors_of_degree(n - 1, d - first):
            yield (first,) + rest


def reference_enumerate_dyck(n, k=None):
    """Dyck vectors of length n (degree k only, if given) by depth-first
    extension, then sorted into graded lex order."""
    out = []
    prefix = [0] * n

    def extend(pos, total):
        if pos == n:
            if k is None or total == k:
                out.append(tuple(prefix))
            return
        top = pos - total
        if k is not None:
            top = min(top, k - total)
        for e in range(top + 1):
            prefix[pos] = e
            extend(pos + 1, total + e)
        prefix[pos] = 0

    extend(0, 0)
    out.sort(key=lambda v: (sum(v), v))
    return out


def reference_shuffles(u, v):
    """Interleavings of u and v: those that start with u's first letter,
    then those that start with v's."""
    if not u or not v:
        return [tuple(u) + tuple(v)]
    return ([(u[0],) + rest for rest in reference_shuffles(u[1:], v)]
            + [(v[0],) + rest for rest in reference_shuffles(u, v[1:])])


def complement_descent_word(alpha, offset=0):
    """An alternative word with descent set exactly D(alpha): complement the
    canonical word built for the complementary descent set."""
    alpha = check_composition(alpha)
    d = sum(alpha)
    if d == 0:
        return ()
    co = composition_from_subset(set(range(1, d)) - descent_set(alpha), d)
    return tuple(offset + d + 1 - v for v in canonical_descent_word(co))


def homogeneous_components(p):
    """Map degree -> homogeneous part of ``p`` (zero polynomial omitted)."""
    parts = {}
    for exps, coeff in p.items():
        parts.setdefault(sum(exps), {})[exps] = coeff
    return {d: Polynomial(p.n, t) for d, t in sorted(parts.items())}


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture
def fresh_caches():
    """Empty the process-wide G and oracle-slice memos before and after a
    test that builds under a patched kernel or corrupts a memo."""
    from qsymq import oracle, quotient
    memos = (quotient.shared_basis, oracle._slice)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
