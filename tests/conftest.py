import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qsymq.combinat import composition_from_subset
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


@pytest.fixture
def rng():
    return random.Random(0x5EED)
