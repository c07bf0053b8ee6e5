import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polynomials, random_vector
from qsymq.combinat import ballot, compositions_of, enumerate_dyck, is_dyck, vectors_of_degree
from qsymq.poly import Polynomial, graded_lex_key, random_polynomial
from qsymq.qsym import fundamental_qsym, monomial_qsym
from qsymq.quotient import (
    BaseCase,
    EpsFactorization,
    GBasis,
    coordinates,
    enumerate_transdiagonal,
    factorize,
    g_element,
    is_member,
    normal_form,
    rewrite_times_variable,
    shared_basis,
)

# frozen expansion of the G element indexed by (1, 0, 2, 0)
G1020_TERMS = {
    (1, 0, 2, 0): 1, (1, 0, 1, 1): 1, (1, 0, 0, 2): 1,
    (0, 2, 1, 0): -1, (0, 2, 0, 1): -1,
    (0, 1, 2, 0): 1, (0, 1, 0, 2): 1, (0, 0, 1, 2): 1,
}


class TestFactorize:
    def test_recursive_case(self):
        split = factorize((1, 0, 2, 0))
        assert split == EpsFactorization(w=(1,), k=2, a=2, beta=(), n=4)
        assert split.reassemble() == (1, 0, 2, 0)

    def test_base_case(self):
        assert factorize((2, 1, 0, 0)) == BaseCase(alpha=(2, 1))

    def test_leading_zero(self):
        assert factorize((0, 2)) == EpsFactorization(w=(), k=1, a=2, beta=(), n=2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            factorize((0, 0, 0))

    def test_pivot_is_last_internal_zero(self):
        split = factorize((1, 0, 2, 0, 3, 0))
        assert split.k == 4 and split.a == 3 and split.w == (1, 0, 2)

    def test_reassembly_round_trip(self):
        for n in range(1, 6):
            for d in range(1, n + 2):
                for eps in vectors_of_degree(n, d):
                    split = factorize(eps)
                    if isinstance(split, EpsFactorization):
                        assert split.reassemble() == eps
                        assert split.a >= 1
                        assert all(b >= 1 for b in split.beta)
                    else:
                        assert split.alpha + (0,) * (n - len(split.alpha)) == eps


class TestGElements:
    def test_frozen_expansion(self):
        assert g_element((1, 0, 2, 0), 4) == Polynomial(4, G1020_TERMS)

    def test_base_case_is_fundamental(self):
        assert g_element((1, 0, 0, 0), 4) == fundamental_qsym((1,), 4)
        assert g_element((2, 1, 0, 0), 4) == fundamental_qsym((2, 1), 4)

    def test_two_variable_square(self):
        assert g_element((0, 2), 2) == Polynomial.monomial(2, (0, 2))

    def test_dyck_index_rejected(self):
        with pytest.raises(ValueError):
            g_element((0, 1), 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            GBasis(3).g((1, 0))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_leading_monomials_match_indices(self, n):
        basis = shared_basis(n)
        for eps in enumerate_transdiagonal(n, n):
            poly = basis.g(eps)
            assert poly.leading_monomial() == (eps, 1), eps
            assert poly.is_homogeneous()
            assert poly.degree() == sum(eps)


class TestRewriteRules:
    def test_insertion_pattern(self):
        assert rewrite_times_variable(3, (3, 1, 0, 0, 0)) == \
            ((3, 1, 1, 0, 0), (3, 1, 0, 1, 0))

    def test_bump_pattern(self):
        assert rewrite_times_variable(3, (0, 3, 1, 0, 0)) == \
            ((0, 3, 2, 0, 0), (0, 3, 0, 2, 0))

    def test_pattern_mismatch(self):
        with pytest.raises(ValueError):
            rewrite_times_variable(2, (1, 0, 2))

    def test_length_overflow(self):
        with pytest.raises(ValueError):
            rewrite_times_variable(3, (0, 0, 3))  # needs a fourth position
        with pytest.raises(ValueError):
            rewrite_times_variable(1, (2, 1, 1))  # tail would shift past n

    def test_dyck_rejected(self):
        with pytest.raises(ValueError):
            rewrite_times_variable(1, (0, 1))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_identity_exhaustive(self, n):
        basis = shared_basis(n)
        for phi in enumerate_transdiagonal(n, n - 1):
            for k in range(1, n + 1):
                try:
                    plus, minus = rewrite_times_variable(k, phi)
                except ValueError:
                    continue
                assert not is_dyck(plus) and not is_dyck(minus)
                lhs = Polynomial.variable(n, k) * basis.g(phi)
                assert lhs == basis.g(plus) - basis.g(minus), (k, phi)


def reference_normal_form(basis, p):
    """The greedy reduction spelled out: rescan the whole support for the
    graded-lex-greatest transdiagonal monomial at every step."""
    work = dict(p.items())
    certificate = []
    while True:
        eps = None
        key = None
        for exps in work:
            if not is_dyck(exps):
                k = graded_lex_key(exps)
                if key is None or k > key:
                    eps, key = exps, k
        if eps is None:
            break
        coeff = work[eps]
        for exps, c in basis.g(eps).items():
            new = work.get(exps, 0) - coeff * c
            if new:
                work[exps] = new
            else:
                work.pop(exps, None)
        assert eps not in work
        certificate.append((coeff, eps))
    return Polynomial(basis.n, work), certificate


@st.composite
def small_polynomials(draw):
    n = draw(st.integers(1, 5))
    return draw(polynomials(n=n, max_degree=n + 1))


class TestAgainstGreedyRescan:
    @given(small_polynomials())
    def test_hypothesis_polynomials(self, p):
        basis = shared_basis(p.n)
        result = basis.normal_form(p)
        remainder, certificate = reference_normal_form(basis, p)
        assert result.remainder == remainder
        assert result.certificate == certificate

    def test_seeded_polynomials(self, rng):
        for _ in range(80):
            n = rng.randint(1, 5)
            basis = shared_basis(n)
            p = random_polynomial(rng, n, max_degree=n + 1, max_terms=12)
            result = basis.normal_form(p)
            remainder, certificate = reference_normal_form(basis, p)
            assert result.remainder == remainder
            assert result.certificate == certificate

    def test_dense_products(self, rng):
        # products of linear forms fill whole degree slices, so each step
        # adds many new transdiagonal terms below the one it cancels
        for n in range(2, 6):
            basis = shared_basis(n)
            p = Polynomial.constant(n, 1)
            for _ in range(n):
                form = {random_vector(rng, n, 1): rng.randint(1, 7) for _ in range(n)}
                p = p * Polynomial(n, form)
            result = basis.normal_form(p)
            remainder, certificate = reference_normal_form(basis, p)
            assert result.remainder == remainder
            assert result.certificate == certificate


class TestNormalForm:
    def test_single_variable(self):
        result = normal_form(Polynomial.variable(2, 1))
        assert result.remainder == Polynomial(2, {(0, 1): -1})
        assert result.certificate == [(1, (1, 0))]

    def test_exact_generator(self):
        result = normal_form(Polynomial.monomial(2, (0, 2)))
        assert result.remainder.is_zero()
        assert result.certificate == [(1, (0, 2))]

    def test_dyck_monomial_untouched(self):
        for eta in enumerate_dyck(3):
            result = normal_form(Polynomial.monomial(3, eta))
            assert result.remainder == Polynomial.monomial(3, eta)
            assert result.certificate == []

    def test_fundamental_reduces_to_zero(self):
        assert normal_form(fundamental_qsym((2, 1), 4)).remainder.is_zero()

    def test_worked_product_identity(self):
        # x1 * x3 * F_21 in five variables against the four G elements
        basis = shared_basis(5)
        lhs = (Polynomial.variable(5, 1) * Polynomial.variable(5, 3)
               * fundamental_qsym((2, 1), 5))
        rhs = (basis.g((3, 1, 1, 0, 0)) - basis.g((3, 1, 0, 1, 0))
               - basis.g((0, 3, 2, 0, 0)) + basis.g((0, 3, 0, 2, 0)))
        assert lhs == rhs
        assert basis.normal_form(lhs).remainder.is_zero()

    def test_certificate_identity_random(self, rng):
        for _ in range(60):
            n = rng.randint(1, 5)
            basis = shared_basis(n)
            p = random_polynomial(rng, n, max_degree=6)
            result = basis.normal_form(p)
            rebuilt = result.remainder
            for coeff, eps in result.certificate:
                assert not is_dyck(eps)
                rebuilt = rebuilt + basis.g(eps) * coeff
            assert rebuilt == p
            assert all(is_dyck(e) for e in result.remainder.support())

    def test_idempotent(self, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            result = normal_form(random_polynomial(rng, n, max_degree=5))
            again = normal_form(result.remainder)
            assert again.remainder == result.remainder
            assert again.certificate == []

    @given(polynomials(n=3, max_degree=4), polynomials(n=3, max_degree=4))
    @settings(max_examples=25)
    def test_linear(self, p, q):
        a, b = Fraction(2, 3), Fraction(-5)
        combo = coordinates(a * p + b * q)
        cp, cq = coordinates(p), coordinates(q)
        merged = {}
        for eta, c in cp.items():
            merged[eta] = merged.get(eta, 0) + a * c
        for eta, c in cq.items():
            merged[eta] = merged.get(eta, 0) + b * c
        assert {e: c for e, c in merged.items() if c} == combo

    def test_degree_n_annihilated(self):
        for n in range(1, 5):
            for d in (n, n + 1):
                for nu in vectors_of_degree(n, d):
                    assert normal_form(Polynomial.monomial(n, nu)).remainder.is_zero()

    def test_ideal_products_annihilated(self, rng):
        for _ in range(30):
            n = rng.randint(1, 4)
            alpha = tuple(rng.choice(compositions_of(rng.randint(1, n))))
            q = random_polynomial(rng, n, max_degree=3, max_terms=4)
            assert normal_form(q * monomial_qsym(alpha, n)).remainder.is_zero()

    def test_every_generator_multiple_annihilated(self, rng):
        # one random cofactor for each composition of size <= n
        for n in range(1, 6):
            for d in range(1, n + 1):
                for alpha in compositions_of(d):
                    q = random_polynomial(rng, n, max_degree=2, max_terms=3)
                    product = q * fundamental_qsym(alpha, n)
                    assert normal_form(product).remainder.is_zero(), (n, alpha)


class TestMembership:
    def test_constants_are_outside(self):
        assert not is_member(Polynomial.constant(3, 1))

    def test_single_variable(self):
        assert not is_member(Polynomial.variable(2, 2))

    def test_generators_inside(self):
        for alpha in [(1,), (2,), (1, 1), (2, 1)]:
            assert is_member(fundamental_qsym(alpha, 4))
            assert is_member(monomial_qsym(alpha, 4))


class TestCoordinates:
    def test_examples(self):
        assert coordinates(Polynomial.variable(2, 1)) == {(0, 1): Fraction(-1)}
        assert coordinates(Polynomial.zero(2)) == {}
        assert coordinates(Polynomial.monomial(3, (0, 0, 1))) == {(0, 0, 1): 1}


class TestEnumerateTransdiagonal:
    def test_small(self):
        assert enumerate_transdiagonal(2, 2) == [(1, 0), (0, 2), (1, 1), (2, 0)]

    def test_one_variable(self):
        assert enumerate_transdiagonal(1, 3) == [(1,), (2,), (3,)]

    def test_counts_complement_dyck(self):
        for n in range(1, 7):
            for d in range(1, n + 2):
                count = sum(1 for v in enumerate_transdiagonal(n, d) if sum(v) == d)
                assert count == comb(n + d - 1, d) - ballot(n, d)
