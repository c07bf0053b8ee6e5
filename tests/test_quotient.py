import heapq
import sys
import threading
from fractions import Fraction
from math import comb
from operator import neg

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compositions_of, polynomials, random_vector
from qsymq import combinat
from qsymq.combinat import (
    ResourceLimitError,
    ballot,
    enumerate_dyck,
    is_dyck,
    last_nonzero,
    vectors_of_degree,
    zero_erasure,
)
from qsymq.poly import Polynomial, graded_lex_key, random_polynomial
from qsymq.qsym import fundamental_qsym, monomial_qsym
from qsymq.quotient import (
    GBasis,
    ReductionResult,
    check_chain,
    coordinates,
    enumerate_transdiagonal,
    g_element,
    is_member,
    normal_form,
    shared_basis,
)

# frozen expansion of the G element indexed by (1, 0, 2, 0)
G1020_TERMS = {
    (1, 0, 2, 0): 1, (1, 0, 1, 1): 1, (1, 0, 0, 2): 1,
    (0, 2, 1, 0): -1, (0, 2, 0, 1): -1,
    (0, 1, 2, 0): 1, (0, 1, 0, 2): 1, (0, 0, 1, 2): 1,
}


class TestFactorize:
    """G_(w 0 a beta 0*) = G_(w a beta 0*) - x_k * G_(w (a-1) beta 0*), the
    zero at k the last before the last nonzero entry; G_(alpha 0*) = F_alpha."""

    def test_recursive_case(self):
        x2 = Polynomial.variable(4, 2)
        assert g_element((1, 0, 2, 0)) == g_element((1, 2, 0, 0)) - x2 * g_element((1, 1, 0, 0))

    def test_base_case(self):
        for n in range(1, 6):
            for alpha in compositions_of(n + 1):
                if len(alpha) <= n:
                    eps = alpha + (0,) * (n - len(alpha))
                    assert g_element(eps) == fundamental_qsym(alpha, n), eps

    def test_leading_zero(self):
        x1 = Polynomial.variable(2, 1)
        assert g_element((0, 2)) == g_element((2, 0)) - x1 * g_element((1, 0))

    def test_pivot_is_last_internal_zero(self):
        x4 = Polynomial.variable(6, 4)
        assert g_element((1, 0, 2, 0, 3, 0)) == \
            g_element((1, 0, 2, 3, 0, 0)) - x4 * g_element((1, 0, 2, 2, 0, 0))


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

    def test_chain_cap_counts_copies(self, monkeypatch):
        # G_(1,0,0,1) follows `left` through two zero removals down to
        # F_(1,1), which has C(4, 2) = 6 terms in 4 variables
        monkeypatch.setattr(combinat, "SIZE_CAP", 12)
        assert GBasis(4).g((1, 0, 0, 1)).leading_monomial() == ((1, 0, 0, 1), 1)
        monkeypatch.setattr(combinat, "SIZE_CAP", 11)
        with pytest.raises(ResourceLimitError):
            GBasis(4).g((1, 0, 0, 1))

    def test_chain_cap_boundary(self):
        # x1*x59: 57 * C(59, 2) = 97,527 terms; x1*x60: 58 * C(60, 2) = 102,660
        GBasis(59).g((1,) + (0,) * 57 + (1,))
        with pytest.raises(ResourceLimitError):
            GBasis(60).g((1,) + (0,) * 58 + (1,))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_leading_monomials_match_indices(self, n):
        basis = shared_basis(n)
        for eps in enumerate_transdiagonal(n, n):
            poly = basis.g(eps)
            assert poly.leading_monomial() == (eps, 1), eps
            assert poly.is_homogeneous()
            assert poly.degree() == sum(eps)

    def test_every_element_n7(self):
        # _g checks homogeneity only on the base case's F_alpha; this is the
        # full scan of every element the reduce-warm set-up builds
        basis = GBasis(7)
        for eps in enumerate_transdiagonal(7, 7):
            terms = basis._terms(eps)
            assert {sum(e) for e in terms} == {sum(eps)}, eps
            assert max(terms, key=graded_lex_key) == eps and terms[eps] == 1, eps
            poly = basis.g(eps)
            assert poly == Polynomial(7, terms), eps
            assert all(type(c) is Fraction for _, c in poly.items()), eps

    def test_frozen_memo_footprint(self):
        # each element is frozen as a tuple of ids and a tuple of nonzero
        # ints, published once; a dict per element takes about 48 bytes a term
        basis = GBasis(6)
        indices = enumerate_transdiagonal(6, 6)
        built = [basis._g(eps) for eps in indices]
        terms = size = 0
        for eps, ids in zip(indices, built):
            element = basis._memo[eps]
            assert type(element) is tuple and len(element) == 2, eps
            assert element[0] is ids and basis._g(eps) is ids, eps
            coeffs = element[1]
            assert type(ids) is type(coeffs) is tuple and len(ids) == len(coeffs), eps
            assert all(coeffs), eps
            terms += len(ids)
            size += sum(map(sys.getsizeof, (element, ids, coeffs)))
        assert len(basis._memo) == len(indices)
        assert size <= 24 * terms, size / terms


class TestRewriteRules:
    """x_k * G_phi = G_plus - G_minus, two rearrangements of the recursion."""

    def test_insertion_pattern(self):
        basis, x3 = shared_basis(5), Polynomial.variable(5, 3)
        assert x3 * basis.g((3, 1, 0, 0, 0)) == basis.g((3, 1, 1, 0, 0)) - basis.g((3, 1, 0, 1, 0))

    def test_bump_pattern(self):
        basis, x3 = shared_basis(5), Polynomial.variable(5, 3)
        assert x3 * basis.g((0, 3, 1, 0, 0)) == basis.g((0, 3, 2, 0, 0)) - basis.g((0, 3, 0, 2, 0))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_identity_exhaustive(self, n):
        basis = shared_basis(n)
        for phi in enumerate_transdiagonal(n, n - 1):
            ell = last_nonzero(phi)
            for k in range(1, n):
                if k > ell:  # phi is zero from k on: a 1 at k, or at k + 1
                    plus, minus = phi[:k - 1] + (1,) + phi[k:], phi[:k] + (1,) + phi[k + 1:]
                elif ell < n and all(phi[k - 1:ell]):  # positive from k through ell
                    bumped = phi[k - 1] + 1
                    plus = phi[:k - 1] + (bumped,) + phi[k:]
                    minus = phi[:k - 1] + (0, bumped) + phi[k:ell] + (0,) * (n - ell - 1)
                else:
                    continue
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


def reference_g(n, eps, memo):
    """G_eps by the defining recursion in Polynomial arithmetic, base case
    F_alpha: G_(w 0 a beta 0*) = G_(w a beta 0*) - x_k * G_(w (a-1) beta 0*)."""
    if eps not in memo:
        ell = max(i for i, e in enumerate(eps, 1) if e)
        zeros = [i for i in range(1, ell) if eps[i - 1] == 0]
        if not zeros:
            memo[eps] = fundamental_qsym(eps[:ell], n)
        else:
            k = zeros[-1]
            w, a, beta, pad = eps[:k - 1], eps[k], eps[k + 1:ell], (0,) * (n - ell + 1)
            memo[eps] = (reference_g(n, w + (a,) + beta + pad, memo) - Polynomial.variable(n, k)
                         * reference_g(n, w + (a - 1,) + beta + pad, memo))
    return memo[eps]


class TestAgainstPolynomialRecursion:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_g_element(self, n):
        basis, memo = GBasis(n), {}
        for eps in enumerate_transdiagonal(n, n + 1):
            assert basis.g(eps) == reference_g(n, eps, memo), eps


class ReferenceGBasis:
    """The earlier kernel, kept as a reference: each G element is an
    ``{exponents: int}`` dict keyed by its own exponent tuples, and the
    reduction loop works on exponent-keyed terms and heap entries built per
    term."""

    def __init__(self, n):
        self.n = n
        self._memo = {}

    def _g(self, eps):
        hit = self._memo.get(eps)
        if hit is not None:
            return hit
        zeros = check_chain(eps, self.n)
        if not zeros:
            result = dict.fromkeys(fundamental_qsym(zero_erasure(eps), self.n).support(), 1)
        else:
            k = zeros[-1]
            left = eps[:k - 1] + eps[k:] + (0,)
            right = left[:k - 1] + (left[k - 1] - 1,) + left[k:]
            result = dict(self._g(left))
            for exps, c in self._g(right).items():
                exps = exps[:k - 1] + (exps[k - 1] + 1,) + exps[k:]
                result[exps] = result.get(exps, 0) - c
                if not result[exps]:
                    del result[exps]
        self._memo[eps] = result
        return result

    def normal_form(self, p):
        scale, work = p.integer_terms()
        certificate = []
        heap = [(-sum(e), tuple(map(neg, e)), e) for e in work if not is_dyck(e)]
        heapq.heapify(heap)
        while heap:
            *_, eps = heapq.heappop(heap)
            coeff = work.get(eps)
            if coeff is None:
                continue
            minus = -coeff
            for exps, c in self._g(eps).items():
                old = work.get(exps)
                new = minus * c if old is None else old + minus * c
                if new:
                    work[exps] = new
                    if old is None and not is_dyck(exps):
                        heapq.heappush(heap, (-sum(exps), tuple(map(neg, exps)), exps))
                else:
                    del work[exps]
            certificate.append((Fraction(coeff, scale), eps))
        remainder = {e: Fraction(c, scale) for e, c in work.items()}
        return ReductionResult(Polynomial._trusted(self.n, remainder), certificate)


REFERENCE_BASES = {}


def reference_basis(n):
    if n not in REFERENCE_BASES:
        REFERENCE_BASES[n] = ReferenceGBasis(n)
    return REFERENCE_BASES[n]


def assert_same_reduction(result, expected):
    """Equal remainders, with their terms in the same order, and equal
    certificate lists."""
    assert list(result.remainder.items()) == list(expected.remainder.items())
    assert result.certificate == expected.certificate


class TestAgainstReferenceKernel:
    """The interned kernel against the exponent-keyed one it replaced."""

    @given(st.integers(1, 6).flatmap(lambda n: polynomials(n=n, max_degree=n + 1)))
    def test_hypothesis_polynomials(self, p):
        assert_same_reduction(shared_basis(p.n).normal_form(p),
                              reference_basis(p.n).normal_form(p))

    @pytest.mark.parametrize("forms", range(3, 7))
    def test_linear_form_products_n7(self, forms, rng):
        n = 7
        for _ in range(2):
            p = Polynomial.constant(n, 1)
            for _ in range(forms):
                form = {random_vector(rng, n, 1): rng.randint(-7, 7) or 1 for _ in range(n)}
                p = p * Polynomial(n, form)
            assert_same_reduction(shared_basis(n).normal_form(p),
                                  reference_basis(n).normal_form(p))

    def test_every_g_element_n6(self):
        basis, reference = GBasis(6), ReferenceGBasis(6)
        for eps in enumerate_transdiagonal(6, 6):
            assert list(basis._terms(eps).items()) == list(reference._g(eps).items()), eps


class TestConcurrentReaders:
    """Threads that share one fresh basis intern vectors and build G elements
    concurrently, and still get the single-threaded results."""

    def test_four_threads_match_one(self, rng):
        inputs = [random_polynomial(rng, 5, max_degree=5, max_terms=8) for _ in range(40)]
        expected = [GBasis(5).normal_form(p) for p in inputs]
        shared, start = GBasis(5), threading.Barrier(4)
        results = [None] * 4

        def work(t):
            start.wait(timeout=60)
            # each thread starts at a different offset, so the threads build
            # different G elements at once over shared vectors and sub-elements
            order = [*range(10 * t, 40), *range(10 * t)]
            results[t] = {i: shared.normal_form(inputs[i]) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            for i, want in enumerate(expected):
                assert_same_reduction(got[i], want)
        assert len(shared._ids) == len(shared._vecs) == len(shared._entries)
        assert all(shared._vecs[i] == v for v, i in shared._ids.items())


class TestRestriction:
    """Setting x_(n+1) = 0 maps J_(n+1) onto J_n and the Dyck vectors of
    length n + 1 that end in 0 onto those of length n, so
    N_n(p|x_(n+1)=0) = N_(n+1)(p)|x_(n+1)=0: two different G families agree."""

    @staticmethod
    def restrict(p):
        n = p.n - 1
        return Polynomial(n, {e[:n]: c for e, c in p.items() if not e[n]})

    def check_restriction(self, n, cases, rng, max_degree, max_terms=8):
        small, large = GBasis(n), GBasis(n + 1)
        for _ in range(cases):
            p = random_polynomial(rng, n + 1, max_degree, max_terms)
            want = self.restrict(large.normal_form(p).remainder)
            assert small.normal_form(self.restrict(p)).remainder == want, p

    @pytest.mark.parametrize("n", range(2, 8))
    def test_restriction_commutes_with_normal_form(self, n, rng):
        self.check_restriction(n, 15 if n == 7 else 30, rng, n + 1)

    @pytest.mark.parametrize("n", range(9, 13))
    def test_restriction_past_the_oracle(self, n, rng):
        # sparse inputs of low degree keep each G chain short at these widths
        self.check_restriction(n, 20, rng, 5, 3)


class TestReversal:
    """x_i -> x_(n+1-i) maps M_alpha to M_rev(alpha), so it fixes J_n; as
    p - N(p) lies in J_n, so does its reversal, and N(rho p) = N(rho N(p))."""

    @staticmethod
    def reverse(p):
        return Polynomial(p.n, {e[::-1]: c for e, c in p.items()})

    @pytest.mark.parametrize("n", range(2, 7))
    def test_reversal_commutes_with_normal_form(self, n, rng):
        basis = GBasis(n)
        for _ in range(30):
            p = random_polynomial(rng, n, max_degree=n + 1)
            want = basis.normal_form(self.reverse(basis.normal_form(p).remainder)).remainder
            assert basis.normal_form(self.reverse(p)).remainder == want, p


class TestProduct:
    """N is the projection of R along J_n, an ideal, so it is a ring map
    onto the quotient: N(pq) = N(N(p) N(q))."""

    @staticmethod
    def check_products(n, cases, rng, max_degree, max_terms):
        basis = GBasis(n)
        for _ in range(cases):
            p = random_polynomial(rng, n, max_degree, max_terms)
            q = random_polynomial(rng, n, max_degree, max_terms)
            want = basis.normal_form(basis.normal_form(p).remainder
                                     * basis.normal_form(q).remainder).remainder
            assert basis.normal_form(p * q).remainder == want, (p, q)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_normal_form_respects_products(self, n, rng):
        self.check_products(n, 30, rng, 3, 4)

    @pytest.mark.parametrize("n", range(9, 13))
    def test_products_past_the_oracle(self, n, rng):
        self.check_products(n, 20, rng, 2, 2)


@st.composite
def small_polynomials(draw, past_n=1):
    n = draw(st.integers(1, 5))
    return draw(polynomials(n=n, max_degree=n + past_n))


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
        # adds many new transdiagonal terms below the one it cancels; the
        # scaled copy, with one more term over another large prime, makes
        # the reduction clear denominators whose lcm is about 2 * 10 ** 18
        for n in range(2, 6):
            basis = shared_basis(n)
            p = Polynomial.constant(n, 1)
            for _ in range(n):
                form = {random_vector(rng, n, 1): rng.randint(1, 7) for _ in range(n)}
                p = p * Polynomial(n, form)
            scaled = p * Fraction(-(10**9 + 7), 2**31 - 1) + Polynomial.monomial(
                n, (0,) * (n - 1) + (n,), Fraction(3, 10**9 + 9))
            for q in (p, scaled):
                result = basis.normal_form(q)
                remainder, certificate = reference_normal_form(basis, q)
                assert result.remainder == remainder
                assert result.certificate == certificate
                assert all(type(c) is Fraction for c, _ in result.certificate)


class TestNormalForm:
    def test_single_variable(self):
        result = normal_form(Polynomial.variable(2, 1))
        assert result.remainder == Polynomial(2, {(0, 1): -1})
        assert result.certificate == [(1, (1, 0))]

    def test_exact_generator(self):
        result = normal_form(Polynomial.monomial(2, (0, 2)))
        assert result.remainder.is_zero()
        assert result.certificate == [(1, (0, 2))]

    def test_zero_polynomial(self):
        result = GBasis(3).normal_form(Polynomial.zero(3))
        assert result.remainder.is_zero()
        assert result.certificate == []

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


class TestReductionResult:
    def test_by_position_and_keyword(self):
        result = normal_form(Polynomial.variable(2, 1))
        remainder, certificate = result
        assert ReductionResult(remainder, certificate) == result
        assert ReductionResult(remainder=remainder, certificate=certificate) == result
        assert result.remainder is remainder and result.certificate is certificate

    def test_certificate_is_required(self):
        with pytest.raises(TypeError):
            ReductionResult(Polynomial.zero(2))

    def test_repr(self):
        assert repr(normal_form(Polynomial.variable(2, 1))) == (
            "ReductionResult(remainder=Polynomial(2, -1*X^(0, 1)), "
            "certificate=[(Fraction(1, 1), (1, 0))])")

    def test_immutable(self):
        result = normal_form(Polynomial.variable(2, 1))
        with pytest.raises(AttributeError):
            result.remainder = Polynomial.zero(2)
        assert not hasattr(result, "__dict__")


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


class TestRemainderOnly:
    """is_member and coordinates drop the terms of degree >= n first."""

    @given(small_polynomials(past_n=2))
    def test_agrees_with_normal_form(self, p):
        remainder = normal_form(p).remainder
        assert is_member(p) == remainder.is_zero()
        assert coordinates(p) == dict(remainder.items())

    def test_builds_no_g_of_degree_n_or_more(self):
        basis = GBasis(9)
        assert basis.is_member(Polynomial.monomial(9, (2,) * 5 + (0,) * 4))
        assert not basis._memo


class TestAgainstSympyGroebner:
    """An independent Groebner basis of the ideal, from sympy."""

    @pytest.mark.parametrize("n,minimal", [(3, 4), (4, 9), (5, 23)])
    def test_remainders_and_leading_monomials(self, n, minimal, rng):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols(f"x1:{n + 1}")

        def to_sympy(p):
            return sum((sympy.Rational(c.numerator, c.denominator) * sympy.prod(
                x**e for x, e in zip(xs, exps)) for exps, c in p.items()), sympy.S.Zero)

        def terms(expr):
            return {exps: Fraction(int(c.p), int(c.q))
                    for exps, c in sympy.Poly(expr, *xs).terms() if c}

        # the ideal is generated in degrees <= n: all of degree n is transdiagonal
        generators = [to_sympy(monomial_qsym(alpha, n)) for d in range(1, n + 1)
                      for alpha in compositions_of(d) if len(alpha) <= n]
        basis = sympy.groebner(generators, *xs, order="grlex", domain="QQ")
        for _ in range(30):
            p = random_polynomial(rng, n, max_degree=n + 1)
            _, remainder = basis.reduce(to_sympy(p))
            assert terms(remainder) == dict(normal_form(p).remainder.items())
        leading = {sympy.Poly(g, *xs).monoms(order="grlex")[0] for g in basis.exprs}
        transdiagonal = enumerate_transdiagonal(n, n)
        lowest = {e for e in transdiagonal  # no transdiagonal proper divisor
                  if all(is_dyck(e[:i] + (e[i] - 1,) + e[i + 1:]) for i in range(n) if e[i])}
        assert leading == lowest and len(lowest) == minimal


class TestEnumerateTransdiagonal:
    def test_small(self):
        assert enumerate_transdiagonal(2, 2) == [(1, 0), (0, 2), (1, 1), (2, 0)]

    def test_one_variable(self):
        assert enumerate_transdiagonal(1, 3) == [(1,), (2,), (3,)]

    def test_long_vectors(self):
        assert enumerate_transdiagonal(1200, 1) == [(1,) + (0,) * 1199]

    def test_counts_complement_dyck(self):
        for n in range(1, 7):
            for d in range(1, n + 2):
                count = sum(1 for v in enumerate_transdiagonal(n, d) if sum(v) == d)
                assert count == comb(n + d - 1, d) - ballot(n, d)


class TestSharedBasis:
    @pytest.mark.usefixtures("fresh_caches")
    def test_one_basis_per_width(self):
        assert shared_basis(4) is shared_basis(4) is not shared_basis(5)
        with pytest.raises(ValueError):
            shared_basis(0)  # refused, so not kept
        assert shared_basis.cache_info().currsize == 2


INPUT_CHECKS = [
    (GBasis, (0,), "need n >= 1, got 0"),
    (GBasis(2).normal_form, (Polynomial(3),), "polynomial in 3 variables, basis has 2"),
    (enumerate_transdiagonal, (0, 1), "need n >= 1 and dmax >= 0, got n = 0, dmax = 1"),
    (enumerate_transdiagonal, (2, -1), "need n >= 1 and dmax >= 0, got n = 2, dmax = -1"),
]


@pytest.mark.parametrize("check, args, message", INPUT_CHECKS,
                         ids=["GBasis", "normal_form", "transdiagonal-n", "transdiagonal-dmax"])
def test_input_checks(check, args, message):
    with pytest.raises(ValueError) as info:
        check(*args)
    assert str(info.value) == message
