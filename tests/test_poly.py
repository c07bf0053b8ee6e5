from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import compositions, homogeneous_components, polynomials, vectors
from qsymq import combinat
from qsymq.combinat import ResourceLimitError
from qsymq.poly import Polynomial, diff_pairing, graded_lex_key
from qsymq.qsym import fundamental_qsym, monomial_qsym
from qsymq.quotient import GBasis, enumerate_transdiagonal


class TestGradedLex:
    def test_lex_chain_within_degree(self):
        assert graded_lex_key((3, 0)) > graded_lex_key((2, 1)) > graded_lex_key((1, 2)) \
            > graded_lex_key((0, 3))

    def test_degree_dominates(self):
        assert graded_lex_key((0, 1)) < graded_lex_key((2, 0))

    @given(vectors(n=4), vectors(n=4))
    def test_total_order(self, a, b):
        # keys of distinct vectors differ, so sorting by them is a total order
        assert (graded_lex_key(a) == graded_lex_key(b)) == (a == b)


class TestArithmetic:
    def test_cancellation(self):
        x1 = Polynomial.variable(3, 1)
        assert (x1 + (-1) * x1).is_zero()

    def test_monomial_product(self):
        x1 = Polynomial.variable(2, 1)
        assert x1 * x1 == Polynomial.monomial(2, (2, 0))

    def test_square_of_linear_form(self):
        total = Polynomial.zero(3)
        for i in range(1, 4):
            total = total + Polynomial.variable(3, i)
        square = total * total
        assert square.coefficient((2, 0, 0)) == 1
        assert square.coefficient((1, 1, 0)) == 2
        assert square.coefficient((0, 1, 1)) == 2
        assert len(square) == 6

    def test_mixed_variable_counts_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 1) + Polynomial.variable(3, 1)
        with pytest.raises(ValueError):
            Polynomial.variable(2, 1) * Polynomial.variable(3, 1)

    def test_product_counts_term_products(self, monkeypatch):
        p = Polynomial.variable(2, 1) + Polynomial.variable(2, 2) + Polynomial.constant(2, 1)
        q = Polynomial.variable(2, 1) - Polynomial.constant(2, 1)
        monkeypatch.setattr(combinat, "SIZE_CAP", 6)
        assert len(p * q) == 4  # x1^2 + x1*x2 - x2 - 1
        monkeypatch.setattr(combinat, "SIZE_CAP", 5)
        with pytest.raises(ResourceLimitError):
            p * q
        assert len(p * 2) == 3

    @given(polynomials(n=3), polynomials(n=3))
    def test_exact_round_trip(self, p, q):
        assert (p + q) - q == p

    @given(polynomials(n=3), polynomials(n=3), polynomials(n=3))
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @given(polynomials(n=3))
    def test_scaling(self, p):
        assert p * Fraction(1, 2) + p * Fraction(1, 2) == p
        assert (0 * p).is_zero()


class TestLeadingMonomial:
    def test_degree_dominates(self):
        p = Polynomial(2, {(0, 3): 1, (1, 1): 5})
        assert p.leading_monomial() == ((0, 3), 1)

    def test_constant(self):
        p = Polynomial.constant(3, Fraction(7, 2))
        assert p.leading_monomial() == ((0, 0, 0), Fraction(7, 2))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.zero(2).leading_monomial()

    @given(polynomials(n=3, max_terms=5), polynomials(n=3, max_terms=5))
    def test_multiplicative(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        ep, cp = p.leading_monomial()
        eq, cq = q.leading_monomial()
        exps, coeff = (p * q).leading_monomial()
        assert exps == tuple(a + b for a, b in zip(ep, eq))
        assert coeff == cp * cq


class TestCoefficients:
    def test_missing_is_zero(self):
        assert Polynomial.zero(2).coefficient((1, 1)) == 0

    def test_sorted_terms_descending(self):
        p = Polynomial(2, {(0, 1): 1, (2, 0): 1, (1, 0): 1})
        keys = [e for e, _ in p.sorted_terms()]
        assert keys == sorted(keys, key=graded_lex_key, reverse=True)

    def test_homogeneous_components(self):
        p = Polynomial(2, {(0, 1): 1, (2, 0): 3, (1, 1): -1})
        parts = homogeneous_components(p)
        assert set(parts) == {1, 2}
        assert parts[1] == Polynomial(2, {(0, 1): 1})
        total = Polynomial.zero(2)
        for part in parts.values():
            assert part.is_homogeneous()
            total = total + part
        assert total == p


class TestDiffPairing:
    def test_orthogonality(self):
        a = Polynomial.monomial(2, (1, 0))
        b = Polynomial.monomial(2, (0, 1))
        assert diff_pairing(a, b) == 0

    def test_factorial_weights(self):
        sq = Polynomial.monomial(1, (2,))
        assert diff_pairing(sq, sq) == 2
        cross = Polynomial.monomial(2, (1, 1))
        assert diff_pairing(cross, cross) == 1

    @given(polynomials(n=3), polynomials(n=3))
    def test_symmetry(self, p, q):
        assert diff_pairing(p, q) == diff_pairing(q, p)

    @given(vectors(n=3))
    def test_self_pairing_positive(self, nu):
        m = Polynomial.monomial(3, nu)
        assert diff_pairing(m, m) > 0


def assert_well_formed(p):
    """The form ``Polynomial(n, terms)`` gives: length-n tuple keys and
    nonzero ``Fraction`` coefficients."""
    for exps, coeff in p.items():
        assert type(exps) is tuple and len(exps) == p.n, exps
        assert type(coeff) is Fraction and coeff != 0, (exps, coeff)
    assert Polynomial(p.n, dict(p.items())) == p


class TestBoundary:
    """Input from outside goes through the validating constructor; what the
    library builds itself, unchecked, must look as if it had."""

    @pytest.mark.parametrize("key", [
        (1, 0),  # wrong length
        (1, 0, 0, 0),
        (1, -1, 0),  # negative exponent
        (1, 0.0, 0),  # exponents that are not ints
        (1, "0", 0),
        (Fraction(1), 0, 0),
        (True, 0, 0),  # bools are ints to isinstance, but not exponents
        (1, False, 0),
    ])
    def test_bad_keys_rejected(self, key):
        with pytest.raises(ValueError):
            Polynomial(3, {key: 1})

    @pytest.mark.parametrize("coeff", [0.1, 0.5, 2.0])
    def test_float_coefficients_rejected(self, coeff):
        # 0.1 would be stored as 3602879701896397/36028797018963968
        with pytest.raises(ValueError):
            Polynomial(2, {(1, 0): coeff})
        with pytest.raises(ValueError):
            Polynomial.constant(2, coeff)
        with pytest.raises(ValueError):
            Polynomial.variable(2, 1).scale(coeff)

    def test_exact_coefficients_accepted(self):
        p = Polynomial(2, {(1, 0): Fraction(1, 10), (0, 1): "1/10", (0, 0): 3})
        assert set(p.items()) == {((1, 0), Fraction(1, 10)), ((0, 1), Fraction(1, 10)),
                                  ((0, 0), Fraction(3))}

    @pytest.mark.parametrize("alpha", [(True,), (2, True), (False, 1)])
    def test_bool_composition_parts_rejected(self, alpha):
        for build in (monomial_qsym, fundamental_qsym):
            with pytest.raises(ValueError):
                build(alpha, 2)

    @given(polynomials(n=3), polynomials(n=3))
    def test_ring_operations(self, p, q):
        for r in (p + q, p - q, -p, p * q, p * Fraction(-2, 3), 0 * p, 3 * p):
            assert_well_formed(r)

    @given(compositions(), st.integers(1, 5))
    def test_quasisymmetric_bases(self, alpha, n):
        assert_well_formed(monomial_qsym(alpha, n))
        assert_well_formed(fundamental_qsym(alpha, n))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_g_elements(self, n):
        basis = GBasis(n)
        for eps in enumerate_transdiagonal(n, n + 1):
            assert_well_formed(basis.g(eps))

    @given(polynomials(n=4, max_degree=5))
    def test_remainder_and_certificate(self, p):
        result = GBasis(4).normal_form(p)
        assert_well_formed(result.remainder)
        assert all(type(c) is Fraction and c != 0 for c, _ in result.certificate)

    @given(polynomials(n=3))
    def test_integer_terms(self, p):
        scale, terms = p.integer_terms()
        assert all(type(c) is int and c != 0 for c in terms.values())
        assert Polynomial(p.n, {e: Fraction(c, scale) for e, c in terms.items()}) == p
        assert gcd(scale, *terms.values()) == 1  # no smaller scale would do
        assert terms == {e: int(c * scale) for e, c in p.items()}
