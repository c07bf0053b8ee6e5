from fractions import Fraction
from math import comb

import pytest
from hypothesis import given

from conftest import compositions, polynomials
from qsymq.combinat import complement_descent_word, compositions_of, refinements
from qsymq.poly import Polynomial
from qsymq.qsym import (
    embed_shifted,
    f_product,
    frel_decompose,
    fundamental_qsym,
    is_quasisymmetric,
    monomial_qsym,
    reverse_variables,
)

# the ten monomials of F_21 in four variables
F21_N4 = {
    (2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1),
    (0, 2, 1, 0), (0, 2, 0, 1), (0, 0, 2, 1),
    (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1),
}


class TestMonomialBasis:
    def test_single_part(self):
        assert monomial_qsym((1,), 3) == Polynomial(3, {
            (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})

    def test_empty_composition_is_one(self):
        for n in (1, 3, 5):
            assert monomial_qsym((), n) == Polynomial.constant(n, 1)

    def test_m21_in_four_variables(self):
        expected = {(2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1),
                    (0, 2, 1, 0), (0, 2, 0, 1), (0, 0, 2, 1)}
        m = monomial_qsym((2, 1), 4)
        assert set(m.support()) == expected
        assert all(c == 1 for _, c in m.items())

    def test_too_many_parts_vanishes(self):
        assert monomial_qsym((1, 1, 1), 2).is_zero()

    @given(compositions(max_size=6, min_size=1))
    def test_term_count(self, alpha):
        n = 5
        assert len(monomial_qsym(alpha, n)) == comb(n, len(alpha))


class TestFundamentalBasis:
    def test_f21_ten_monomials(self):
        f = fundamental_qsym((2, 1), 4)
        assert set(f.support()) == F21_N4
        assert all(c == 1 for _, c in f.items())

    def test_vanishing(self):
        assert fundamental_qsym((1, 1, 1), 2).is_zero()

    def test_finest_is_monomial(self):
        assert fundamental_qsym((1,), 4) == monomial_qsym((1,), 4)
        assert fundamental_qsym((1, 1), 3) == monomial_qsym((1, 1), 3)

    def test_coefficient_extraction(self):
        f = fundamental_qsym((2, 1), 3)
        assert f.coefficient((2, 1, 0)) == 1
        assert f.coefficient((1, 2, 0)) == 0

    def test_cache_is_transparent(self):
        # refinements with more than n parts are skipped, not summed as zero
        for n in range(1, 5):
            for d in range(8):
                for alpha in compositions_of(d):
                    full = Polynomial.zero(n)
                    for beta in refinements(alpha):
                        full = full + monomial_qsym(beta, n)
                    assert fundamental_qsym(alpha, n) == full, (alpha, n)

    def test_mobius_inversion(self):
        # M_alpha recovered from the fundamentals by signed inclusion-exclusion
        n = 8
        for d in range(7):
            for alpha in compositions_of(d):
                total = Polynomial.zero(n)
                for beta in refinements(alpha):
                    sign = (-1) ** (len(beta) - len(alpha))
                    total = total + sign * fundamental_qsym(beta, n)
                assert total == monomial_qsym(alpha, n)


class TestFProduct:
    def test_two_singletons(self):
        assert f_product((1,), (1,)) == [((1, 1), 1), ((2,), 1)]

    def test_unit(self):
        assert f_product((1,), ()) == [((1,), 1)]

    @given(compositions(max_size=4), compositions(max_size=4))
    def test_total_multiplicity(self, alpha, beta):
        total = sum(m for _, m in f_product(alpha, beta))
        assert total == comb(sum(alpha) + sum(beta), sum(beta))

    def test_agrees_with_expansion(self):
        for da in range(0, 4):
            for db in range(0, 4):
                if da + db == 0:
                    continue
                n = da + db
                for alpha in compositions_of(da):
                    for beta in compositions_of(db):
                        direct = fundamental_qsym(alpha, n) * fundamental_qsym(beta, n)
                        total = Polynomial.zero(n)
                        for gamma, mult in f_product(alpha, beta):
                            total = total + mult * fundamental_qsym(gamma, n)
                        assert total == direct, (alpha, beta)

    def test_word_choice_does_not_matter(self):
        for da in range(0, 4):
            for db in range(0, 4):
                for alpha in compositions_of(da):
                    for beta in compositions_of(db):
                        assert f_product(alpha, beta) == f_product(
                            alpha, beta, word_builder=complement_descent_word)


class TestQuasiSymmetry:
    def test_fundamental_and_monomial_are_quasisymmetric(self):
        for alpha in [(2, 1), (1, 1), (3,), ()]:
            assert is_quasisymmetric(monomial_qsym(alpha, 4))
            assert is_quasisymmetric(fundamental_qsym(alpha, 4))

    def test_single_variable_is_not(self):
        assert not is_quasisymmetric(Polynomial.variable(2, 1))

    def test_g_element_is_not(self):
        from qsymq.quotient import g_element
        assert not is_quasisymmetric(g_element((1, 0, 2, 0), 4))

    def test_wrong_coefficient_detected(self):
        p = monomial_qsym((2,), 3) + Polynomial.monomial(3, (0, 2, 0))
        assert not is_quasisymmetric(p)


class TestReverseVariables:
    def test_monomial(self):
        p = Polynomial.monomial(4, (2, 0, 1, 0))
        assert reverse_variables(p) == Polynomial.monomial(4, (0, 1, 0, 2))

    def test_fundamental_maps_to_reverse(self):
        for n in range(1, 6):
            for d in range(6):
                for alpha in compositions_of(d):
                    assert reverse_variables(fundamental_qsym(alpha, n)) == \
                        fundamental_qsym(alpha[::-1], n)

    @given(polynomials(n=4))
    def test_involution(self, p):
        assert reverse_variables(reverse_variables(p)) == p

    @given(polynomials(n=4), polynomials(n=4))
    def test_algebra_endomorphism(self, p, q):
        assert reverse_variables(p * q) == reverse_variables(p) * reverse_variables(q)


class TestFirstVariableSplit:
    def test_branch_with_large_first_part(self):
        a, b = frel_decompose((2, 1), 3)
        assert a == fundamental_qsym((1, 1), 3)
        assert b == embed_shifted(fundamental_qsym((2, 1), 2), 3)

    def test_branch_with_unit_first_part(self):
        a, b = frel_decompose((1, 2), 3)
        assert a == embed_shifted(fundamental_qsym((2,), 2), 3)

    def test_single_part_one(self):
        a, b = frel_decompose((1,), 2)
        assert a == Polynomial.constant(2, 1)
        assert b == Polynomial.monomial(2, (0, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            frel_decompose((), 3)

    def test_identity_exhaustive(self):
        for n in range(2, 7):
            x1 = Polynomial.variable(n, 1)
            for d in range(1, 6):
                for alpha in compositions_of(d):
                    a, b = frel_decompose(alpha, n)
                    assert x1 * a + b == fundamental_qsym(alpha, n), (alpha, n)
