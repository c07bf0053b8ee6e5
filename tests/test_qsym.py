from math import comb

import pytest
from hypothesis import given

from conftest import complement_descent_word, compositions, compositions_of, polynomials
from qsymq import combinat
from qsymq.combinat import ResourceLimitError, refinements
from qsymq.poly import Polynomial
from qsymq.combinat import zero_erasure
from qsymq.qsym import check_fundamental_size, f_product, fundamental_qsym, monomial_qsym

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
                    for beta in refinements(alpha, sum(alpha)):
                        full = full + monomial_qsym(beta, n)
                    assert fundamental_qsym(alpha, n) == full, (alpha, n)

    def test_mobius_inversion(self):
        # M_alpha recovered from the fundamentals by signed inclusion-exclusion
        n = 8
        for d in range(7):
            for alpha in compositions_of(d):
                total = Polynomial.zero(n)
                for beta in refinements(alpha, sum(alpha)):
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


class TestSizeCap:
    def test_fundamental_cap_counts_terms_exactly(self, monkeypatch):
        for n in range(1, 5):
            for d in range(7):
                for alpha in compositions_of(d):
                    size = len(fundamental_qsym(alpha, n))
                    with monkeypatch.context() as patch:
                        patch.setattr(combinat, "SIZE_CAP", size)
                        fundamental_qsym(alpha, n)
                        if size:
                            patch.setattr(combinat, "SIZE_CAP", size - 1)
                            with pytest.raises(ResourceLimitError):
                                fundamental_qsym(alpha, n)

    def test_fundamental_count_closed_form(self):
        # the sum that the closed form replaced: C(d - ell, r) refinements
        # with ell + r parts, of C(n, ell + r) terms each
        def summed(alpha, n):
            d, ell = sum(alpha), len(alpha)
            return sum(comb(d - ell, r) * comb(n, ell + r)
                       for r in range(min(d - ell, n - ell) + 1))

        for n in range(1, 11):
            for d in range(11):
                for alpha in compositions_of(d):
                    assert check_fundamental_size(alpha, n) == summed(alpha, n), (alpha, n)

    def test_monomial_cap_counts_terms_exactly(self, monkeypatch):
        for n in range(1, 6):
            for d in range(7):
                for alpha in compositions_of(d):
                    size = comb(n, len(alpha))
                    with monkeypatch.context() as patch:
                        patch.setattr(combinat, "SIZE_CAP", size)
                        assert len(monomial_qsym(alpha, n)) == size
                        if size:
                            patch.setattr(combinat, "SIZE_CAP", size - 1)
                            with pytest.raises(ResourceLimitError):
                                monomial_qsym(alpha, n)

    def test_shuffle_cap(self, monkeypatch):
        monkeypatch.setattr(combinat, "SIZE_CAP", comb(5, 2))
        assert sum(m for _, m in f_product((2, 1), (2,))) == comb(5, 2)
        with pytest.raises(ResourceLimitError):
            f_product((2, 1), (1, 2))


def is_quasisymmetric(p):
    """The coefficient of X^nu depends only on c(nu), over all nu in N^n."""
    classes = {}
    for exps, coeff in p.items():
        classes.setdefault(zero_erasure(exps), []).append(coeff)
    return all(len(set(cs)) == 1 and len(cs) == comb(p.n, len(alpha))
               for alpha, cs in classes.items())


def reverse(p):
    """The variable reversal x_i -> x_(n-i+1)."""
    return Polynomial(p.n, {e[::-1]: c for e, c in p.items()})


def shift(p):
    """p in x_1..x_m read as a polynomial in x_2..x_(m+1)."""
    return Polynomial(p.n + 1, {(0,) + e: c for e, c in p.items()})


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
        assert reverse(monomial_qsym((2, 1), 4)) == monomial_qsym((1, 2), 4)

    def test_fundamental_maps_to_reverse(self):
        for n in range(1, 6):
            for d in range(6):
                for alpha in compositions_of(d):
                    assert reverse(fundamental_qsym(alpha, n)) == fundamental_qsym(alpha[::-1], n)

    @given(polynomials(n=4), polynomials(n=4))
    def test_algebra_endomorphism(self, p, q):
        assert reverse(p * q) == reverse(p) * reverse(q)


class TestFirstVariableSplit:
    """F_alpha = x1 * A + B with B = F_alpha(x_2..x_n), and A = F_(alpha_1 - 1, ...)
    for alpha_1 > 1, else A = F_(alpha_2, ...)(x_2..x_n)."""

    def test_branch_with_large_first_part(self):
        x1 = Polynomial.variable(3, 1)
        assert fundamental_qsym((2, 1), 3) == \
            x1 * fundamental_qsym((1, 1), 3) + shift(fundamental_qsym((2, 1), 2))

    def test_branch_with_unit_first_part(self):
        x1 = Polynomial.variable(3, 1)
        assert fundamental_qsym((1, 2), 3) == \
            x1 * shift(fundamental_qsym((2,), 2)) + shift(fundamental_qsym((1, 2), 2))

    def test_single_part_one(self):
        x1 = Polynomial.variable(2, 1)  # A = F of the empty composition, 1
        assert fundamental_qsym((1,), 2) == \
            x1 * shift(fundamental_qsym((), 1)) + shift(fundamental_qsym((1,), 1))

    def test_identity_exhaustive(self):
        for n in range(2, 7):
            x1 = Polynomial.variable(n, 1)
            for d in range(1, 6):
                for alpha in compositions_of(d):
                    if alpha[0] > 1:
                        a = fundamental_qsym((alpha[0] - 1,) + alpha[1:], n)
                    else:
                        a = shift(fundamental_qsym(alpha[1:], n - 1))
                    b = shift(fundamental_qsym(alpha, n - 1))
                    assert x1 * a + b == fundamental_qsym(alpha, n), (alpha, n)
