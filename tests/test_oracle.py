from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsymq.combinat import ResourceLimitError, catalan, compositions_of, vectors_of_degree
from qsymq.oracle import (
    IntegerRowSpace,
    degree_columns,
    fraction_free_rank,
    generating_function_check,
    hilbert_series,
    ideal_degree_rank,
    quotient_dims,
    rank_report,
    row_space_member,
)
from qsymq.poly import Polynomial
from qsymq.qsym import fundamental_qsym, monomial_qsym
from qsymq.quotient import enumerate_transdiagonal, g_element

HILBERT_TABLE = {
    1: (1,),
    2: (1, 1),
    3: (1, 2, 2),
    4: (1, 3, 5, 5),
    5: (1, 4, 9, 14, 14),
    6: (1, 5, 14, 28, 42, 42),
    7: (1, 6, 20, 48, 90, 132, 132),
}


def rational_rank(rows, ncols: int) -> int:
    """Plain Gaussian elimination over Fraction; cross-check for the
    fraction-free route."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col] / lead
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == min(len(mat), ncols):
            break
    return rank


class TestRank:
    @given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                    min_size=0, max_size=6))
    def test_fraction_free_matches_rational(self, rows):
        assert fraction_free_rank(rows, 4) == rational_rank(rows, 4)

    def test_contains(self):
        space = IntegerRowSpace(3)
        space.add([1, 1, 0])
        space.add([0, 1, 1])
        assert space.contains([1, 2, 1])
        assert space.contains([2, 2, 0])
        assert not space.contains([1, 0, 1])
        assert not space.contains([0, 0, 1])

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            IntegerRowSpace(3).add([1, 2])


class TestDegreeSlices:
    def test_rank_examples(self):
        assert ideal_degree_rank(2, 0) == 0
        assert ideal_degree_rank(2, 1) == 1
        assert ideal_degree_rank(2, 2) == 3
        assert ideal_degree_rank(3, 2) == 4

    def test_quotient_dims_rows(self):
        assert quotient_dims(2, 3) == [1, 1, 0, 0]
        assert quotient_dims(3, 4) == [1, 2, 2, 0, 0]

    def test_caps(self, monkeypatch):
        monkeypatch.delenv("QSYMQ_MAX_N", raising=False)
        with pytest.raises(ResourceLimitError):
            ideal_degree_rank(7, 1)
        with pytest.raises(ResourceLimitError):
            ideal_degree_rank(3, 5)

    def test_fundamental_generators_span_the_same_slice(self):
        # monomial multiples of F generate the same degree slice as those of M
        for n in range(1, 4):
            for d in range(n + 2):
                columns = degree_columns(n, d)
                index = {e: i for i, e in enumerate(columns)}
                space = IntegerRowSpace(len(columns))
                for a in range(1, d + 1):
                    for alpha in compositions_of(a):
                        if len(alpha) > n:
                            continue
                        f = fundamental_qsym(alpha, n)
                        for mu in vectors_of_degree(n, d - a):
                            row = [0] * len(columns)
                            for exps, coeff in f.items():
                                key = tuple(x + y for x, y in zip(mu, exps))
                                row[index[key]] = int(coeff)
                            space.add(row)
                assert space.rank == ideal_degree_rank(n, d), (n, d)

    def test_rank_report_mentions_dimension(self):
        text = rank_report(3, 2)
        assert "rank" in text and "quotient dimension:  2" in text


class TestRowSpaceMembership:
    def test_g_elements_inside(self):
        for n in range(2, 5):
            for eps in enumerate_transdiagonal(n, n):
                assert row_space_member(g_element(eps, n)), eps

    def test_dyck_monomials_outside(self):
        # Dyck cosets are nonzero: no Dyck monomial lies in the ideal slice
        from qsymq.combinat import enumerate_dyck
        for n in range(1, 5):
            for eta in enumerate_dyck(n):
                assert not row_space_member(Polynomial.monomial(n, eta)), eta
        assert not row_space_member(Polynomial.constant(3, 1))

    def test_generators_inside(self):
        for alpha in [(1,), (2,), (1, 1)]:
            assert row_space_member(monomial_qsym(alpha, 3))

    def test_needs_homogeneous(self):
        mixed = Polynomial(2, {(1, 0): 1, (2, 0): 1})
        with pytest.raises(ValueError):
            row_space_member(mixed)

    def test_zero_is_member(self):
        assert row_space_member(Polynomial.zero(3))


class TestHilbertSeries:
    @pytest.mark.parametrize("n", sorted(HILBERT_TABLE))
    def test_formula_matches_table(self, n):
        assert hilbert_series(n, "formula").coefficients == HILBERT_TABLE[n]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_enumeration_agrees(self, n):
        assert hilbert_series(n, "enum") == hilbert_series(n, "formula")

    @pytest.mark.parametrize("n", range(1, 5))
    def test_oracle_agrees(self, n):
        assert hilbert_series(n, "oracle") == hilbert_series(n, "formula")

    def test_totals_are_catalan(self):
        for n in range(1, 11):
            assert hilbert_series(n, "formula").total() == catalan(n)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            hilbert_series(3, "guesswork")

    def test_text_form(self):
        assert str(hilbert_series(6, "formula")) == "1 5 14 28 42 42"


class TestGeneratingFunction:
    def test_corrected_form_holds(self):
        assert generating_function_check(1)
        assert generating_function_check(7)

    def test_printed_form_fails(self):
        assert not generating_function_check(2, as_printed=True)

    def test_order_cap(self, monkeypatch):
        monkeypatch.delenv("QSYMQ_MAX_N", raising=False)
        with pytest.raises(ResourceLimitError):
            generating_function_check(13)
