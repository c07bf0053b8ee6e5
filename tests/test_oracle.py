from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from time import perf_counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import compositions_of, homogeneous_components
from qsymq import combinat, oracle
from qsymq.combinat import (
    ResourceLimitError,
    ballot,
    catalan,
    is_dyck,
    refinements,
    vectors_of_degree,
)
from qsymq.oracle import (
    IntegerRowSpace,
    _check_oracle_caps,
    _generator_rows,
    _slice,
    degree_columns,
    generating_function_check,
    hilbert_series,
    ideal_degree_rank,
    is_lyndon,
    quotient_dims,
    row_space_member,
    slice_generators,
)
from qsymq.poly import Polynomial, random_polynomial
from qsymq.qsym import fundamental_qsym, monomial_qsym
from qsymq.quotient import enumerate_transdiagonal, g_element, normal_form


def staircase_holds(n, d):
    """The exponent vectors at the pivot columns of the degree-d slice are
    exactly the transdiagonal ones: G is a Groebner basis, by elimination."""
    space, index = _slice(n, d)
    pivots = {exps for exps, col in index.items() if col in space.pivots}
    return pivots == {exps for exps in index if not is_dyck(exps)}


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


class ReferenceRowSpace:
    """The earlier elimination kernel, kept as a reference: it eliminates
    every pivot column of the row, tail included, strips the content of the
    working row after every step, and stores a row that met no pivot with
    its content."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots = {}

    def reduce(self, row):
        row = {col: x for col, x in row.items() if x}
        pivots = self.pivots
        todo = [col for col in row if col in pivots]
        heapify(todo)
        while todo:
            pcol = heappop(todo)
            x = row.get(pcol)
            if x is None:
                continue
            prow = pivots[pcol]
            lead = prow[pcol]
            if lead != 1:
                for col in row:
                    row[col] *= lead
            for col, b in prow.items():
                y = row.pop(col, 0)
                if not y and col in pivots:
                    heappush(todo, col)
                y -= x * b
                if y:
                    row[col] = y
            g = gcd(*row.values())
            if g > 1:
                row = {col: y // g for col, y in row.items()}
        return row

    def add(self, row):
        row = self.reduce(row)
        if row:
            col = min(row)
            if row[col] < 0:
                row = {c: -x for c, x in row.items()}
            self.pivots[col] = row


def same_row_space(space, reference) -> bool:
    """An ``IntegerRowSpace`` and a ``ReferenceRowSpace`` have the same rank
    and pivot columns, and each contains the other's rows."""
    return (space.rank == len(reference.pivots)
            and set(space.pivots) == set(reference.pivots)
            and all(map(space.contains, reference.pivots.values()))
            and not any(map(reference.reduce, space.pivots.values())))


def full_slice_generators(n: int, d: int):
    """The generator set before the Lyndon filter, kept as the reference:
    (mu, alpha) for every composition alpha with |alpha| <= d, sorted by
    (|alpha|, alpha, mu)."""
    out = []
    for a in range(1, d + 1):
        for alpha in sorted(refinements((a,), n)):
            for mu in vectors_of_degree(n, d - a):
                out.append((mu, alpha))
    return out


def lyndon_slice_generators(n: int, d: int):
    """The Lyndon rows without the x1 filter, kept as the reference: every
    X^mu * M_L with L Lyndon, sorted by (|L|, L, mu)."""
    return [(mu, alpha) for mu, alpha in full_slice_generators(n, d) if is_lyndon(alpha)]


def full_generator_rows(n, d, index):
    terms = {}
    for mu, alpha in full_slice_generators(n, d):
        if alpha not in terms:
            terms[alpha] = monomial_qsym(alpha, n).items()
        yield {index[tuple(a + b for a, b in zip(mu, exps))]: int(c) for exps, c in terms[alpha]}


def mobius(k: int) -> int:
    """The Moebius function, by trial division."""
    result, p = 1, 2
    while k > 1:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        p += 1
    return result


def generator_row(n, index, mu, alpha):
    """The row of X^mu * M_alpha, by polynomial multiplication."""
    product = Polynomial.monomial(n, mu) * monomial_qsym(alpha, n)
    return {index[exps]: int(coeff) for exps, coeff in product.items()}


@st.composite
def matrices(draw):
    """(ncols, rows): up to 10 integer rows of a common width up to 8."""
    ncols = draw(st.integers(1, 8))
    row = st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)
    return ncols, draw(st.lists(row, max_size=10))


class TestRank:
    @given(matrices())
    def test_fraction_free_matches_rational(self, matrix):
        ncols, rows = matrix
        sparse = [dict(enumerate(row)) for row in rows]
        assert (IntegerRowSpace(ncols).add_until_full(sparse).rank
                == rational_rank(rows, ncols))

    @given(matrices(), st.lists(st.integers(-3, 3), min_size=10, max_size=10),
           st.lists(st.integers(-1, 1), min_size=8, max_size=8))
    def test_contains_matches_rational(self, matrix, coeffs, noise):
        # a combination of the rows, sometimes pushed off the span by noise
        ncols, rows = matrix
        probe = [sum(c * row[j] for c, row in zip(coeffs, rows)) + noise[j]
                 for j in range(ncols)]
        space = IntegerRowSpace(ncols)
        for row in rows:
            space.add(dict(enumerate(row)))
        inside = rational_rank(rows + [probe], ncols) == rational_rank(rows, ncols)
        assert space.contains(dict(enumerate(probe))) == inside
        for col, prow in space.pivots.items():
            assert min(prow) == col and prow[col] > 0 and 0 not in prow.values()
            assert gcd(*prow.values()) == 1

    @given(matrices(), st.lists(st.integers(-4, 4), min_size=8, max_size=8))
    def test_matches_reference_kernel(self, matrix, probe):
        ncols, rows = matrix
        space, reference = IntegerRowSpace(ncols), ReferenceRowSpace(ncols)
        for row in rows:
            space.add(dict(enumerate(row)))
            reference.add(dict(enumerate(row)))
        probe = dict(enumerate(probe[:ncols]))
        assert space.contains(probe) == (not reference.reduce(probe))
        # the stored rows differ (no tail reduction), the row space does not
        assert same_row_space(space, reference)

    def test_pivot_rows_are_primitive(self):
        space = IntegerRowSpace(3)
        space.add({0: 2, 1: 4})
        assert space.pivots == {0: {0: 1, 1: 2}}
        space = IntegerRowSpace(3)
        space.add({0: -3, 2: 6})
        assert space.pivots == {0: {0: 1, 2: -2}}
        # a step with lead 1 that leaves content
        space = IntegerRowSpace(3)
        space.add({0: 1, 1: 1})
        space.add({0: 1, 1: 3, 2: 2})
        assert space.pivots == {0: {0: 1, 1: 1}, 1: {1: 1, 2: 1}}

    def test_reduce_stops_at_a_non_pivot_lead(self):
        space = IntegerRowSpace(3)
        space.add({1: 1, 2: 1})
        # column 0 is no pivot, so the pivot column 1 in the tail stays
        assert space.reduce({0: 1, 1: 1}) == {0: 1, 1: 1}
        assert space.reduce({1: 2, 2: 1}) == {2: -1}

    def test_contains(self):
        space = IntegerRowSpace(3)
        space.add(dict(enumerate([1, 1, 0])))
        space.add(dict(enumerate([0, 1, 1])))
        assert space.contains(dict(enumerate([1, 2, 1])))
        assert space.contains(dict(enumerate([2, 2, 0])))
        assert not space.contains(dict(enumerate([1, 0, 1])))
        assert not space.contains(dict(enumerate([0, 0, 1])))

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            IntegerRowSpace(3).add({3: 1})
        with pytest.raises(ValueError):
            IntegerRowSpace(3).add({-1: 1})


class TestDegreeSlices:
    def test_rank_examples(self):
        assert ideal_degree_rank(2, 0) == 0
        assert ideal_degree_rank(2, 1) == 1
        assert ideal_degree_rank(2, 2) == 3
        assert ideal_degree_rank(3, 2) == 4

    def test_quotient_dims_rows(self):
        assert quotient_dims(2, 3) == [1, 1, 0, 0]
        assert quotient_dims(3, 4) == [1, 2, 2, 0, 0]

    def test_caps(self):
        with pytest.raises(ResourceLimitError):
            ideal_degree_rank(9, 1)
        with pytest.raises(ResourceLimitError):
            ideal_degree_rank(3, 5)

    @pytest.mark.usefixtures("fresh_caches")
    def test_slice_memo(self):
        assert _slice(3, 2) is _slice(3, 2)
        for _ in range(2):  # a refused slice raises on every call and is not kept
            with pytest.raises(ResourceLimitError):
                _slice(9, 1)
        assert _slice.cache_info().currsize == 1

    @pytest.mark.parametrize("check", [ideal_degree_rank, quotient_dims, _slice])
    def test_input_checks(self, check):
        with pytest.raises(ValueError) as info:
            check(0, 0)
        assert str(info.value) == "need n >= 1, got 0"

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
                            space.add({index[tuple(x + y for x, y in zip(mu, exps))]:
                                       int(coeff) for exps, coeff in f.items()})
                assert space.rank == ideal_degree_rank(n, d), (n, d)

    def test_generator_rows_match_products(self):
        for n in range(1, 6):
            for d in range(n + 1):
                index = {e: i for i, e in enumerate(degree_columns(n, d))}
                expected = [generator_row(n, index, mu, alpha)
                            for mu, alpha in slice_generators(n, d)]
                assert list(_generator_rows(n, d, index)) == expected, (n, d)

    @pytest.mark.parametrize("n, dmax", [(n, n + 1) for n in range(1, 7)] + [(7, 6)])
    def test_pivots_match_reference_kernel(self, n, dmax):
        # the reference kernel on every Lyndon row checks both the dropped
        # rows and the kernel's leading-term-only reduction
        for d in range(dmax + 1):
            space, index = _slice(n, d)
            reference = ReferenceRowSpace(len(index))
            for mu, alpha in lyndon_slice_generators(n, d):
                if len(reference.pivots) == len(index):
                    break
                reference.add(generator_row(n, index, mu, alpha))
            assert same_row_space(space, reference), (n, d)

    def test_column_bound(self):
        # every n <= 7 slice passes, and every slice the CLI asks for at n = 8
        for n in range(1, 8):
            for d in range(n + 2):
                _check_oracle_caps(n, d)
        for d in range(8):
            _check_oracle_caps(8, d)
        for call in (lambda: quotient_dims(8, 8), lambda: quotient_dims(8, 9),
                     lambda: ideal_degree_rank(8, 8), lambda: ideal_degree_rank(8, 9)):
            start = perf_counter()
            with pytest.raises(ResourceLimitError, match="capped at 3432 columns"):
                call()
            assert perf_counter() - start < 1.0


class TestLyndonGenerators:
    """The slices are eliminated over the X^mu * M_L with L Lyndon only, and
    mu_1 = 0 unless L = (1); the full generator set is the reference."""

    COMPOSITIONS = {m: sorted(refinements((m,), m)) for m in range(1, 13)}

    def test_matches_rotation_definition(self):
        for alphas in self.COMPOSITIONS.values():
            for alpha in alphas:
                rotations = [alpha[i:] + alpha[:i] for i in range(1, len(alpha))]
                assert is_lyndon(alpha) == all(alpha < r for r in rotations), alpha

    def test_counts_match_necklace_formula(self):
        counts = [sum(map(is_lyndon, self.COMPOSITIONS[m])) for m in range(1, 13)]
        necklace = [sum(mobius(k) * (2 ** (m // k) - 1) for k in range(1, m + 1)
                        if m % k == 0) // m for m in range(1, 13)]
        assert counts == necklace == [1, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335]

    def test_freeness_count(self):
        # prod over Lyndon L of 1 / (1 - t^|L|) counts the monomials in the
        # M_L of each degree; QSym is free on them, so it counts compositions
        series = [1] + [0] * 12
        for m, alphas in self.COMPOSITIONS.items():
            for _ in filter(is_lyndon, alphas):
                for j in range(m, 13):
                    series[j] += series[j - m]
        assert series[1:] == [2 ** (m - 1) for m in range(1, 13)]

    def test_rows_are_the_x1_free_lyndon_subset_in_order(self):
        for n in range(1, 6):
            for d in range(n + 2):
                assert slice_generators(n, d) == [
                    (mu, alpha) for mu, alpha in full_slice_generators(n, d)
                    if is_lyndon(alpha) and (alpha == (1,) or mu[0] == 0)], (n, d)

    def test_row_count(self):
        # 808 of the 975 Lyndon rows at (7, 6), whose rank is 792
        assert len(lyndon_slice_generators(7, 6)) == 975
        assert len(slice_generators(7, 6)) == 808

    @pytest.mark.parametrize("n, dmax", [(n, n + 1) for n in range(1, 7)] + [(7, 7)])
    def test_pivots_match_full_generator_set(self, n, dmax):
        for d in range(dmax + 1):
            space, index = _slice(n, d)
            full = IntegerRowSpace(len(index)).add_until_full(full_generator_rows(n, d, index))
            assert set(space.pivots) == set(full.pivots), (n, d)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_spans_equal_full_generator_set(self, n):
        for d in range(n + 2):
            space, index = _slice(n, d)
            for row in full_generator_rows(n, d, index):
                assert space.contains(row), (n, d)

    @pytest.mark.usefixtures("fresh_caches")
    def test_dropping_a_lyndon_generator_is_caught(self, monkeypatch):
        lyndon = oracle.slice_generators
        monkeypatch.setattr(oracle, "slice_generators", lambda n, d: [
            (mu, alpha) for mu, alpha in lyndon(n, d) if alpha != (1, 2)])
        assert quotient_dims(3, 4) != [1, 2, 2, 0, 0]
        assert hilbert_series(4, "oracle") != hilbert_series(4, "formula")
        assert not staircase_holds(4, 3)

    @pytest.mark.usefixtures("fresh_caches")
    def test_dropping_x1_multiples_of_m1_is_caught(self, monkeypatch):
        rows = oracle.slice_generators
        monkeypatch.setattr(oracle, "slice_generators", lambda n, d: [
            (mu, alpha) for mu, alpha in rows(n, d) if not mu[0]])
        assert quotient_dims(3, 4) != [1, 2, 2, 0, 0]
        assert hilbert_series(4, "oracle") != hilbert_series(4, "formula")
        assert not staircase_holds(4, 2)


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

    def test_input_minus_remainder(self, rng):
        for _ in range(60):
            n = rng.randint(1, 6)
            p = random_polynomial(rng, n, max_degree=n + 1)
            reduced = p - normal_form(p).remainder
            for part in homogeneous_components(reduced).values():
                assert row_space_member(part), p


class TestHilbertSeries:
    @pytest.mark.parametrize("n", sorted(HILBERT_TABLE))
    def test_formula_matches_table(self, n):
        assert hilbert_series(n, "formula").coefficients == HILBERT_TABLE[n]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_enumeration_agrees(self, n):
        assert hilbert_series(n, "enum") == hilbert_series(n, "formula")

    @pytest.mark.parametrize("n", range(1, 8))
    def test_oracle_agrees(self, n):
        assert hilbert_series(n, "oracle") == hilbert_series(n, "formula")

    def test_oracle_agrees_at_8(self):
        expected = tuple(ballot(8, k) for k in range(8))
        assert hilbert_series(8, "oracle").coefficients == expected
        assert all(staircase_holds(8, d) for d in range(8))

    @pytest.mark.slow
    def test_oracle_agrees_at_9_below_degree_8(self, monkeypatch):
        monkeypatch.setattr(combinat, "ORACLE_CAP", 9)
        assert quotient_dims(9, 7) == [ballot(9, k) for k in range(8)]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_staircase(self, n):
        assert all(staircase_holds(n, d) for d in range(min(n, 6) + 1))

    def test_totals_are_catalan(self):
        for n in range(1, 11):
            assert hilbert_series(n, "formula").total() == catalan(n)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            hilbert_series(3, "guesswork")

    def test_text_form(self):
        assert str(hilbert_series(6, "formula")) == "1 5 14 28 42 42"

    def test_repr(self):
        assert repr(hilbert_series(3)) == "HilbertSeries(n=3, coefficients=(1, 2, 2))"

    def test_equal_series_hash_equal(self):
        formula, enum = hilbert_series(5, "formula"), hilbert_series(5, "enum")
        assert formula == enum and hash(formula) == hash(enum)
        assert len({formula, enum, hilbert_series(4)}) == 2

    def test_immutable(self):
        series = hilbert_series(3)
        with pytest.raises(AttributeError):
            series.n = 4
        assert not hasattr(series, "__dict__")
        assert series.n == 3


class TestGeneratingFunction:
    def test_corrected_form_holds(self):
        assert generating_function_check(1)
        assert generating_function_check(7)

    def test_printed_form_fails(self):
        assert not generating_function_check(2, as_printed=True)

    def test_order_cap(self):
        with pytest.raises(ResourceLimitError, match="capped at n <= 12"):
            generating_function_check(13)
