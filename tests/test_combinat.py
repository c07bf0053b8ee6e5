import ast
import inspect
import math
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    complement_descent_word,
    compositions,
    compositions_of,
    reference_enumerate_dyck,
    reference_shuffles,
    reference_vectors_of_degree,
    vectors,
)
from qsymq import combinat
from qsymq.combinat import (
    ResourceLimitError,
    ballot,
    canonical_descent_word,
    catalan,
    composition_from_subset,
    descent_set,
    dn_k,
    enumerate_dyck,
    factor_count,
    is_dyck,
    path_statistics,
    refinements,
    shuffles,
    trailing_falls,
    vector_to_dyck_word,
    vectors_of_degree,
    word_descent_set,
    zero_erasure,
)


class TestSubsetBijection:
    def test_examples(self):
        assert composition_from_subset(set(), 3) == (3,)
        assert composition_from_subset({1, 2}, 3) == (1, 1, 1)
        assert composition_from_subset({2, 3, 5}, 7) == (2, 1, 2, 2)
        assert composition_from_subset(set(), 0) == ()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            composition_from_subset({3}, 3)
        with pytest.raises(ValueError):
            composition_from_subset({0}, 3)

    def test_descent_set_examples(self):
        assert descent_set((2, 1)) == {2}
        assert descent_set((3,)) == frozenset()
        assert descent_set((1, 1, 1)) == {1, 2}

    def test_round_trip_exhaustive(self):
        # both directions, and onto all compositions, for every d <= 12
        for d in range(13):
            seen = set()
            for r in range(max(d, 1)):
                for subset in combinations(range(1, d), r):
                    alpha = composition_from_subset(set(subset), d)
                    assert descent_set(alpha) == set(subset)
                    assert sum(alpha) == d
                    seen.add(alpha)
            assert len(seen) == (1 if d == 0 else 2 ** (d - 1))


class TestRefinement:
    def test_examples(self):
        assert (1, 1, 1) in refinements((2, 1), 3)
        assert (2, 1) in refinements((2, 1), 3)
        assert (2, 1) not in refinements((1, 2), 3)

    def test_refinements_examples(self):
        assert set(refinements((2, 1), 3)) == {(2, 1), (1, 1, 1)}
        assert refinements((1, 1), 2) == [(1, 1)]
        assert set(refinements((3,), 3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}
        assert refinements((3,), 2) == [(3,), (1, 2), (2, 1)]
        assert refinements((2, 1), 1) == []

    @given(compositions(max_size=7))
    def test_count_and_membership(self, alpha):
        refs = refinements(alpha, sum(alpha))
        assert len(refs) == 2 ** (sum(alpha) - len(alpha))
        assert len(set(refs)) == len(refs)
        assert all(sum(beta) == sum(alpha) and descent_set(alpha) <= descent_set(beta)
                   for beta in refs)

    def test_part_bound_keeps_a_prefix(self):
        for d in range(1, 8):
            for alpha in recursive_compositions(d):
                full = refinements(alpha, d)
                for n in range(1, d + 1):
                    bounded = refinements(alpha, n)
                    assert bounded == full[:len(bounded)], (alpha, n)
                    assert bounded == [beta for beta in full if len(beta) <= n], (alpha, n)

    def test_compositions_of_matches_recursion(self):
        for d in range(11):
            assert compositions_of(d) == recursive_compositions(d)


def recursive_compositions(d):
    """Compositions of d in ascending lex order: a first part, then any
    composition of the rest."""
    if d == 0:
        return [()]
    return [(first,) + rest for first in range(1, d + 1)
            for rest in recursive_compositions(d - first)]


class TestClassification:
    def test_known_examples(self):
        assert is_dyck((0, 0, 1, 2, 0, 1))
        assert not is_dyck((0, 3, 1, 1, 0, 2))
        assert is_dyck((0,) * 6)
        assert not is_dyck((1, 0))

    def test_predicates_partition_everything(self):
        # the two defining conditions are mutually exclusive and exhaustive
        for n in range(1, 9):
            for d in range(n + 2):
                for nu in combinat.vectors_of_degree(n, d):
                    sums = [sum(nu[:l]) for l in range(1, n + 1)]
                    dyck = all(s <= l - 1 for l, s in enumerate(sums, 1))
                    trans = any(s >= l for l, s in enumerate(sums, 1))
                    assert dyck != trans
                    assert is_dyck(nu) == dyck


class TestEnumeration:
    def test_small(self):
        assert enumerate_dyck(2) == [(0, 0), (0, 1)]
        assert len(enumerate_dyck(5)) == 42

    def test_degree_profile_n4(self):
        counts = [len(enumerate_dyck(4, k)) for k in range(4)]
        assert counts == [1, 3, 5, 5]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts_and_order(self, n):
        vecs = enumerate_dyck(n)
        assert len(vecs) == catalan(n)
        assert vecs == sorted(vecs, key=lambda v: (sum(v), v))
        assert all(sum(v) <= n - 1 for v in vecs)  # degree bound
        for k in range(n + 1):
            assert len(enumerate_dyck(n, k)) == ballot(n, k)

    def test_cap(self, monkeypatch):
        with pytest.raises(ResourceLimitError):
            enumerate_dyck(13)
        monkeypatch.setattr(combinat, "ENUMERATION_CAP", 13)
        assert len(enumerate_dyck(13, 0)) == 1


class TestFlatEnumerators:
    """The enumerators loop without recursion, and list exactly what the
    recursive references in conftest list, in the same order."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_vectors_of_degree(self, n):
        for d in range(10):
            assert list(vectors_of_degree(n, d)) == list(reference_vectors_of_degree(n, d))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_enumerate_dyck(self, n):
        for k in [None, *range(n + 2)]:
            assert enumerate_dyck(n, k) == reference_enumerate_dyck(n, k)

    def test_shuffles(self):
        for lu, lv in product(range(7), repeat=2):
            low = tuple(range(1, lu + 1))
            high = tuple(range(lu + 1, lu + lv + 1))
            assert shuffles(low, high) == reference_shuffles(low, high)
            assert shuffles(high, low) == reference_shuffles(high, low)

    def test_long_vectors(self):
        vecs = list(vectors_of_degree(3000, 1))
        assert len(vecs) == 3000
        assert vecs[0] == (0,) * 2999 + (1,) and vecs[-1] == (1,) + (0,) * 2999

    def test_no_recursion_or_nested_functions(self):
        for fn in ast.parse(inspect.getsource(combinat)).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                assert node is fn or not isinstance(node, (ast.FunctionDef, ast.Lambda)), fn.name
                assert not (isinstance(node, ast.Call)
                            and getattr(node.func, "id", None) == fn.name), fn.name


class TestCounting:
    def test_catalan(self):
        assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_ballot(self):
        assert ballot(6, 3) == 28
        assert ballot(3, 0) == 1
        assert ballot(4, 4) == 0
        assert ballot(4, 9) == 0

    def test_dn_k(self):
        assert dn_k(6, 2) == 42
        assert dn_k(1, 1) == 1
        assert dn_k(5, 3) == 9

    def test_dn_k_is_reflected_ballot(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                assert dn_k(n, k) == ballot(n, n - k)

    def test_catalan_row_sums(self):
        for n in range(1, 13):
            assert sum(ballot(n, k) for k in range(n)) == catalan(n)


class TestDyckWords:
    def test_examples(self):
        assert vector_to_dyck_word((0, 0)) == "UUDD"
        assert vector_to_dyck_word((0, 1)) == "UDUD"

    def test_rejects_transdiagonal(self):
        with pytest.raises(ValueError):
            vector_to_dyck_word((1, 0))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bijection_with_words(self, n):
        words = [vector_to_dyck_word(eta) for eta in enumerate_dyck(n)]
        assert len(set(words)) == len(words)
        assert set(words) == brute_force_dyck_words(n)
        for eta in enumerate_dyck(n):
            assert trailing_falls(vector_to_dyck_word(eta)) == n - sum(eta)

    def test_statistics_examples(self):
        assert path_statistics(3) == {1: (2, 2), 2: (2, 2), 3: (1, 1)}
        assert path_statistics(1) == {1: (1, 1)}

    @pytest.mark.parametrize("n", range(1, 11))
    def test_statistics_match_formula(self, n):
        stats = path_statistics(n)
        for k in range(1, n + 1):
            assert stats[k] == (dn_k(n, k), dn_k(n, k))
        assert sum(falls for falls, _ in stats.values()) == catalan(n)
        assert sum(factors for _, factors in stats.values()) == catalan(n)

    def test_factor_count(self):
        assert factor_count("UUDDUD") == 2
        assert factor_count("UDUDUD") == 3


def brute_force_dyck_words(n):
    """Every U/D word of length 2n whose height never drops below 0 and
    ends at 0."""
    out = set()
    for steps in product("UD", repeat=2 * n):
        heights = [0]
        for step in steps:
            heights.append(heights[-1] + (1 if step == "U" else -1))
        if min(heights) == 0 and heights[-1] == 0:
            out.add("".join(steps))
    return out


class TestDescentWords:
    def test_examples(self):
        assert canonical_descent_word((2, 1)) == (2, 3, 1)
        assert canonical_descent_word((5,)) == (1, 2, 3, 4, 5)
        assert canonical_descent_word((1, 2), offset=3) == (6, 4, 5)

    @pytest.mark.parametrize("builder",
                             [canonical_descent_word, complement_descent_word])
    def test_descents_exact(self, builder):
        for d in range(1, 7):
            for alpha in compositions_of(d):
                for offset in (0, 3):
                    word = builder(alpha, offset=offset)
                    assert sorted(word) == list(range(offset + 1, offset + d + 1))
                    assert word_descent_set(word) == descent_set(alpha)

    def test_schemes_differ(self):
        assert canonical_descent_word((2, 1)) != complement_descent_word((2, 1))


class TestShuffles:
    def test_examples(self):
        assert set(shuffles((1,), (2,))) == {(1, 2), (2, 1)}
        assert len(shuffles((1, 2), (3,))) == 3
        assert shuffles((), (1, 2)) == [(1, 2)]

    def test_disjointness_required(self):
        with pytest.raises(ValueError):
            shuffles((1, 2), (2, 3))

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_count_and_subwords(self, lu, lv):
        u = tuple(range(1, lu + 1))
        v = tuple(range(lu + 1, lu + lv + 1))
        words = shuffles(u, v)
        assert len(words) == len(set(words)) == math.comb(lu + lv, lv)
        for w in words:
            assert tuple(x for x in w if x in set(u)) == u
            assert tuple(x for x in w if x in set(v)) == v


class TestMisc:
    def test_zero_erasure(self):
        assert zero_erasure((0, 2, 0, 1)) == (2, 1)
        assert zero_erasure((0, 0)) == ()

    @given(vectors())
    def test_erasure_is_composition(self, nu):
        alpha = zero_erasure(nu)
        assert all(p >= 1 for p in alpha)
        assert sum(alpha) == sum(nu)
