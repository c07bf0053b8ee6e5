"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is exact
arithmetic, so every comparison is equality; the stated runtime budgets are
asserted with ``time.perf_counter``.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

import pytest

from conftest import random_vector
from qsymq import cli, oracle, quotient
from qsymq.combinat import (
    ballot,
    catalan,
    complement_descent_word,
    compositions_of,
    dn_k,
    enumerate_dyck,
    is_dyck,
    path_statistics,
)
from qsymq.poly import Polynomial, random_polynomial
from qsymq.qsym import f_product, fundamental_qsym
from qsymq.quotient import enumerate_transdiagonal, shared_basis

HILBERT_TABLE = {
    1: [1],
    2: [1, 1],
    3: [1, 2, 2],
    4: [1, 3, 5, 5],
    5: [1, 4, 9, 14, 14],
    6: [1, 5, 14, 28, 42, 42],
    7: [1, 6, 20, 48, 90, 132, 132],
}

F21_N4 = {
    (2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1),
    (0, 2, 1, 0), (0, 2, 0, 1), (0, 0, 2, 1),
    (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1),
}

G1020_TERMS = {
    (1, 0, 2, 0): 1, (1, 0, 1, 1): 1, (1, 0, 0, 2): 1,
    (0, 2, 1, 0): -1, (0, 2, 0, 1): -1,
    (0, 1, 2, 0): 1, (0, 1, 0, 2): 1, (0, 0, 1, 2): 1,
}


def report(number, label, ok, elapsed=None):
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[criterion {number:>2}] {label}: {'PASS' if ok else 'FAIL'}{timing}")
    assert ok, f"criterion {number}: {label}"


def test_01_hilbert_table_via_cli(capsys):
    start = time.perf_counter()
    rows = {}
    for n in HILBERT_TABLE:
        assert cli.main(["hilbert", "-n", str(n), "--method", "enum"]) == 0
        rows[n] = [int(c) for c in capsys.readouterr().out.split()]
    elapsed = time.perf_counter() - start
    ok = rows == HILBERT_TABLE and elapsed < 1.0
    with capsys.disabled():
        report(1, "Hilbert table N=1..7 by enumeration", ok, elapsed)


def test_02_catalan_dimensions():
    start = time.perf_counter()
    counts = {n: len(enumerate_dyck(n)) for n in range(1, 13)}
    elapsed = time.perf_counter() - start
    ok = (all(counts[n] == catalan(n) for n in counts)
          and counts[12] == 208012 and elapsed < 10.0)
    report(2, "basis size = C_n for n <= 12 (C_12 = 208012)", ok, elapsed)


def test_03_oracle_agreement():
    start = time.perf_counter()
    ok = True
    for n in range(1, 6):
        expected = [ballot(n, k) for k in range(n)] + [0, 0]
        ok = ok and oracle.quotient_dims(n, n + 1) == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(3, "exact elimination matches ballot dims, n <= 5", ok, elapsed)


@pytest.mark.slow
def test_03_oracle_agreement_long():
    expected = [ballot(6, k) for k in range(6)] + [0, 0]
    ok = oracle.quotient_dims(6, 7) == expected
    report(3, "exact elimination matches ballot dims, n = 6 (long)", ok)


def test_04_leading_monomials():
    start = time.perf_counter()
    ok = True
    cases = 0
    for n in range(1, 7):
        basis = shared_basis(n)
        indices = enumerate_transdiagonal(n, n)
        if n == 6:
            ok = ok and len(indices) == 792
        for eps in indices:
            cases += 1
            ok = ok and basis.g(eps).leading_monomial() == (eps, 1)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(4, f"LM(G_eps) = X^eps over {cases} indices, n <= 6", ok, elapsed)


def test_05_worked_examples():
    f21 = fundamental_qsym((2, 1), 4)
    ok_a = (set(f21.support()) == F21_N4
            and all(c == 1 for _, c in f21.items()))

    ok_b = quotient.g_element((1, 0, 2, 0), 4) == Polynomial(4, G1020_TERMS)

    basis = shared_basis(5)
    lhs = (Polynomial.variable(5, 1) * Polynomial.variable(5, 3)
           * fundamental_qsym((2, 1), 5))
    rhs = (basis.g((3, 1, 1, 0, 0)) - basis.g((3, 1, 0, 1, 0))
           - basis.g((0, 3, 2, 0, 0)) + basis.g((0, 3, 0, 2, 0)))
    ok_c = lhs == rhs

    report(5, "worked expansions: F_21, G_1020, x1*x3*F_21", ok_a and ok_b and ok_c)


def test_06_certificate_soundness():
    rng = random.Random(0xC6)
    ok = True
    polys = []
    for _ in range(200):
        n = rng.randint(1, 5)
        basis = shared_basis(n)
        p = random_polynomial(rng, n, max_degree=6)
        polys.append(p)
        result = basis.normal_form(p)
        rebuilt = result.remainder
        for coeff, eps in result.certificate:
            rebuilt = rebuilt + basis.g(eps) * coeff
        ok = ok and rebuilt == p
        ok = ok and all(is_dyck(e) for e in result.remainder.support())
        again = basis.normal_form(result.remainder)
        ok = ok and again.remainder == result.remainder and not again.certificate
    # linearity on sampled same-width pairs
    pairs = 0
    by_n = {}
    for p in polys:
        if p.n in by_n:
            q = by_n.pop(p.n)
            a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(1, 5), 3)
            basis = shared_basis(p.n)
            left = basis.normal_form(a * p + b * q).remainder
            right = basis.normal_form(p).remainder * a + basis.normal_form(q).remainder * b
            ok = ok and left == right
            pairs += 1
        else:
            by_n[p.n] = p
    report(6, f"200 certificates exact + idempotent, {pairs} linearity pairs", ok)


def test_07_ideal_annihilation():
    rng = random.Random(0xC7)
    ok = True
    cross_checked = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        alpha = rng.choice([a for a in compositions_of(rng.randint(1, n))])
        basis = shared_basis(n)
        q = random_polynomial(rng, n, max_degree=3, max_terms=4)
        product = q * fundamental_qsym(alpha, n)
        ok = ok and basis.normal_form(product).remainder.is_zero()
        if n <= 4:
            # homogeneous slice of the same product, cross-checked by rank
            mu = random_vector(rng, n, rng.randint(0, max(0, n + 1 - sum(alpha))))
            homogeneous = Polynomial.monomial(n, mu) * fundamental_qsym(alpha, n)
            if homogeneous.degree() <= n + 1:
                ok = ok and oracle.row_space_member(homogeneous)
                cross_checked += 1
    report(7, f"100 products Q*F_alpha reduce to 0, {cross_checked} rank checks", ok)


def test_08_shuffle_product_law():
    ok = True
    for total in range(1, 7):
        n = total
        for da in range(total + 1):
            for alpha in compositions_of(da):
                for beta in compositions_of(total - da):
                    expansion = f_product(alpha, beta)
                    ok = ok and expansion == f_product(
                        alpha, beta, word_builder=complement_descent_word)
                    direct = fundamental_qsym(alpha, n) * fundamental_qsym(beta, n)
                    recombined = Polynomial.zero(n)
                    for gamma, mult in expansion:
                        recombined = recombined + mult * fundamental_qsym(gamma, n)
                    ok = ok and recombined == direct
    report(8, "shuffle expansion = direct product, |alpha|+|beta| <= 6", ok)


def test_09_path_statistics():
    ok = True
    for n in range(1, 9):
        stats = path_statistics(n)
        for k in range(1, n + 1):
            expected = dn_k(n, k)
            ok = ok and stats[k] == (expected, expected)
        series = oracle.hilbert_series(n, "formula").coefficients
        ok = ok and all(series[k] == dn_k(n, n - k) for k in range(n))
    report(9, "trailing-fall and factor counts match the closed form, n <= 8", ok)


def test_10_generating_function():
    ok_corrected = oracle.generating_function_check(10)
    ok_printed_fails = not oracle.generating_function_check(2, as_printed=True)
    report(10, "corrected identity holds mod x^11; printed -2t form fails",
           ok_corrected and ok_printed_fails)


def test_11_parser_and_exit_codes(capsys):
    rng = random.Random(0xC11)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 6)
        p = random_polynomial(rng, n, max_degree=6)
        ok = ok and cli.parse_polynomial(cli.render_polynomial(p), n) == p

    matrix = [
        (["hilbert", "-n", "6"], 0),
        (["basis", "-n", "3", "--json"], 0),
        (["verify", "-n", "2"], 0),
        (["hilbert"], 1),
        (["no-such-command"], 1),
        (["hilbert", "-n", "40"], 1),
        (["reduce", "-n", "2", "--expr", "x1 +"], 2),
        (["reduce", "-n", "2", "--expr", "x9"], 2),
        (["member", "-n", "2", "--expr", "x1"], 3),
        (["member", "-n", "2", "--expr", "x1 + x2"], 0),
        (["gf-check", "--order", "2", "--as-printed"], 3),
    ]
    for argv, expected in matrix:
        code = cli.main(argv)
        capsys.readouterr()
        ok = ok and code == expected

    # the JSON route carries the same polynomial as the text route
    assert cli.main(["reduce", "-n", "3", "--expr", "x1*x2 - 2/3", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    direct = quotient.normal_form(cli.parse_polynomial("x1*x2 - 2/3", 3))
    ok = ok and cli.polynomial_from_record(record) == direct.remainder

    with capsys.disabled():
        report(11, "500 render/parse round-trips + exit-code contract", ok)
