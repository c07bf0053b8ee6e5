"""Seeded request streams for the three workloads.

A stream is a sequence of rounds.  Each round has the same mix of request
classes in fixed proportions; the seed only picks the concrete polynomials,
vectors and compositions and the order inside the round.  So runs with
different seeds differ in their inputs but not in the share of each class,
which keeps medians and tail percentiles comparable across seeds.  Why each
workload and class was chosen is in NOTES.md.
"""

import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

from reference import (
    is_dyck_vector,
    monomial_qsym_terms,
    multiply,
    add_into,
    expression_text,
    vectors_of_degree,
)

WARM_N = 7


@dataclass
class Request:
    """One request.  ``terms`` is the input polynomial where there is one;
    ``expect`` is the answer its construction fixes, if any."""

    kind: str
    n: int
    argv: list | None = None
    terms: dict | None = None
    expect: object = None
    exit_code: int = 0


# ---------------------------------------------------------------------------
# random inputs


def random_coeff(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def random_vector(rng, n, degree):
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def sparse_polynomial(rng, n, max_degree, max_terms=8):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[random_vector(rng, n, rng.randint(0, max_degree))] = random_coeff(rng)
    return terms


@lru_cache(maxsize=None)
def monomial_strata(n, degree):
    """The exponent vectors of one degree in four strata whose reduction
    costs differ: already reduced (Dyck), then not Dyck with nu_1 = 0, 1
    and at least 2.  Within a stratum costs are much closer than between."""
    strata = ([], [], [], [])
    for nu in vectors_of_degree(n, degree):
        strata[0 if is_dyck_vector(nu) else 1 + min(nu[0], 2)].append(nu)
    return strata


def apportion(sizes, total):
    """``total`` split in proportion to ``sizes`` (largest remainders)."""
    shares = [total * size / sum(sizes) for size in sizes]
    counts = [int(share) for share in shares]
    for i in sorted(range(len(sizes)), key=lambda i: counts[i] - shares[i])[:total - sum(counts)]:
        counts[i] += 1
    return counts


def homogeneous_polynomial(rng, n, degree, terms=8):
    """``terms`` distinct monomials of one degree with random coefficients,
    drawn from each of ``monomial_strata`` in proportion to its size.  So
    every such polynomial has the same mix of cheap and dear monomials, and
    the seed moves the median latency little."""
    strata = monomial_strata(n, degree)
    counts = apportion([len(stratum) for stratum in strata], terms)
    return {nu: random_coeff(rng)
            for stratum, count in zip(strata, counts) for nu in rng.sample(stratum, count)}


def dense_product(rng, n, forms):
    """Product of ``forms`` linear forms, each with the coefficients 1..n in
    a random order.  The sizes of the product's coefficients, which set its
    reduction cost, then hardly depend on the seed."""
    out = {(0,) * n: 1}
    for _ in range(forms):
        coefficients = rng.sample(range(1, n + 1), n)
        form = {tuple(int(i == j) for j in range(n)): c for i, c in enumerate(coefficients)}
        out = multiply(out, form)
    return out


def ideal_element(rng, n, max_degree, generators=3):
    """A sum of c * X^mu * M_alpha, so in the ideal by construction."""
    out = {}
    for _ in range(generators):
        a = rng.randint(1, max_degree)
        cuts = sorted(rng.sample(range(1, a), min(a - 1, rng.randint(0, 2))))
        alpha = tuple(b - c for c, b in zip([0] + cuts, cuts + [a]))
        mu = random_vector(rng, n, rng.randint(0, max_degree - a))
        add_into(out, monomial_qsym_terms(alpha, n, mu), random_coeff(rng))
    return out


def dyck_vector(rng, n, max_degree):
    degree = rng.randint(0, min(max_degree, n - 1))
    return rng.choice([v for v in vectors_of_degree(n, degree) if is_dyck_vector(v)])


def transdiagonal_vector(rng, n, degree):
    return rng.choice([v for v in vectors_of_degree(n, degree) if not is_dyck_vector(v)])


def composition(rng, size, parts):
    cuts = sorted(rng.sample(range(1, size), parts - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [size]))


def text(alpha):
    return ",".join(str(p) for p in alpha)


# ---------------------------------------------------------------------------
# rounds


def remainder_only(rng, n, kind):
    """An ``is_member`` or ``coordinates`` request whose answer is fixed by
    construction: an ideal element, plus c * X^eta for a Dyck eta unless the
    member request is meant to be inside."""
    terms = ideal_element(rng, n, 5)
    inside = kind == "member" and rng.random() < 0.5
    eta, c = dyck_vector(rng, n, 5), random_coeff(rng)
    if not inside:
        add_into(terms, {eta: c})
    return Request(kind, n, terms=terms, expect=inside if kind == "member" else {eta: c})


# Per round: the degrees of the 27 sparse polynomials (8 terms each,
# homogeneous) and the sizes of the 9 dense products.  Reduction cost grows
# steeply with degree and varies widely between monomials of one degree, so
# mixed-degree inputs made the median and 90th percentile jump between
# seeds.  These counts put the median inside the degree-4 sparse class and
# the 90th percentile inside the 5-form dense class (its 10th-largest of 15
# in a run of three rounds), whose members cost the same to within 2 %.
SPARSE_DEGREES = (3,) * 6 + (4,) * 19 + (5,) * 2
DENSE_FORMS = (3, 4, 4, 5, 5, 5, 5, 5, 6)


def reduce_warm_round(rng):
    """40 library requests in n = 7: 27 sparse, 9 dense, 4 remainder-only."""
    n = WARM_N
    out = [Request(f"sparse-{d}", n, terms=homogeneous_polynomial(rng, n, d))
           for d in SPARSE_DEGREES]
    out += [Request(f"dense-{k}", n, terms=dense_product(rng, n, k)) for k in DENSE_FORMS]
    out += [remainder_only(rng, n, kind) for kind in ("member", "coordinates") * 2]
    rng.shuffle(out)
    return out


# (|alpha|, parts, n) per block.  The cost of F_alpha depends only on these,
# and the two 14,1 slots hold the cli-cold 90th percentile.
FUNDAMENTAL_SLOTS = [(14, 1, 5), (14, 1, 5), (14, 2, 5), (12, 2, 4)]
QSYM_MUL_SLOTS = [(2, 2), (3, 2), (3, 3), (4, 3)]


def cli_cold_round(rng):
    """36 one-process CLI requests: four blocks of nine request classes."""
    out = []
    for block in range(4):
        for n in (4, 5, 6):
            terms = sparse_polynomial(rng, n, n, max_terms=6)
            out.append(Request(f"reduce-n{n}", n, terms=terms, argv=[
                "reduce", "-n", str(n), f"--expr={expression_text(terms)}",
                "--certificate", "--json"]))
        n = 5 + block % 3
        inside = ideal_element(rng, n, 4)
        outside = ideal_element(rng, n, 4)
        add_into(outside, {dyck_vector(rng, n, 3): random_coeff(rng)})
        for kind, terms, code in (("member-in", inside, 0), ("member-out", outside, 3)):
            out.append(Request(kind, n, terms=terms, exit_code=code, argv=[
                "member", "-n", str(n), f"--expr={expression_text(terms)}"]))
        n = 6 + block % 2
        eps = transdiagonal_vector(rng, n, n - 1)
        out.append(Request("gbasis", n, expect=eps, argv=[
            "gbasis", "-n", str(n), "--vector", text(eps), "--json"]))
        size, parts, n = FUNDAMENTAL_SLOTS[block]
        alpha = composition(rng, size, parts)
        out.append(Request(f"fundamental-{size}.{parts}", n, expect=alpha, argv=[
            "qsym", "-n", str(n), "--fundamental", text(alpha), "--json"]))
        left, right = QSYM_MUL_SLOTS[block]
        alpha = composition(rng, left + rng.randint(0, 1), left)
        beta = composition(rng, right + rng.randint(0, 1), right)
        out.append(Request("qsym-mul", 4, expect=(alpha, beta), argv=[
            "qsym-mul", "-n", "4", "--left", text(alpha), "--right", text(beta),
            "--json"]))
        d = 10 + block
        out.append(Request(f"x1^{d}", 3, terms={(d, 0, 0): 1}, argv=[
            "reduce", "-n", "3", f"--expr=x1^{d}"]))
    rng.shuffle(out)
    return out


# n of the elimination requests in a round: n = 7 holds the 90th
# percentile, and the median lands in the middle of the three n = 6 ones.
ORACLE_NS = (5, 6, 6, 6, 7)


def oracle_cold_round(rng):
    """Five elimination requests, n from {5, 6, 7}."""
    out = [Request(f"oracle-n{n}", n, argv=[
        "hilbert", "-n", str(n), "--method", "oracle", "--json"]) for n in ORACLE_NS]
    rng.shuffle(out)
    return out


ROUNDS = {
    "reduce-warm": reduce_warm_round,
    "cli-cold": cli_cold_round,
    "oracle-cold": oracle_cold_round,
}


def rounds(workload: str, seed: int):
    """The endless seeded sequence of rounds for one workload."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield ROUNDS[workload](rng)
