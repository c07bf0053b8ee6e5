"""Independent linear-algebra verification of the quotient's graded dimensions.

The degree-d slice of the ideal is spanned by the rows X^mu * M_L with L a
Lyndon composition and |L| <= d.  Over Q, QSym is a free polynomial algebra
on these M_L (Hoffman, "Quasi-shuffle products", J. Algebraic Combin. 11,
2000; freeness is due to Malvenuto-Reutenauer, 1995); restriction to n
variables is a surjective algebra map, and an ideal generated by the
positive part of an algebra is generated by its algebra generators.

Only the rows with mu_j < j for every j < |L| are eliminated: every
X^mu * M_(1), the x1-free X^mu * M_(2), and so on; the others reduce to
zero.  Take mu_j >= j with j < |L|.  The polynomial h_j(x_j, ..., xn) is
x_j^j plus terms of lower degree in x_j, and it equals the sum over
i = 1..j of (-1)^(i+1) e_i(x1..xn) h_(j-i)(x_j..xn), where e_i = M_(1^i)
is a polynomial in the M_L with |L| <= i (for j = 1: x1 = M_(1) - (x2 +
... + xn)).  Replacing x_j^j in X^mu by the rest of h_j writes X^mu * M_L
as rows of earlier blocks plus rows X^nu * M_L with nu equal to mu before
coordinate j and smaller at j, so earlier in the ascending lex order of
mu.  By induction on (|L|, mu), each dropped row lies in the span of the
rows before it, so dropping it changes no stored row.

The rows come in the order (|L|, L, mu), the columns in descending graded
lex, and the first two blocks reach echelon form with every lead 1.  Block
1, the X^nu * M_(1), pivots every column divisible by x1.  Block 2, the
x1-free X^mu * M_(2), reduced by block 1 (x1 := -(x2 + ... + xn)) is
X^mu * 2 h_2(x2, ..., xn) and pivots every x1-free column divisible by x2^2.
These columns are a prefix, so a later row is first reduced modulo blocks
1-2 alone, to R(row), its unique representative free of x1 and x2^2.  In
every degree blocks 1-2 span the ideal (M_(1), M_(2)) and the monomials
free of x1 and x2^2 span a complement; multiplying by a monomial X^m in
x3..xn maps each into itself, so R(X^m * f) = X^m * R(f).  The rows of a
family (L, mu_2) differ only in such an X^m and are consecutive: the first
is reduced modulo blocks 1-2, and the others are that result, shifted.
From R(row) the reduction goes on as it would from the raw row, so every
stored row, the unique primitive one with a positive lead, is what the raw
rows give.

No G element is used, and the supports of the M_L are listed here, so the
oracle shares only ``combinat`` with the G construction.  The slice's rank
over Q, computed by fraction-free integer elimination on sparse rows
``{column: nonzero int}``, gives the quotient dimension as (#monomials of
degree d) - rank; a row X^mu * M_L has only C(n, len(L)) nonzeros.  Cross-checks: the ballot-number formula, direct
Dyck-vector enumeration, and the closed-form generating function.
"""

from collections import namedtuple
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import comb, gcd
from operator import mul

from . import combinat
from .combinat import ResourceLimitError, ballot, is_dyck, refinements, vectors_of_degree


# ---------------------------------------------------------------------------
# exact rank


class IntegerRowSpace:
    """Incremental row space over Z with fraction-free reduction.

    Rows are sparse dicts ``{column: int}``.  ``pivots`` maps each pivot
    column to its primitive row, which is positive at that column and zero to
    the left of it: an echelon form with distinct leading columns, so ranks
    and stored rows are deterministic.  ``add`` strips the content and fixes
    the sign, once per stored row; ``reduce`` strips it only after a step
    that scaled the row by a pivot lead other than 1, which is enough to
    bound coefficient growth.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row) -> dict[int, int]:
        """Eliminate the leading column of ``row`` (fraction-free) while it is
        a pivot.  The result is empty iff the row lies in the space; else its
        leading column is no pivot.  The tail is not reduced."""
        row = {col: x for col, x in row.items() if x}
        if row and not 0 <= min(row) <= max(row) < self.ncols:
            raise ValueError(f"row has a column outside [0, {self.ncols})")
        pivots = self.pivots
        todo = list(row)  # every column of the row, so the first live pop is its lead
        heapify(todo)
        while todo:
            pcol = heappop(todo)
            x = row.get(pcol)
            if x is None:  # cancelled since it was pushed
                continue
            prow = pivots.get(pcol)
            if prow is None:  # the lead is no pivot
                break
            lead = prow[pcol]
            if lead != 1:
                for col in row:
                    row[col] *= lead
            for col, b in prow.items():  # row -= x * prow, in place
                y = row.get(col)
                if y is None:  # fill-in, right of pcol
                    row[col] = -x * b
                    heappush(todo, col)
                else:
                    y -= x * b
                    if y:
                        row[col] = y
                    else:
                        del row[col]
            if lead != 1:  # bound the growth the scaling brought in
                g = gcd(*row.values())
                if g > 1:
                    row = {col: y // g for col, y in row.items()}
        return row

    def add(self, row) -> bool:
        """Insert a row; True if it enlarged the space."""
        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        g = gcd(*row.values())
        if row[col] < 0:
            g = -g
        self.pivots[col] = {c: x // g for c, x in row.items()}
        return True

    def contains(self, row) -> bool:
        return not self.reduce(row)


# ---------------------------------------------------------------------------
# the degree-d slice of the ideal


def _check_oracle_caps(n: int, d: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    combinat._check_cap(n, combinat.ORACLE_CAP, "exact elimination")
    if not 0 <= d <= n + 1:
        raise ResourceLimitError(f"degree {d} outside [0, n + 1] for n = {n}")
    most = comb(2 * combinat.ORACLE_CAP - 2, combinat.ORACLE_CAP - 1)  # columns at (cap, cap - 1)
    if comb(n + d - 1, d) > most:
        raise ResourceLimitError(f"exact elimination capped at {most} columns; "
                                 f"got {comb(n + d - 1, d)} at n = {n}, d = {d}")


def degree_columns(n: int, d: int) -> list[tuple]:
    """Monomials of degree d in n variables, descending graded lex: within
    one degree that is descending lex, ``vectors_of_degree`` reversed."""
    return list(vectors_of_degree(n, d))[::-1]


def is_lyndon(alpha) -> bool:
    """True iff alpha is smaller than each proper suffix, in tuple order."""
    return all(alpha < alpha[i:] for i in range(1, len(alpha)))


def slice_generators(n: int, d: int):
    """(mu, L) labels of the generators X^mu * M_L of the degree-d slice, L
    Lyndon, with mu_j < j for every j < |L|, sorted by (|L|, L, mu).  They
    span it (see the module docstring)."""
    out = []
    for a in range(1, d + 1):
        mus = [mu for mu in vectors_of_degree(n, d - a)
               if all(m < j for j, m in enumerate(mu[:a - 1], 1))]
        for alpha in sorted(filter(is_lyndon, refinements((a,), n))):
            out.extend((mu, alpha) for mu in mus)
    return out


@cache
def _slice(n: int, d: int) -> tuple[IntegerRowSpace, dict]:
    """The eliminated degree-d slice and its column index {exps: column}: the
    rows of ``slice_generators``, each family (L, mu_2) with |L| >= 3 as its
    first row reduced modulo blocks 1-2 and then shifted (module docstring)."""
    _check_oracle_caps(n, d)
    index = {exps: i for i, exps in enumerate(degree_columns(n, d))}
    # an exponent vector of degree <= d is coded by its entries as base-(d+1)
    # digits, so the code of a product of monomials is the sum of their codes
    weights = [(d + 1) ** (n - 1 - i) for i in range(n)]
    column = {sum(map(mul, exps, weights)): col for exps, col in index.items()}
    codes = list(column)  # column -> code
    space = IntegerRowSpace(len(index))
    supports = {}  # alpha -> the codes of the support of M_alpha, once per slice
    head = family = pattern = None  # blocks 1-2; the family (L, mu_2) and R(row)
    for mu, alpha in slice_generators(n, d):
        if space.rank == space.ncols:
            break
        if alpha not in supports:
            supports[alpha] = [sum(map(mul, alpha, place))
                               for place in combinations(weights, len(alpha))]
        shift = sum(map(mul, mu, weights))
        if family == (alpha, mu[:2]):
            space.add({column[shift + code]: x for code, x in pattern})
            continue
        row = dict.fromkeys((column[shift + code] for code in supports[alpha]), 1)
        if alpha == (1,):  # lead x1 * X^mu, no pivot yet: stored as it is
            space.pivots[min(row)] = row
        elif alpha == (2,):
            space.add(row)
        else:  # a family's first row
            if head is None:
                head = IntegerRowSpace(space.ncols)
                head.pivots = dict(space.pivots)
            family, row = (alpha, mu[:2]), head.reduce(row)
            pattern = [(codes[col] - shift, x) for col, x in row.items()]
            space.add(row)
    return space, index


def ideal_degree_rank(n: int, d: int) -> int:
    """Rank over Q of the degree-d slice of the ideal."""
    return _slice(n, d)[0].rank


def quotient_dims(n: int, dmax: int) -> list[int]:
    """Quotient dimensions for degrees 0..dmax, by exact elimination."""
    _check_oracle_caps(n, dmax)
    return [comb(n + d - 1, d) - ideal_degree_rank(n, d) for d in range(dmax + 1)]


def row_space_member(p: "Polynomial") -> bool:
    """True iff a homogeneous polynomial lies in the degree slice of the ideal."""
    if p.is_zero():
        return True
    if not p.is_homogeneous():
        raise ValueError("row-space membership needs a homogeneous polynomial")
    space, index = _slice(p.n, p.degree())
    _, terms = p.integer_terms()
    return space.contains({index[exps]: c for exps, c in terms.items()})


def rank_record(n: int, d: int) -> dict:
    """Counts of the degree-d elimination: columns, generator rows, rank and
    quotient dimension."""
    space, index = _slice(n, d)
    return {"degree": d, "columns": len(index),
            "generator_rows": len(slice_generators(n, d)),
            "rank": space.rank, "dimension": len(index) - space.rank}


# ---------------------------------------------------------------------------
# Hilbert series, three ways


class HilbertSeries(namedtuple("HilbertSeries", "n coefficients")):
    """Graded dimensions of the quotient, degrees 0..n-1."""

    __slots__ = ()

    def __str__(self):
        return " ".join(str(c) for c in self.coefficients)

    def total(self) -> int:
        return sum(self.coefficients)


def hilbert_series(n: int, method: str = "formula") -> HilbertSeries:
    """Graded dimensions by one of three routes: the ballot-number formula,
    direct Dyck-vector enumeration, or exact elimination (the oracle)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if method == "formula":
        coeffs = [ballot(n, k) for k in range(n)]
    elif method == "enum":
        counts = [0] * n
        for eta in combinat.enumerate_dyck(n):
            counts[sum(eta)] += 1
        coeffs = counts
    elif method == "oracle":
        coeffs = quotient_dims(n, n - 1)
    else:
        raise ValueError(f"unknown method {method!r}")
    return HilbertSeries(n, tuple(coeffs))


def verify(n: int, max_degree: int | None = None) -> list[dict]:
    """The cross-check suite, as records ``{"name", "ok", "detail"}``: Hilbert
    series by formula, enumeration and elimination up to ORACLE_CAP; the
    staircase (the pivots of each eliminated slice are its transdiagonal
    vectors); LM(G_eps) = X^eps up to degree min(max_degree, n); 25 seeded
    certificates, on the kernel's integer G terms (``GBasis._terms``); and,
    for n <= 5, every degree-n monomial reducing to 0.  n is checked against
    ENUMERATION_CAP first, then the G chains are counted.
    """
    import random

    from . import quotient  # verify is its only user here
    from .poly import Polynomial, graded_lex_key, random_polynomial
    basis = quotient.shared_basis(n)  # refuses n < 1; builds no G yet
    max_degree = n if max_degree is None else max_degree
    if max_degree < 0:
        raise ValueError(f"need max_degree >= 0, got {max_degree}")
    combinat._check_cap(n, combinat.ENUMERATION_CAP, "Dyck enumeration")
    indices = []  # transdiagonal, ascending graded lex
    for d in range(1, min(max_degree, n) + 1):
        for eps in vectors_of_degree(n, d):
            if not is_dyck(eps):
                quotient.check_chain(eps, n)
                indices.append(eps)
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    for m in range(1, n + 1):
        formula, enum = hilbert_series(m, "formula"), hilbert_series(m, "enum")
        check(f"hilbert-formula-vs-enum-n{m}", formula == enum, f"{formula} vs {enum}")
    for m in range(1, min(n, combinat.ORACLE_CAP) + 1):
        formula, byrank = hilbert_series(m, "formula"), hilbert_series(m, "oracle")
        check(f"hilbert-vs-oracle-n{m}", formula == byrank, f"{formula} vs {byrank}")
        bad = []
        for d in range(m):  # the pivots of a slice are its leading monomials
            space, index = _slice(m, d)
            if any((col in space.pivots) == is_dyck(e) for e, col in index.items()):
                bad.append(d)
        check(f"staircase-n{m}", not bad, f"degrees: {bad}")

    bad = []
    for eps in indices:
        g = basis._terms(eps)
        if max(g, key=graded_lex_key) != eps or g[eps] != 1:
            bad.append(eps)
    check("leading-monomials", not bad, f"failures: {bad[:5]}")

    rng = random.Random(20_000 + n)
    for _ in range(25):
        p = random_polynomial(rng, n, min(max_degree, n + 1))
        result = basis.normal_form(p)
        scale, rest = p.integer_terms()  # p - remainder - certificate, times scale
        for coeff, eps in result.certificate:
            c = int(coeff * scale)
            for exps, x in basis._terms(eps).items():
                rest[exps] = rest.get(exps, 0) - c * x
        for exps, coeff in result.remainder.items():
            rest[exps] = rest.get(exps, 0) - coeff * scale
        again = basis.normal_form(result.remainder)
        bad = [name for name, ok in [
            ("certificate identity", not any(rest.values())),
            ("remainder support", all(map(is_dyck, result.remainder.support()))),
            ("idempotence", again.remainder == result.remainder and not again.certificate),
        ] if not ok][:1]
        if bad:
            break
    check("certificates", not bad, "; ".join(bad))

    if n <= 5:
        residue = [v for v in vectors_of_degree(n, n)
                   if not basis.normal_form(Polynomial.monomial(n, v)).remainder.is_zero()]
        check("degree-n-vanishing", not residue, f"failures: {residue[:5]}")
    return checks


# ---------------------------------------------------------------------------
# generating function for the Hilbert rows


def _truncate_x(p: "Polynomial", order: int) -> "Polynomial":
    from .poly import Polynomial
    return Polynomial(2, {e: c for e, c in p.items() if e[1] <= order})


def generating_function_check(order: int, as_printed: bool = False) -> bool:
    """Check the closed form of the Hilbert-row generating function
    Phi(x, t) = sum over n >= 1 of F_n(t) x^n as the algebraic identity

        (1 - 2x - 2(t + x - 1) Phi)^2 = 1 - 4tx   (mod x^(order+1))

    in exact bivariate arithmetic (variables ordered (t, x)).  With
    ``as_printed`` the numerator term -2x is swapped for -2t, which fails
    already at the constant coefficient; the flag documents that defect.
    """
    if order < 1:
        raise ValueError(f"need order >= 1, got {order}")
    combinat._check_cap(order, combinat.ENUMERATION_CAP, "generating-function check",
                        name="order")
    from .poly import Polynomial
    t = Polynomial.variable(2, 1)
    x = Polynomial.variable(2, 2)
    one = Polynomial.constant(2, 1)
    phi = Polynomial.zero(2)
    for m in range(1, order + 1):
        row = hilbert_series(m, "formula").coefficients
        f_m = Polynomial(2, {(k, 0): c for k, c in enumerate(row)})
        phi = phi + f_m * Polynomial.monomial(2, (0, m))
    linear = t if as_printed else x
    lhs = one - 2 * linear - 2 * ((t + x - one) * phi)
    lhs = _truncate_x(lhs, order)
    square = _truncate_x(lhs * lhs, order)
    return square == one - 4 * (t * x)
