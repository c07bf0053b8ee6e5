"""Independent linear-algebra verification of the quotient's graded dimensions.

The degree-d slice of the ideal is spanned by monomial multiples of the
monomial quasi-symmetric generators; its rank over Q, computed by
fraction-free integer elimination on sparse rows ``{column: nonzero int}``,
gives the quotient dimension as (#monomials of degree d) - rank.  A
generator row X^mu * M_alpha has only C(n, len(alpha)) nonzeros, so rows
stay sparse throughout.  Cross-checks: the ballot-number formula, direct
Dyck-vector enumeration, and the closed-form generating function.
"""

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import comb, gcd

from . import combinat, quotient
from .combinat import ResourceLimitError, ballot, is_dyck, refinements, vectors_of_degree
from .poly import Polynomial, graded_lex_key, random_polynomial
from .qsym import monomial_qsym


# ---------------------------------------------------------------------------
# exact rank


class IntegerRowSpace:
    """Incremental row space over Z with fraction-free reduction.

    Rows are sparse dicts ``{column: int}``.  ``pivots`` maps each pivot
    column to its primitive row, which is positive at that column and zero to
    the left of it, so ranks and reduced rows are deterministic.  ``add``
    strips the content and fixes the sign, once per stored row; ``reduce``
    strips it only after a step that scaled the row by a pivot lead other
    than 1, which is enough to bound coefficient growth.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row) -> dict[int, int]:
        """Eliminate all pivot columns from ``row`` (fraction-free), lowest first."""
        row = {col: x for col, x in row.items() if x}
        if row and not 0 <= min(row) <= max(row) < self.ncols:
            raise ValueError(f"row has a column outside [0, {self.ncols})")
        pivots = self.pivots
        todo = [col for col in row if col in pivots]
        heapify(todo)
        while todo:
            pcol = heappop(todo)
            x = row.get(pcol)
            if x is None:  # cancelled since it was pushed
                continue
            prow = pivots[pcol]
            lead = prow[pcol]
            if lead != 1:
                for col in row:
                    row[col] *= lead
            for col, b in prow.items():
                y = row.pop(col, 0)
                if not y and col in pivots:  # fill-in, right of pcol
                    heappush(todo, col)
                y -= x * b
                if y:
                    row[col] = y
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

    def add_until_full(self, rows) -> "IntegerRowSpace":
        """Add rows in order, stopping once the rank reaches ``ncols``."""
        for row in rows:
            if self.rank == self.ncols:
                break
            self.add(row)
        return self

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


def degree_columns(n: int, d: int) -> list[tuple]:
    """Monomials of degree d in n variables, descending graded lex."""
    return sorted(vectors_of_degree(n, d), key=graded_lex_key, reverse=True)


def slice_generators(n: int, d: int):
    """(mu, alpha) labels of the generators X^mu * M_alpha of the degree-d
    slice, sorted by (|alpha|, alpha, mu)."""
    out = []
    for a in range(1, d + 1):
        for alpha in sorted(refinements((a,), n)):
            for mu in vectors_of_degree(n, d - a):
                out.append((mu, alpha))
    return out


def _generator_rows(n: int, d: int, index):
    terms = {}  # alpha -> the integer terms of M_alpha, built once per slice
    for mu, alpha in slice_generators(n, d):
        if alpha not in terms:
            terms[alpha] = [(exps, int(c)) for exps, c in monomial_qsym(alpha, n).items()]
        yield {index[tuple(a + b for a, b in zip(mu, exps))]: c for exps, c in terms[alpha]}


_slice_cache: dict[tuple, tuple[IntegerRowSpace, dict]] = {}


def _slice(n: int, d: int) -> tuple[IntegerRowSpace, dict]:
    """The eliminated degree-d slice and its column index {exps: column}."""
    key = (n, d)
    if key not in _slice_cache:
        _check_oracle_caps(n, d)
        index = {exps: i for i, exps in enumerate(degree_columns(n, d))}
        space = IntegerRowSpace(len(index)).add_until_full(_generator_rows(n, d, index))
        _slice_cache[key] = space, index
    return _slice_cache[key]


def ideal_degree_rank(n: int, d: int) -> int:
    """Rank over Q of the degree-d slice of the ideal."""
    return _slice(n, d)[0].rank


def quotient_dims(n: int, dmax: int) -> list[int]:
    """Quotient dimensions for degrees 0..dmax, by exact elimination."""
    _check_oracle_caps(n, dmax)
    return [comb(n + d - 1, d) - ideal_degree_rank(n, d) for d in range(dmax + 1)]


def row_space_member(p: Polynomial) -> bool:
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


def rank_report(n: int, d: int) -> str:
    """Human-readable summary of the degree-d elimination."""
    record = rank_record(n, d)
    lines = [
        f"degree {d} slice in {n} variables:",
        f"  columns (monomials): {record['columns']}",
        f"  generator rows:      {record['generator_rows']}",
        f"  rank:                {record['rank']}",
        f"  quotient dimension:  {record['dimension']}",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Hilbert series, three ways


@dataclass(frozen=True)
class HilbertSeries:
    """Graded dimensions of the quotient, degrees 0..n-1."""

    n: int
    coefficients: tuple

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
    certificates, on the kernel's integer G dicts; and, for n <= 5, every
    degree-n monomial reducing to 0.  The G chains are counted first.
    """
    basis = quotient.shared_basis(n)  # refuses n < 1; builds no G yet
    max_degree = n if max_degree is None else max_degree
    if max_degree < 0:
        raise ValueError(f"need max_degree >= 0, got {max_degree}")
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
        g = basis._g(eps)
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
            for exps, x in basis._g(eps).items():
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


def _truncate_x(p: Polynomial, order: int) -> Polynomial:
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
    combinat._check_cap(order, combinat.ENUMERATION_CAP, "generating-function check")
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
