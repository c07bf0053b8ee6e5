"""Independent linear-algebra verification of the quotient's graded dimensions.

The degree-d slice of the ideal is spanned by monomial multiples of the
monomial quasi-symmetric generators; its rank over Q, computed by
fraction-free integer elimination, gives the quotient dimension as
(#monomials of degree d) - rank.  Cross-checks: the ballot-number formula,
direct Dyck-vector enumeration, and the closed-form generating function.
"""

from dataclasses import dataclass
from math import comb, gcd

from . import combinat
from .combinat import ResourceLimitError, ballot, compositions_of, desk_cap, vectors_of_degree
from .poly import Polynomial, graded_lex_key


# ---------------------------------------------------------------------------
# exact rank


class IntegerRowSpace:
    """Incremental row space over Z with fraction-free reduction.

    Pivot rows are kept primitive (content stripped, positive leading entry)
    and ordered by pivot column, so ranks and reduced rows are deterministic.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_cols: list[int] = []
        self.rows: list[list[int]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def _strip(row):
        g = 0
        for x in row:
            g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            row = [x // g for x in row]
        return row

    def reduce(self, row) -> list[int]:
        """Eliminate all pivot columns from ``row`` (fraction-free)."""
        row = list(row)
        if len(row) != self.ncols:
            raise ValueError(f"row has {len(row)} columns, expected {self.ncols}")
        for pcol, prow in zip(self.pivot_cols, self.rows):
            x = row[pcol]
            if x:
                lead = prow[pcol]
                row = [lead * a - x * b for a, b in zip(row, prow)]
                row = self._strip(row)
        return row

    def add(self, row) -> bool:
        """Insert a row; True if it enlarged the space."""
        row = self.reduce(row)
        for col, x in enumerate(row):
            if x:
                if x < 0:
                    row = [-y for y in row]
                at = 0
                while at < len(self.pivot_cols) and self.pivot_cols[at] < col:
                    at += 1
                self.pivot_cols.insert(at, col)
                self.rows.insert(at, row)
                return True
        return False

    def contains(self, row) -> bool:
        return not any(self.reduce(row))


def fraction_free_rank(rows, ncols: int) -> int:
    space = IntegerRowSpace(ncols)
    for row in rows:
        space.add(row)
        if space.rank == ncols:
            break
    return space.rank


# ---------------------------------------------------------------------------
# the degree-d slice of the ideal


def _check_oracle_caps(n: int, d: int) -> None:
    cap = desk_cap(combinat.ORACLE_CAP)
    if not 1 <= n <= cap:
        raise ResourceLimitError(
            f"exact elimination capped at n <= {cap} (set QSYMQ_MAX_N to raise); "
            f"got n = {n}"
        )
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
        for alpha in compositions_of(a):
            if len(alpha) > n:
                continue
            for mu in sorted(vectors_of_degree(n, d - a)):
                out.append((mu, alpha))
    return out


def _generator_rows(n: int, d: int, columns):
    from .qsym import monomial_qsym

    index = {exps: i for i, exps in enumerate(columns)}
    for mu, alpha in slice_generators(n, d):
        row = [0] * len(columns)
        for exps, coeff in monomial_qsym(alpha, n).items():
            shifted = tuple(a + b for a, b in zip(mu, exps))
            row[index[shifted]] = int(coeff)
        yield row


_slice_cache: dict[tuple, IntegerRowSpace] = {}


def _slice_space(n: int, d: int) -> IntegerRowSpace:
    key = (n, d)
    space = _slice_cache.get(key)
    if space is None:
        columns = degree_columns(n, d)
        space = IntegerRowSpace(len(columns))
        for row in _generator_rows(n, d, columns):
            space.add(row)
            if space.rank == space.ncols:
                break
        _slice_cache[key] = space
    return space


def ideal_degree_rank(n: int, d: int) -> int:
    """Rank over Q of the degree-d slice of the ideal."""
    _check_oracle_caps(n, d)
    return _slice_space(n, d).rank


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
    d = p.degree()
    _check_oracle_caps(p.n, d)
    space = _slice_space(p.n, d)
    columns = degree_columns(p.n, d)
    index = {exps: i for i, exps in enumerate(columns)}
    denom = 1
    for _, coeff in p.items():
        denom = denom * coeff.denominator // gcd(denom, coeff.denominator)
    row = [0] * len(columns)
    for exps, coeff in p.items():
        row[index[exps]] = int(coeff * denom)
    return space.contains(row)


def rank_report(n: int, d: int) -> str:
    """Human-readable summary of the degree-d elimination."""
    _check_oracle_caps(n, d)
    columns = degree_columns(n, d)
    gens = slice_generators(n, d)
    rank = ideal_degree_rank(n, d)
    lines = [
        f"degree {d} slice in {n} variables:",
        f"  columns (monomials): {len(columns)}",
        f"  generator rows:      {len(gens)}",
        f"  rank:                {rank}",
        f"  quotient dimension:  {len(columns) - rank}",
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
        if n > desk_cap(combinat.COUNTING_CAP):
            raise ResourceLimitError(f"formula route capped, got n = {n}")
        coeffs = [ballot(n, k) for k in range(n)]
    elif method in ("enum", "enumeration"):
        counts = [0] * n
        for eta in combinat.enumerate_dyck(n):
            counts[sum(eta)] += 1
        coeffs = counts
    elif method == "oracle":
        coeffs = quotient_dims(n, n - 1)
    else:
        raise ValueError(f"unknown method {method!r}")
    return HilbertSeries(n, tuple(coeffs))


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
    if order > desk_cap(combinat.ENUMERATION_CAP):
        raise ResourceLimitError(f"series check capped, got order = {order}")
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
