"""The G family generating the quasi-symmetric ideal, and reduction onto the
Dyck monomial basis.

For a transdiagonal vector ``eps`` the polynomial ``G_eps`` has leading
monomial exactly ``X^eps`` with coefficient 1.  Base case: when ``eps`` is a
composition padded with trailing zeros, ``G_eps = F_alpha``.  Otherwise split
``eps = w 0 a beta 0*`` at the last zero before its last nonzero entry (``a``
the entry right after that zero, ``beta`` the positive tail) and recurse:

    G_eps = G_(w a beta 0*) - x_k * G_(w (a-1) beta 0*)

Reducing the graded-lex-greatest transdiagonal monomial of a polynomial by
the matching G element, repeatedly, yields a unique remainder supported on
Dyck vectors together with an exact membership certificate; a max-heap
hands ``GBasis.normal_form`` the transdiagonal terms in that order.
"""

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from operator import neg

from .combinat import (
    check_vector,
    is_dyck,
    last_nonzero,
    vectors_of_degree,
)
from .poly import Polynomial
from .qsym import fundamental_qsym


@dataclass(frozen=True)
class BaseCase:
    """eps is a composition followed by zeros: G_eps = F_alpha."""

    alpha: tuple


@dataclass(frozen=True)
class EpsFactorization:
    """eps = w 0 a beta 0*, with the zero at position k (1-based)."""

    w: tuple
    k: int
    a: int
    beta: tuple
    n: int

    def reassemble(self) -> tuple:
        vec = self.w + (0, self.a) + self.beta
        return vec + (0,) * (self.n - len(vec))


def factorize(eps):
    """Factor a nonzero vector for the G recursion.

    Returns ``BaseCase(alpha)`` when no zero precedes the last nonzero entry,
    else the unique ``EpsFactorization`` with ``k`` the position of the last
    such zero.
    """
    eps = check_vector(eps)
    ell = last_nonzero(eps)
    if ell == 0:
        raise ValueError("the zero vector has no factorization")
    k = 0
    for i in range(ell - 1, 0, -1):
        if eps[i - 1] == 0:
            k = i
            break
    if k == 0:
        return BaseCase(alpha=eps[:ell])
    return EpsFactorization(w=eps[: k - 1], k=k, a=eps[k], beta=eps[k + 1 : ell],
                            n=len(eps))


def rewrite_times_variable(k: int, phi) -> tuple[tuple, tuple]:
    """Indices (plus, minus) with x_k * G_phi = G_plus - G_minus.

    Two patterns, both rearrangements of the defining recursion:

    * entries of ``phi`` from position k through its last nonzero entry are
      all positive: plus bumps position k, minus inserts a zero at k and
      bumps the entry pushed to k+1;
    * ``phi`` is zero from position k on: plus and minus put a 1 at
      positions k and k+1.

    Anything else, or an index pushed past position n, is a domain error.
    """
    phi = check_vector(phi)
    n = len(phi)
    if not 1 <= k <= n:
        raise ValueError(f"variable index {k} outside [1, {n}]")
    if is_dyck(phi):
        raise ValueError(f"{phi} is not transdiagonal")
    ell = last_nonzero(phi)
    if k > ell:
        if k + 1 > n:
            raise ValueError(f"x_{k} * G_{phi} would need {k + 1} positions")
        plus = phi[:k - 1] + (1,) + phi[k:]
        minus = phi[:k] + (1,) + phi[k + 1:]
    else:
        if any(e == 0 for e in phi[k - 1 : ell]):
            raise ValueError(
                f"{phi} has a zero between position {k} and its tail; "
                "no rewriting rule applies"
            )
        if ell + 1 > n:
            raise ValueError(f"x_{k} * G_{phi} would need {ell + 1} positions")
        plus = phi[: k - 1] + (phi[k - 1] + 1,) + phi[k:]
        shifted = phi[: k - 1] + (0, phi[k - 1] + 1) + phi[k:ell]
        minus = shifted + (0,) * (n - len(shifted))
    assert not is_dyck(plus) and not is_dyck(minus)
    return plus, minus


@dataclass
class ReductionResult:
    """Dyck-supported remainder plus an exact certificate:
    input = remainder + sum(c * G_eps for (c, eps) in certificate).
    """

    remainder: Polynomial
    certificate: list = field(default_factory=list)


class GBasis:
    """G elements for a fixed number of variables, memoized by index.

    Entries are immutable polynomials inserted whole, so concurrent readers
    always observe results identical to recomputation.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self.n = n
        self._memo: dict[tuple, Polynomial] = {}

    def g(self, eps) -> Polynomial:
        """The G element indexed by a transdiagonal vector of length n."""
        eps = check_vector(eps)
        if len(eps) != self.n:
            raise ValueError(f"index {eps} has length != {self.n}")
        if is_dyck(eps):
            raise ValueError(f"{eps} is Dyck; G elements are indexed by "
                             "transdiagonal vectors")
        return self._g(eps)

    def _g(self, eps) -> Polynomial:
        hit = self._memo.get(eps)
        if hit is not None:
            return hit
        split = factorize(eps)
        if isinstance(split, BaseCase):
            result = fundamental_qsym(split.alpha, self.n)
        else:
            pad = (0,) * (self.n - split.k - len(split.beta))
            left = split.w + (split.a,) + split.beta + pad
            right = split.w + (split.a - 1,) + split.beta + pad
            assert not is_dyck(left) and not is_dyck(right)
            result = self._g(left) - Polynomial.variable(self.n, split.k) * self._g(right)
        assert result.is_homogeneous()
        self._memo[eps] = result
        return result

    def normal_form(self, p: Polynomial) -> ReductionResult:
        """Reduce ``p`` modulo the ideal onto the Dyck monomial basis.

        Each step cancels the graded-lex-greatest transdiagonal monomial in
        the support against its G element, so the result and certificate are
        deterministic.  A step adds terms only below the cancelled one, so a
        max-heap of the transdiagonal terms present visits each at most once.
        """
        if p.n != self.n:
            raise ValueError(f"polynomial in {p.n} variables, basis has {self.n}")
        work = dict(p.items())
        certificate = []
        # entries (-degree, -eps, eps): the min-heap pops the greatest first
        heap = [(-sum(e), tuple(map(neg, e)), e) for e in work if not is_dyck(e)]
        heapq.heapify(heap)
        while heap:
            *_, eps = heapq.heappop(heap)
            coeff = work.get(eps)
            if coeff is None:  # cancelled since it was pushed, or a duplicate
                continue
            minus = -coeff
            for exps, c in self._g(eps).items():
                old = work.get(exps)
                new = minus * c if old is None else old + minus * c
                if new:
                    work[exps] = new
                    if old is None and not is_dyck(exps):
                        heapq.heappush(heap, (-sum(exps), tuple(map(neg, exps)), exps))
                else:
                    del work[exps]
            assert eps not in work  # the G element cancels its own index
            certificate.append((coeff, eps))
        return ReductionResult(Polynomial(self.n, work), certificate)

    def is_member(self, p: Polynomial) -> bool:
        """True iff ``p`` lies in the ideal (zero remainder)."""
        return self.normal_form(p).remainder.is_zero()

    def coordinates(self, p: Polynomial) -> dict[tuple, Fraction]:
        """Coefficients of the coset of ``p`` on the Dyck monomial basis."""
        return dict(self.normal_form(p).remainder.items())


_shared: dict[int, GBasis] = {}


def shared_basis(n: int) -> GBasis:
    """Process-wide G memo for ``n`` variables."""
    basis = _shared.get(n)
    if basis is None:
        basis = _shared[n] = GBasis(n)
    return basis


def g_element(eps, n: int | None = None) -> Polynomial:
    eps = check_vector(eps)
    return shared_basis(n if n is not None else len(eps)).g(eps)


def normal_form(p: Polynomial) -> ReductionResult:
    return shared_basis(p.n).normal_form(p)


def is_member(p: Polynomial) -> bool:
    return shared_basis(p.n).is_member(p)


def coordinates(p: Polynomial) -> dict[tuple, Fraction]:
    return shared_basis(p.n).coordinates(p)


def enumerate_transdiagonal(n: int, dmax: int) -> list[tuple]:
    """All transdiagonal vectors of length n with 1 <= degree <= dmax,
    ascending graded lex.
    """
    if n < 1 or dmax < 0:
        raise ValueError(f"need n >= 1 and dmax >= 0, got n = {n}, dmax = {dmax}")
    out = []
    for d in range(1, dmax + 1):
        out.extend(sorted(v for v in vectors_of_degree(n, d) if not is_dyck(v)))
    return out
