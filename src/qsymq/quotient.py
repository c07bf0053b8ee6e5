"""The G family generating the quasi-symmetric ideal, and reduction onto the
Dyck monomial basis.

For a transdiagonal vector ``eps`` the polynomial ``G_eps`` has leading
monomial exactly ``X^eps`` with coefficient 1.  Base case: when ``eps`` is a
composition padded with trailing zeros, ``G_eps = F_alpha``.  Otherwise split
``eps = w 0 a beta 0*`` at the last zero before its last nonzero entry (``a``
the entry right after that zero, ``beta`` the positive tail) and recurse:

    G_eps = G_(w a beta 0*) - x_k * G_(w (a-1) beta 0*)

So every G element has integer coefficients and is homogeneous of degree
``|eps|``: the base case checks that on the support of ``F_alpha``, and the
recursion keeps it.  ``GBasis`` interns each exponent vector once as an int
id; the product by ``x_k`` is a shift of exponent k, cached per id.  A G
element is built in an ``{id: int}`` dict, then frozen as two tuples, its ids
and its int coefficients in the dict's order: a tuple slot is 8 bytes where
a dict slot is about 48.  ``GBasis.g`` hands an element out as a
``Polynomial`` in one pass, with one ``Fraction`` per distinct coefficient,
shared by the terms that carry it.

Reducing the graded-lex-greatest transdiagonal monomial of a polynomial by
the matching G element, repeatedly, yields a unique remainder supported on
Dyck vectors together with an exact membership certificate; a max-heap
hands ``GBasis.normal_form`` the transdiagonal terms in that order.  The
input is scaled once by the lcm of its denominators, so the loop runs on
integers keyed by ids; ``Polynomial`` and ``Fraction`` appear only in what it
returns.
"""

import heapq
from collections import namedtuple
from fractions import Fraction
from operator import neg
from threading import Lock

from .combinat import (
    check_size,
    check_vector,
    is_dyck,
    last_nonzero,
    vectors_of_degree,
    zero_erasure,
)
from .poly import Polynomial
from .qsym import check_fundamental_size, fundamental_qsym


class ReductionResult(namedtuple("ReductionResult", "remainder certificate")):
    """Dyck-supported remainder plus an exact certificate:
    input = remainder + sum(c * G_eps for (c, eps) in certificate).
    """

    __slots__ = ()


class GBasis:
    """G elements for a fixed number of variables, memoized by index.

    The basis interns every exponent vector it meets: ``_ids`` maps a vector
    to an int id, ``_vecs`` maps the id back, and ``_entries`` holds the
    id's heap entry ``(-degree, negated exponents, id)``, or ``None`` when
    the vector is Dyck.  ``_shifts[k - 1]`` caches the id of ``x_k`` times a
    vector.  A G element has integer coefficients.  ``_g`` builds it in an
    ``{id: int}`` dict, freezes it as a tuple of ids and a tuple of nonzero
    ints in the dict's order, and publishes the pair in one store,
    ``_memo[eps] = (ids, coeffs)``; it returns ``ids``, whose length is the
    term count.  ``_g`` checks homogeneity only in the base case, where the
    support of ``F_alpha`` must have degree ``|alpha|``; the recursion
    preserves it.  ``g`` converts an element to a ``Polynomial`` in one
    pass, making one ``Fraction`` per distinct coefficient.  Memo entries
    are published whole and are immutable, and an id is published in
    ``_ids`` only after its vector and entry are stored, so concurrent
    readers always observe results identical to recomputation.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self.n = n
        self._memo: dict[tuple, tuple[tuple, tuple]] = {}
        self._ids: dict[tuple, int] = {}
        self._vecs: list[tuple] = []
        self._entries: list[tuple | None] = []
        self._shifts: list[dict[int, int]] = [{} for _ in range(n)]
        self._lock = Lock()

    def _id(self, exps: tuple) -> int:
        """The id of an exponent vector, interned on first sight."""
        i = self._ids.get(exps)
        if i is None:
            with self._lock:
                i = self._ids.get(exps)
                if i is None:
                    i = len(self._vecs)
                    self._vecs.append(exps)
                    self._entries.append(
                        None if is_dyck(exps) else (-sum(exps), tuple(map(neg, exps)), i))
                    self._ids[exps] = i
        return i

    def g(self, eps) -> Polynomial:
        """The G element indexed by a transdiagonal vector of length n."""
        eps = check_vector(eps)
        if len(eps) != self.n:
            raise ValueError(f"index {eps} has length != {self.n}")
        if is_dyck(eps):
            raise ValueError(f"{eps} is Dyck; G elements are indexed by "
                             "transdiagonal vectors")
        ids, coeffs = self._element(eps)
        fractions = {c: Fraction(c) for c in set(coeffs)}
        vecs = self._vecs
        return Polynomial._trusted(
            self.n, {vecs[i]: fractions[c] for i, c in zip(ids, coeffs)})

    def _terms(self, eps) -> dict[tuple, int]:
        """G_eps as ``{exponents: int}``, for a trusted transdiagonal index."""
        ids, coeffs = self._element(eps)
        vecs = self._vecs
        return {vecs[i]: c for i, c in zip(ids, coeffs)}

    def _element(self, eps) -> tuple[tuple, tuple]:
        """``(ids, coeffs)`` of G_eps, built on first use."""
        element = self._memo.get(eps)
        if element is None:
            self._g(eps)
            element = self._memo[eps]
        return element

    def _g(self, eps) -> tuple:
        """The ids of G_eps, built on first use; ``_memo[eps]`` pairs them
        with the coefficients."""
        hit = self._memo.get(eps)
        if hit is not None:
            return hit[0]
        zeros = check_chain(eps, self.n)
        if not zeros:  # eps = alpha 0*
            support = fundamental_qsym(zero_erasure(eps), self.n).support()
            degree = sum(eps)
            assert all(sum(e) == degree for e in support)  # homogeneous
            result = dict.fromkeys(map(self._id, support), 1)
        else:
            k = zeros[-1]
            left = eps[:k - 1] + eps[k:] + (0,)  # w a beta 0*
            right = left[:k - 1] + (left[k - 1] - 1,) + left[k:]  # w (a-1) beta 0*
            assert not is_dyck(left) and not is_dyck(right)
            # homogeneous by induction: G_left has degree |eps|, G_right
            # degree |eps| - 1, and x_k adds one
            result = dict(zip(*self._element(left)))
            shift, vecs = self._shifts[k - 1], self._vecs
            for i, c in zip(*self._element(right)):  # subtract x_k * G_right
                j = shift.get(i)
                if j is None:
                    exps = vecs[i]
                    j = shift[i] = self._id(exps[:k - 1] + (exps[k - 1] + 1,) + exps[k:])
                new = result.get(j, 0) - c
                if new:
                    result[j] = new
                else:
                    del result[j]
        ids = tuple(result)
        self._memo[eps] = ids, tuple(result.values())
        return ids

    def normal_form(self, p: Polynomial) -> ReductionResult:
        """Reduce ``p`` modulo the ideal onto the Dyck monomial basis.

        Each step cancels the graded-lex-greatest transdiagonal monomial in
        the support against its G element, so the result and certificate are
        deterministic.  A step adds terms only below the cancelled one, so a
        max-heap of the transdiagonal terms present visits each at most once.
        ``p`` is scaled once by the lcm of its denominators, the loop runs on
        integers keyed by interned ids, and the remainder and certificate are
        divided back.
        """
        if p.n != self.n:
            raise ValueError(f"polynomial in {p.n} variables, basis has {self.n}")
        scale, terms = p.integer_terms()
        memo, vecs, entries = self._memo, self._vecs, self._entries
        work = {self._id(e): c for e, c in terms.items()}
        certificate = []
        # the min-heap pops the graded-lex-greatest first
        heap = [entries[i] for i in work if entries[i] is not None]
        heapq.heapify(heap)
        while heap:
            i = heapq.heappop(heap)[2]
            coeff = work.get(i)
            if coeff is None:  # cancelled since it was pushed, or a duplicate
                continue
            eps = vecs[i]
            g = memo.get(eps)
            if g is None:
                g = self._element(eps)
            minus = -coeff
            for j, c in zip(*g):
                old = work.get(j)
                if old is None:
                    work[j] = minus * c
                    entry = entries[j]
                    if entry is not None:
                        heapq.heappush(heap, entry)
                else:
                    new = old + minus * c
                    if new:
                        work[j] = new
                    else:
                        del work[j]
            assert i not in work  # the G element cancels its own index
            certificate.append((Fraction(coeff, scale), eps))
        remainder = {vecs[i]: Fraction(c, scale) for i, c in work.items()}
        return ReductionResult(Polynomial._trusted(self.n, remainder), certificate)

    def remainder(self, p: Polynomial) -> Polynomial:
        """``normal_form(p).remainder``.  Every G element is homogeneous and
        every Dyck vector has degree < n, so the terms of degree >= n reduce
        to 0 and are dropped before reducing."""
        low = {e: c for e, c in p.items() if sum(e) < self.n}
        return self.normal_form(Polynomial._trusted(p.n, low)).remainder

    def is_member(self, p: Polynomial) -> bool:
        """True iff ``p`` lies in the ideal (zero remainder)."""
        return self.remainder(p).is_zero()

    def coordinates(self, p: Polynomial) -> dict[tuple, Fraction]:
        """Coefficients of the coset of ``p`` on the Dyck monomial basis."""
        return dict(self.remainder(p).items())


def check_chain(eps, n: int) -> list[int]:
    """The 1-based positions of the zeros of ``eps`` before its last nonzero
    entry: G_eps copies F_c(eps) once per zero on its ``left`` chain, and
    ``ResourceLimitError`` is raised, before any is built, past ``SIZE_CAP``."""
    zeros = [i for i in range(1, last_nonzero(eps)) if not eps[i - 1]]
    alpha = zero_erasure(eps)
    check_size(check_fundamental_size(alpha, n) * len(zeros),
               "terms on the G chain down to F_{} in {} variables", alpha, n)
    return zeros


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
        out.extend(v for v in vectors_of_degree(n, d) if not is_dyck(v))
    return out
