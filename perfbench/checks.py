"""Answer checks and output digests.

Every check returns ``None`` for a correct answer or a one-line reason.
The Dyck rule, ballot numbers, F_alpha supports and the shuffle-product
identity come from ``reference``; only the certificate identity uses G
elements built by qsymq, because a certificate is a statement about them.
"""

import hashlib
import json
from fractions import Fraction
from math import comb, lcm

from reference import (
    add_into,
    ballot,
    fundamental_terms,
    graded_lex_key,
    is_dyck_vector,
    multiply,
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def terms_text(items) -> str:
    ordered = sorted(items, key=lambda t: graded_lex_key(t[0]), reverse=True)
    return ";".join(f"{','.join(map(str, e))}:{c}" for e, c in ordered)


def certificate_problem(terms, remainder, certificate, g) -> str | None:
    """Check a reduction: Dyck remainder support, transdiagonal certificate
    indices, and input == remainder + sum(c * G_eps) exactly.  ``g(eps)``
    returns the G element as (exponents, coefficient) pairs."""
    bad = [e for e, _ in remainder if not is_dyck_vector(e)]
    if bad:
        return f"remainder has transdiagonal support {bad[0]}"
    bad = [eps for _, eps in certificate if is_dyck_vector(eps)]
    if bad:
        return f"certificate indexed by Dyck vector {bad[0]}"
    # Scale every rational by one common denominator, so the sum runs in
    # integers; G coefficients are integers, and any that were not would
    # simply keep their term a Fraction.  Still exact.
    scale = lcm(*(Fraction(c).denominator
                  for c in [c for _, c in remainder] + [c for c, _ in certificate]
                  + list(terms.values())))
    rebuilt = {e: int(Fraction(c) * scale) for e, c in remainder}
    for coeff, eps in certificate:
        k = int(Fraction(coeff) * scale)
        for e, c in g(eps):
            rebuilt[e] = rebuilt.get(e, 0) + k * (c.numerator if c.denominator == 1 else c)
    expected = {e: Fraction(c) * scale for e, c in terms.items() if c}
    if {e: c for e, c in rebuilt.items() if c} != expected:
        return "input != remainder + sum(c * G_eps)"
    return None


def series_problem(n: int, series) -> str | None:
    expected = [ballot(n, k) for k in range(n)]
    return None if series == expected else f"series {series} != ballot numbers {expected}"


def record_terms(record) -> dict:
    return {tuple(t["exps"]): Fraction(t["coeff"]) for t in record["terms"]}


def gbasis_problem(eps, record) -> str | None:
    """G_eps has leading monomial X^eps with coefficient 1 and is homogeneous."""
    terms = record_terms(record)
    top = max(terms, key=graded_lex_key)
    if top != tuple(eps) or terms[top] != 1:
        return f"leading term {terms[top]}*X^{top}, expected X^{tuple(eps)}"
    if {sum(e) for e in terms} != {sum(eps)}:
        return "G element is not homogeneous"
    return None


def fundamental_problem(alpha, n, record) -> str | None:
    terms = record_terms(record)
    if terms != fundamental_terms(alpha, n):
        return f"F_{alpha} in {n} variables has the wrong support or coefficients"
    return None


def qsym_mul_problem(alpha, beta, n, record) -> str | None:
    """F_alpha * F_beta == sum(mult * F_gamma), with binom(|a|+|b|, |b|) words."""
    expansion = [(tuple(c["parts"]), c["multiplicity"]) for c in record["compositions"]]
    if sum(m for _, m in expansion) != comb(sum(alpha) + sum(beta), sum(beta)):
        return "shuffle multiplicities do not add up to the binomial"
    product = multiply(fundamental_terms(alpha, n), fundamental_terms(beta, n))
    combined = {}
    for gamma, mult in expansion:
        add_into(combined, fundamental_terms(gamma, n), mult)
    if record_terms(record) != product or combined != product:
        return "F_alpha * F_beta differs from its shuffle expansion"
    return None


def parse_json(stdout):
    try:
        return json.loads(stdout), None
    except ValueError:
        return None, "stdout is not JSON"
