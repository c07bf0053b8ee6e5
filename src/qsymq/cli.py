"""Command-line interface: expression parsing, rendering, and subcommands.

Polynomial grammar (whitespace insignificant)::

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := coeff? ('*'? factor)*     -- at least a coeff or one factor
    factor := 'x' index ('^' exponent)?
    coeff  := integer ('/' positive-integer)?

Variables are 1-based ``x1..xn``.  Vectors and compositions on the command
line are comma-separated without brackets; vector trailing zeros may be
omitted and are padded to ``n``.

JSON output schema: ``{"n": int, "operation": str,
"terms": [{"coeff": "p/q", "exps": [..]}],
"certificate": [{"coeff": "p/q", "eps": [..]}]?, "series": [int..]?}``
with coefficients rendered as exact text.

Exit codes: 0 success, 1 usage error, 2 expression parse error,
3 verification mismatch or negative membership verdict.
"""

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from . import combinat, oracle, quotient
from .combinat import ResourceLimitError, check_vector, enumerate_dyck, is_dyck
from .poly import Polynomial, random_polynomial
from .qsym import f_product, fundamental_qsym, monomial_qsym


class ParseError(ValueError):
    """Syntax or domain error in a polynomial expression; carries a position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"\s*(?:(?P<var>x(?P<index>\d+))|(?P<number>\d+)|(?P<op>[+\-*/^]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[where]!r}", where)
        if match.group("var"):
            tokens.append(("var", int(match.group("index")), match.start("var")))
        elif match.group("number"):
            tokens.append(("number", int(match.group("number")), match.start("number")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse an expression in the grammar above into an exact polynomial."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    tokens = _tokenize(text)
    at = 0

    def peek():
        return tokens[at]

    def take():
        nonlocal at
        token = tokens[at]
        at += 1
        return token

    def parse_factor(exps):
        kind, value, pos = take()
        assert kind == "var"
        if not 1 <= value <= n:
            raise ParseError(f"variable index {value} outside [1, {n}]", pos)
        exponent = 1
        if peek()[0] == "op" and peek()[1] == "^":
            take()
            kind, value2, pos2 = take()
            if kind != "number":
                raise ParseError("expected an exponent after '^'", pos2)
            exponent = value2
        exps[value - 1] += exponent

    def parse_term():
        coeff = Fraction(1)
        exps = [0] * n
        seen = False
        kind, value, pos = peek()
        if kind == "number":
            take()
            coeff = Fraction(value)
            seen = True
            if peek()[0] == "op" and peek()[1] == "/":
                take()
                kind2, value2, pos2 = take()
                if kind2 != "number":
                    raise ParseError("expected a denominator after '/'", pos2)
                if value2 == 0:
                    raise ParseError("zero denominator", pos2)
                coeff /= value2
        while True:
            kind, value, pos = peek()
            if kind == "op" and value == "*":
                if not seen:
                    raise ParseError("'*' needs a left operand", pos)
                take()
                kind, value, pos = peek()
                if kind != "var":
                    raise ParseError("expected a variable after '*'", pos)
                parse_factor(exps)
                seen = True
            elif kind == "var":
                parse_factor(exps)
                seen = True
            else:
                break
        if not seen:
            raise ParseError("expected a term", peek()[2])
        return coeff, tuple(exps)

    terms = {}
    sign = 1
    kind, value, pos = peek()
    if kind == "op" and value in "+-":
        take()
        sign = -1 if value == "-" else 1
    while True:
        coeff, exps = parse_term()
        terms[exps] = terms.get(exps, 0) + sign * coeff
        kind, value, pos = peek()
        if kind == "end":
            break
        if kind == "op" and value in "+-":
            take()
            sign = -1 if value == "-" else 1
        else:
            raise ParseError("expected '+', '-' or end of input", pos)
    return Polynomial(n, terms)


# ---------------------------------------------------------------------------
# rendering


def render_polynomial(p: Polynomial) -> str:
    """Canonical text form: terms in descending graded lex; parses back to p."""
    if p.is_zero():
        return "0"
    pieces = []
    for exps, coeff in p.sorted_terms():
        factors = []
        for i, e in enumerate(exps, start=1):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = f"{magnitude}*" + "*".join(factors)
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"{'-' if coeff < 0 else '+'} {body}")
    return " ".join(pieces)


def render_path(nu) -> str:
    """ASCII drawing of the north/east path of a vector, diagonal dotted.

    Row ``y`` (printed top-down from y = n-1) shows the east run at height
    ``y`` as underscores and the north step leaving it as a bar; the cell on
    the diagonal is marked with a dot when the path does not cover it.
    """
    nu = check_vector(nu)
    n = len(nu)
    sums = [0]
    for e in nu:
        sums.append(sums[-1] + e)
    width = max(sums[-1], n) + 1
    lines = []
    for y in range(n - 1, -1, -1):
        row = [" "] * width
        row[y] = "."
        for cell in range(sums[y], sums[y + 1]):
            row[cell] = "_"
        row[sums[y + 1]] = "|"
        lines.append("".join(row).rstrip())
    return "\n".join(lines)


def _polynomial_record(name, p, **extra):
    record = {
        "n": p.n,
        "operation": name,
        "terms": [{"coeff": str(c), "exps": list(e)} for e, c in p.sorted_terms()],
    }
    record.update(extra)
    return record


def polynomial_from_record(record) -> Polynomial:
    """Rebuild a polynomial from the JSON schema above."""
    return Polynomial(record["n"],
                      {tuple(t["exps"]): Fraction(t["coeff"]) for t in record["terms"]})


def _emit(args, record, text):
    if args.json:
        print(json.dumps(record))
    else:
        print(text)


# ---------------------------------------------------------------------------
# argument helpers


def _parse_int_list(text, what):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}")


def _vector_arg(text, n):
    vec = _parse_int_list(text, "vector")
    if len(vec) > n:
        raise ValueError(f"vector {text!r} longer than n = {n}")
    if any(e < 0 for e in vec):
        raise ValueError(f"vector entries must be >= 0, got {text!r}")
    return vec + (0,) * (n - len(vec))


def _composition_arg(text):
    if text == "":
        return ()
    parts = _parse_int_list(text, "composition")
    if any(p < 1 for p in parts):
        raise ValueError(f"composition parts must be >= 1, got {text!r}")
    return parts


def _expression(args):
    if getattr(args, "file", None):
        with open(args.file, encoding="utf-8") as handle:
            return handle.read()
    return args.expr


# ---------------------------------------------------------------------------
# subcommands


def cmd_hilbert(args) -> int:
    series = oracle.hilbert_series(args.n, args.method)
    record = {"n": args.n, "operation": "hilbert", "method": args.method,
              "series": list(series.coefficients)}
    _emit(args, record, str(series))
    if args.report and args.method == "oracle" and not args.json:
        for d in range(args.n):
            print(oracle.rank_report(args.n, d))
    return 0


def cmd_basis(args) -> int:
    vectors = enumerate_dyck(args.n, args.k)
    record = {"n": args.n, "operation": "basis", "count": len(vectors),
              "vectors": [list(v) for v in vectors]}
    if args.json:
        print(json.dumps(record))
        return 0
    for vec in vectors:
        print(",".join(str(e) for e in vec))
        if args.paths:
            print(render_path(vec))
            print()
    return 0


def cmd_gbasis(args) -> int:
    eps = _vector_arg(args.vector, args.n)
    poly = quotient.g_element(eps, args.n)
    exps, coeff = poly.leading_monomial()
    record = _polynomial_record(
        "gbasis", poly,
        leading={"coeff": str(coeff), "exps": list(exps)})
    text = "\n".join([
        render_polynomial(poly),
        f"leading monomial: {render_polynomial(Polynomial.monomial(args.n, exps, coeff))}",
    ])
    _emit(args, record, text)
    return 0


def cmd_reduce(args) -> int:
    p = parse_polynomial(_expression(args), args.n)
    result = quotient.normal_form(p)
    certificate = [{"coeff": str(c), "eps": list(e)}
                   for c, e in result.certificate]
    record = _polynomial_record("reduce", result.remainder, certificate=certificate)
    lines = [render_polynomial(result.remainder)]
    if args.certificate:
        lines.append("certificate:")
        for c, e in result.certificate:
            lines.append(f"  {c} * G_{','.join(str(x) for x in e)}")
    _emit(args, record, "\n".join(lines))
    return 0


def cmd_member(args) -> int:
    p = parse_polynomial(_expression(args), args.n)
    inside = quotient.is_member(p)
    record = {"n": args.n, "operation": "member", "member": inside}
    _emit(args, record, "in ideal" if inside else "not in ideal")
    return 0 if inside else 3


def cmd_qsym(args) -> int:
    if args.monomial is not None:
        alpha = _composition_arg(args.monomial)
        poly = monomial_qsym(alpha, args.n)
        name = "qsym-monomial"
    else:
        alpha = _composition_arg(args.fundamental)
        poly = fundamental_qsym(alpha, args.n)
        name = "qsym-fundamental"
    _emit(args, _polynomial_record(name, poly), render_polynomial(poly))
    return 0


def cmd_qsym_mul(args) -> int:
    alpha = _composition_arg(args.left)
    beta = _composition_arg(args.right)
    expansion = f_product(alpha, beta)
    product = fundamental_qsym(alpha, args.n) * fundamental_qsym(beta, args.n)
    record = _polynomial_record(
        "qsym-mul", product,
        compositions=[{"parts": list(g), "multiplicity": m} for g, m in expansion])
    lines = [f"{m} * F_{','.join(str(p) for p in g) if g else '0'}"
             for g, m in expansion]
    lines.append(f"product: {render_polynomial(product)}")
    _emit(args, record, "\n".join(lines))
    return 0


def cmd_gf_check(args) -> int:
    holds = oracle.generating_function_check(args.order, as_printed=args.as_printed)
    form = "printed (-2t)" if args.as_printed else "corrected (-2x)"
    record = {"operation": "gf-check", "order": args.order,
              "form": form, "holds": holds}
    verdict = (f"{form} numerator: identity "
               f"{'holds' if holds else 'FAILS'} mod x^{args.order + 1}")
    _emit(args, record, verdict)
    return 0 if holds else 3


def _verify_checks(n, max_degree, long_run):
    failures = []
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            failures.append(name)

    for m in range(1, n + 1):
        formula = oracle.hilbert_series(m, "formula")
        enum = oracle.hilbert_series(m, "enum")
        check(f"hilbert-formula-vs-enum-n{m}", formula == enum,
              f"{formula} vs {enum}")
    oracle_top = min(n, 6 if long_run else 4)
    for m in range(1, oracle_top + 1):
        formula = oracle.hilbert_series(m, "formula")
        byrank = oracle.hilbert_series(m, "oracle")
        check(f"hilbert-vs-oracle-n{m}", formula == byrank,
              f"{formula} vs {byrank}")

    basis = quotient.shared_basis(n)
    bad = []
    for eps in quotient.enumerate_transdiagonal(n, min(max_degree, n)):
        exps, coeff = basis.g(eps).leading_monomial()
        if exps != eps or coeff != 1:
            bad.append(eps)
    check("leading-monomials", not bad, f"failures: {bad[:5]}")

    rng = random.Random(20_000 + n)
    degree_top = min(max_degree, n + 1)
    bad = []
    for _ in range(25):
        p = random_polynomial(rng, n, degree_top)
        result = basis.normal_form(p)
        rebuilt = result.remainder
        for coeff, eps in result.certificate:
            rebuilt = rebuilt + basis.g(eps).scale(coeff)
        if rebuilt != p:
            bad.append("certificate identity")
            break
        if any(not is_dyck(e) for e in result.remainder.support()):
            bad.append("remainder support")
            break
        again = basis.normal_form(result.remainder)
        if again.remainder != result.remainder or again.certificate:
            bad.append("idempotence")
            break
    check("certificates", not bad, "; ".join(bad))

    if n <= 5:
        residue = [v for v in combinat.vectors_of_degree(n, n)
                   if not basis.normal_form(Polynomial.monomial(n, v)).remainder.is_zero()]
        check("degree-n-vanishing", not residue, f"failures: {residue[:5]}")
    return checks, failures


def cmd_verify(args) -> int:
    max_degree = args.max_degree if args.max_degree is not None else args.n
    checks, failures = _verify_checks(args.n, max_degree, args.long)
    record = {"n": args.n, "operation": "verify", "checks": checks,
              "ok": not failures}
    if args.json:
        print(json.dumps(record))
    else:
        for item in checks:
            if item["ok"]:
                print(f"ok   {item['name']}")
            else:
                print(f"FAIL {item['name']}: {item['detail']}")
        print("all checks passed" if not failures
              else f"{len(failures)} check(s) failed")
    return 0 if not failures else 3


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsymq",
        description="Exact arithmetic in the quotient of Q[x1..xn] by the "
                    "ideal of constant-free quasi-symmetric polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n=True):
        if n:
            p.add_argument("-n", type=int, required=True, metavar="N",
                           help="number of variables")
        p.add_argument("--json", action="store_true",
                       help="emit a structured JSON record")

    p = sub.add_parser("hilbert", help="graded dimensions of the quotient")
    common(p)
    p.add_argument("--method", choices=["formula", "enum", "oracle"],
                   default="formula")
    p.add_argument("--report", action="store_true",
                   help="with --method oracle: per-degree elimination report")
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("basis", help="Dyck monomial basis of the quotient")
    common(p)
    p.add_argument("-k", type=int, default=None, metavar="K",
                   help="restrict to degree K")
    p.add_argument("--paths", action="store_true", help="draw ASCII paths")
    p.set_defaults(handler=cmd_basis)

    p = sub.add_parser("gbasis", help="expansion of one G element")
    common(p)
    p.add_argument("--vector", required=True, metavar="E",
                   help="transdiagonal index, comma-separated")
    p.set_defaults(handler=cmd_gbasis)

    p = sub.add_parser("reduce", help="normal form on the Dyck basis")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", metavar="TEXT", help="polynomial expression")
    group.add_argument("--file", metavar="PATH", help="file with an expression")
    p.add_argument("--certificate", action="store_true",
                   help="print the membership certificate")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("member", help="ideal membership verdict (exit 3 if not)")
    common(p)
    p.add_argument("--expr", required=True, metavar="TEXT")
    p.set_defaults(handler=cmd_member)

    p = sub.add_parser("qsym", help="expand a quasi-symmetric basis element")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--monomial", metavar="A",
                       help="composition for the monomial element")
    group.add_argument("--fundamental", metavar="A",
                       help="composition for the fundamental element")
    p.set_defaults(handler=cmd_qsym)

    p = sub.add_parser("qsym-mul", help="product of two fundamentals")
    common(p)
    p.add_argument("--left", required=True, metavar="A")
    p.add_argument("--right", required=True, metavar="B")
    p.set_defaults(handler=cmd_qsym_mul)

    p = sub.add_parser("verify", help="run the cross-check suite (exit 3 on mismatch)")
    common(p)
    p.add_argument("--max-degree", type=int, default=None, metavar="D")
    p.add_argument("--long", action="store_true",
                   help="include the slow exact-elimination checks")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("gf-check", help="generating-function identity verdict")
    common(p, n=False)
    p.add_argument("--order", type=int, default=10, metavar="K")
    p.add_argument("--as-printed", action="store_true", dest="as_printed",
                   help="use the defective -2t numerator")
    p.set_defaults(handler=cmd_gf_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
