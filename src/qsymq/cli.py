"""Command-line interface: expression parsing, rendering, and subcommands.

Polynomial grammar (whitespace insignificant)::

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := coeff? ('*'? factor)*     -- at least a coeff or one factor
    factor := 'x' index ('^' exponent)?
    coeff  := integer ('/' positive-integer)?

It has no nesting, so one pass over the tokens reads it.  An integer literal
longer than Python's int-string limit is a parse error.  Variables are
1-based ``x1..xn``.  Vectors and compositions on the command line are
comma-separated without brackets; vector trailing zeros may be omitted and
are padded to ``n``.

JSON output schema: ``{"n": int, "operation": str,
"terms": [{"coeff": "p/q", "exps": [..]}],
"certificate": [{"coeff": "p/q", "eps": [..]}]?, "series": [int..]?,
"report": [{"degree", "columns", "generator_rows", "rank", "dimension"}]?}``
with coefficients rendered as exact text; ``report`` comes from
``hilbert --method oracle --report``.

Output: each subcommand computes its whole answer first; ``main`` then
renders it, as one JSON record under ``--json`` or else as text, and prints
it only once rendering has succeeded.  An error prints nothing to stdout and
its message to stderr.

Exit codes: 0 success, 1 usage error, 2 expression parse error,
3 verification mismatch or negative membership verdict.
"""

import argparse
import re
import sys

from .combinat import ResourceLimitError, check_vector, enumerate_dyck


class ParseError(ValueError):
    """Syntax or domain error in a polynomial expression; carries a position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"x(?P<var>\d+)|(?P<number>\d+)|(?P<op>[+\-*/^])|(?P<bad>\S)")


def _tokenize(text):
    """``(kind, value, position)`` triples, then ``("end", None, len(text))``;
    whitespace matches no group of ``_TOKEN`` and is skipped."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        value = match.group(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", match.start())
        if kind != "op":
            try:
                value = int(value)
            except ValueError:
                raise ParseError("integer literal too long", match.start(kind)) from None
        tokens.append((kind, value, match.start()))
    tokens.append(("end", None, len(text)))
    return tokens


def parse_polynomial(text: str, n: int) -> "Polynomial":
    """Parse an expression in the grammar above into an exact polynomial.

    Each pass reads one item: a sign before the first term, a coefficient,
    a '*', a factor, or the sign or end of input that closes a term.
    """
    from fractions import Fraction

    from .poly import Polynomial
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    tokens = _tokenize(text)
    terms = {}
    coeff = Fraction(1)
    exps = [0] * n
    seen = False
    at = 0
    while True:
        kind, value, pos = tokens[at]
        at += 1
        if kind == "op" and value in "+-" and at == 1:
            coeff = Fraction(-1 if value == "-" else 1)
        elif kind == "number" and not seen:
            coeff *= value
            seen = True
            if tokens[at][:2] == ("op", "/"):
                kind, value, pos = tokens[at + 1]
                if kind != "number":
                    raise ParseError("expected a denominator after '/'", pos)
                if value == 0:
                    raise ParseError("zero denominator", pos)
                coeff /= value
                at += 2
        elif kind == "op" and value == "*":
            if not seen:
                raise ParseError("'*' needs a left operand", pos)
            if tokens[at][0] != "var":
                raise ParseError("expected a variable after '*'", tokens[at][2])
        elif kind == "var":
            if not 1 <= value <= n:
                raise ParseError(f"variable index {value} outside [1, {n}]", pos)
            exponent = 1
            if tokens[at][:2] == ("op", "^"):
                kind, exponent, pos = tokens[at + 1]
                if kind != "number":
                    raise ParseError("expected an exponent after '^'", pos)
                at += 2
            exps[value - 1] += exponent
            seen = True
        elif not seen:
            raise ParseError("expected a term", pos)
        else:
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
            if kind == "end":
                return Polynomial(n, terms)
            if kind != "op" or value not in "+-":
                raise ParseError("expected '+', '-' or end of input", pos)
            coeff = Fraction(-1 if value == "-" else 1)
            exps = [0] * n
            seen = False


# ---------------------------------------------------------------------------
# rendering


def render_polynomial(p: "Polynomial") -> str:
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


def polynomial_from_record(record) -> "Polynomial":
    """Rebuild a polynomial from the JSON schema above.  It belongs to the
    package, not to the tests: the bench (``perfbench/run.py``) reads the
    remainder of each ``reduce --json`` record back through it to check the
    answer."""
    from fractions import Fraction

    from .poly import Polynomial
    return Polynomial(record["n"],
                      {tuple(t["exps"]): Fraction(t["coeff"]) for t in record["terms"]})


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
# subcommands: each computes everything, then returns (exit code, record,
# text), where text() yields the output lines and only renders; main prints.
# Each imports the modules it calls, so a process loads only what it runs;
# ``Fraction``, ``Polynomial`` and ``json`` load only where they are used.


def cmd_hilbert(args):
    from . import oracle
    if args.report and args.method != "oracle":
        raise ValueError(f"--report needs --method oracle, got --method {args.method}")
    series = oracle.hilbert_series(args.n, args.method)
    record = {"n": args.n, "operation": "hilbert", "method": args.method,
              "series": list(series.coefficients)}
    if args.report:
        record["report"] = [oracle.rank_record(args.n, d) for d in range(args.n)]

    def text():
        yield str(series)
        for r in record.get("report", ()):
            yield f"degree {r['degree']} slice in {args.n} variables:"
            yield f"  columns (monomials): {r['columns']}"
            yield f"  generator rows:      {r['generator_rows']}"
            yield f"  rank:                {r['rank']}"
            yield f"  quotient dimension:  {r['dimension']}"
    return 0, record, text


def cmd_basis(args):
    vectors = enumerate_dyck(args.n, args.k)
    record = {"n": args.n, "operation": "basis", "count": len(vectors),
              "vectors": [list(v) for v in vectors]}

    def text():
        for vec in vectors:
            yield ",".join(str(e) for e in vec)
            if args.paths:
                yield render_path(vec)
                yield ""
    return 0, record, text


def cmd_gbasis(args):
    from . import quotient
    from .poly import Polynomial
    eps = _vector_arg(args.vector, args.n)
    poly = quotient.g_element(eps, args.n)
    exps, coeff = poly.leading_monomial()
    record = _polynomial_record(
        "gbasis", poly,
        leading={"coeff": str(coeff), "exps": list(exps)})
    return 0, record, lambda: [
        render_polynomial(poly),
        f"leading monomial: {render_polynomial(Polynomial.monomial(args.n, exps, coeff))}",
    ]


def cmd_reduce(args):
    from . import quotient
    p = parse_polynomial(_expression(args), args.n)
    if not (args.certificate or args.json):  # no certificate: drop degree >= n
        remainder = quotient.shared_basis(args.n).remainder(p)
        return 0, None, lambda: [render_polynomial(remainder)]  # no --json, no record
    result = quotient.normal_form(p)
    certificate = [{"coeff": str(c), "eps": list(e)}
                   for c, e in result.certificate]
    record = _polynomial_record("reduce", result.remainder, certificate=certificate)
    return 0, record, lambda: (
        [render_polynomial(result.remainder), "certificate:"]
        + [f"  {c} * G_{','.join(str(x) for x in e)}" for c, e in result.certificate])


def cmd_member(args):
    from . import quotient
    p = parse_polynomial(_expression(args), args.n)
    inside = quotient.is_member(p)
    record = {"n": args.n, "operation": "member", "member": inside}
    return (0 if inside else 3), record, lambda: ["in ideal" if inside else "not in ideal"]


def cmd_qsym(args):
    from .qsym import fundamental_qsym, monomial_qsym
    if args.monomial is not None:
        name, poly = "qsym-monomial", monomial_qsym(_composition_arg(args.monomial), args.n)
    else:
        alpha = _composition_arg(args.fundamental)
        name, poly = "qsym-fundamental", fundamental_qsym(alpha, args.n)
    return 0, _polynomial_record(name, poly), lambda: [render_polynomial(poly)]


def cmd_qsym_mul(args):
    from .qsym import f_product, fundamental_qsym
    alpha = _composition_arg(args.left)
    beta = _composition_arg(args.right)
    expansion = f_product(alpha, beta)
    product = fundamental_qsym(alpha, args.n) * fundamental_qsym(beta, args.n)
    record = _polynomial_record(
        "qsym-mul", product,
        compositions=[{"parts": list(g), "multiplicity": m} for g, m in expansion])
    return 0, record, lambda: (
        [f"{m} * F_{','.join(str(p) for p in g) if g else '0'}" for g, m in expansion]
        + [f"product: {render_polynomial(product)}"])


def cmd_gf_check(args):
    from . import oracle
    holds = oracle.generating_function_check(args.order, as_printed=args.as_printed)
    form = "printed (-2t)" if args.as_printed else "corrected (-2x)"
    record = {"operation": "gf-check", "order": args.order,
              "form": form, "holds": holds}
    verdict = (f"{form} numerator: identity "
               f"{'holds' if holds else 'FAILS'} mod x^{args.order + 1}")
    return (0 if holds else 3), record, lambda: [verdict]


def cmd_verify(args):
    from . import oracle
    checks = oracle.verify(args.n, args.max_degree)
    failed = sum(not item["ok"] for item in checks)
    record = {"n": args.n, "operation": "verify", "checks": checks, "ok": not failed}
    return (3 if failed else 0), record, lambda: (
        [f"ok   {c['name']}" if c["ok"] else f"FAIL {c['name']}: {c['detail']}" for c in checks]
        + [f"{failed} check(s) failed" if failed else "all checks passed"])


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
    try:  # render inside the try too: str() of a huge int raises ValueError
        code, record, text = args.handler(args)
        if args.json:
            import json
            lines = [json.dumps(record)]
        else:
            lines = list(text())
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
