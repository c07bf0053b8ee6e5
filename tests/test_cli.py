import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsymq
from conftest import polynomials
from qsymq import cli, combinat, oracle, quotient
from qsymq.cli import (
    ParseError,
    main,
    parse_polynomial,
    polynomial_from_record,
    render_path,
    render_polynomial,
)
from qsymq.poly import Polynomial
from qsymq.qsym import fundamental_qsym, monomial_qsym
from qsymq.quotient import ReductionResult, g_element, normal_form, shared_basis

_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<var>x(?P<index>\d+))|(?P<number>\d+)|(?P<op>[+\-*/^]))")


def _reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN.match(text, pos)
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


def reference_parse(text, n):
    """The earlier recursive-descent parser, kept as a reference for
    ``parse_polynomial``: same grammar, messages and positions."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    tokens = _reference_tokenize(text)
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


def parse_outcome(parser, text, n):
    """The polynomial, or the message and position of the ``ParseError``."""
    try:
        return parser(text, n)
    except ParseError as exc:
        return str(exc), exc.position


# short pieces whose concatenations form every token kind, malformed ones,
# out-of-range indices and a non-ASCII digit
_PIECES = ["x1", "x2", "x3", "x4", "x0", "x", "0", "1", "2", "13",
           "+", "-", "*", "/", "^", "&", "x12", "\u0663", " "]

# (text, error position) for n = 3
SYNTAX_ERRORS = [
    ("", 0), ("x1 +", 4), ("* x1", 0), ("x1 ^", 4), ("x1^x2", 3), ("1/", 2),
    ("1/0", 2), ("x", 0), ("3 & x1", 2), ("x1 x", 3), ("2^3", 1), ("x1 2", 3),
]


class TestParser:
    def test_fractional_coefficients(self):
        p = parse_polynomial("3/2*x1^2*x3 - x2", 3)
        assert p == Polynomial(3, {(2, 0, 1): Fraction(3, 2), (0, 1, 0): -1})

    def test_like_terms_combine(self):
        assert parse_polynomial("x1*x1", 2) == Polynomial.monomial(2, (2, 0))
        assert parse_polynomial("x1 - x1", 2).is_zero()

    def test_implicit_multiplication(self):
        assert parse_polynomial("2x1x2", 2) == Polynomial(2, {(1, 1): 2})

    def test_leading_sign_and_constants(self):
        assert parse_polynomial("-x2 + 1", 2) == Polynomial(2, {(0, 1): -1, (0, 0): 1})
        assert parse_polynomial("0", 3).is_zero()
        assert parse_polynomial("7/3", 1) == Polynomial.constant(1, Fraction(7, 3))

    def test_exponent_zero(self):
        assert parse_polynomial("x1^0", 2) == Polynomial.constant(2, 1)

    @pytest.mark.parametrize("bad,position", SYNTAX_ERRORS, ids=[t for t, _ in SYNTAX_ERRORS])
    def test_syntax_errors(self, bad, position):
        with pytest.raises(ParseError) as err:
            parse_polynomial(bad, 3)
        assert err.value.position == position

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x4", 3)
        assert "4" in str(err.value)
        with pytest.raises(ParseError):
            parse_polynomial("x0", 3)

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x1 + @", 2)
        assert err.value.position == 5

    @settings(max_examples=1000)
    @given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join), st.integers(1, 4))
    def test_matches_reference_parser(self, text, n):
        assert parse_outcome(parse_polynomial, text, n) == parse_outcome(reference_parse, text, n)


class TestRenderer:
    def test_zero(self):
        assert render_polynomial(Polynomial.zero(2)) == "0"

    def test_leading_term_of_g(self):
        text = render_polynomial(g_element((1, 0, 2, 0), 4))
        assert text.startswith("x1*x3^2")

    def test_descending_graded_lex(self):
        p = parse_polynomial("x2 + x1 + x1^2", 2)
        assert render_polynomial(p) == "x1^2 + x1 + x2"

    def test_negative_and_fraction(self):
        p = Polynomial(2, {(1, 0): Fraction(-3, 2), (0, 0): 1})
        assert render_polynomial(p) == "-3/2*x1 + 1"

    @given(polynomials(max_n=6, max_degree=6))
    @settings(max_examples=100)
    def test_round_trip(self, p):
        assert parse_polynomial(render_polynomial(p), p.n) == p


class TestPathRendering:
    def test_dyck_path_stays_above_diagonal(self):
        nu = (0, 0, 1, 2, 0, 1)
        lines = render_path(nu).splitlines()
        assert len(lines) == 6
        for row, line in zip(range(5, -1, -1), lines):
            rightmost = max(i for i, ch in enumerate(line) if ch in "_|")
            assert rightmost <= row

    def test_transdiagonal_path_crosses(self):
        lines = render_path((0, 3, 1, 1, 0, 2)).splitlines()
        crossed = False
        for row, line in zip(range(5, -1, -1), lines):
            rightmost = max(i for i, ch in enumerate(line) if ch in "_|")
            crossed = crossed or rightmost > row
        assert crossed

    def test_diagonal_marked(self):
        assert "." in render_path((0, 0, 1))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommands:
    def test_reduce_from_file(self, tmp_path, capsys):
        source = tmp_path / "input.txt"
        source.write_text("x2^2\n")
        code, out, _ = run_cli(capsys, "reduce", "-n", "2", "--file", str(source))
        assert code == 0
        assert out.strip() == "0"

    @pytest.mark.usefixtures("fresh_caches")
    def test_text_reduce_builds_no_g_of_degree_n_or_more(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "-n", "9", "--expr",
                               "x1^2*x2^2*x3^2*x4^2*x5^2")
        assert (code, out) == (0, "0\n")
        assert not shared_basis(9)._memo

    @pytest.mark.parametrize("argv,expected", [
        (["gbasis", "-n", "4", "--vector", "1,0,2"], lambda: g_element((1, 0, 2, 0), 4)),
        (["qsym", "-n", "3", "--monomial", "2,1"], lambda: monomial_qsym((2, 1), 3)),
        (["qsym", "-n", "4", "--fundamental", "1,2"], lambda: fundamental_qsym((1, 2), 4)),
        (["qsym-mul", "-n", "3", "--left", "2", "--right", "1,1"],
         lambda: fundamental_qsym((2,), 3) * fundamental_qsym((1, 1), 3)),
        (["reduce", "-n", "3", "--expr", "x1^2 + 2*x2 - 1/3"],
         lambda: normal_form(parse_polynomial("x1^2 + 2*x2 - 1/3", 3))),
        (["qsym-mul", "-n", "2", "--left", "1", "--right", "1"],
         lambda: parse_polynomial("x1^2 + 2*x1*x2 + x2^2", 2)),
    ])
    def test_json_terms_reingest(self, capsys, argv, expected):
        # every record with "terms" rebuilds the library's own polynomial, and
        # a reduce record the library's own remainder and certificate
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        record = json.loads(out)
        rebuilt = polynomial_from_record(record)
        if "certificate" in record:
            rebuilt = ReductionResult(rebuilt, [(Fraction(c["coeff"]), tuple(c["eps"]))
                                                for c in record["certificate"]])
        assert rebuilt == expected()

    def test_qsym_mul_counts_term_products(self, capsys, monkeypatch):
        # |F_21| = 10 and |F_1| = 4 in four variables: 40 term products
        argv = ("qsym-mul", "-n", "4", "--left", "2,1", "--right", "1")
        monkeypatch.setattr(combinat, "SIZE_CAP", 40)
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(combinat, "SIZE_CAP", 39)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("resource limit:")

    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-n", "3")
        assert code == 0
        assert "all checks passed" in out

    def test_verify_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-n", "2", "--json")
        record = json.loads(out)
        assert code == 0
        assert record["ok"] is True
        assert all(check["ok"] for check in record["checks"])

    @pytest.mark.parametrize("argv", [
        ["qsym", "-n", "3", "--fundamental", "2,1", "--json"],
        ["gbasis", "-n", "3", "--vector", "1,0,1", "--json"],
        ["reduce", "-n", "3", "--expr", "x1*x3 + 1/2", "--certificate", "--json"],
        ["qsym-mul", "-n", "3", "--left", "1", "--right", "1", "--json"],
    ])
    def test_json_builds_no_text(self, capsys, monkeypatch, argv):
        def refuse(p):
            raise AssertionError("text output built under --json")

        monkeypatch.setattr(cli, "render_polynomial", refuse)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["operation"].startswith(argv[0])


@pytest.mark.usefixtures("fresh_caches")
class TestVerifyCanFail:
    """Each check of ``verify`` reports a broken kernel or oracle."""

    def test_dropped_certificate_entry(self, capsys, monkeypatch):
        exact = quotient.GBasis.normal_form

        def drop_first(self, p):
            result = exact(self, p)
            return ReductionResult(result.remainder, result.certificate[1:])

        monkeypatch.setattr(quotient.GBasis, "normal_form", drop_first)
        code, out, _ = run_cli(capsys, "verify", "-n", "3")
        assert code == 3
        assert "FAIL certificates: certificate identity" in out.splitlines()

    def test_corrupted_g(self, capsys):
        # G_(0,0,3,0,1) is no G's `left` or `right`, and the Dyck term put
        # above its index leaves the reductions through it finite; the memo
        # holds each G element as its interned vector ids and its coefficients
        basis = shared_basis(5)
        basis._memo[(0, 0, 3, 0, 1)] = ((basis._id((0, 0, 3, 0, 1)),
                                         basis._id((0, 1, 0, 0, 3))), (1, 1))
        code, out, _ = run_cli(capsys, "verify", "-n", "5")
        assert code == 3
        assert "FAIL leading-monomials: failures: [(0, 0, 3, 0, 1)]" in out.splitlines()

    def test_ascending_oracle_columns(self, capsys, monkeypatch):
        # the ranks stay right, but the pivots are no longer leading monomials
        columns = oracle.degree_columns
        monkeypatch.setattr(oracle, "degree_columns", lambda n, d: columns(n, d)[::-1])
        code, out, _ = run_cli(capsys, "verify", "-n", "3", "--json")
        assert code == 3
        checks = {c["name"]: c["ok"] for c in json.loads(out)["checks"]}
        assert all(ok for name, ok in checks.items() if name.startswith("hilbert-vs-oracle"))
        assert (checks["staircase-n1"], checks["staircase-n2"]) == (True, False)


class TestExitCodes:
    @pytest.mark.parametrize("argv,expected", [
        (["hilbert", "-n", "6"], 0),
        (["hilbert"], 1),                                   # missing -n
        (["no-such-command"], 1),                           # unknown subcommand
        ([], 1),                                            # no subcommand
        (["gbasis", "-n", "2"], 1),                         # missing --vector
        (["gbasis", "-n", "2", "--vector", "0,1,0"], 1),    # vector longer than n
        (["hilbert", "-n", "40"], 1),                       # resource cap
        (["hilbert", "-n", "9", "--method", "oracle"], 1),  # oracle cap
        (["reduce", "-n", "2", "--expr", "x1 +"], 2),       # syntax error
        (["reduce", "-n", "2", "--expr", "x5"], 2),         # variable out of range
        (["member", "-n", "2", "--expr", "x1"], 3),         # not in the ideal
        (["member", "-n", "2", "--expr", "x1 + x2"], 0),
        (["gf-check", "--order", "2", "--as-printed"], 3),
        (["--help"], 0),
    ])
    def test_contract(self, capsys, argv, expected):
        assert main(argv) == expected

    def test_negative_max_degree(self, capsys):
        assert main(["verify", "-n", "3", "--max-degree", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_degree" in err
        assert "randrange" not in err

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int-string limit")
    @pytest.mark.parametrize("limit", [640, 10_000])
    @pytest.mark.parametrize("template,position", [
        ("x1 + {}", 5),  # coefficient
        ("x1^{}", 3),    # exponent
        ("x{}", 1),      # variable index
    ])
    def test_literal_over_int_string_limit(self, capsys, limit, template, position):
        # the limit is read at run time, as PYTHONINTMAXSTRDIGITS sets it
        expr = template.format("9" * (limit + 1))
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            code, out, err = run_cli(capsys, "reduce", "-n", "2", "--expr", expr)
        finally:
            sys.set_int_max_str_digits(default)
        assert (code, out) == (2, "")
        assert err.startswith("parse error:")
        assert err.endswith(f"(at position {position})\n")


class TestStartup:
    """A cold ``python -m qsymq`` pays for every module it imports: neither
    the package nor its CLI loads ``dataclasses`` or the modules it brings
    in (a deny-list, since the stdlib's own imports vary between versions),
    and each subcommand loads only the ``qsymq`` modules it runs."""

    HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

    @staticmethod
    def fresh(probe):
        """Run ``probe`` in a new interpreter; return its last stdout line, split."""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    @pytest.mark.parametrize("module", ["qsymq", "qsymq.cli"])
    def test_no_heavy_imports(self, module):
        added = self.fresh("import sys; before = set(sys.modules); "
                           f"import {module}; print(*sorted(set(sys.modules) - before))")
        assert module in added
        assert not added & self.HEAVY, sorted(added & self.HEAVY)

    def test_package_loads_no_submodule(self):
        loaded = self.fresh("import sys, qsymq; print(*(m for m in sys.modules "
                            "if m.startswith('qsymq')))")
        assert loaded == {"qsymq"}

    QUOTIENT = {"cli", "combinat", "poly", "qsym", "quotient"}
    QSYM = {"cli", "combinat", "poly", "qsym"}
    ORACLE = {"cli", "combinat", "oracle"}  # the oracle shares only combinat with G

    SUBCOMMANDS = [
        (["reduce", "-n", "4", "--expr", "x1^2*x4"], QUOTIENT),
        (["member", "-n", "2", "--expr", "x1 + x2"], QUOTIENT),
        (["gbasis", "-n", "3", "--vector", "1,0,1"], QUOTIENT),
        (["qsym", "-n", "3", "--fundamental", "2,1"], QSYM),
        (["qsym-mul", "-n", "2", "--left", "1", "--right", "1"], QSYM),
        (["basis", "-n", "3"], {"cli", "combinat"}),
        (["hilbert", "-n", "1"], ORACLE),
        (["hilbert", "-n", "3", "--method", "oracle"], ORACLE),
        (["gf-check", "--order", "3"], ORACLE | {"poly"}),
        (["verify", "-n", "2"], QUOTIENT | ORACLE),
    ]

    @pytest.mark.parametrize("argv, modules", SUBCOMMANDS,
                             ids=[" ".join(argv) for argv, _ in SUBCOMMANDS])
    def test_subcommand_loads_only_what_it_runs(self, argv, modules):
        loaded = self.fresh("import sys; from qsymq.cli import main; "
                            f"code = main({argv!r}); print(code, *(m for m in sys.modules "
                            "if m.startswith('qsymq.')))")
        assert loaded == {"0"} | {f"qsymq.{m}" for m in modules}  # exit code 0

    EXACT = ["decimal", "fractions", "json"]  # json only under --json
    STDLIB = [
        (["hilbert", "-n", "1"], set()),
        (["basis", "-n", "3"], set()),
        (["hilbert", "-n", "3", "--method", "oracle", "--json"], {"json"}),
    ]

    @pytest.mark.parametrize("argv, wanted", STDLIB,
                             ids=[" ".join(argv) for argv, _ in STDLIB])
    def test_stdlib_loaded_only_where_used(self, argv, wanted):
        loaded = self.fresh("import sys; from qsymq.cli import main; "
                            f"code = main({argv!r}); print(code, *(m for m in sys.modules "
                            f"if m in {self.EXACT!r}))")
        assert loaded == {"0"} | wanted  # exit code 0


class TestPackage:
    """``import qsymq`` defers each public name to its submodule (PEP 562)."""

    NAMES = [
        "GBasis", "HilbertSeries", "Polynomial", "ReductionResult", "ResourceLimitError",
        "ballot", "catalan", "combinat", "composition_from_subset", "coordinates",
        "descent_set", "diff_pairing", "dn_k", "enumerate_dyck", "enumerate_transdiagonal",
        "f_product", "fundamental_qsym", "g_element", "generating_function_check",
        "hilbert_series", "ideal_degree_rank", "is_dyck", "is_member", "monomial_qsym",
        "normal_form", "oracle", "path_statistics", "poly", "qsym", "quotient",
        "quotient_dims", "refinements", "row_space_member", "shuffles", "vector_to_dyck_word",
    ]
    SUBMODULES = {"combinat", "poly", "qsym", "quotient", "oracle"}

    def test_all_is_unchanged(self):
        assert qsymq.__all__ == self.NAMES

    @pytest.mark.parametrize("name", NAMES)
    def test_name_is_the_submodule_object(self, name):
        value = getattr(qsymq, name)
        if name in self.SUBMODULES:
            assert value is importlib.import_module(f"qsymq.{name}")
        else:
            assert value is getattr(importlib.import_module(value.__module__), name)
            assert value.__module__.removeprefix("qsymq.") in self.SUBMODULES
        assert name in dir(qsymq)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            qsymq.no_such_name
        assert not hasattr(qsymq, "__wrapped__")


class TestPolynomialCost:
    """Inputs whose cost once grew with 2 ** degree or with the size of a
    whole degree slice rather than the terms present, or that must be refused
    with a resource-limit message; each must finish well inside the timeout."""

    @staticmethod
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "qsymq", *argv],
                              capture_output=True, text=True, timeout=10)

    def test_dyck_only_slice_not_enumerated(self):
        proc = self.run("reduce", "-n", "16", "--expr", "x1+x16^15")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "x16^15 - " + " - ".join(
            f"x{i}" for i in range(2, 17))

    def test_transdiagonal_term_in_wide_slice(self):
        # G_(1^16) is the single monomial x1...x16, out of C(31, 15) vectors
        expr = "*".join(f"x{i}" for i in range(1, 17))
        proc = self.run("reduce", "-n", "16", "--expr", expr)
        assert proc.returncode == 0 and proc.stdout.strip() == "0"

    def test_reduce_high_power(self):
        proc = self.run("reduce", "-n", "3", "--expr", "x1^18")
        assert proc.returncode == 0 and proc.stdout.strip() == "0"

    def test_member_high_power(self):
        proc = self.run("member", "-n", "3", "--expr", "x1^18")
        assert proc.returncode == 0 and proc.stdout.strip() == "in ideal"

    def test_member_drops_degree_n_and_above(self):
        # all of degree 10 >= n, so nothing is left to reduce; reducing it
        # takes 1,475 steps through G elements of about 5.4 M terms in total
        proc = self.run("member", "-n", "9", "--expr", "x1^2*x2^2*x3^2*x4^2*x5^2")
        assert proc.returncode == 0 and proc.stdout.strip() == "in ideal"

    @pytest.mark.parametrize("argv", [
        ("reduce", "-n", "3", "--expr", "x1^99999999"),
        ("reduce", "-n", "1100", "--expr", "x1100^1100"),
        # 1,475 steps through about 5.4 M G terms when reduced
        ("reduce", "-n", "9", "--expr", "x1^2*x2^2*x3^2*x4^2*x5^2"),
    ])
    def test_text_reduce_drops_degree_n_and_above(self, argv):
        proc = self.run(*argv)
        assert proc.returncode == 0 and proc.stdout == "0\n"

    def test_oracle_cap_is_not_raised_by_environment(self, monkeypatch):
        monkeypatch.setenv("QSYMQ_MAX_N", "9")
        proc = self.run("hilbert", "-n", "9", "--method", "oracle")
        assert proc.returncode == 1
        assert proc.stderr.startswith("resource limit:")

    @pytest.mark.parametrize("n", ["9", "12", "20"])
    def test_verify_counts_g_chains_first(self, n):
        proc = self.run("verify", "-n", n)
        assert proc.returncode == 1
        assert proc.stderr.startswith("resource limit:")

    def test_verify_refuses_before_enumerating(self):
        proc = self.run("verify", "-n", "1500")
        assert proc.returncode == 1
        assert proc.stderr == ("resource limit: Dyck enumeration capped at n <= 12;"
                               " got n = 1500\n")

    def test_long_shuffle_word(self):
        proc = self.run("qsym-mul", "-n", "2", "--left", "2000", "--right", "1")
        assert proc.returncode == 0 and proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert len(lines) == 2002 and lines[0] == "1 * F_1,2000"

    @pytest.mark.parametrize("argv", [
        # a certificate needs the G element; text-mode reduce drops degree >= n
        ("reduce", "-n", "3", "--expr", "x1^99999999", "--certificate"),
        ("gbasis", "-n", "3", "--vector", "99999999"),
        ("qsym-mul", "-n", "3", "--left", "12", "--right", "12"),
        # the G recursion is about n deep before it reaches F_(1100)
        ("reduce", "-n", "1100", "--expr", "x1100^1100", "--certificate"),
        # tiny output, but the G chain copies ~C(447, 2) terms 445 times
        ("reduce", "-n", "447", "--expr", "x1*x447"),
        # C(600, 2) terms of M_11, and C(600, 1) ** 2 term products of F_1 * F_1
        ("qsym", "-n", "600", "--monomial", "1,1", "--json"),
        ("qsym-mul", "-n", "600", "--left", "1", "--right", "1", "--json"),
    ])
    def test_oversized_expansion_refused(self, argv):
        proc = self.run(*argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("resource limit:")

    def test_fundamental_high_degree(self):
        proc = self.run("qsym", "-n", "3", "--fundamental", "22", "--json")
        assert proc.returncode == 0
        terms = json.loads(proc.stdout)["terms"]
        assert len(terms) == comb(24, 2)
        assert all(t["coeff"] == "1" for t in terms)


class TestVerifyMemory:
    # the child reads its own VmHWM, its peak resident set since it exec'd;
    # ru_maxrss of a vfork-and-exec child can carry its parent's peak
    CHILD = (
        "import sys\n"
        "from qsymq.cli import main\n"
        "code = main(['verify', '-n', '8'])\n"
        "with open('/proc/self/status') as status:\n"
        "    kb = next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
        "print(kb, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    @pytest.mark.slow
    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_verify_8_peak_rss(self):
        # all 11,440 G elements of degree <= 8, about 5.5 M terms, stay in
        # the memo: about 130 MiB at peak as tuples, 290 MiB as dicts
        proc = subprocess.run([sys.executable, "-c", self.CHILD],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        peak_mib = int(proc.stderr.split()[-1]) / 1024
        assert peak_mib < 160, peak_mib


@pytest.mark.parametrize("check, args, message", [
    (parse_polynomial, ("x1", 0), "need n >= 1, got 0"),
    (cli._vector_arg, ("1,-1", 2), "vector entries must be >= 0, got '1,-1'"),
], ids=["parse_polynomial", "vector_arg"])
def test_input_checks(check, args, message):
    with pytest.raises(ValueError) as info:
        check(*args)
    assert str(info.value) == message
