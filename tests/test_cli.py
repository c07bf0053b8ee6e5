import json
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings

from conftest import polynomials
from qsymq import cli
from qsymq.cli import (
    ParseError,
    main,
    parse_polynomial,
    polynomial_from_record,
    render_path,
    render_polynomial,
)
from qsymq.poly import Polynomial
from qsymq.quotient import g_element, normal_form


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

    @pytest.mark.parametrize("bad", [
        "", "x1 +", "* x1", "x1 ^", "x1^x2", "1/", "1/0", "x", "3 & x1", "x1 x",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            parse_polynomial(bad, 3)

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
    def test_hilbert_text(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", "-n", "6")
        assert code == 0
        assert out.strip() == "1 5 14 28 42 42"

    def test_hilbert_json(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", "-n", "4", "--json",
                               "--method", "enum")
        record = json.loads(out)
        assert code == 0
        assert record["series"] == [1, 3, 5, 5]

    def test_hilbert_oracle_report(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", "-n", "3",
                               "--method", "oracle", "--report")
        assert code == 0
        assert out.splitlines()[0] == "1 2 2"
        assert "quotient dimension" in out

    def test_basis_listing(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "-n", "2")
        assert code == 0
        assert out.splitlines() == ["0,0", "0,1"]

    def test_basis_paths_and_filter(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "-n", "3", "-k", "2", "--paths")
        assert code == 0
        assert out.splitlines()[0] in {"0,0,2", "0,1,1"}
        assert "|" in out

    def test_gbasis_expansion(self, capsys):
        code, out, _ = run_cli(capsys, "gbasis", "-n", "4", "--vector", "1,0,2")
        assert code == 0
        first = out.splitlines()[0]
        assert first == ("x1*x3^2 + x1*x3*x4 + x1*x4^2 - x2^2*x3 - x2^2*x4 "
                         "+ x2*x3^2 + x2*x4^2 + x3*x4^2")
        assert "leading monomial: x1*x3^2" in out

    def test_gbasis_rejects_dyck_vector(self, capsys):
        code, _, err = run_cli(capsys, "gbasis", "-n", "2", "--vector", "0,1")
        assert code == 1
        assert "Dyck" in err

    def test_reduce_with_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "-n", "2", "--expr", "x1",
                               "--certificate")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "-x2"
        assert lines[1] == "certificate:"
        assert lines[2].strip() == "1 * G_1,0"

    def test_reduce_from_file(self, tmp_path, capsys):
        source = tmp_path / "input.txt"
        source.write_text("x2^2\n")
        code, out, _ = run_cli(capsys, "reduce", "-n", "2", "--file", str(source))
        assert code == 0
        assert out.strip() == "0"

    def test_reduce_json_reingests(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "-n", "3", "--expr",
                               "x1^2 + 2*x2 - 1/3", "--json")
        assert code == 0
        record = json.loads(out)
        direct = normal_form(parse_polynomial("x1^2 + 2*x2 - 1/3", 3))
        assert polynomial_from_record(record) == direct.remainder
        assert [(Fraction(c["coeff"]), tuple(c["eps"]))
                for c in record["certificate"]] == direct.certificate

    def test_member_verdicts(self, capsys):
        code, out, _ = run_cli(capsys, "member", "-n", "2", "--expr", "x1 + x2")
        assert (code, out.strip()) == (0, "in ideal")
        code, out, _ = run_cli(capsys, "member", "-n", "2", "--expr", "x1")
        assert (code, out.strip()) == (3, "not in ideal")

    def test_qsym_expansions(self, capsys):
        code, out, _ = run_cli(capsys, "qsym", "-n", "3", "--monomial", "1")
        assert code == 0
        assert out.strip() == "x1 + x2 + x3"
        code, out, _ = run_cli(capsys, "qsym", "-n", "2", "--fundamental", "1,1,1")
        assert code == 0
        assert out.strip() == "0"

    def test_qsym_mul(self, capsys):
        code, out, _ = run_cli(capsys, "qsym-mul", "-n", "2",
                               "--left", "1", "--right", "1", "--json")
        record = json.loads(out)
        assert code == 0
        assert record["compositions"] == [
            {"parts": [1, 1], "multiplicity": 1},
            {"parts": [2], "multiplicity": 1},
        ]
        product = polynomial_from_record(record)
        assert product == parse_polynomial("x1^2 + 2*x1*x2 + x2^2", 2)

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

    def test_verify_top_of_contract(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-n", "5")
        assert code == 0

    def test_gf_check(self, capsys):
        code, out, _ = run_cli(capsys, "gf-check", "--order", "5")
        assert code == 0 and "holds" in out
        code, out, _ = run_cli(capsys, "gf-check", "--order", "2", "--as-printed")
        assert code == 3 and "FAILS" in out


class TestExitCodes:
    @pytest.mark.parametrize("argv,expected", [
        (["hilbert", "-n", "6"], 0),
        (["hilbert"], 1),                                   # missing -n
        (["no-such-command"], 1),                           # unknown subcommand
        ([], 1),                                            # no subcommand
        (["gbasis", "-n", "2"], 1),                         # missing --vector
        (["gbasis", "-n", "2", "--vector", "0,1,0"], 1),    # vector longer than n
        (["hilbert", "-n", "40"], 1),                       # resource cap
        (["hilbert", "-n", "7", "--method", "oracle"], 1),  # oracle cap
        (["reduce", "-n", "2", "--expr", "x1 +"], 2),       # syntax error
        (["reduce", "-n", "2", "--expr", "x5"], 2),         # variable out of range
        (["member", "-n", "2", "--expr", "x1"], 3),         # not in the ideal
        (["member", "-n", "2", "--expr", "x1 + x2"], 0),
        (["gf-check", "--order", "2", "--as-printed"], 3),
        (["--help"], 0),
    ])
    def test_contract(self, capsys, argv, expected):
        assert main(argv) == expected

    def test_reduce_missing_file(self, capsys):
        code = main(["reduce", "-n", "2", "--file", "/no/such/file"])
        assert code == 1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsymq", "hilbert", "-n", "6"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1 5 14 28 42 42"


class TestPolynomialCost:
    """Inputs whose cost once grew with 2 ** degree or with the size of a
    whole degree slice rather than the terms present; each must finish well
    inside the timeout."""

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

    def test_fundamental_high_degree(self):
        proc = self.run("qsym", "-n", "3", "--fundamental", "22", "--json")
        assert proc.returncode == 0
        terms = json.loads(proc.stdout)["terms"]
        assert len(terms) == comb(24, 2)
        assert all(t["coeff"] == "1" for t in terms)
