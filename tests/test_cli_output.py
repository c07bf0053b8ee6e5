"""The CLI's one output path, pinned byte for byte.

``GOLDEN`` holds ``(argv, exit code, stdout, stderr)`` for requests to every
subcommand, captured from ``python -m qsymq``; each row runs with the
process-wide memos empty, as in a fresh process.  stderr is pinned only for
qsymq's own ``error:``, ``resource limit:`` and ``parse error:`` lines (and
must be empty on success); for argparse usage errors, whose text varies
between Python versions, only the exit code is checked and both streams are
``None``.
"""

import argparse
import ast
import shlex
import sys
from pathlib import Path

import pytest

from qsymq.cli import build_parser, main
from qsymq.combinat import ResourceLimitError

GOLDEN = [
    (["hilbert", "-n", "6"], 0, "1 5 14 28 42 42\n", ""),
    (["hilbert", "-n", "1"], 0, "1\n", ""),
    (["hilbert", "-n", "4", "--method", "enum"], 0, "1 3 5 5\n", ""),
    (["hilbert", "-n", "4", "--method", "enum", "--json"], 0,
     '{"n": 4, "operation": "hilbert", "method": "enum", "series": [1, 3, 5, 5]}\n',
     ""),
    (["hilbert", "-n", "5", "--method", "oracle"], 0, "1 4 9 14 14\n", ""),
    (["hilbert", "-n", "8", "--method", "oracle"], 0, "1 7 27 75 165 297 429 429\n", ""),
    (["hilbert", "-n", "3", "--method", "oracle", "--report"], 0,
     ("1 2 2\n"
      "degree 0 slice in 3 variables:\n"
      "  columns (monomials): 1\n"
      "  generator rows:      0\n"
      "  rank:                0\n"
      "  quotient dimension:  1\n"
      "degree 1 slice in 3 variables:\n"
      "  columns (monomials): 3\n"
      "  generator rows:      1\n"
      "  rank:                1\n"
      "  quotient dimension:  2\n"
      "degree 2 slice in 3 variables:\n"
      "  columns (monomials): 6\n"
      "  generator rows:      4\n"
      "  rank:                4\n"
      "  quotient dimension:  2\n"),
     ""),
    # the degree-2 rows are x_i * M_1 and M_2; (1, 1) is not Lyndon, so M_11 is no row
    (["hilbert", "-n", "3", "--method", "oracle", "--report", "--json"], 0,
     '{"n": 3, "operation": "hilbert", "method": "oracle", "series": [1, 2, 2], "report": [{"degree": 0, "columns": 1, "generator_rows": 0, "rank": 0, "dimension": 1}, {"degree": 1, "columns": 3, "generator_rows": 1, "rank": 1, "dimension": 2}, {"degree": 2, "columns": 6, "generator_rows": 4, "rank": 4, "dimension": 2}]}\n',
     ""),
    # generator_rows counts the rows kept under mu_j < j for j < |L|: 330 and 793
    # at degrees 5 and 6, while the ranks are 330 and 792
    (["hilbert", "-n", "7", "--method", "oracle", "--report", "--json"], 0,
     '{"n": 7, "operation": "hilbert", "method": "oracle", "series": [1, 6, 20, 48, 90, 132, 132], "report": [{"degree": 0, "columns": 1, "generator_rows": 0, "rank": 0, "dimension": 1}, {"degree": 1, "columns": 7, "generator_rows": 1, "rank": 1, "dimension": 6}, {"degree": 2, "columns": 28, "generator_rows": 8, "rank": 8, "dimension": 20}, {"degree": 3, "columns": 84, "generator_rows": 36, "rank": 36, "dimension": 48}, {"degree": 4, "columns": 210, "generator_rows": 120, "rank": 120, "dimension": 90}, {"degree": 5, "columns": 462, "generator_rows": 330, "rank": 330, "dimension": 132}, {"degree": 6, "columns": 924, "generator_rows": 793, "rank": 792, "dimension": 132}]}\n',
     ""),
    (["hilbert", "-n", "3", "--method", "enum", "--report"], 1,
     "",
     "error: --report needs --method oracle, got --method enum\n"),
    (["hilbert", "-n", "3", "--method", "enum", "--report", "--json"], 1,
     "",
     "error: --report needs --method oracle, got --method enum\n"),
    (["hilbert", "-n", "4", "--json"], 0,
     '{"n": 4, "operation": "hilbert", "method": "formula", "series": [1, 3, 5, 5]}\n',
     ""),
    (["hilbert", "-n", "40"], 1,
     "",
     "resource limit: ballot numbers capped at n <= 20; got n = 40\n"),
    (["hilbert", "-n", "9", "--method", "oracle"], 1,
     "",
     "resource limit: exact elimination capped at n <= 8; got n = 9\n"),
    (["hilbert", "-n", "0"], 1, "", "error: need n >= 1, got 0\n"),
    (["basis", "-n", "2"], 0,
     ("0,0\n"
      "0,1\n"),
     ""),
    (["basis", "-n", "3", "-k", "5"], 0, "", ""),
    (["basis", "-n", "3", "-k", "5", "--paths"], 0, "", ""),
    (["basis", "-n", "2", "--paths"], 0,
     ("0,0\n"
      "|.\n"
      "|\n"
      "\n"
      "0,1\n"
      "_|\n"
      "|\n"
      "\n"),
     ""),
    (["basis", "-n", "3", "-k", "2", "--paths"], 0,
     ("0,0,2\n"
      "__|\n"
      "|.\n"
      "|\n"
      "\n"
      "0,1,1\n"
      " _|\n"
      "_|\n"
      "|\n"
      "\n"),
     ""),
    (["basis", "-n", "3", "--json"], 0,
     '{"n": 3, "operation": "basis", "count": 5, "vectors": [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 0, 2], [0, 1, 1]]}\n',
     ""),
    (["basis", "-n", "3", "-k", "5", "--json"], 0,
     '{"n": 3, "operation": "basis", "count": 0, "vectors": []}\n',
     ""),
    (["basis", "-n", "3", "-k", "-1"], 1, "", "error: k must be >= 0, got -1\n"),
    (["gbasis", "-n", "4", "--vector", "1,0,2"], 0,
     ("x1*x3^2 + x1*x3*x4 + x1*x4^2 - x2^2*x3 - x2^2*x4 + x2*x3^2 + x2*x4^2 + x3*x4^2\n"
      "leading monomial: x1*x3^2\n"),
     ""),
    (["gbasis", "-n", "3", "--vector", "1,0,1", "--json"], 0,
     '{"n": 3, "operation": "gbasis", "terms": [{"coeff": "1", "exps": [1, 0, 1]}, {"coeff": "-1", "exps": [0, 2, 0]}], "leading": {"coeff": "1", "exps": [1, 0, 1]}}\n',
     ""),
    (["gbasis", "-n", "2", "--vector", "0,1"], 1,
     "",
     "error: (0, 1) is Dyck; G elements are indexed by transdiagonal vectors\n"),
    (["gbasis", "-n", "2", "--vector", "0,1,0"], 1,
     "",
     "error: vector '0,1,0' longer than n = 2\n"),
    (["gbasis", "-n", "2", "--vector", "a"], 1,
     "",
     "error: vector must be comma-separated integers, got 'a'\n"),
    (["gbasis", "-n", "2", "--vector", "-1"], 1,
     "",
     "error: vector entries must be >= 0, got '-1'\n"),
    (["gbasis", "-n", "3", "--vector", "99999999"], 1,
     "",
     "resource limit: more than 100000 terms in F_(99999999,) in 3 variables\n"),
    (["reduce", "-n", "2", "--expr", "x1", "--certificate"], 0,
     ("-x2\n"
      "certificate:\n"
      "  1 * G_1,0\n"),
     ""),
    (["reduce", "-n", "3", "--expr", "x1^2 + 2*x2 - 1/3"], 0, "x2*x3 + 2*x2 - 1/3\n", ""),
    (["reduce", "-n", "3", "--expr", "x1^2 + 2*x2 - 1/3", "--json"], 0,
     '{"n": 3, "operation": "reduce", "terms": [{"coeff": "1", "exps": [0, 1, 1]}, {"coeff": "2", "exps": [0, 1, 0]}, {"coeff": "-1/3", "exps": [0, 0, 0]}], "certificate": [{"coeff": "1", "eps": [2, 0, 0]}, {"coeff": "-1", "eps": [1, 1, 0]}, {"coeff": "-1", "eps": [0, 2, 0]}]}\n',
     ""),
    (["reduce", "-n", "3", "--expr", "x1*x3 + 1/2", "--certificate", "--json"], 0,
     '{"n": 3, "operation": "reduce", "terms": [{"coeff": "-1", "exps": [0, 1, 1]}, {"coeff": "-1", "exps": [0, 0, 2]}, {"coeff": "1/2", "exps": [0, 0, 0]}], "certificate": [{"coeff": "1", "eps": [1, 0, 1]}, {"coeff": "1", "eps": [0, 2, 0]}]}\n',
     ""),
    (["reduce", "-n", "3", "--expr", "0"], 0, "0\n", ""),
    (["reduce", "-n", "3", "--expr", "x1^99999999"], 0, "0\n", ""),
    (["reduce", "-n", "3", "--expr", "x1^99999999", "--certificate"], 1,
     "",
     "resource limit: more than 100000 terms in F_(99999999,) in 3 variables\n"),
    (["reduce", "-n", "447", "--expr", "x1*x447"], 1,
     "",
     "resource limit: more than 100000 terms on the G chain down to F_(1, 1) in 447 variables\n"),
    (["reduce", "-n", "2", "--expr", "x1 +"], 2,
     "",
     "parse error: expected a term (at position 4)\n"),
    (["reduce", "-n", "2", "--expr", "x5"], 2,
     "",
     "parse error: variable index 5 outside [1, 2] (at position 0)\n"),
    (["reduce", "-n", "2", "--file", "/no/such/file"], 1,
     "",
     "error: [Errno 2] No such file or directory: '/no/such/file'\n"),
    (["member", "-n", "2", "--expr", "x2"], 3, "not in ideal\n", ""),
    (["member", "-n", "2", "--expr", "x1"], 3, "not in ideal\n", ""),
    (["member", "-n", "2", "--expr", "x1 + x2"], 0, "in ideal\n", ""),
    (["member", "-n", "3", "--expr", "x1^18"], 0, "in ideal\n", ""),
    (["member", "-n", "2", "--expr", "x1", "--json"], 3,
     '{"n": 2, "operation": "member", "member": false}\n',
     ""),
    (["member", "-n", "2", "--expr", "x1 &"], 2,
     "",
     "parse error: unexpected character '&' (at position 3)\n"),
    (["qsym", "-n", "3", "--monomial", "1"], 0, "x1 + x2 + x3\n", ""),
    (["qsym", "-n", "3", "--monomial", ""], 0, "1\n", ""),
    (["qsym", "-n", "2", "--fundamental", "1,1,1"], 0, "0\n", ""),
    (["qsym", "-n", "3", "--fundamental", "2,1", "--json"], 0,
     '{"n": 3, "operation": "qsym-fundamental", "terms": [{"coeff": "1", "exps": [2, 1, 0]}, {"coeff": "1", "exps": [2, 0, 1]}, {"coeff": "1", "exps": [1, 1, 1]}, {"coeff": "1", "exps": [0, 2, 1]}]}\n',
     ""),
    (["qsym", "-n", "3", "--monomial", "0"], 1,
     "",
     "error: composition parts must be >= 1, got '0'\n"),
    (["qsym", "-n", "600", "--monomial", "1,1", "--json"], 1,
     "",
     "resource limit: more than 100000 terms in M_(1, 1) in 600 variables\n"),
    (["qsym-mul", "-n", "2", "--left", "1", "--right", "1"], 0,
     ("1 * F_1,1\n"
      "1 * F_2\n"
      "product: x1^2 + 2*x1*x2 + x2^2\n"),
     ""),
    (["qsym-mul", "-n", "2", "--left", "1", "--right", "1", "--json"], 0,
     '{"n": 2, "operation": "qsym-mul", "terms": [{"coeff": "1", "exps": [2, 0]}, {"coeff": "2", "exps": [1, 1]}, {"coeff": "1", "exps": [0, 2]}], "compositions": [{"parts": [1, 1], "multiplicity": 1}, {"parts": [2], "multiplicity": 1}]}\n',
     ""),
    (["qsym-mul", "-n", "3", "--left", "", "--right", "2"], 0,
     ("1 * F_2\n"
      "product: x1^2 + x1*x2 + x1*x3 + x2^2 + x2*x3 + x3^2\n"),
     ""),
    (["qsym-mul", "-n", "3", "--left", "1", "--right", "2,1", "--json"], 0,
     '{"n": 3, "operation": "qsym-mul", "terms": [{"coeff": "1", "exps": [3, 1, 0]}, {"coeff": "1", "exps": [3, 0, 1]}, {"coeff": "1", "exps": [2, 2, 0]}, {"coeff": "3", "exps": [2, 1, 1]}, {"coeff": "1", "exps": [2, 0, 2]}, {"coeff": "2", "exps": [1, 2, 1]}, {"coeff": "1", "exps": [1, 1, 2]}, {"coeff": "1", "exps": [0, 3, 1]}, {"coeff": "1", "exps": [0, 2, 2]}], "compositions": [{"parts": [1, 2, 1], "multiplicity": 1}, {"parts": [2, 1, 1], "multiplicity": 1}, {"parts": [2, 2], "multiplicity": 1}, {"parts": [3, 1], "multiplicity": 1}]}\n',
     ""),
    (["qsym-mul", "-n", "3", "--left", "12", "--right", "12"], 1,
     "",
     "resource limit: more than 100000 shuffle words in F_(12,) * F_(12,)\n"),
    (["verify", "-n", "3"], 0,
     ("ok   hilbert-formula-vs-enum-n1\n"
      "ok   hilbert-formula-vs-enum-n2\n"
      "ok   hilbert-formula-vs-enum-n3\n"
      "ok   hilbert-vs-oracle-n1\n"
      "ok   staircase-n1\n"
      "ok   hilbert-vs-oracle-n2\n"
      "ok   staircase-n2\n"
      "ok   hilbert-vs-oracle-n3\n"
      "ok   staircase-n3\n"
      "ok   leading-monomials\n"
      "ok   certificates\n"
      "ok   degree-n-vanishing\n"
      "all checks passed\n"),
     ""),
    (["verify", "-n", "5"], 0,
     ("ok   hilbert-formula-vs-enum-n1\n"
      "ok   hilbert-formula-vs-enum-n2\n"
      "ok   hilbert-formula-vs-enum-n3\n"
      "ok   hilbert-formula-vs-enum-n4\n"
      "ok   hilbert-formula-vs-enum-n5\n"
      "ok   hilbert-vs-oracle-n1\n"
      "ok   staircase-n1\n"
      "ok   hilbert-vs-oracle-n2\n"
      "ok   staircase-n2\n"
      "ok   hilbert-vs-oracle-n3\n"
      "ok   staircase-n3\n"
      "ok   hilbert-vs-oracle-n4\n"
      "ok   staircase-n4\n"
      "ok   hilbert-vs-oracle-n5\n"
      "ok   staircase-n5\n"
      "ok   leading-monomials\n"
      "ok   certificates\n"
      "ok   degree-n-vanishing\n"
      "all checks passed\n"),
     ""),
    (["verify", "-n", "6"], 0,
     ("ok   hilbert-formula-vs-enum-n1\n"
      "ok   hilbert-formula-vs-enum-n2\n"
      "ok   hilbert-formula-vs-enum-n3\n"
      "ok   hilbert-formula-vs-enum-n4\n"
      "ok   hilbert-formula-vs-enum-n5\n"
      "ok   hilbert-formula-vs-enum-n6\n"
      "ok   hilbert-vs-oracle-n1\n"
      "ok   staircase-n1\n"
      "ok   hilbert-vs-oracle-n2\n"
      "ok   staircase-n2\n"
      "ok   hilbert-vs-oracle-n3\n"
      "ok   staircase-n3\n"
      "ok   hilbert-vs-oracle-n4\n"
      "ok   staircase-n4\n"
      "ok   hilbert-vs-oracle-n5\n"
      "ok   staircase-n5\n"
      "ok   hilbert-vs-oracle-n6\n"
      "ok   staircase-n6\n"
      "ok   leading-monomials\n"
      "ok   certificates\n"
      "all checks passed\n"),
     ""),
    (["verify", "-n", "2", "--json"], 0,
     '{"n": 2, "operation": "verify", "checks": [{"name": "hilbert-formula-vs-enum-n1", "ok": true, "detail": "1 vs 1"}, {"name": "hilbert-formula-vs-enum-n2", "ok": true, "detail": "1 1 vs 1 1"}, {"name": "hilbert-vs-oracle-n1", "ok": true, "detail": "1 vs 1"}, {"name": "staircase-n1", "ok": true, "detail": "degrees: []"}, {"name": "hilbert-vs-oracle-n2", "ok": true, "detail": "1 1 vs 1 1"}, {"name": "staircase-n2", "ok": true, "detail": "degrees: []"}, {"name": "leading-monomials", "ok": true, "detail": "failures: []"}, {"name": "certificates", "ok": true, "detail": ""}, {"name": "degree-n-vanishing", "ok": true, "detail": "failures: []"}], "ok": true}\n',
     ""),
    (["verify", "-n", "3", "--max-degree", "-1"], 1, "", "error: need max_degree >= 0, got -1\n"),
    (["verify", "-n", "9"], 1,
     "",
     "resource limit: more than 100000 terms on the G chain down to F_(9,) in 9 variables\n"),
    (["gf-check", "--order", "2", "--as-printed"], 3,
     "printed (-2t) numerator: identity FAILS mod x^3\n",
     ""),
    (["gf-check", "--order", "5"], 0, "corrected (-2x) numerator: identity holds mod x^6\n", ""),
    (["gf-check", "--order", "3", "--json"], 0,
     '{"operation": "gf-check", "order": 3, "form": "corrected (-2x)", "holds": true}\n',
     ""),
    (["gf-check", "--order", "0"], 1, "", "error: need order >= 1, got 0\n"),
    (["gf-check", "--order", "13"], 1,
     "",
     "resource limit: generating-function check capped at order <= 12; got order = 13\n"),
    ([], 1, None, None),
    (["--help"], 0, None, None),
    (["hilbert"], 1, None, None),
    (["gbasis", "-n", "2"], 1, None, None),
    (["no-such-command"], 1, None, None),
    (["reduce", "-n", "2"], 1, None, None),
    (["hilbert", "-n", "3", "--method", "bogus"], 1, None, None),
]


@pytest.mark.usefixtures("fresh_caches")
@pytest.mark.parametrize("argv,code,out,err", GOLDEN,
                         ids=[shlex.join(argv) or "no-arguments" for argv, *_ in GOLDEN])
def test_golden(capsys, argv, code, out, err):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if out is not None:
        assert (captured.out, captured.err) == (out, err)


def test_golden_reach():
    """Every subcommand has a row with and without ``--json``, and every exit
    code of the contract appears, so retiring a row cannot drop a contract."""
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    rows = {(argv[0], "--json" in argv) for argv, *_ in GOLDEN if argv}
    assert {(name, json) for name in subcommands for json in (False, True)} <= rows
    assert {code for _, code, *_ in GOLDEN} == {0, 1, 2, 3}


# N + N has one digit more than N, so these parse but fail when rendered
_N = "9" * 4300
RENDER_ERRORS = [
    ["reduce", "-n", "1", "--expr", f"{_N} + {_N}"],
    ["reduce", "-n", "2", "--expr", f"{_N}*x1 + {_N}*x1 + {_N}*x2 + {_N}*x2",
     "--certificate"],  # remainder 0 renders; the certificate line fails
    ["reduce", "-n", "2", "--expr", f"{_N}*x1 + {_N}*x1 + {_N}*x2 + {_N}*x2",
     "--json"],
]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-string limit")
@pytest.mark.parametrize("argv", RENDER_ERRORS, ids=["remainder", "certificate", "json"])
def test_render_error_prints_nothing(capsys, argv):
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main(argv)
    finally:
        sys.set_int_max_str_digits(default)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: Exceeds the limit (4300 digits)")


def test_text_reduce_computes_in_handler():
    """The text-mode remainder is computed by the handler, not by ``text``."""
    args = build_parser().parse_args(["reduce", "-n", "447", "--expr", "x1*x447"])
    with pytest.raises(ResourceLimitError):
        args.handler(args)


def test_print_only_in_main():
    """Inside the package, stdout is written by ``cli.main`` alone: no other
    function calls ``print`` or touches ``sys.stdout``."""
    package = Path(__file__).resolve().parents[1] / "src" / "qsymq"
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {}  # node -> name of its top-level function, or None
        for top in tree.body:
            for node in ast.walk(top):
                scopes[node] = top.name if isinstance(top, ast.FunctionDef) else None
        for node, scope in scopes.items():
            writes = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "print"
                      or isinstance(node, ast.Attribute) and node.attr == "stdout")
            if writes and (path.name, scope) != ("cli.py", "main"):
                found.append(f"{path.name}:{node.lineno} in {scope}")
    assert not found, found
