"""The bench tracer (``perfbench/tracing.py``) wraps qsymq functions named by
(module, attribute) in its ``SPANS`` and ``COUNTERS`` lists.  Each name must
still resolve in ``src/qsymq``, or ``perfbench/run.py --trace 1`` breaks.  The
``quotient.g`` span also relies on the shape of the G memo, and the
reduce-warm set-up (``perfbench/setup_probe.py``) on the names it imports."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench("tracing")
HOOKS = [(module, attribute) for module, attribute, *_ in tracing.SPANS + tracing.COUNTERS]


@pytest.mark.parametrize("module_name, attribute", HOOKS,
                         ids=[f"{m}:{a}" for m, a in HOOKS])
def test_hook_resolves(module_name, attribute):
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src" / "qsymq")
    # a dotted name is a method, wrapped on its class
    owner_name, _, name = attribute.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(vars(owner).get(name)), f"{module_name}.{attribute} is gone"


def test_g_span_contract():
    # the tracer skips a ``quotient.g`` call whose index is already a key of
    # ``GBasis._memo``, and counts ``g_terms`` as the length of what ``_g``
    # returns, a tuple of ids; G_(1,0,2,0) has 8 terms
    from qsymq.quotient import GBasis

    skip = tracing.SKIP["quotient.g"]
    (count,) = [extra for _, _, name, extra in tracing.SPANS if name == "quotient.g"]
    basis, eps = GBasis(4), (1, 0, 2, 0)
    assert not skip(basis, eps)
    g = basis._g(eps)
    assert skip(basis, eps)
    assert all(type(key) is tuple and len(key) == 4 for key in basis._memo)
    ids, coeffs = basis._memo[eps]
    assert g is ids and type(ids) is type(coeffs) is tuple
    assert count(g) == {"g_terms": 8} == {"g_terms": len(basis.g(eps))}


def test_reduce_warm_setup(monkeypatch):
    # setup_probe.py imports ``clock`` from a top-level ``tracing`` module
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    from qsymq.quotient import GBasis, enumerate_transdiagonal

    seconds, basis = load_perfbench("setup_probe").timed_setup()
    assert seconds > 0
    assert type(basis) is GBasis and basis.n == 7
    indices = enumerate_transdiagonal(7, 7)
    assert len(indices) == 3003
    assert set(basis._memo) == set(indices)


def test_traced_child_sees_handler_imports(tmp_path):
    # a traced cli-cold request (``perfbench/cli_child.py``) imports qsymq.cli,
    # installs the tracer, then runs main; the reduce handler imports
    # ``quotient`` only after that, yet its calls must still be spans
    spans_out = tmp_path / "spans.json"
    argv = ["reduce", "-n", "4", "--expr", "x1^2*x4", "--certificate", "--json"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), str(spans_out), "0", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["operation"] == "reduce"
    recorded = json.loads(spans_out.read_text(encoding="utf-8"))
    names = {name for name, *_ in recorded["spans"]}
    assert {"cli.main", "cli.parse_polynomial", "quotient.normal_form",
            "quotient.g"} <= names
