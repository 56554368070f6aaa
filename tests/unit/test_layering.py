"""``repro.serving`` sits below ``repro.cluster`` and never imports it.

The cluster's replica and the single-mesh resilient server build on the
serving layer's value types, chunked prefill and cache merge; an import
the other way would create a cycle.  Every serving module is parsed, so
function-level imports count too, and both import orders are exercised
in fresh interpreters.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.unit.test_module_reach import imports

SRC = Path(__file__).resolve().parents[2] / "src"
SERVING = SRC / "repro" / "serving"


def test_serving_never_imports_cluster():
    modules = sorted(SERVING.rglob("*.py"))
    assert modules
    found = [(path, node.lineno, f"{module}.{name}" if name else module)
             for path in modules
             for node, module, name in imports(ast.parse(path.read_text()),
                                               "repro.serving")]
    offenders = [f"{path.relative_to(SRC)}:{line}: {name}"
                 for path, line, name in found
                 if name == "repro.cluster"
                 or name.startswith("repro.cluster.")]
    assert not offenders, offenders


@pytest.mark.parametrize("order", [("repro.serving", "repro.cluster"),
                                   ("repro.cluster", "repro.serving")])
def test_fresh_interpreter_imports_in_either_order(order):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "; ".join(f"import {name}" for name in order)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
