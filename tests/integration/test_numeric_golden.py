"""The standard deployments' numbers are pinned: logits, KV and programs.

``tests/golden/numeric.json`` holds, per deployment, backend and chunk
shape, the sha256 of the eager and replayed logits and KV caches and of
each captured program's instruction signature (see
``tools/numeric_digests.py``, which regenerates it).  The loop == stacked
and replay == eager suites compare two paths of one revision; this test
compares every path against the committed bits, so a change that moves
all paths alike — a last-ulp logit shift — fails here.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "numeric_digests", ROOT / "tools" / "numeric_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()
GOLDEN = json.loads(tool.GOLDEN.read_text())


def test_golden_covers_every_run():
    keys = {"/".join(key.split("/")[:2]) for key in GOLDEN}
    assert keys == {f"{name}/{backend}" for name, backend in tool.all_runs()}


@pytest.mark.parametrize("run", tool.all_runs(),
                         ids=lambda run: "/".join(run))
def test_run_matches_golden(run):
    got = tool.run_digests(*run)
    prefix = "/".join(run) + "/"
    assert got == {key: value for key, value in GOLDEN.items()
                   if key.startswith(prefix)}
