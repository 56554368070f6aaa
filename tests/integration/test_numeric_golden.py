"""The standard deployments' numbers are pinned: logits, KV and programs.

``tests/golden/numeric.json`` holds, per deployment, backend and chunk
shape, the sha256 of the eager and replayed logits and KV caches and of
each captured program's instruction signature (see
``tools/numeric_digests.py``, which regenerates it).  The loop == stacked
and replay == eager suites compare two paths of one revision; this test
compares every path against the committed bits, so a change that moves
all paths alike — a last-ulp logit shift — fails here.

The stacked programs' collectives are pinned too: how many run as one
ufunc over a view of their operand and how many copy it rank-major
first, so a refactor cannot drop them to the slow path unnoticed.
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


#: Per deployment, for its decode program and its prefill program alike:
#: the all-gathers, reduce-scatters and all-reduces that run as one ufunc
#: over a view of their operand, and those that copy it rank-major first
#: (``repro.mesh.stacked.view_recipe``).
FAST_PATH = {"A-4x4x4-b4": (20, 0), "B-2x2x2-b4": (8, 0),
             "B-2x2x2-b8": (8, 0), "gqa4-2x2x2-b8": (22, 0)}


@pytest.mark.parametrize("name", sorted(FAST_PATH))
def test_collectives_run_on_views(name):
    from repro.mesh.capture import capture_chunk

    assert FAST_PATH.keys() == tool.DEPLOYMENTS.keys()
    model = tool.build(name, "stacked")
    caches = model.new_cache(tool.DEPLOYMENTS[name][3], tool.MAX_LEN)
    for kind, (first, _) in tool._chunks(name):
        _, program = capture_chunk(model, first, caches)
        recipes = [ins.fn.recipe for ins in program._instrs
                   if ins.collective and hasattr(ins.fn, "recipe")]
        assert (sum(r.direct for r in recipes),
                sum(not r.direct for r in recipes)) == FAST_PATH[name], kind
