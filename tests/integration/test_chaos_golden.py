"""The chaos runs are pinned: every run matches its committed digests.

``tests/golden/chaos.json`` holds, per (scenario, backend, seed), the
sha256 of the run's journal, spans, report fields and capture counters
(see ``tools/chaos_digests.py``, which regenerates it).  A change that
is meant to keep behaviour identical — a refactor of the control plane,
say — must keep every digest; one that moves a digest on purpose
regenerates the file and says why.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "chaos_digests", ROOT / "tools" / "chaos_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()
GOLDEN = json.loads(tool.GOLDEN.read_text())


def test_golden_covers_every_run():
    assert sorted(GOLDEN) == sorted(tool.key(*run)
                                    for run in tool.all_runs())


def _tier(run):
    """Each scenario's stacked seed-0 run is in tier-1, so ``pytest -x``
    checks every scenario's clock; the other runs are ``slow``."""
    _, backend, seed = run
    marks = () if (backend, seed) == ("stacked", 0) else pytest.mark.slow
    return pytest.param(run, marks=marks, id=tool.key(*run))


@pytest.mark.parametrize("run", [_tier(run) for run in tool.all_runs()])
def test_run_matches_golden(run):
    assert tool.run_digests(*run) == GOLDEN[tool.key(*run)]
