"""``tools/replay_breakdown.py`` profiles a bench deployment's replays.

Run on Model B with a few replays it must finish quickly and account
for every instruction of the decode and prefill programs, by op class
and by label.
"""

import importlib.util
import pathlib
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
spec = importlib.util.spec_from_file_location(
    "replay_breakdown", ROOT / "tools" / "replay_breakdown.py")
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def test_model_b_breakdown_smoke(capsys):
    start = time.perf_counter()
    assert tool.main(["--deployment", "B-2x2x2-b4", "--reps", "3"]) == 0
    assert time.perf_counter() - start < 2.0
    text = capsys.readouterr().out
    for kind in ("decode", "prefill"):
        assert f"B-2x2x2-b4 {kind}: 45 instructions" in text
    for name in ("collective", "contraction", "all_reduce", "to_global"):
        assert name in text


def test_every_instruction_is_counted():
    decode, prefill = tool.breakdown("B-2x2x2-b4", reps=2)
    for res in (decode, prefill):
        assert sum(n for n, _ in res["by_label"].values()) == \
            res["instructions"]
        assert abs(sum(res["by_class"].values())
                   - sum(us for _, us in res["by_label"].values())) < 1e-6
        assert res["by_class"]["collective"] > 0
