"""Capture v2: prefill programs and the program-cache hit rate.

Two serving hot paths ride the program cache beyond the single decode
step that ``bench_step_capture.py`` times:

* **Prefill programs** — ``capture_prefill_chunk`` traces one chunk of
  ``chunked_prefill`` and replays later same-length chunks; eager and
  replay append the same positions from the same cache base.
* **Program-cache hit rate** — a shrinking continuous batch decoded via
  ``StepCompiler.decode_step`` with batch bucketing; the bucketed
  signature keeps shrinking batches on one warm program.

All replays must be bit-identical to eager on both backends at every
shape; results land in ``BENCH_capture_v2.json`` at the repo root
(consumed by docs/mesh_backends.md and the README).
"""

import json
import pathlib

from repro.mesh.bench import (
    CAPTURE_BATCH,
    CAPTURE_V2_CHUNK,
    CAPTURE_V2_SHAPES,
    compare_capture_v2,
    format_capture_v2_table,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_capture_v2.json"


def run_comparison() -> dict:
    return compare_capture_v2(CAPTURE_V2_SHAPES)


def test_capture_v2(benchmark, save_result):
    sections = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table = format_capture_v2_table(sections)
    save_result("capture_v2", table)
    JSON_PATH.write_text(json.dumps({
        "workload": "16-layer multiquery model, WG_XY + BATCH layout, "
                    f"batch {CAPTURE_BATCH}; prefill chunk length "
                    f"{CAPTURE_V2_CHUNK} replayed vs eager from the "
                    "same KV base (median of 24 paired samples, each "
                    "resetting the KV fill to a common base), and the "
                    "StepCompiler hit rate on a shrinking continuous "
                    "batch",
        "prefill": sections["prefill"],
        "hit_rate": sections["hit_rate"],
    }, indent=2) + "\n")
    print(f"[saved to {JSON_PATH}]")

    # Every replay must be bit-identical to eager on both backends.
    assert all(row["bit_identical"] for row in sections["prefill"])
    prefill = {(r["mesh"], r["backend"]): r for r in sections["prefill"]}
    # Acceptance bar on the paper's 4x4x4 torus (stacked backend):
    # prefill replay beats eager chunked prefill by >= 1.4x.  Ten runs
    # of this timing on a shared 2-vCPU host gave 1.50-1.67x (recorded
    # in docs/mesh_backends.md), so 1.4 fails only a real slowdown.
    assert prefill[("4x4x4", "stacked")]["speedup"] >= 1.4
    # Shape-bucketed signatures keep the shrinking batch on warm
    # programs: >= 80% hit rate everywhere.
    assert all(row["hit_rate"] >= 0.8 for row in sections["hit_rate"])
