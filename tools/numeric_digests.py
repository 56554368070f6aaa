"""Numeric digests: sha256 fingerprints of the standard deployments' numbers.

The loop == stacked and replay == eager suites compare two paths of one
revision, so a change that moves every path the same way passes them.
This file pins the numbers themselves.  For each deployment in
:data:`DEPLOYMENTS` and each mesh backend it runs, from fresh caches,

* two four-token prefill chunks and then two decode steps eagerly
  (``model.forward``);
* the same four chunks with the first chunk of each shape captured
  (:func:`repro.mesh.capture.capture_chunk`) and the second replayed;

and records the sha256 of

* ``logits`` — the second chunk's logits of each shape, eager and
  replayed;
* ``kv`` — every layer's K and V, as global arrays, after that chunk;
* ``program`` — each captured program's instruction signature (label,
  meta, arena and collective flags, inputs, output, buffer shapes and
  dtypes) and the shapes of its constants.

Regenerate the committed file from the repo root (a few seconds)::

    PYTHONPATH=src python tools/numeric_digests.py

``tests/integration/test_numeric_golden.py`` compares a fresh run
against ``tests/golden/numeric.json``.  Regenerating is the declared way
to move bits: a change that does so says which entries moved, and why.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "numeric.json"
BACKENDS = ("loop", "stacked")
CHUNK = 4
MAX_LEN = 16

#: The serving benchmark's models (``bench/workloads.py``).
_MODEL_A = dict(n_layers=2, d_model=64, d_ff=128, n_heads=16, d_head=4,
                vocab_size=32)
_MODEL_B = dict(n_layers=2, d_model=16, d_ff=32, n_heads=8, d_head=8,
                vocab_size=32)

#: name -> (model kwargs, kv heads, mesh shape, decode batch, plan).  A
#: plan of ``None`` is the decode plan the deployment selector picks at
#: that batch (:func:`repro.partitioning.degraded.build_deployment`).
DEPLOYMENTS = {
    # The bench deployments: WS-2D/head on 4x4x4, WS-1D/head on 2x2x2.
    "A-4x4x4-b4": (_MODEL_A, None, (4, 4, 4), 4, None),
    "B-2x2x2-b4": (_MODEL_B, None, (2, 2, 2), 4, None),
    # WS-1D/batch: Q's all-to-all and the K/V split.
    "B-2x2x2-b8": (_MODEL_B, None, (2, 2, 2), 8, None),
    # Grouped-query, four KV heads sharded with the queries, WS-2D/batch.
    "gqa4-2x2x2-b8": (_MODEL_B, 4, (2, 2, 2), 8, ("ws-2d", "batch")),
}


def _sha_bytes(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(f"{arr.shape}{arr.dtype.str}".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _sha_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _kv_digest(caches) -> str:
    from repro.layouts.kv_cache import layout_to_global

    arrays = []
    for cache in caches:
        k, v = cache.read(0, cache.length)
        arrays += [layout_to_global(k, cache.page_layout),
                   layout_to_global(v, cache.page_layout)]
    return _sha_bytes(*arrays)


def _meta(value):
    """A captured op's ``meta`` as JSON: tuples as lists, anything else
    that is not a JSON scalar (a sharding spec) by its text."""
    if isinstance(value, tuple):
        return [_meta(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


def _shape(arr):
    return None if arr is None else [list(arr.shape), arr.dtype.str]


def program_signature(program) -> list:
    """Every instruction of ``program`` in replay order, then the shapes
    of its constants and frozen views."""
    instrs = [[ins.label, _meta(ins.meta), ins.arena, ins.collective,
               list(ins.inputs), ins.out, _shape(ins.buffer),
               _shape(getattr(ins.fn, "out_buffer", None))]
              for ins in program._instrs]
    consts = [[vid, _shape(value)] for vid, value
              in enumerate(program._template)
              if isinstance(value, np.ndarray)]
    return [program.n_body, instrs, consts]


def build(name: str, backend: str):
    """The deployment's decode model on a fresh mesh of ``backend``."""
    from repro.layouts import ShardedTransformer
    from repro.mesh import VirtualMesh
    from repro.model import init_weights, tiny_test_config
    from repro.partitioning import AttentionLayoutKind, FfnLayoutKind, \
        LayoutPlan
    from repro.partitioning.degraded import build_deployment

    kwargs, kv_heads, shape, batch, plan = DEPLOYMENTS[name]
    config = tiny_test_config(**kwargs)
    if kv_heads is not None:
        config = config.replace(kv_heads=kv_heads)
    weights = init_weights(config, seed=0)
    mesh = VirtualMesh(shape, backend)
    if plan is None:
        return build_deployment(weights, mesh, decode_batch=batch,
                                prompt_len=64)[1]
    return ShardedTransformer(weights, mesh, LayoutPlan(
        FfnLayoutKind(plan[0]), AttentionLayoutKind(plan[1])))


def _chunks(name: str):
    """Two prefill chunks and two decode tokens, fixed per deployment."""
    batch = DEPLOYMENTS[name][3]
    rng = np.random.default_rng(sum(map(ord, name)))
    prefill = rng.integers(0, 32, size=(2, batch, CHUNK))
    decode = rng.integers(0, 32, size=(2, batch, 1))
    return (("prefill", prefill), ("decode", decode))


def run_digests(name: str, backend: str) -> dict[str, str]:
    """The digests of one deployment on one backend."""
    from repro.mesh.capture import capture_chunk

    out: dict[str, str] = {}
    model = build(name, backend)
    batch = DEPLOYMENTS[name][3]
    eager_caches = model.new_cache(batch, MAX_LEN)
    replay_caches = model.new_cache(batch, MAX_LEN)
    for kind, (first, second) in _chunks(name):
        model.forward(first, eager_caches)
        eager = model.forward(second, eager_caches)
        _, program = capture_chunk(model, first, replay_caches)
        replayed = program.replay(second, replay_caches)
        prefix = f"{name}/{backend}/{kind}"
        out[f"{prefix}/eager/logits"] = _sha_bytes(eager)
        out[f"{prefix}/eager/kv"] = _kv_digest(eager_caches)
        out[f"{prefix}/replay/logits"] = _sha_bytes(replayed)
        out[f"{prefix}/replay/kv"] = _kv_digest(replay_caches)
        out[f"{prefix}/program"] = _sha_json(program_signature(program))
    return out


def all_runs() -> list[tuple[str, str]]:
    return [(name, backend) for name in DEPLOYMENTS for backend in BACKENDS]


def main() -> int:
    digests: dict[str, str] = {}
    for run in all_runs():
        digests.update(run_digests(*run))
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} numeric digests to "
          f"{GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
