"""Loop-vs-stacked backend benchmark on a decode-step workload.

The two mesh backends are semantically identical (the differential tests
assert bit-equality), so the only question is speed: the loop backend
pays Python-interpreter time per device per op, the stacked backend runs
each collective/einsum as one whole-mesh numpy call.  This module defines
the shared decode-step workload — a deep, narrow multiquery model under a
weight-gathered FFN layout with batch-sharded attention — and timing
helpers used by both the CLI ``mesh-bench`` subcommand and
``benchmarks/bench_mesh_backend.py``.

The workload is chosen to mirror where the backends diverge most: at
decode batch sizes the per-device tensors are tiny, so the loop backend's
per-device Python dispatch dominates while the stacked backend stays in
single whole-mesh numpy calls.  The weight-gathered layout (Section 3.2.3)
re-gathers every weight each step, maximizing collective traffic per unit
of compute — exactly the regime the stacked backend exists for.  Model
dims divide evenly on every mesh from 1x1x1 up to 4x4x4 (H % 16,
B % 64).
"""

from __future__ import annotations

import time

import numpy as np

from repro.mesh.virtual_mesh import BACKENDS, VirtualMesh

# Smallest-to-largest torus shapes, matching how real slices grow.
MESH_SHAPES = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2),
               (2, 2, 4), (2, 4, 4), (4, 4, 4))


def decode_config():
    """Benchmark model: deep and narrow, divisible on every mesh."""
    from repro.model import tiny_test_config

    return tiny_test_config(n_layers=16, d_model=16, d_ff=32, n_heads=16,
                            d_head=4, vocab_size=16)


def _build(mesh_shape, backend, batch, max_len, seed=0):
    from repro.layouts import ShardedTransformer
    from repro.model import init_weights
    from repro.partitioning import (
        AttentionLayoutKind,
        FfnLayoutKind,
        LayoutPlan,
    )

    config = decode_config()
    weights = init_weights(config, seed=seed)
    plan = LayoutPlan(FfnLayoutKind.WG_XY, AttentionLayoutKind.BATCH)
    model = ShardedTransformer(weights, VirtualMesh(mesh_shape,
                                                    backend=backend), plan)
    prompt = np.random.default_rng(seed + 1).integers(
        0, config.vocab_size, size=(batch, 4))
    _, caches = model.prefill(prompt, max_len)
    return model, caches, prompt


def time_decode(mesh_shape, backend, *, steps: int = 4, batch: int = 64,
                reps: int = 3, seed: int = 0,
                trace: bool = False) -> tuple[float, np.ndarray]:
    """Best-of-``reps`` mean seconds per decode step plus final logits.

    One untimed warm-up step amortizes cache/layout setup; timing the
    best of several repetitions filters scheduler noise.  The returned
    logits let callers assert cross-backend equality on the exact
    workload being timed.  With ``trace=True`` a span tracer is installed
    before the timed steps — the knob behind
    ``benchmarks/bench_observability_overhead.py``.
    """
    # prompt + warm-up step + timed steps per repetition
    model, caches, prompt = _build(mesh_shape, backend, batch,
                                   4 + 1 + steps * reps, seed)
    if trace:
        model.mesh.install_tracer()
    token = prompt[:, -1]
    logits = model.decode_step(token, caches)  # warm-up
    token = np.argmax(logits, -1)
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(steps):
            logits = model.decode_step(token, caches)
        best = min(best, (time.perf_counter() - start) / steps)
    return best, logits


def compare_backends(mesh_shapes=MESH_SHAPES, *, steps: int = 4,
                     batch: int = 64, reps: int = 3,
                     backends=BACKENDS) -> list[dict]:
    """Time each backend on each mesh; verify identical logits.

    Returns one row dict per mesh shape with per-backend seconds/step and
    the loop/stacked speedup (when both backends ran).
    """
    rows = []
    for shape in mesh_shapes:
        row: dict = {"mesh": "x".join(map(str, shape)),
                     "chips": int(np.prod(shape))}
        logits = {}
        for backend in backends:
            seconds, out = time_decode(shape, backend, steps=steps,
                                       batch=batch, reps=reps)
            row[f"{backend}_s"] = seconds
            logits[backend] = out
        if "loop" in logits and "stacked" in logits:
            if not np.array_equal(logits["loop"], logits["stacked"]):
                raise AssertionError(
                    f"backends disagree on mesh {row['mesh']}")
            row["speedup"] = row["loop_s"] / row["stacked_s"]
        rows.append(row)
    return rows


#: Decode batch for the capture benchmark: the latency-oriented decode
#: point (per-chip batch 1 on the 4x4x4 torus under the BATCH attention
#: layout), where step time is Python-bookkeeping-bound — the regime the
#: step compiler exists for.  Throughput-oriented batches amortize the
#: bookkeeping over more numpy work, shrinking the replay advantage.
CAPTURE_BATCH = 16


def time_capture(mesh_shape, backend, *, steps: int = 4, batch: int =
                 CAPTURE_BATCH, reps: int = 3, seed: int = 0) -> dict:
    """Eager vs captured-replay seconds/step on one mesh, plus bit checks.

    Timing methodology: attention cost grows with the KV history length,
    so eager and replay windows are only comparable at the *same* cache
    fill.  Every timed repetition first resets the caches to a common
    base length; the timed steps then re-run the same decode positions
    (re-writing identical KV entries), so both modes pay identical numpy
    work and differ only in dispatch.
    """
    from repro.mesh.capture import capture_decode_step

    model, caches, prompt = _build(mesh_shape, backend, batch,
                                   4 + 2 + steps, seed)
    token = prompt[:, -1]
    logits = model.decode_step(token, caches)  # warm-up
    token = np.argmax(logits, -1)
    _, program = capture_decode_step(model, token, caches)
    if program is None:
        raise AssertionError(
            f"decode step did not capture on {mesh_shape} {backend}")

    # Bit-identity on the step after capture: run it once eagerly and
    # once replayed from the same cache state and require exact equality.
    base = caches[0].length
    eager_logits = model.decode_step(token, caches)
    for cache in caches:
        cache.length = base
    replay_logits = program.replay(token, caches)
    bit_identical = bool(np.array_equal(eager_logits, replay_logits))

    def best_of(step_fn) -> float:
        best = float("inf")
        for _ in range(reps):
            for cache in caches:
                cache.length = base
            start = time.perf_counter()
            for _ in range(steps):
                step_fn()
            best = min(best, (time.perf_counter() - start) / steps)
        return best

    eager_s = best_of(lambda: model.decode_step(token, caches))
    replay_s = best_of(lambda: program.replay(token, caches))
    return {
        "mesh": "x".join(map(str, mesh_shape)),
        "chips": int(np.prod(mesh_shape)),
        "backend": backend,
        "eager_s": eager_s,
        "replay_s": replay_s,
        "speedup": eager_s / replay_s,
        "bit_identical": bit_identical,
        "instructions": program.n_instructions,
        "collectives_live": program.collectives_live,
        "collectives_folded": program.collectives_folded,
    }


def compare_capture(mesh_shapes=MESH_SHAPES, *, steps: int = 4,
                    batch: int = CAPTURE_BATCH, reps: int = 3,
                    backends=BACKENDS) -> list[dict]:
    """One :func:`time_capture` row per (mesh shape, backend)."""
    return [time_capture(shape, backend, steps=steps, batch=batch,
                         reps=reps)
            for shape in mesh_shapes for backend in backends]


#: Prefill chunk length the capture-v2 benchmark times.
CAPTURE_V2_CHUNK = 8


def time_capture_prefill(mesh_shape, backend, *,
                         chunk: int = CAPTURE_V2_CHUNK,
                         batch: int = CAPTURE_BATCH, reps: int = 8,
                         seed: int = 0) -> dict:
    """Eager prefill chunk vs captured-chunk replay, same cache offset.

    The program is captured on one chunk, then a *different* same-shape
    chunk is run three ways from the same cache base: eager, full replay,
    and body-only replay (``logits=False``, what every non-final chunk of
    ``chunked_prefill`` runs).  All three append the same positions, so
    the replayed logits and every mode's cache contents must match the
    eager ones bit for bit (asserted here).
    """
    from repro.mesh.capture import capture_prefill_chunk

    model, caches, _ = _build(mesh_shape, backend, batch,
                              4 + 3 * chunk, seed)
    rng = np.random.default_rng(seed + 2)
    vocab = decode_config().vocab_size
    chunk1 = rng.integers(0, vocab, size=(batch, chunk))
    chunk2 = rng.integers(0, vocab, size=(batch, chunk))
    _, program = capture_prefill_chunk(model, chunk1, caches)
    if program is None:
        raise AssertionError(
            f"prefill chunk did not capture on {mesh_shape} {backend}")
    base = caches[0].length

    def reset():
        for cache in caches:
            cache.length = base

    def kv():
        return [t.to_global() for cache in caches for t in cache.as_sharded()]

    def body(tokens, caches):
        program.replay(tokens, caches, logits=False)

    eager_logits = model.forward(chunk2, caches)
    eager_kv = kv()
    reset()
    replay_logits = program.replay(chunk2, caches)
    replay_kv = kv()
    reset()
    body(chunk2, caches)
    bit_identical = bool(
        np.array_equal(eager_logits, replay_logits)
        and all(np.array_equal(a, b) and np.array_equal(a, c)
                for a, b, c in zip(eager_kv, replay_kv, kv())))

    def timed(step_fn) -> float:
        reset()
        start = time.perf_counter()
        step_fn(chunk2, caches)
        return time.perf_counter() - start

    # Paired samples: each round times every mode back to back (order
    # rotating), so host speed swings over seconds hit all sides of a
    # round alike; the speedups are median per-round ratios.  Separate
    # best-of minima per mode, taken seconds apart, gave 1.4-2.1x on
    # runs of the same code on a shared 2-vCPU host.
    modes = (model.forward, program.replay, body)
    times = {fn: [] for fn in modes}
    for i in range(3 * reps):
        for fn in modes[i % 3:] + modes[:i % 3]:
            times[fn].append(timed(fn))
    eager, replay, body_only = (np.array(times[fn]) for fn in modes)
    reset()
    return {
        "mesh": "x".join(map(str, mesh_shape)),
        "chips": int(np.prod(mesh_shape)),
        "backend": backend,
        "chunk": chunk,
        "eager_s": float(np.median(eager)),
        "replay_s": float(np.median(replay)),
        "body_s": float(np.median(body_only)),
        "speedup": float(np.median(eager / replay)),
        "body_speedup": float(np.median(replay / body_only)),
        "bit_identical": bit_identical,
        "instructions": program.n_instructions,
        "body_instructions": program.n_body,
    }


def capture_hit_rate(mesh_shape, backend, *, batch: int = CAPTURE_BATCH,
                     seed: int = 0) -> dict:
    """Program-cache hit rate on a shrinking continuous-batching run.

    Rows retire on a staggered schedule, so the live batch shrinks every
    few rounds; the compiler's batch bucketing pads the shrunken batch
    back to the cache capacity and one warm program keeps replaying.
    """
    from repro.mesh.capture import StepCompiler
    from repro.serving.continuous import sharded_decode_rounds

    budgets = [max(4, 18 - 2 * (i // 2)) for i in range(batch)]
    model, caches, prompt = _build(mesh_shape, backend, batch,
                                   4 + 2 + max(budgets), seed)
    compiler = StepCompiler(batch_bucket=batch)
    sharded_decode_rounds(model, compiler, prompt[:, -1], caches, budgets)
    stats = compiler.stats()
    return {
        "mesh": "x".join(map(str, mesh_shape)),
        "chips": int(np.prod(mesh_shape)),
        "backend": backend,
        "rounds": max(budgets),
        "distinct_batches": len(set(budgets)),
        "hits": stats["hits"],
        "misses": stats["misses"],
        "hit_rate": stats["hit_rate"],
        "programs": stats["programs"],
    }


#: Shapes the capture-v2 benchmark sweeps: the smallest multi-chip torus
#: plus the paper's 4x4x4 (where the acceptance gates apply).
CAPTURE_V2_SHAPES = ((2, 2, 2), (4, 4, 4))


def compare_capture_v2(mesh_shapes=CAPTURE_V2_SHAPES, *,
                       chunk: int = CAPTURE_V2_CHUNK,
                       batch: int = CAPTURE_BATCH, reps: int = 8,
                       backends=BACKENDS) -> dict:
    """Prefill / hit-rate sections, one row per (shape, backend)."""
    return {
        "prefill": [time_capture_prefill(shape, backend, chunk=chunk,
                                         batch=batch, reps=reps)
                    for shape in mesh_shapes for backend in backends],
        "hit_rate": [capture_hit_rate(shape, backend, batch=batch)
                     for shape in mesh_shapes for backend in backends],
    }


def format_capture_v2_table(sections: dict) -> str:
    lines = ["Prefill chunk: eager vs captured replay vs body-only replay "
             "(seconds/chunk)",
             f"{'mesh':>7s} {'backend':>8s} {'len':>4s} {'eager':>10s} "
             f"{'replay':>10s} {'speedup':>8s} {'body':>10s} "
             f"{'full/body':>9s} {'bits':>5s}"]
    for row in sections["prefill"]:
        lines.append(
            f"{row['mesh']:>7s} {row['backend']:>8s} {row['chunk']:>4d} "
            f"{row['eager_s'] * 1e3:9.2f}m {row['replay_s'] * 1e3:9.2f}m "
            f"{row['speedup']:7.2f}x {row['body_s'] * 1e3:9.2f}m "
            f"{row['body_speedup']:8.2f}x "
            f"{'ok' if row['bit_identical'] else 'FAIL':>5s}")
    lines += ["", "Program-cache hit rate, shrinking continuous batch",
              f"{'mesh':>7s} {'backend':>8s} {'rounds':>7s} "
              f"{'batches':>8s} {'hits':>6s} {'misses':>7s} {'rate':>7s}"]
    for row in sections["hit_rate"]:
        lines.append(
            f"{row['mesh']:>7s} {row['backend']:>8s} {row['rounds']:>7d} "
            f"{row['distinct_batches']:>8d} {row['hits']:>6d} "
            f"{row['misses']:>7d} {row['hit_rate'] * 100:6.1f}%")
    return "\n".join(lines)


def format_capture_table(rows: list[dict]) -> str:
    lines = ["Decode step: eager vs captured replay (seconds/step)",
             f"{'mesh':>7s} {'chips':>6s} {'backend':>8s} {'eager':>10s} "
             f"{'replay':>10s} {'speedup':>8s} {'folded':>9s} {'bits':>5s}"]
    for row in rows:
        folded = (f"{row['collectives_folded']}/"
                  f"{row['collectives_folded'] + row['collectives_live']}")
        lines.append(
            f"{row['mesh']:>7s} {row['chips']:>6d} {row['backend']:>8s} "
            f"{row['eager_s'] * 1e3:9.2f}m {row['replay_s'] * 1e3:9.2f}m "
            f"{row['speedup']:7.2f}x {folded:>9s} "
            f"{'ok' if row['bit_identical'] else 'FAIL':>5s}")
    return "\n".join(lines)


def format_table(rows: list[dict]) -> str:
    lines = ["Decode step: loop vs stacked mesh backend (seconds/step)",
             f"{'mesh':>7s} {'chips':>6s} {'loop':>10s} {'stacked':>10s} "
             f"{'speedup':>8s}"]
    for row in rows:
        loop_s = row.get("loop_s")
        stacked_s = row.get("stacked_s")
        lines.append(
            f"{row['mesh']:>7s} {row['chips']:>6d} "
            + (f"{loop_s * 1e3:9.2f}m" if loop_s is not None
               else f"{'-':>10s}") + " "
            + (f"{stacked_s * 1e3:9.2f}m" if stacked_s is not None
               else f"{'-':>10s}") + " "
            + (f"{row['speedup']:7.1f}x" if "speedup" in row
               else f"{'-':>8s}"))
    return "\n".join(lines)
