"""Capture v2: prefill programs, optimized decode, bucketed replay, threads.

The v2 contract on top of ``test_step_capture.py``'s single-step replay:

* :meth:`StepCompiler.prefill_chunk` replays every chunk-length bucket
  of :func:`~repro.serving.chunked.chunked_prefill` bit-identically —
  logits *and* KV contents — on both backends, across prompts;
* the optimized single-step decode program (the stacked backend's tape
  optimizer) matches eager logits and KV caches bit for bit under every
  decode plan the selector returns on 2x2x2 and 4x4x4, at batch sizes
  1-4, and again after a replica's profile switch re-captures;
* capture state is shared safely: collective index tables by identity
  across programs and read-only, fused projection weights across one
  compiler's programs, dropped on invalidation and never handed to a
  rebuilt model;
* the bucketed program cache pads shrinking batches onto one warm
  program (live rows bit-identical), bounds itself by LRU eviction, and
  counts hits/misses/evictions/explicit invalidations;
* parallel replica stepping (``step_threads >= 1``) is an execution
  detail: a seeded chaos run produces the same report, event log and
  span stream as the serial path.
"""

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cluster import ClusterControlPlane, run_scenario
from repro.cluster.replica import Replica
from repro.events import EventLog
from repro.hardware.topology import Torus3D
from repro.layouts import ShardedTransformer
from repro.mesh import BACKENDS, VirtualMesh
from repro.mesh.capture import StepCompiler, capture_decode_step
from repro.model import init_weights, tiny_test_config
from repro.partitioning import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.partitioning.degraded import (
    select_degraded_plan,
    select_profile_plan,
)
from repro.partitioning.selector import Phase
from repro.serving.chunked import chunked_prefill

CFG = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
WEIGHTS = init_weights(CFG, seed=0)
PROMPT = np.random.default_rng(5).integers(0, CFG.vocab_size, size=(8, 4))

WG_BATCH = LayoutPlan(FfnLayoutKind.WG_XY, AttentionLayoutKind.BATCH)
WS2D_HEAD = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)

# Wide enough for the selector to return both a weight-stationary and a
# weight-gathered decode plan on 2x2x2 and 4x4x4.
CFG_WIDE = tiny_test_config(n_layers=2, d_model=64, d_ff=128, n_heads=16,
                            d_head=4, vocab_size=32)
WEIGHTS_WIDE = init_weights(CFG_WIDE, seed=0)
PROMPT_WIDE = np.random.default_rng(6).integers(
    0, CFG_WIDE.vocab_size, size=(4, 4))


def fresh_model(backend="stacked", mesh_shape=(2, 2, 2), plan=WG_BATCH,
                weights=WEIGHTS):
    mesh = VirtualMesh(mesh_shape, backend=backend)
    return ShardedTransformer(weights, mesh, plan)


def plan_id(plan):
    return f"{plan.ffn.value}/{plan.attention.value}"


def selector_decode_cases():
    """(mesh shape, plan, batch) for every decode plan the selector —
    balanced pick or either Pareto profile — returns at batch 1-4."""
    cases = []
    for shape in ((2, 2, 2), (4, 4, 4)):
        torus = Torus3D(*shape)
        for batch in range(1, 5):
            plans = {select_degraded_plan(CFG_WIDE, torus, Phase.DECODE,
                                          batch=batch, tokens_per_seq=1)}
            for weight_gathered in (False, True):
                try:
                    plans.add(select_profile_plan(
                        CFG_WIDE, torus, batch,
                        weight_gathered=weight_gathered))
                except ValueError:
                    pass  # no valid plan on that side of the frontier
            cases += [pytest.param(
                shape, plan, batch,
                id=f"{'x'.join(map(str, shape))}-{plan_id(plan)}-b{batch}")
                for plan in sorted(plans, key=plan_id)]
    return cases


def fused_weight_ids(program):
    """Ids of the concatenated weights a program's fused einsums read."""
    return {id(program._template[ins.inputs[1]])
            for ins in program._instrs if ins.label.startswith("einsum_fused")}


def build(backend="stacked", steps=6):
    """A fresh (model, caches, next-token) triple after an eager prefill."""
    model = fresh_model(backend)
    logits, caches = model.prefill(PROMPT, PROMPT.shape[1] + steps)
    return model, caches, np.argmax(logits, -1)


def caches_equal(mesh, a_caches, b_caches):
    """KV fill and contents bit-identical, shard by shard."""
    for a, b in zip(a_caches, b_caches):
        if a.length != b.length:
            return False
        for x, y in ((a.k, b.k), (a.v, b.v)):
            if x.dtype == object or y.dtype == object:
                if not all(np.array_equal(x[c], y[c])
                           for c in mesh.devices()):
                    return False
            elif not np.array_equal(x, y):
                return False
    return True


class TestPrefillReplay:
    """Differential prefill replay, every chunk-length bucket."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_bucket_bit_identical(self, backend):
        # 10 tokens in chunks of 4 -> lengths (4, 4, 2): two buckets,
        # and the second length-4 chunk replays within the prompt.
        prompt = np.random.default_rng(11).integers(
            0, CFG.vocab_size, size=(4, 10))
        compiler = StepCompiler()
        eager_logits, eager_caches = chunked_prefill(
            fresh_model(backend), prompt, 4, 16)
        model = fresh_model(backend)
        logits, caches = chunked_prefill(model, prompt, 4, 16,
                                         compiler=compiler)
        assert logits.dtype == eager_logits.dtype
        assert np.array_equal(logits, eager_logits)
        assert caches_equal(model.mesh, eager_caches, caches)
        assert compiler.misses == 2 and compiler.captures == 2
        assert compiler.hits == 1 and compiler.replays == 1

    def test_second_prompt_replays_every_chunk(self):
        first = np.random.default_rng(3).integers(
            0, CFG.vocab_size, size=(4, 8))
        second = np.random.default_rng(4).integers(
            0, CFG.vocab_size, size=(4, 8))
        model = fresh_model()
        compiler = StepCompiler()
        chunked_prefill(model, first, 4, 12, compiler=compiler)
        assert compiler.captures == 1  # one length bucket
        hits_before = compiler.hits

        eager_logits, eager_caches = chunked_prefill(
            fresh_model(), second, 4, 12)
        logits, caches = chunked_prefill(model, second, 4, 12,
                                         compiler=compiler)
        # Both chunks of the new prompt hit the warm program: programs
        # survive across prompts on the same deployment.
        assert compiler.hits - hits_before == 2
        assert compiler.captures == 1
        assert np.array_equal(logits, eager_logits)
        assert caches_equal(model.mesh, eager_caches, caches)


class TestBucketedProgramCache:
    """Shape-bucketed signatures: hits, misses, eviction, padding."""

    def test_lru_eviction_bounds_the_cache(self):
        model = fresh_model()
        caches = model.new_cache(4, 16)
        compiler = StepCompiler(max_programs=2)
        rng = np.random.default_rng(9)
        for length in (2, 3, 4):  # three distinct chunk-length buckets
            chunk = rng.integers(0, CFG.vocab_size, size=(4, length))
            compiler.prefill_chunk(model, chunk, caches)
        assert compiler.captures == 3
        assert compiler.n_programs == 2
        assert compiler.evictions == 1
        # The evicted length-2 bucket is cold again: miss + re-capture.
        chunk = rng.integers(0, CFG.vocab_size, size=(4, 2))
        compiler.prefill_chunk(model, chunk, caches)
        assert compiler.misses == 4
        assert compiler.evictions == 2
        assert compiler.n_programs == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_padding_bit_identical(self, backend):
        """A shrunk batch pads up to the cache capacity and slices back."""
        eager_model, eager_caches, eager_tok = build(backend)
        model, caches, tok = build(backend)
        compiler = StepCompiler(warmup_steps=0, batch_bucket=8)
        live = 5
        # The compiler pads by repeating the last live row; the eager
        # twin decodes the full batch with the same repetition, so the
        # live rows see identical inputs and KV history.
        full = eager_tok.copy()
        full[live:] = full[live - 1]
        for _ in range(3):
            eager = eager_model.decode_step(full, eager_caches)
            got = compiler.decode_step(model, full[:live], caches)
            assert got.shape[0] == live
            assert np.array_equal(got, eager[:live])
            full = np.argmax(eager, -1)
            full[live:] = full[live - 1]
        # One program serves every step of the shrunk batch.
        assert compiler.captures == 1
        assert compiler.hits >= 1
        assert caches_equal(model.mesh, eager_caches, caches)

    def test_explicit_invalidate_counts(self):
        model, caches, tok = build()
        compiler = StepCompiler(warmup_steps=0)
        compiler.decode_step(model, tok, caches)
        assert compiler.n_programs == 1
        compiler.invalidate()
        assert compiler.n_programs == 0
        assert compiler.invalidations == 1
        assert compiler.stats()["invalidations"] == 1


class TestOptimizedDecode:
    """The stacked single-step decode program runs the tape optimizer
    and stays bit-identical to eager — logits and KV caches."""

    @pytest.mark.parametrize("shape, plan, batch", selector_decode_cases())
    def test_bit_identical_under_every_selector_plan(self, shape, plan,
                                                     batch):
        model = fresh_model(mesh_shape=shape, plan=plan,
                            weights=WEIGHTS_WIDE)
        prompt = PROMPT_WIDE[:batch]
        logits, eager_caches = model.prefill(prompt, prompt.shape[1] + 5)
        _, caches = model.prefill(prompt, prompt.shape[1] + 5)
        tok = np.argmax(logits, -1)
        compiler = StepCompiler(warmup_steps=0)
        for _ in range(4):
            eager = model.decode_step(tok, eager_caches)
            assert np.array_equal(compiler.decode_step(model, tok, caches),
                                  eager)
            tok = np.argmax(eager, -1)
        assert compiler.captures == 1 and compiler.replays == 3
        assert compiler.program.optimized
        assert caches_equal(model.mesh, eager_caches, caches)

    def test_recapture_after_switch_profile(self):
        replica = Replica("r0", WEIGHTS_WIDE, (4, 4, 4), backend="stacked",
                          decode_batch=4)
        compiler = replica.step_compiler
        for profile in ("balanced", "weight-gathered"):
            if profile != "balanced":
                assert replica.switch_profile(profile, now_s=0.0)
                assert compiler.n_programs == 0
                assert not compiler.weight_share
            model = replica.decode_model
            logits, eager_caches = model.prefill(PROMPT_WIDE, 8)
            _, caches = model.prefill(PROMPT_WIDE, 8)
            tok = np.argmax(logits, -1)
            for _ in range(3):
                eager = model.decode_step(tok, eager_caches)
                got = compiler.decode_step(model, tok, caches)
                assert np.array_equal(got, eager)
                tok = np.argmax(eager, -1)
            assert compiler.program.signature.plan == model.plan
            assert caches_equal(model.mesh, eager_caches, caches)
        assert compiler.captures == 2


class TestSharedCaptureState:
    """Index tables and fused weights are shared, and safely so."""

    def test_index_tables_shared_by_identity_and_read_only(self):
        tables = []
        for _ in range(2):  # two deployments, two meshes, two programs
            model, caches, tok = build()
            _, program = capture_decode_step(model, tok, caches)
            tables.append({id(t): t for t in (
                getattr(ins.fn, "index_table", None)
                for ins in program._instrs) if t is not None})
        assert tables[0] and tables[0].keys() == tables[1].keys()
        for table in tables[0].values():
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0

    def test_fused_weights_shared_by_a_compilers_programs(self):
        model = fresh_model(plan=WS2D_HEAD)
        caches = model.new_cache(PROMPT.shape[0], 8)
        compiler = StepCompiler(warmup_steps=0)
        compiler.prefill_chunk(model, PROMPT, caches)
        compiler.decode_step(model, PROMPT[:, -1], caches)
        prefill, decode = compiler._programs.values()
        assert fused_weight_ids(prefill)
        assert fused_weight_ids(prefill) == fused_weight_ids(decode)
        assert len(compiler.weight_share) == CFG.n_layers
        compiler.invalidate()
        assert compiler.weight_share == {}

    def test_rebuilt_model_never_gets_a_stale_concatenation(self):
        compiler = StepCompiler(warmup_steps=0)
        old = fresh_model(plan=WS2D_HEAD)
        _, old_caches = old.prefill(PROMPT, 8)
        compiler.decode_step(old, PROMPT[:, -1], old_caches)
        stale = fused_weight_ids(compiler.program)
        # Rebuilt on a new mesh with different weights and no explicit
        # invalidate: the old concatenations are still in the share.
        new = fresh_model(plan=WS2D_HEAD, weights=init_weights(CFG, seed=1))
        logits, eager_caches = new.prefill(PROMPT, 8)
        _, caches = new.prefill(PROMPT, 8)
        tok = np.argmax(logits, -1)
        for _ in range(3):
            eager = new.decode_step(tok, eager_caches)
            assert np.array_equal(compiler.decode_step(new, tok, caches),
                                  eager)
            tok = np.argmax(eager, -1)
        assert compiler.captures == 2 and compiler.replays == 2
        assert not fused_weight_ids(compiler.program) & stale


class TestParallelReplicaStepping:
    """Threaded stepping is an execution detail, not a behavior."""

    @staticmethod
    def assert_threaded_run_identical(scenario, backend):
        logs, spans, reports = {}, {}, {}
        for threads in (0, 2):
            log = EventLog()
            report = run_scenario(scenario, backend=backend, seed=0,
                                  event_log=log, step_threads=threads)
            logs[threads] = [(e.kind, dict(e.data)) for e in log]
            spans[threads] = [(s.name, s.kind, s.start_s, s.end_s)
                              for s in report.spans]
            reports[threads] = dataclasses.replace(report, spans=[])
        assert logs[0] == logs[2]
        assert spans[0] == spans[2]
        assert reports[0] == reports[2]

    @pytest.mark.parametrize("scenario",
                             ["rolling-kill", "correlated-stragglers"])
    def test_threaded_run_identical_to_serial(self, scenario):
        self.assert_threaded_run_identical(scenario, "loop")

    def test_threaded_hedge_race_identical_on_stacked_backend(self):
        """The same race where every captured program is optimized."""
        self.assert_threaded_run_identical("correlated-stragglers",
                                           "stacked")

    def test_concurrent_replays_sharing_index_tables_match_serial(self):
        """Programs of distinct deployments share read-only index tables
        but own their buffers: replaying them on more threads than cores
        gives each exactly its serial logits."""
        n_programs, steps = 4, 30
        rng = np.random.default_rng(8)
        tokens = [rng.integers(0, CFG.vocab_size, size=PROMPT.shape[0])
                  for _ in range(n_programs)]
        barrier = threading.Barrier(n_programs)

        def replay_all(program, tok, caches, wait=False):
            if wait:
                barrier.wait(timeout=60)  # start every thread together
            return [program.replay(tok, caches) for _ in range(steps)]

        results = {}
        for threaded in (False, True):
            runs = []
            for tok in tokens:
                model, caches, _ = build(steps=steps + 1)
                _, program = capture_decode_step(model, tok, caches)
                runs.append((program, tok, caches))
            if not threaded:
                results[threaded] = [replay_all(*run) for run in runs]
                continue
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=n_programs) as pool:
                    futures = [pool.submit(replay_all, *run, wait=True)
                               for run in runs]
                    results[threaded] = [f.result(timeout=60)
                                         for f in futures]
            finally:
                sys.setswitchinterval(switch)
        for serial, threaded in zip(results[False], results[True]):
            for a, b in zip(serial, threaded):
                assert np.array_equal(a, b)

    def test_negative_step_threads_rejected(self):
        with pytest.raises(ValueError, match="step_threads"):
            ClusterControlPlane(WEIGHTS, [(1, 1, 1)], step_threads=-1)
