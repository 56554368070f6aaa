"""Capture v2: prefill programs, optimized decode, bucketed replay, threads.

The v2 contract on top of ``test_step_capture.py``'s single-step replay:

* :meth:`StepCompiler.prefill_chunk` replays every chunk-length bucket
  of :func:`~repro.serving.chunked.chunked_prefill` bit-identically —
  logits *and* KV contents — on both backends, across prompts;
* non-final chunks replay only the program's KV body: caches, final
  logits and the fault clock match full replays and eager, with and
  without KV-store hits and on the 4x4x4 torus, and the vocab
  projection never runs;
* the optimized single-step decode program (the stacked backend's tape
  optimizer) matches eager logits and KV caches bit for bit under every
  decode plan the selector returns on 2x2x2 and 4x4x4, at batch sizes
  1-4, and again after a replica's profile switch re-captures;
* capture state is shared safely: collective index tables by identity
  across programs and read-only; every program of a deployment reads
  the model's one concatenation of its fused input-projection weights,
  and a rebuilt model's programs never read the old model's;
* the bucketed program cache bounds itself by LRU eviction and counts
  hits/misses/evictions/explicit invalidations;
* programs of distinct deployments replayed on concurrent threads each
  give exactly their serial logits;
* one program store serves a fleet: a program captured on replica A
  replays on a same-shape replica B bit-identically to B's eager run
  (decode, full and body-only prefill chunks), charges B's fault clock
  and tracer and not A's, never hits for a collected weights object
  whose id was reused, spares a scaled-out replica every capture its
  plane already holds, is never shared between planes, and serializes
  concurrent replays of one program on many cache sets;
* every value a stacked program keeps one copy of is really replicated
  in the eager step's arrays (:mod:`tests.unit.replica_check`).
"""

import dataclasses
import gc
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cli import decode_config
from repro.cluster import ClusterControlPlane
from repro.cluster.replica import GroupRun, Replica
from repro.hardware.topology import Torus3D
from repro.layouts import ShardedTransformer
from repro.mesh import BACKENDS, VirtualMesh
from repro.mesh.capture import (
    ProgramStore,
    StepCompiler,
    capture_decode_step,
    capture_prefill_chunk,
)
from repro.mesh.faults import FaultPlan
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
from repro.serving import Request
from repro.serving.chunked import chunked_prefill
from tests.unit.replica_check import collapsed_replicas_are_real  # noqa: F401

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
    """Ids of the concatenated weights a program's fused input
    projections read (bound into their prebound matmul runners)."""
    return {id(ins.fn.weight)
            for ins in program._instrs if ins.label == "projection"}


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


def full_replay_prefill(model, compiler, prompt, max_len, chunk=4):
    """``chunked_prefill`` with every chunk run in full, head included."""
    caches = model.new_cache(prompt.shape[0], max_len)
    for start in range(0, prompt.shape[1], chunk):
        logits = compiler.prefill_chunk(
            model, prompt[:, start:start + chunk], caches)
    return logits[:, -1], caches


def global_kv(caches):
    """Every layer's K and V as global arrays (replicas must agree)."""
    return [t.to_global() for cache in caches for t in cache.as_sharded()]


def counting_program(program, label):
    """``program`` rebuilt with every ``label`` instruction counting its
    calls (same instructions, template and body/head split)."""
    from repro.mesh.capture import CapturedProgram

    calls = []
    for ins in program._instrs:
        if ins.label == label:
            def counted(*args, _fn=ins.fn, **kwargs):
                calls.append(label)
                return _fn(*args, **kwargs)
            ins.fn = counted
    rebuilt = CapturedProgram(
        program.mesh, program._instrs, program._template,
        program._out_vid, program.signature, n_body=program.n_body,
        collectives_captured=program.collectives_captured,
        collectives_folded=program.collectives_folded,
        optimized=program.optimized)
    return rebuilt, calls


class TestBodyOnlyPrefill:
    """Non-final prefill chunks replay only the program's KV body.

    Each program splits into a body (everything the KV appends need)
    and a head (the last layer's remaining work, the final norm and the
    vocab projection); ``chunked_prefill`` asks for logits on its last
    chunk only.  The caches and the final logits must not notice.
    """

    VOCAB_EINSUM = "einsum:ble,ve->blv"

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("store", [False, True],
                             ids=["cold", "store-hit"])
    # One length per residue mod the chunk of 4; 63 tokens is 16 chunks.
    @pytest.mark.parametrize("length", [12, 17, 22, 63])
    def test_body_only_chunks_bit_identical(self, backend, store, length):
        from repro.kvstore import KVStore

        rng = np.random.default_rng(length)
        prompt = rng.integers(0, CFG.vocab_size, size=(1, length))
        max_len = length + 1
        model = fresh_model(backend, plan=WS2D_HEAD)
        eager_logits, eager_caches = chunked_prefill(model, prompt, 4,
                                                     max_len)
        compiler = StepCompiler()
        full_logits, full_caches = full_replay_prefill(model, compiler,
                                                       prompt, max_len)
        kvstore = None
        start = 0
        if store:
            # Seed the store with a prompt sharing the first half.
            kvstore = KVStore(page_tokens=4, capacity_pages=64)
            seed = prompt.copy()
            seed[0, length // 2:] = (seed[0, length // 2:] + 1) \
                % CFG.vocab_size
            chunked_prefill(model, seed, 4, max_len, compiler=compiler,
                            kvstore=kvstore)
            kvstore.take_last_reuse()
        tracer = model.mesh.install_tracer()
        hits_before = compiler.hits
        logits, caches = chunked_prefill(model, prompt, 4, max_len,
                                         compiler=compiler, kvstore=kvstore)
        if store:
            reuse = kvstore.take_last_reuse()
            start = reuse.matched_tokens
            assert start > 0
            reuse.lease.release()
        n_chunks = -(-(length - start) // 4)
        # Every computed chunk replayed; all but the last without a head.
        assert compiler.hits - hits_before == n_chunks
        heads = [s.attrs["head"] for s in tracer.spans
                 if s.kind == "replay"]
        assert heads == [False] * (n_chunks - 1) + [True]

        assert np.array_equal(logits, full_logits)
        assert np.array_equal(logits, eager_logits)
        for a, b, c in zip(global_kv(caches), global_kv(full_caches),
                           global_kv(eager_caches)):
            assert np.array_equal(a, b) and np.array_equal(a, c)
        assert caches_equal(model.mesh, eager_caches, caches)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_eager_full_and_body_only_chunks_agree_on_4x4x4(self,
                                                             backend):
        """The paper's 64-chip torus, on the 16-layer weight-gathered
        workload: a chunk program captured on one chunk runs a different
        same-shape chunk eagerly, in full and body-only from the same
        cache base, and all three agree bit for bit."""
        config = decode_config()
        model = fresh_model(backend, (4, 4, 4),
                            weights=init_weights(config, seed=0))
        rng = np.random.default_rng(2)
        prompt, first, second = (
            rng.integers(0, config.vocab_size, size=(16, n))
            for n in (4, 8, 8))
        _, caches = model.prefill(prompt, 4 + 3 * 8)
        _, program = capture_prefill_chunk(model, first, caches)
        assert program is not None
        base = caches[0].length

        eager_logits = model.forward(second, caches)
        eager_kv = global_kv(caches)
        for cache in caches:
            cache.length = base
        full_logits = program.replay(second, caches)
        full_kv = global_kv(caches)
        for cache in caches:
            cache.length = base
        assert program.replay(second, caches, logits=False) is None
        assert np.array_equal(full_logits, eager_logits)
        for a, b, c in zip(eager_kv, full_kv, global_kv(caches)):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_body_only_replay_never_runs_the_vocab_einsum(self, backend):
        model = fresh_model(backend, plan=WS2D_HEAD)
        caches = model.new_cache(1, 12)
        chunks = np.random.default_rng(1).integers(
            0, CFG.vocab_size, size=(3, 1, 4))
        compiler = StepCompiler()
        compiler.prefill_chunk(model, chunks[0], caches)
        program, calls = counting_program(compiler.program,
                                          self.VOCAB_EINSUM)
        tracer = model.mesh.install_tracer()
        assert program.replay(chunks[1], caches, logits=False) is None
        assert calls == []
        assert program.replay(chunks[2], caches).shape == (1, 4,
                                                           CFG.vocab_size)
        assert calls == [self.VOCAB_EINSUM]
        body, full = [s.attrs for s in tracer.spans if s.kind == "replay"]
        assert (body["instructions"], body["head"]) == (program.n_body,
                                                        False)
        assert (full["instructions"], full["head"]) == (
            program.n_instructions, True)
        assert 0 < program.n_body < program.n_instructions

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_body_only_replay_keeps_the_fault_clock(self, backend):
        """Eager execution would have run every collective, head
        included, so a body-only replay still adds them all."""
        from repro.mesh.faults import FaultPlan

        chunks = np.random.default_rng(2).integers(
            0, CFG.vocab_size, size=(2, 1, 4))
        eager = fresh_model(backend, plan=WS2D_HEAD)
        eager_state = eager.mesh.install_faults(FaultPlan(()))
        eager_caches = eager.new_cache(1, 8)
        model = fresh_model(backend, plan=WS2D_HEAD)
        state = model.mesh.install_faults(FaultPlan(()))
        caches = model.new_cache(1, 8)
        compiler = StepCompiler()
        for chunk in chunks:
            eager.forward(chunk, eager_caches)
            compiler.prefill_chunk(model, chunk, caches, logits=False)
            assert state.op_counter == eager_state.op_counter
        assert compiler.replays == 1
        head_collectives = sum(ins.collective for ins in
                               compiler.program._instrs[
                                   compiler.program.n_body:])
        assert head_collectives > 0

    def test_kv_producers_behind_frozen_views_stay_in_the_body(self):
        """Split before freezing views, or K/V go stale.

        On the stacked backend K and V reach the appends through column
        views of the model's fused input projection, whose buffer
        finalize freezes into the template; a split that ran after
        freezing would see no producer for them and put the projection
        in the head.  Body-only
        replays of *different* chunks must then still write fresh K/V
        (and every replica of the replicated cache must agree)."""
        model = fresh_model("stacked", plan=WS2D_HEAD)
        chunks = np.random.default_rng(3).integers(
            0, CFG.vocab_size, size=(4, 1, 4))
        eager = fresh_model("stacked", plan=WS2D_HEAD)
        eager_caches = eager.new_cache(1, 16)
        caches = model.new_cache(1, 16)
        compiler = StepCompiler()
        for i, chunk in enumerate(chunks):
            eager.forward(chunk, eager_caches)
            compiler.prefill_chunk(model, chunk, caches, logits=i == 1)
        program = compiler.program
        fused = [i for i, ins in enumerate(program._instrs)
                 if ins.label == "projection"]
        assert fused and fused[0] < program.n_body
        for a, b in zip(global_kv(caches), global_kv(eager_caches)):
            assert np.array_equal(a, b)
        assert caches_equal(model.mesh, eager_caches, caches)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_context_read_before_an_append_stays_in_the_body(self,
                                                              backend):
        """A cache read that only feeds the output but precedes an
        append must still see the pre-append cache: it stays in the
        body, ahead of the append, rather than moving to the head."""
        from repro.layouts.kv_cache import ShardedKVCache
        from repro.mesh.capture import capturing
        from repro.mesh.sharded_tensor import ShardedTensor

        mesh = VirtualMesh((1, 2, 1), backend=backend)
        cache = ShardedKVCache(mesh, "BMKD", batch=1, max_len=4,
                               n_kv_heads=1, d_head=2)
        kv = ShardedTensor.from_global(mesh, np.ones((1, 1, 1, 2)), "BLKD")
        with capturing(mesh, [cache]) as recorder:
            fill = np.array(cache.length)
            recorder.record(lambda ctx: np.array(ctx.caches[0].length),
                            (recorder.CTX,), fill, "fill")
            cache.append(kv, kv)
            out = fill + 1
            recorder.record(lambda f: f + 1, (fill,), out, "out")
            program = recorder.finalize(out)
        assert program.n_body == 2  # the fill read, then the append
        assert program.replay(caches=[cache]) == 2  # read at fill 1
        assert program.replay(caches=[cache], logits=False) is None
        assert cache.length == 3


class TestBucketedProgramCache:
    """Shape-bucketed signatures: hits, misses, eviction."""

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

    def test_switch_profile_captures_and_replays_old_plan(self):
        """A profile switch captures the new plan under its own key and
        keeps the old plan's program, so switching back replays it
        without a capture."""
        replica = Replica("r0", WEIGHTS_WIDE, (4, 4, 4), backend="stacked",
                          decode_batch=4)
        compiler = replica.step_compiler
        for n, profile in enumerate(("balanced", "weight-gathered",
                                     "balanced")):
            if n:
                assert replica.switch_profile(profile, now_s=0.0)
                assert compiler.n_programs == n
                assert compiler.program.signature.plan != \
                    replica.decode_model.plan
            captures, hits = compiler.captures, compiler.hits
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
            if n == 2:  # back on the first plan: every step a hit
                assert compiler.captures == captures
                assert compiler.hits == hits + 3
        assert compiler.captures == 2 and compiler.invalidations == 0


class TestSharedCaptureState:
    """Index tables and fused projection weights are shared, and safely
    so."""

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
        # One projection per (parallel) block, each reading the model's
        # concatenation itself: no program holds a copy of its own.
        model_ids = {id(cat) for layer in model._fused for cat in layer}
        assert len(model_ids) == CFG.n_layers
        assert fused_weight_ids(prefill) == model_ids
        assert fused_weight_ids(decode) == model_ids

    def test_rebuilt_model_never_gets_a_stale_concatenation(self):
        compiler = StepCompiler(warmup_steps=0)
        old = fresh_model(plan=WS2D_HEAD)
        _, old_caches = old.prefill(PROMPT, 8)
        compiler.decode_step(old, PROMPT[:, -1], old_caches)
        stale = fused_weight_ids(compiler.program)
        # Rebuilt on a new mesh with different weights and no explicit
        # invalidate: the old model and its concatenations are alive.
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


class TestFleetProgramStore:
    """One store, many replicas: capture once, replay on any same-shape
    mesh with the same weights and plan."""

    @staticmethod
    def pair(backend, shape=(2, 2, 2), plan=WG_BATCH, weights=WEIGHTS):
        """Two compilers sharing one store, and two same-shape models."""
        store = ProgramStore()
        return ([StepCompiler(store=store) for _ in range(2)],
                [fresh_model(backend, shape, plan, weights)
                 for _ in range(2)])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shape", [(2, 2, 2), (4, 4, 4)],
                             ids=["2x2x2", "4x4x4"])
    def test_program_from_a_replays_bit_identically_on_b(self, backend,
                                                          shape):
        (comp_a, comp_b), (model_a, model_b) = self.pair(
            backend, shape, WS2D_HEAD, WEIGHTS_WIDE)
        eager = fresh_model(backend, shape, WS2D_HEAD, WEIGHTS_WIDE)
        prompt = np.random.default_rng(12).integers(
            0, CFG_WIDE.vocab_size, size=(4, 12))
        max_len = 12 + 4
        # A captures the length-4 chunk program, then its decode step.
        logits_a, caches_a = chunked_prefill(model_a, prompt, 4, max_len,
                                             compiler=comp_a)
        tok = np.argmax(logits_a, -1)
        for _ in range(2):  # warmup, then capture
            tok = np.argmax(comp_a.decode_step(model_a, tok, caches_a), -1)
        assert comp_a.captures == 2

        tracer = model_b.mesh.install_tracer()
        logits, caches = chunked_prefill(model_b, prompt, 4, max_len,
                                         compiler=comp_b)
        eager_logits, eager_caches = chunked_prefill(eager, prompt, 4,
                                                     max_len)
        # Two body-only chunks, then one full chunk, all replayed on B.
        assert [s.attrs["head"] for s in tracer.spans
                if s.kind == "replay"] == [False, False, True]
        assert np.array_equal(logits, eager_logits)
        for a, b in zip(global_kv(caches), global_kv(eager_caches)):
            assert np.array_equal(a, b)
        tok = np.argmax(eager_logits, -1)
        for _ in range(3):
            want = eager.decode_step(tok, eager_caches)
            assert np.array_equal(comp_b.decode_step(model_b, tok, caches),
                                  want)
            tok = np.argmax(want, -1)
        assert caches_equal(model_b.mesh, eager_caches, caches)
        assert (comp_b.captures, comp_b.eager_steps) == (0, 0)
        assert comp_b.hits == 6 and comp_b.misses == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replay_charges_the_replaying_mesh(self, backend):
        """B's replay advances B's fault clock and traces on B's tracer;
        A, which captured the program, sees nothing."""
        (comp_a, comp_b), (model_a, model_b) = self.pair(backend)
        comp_a.warmup_steps = comp_b.warmup_steps = 0
        states = [m.mesh.install_faults(FaultPlan(()))
                  for m in (model_a, model_b)]
        tracers = [m.mesh.install_tracer() for m in (model_a, model_b)]
        (logits_a, caches_a), (logits_b, caches_b) = (
            m.prefill(PROMPT, PROMPT.shape[1] + 4)
            for m in (model_a, model_b))
        comp_a.decode_step(model_a, np.argmax(logits_a, -1), caches_a)
        program = comp_a.program
        before_a = (states[0].op_counter, len(tracers[0].spans))
        tok = np.argmax(logits_b, -1)
        for step in range(2):  # decode_step, then the threaded thunk
            ops, spans = states[1].op_counter, len(tracers[1].spans)
            if step == 0:
                comp_b.decode_step(model_b, tok, caches_b)
            else:
                comp_b.decode_thunk(model_b, tok, caches_b)()
            assert states[1].op_counter == ops + \
                program.collectives_captured
            assert [s.kind for s in tracers[1].spans[spans:]
                    if s.kind == "replay"] == ["replay"]
        assert comp_b.replays == 2 and comp_b.captures == 0
        assert (states[0].op_counter, len(tracers[0].spans)) == before_a

    def test_collected_weights_whose_id_is_reused_never_hit(self):
        compiler = StepCompiler(warmup_steps=0)
        weights = dataclasses.replace(WEIGHTS)
        model = fresh_model(weights=weights)
        logits, caches = model.prefill(PROMPT, PROMPT.shape[1] + 4)
        compiler.decode_step(model, np.argmax(logits, -1), caches)
        assert compiler.captures == 1
        stale_id = id(weights)
        del model, caches, weights
        gc.collect()
        # Allocate bare weights objects until the allocator hands back
        # the collected object's address, then give it other values.
        donor = init_weights(CFG, seed=1)
        held = []
        for _ in range(100_000):
            reused = type(donor).__new__(type(donor))
            if id(reused) == stale_id:
                break
            held.append(reused)
        assert id(reused) == stale_id
        vars(reused).update(vars(donor))
        model = fresh_model(weights=reused)
        eager = fresh_model(weights=donor)
        logits, caches = model.prefill(PROMPT, PROMPT.shape[1] + 4)
        _, eager_caches = eager.prefill(PROMPT, PROMPT.shape[1] + 4)
        tok = np.argmax(logits, -1)
        assert np.array_equal(compiler.decode_step(model, tok, caches),
                              eager.decode_step(tok, eager_caches))
        assert compiler.replays == 0 and compiler.captures == 2
        assert compiler.invalidation_reasons == {"weights": 1}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scaled_out_replica_captures_nothing_the_plane_holds(self,
                                                                  backend):
        rng = np.random.default_rng(21)
        requests = [Request(i, rng.integers(0, CFG.vocab_size, size=8), 4)
                    for i in range(4)]
        plane = ClusterControlPlane(WEIGHTS, [(2, 2, 2)], backend=backend,
                                    prompt_len_hint=8)
        runs = []
        for replica in (plane.replicas[0],
                        plane.add_replica((2, 2, 2), 0.0)):
            assert replica.step_compiler.store is plane.program_store
            run = GroupRun(replica, requests)
            run.run_prefill()
            while not run.done:
                run.decode_step()
            runs.append(run)
        first, scaled = (run.replica.step_compiler for run in runs)
        assert first.captures > 0
        assert (scaled.captures, scaled.eager_steps, scaled.misses) == \
            (0, 0, 0)
        assert scaled.hits == first.hits + first.misses
        for a, b in zip(*(run.completions() for run in runs)):
            assert np.array_equal(a.tokens, b.tokens)

    def test_two_planes_never_share_a_store(self):
        planes = [ClusterControlPlane(WEIGHTS, [(2, 2, 2)],
                                      prompt_len_hint=8) for _ in range(2)]
        assert planes[0].program_store is not planes[1].program_store
        request = Request(0, PROMPT[0], 3)
        for plane in planes:
            run = GroupRun(plane.replicas[0], [request])
            run.run_prefill()
            while not run.done:
                run.decode_step()
            assert plane.replicas[0].step_compiler.captures > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_threaded_replays_of_one_program_match_serial(self, backend):
        """One shared program replayed on N cache sets from N threads at
        once gives every set exactly its serial logits and K/V."""
        n_sets, steps = 4, 20
        model = fresh_model(backend)
        rng = np.random.default_rng(5)
        prompts = [rng.integers(0, CFG.vocab_size, size=PROMPT.shape)
                   for _ in range(n_sets)]
        _, seed_caches = model.prefill(PROMPT, PROMPT.shape[1] + 1)
        _, program = capture_decode_step(model, PROMPT[:, -1], seed_caches)
        barrier = threading.Barrier(n_sets)

        def cache_sets():
            return [model.prefill(p, p.shape[1] + steps) for p in prompts]

        def replay_all(logits, caches, wait=False):
            tok = np.argmax(logits, -1)
            if wait:
                barrier.wait(timeout=60)  # start every thread together
            out = []
            for _ in range(steps):
                out.append(program.replay(tok, caches))
                tok = np.argmax(out[-1], -1)
            return out, global_kv(caches)

        serial = [replay_all(*sets) for sets in cache_sets()]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n_sets) as pool:
                futures = [pool.submit(replay_all, *sets, wait=True)
                           for sets in cache_sets()]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        for (s_logits, s_kv), (t_logits, t_kv) in zip(serial, threaded):
            for a, b in zip(s_logits + s_kv, t_logits + t_kv):
                assert np.array_equal(a, b)
