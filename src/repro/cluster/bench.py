"""The autoscale benchmark: goodput / latency / cost across traces.

``BENCH_autoscale.json`` is the PR's quantitative artifact: for each
registered trace (:data:`repro.cluster.workload.TRACES`) it serves the
seeded workload through a :class:`~repro.cluster.control_plane.
ClusterControlPlane` with an attached :class:`~repro.cluster.autoscaler.
Autoscaler` and reports

* **goodput** — deadline-met tokens per second of makespan, total and
  per priority class;
* **latency** — per-class TTFT / TPOT p50/p99 (virtual-clock seconds);
* **cost** — provisioned chip-seconds per generated token, against the
  statically over-provisioned fleet serving the same trace;
* **correctness** — zero dropped in-flight requests and bit-identical
  completions against the static fleet (capped outputs compare as
  greedy prefixes), plus a full re-run determinism check.

For the ``flash-crowd`` trace the benchmark also runs the brownout
ladder OFF and asserts the ladder *helps*: interactive goodput with
brownout must be at least the no-brownout baseline.

Everything is a pure function of ``(trace, seed, backend)`` — the CI
autoscale job replays it over a seed matrix and diffs the JSON.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.cluster.autoscaler import Autoscaler, AutoscalerPolicy
from repro.cluster.chaos import CHAOS_CONFIG
from repro.cluster.control_plane import (
    ClusterControlPlane,
    ClusterPolicy,
    ClusterRequestStatus,
)
from repro.cluster.disagg import default_pools
from repro.cluster.pricing import SLOW_COSTS
from repro.cluster.workload import TRACES, generate_trace
from repro.model import init_weights, tiny_test_config
from repro.observability.metrics import slo_summary

BENCH_CLUSTER_POLICY = ClusterPolicy(max_batch_wait_s=0.05)

#: Per-trace control policies.  ``flash-crowd`` pins the fleet at one
#: replica so the spike exercises the brownout ladder; the others let
#: the autoscaler ride the rate curve.
BENCH_POLICIES: dict[str, AutoscalerPolicy] = {
    "diurnal": AutoscalerPolicy(
        min_replicas=1, max_replicas=3, scale_out_pressure=1.0,
        scale_in_pressure=0.5, up_after=2, down_after=4, spinup_s=0.1),
    "flash-crowd": AutoscalerPolicy(
        min_replicas=1, max_replicas=1, scale_out_pressure=6.0,
        brownout_enter_pressure=8.0, brownout_exit_pressure=2.0,
        recover_after=2),
    "heavy-tail": AutoscalerPolicy(
        min_replicas=1, max_replicas=3, scale_out_pressure=1.5,
        scale_in_pressure=0.5, up_after=2, down_after=4, spinup_s=0.1),
    "chatbot-sessions": AutoscalerPolicy(
        min_replicas=1, max_replicas=2, scale_out_pressure=1.5,
        scale_in_pressure=0.5, up_after=2, down_after=4, spinup_s=0.1,
        cache_pressure_weight=0.5),
}


def _serve(trace: str, seed: int, backend: str,
           policy: AutoscalerPolicy | None, n_replicas: int):
    """One plane serving the seeded trace; returns (plane, outcomes)."""
    spec = TRACES[trace]
    weights = init_weights(CHAOS_CONFIG, seed=0)
    submissions = generate_trace(spec, seed,
                                 vocab_size=CHAOS_CONFIG.vocab_size)
    autoscaler = Autoscaler(policy) if policy is not None else None
    plane = ClusterControlPlane(
        weights, [(2, 2, 2)] * n_replicas, backend=backend,
        decode_batch=4, classes=spec.priority_classes(),
        costs=SLOW_COSTS, policy=BENCH_CLUSTER_POLICY,
        autoscaler=autoscaler)
    outcomes = plane.serve(submissions)
    return plane, outcomes


def _bit_identical(outcomes, static_outcomes) -> bool:
    """Completed streams match the static fleet's, prefix-wise if capped.

    Greedy decode is fleet-, plan- and batch-composition-invariant, so
    any request both fleets completed must carry identical tokens; a
    brownout-capped stream must be a prefix of the static one.
    """
    static_by_id = {o.request_id: o for o in static_outcomes
                    if o.completion is not None}
    for outcome in outcomes:
        if outcome.completion is None:
            continue
        ref = static_by_id.get(outcome.request_id)
        if ref is None:
            continue
        tokens = outcome.completion.tokens
        if outcome.output_capped:
            if not np.array_equal(tokens, ref.completion.tokens[:len(tokens)]):
                return False
        elif not np.array_equal(tokens, ref.completion.tokens):
            return False
    return True


def _goodput(outcomes, makespan_s: float) -> float:
    """Deadline-met generated tokens per second of makespan."""
    tokens = sum(o.completion.n_generated for o in outcomes
                 if o.status is ClusterRequestStatus.COMPLETED)
    return tokens / makespan_s if makespan_s > 0 else 0.0


def _class_goodput(outcomes, makespan_s: float, cls: str) -> float:
    tokens = sum(o.completion.n_generated for o in outcomes
                 if o.status is ClusterRequestStatus.COMPLETED
                 and o.priority_class == cls)
    return tokens / makespan_s if makespan_s > 0 else 0.0


def run_autoscale(trace: str, *, backend: str = "loop",
                  seed: int = 0) -> dict:
    """Benchmark one trace; returns the JSON-ready result row."""
    policy = BENCH_POLICIES[trace]
    plane, outcomes = _serve(trace, seed, backend, policy,
                             policy.min_replicas)
    # The statically over-provisioned reference: max_replicas from t=0,
    # no autoscaler, no brownout.
    static_plane, static_outcomes = _serve(trace, seed, backend, None,
                                           policy.max_replicas)

    finished = [o for o in outcomes if o.completion is not None]
    makespan = max((o.finish_s for o in finished), default=0.0)
    statuses = {s.value: 0 for s in ClusterRequestStatus}
    for o in outcomes:
        statuses[o.status.value] += 1
    dropped = (len(outcomes) - statuses["rejected"]
               - len(finished) - statuses["failed"])
    total_tokens = sum(o.completion.n_generated for o in finished)
    chip_s = plane.fleet_chip_seconds(plane.now_s)
    static_chip_s = static_plane.fleet_chip_seconds(static_plane.now_s)
    autoscaler = plane.autoscaler

    result = {
        "trace": trace,
        "seed": seed,
        "backend": backend,
        "n_requests": len(outcomes),
        "statuses": statuses,
        "dropped_in_flight": dropped,
        "makespan_s": round(makespan, 6),
        "goodput_tok_s": round(_goodput(outcomes, makespan), 6),
        "classes": {name: slo.as_dict() for name, slo
                    in sorted(slo_summary(plane.events).items())},
        "tokens": total_tokens,
        "chip_seconds": round(chip_s, 6),
        "static_chip_seconds": round(static_chip_s, 6),
        "cost_chip_s_per_token": round(chip_s / total_tokens, 6)
        if total_tokens else None,
        "replicas_added": len(plane.events.of_kind("replica_added")),
        "replicas_removed": len(plane.events.of_kind("replica_removed")),
        "plan_switches": len(plane.events.of_kind("plan_switched")),
        "brownout_steps": autoscaler.brownout_steps,
        "bit_identical_vs_static": _bit_identical(outcomes,
                                                  static_outcomes),
    }
    autoscaler.assert_reverted(plane)

    if trace == "flash-crowd":
        # The ladder must *help*: compare interactive goodput against
        # the identical run with the brownout rungs disabled.
        off_plane, off_outcomes = _serve(
            trace, seed, backend, replace(policy, brownout=False),
            policy.min_replicas)
        off_makespan = max((o.finish_s for o in off_outcomes
                            if o.completion is not None), default=0.0)
        with_b = _class_goodput(outcomes, makespan, "interactive")
        without_b = _class_goodput(off_outcomes, off_makespan,
                                   "interactive")
        result["interactive_goodput_tok_s"] = round(with_b, 6)
        result["interactive_goodput_no_brownout_tok_s"] = \
            round(without_b, 6)
        result["brownout_helps"] = with_b >= without_b
    return result


def check_autoscale_result(result: dict) -> list[str]:
    """The benchmark's acceptance gates -> list of violations."""
    v = []
    if result["dropped_in_flight"]:
        v.append(f"{result['dropped_in_flight']} requests dropped "
                 f"in flight")
    if result["statuses"]["failed"]:
        v.append(f"{result['statuses']['failed']} requests FAILED")
    if not result["bit_identical_vs_static"]:
        v.append("completions diverged from the statically "
                 "over-provisioned fleet")
    if result["goodput_tok_s"] <= 0:
        v.append("zero goodput")
    if result.get("brownout_helps") is False:
        v.append("brownout lowered interactive goodput "
                 f"({result['interactive_goodput_tok_s']} < "
                 f"{result['interactive_goodput_no_brownout_tok_s']} "
                 f"tok/s)")
    return v


def autoscale_bench(*, backend: str = "loop", seed: int = 0,
                    traces: tuple[str, ...] | None = None,
                    check_determinism: bool = True) -> dict:
    """The full benchmark: every registered trace, one JSON document."""
    names = traces if traces is not None else tuple(sorted(TRACES))
    results = []
    violations = []
    for name in names:
        result = run_autoscale(name, backend=backend, seed=seed)
        if check_determinism:
            rerun = run_autoscale(name, backend=backend, seed=seed)
            result["deterministic"] = rerun == result
            if not result["deterministic"]:
                violations.append(f"{name}: re-run diverged")
        for problem in check_autoscale_result(result):
            violations.append(f"{name}: {problem}")
        results.append(result)
    return {
        "bench": "autoscale",
        "backend": backend,
        "seed": seed,
        "traces": results,
        "violations": violations,
        "ok": not violations,
    }


# -- disaggregated prefill/decode vs colocated (BENCH_disagg.json) ----------

#: The disagg benchmark's cost model: :data:`SLOW_COSTS` plus the
#: Section 3.2 specialization payoff — a pool steered to its phase's
#: end of the Pareto frontier (2D weight-stationary prefill,
#: weight-gathered decode) runs that phase at 0.6x the balanced cost.
#: Colocated replicas stay on the balanced plan (one plan must serve
#: both phases), so they keep the exact legacy numbers.
DISAGG_COSTS = replace(
    SLOW_COSTS, prefill_profile_factors=(("weight-stationary", 0.6),),
    decode_profile_factors=(("weight-gathered", 0.6),))

#: Pool shapes for the benchmark fleet: one prefill replica and one
#: decode replica, against a colocated fleet of the same two shapes —
#: equal chips, so any goodput edge is architecture, not hardware.
DISAGG_POOL_SHAPES: tuple[tuple, tuple] = (((2, 2, 2),), ((2, 2, 2),))


def _serve_disagg(trace: str, seed: int, backend: str):
    """The disaggregated fleet serving the seeded trace."""
    spec = TRACES[trace]
    weights = init_weights(CHAOS_CONFIG, seed=0)
    submissions = generate_trace(spec, seed,
                                 vocab_size=CHAOS_CONFIG.vocab_size)
    pools = default_pools(*DISAGG_POOL_SHAPES)
    plane = ClusterControlPlane(
        weights, pools=pools, backend=backend, decode_batch=4,
        classes=spec.priority_classes(), costs=DISAGG_COSTS,
        policy=BENCH_CLUSTER_POLICY)
    outcomes = plane.serve(submissions)
    return plane, outcomes


def _serve_colocated(trace: str, seed: int, backend: str,
                     n_replicas: int):
    """The equal-chip colocated reference (balanced plans, no pools)."""
    spec = TRACES[trace]
    weights = init_weights(CHAOS_CONFIG, seed=0)
    submissions = generate_trace(spec, seed,
                                 vocab_size=CHAOS_CONFIG.vocab_size)
    plane = ClusterControlPlane(
        weights, [(2, 2, 2)] * n_replicas, backend=backend,
        decode_batch=4, classes=spec.priority_classes(),
        costs=DISAGG_COSTS, policy=BENCH_CLUSTER_POLICY)
    outcomes = plane.serve(submissions)
    return plane, outcomes


def run_disagg(trace: str, *, backend: str = "loop",
               seed: int = 0) -> dict:
    """Disaggregated vs colocated on one trace -> JSON-ready row."""
    n_colocated = sum(len(s) for s in DISAGG_POOL_SHAPES)
    plane, outcomes = _serve_disagg(trace, seed, backend)
    co_plane, co_outcomes = _serve_colocated(trace, seed, backend,
                                             n_colocated)

    def _summarise(pl, outs):
        finished = [o for o in outs if o.completion is not None]
        makespan = max((o.finish_s for o in finished), default=0.0)
        statuses = {s.value: 0 for s in ClusterRequestStatus}
        for o in outs:
            statuses[o.status.value] += 1
        return {
            "statuses": statuses,
            "dropped_in_flight": (len(outs) - statuses["rejected"]
                                  - len(finished) - statuses["failed"]),
            "makespan_s": round(makespan, 6),
            "goodput_tok_s": round(_goodput(outs, makespan), 6),
            "interactive_goodput_tok_s": round(
                _class_goodput(outs, makespan, "interactive"), 6),
            "chip_seconds": round(pl.fleet_chip_seconds(pl.now_s), 6),
            "chips": sum(r.full_chips for r in pl.replicas),
        }, makespan

    disagg, makespan = _summarise(plane, outcomes)
    colocated, _ = _summarise(co_plane, co_outcomes)
    disagg.update({
        "kv_handoffs": plane.kv_handoffs,
        "kv_handoff_bytes": plane.kv_handoff_bytes,
        "handoffs_colocated": plane.handoffs_colocated,
        "handoff_transfer_s": round(sum(
            e.data["transfer_s"]
            for e in plane.events.of_kind("kv_handoff")), 9),
        "handoff_overlapped_s": round(sum(
            e.data["overlapped_s"]
            for e in plane.events.of_kind("kv_handoff")), 9),
    })
    return {
        "trace": trace,
        "seed": seed,
        "backend": backend,
        "n_requests": len(outcomes),
        "disagg": disagg,
        "colocated": colocated,
        "bit_identical_vs_colocated": _bit_identical(outcomes,
                                                     co_outcomes),
        "classes": {name: slo.as_dict() for name, slo
                    in sorted(slo_summary(plane.events).items())},
    }


def check_disagg_result(result: dict, *, gate_goodput: bool) -> list[str]:
    """The disagg benchmark's acceptance gates -> list of violations."""
    v = []
    d, c = result["disagg"], result["colocated"]
    for side, row in (("disagg", d), ("colocated", c)):
        if row["dropped_in_flight"]:
            v.append(f"{side}: {row['dropped_in_flight']} requests "
                     f"dropped in flight")
        if row["statuses"]["failed"]:
            v.append(f"{side}: {row['statuses']['failed']} requests "
                     f"FAILED")
    if d["chips"] != c["chips"]:
        v.append(f"unequal fleets: {d['chips']} vs {c['chips']} chips")
    if not result["bit_identical_vs_colocated"]:
        v.append("completions diverged from the colocated fleet")
    if d["kv_handoffs"] < 1:
        v.append("no KV handoffs happened (pools never exercised)")
    if gate_goodput and \
            d["interactive_goodput_tok_s"] < c["interactive_goodput_tok_s"]:
        v.append(f"disagg interactive goodput "
                 f"{d['interactive_goodput_tok_s']} < colocated "
                 f"{c['interactive_goodput_tok_s']} tok/s")
    return v


def disagg_bench(*, backend: str = "loop", seed: int = 0,
                 check_determinism: bool = True) -> dict:
    """The full disagg benchmark: one JSON document.

    ``flash-crowd`` is the gated trace (disagg must beat the equal-chip
    colocated fleet on interactive goodput); ``heavy-tail`` rides along
    informationally — its long prompts move more KV bytes per handoff
    but its decode-bound tail narrows the specialization edge.
    """
    results = []
    violations = []
    for name, gated in (("flash-crowd", True), ("heavy-tail", False)):
        result = run_disagg(name, backend=backend, seed=seed)
        if check_determinism:
            rerun = run_disagg(name, backend=backend, seed=seed)
            result["deterministic"] = rerun == result
            if not result["deterministic"]:
                violations.append(f"{name}: re-run diverged")
        result["goodput_gated"] = gated
        for problem in check_disagg_result(result, gate_goodput=gated):
            violations.append(f"{name}: {problem}")
        results.append(result)
    return {
        "bench": "disagg",
        "backend": backend,
        "seed": seed,
        "traces": results,
        "violations": violations,
        "ok": not violations,
    }


# -- paged prefix cache: cached vs recompute (BENCH_prefix_cache.json) ------

#: The prefix bench's model: big enough to shard on a 4x4x4 torus (the
#: embedding table splits over all 64 chips) while staying fast to
#: serve under the virtual clock.
PREFIX_CONFIG = tiny_test_config(n_layers=2, d_model=64, d_ff=128,
                                 n_heads=16, d_head=4, vocab_size=32)

#: The gated run's mesh: one replica at the paper's 4x4x4 scale.
PREFIX_SHAPE = (4, 4, 4)

#: The shared-prefix workload (80% pooled system prompts + sessions)
#: and the no-sharing control trace the cache must not slow down.
PREFIX_TRACE = "chatbot-sessions"
PREFIX_BASELINE_TRACE = "diurnal"


def _serve_prefix(trace: str, seed: int, backend: str, shape,
                  *, cache_on: bool):
    """One single-replica plane serving the seeded trace, cache on/off."""
    spec = TRACES[trace]
    weights = init_weights(PREFIX_CONFIG, seed=0)
    submissions = generate_trace(spec, seed,
                                 vocab_size=PREFIX_CONFIG.vocab_size)
    policy = BENCH_CLUSTER_POLICY if cache_on else \
        replace(BENCH_CLUSTER_POLICY, kvstore_pages=0)
    plane = ClusterControlPlane(
        weights, [shape], backend=backend, decode_batch=4,
        classes=spec.priority_classes(), costs=SLOW_COSTS, policy=policy)
    outcomes = plane.serve(submissions)
    return plane, outcomes


def _fleet_kvstore_stats(plane) -> dict:
    """Summed store counters across the fleet (retired included)."""
    total: dict = {}
    for replica in list(plane.replicas) + plane.retired:
        for key, value in replica.kvstore_stats().items():
            if isinstance(value, (int, float)) and key not in (
                    "hit_rate", "occupancy", "page_tokens",
                    "capacity_pages"):
                total[key] = total.get(key, 0) + value
    cacheable = total.get("pages_hit", 0) + total.get("pages_missed", 0)
    total["hit_rate"] = (total.get("pages_hit", 0) / cacheable
                         if cacheable else 0.0)
    return total


def run_prefix_cache(trace: str, *, backend: str = "stacked",
                     seed: int = 0, shape=PREFIX_SHAPE) -> dict:
    """Cache-on vs cache-off (the recompute oracle) on one trace."""
    plane, outcomes = _serve_prefix(trace, seed, backend, shape,
                                    cache_on=True)
    off_plane, off_outcomes = _serve_prefix(trace, seed, backend, shape,
                                            cache_on=False)

    def _makespan(outs) -> float:
        return max((o.finish_s for o in outs
                    if o.completion is not None), default=0.0)

    stats = _fleet_kvstore_stats(plane)
    computed = stats.get("tokens_computed", 0)
    total_tokens = stats.get("tokens_total", 0)
    makespan = _makespan(outcomes)
    off_makespan = _makespan(off_outcomes)
    statuses = {s.value: 0 for s in ClusterRequestStatus}
    for o in outcomes:
        statuses[o.status.value] += 1
    finished = sum(1 for o in outcomes if o.completion is not None)
    return {
        "trace": trace,
        "seed": seed,
        "backend": backend,
        "shape": "x".join(map(str, shape)),
        "n_requests": len(outcomes),
        "statuses": statuses,
        "dropped_in_flight": (len(outcomes) - statuses["rejected"]
                              - finished - statuses["failed"]),
        "makespan_s": round(makespan, 6),
        "uncached_makespan_s": round(off_makespan, 6),
        "prefill_tokens_total": total_tokens,
        "prefill_tokens_computed": computed,
        "compute_reduction": round(total_tokens / computed, 6)
        if computed else None,
        "page_hit_rate": round(stats["hit_rate"], 6),
        "pages_resident": stats.get("pages", 0),
        "evictions": stats.get("evictions", 0),
        "kv_bytes_saved": stats.get("bytes_saved", 0),
        "page_leases": plane.kv_page_leases,
        "page_releases": plane.kv_page_releases,
        "bit_identical_vs_uncached": _bit_identical(outcomes,
                                                    off_outcomes),
        "goodput_tok_s": round(_goodput(outcomes, makespan), 6),
        "uncached_goodput_tok_s": round(
            _goodput(off_outcomes, off_makespan), 6),
    }


def check_prefix_cache_result(result: dict, *, shared: bool) -> list[str]:
    """The prefix-cache benchmark's acceptance gates -> violations.

    ``shared`` marks the shared-prefix trace, which must clear the
    reuse gates (>= 2x prefill-step compute reduction, >= 60% page hit
    rate); the no-sharing control only has to not regress.  Both must
    land bit-identical tokens against the cache-off oracle and keep
    page-lease accounting balanced.
    """
    v = []
    if result["dropped_in_flight"]:
        v.append(f"{result['dropped_in_flight']} requests dropped "
                 f"in flight")
    if result["statuses"]["failed"]:
        v.append(f"{result['statuses']['failed']} requests FAILED")
    if not result["bit_identical_vs_uncached"]:
        v.append("completions diverged from the cache-off oracle")
    if result["page_leases"] != result["page_releases"]:
        v.append(f"page-lease accounting unbalanced: "
                 f"{result['page_leases']} leases vs "
                 f"{result['page_releases']} releases")
    if result["makespan_s"] > result["uncached_makespan_s"] + 1e-9:
        v.append(f"cache slowed the trace down: makespan "
                 f"{result['makespan_s']} > uncached "
                 f"{result['uncached_makespan_s']}")
    if shared:
        reduction = result["compute_reduction"] or 0.0
        if reduction < 2.0:
            v.append(f"prefill compute reduction {reduction:.2f}x < 2x")
        if result["page_hit_rate"] < 0.6:
            v.append(f"page hit rate {result['page_hit_rate']:.1%} < 60%")
    return v


def prefix_cache_bench(*, seed: int = 0,
                       check_determinism: bool = True) -> dict:
    """The full prefix-cache benchmark: one JSON document.

    Three serving legs plus a chaos leg:

    * the shared-prefix trace on the stacked backend at 4x4x4 — the
      gated run (compute reduction, hit rate, bit-identity, speed);
    * the no-sharing control trace on the same fleet — the cache must
      be invisible (bit-identical, not a hair slower);
    * the shared-prefix trace on the loop backend at 2x2x2 — the same
      reuse gates must hold on the other mesh backend;
    * the ``shared-prefix-kill`` chaos scenario — a chip dies on the
      replica holding the shared pages and the auditor must certify
      exactly-once page leases and zero lost requests.
    """
    from repro.cluster.chaos import run_scenario

    legs = (
        (PREFIX_TRACE, "stacked", PREFIX_SHAPE, True),
        (PREFIX_BASELINE_TRACE, "stacked", PREFIX_SHAPE, False),
        (PREFIX_TRACE, "loop", (2, 2, 2), True),
    )
    results = []
    violations = []
    for trace, backend, shape, shared in legs:
        result = run_prefix_cache(trace, backend=backend, seed=seed,
                                  shape=shape)
        if check_determinism:
            rerun = run_prefix_cache(trace, backend=backend, seed=seed,
                                     shape=shape)
            result["deterministic"] = rerun == result
            if not result["deterministic"]:
                violations.append(f"{trace}/{backend}: re-run diverged")
        result["reuse_gated"] = shared
        for problem in check_prefix_cache_result(result, shared=shared):
            violations.append(f"{trace}/{backend}: {problem}")
        results.append(result)

    chaos = run_scenario("shared-prefix-kill", backend="loop", seed=seed)
    chaos_row = {
        "scenario": chaos.scenario,
        "backend": chaos.backend,
        "seed": chaos.seed,
        "completed": chaos.completed,
        "failovers": chaos.failovers,
        "page_leases": chaos.page_leases,
        "page_releases": chaos.page_releases,
        "audit_certified": chaos.audit_certified,
        "bit_identical": chaos.bit_identical,
        "chaos_certified": chaos.ok,
    }
    if not chaos.ok:
        for problem in chaos.violations:
            violations.append(f"shared-prefix-kill: {problem}")
    return {
        "bench": "prefix_cache",
        "seed": seed,
        "traces": results,
        "chaos": chaos_row,
        "violations": violations,
        "ok": not violations,
    }
