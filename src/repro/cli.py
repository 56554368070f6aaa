"""Command-line interface: ``repro-inference <subcommand>``.

Subcommands mirror the library's main entry points:

* ``estimate`` — latency/MFU/cost breakdown of one operating point.
* ``plan`` — the analytical layout selection for a workload (Section 4.1).
* ``sweep`` — the Pareto frontier over batch and chips (Figure 1).
* ``max-context`` — Table 1's memory-limited context lengths.
* ``serve`` — request-level queueing simulation under Poisson traffic.
* ``fault-sim`` — the same simulation under an MTBF-driven chip-failure
  process: goodput, p99 latency and availability (docs/fault_tolerance.md).
* ``disaggregate`` — size the §4.4 prefill-server → decode-server pipeline.
* ``chaos`` — seeded chaos scenarios against the multi-replica cluster
  control plane: availability, goodput and p99 per scenario, typed
  shed-load counts, bit-identity vs. the reference, journal replay and
  audit (docs/cluster.md); ``--trace`` exports the cluster span stream
  and ``--json`` the journal + audit artifact.
* ``trace`` — Perfetto/Chrome trace: the *executed* span stream of a
  tiny model's decode workload on the virtual mesh
  (docs/observability.md).
* ``metrics`` — per-phase/per-layer communication and roofline metrics of
  an executed virtual-mesh workload; ``--crosscheck`` prints the
  estimator vs. executed-trace event-match table.
* ``calibrate`` — the Table 2 calibration report (and optional refit).

Examples::

    repro-inference estimate --model palm-540b --chips 64 --batch 64 \\
        --phase decode --context 2048 --int8
    repro-inference sweep --model palm-62b --phase decode
    repro-inference max-context --model palm-540b --batch 128
    repro-inference trace --topology 2x2x2 --out step.json
"""

from __future__ import annotations

import argparse
import sys

from repro.hardware import TPU_V4, default_slice_shape, get_chip
from repro.model import MODEL_PRESETS, PALM_540B, get_model
from repro.partitioning.selector import (
    Phase,
    SelectionContext,
    select_plan,
)
from repro.perf import InferenceEstimator, pareto_frontier, sweep_decode
from repro.perf.memory import table1_max_context
from repro.perf.pareto import sweep_prefill
from repro.partitioning import AttentionLayoutKind


def _resolve_model(name: str):
    """Model + the padded serving variant + MFU normalization params."""
    config = get_model(name)
    if name == "palm-540b":
        # Serve the padded variant (Section 4); count MFU on true 540B.
        return get_model("palm-540b-pad64"), PALM_540B.n_params
    return config, None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="palm-540b",
                        choices=sorted(MODEL_PRESETS),
                        help="model preset")
    parser.add_argument("--chip", default="tpu-v4",
                        help="chip preset (tpu-v4, a100-80gb)")
    parser.add_argument("--int8", action="store_true",
                        help="int8 weights (default bfloat16)")


def cmd_estimate(args) -> int:
    config, mfu_params = _resolve_model(args.model)
    torus = default_slice_shape(args.chips)
    phase = Phase(args.phase)
    ctx = SelectionContext(config, torus, phase, args.batch,
                           args.seq_len if phase is Phase.PREFILL else 1)
    plan = select_plan(ctx)
    estimator = InferenceEstimator(
        config, get_chip(args.chip), torus,
        weight_dtype_bytes=1 if args.int8 else 2, mfu_params=mfu_params)
    if phase is Phase.PREFILL:
        cost = estimator.prefill_cost(plan, args.batch, args.seq_len)
        headline = f"prefill of {args.seq_len} tokens: {cost.time_s:.3f} s"
    else:
        cost = estimator.decode_step_cost(plan, args.batch, args.context)
        headline = (f"decode step at context {args.context}: "
                    f"{cost.time_s * 1e3:.1f} ms/token")
    print(f"{config.name} on {args.chips} x {args.chip} ({torus}), "
          f"batch {args.batch}, {'int8' if args.int8 else 'bf16'} weights")
    print(f"plan: {plan.describe()}")
    print(headline)
    print(f"  compute {cost.compute_s * 1e3:9.2f} ms")
    print(f"  weights {cost.weight_load_s * 1e3:9.2f} ms   "
          f"kv-cache {cost.kv_load_s * 1e3:.2f} ms")
    print(f"  comm    {cost.comm_s * 1e3:9.2f} ms "
          f"({cost.comm_exposed_s * 1e3:.2f} exposed)")
    print(f"  MFU {cost.mfu:.1%}   cost "
          f"{cost.cost_chip_seconds_per_token * 1e3:.3f} chip-ms/token")
    return 0


def cmd_plan(args) -> int:
    config, _ = _resolve_model(args.model)
    torus = default_slice_shape(args.chips)
    phase = Phase(args.phase)
    ctx = SelectionContext(config, torus, phase, args.batch,
                           args.seq_len if phase is Phase.PREFILL else 1)
    plan = select_plan(ctx)
    print(f"{config.name}, {args.chips} chips ({torus}), batch "
          f"{args.batch}, {phase.value}: {plan.describe()}")
    return 0


def cmd_sweep(args) -> int:
    config, mfu_params = _resolve_model(args.model)
    sweep = sweep_decode if args.phase == "decode" else sweep_prefill
    kwargs = (dict(context_len=args.context, gen_len=64)
              if args.phase == "decode" else dict(input_len=args.seq_len))
    points = sweep(config, get_chip(args.chip),
                   weight_dtype_bytes=1 if args.int8 else 2,
                   mfu_params=mfu_params, **kwargs)
    frontier = pareto_frontier(points)
    print(f"{config.name} {args.phase} Pareto frontier "
          f"({'int8' if args.int8 else 'bf16'}):")
    print(f"{'chips':>6s} {'batch':>6s} {'layout':32s} {'latency':>10s} "
          f"{'chip-ms/tok':>12s} {'MFU':>7s}")
    for p in frontier:
        latency = (f"{p.latency_s * 1e3:8.1f}ms" if args.phase == "decode"
                   else f"{p.latency_s:9.2f}s")
        print(f"{p.n_chips:>6d} {p.batch:>6d} {p.plan.describe():32s} "
              f"{latency:>10s} "
              f"{p.cost_chip_seconds_per_token * 1e3:12.3f} {p.mfu:7.1%}")
    return 0


def cmd_max_context(args) -> int:
    config, _ = _resolve_model(args.model)
    chip = get_chip(args.chip)
    print(f"max context for {config.name}, {args.chips} chips, batch "
          f"{args.batch} (30% of HBM for KV):")
    for label, layout in (("sharded over heads", AttentionLayoutKind.HEAD),
                          ("sharded over batch",
                           AttentionLayoutKind.BATCH)):
        try:
            value = table1_max_context(config, layout, chip, args.chips,
                                       args.batch)
            print(f"  {label:20s} {value:>10,d} tokens")
        except ValueError as exc:
            print(f"  {label:20s} n/a ({exc})")
    return 0


def cmd_serve(args) -> int:
    from repro.partitioning import FfnLayoutKind, LayoutPlan
    from repro.serving.simulation import (
        ServerConfig,
        WorkloadSpec,
        poisson_arrivals,
        simulate_serving,
    )

    config, mfu_params = _resolve_model(args.model)
    torus = default_slice_shape(args.chips)
    estimator = InferenceEstimator(
        config, get_chip(args.chip), torus,
        weight_dtype_bytes=1 if args.int8 else 2, mfu_params=mfu_params)
    server = ServerConfig(
        max_batch=args.max_batch, max_wait_s=args.max_wait,
        prefill_plan=LayoutPlan(FfnLayoutKind.WS_2D,
                                AttentionLayoutKind.HEAD),
        decode_plan=LayoutPlan(FfnLayoutKind.WS_2D,
                               AttentionLayoutKind.BATCH))
    workload = WorkloadSpec(input_len=args.seq_len, gen_len=args.gen_len)
    arrivals = poisson_arrivals(args.rate, args.duration, seed=args.seed)
    report = simulate_serving(estimator, server, workload, arrivals)
    print(f"{config.name} on {args.chips} chips: {args.rate:g} req/s "
          f"for {args.duration:g}s ({report.completed} requests)")
    print(f"  p50 latency {report.latency_percentile(50):7.2f} s")
    print(f"  p95 latency {report.latency_percentile(95):7.2f} s")
    print(f"  mean batch  {report.mean_batch:7.1f}")
    print(f"  utilization {report.utilization:7.1%}")
    return 0


def cmd_fault_sim(args) -> int:
    from repro.partitioning import FfnLayoutKind, LayoutPlan
    from repro.serving.simulation import (
        FaultModel,
        ServerConfig,
        WorkloadSpec,
        poisson_arrivals,
        simulate_serving_under_faults,
    )

    config, mfu_params = _resolve_model(args.model)
    torus = default_slice_shape(args.chips)
    estimator = InferenceEstimator(
        config, get_chip(args.chip), torus,
        weight_dtype_bytes=1 if args.int8 else 2, mfu_params=mfu_params)
    server = ServerConfig(
        max_batch=args.max_batch, max_wait_s=args.max_wait,
        prefill_plan=LayoutPlan(FfnLayoutKind.WS_2D,
                                AttentionLayoutKind.HEAD),
        decode_plan=LayoutPlan(FfnLayoutKind.WS_2D,
                               AttentionLayoutKind.BATCH))
    workload = WorkloadSpec(input_len=args.seq_len, gen_len=args.gen_len)
    arrivals = poisson_arrivals(args.rate, args.duration, seed=args.seed)
    faults = FaultModel(mtbf_s=args.mtbf, replan_s=args.replan_s,
                        recovery_s=args.recovery_s,
                        degraded_factor=args.degraded_factor,
                        seed=args.seed)
    report = simulate_serving_under_faults(
        estimator, server, workload, arrivals, faults,
        deadline_s=args.deadline)
    print(f"{config.name} on {args.chips} chips: {args.rate:g} req/s for "
          f"{args.duration:g}s, MTBF {args.mtbf:g}s"
          + (f", deadline {args.deadline:g}s" if args.deadline else ""))
    print(f"  failures    {report.failures:7d}   "
          f"downtime {report.downtime_s:8.1f} s")
    print(f"  completed   {report.completed:7d}   "
          f"retried {report.retried_requests:5d}  "
          f"shed {report.shed_requests:5d}  "
          f"dropped {report.dropped_requests:5d}")
    if report.completed:
        print(f"  p50 latency {report.latency_percentile(50):7.2f} s   "
              f"p99 {report.latency_percentile(99):7.2f} s")
    print(f"  goodput     {report.goodput_rps:7.2f} req/s "
          f"(in-deadline completions)")
    print(f"  availability {report.availability:6.1%}")
    return 0


def cmd_disaggregate(args) -> int:
    from repro.partitioning import FfnLayoutKind, LayoutPlan
    from repro.perf.disaggregation import size_pipeline, turn_latency

    config, mfu_params = _resolve_model(args.model)
    torus = default_slice_shape(args.chips)
    est = InferenceEstimator(
        config, get_chip(args.chip), torus,
        weight_dtype_bytes=1 if args.int8 else 2, mfu_params=mfu_params)
    plan = size_pipeline(
        est, est,
        LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD),
        LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.BATCH),
        input_len=args.seq_len, gen_len=args.gen_len,
        decode_batch=args.decode_batch)
    print(f"{config.name}, {args.chips}-chip prefill and decode servers, "
          f"{args.seq_len}-in/{args.gen_len}-out:")
    print(f"  batch-1 prefill: "
          f"{plan.prefill_seconds_per_request * 1e3:8.1f} ms/request")
    print(f"  batch-{plan.decode_batch} decode: "
          f"{plan.decode_seconds_per_request * 1e3:8.1f} ms/request")
    print(f"  prefill replicas per decode server: "
          f"{plan.prefill_replicas}")
    print(f"  pipeline throughput: {plan.requests_per_second:.1f} req/s "
          f"(bottleneck: {plan.bottleneck})")
    print(f"  unloaded turn latency: {turn_latency(plan):.2f} s")
    return 0


def _mesh_shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(n) for n in text.split("x"))
    except ValueError:
        shape = ()
    if len(shape) != 3 or min(shape) < 1:
        raise argparse.ArgumentTypeError(
            f"mesh shape must look like 2x2x4, got {text!r}")
    return shape


def decode_config():
    """The executed-workload model: deep and narrow, divisible on every
    mesh from 1x1x1 up to 4x4x4 (H % 16, B % 64)."""
    from repro.model import tiny_test_config

    return tiny_test_config(n_layers=16, d_model=16, d_ff=32, n_heads=16,
                            d_head=4, vocab_size=16)


def _executed_workload(topology, backend, batch, steps, seed=0):
    """Run the shared decode workload with tracing on; returns the tracer.

    The workload is :func:`decode_config`'s deep-narrow decode model
    (divisible on every mesh up to 4x4x4) under the weight-gathered
    layout — the most communication-heavy regime, so traces show every
    span kind.
    """
    import numpy as np

    from repro.layouts import ShardedTransformer
    from repro.mesh import VirtualMesh
    from repro.model import init_weights
    from repro.partitioning import FfnLayoutKind, LayoutPlan

    config = decode_config()
    mesh = VirtualMesh(topology, backend=backend)
    tracer = mesh.install_tracer()
    plan = LayoutPlan(FfnLayoutKind.WG_XY, AttentionLayoutKind.BATCH)
    model = ShardedTransformer(init_weights(config, seed=seed), mesh, plan)
    prompt = np.random.default_rng(seed + 1).integers(
        0, config.vocab_size, size=(batch, 4))
    tracer.clear()  # weight placement, not the workload
    _, caches = model.prefill(prompt, 4 + steps)
    token = prompt[:, -1]
    for _ in range(steps):
        token = np.argmax(model.decode_step(token, caches), -1)
    return tracer


def cmd_chaos(args) -> int:
    import json

    from repro.cluster import SCENARIOS, format_report, run_scenario
    from repro.observability import spans_to_chrome_trace

    names = sorted(SCENARIOS) if args.scenario == "all" \
        else [args.scenario]
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise SystemExit(f"unknown chaos scenario {unknown[0]!r}; have "
                         f"{sorted(SCENARIOS)} or 'all'")
    backends = ("loop", "stacked") if args.backend == "both" \
        else (args.backend,)
    reports = []
    for backend in backends:
        for name in names:
            report = run_scenario(name, backend=backend, seed=args.seed)
            reports.append(report)
            print(format_report(report))
            print()
    all_ok = all(r.ok for r in reports)
    if args.trace and reports:
        trace = spans_to_chrome_trace(reports[-1].spans,
                                      process_name="cluster")
        with open(args.trace, "w") as f:
            json.dump(trace, f)
        print(f"cluster span trace ({len(trace['traceEvents'])} events) "
              f"written to {args.trace}")
    if args.json:
        runs = [{
            "scenario": r.scenario, "backend": r.backend, "seed": r.seed,
            "ok": r.ok, "violations": r.violations,
            "replay_matches": r.replay_matches,
            "audit_certified": r.audit_certified,
            "audit_violations": r.audit_violations,
            "journal_records": r.journal_records,
            "journal_truncated": r.journal_truncated,
            "restarts": r.restarts,
            "recoveries": r.recoveries,
            "quarantines": r.quarantines,
            "kv_handoffs": r.kv_handoffs,
            "handoff_retries": r.handoff_retries,
            "handoff_aborts": r.handoff_aborts,
            "handoff_dup_drops": r.handoff_dup_drops,
            "journal": r.journal_dump,
        } for r in reports]
        with open(args.json, "w") as f:
            json.dump({"ok": all_ok, "runs": runs}, f, indent=2,
                      default=lambda o: o.item()
                      if hasattr(o, "item") else str(o))
            f.write("\n")
        print(f"journal + audit artifact ({len(runs)} runs) written to "
              f"{args.json}")
    return 0 if all_ok else 1


def cmd_autoscale(args) -> int:
    import json

    from repro.cluster import TRACES
    from repro.cluster.bench import autoscale_bench

    traces = tuple(sorted(TRACES)) if args.trace == "all" \
        else (args.trace,)
    unknown = [t for t in traces if t not in TRACES]
    if unknown:
        raise SystemExit(f"unknown trace {unknown[0]!r}; have "
                         f"{sorted(TRACES)} or 'all'")
    doc = autoscale_bench(backend=args.backend, seed=args.seed,
                          traces=traces,
                          check_determinism=not args.no_determinism)
    for row in doc["traces"]:
        print(f"trace {row['trace']} [backend={row['backend']} "
              f"seed={row['seed']}]")
        print(f"  goodput {row['goodput_tok_s']:.1f} tok/s over "
              f"{row['makespan_s']:.2f} s; cost "
              f"{row['cost_chip_s_per_token']} chip-s/token "
              f"(fleet {row['chip_seconds']:.1f} chip-s, static "
              f"{row['static_chip_seconds']:.1f})")
        for name, cls in row["classes"].items():
            print(f"  {name}: ttft p50 {cls['ttft_p50_s'] * 1e3:.0f} ms "
                  f"p99 {cls['ttft_p99_s'] * 1e3:.0f} ms, tpot p50 "
                  f"{cls['tpot_p50_s'] * 1e3:.0f} ms p99 "
                  f"{cls['tpot_p99_s'] * 1e3:.0f} ms, goodput "
                  f"{cls['goodput']}/{cls['completed']}")
        print(f"  fleet: +{row['replicas_added']}/"
              f"-{row['replicas_removed']} replicas, "
              f"{row['plan_switches']} plan switches, brownout "
              f"{' -> '.join(row['brownout_steps']) or '(never)'}")
        print(f"  bit-identical vs static fleet: "
              f"{'yes' if row['bit_identical_vs_static'] else 'NO'}")
        print()
    for violation in doc["violations"]:
        print(f"VIOLATION: {violation}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"autoscale bench written to {args.json}")
    return 0 if doc["ok"] else 1


def cmd_disagg(args) -> int:
    import json

    from repro.cluster.bench import disagg_bench

    doc = disagg_bench(backend=args.backend, seed=args.seed,
                       check_determinism=not args.no_determinism)
    for row in doc["traces"]:
        d, c = row["disagg"], row["colocated"]
        gate = "gated" if row["goodput_gated"] else "informational"
        print(f"trace {row['trace']} [backend={row['backend']} "
              f"seed={row['seed']}] ({gate})")
        print(f"  disagg:    interactive {d['interactive_goodput_tok_s']:.1f} "
              f"tok/s, total {d['goodput_tok_s']:.1f} tok/s over "
              f"{d['makespan_s']:.2f} s on {d['chips']} chips")
        print(f"  colocated: interactive {c['interactive_goodput_tok_s']:.1f} "
              f"tok/s, total {c['goodput_tok_s']:.1f} tok/s over "
              f"{c['makespan_s']:.2f} s on {c['chips']} chips")
        print(f"  handoffs: {d['kv_handoffs']} "
              f"({d['kv_handoff_bytes']} B, "
              f"{d['handoff_transfer_s'] * 1e6:.1f} us on the link), "
              f"{d['handoffs_colocated']} decoded in place")
        print(f"  bit-identical vs colocated fleet: "
              f"{'yes' if row['bit_identical_vs_colocated'] else 'NO'}")
        print()
    for violation in doc["violations"]:
        print(f"VIOLATION: {violation}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"disagg bench written to {args.json}")
    return 0 if doc["ok"] else 1


def cmd_trace(args) -> int:
    import json

    from repro.observability import spans_to_chrome_trace

    tracer = _executed_workload(args.topology, args.backend,
                                args.batch_exec, args.steps)
    trace = spans_to_chrome_trace(
        tracer.spans,
        process_name=f"virtual-mesh-{'x'.join(map(str, args.topology))}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(trace, f)
        print(f"executed {len(tracer.spans)}-span workload on the "
              f"{args.backend} backend: {len(trace['traceEvents'])} trace "
              f"events written to {args.out}")
    else:
        json.dump(trace, sys.stdout)
        print()
    return 0


def _capture_workload(topology, backend, batch, steps, seed=0):
    """Run the shared decode workload through a StepCompiler.

    Same model and layout as :func:`_executed_workload`, but decode goes
    through the capture-and-replay driver so the program-cache counters
    (hits, misses, evictions, per-reason invalidations) reflect a real
    serving loop: one capture on the first step, then replays.
    """
    import numpy as np

    from repro.layouts import ShardedTransformer
    from repro.mesh import VirtualMesh
    from repro.mesh.capture import StepCompiler
    from repro.model import init_weights
    from repro.partitioning import FfnLayoutKind, LayoutPlan

    config = decode_config()
    mesh = VirtualMesh(topology, backend=backend)
    plan = LayoutPlan(FfnLayoutKind.WG_XY, AttentionLayoutKind.BATCH)
    model = ShardedTransformer(init_weights(config, seed=seed), mesh, plan)
    prompt = np.random.default_rng(seed + 1).integers(
        0, config.vocab_size, size=(batch, 4))
    compiler = StepCompiler()
    _, caches = model.prefill(prompt, 4 + steps)
    token = prompt[:, -1]
    for _ in range(steps):
        token = np.argmax(
            compiler.decode_step(model, token, caches), -1)
    return compiler


def _kvstore_workload(topology, backend, seed=0):
    """Run two shared-prefix prefills through a paged KV store.

    The second prompt repeats the first's 8-token prefix, so the radix
    index serves two pages from cache and only the suffix is computed —
    the counters show a real hit/miss mix rather than a cold store.
    """
    import numpy as np

    from repro.kvstore import KVStore
    from repro.layouts import ShardedTransformer
    from repro.mesh import VirtualMesh
    from repro.model import init_weights
    from repro.partitioning import FfnLayoutKind, LayoutPlan
    from repro.serving.chunked import chunked_prefill

    config = decode_config()
    mesh = VirtualMesh(topology, backend=backend)
    # Weight-stationary FFN + head-sharded attention: the store installs
    # single-request prompts, which a batch-sharded KV layout cannot
    # hold on a multi-chip mesh.
    plan = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)
    model = ShardedTransformer(init_weights(config, seed=seed), mesh, plan)
    store = KVStore(page_tokens=4, capacity_pages=32, name="cli")
    rng = np.random.default_rng(seed + 2)
    shared = rng.integers(0, config.vocab_size, size=8)
    for _ in range(2):
        suffix = rng.integers(0, config.vocab_size, size=4)
        prompt = np.concatenate([shared, suffix])[None, :]
        chunked_prefill(model, prompt, 4, prompt.shape[1] + 1,
                        kvstore=store)
        reuse = store.take_last_reuse()
        if reuse is not None and reuse.lease is not None:
            reuse.lease.release()
    return store


def cmd_metrics(args) -> int:
    from repro.observability import (
        format_capture_stats,
        format_kvstore_stats,
        format_layer_metrics,
        format_phase_metrics,
    )

    tracer = _executed_workload(args.topology, args.backend, args.batch,
                                args.steps)
    print(format_phase_metrics(tracer.spans))
    print()
    print(format_layer_metrics(tracer.spans, "decode"))
    compiler = _capture_workload(args.topology, args.backend, args.batch,
                                 args.steps)
    print()
    print(format_capture_stats(compiler.stats()))
    store = _kvstore_workload(args.topology, args.backend)
    print()
    print(format_kvstore_stats(store.stats()))
    if args.crosscheck:
        from repro.observability import crosscheck

        print()
        print("Estimator vs. executed-trace crosscheck "
              f"(mesh {'x'.join(map(str, crosscheck.MESH_SHAPE))}):")
        checks = crosscheck.run_crosscheck()
        print(crosscheck.format_table(checks))
        if not all(c.ok for c in checks):
            return 1
    return 0


def cmd_calibrate(args) -> int:
    from repro.perf.calibrate import calibrate, report

    print("Table 2 anchors under the shipped efficiency defaults:")
    print(report())
    if args.refit:
        best, value = calibrate(sweeps=args.sweeps)
        print(f"\nrefit objective: {value:.4f}")
        print(report(best))
        for name in ("flops_efficiency", "rows_half_peak",
                     "overlap_fraction", "per_layer_overhead"):
            print(f"  {name} = {getattr(best, name):.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.cluster import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="repro-inference",
        description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="cost breakdown of one point")
    _add_common(p)
    p.add_argument("--chips", type=int, default=64)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--phase", choices=["prefill", "decode"],
                   default="decode")
    p.add_argument("--context", type=int, default=2048)
    p.add_argument("--seq-len", type=int, default=2048)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("plan", help="analytical layout selection")
    _add_common(p)
    p.add_argument("--chips", type=int, default=64)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--phase", choices=["prefill", "decode"],
                   default="decode")
    p.add_argument("--seq-len", type=int, default=2048)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", help="Pareto frontier (Figure 1)")
    _add_common(p)
    p.add_argument("--phase", choices=["prefill", "decode"],
                   default="decode")
    p.add_argument("--context", type=int, default=2048)
    p.add_argument("--seq-len", type=int, default=2048)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("max-context", help="Table 1 memory limits")
    _add_common(p)
    p.add_argument("--chips", type=int, default=64)
    p.add_argument("--batch", type=int, default=128)
    p.set_defaults(func=cmd_max_context)

    p = sub.add_parser("serve", help="request-level queueing simulation")
    _add_common(p)
    p.add_argument("--chips", type=int, default=64)
    p.add_argument("--rate", type=float, default=4.0,
                   help="Poisson arrival rate, requests/second")
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument("--max-batch", type=int, default=64)
    p.add_argument("--max-wait", type=float, default=0.2)
    p.add_argument("--seq-len", type=int, default=64)
    p.add_argument("--gen-len", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("fault-sim",
                       help="queueing simulation under chip failures")
    _add_common(p)
    p.add_argument("--chips", type=int, default=64)
    p.add_argument("--rate", type=float, default=4.0,
                   help="Poisson arrival rate, requests/second")
    p.add_argument("--duration", type=float, default=600.0)
    p.add_argument("--max-batch", type=int, default=64)
    p.add_argument("--max-wait", type=float, default=0.2)
    p.add_argument("--seq-len", type=int, default=64)
    p.add_argument("--gen-len", type=int, default=64)
    p.add_argument("--mtbf", type=float, default=120.0,
                   help="mean time between chip failures, seconds")
    p.add_argument("--replan-s", type=float, default=2.0,
                   help="downtime per failure (detect + replan)")
    p.add_argument("--recovery-s", type=float, default=60.0,
                   help="time until the slice is repaired to full size")
    p.add_argument("--degraded-factor", type=float, default=1.5,
                   help="service-time multiplier while degraded")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline for goodput/shedding")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fault_sim)

    p = sub.add_parser("disaggregate",
                       help="size the prefill->decode pipeline (Sec. 4.4)")
    _add_common(p)
    p.add_argument("--chips", type=int, default=64)
    p.add_argument("--seq-len", type=int, default=2048)
    p.add_argument("--gen-len", type=int, default=64)
    p.add_argument("--decode-batch", type=int, default=64)
    p.set_defaults(func=cmd_disaggregate)

    p = sub.add_parser("trace",
                       help="Perfetto/Chrome trace of an executed workload")
    p.add_argument("--topology", type=_mesh_shape, default=(4, 4, 4),
                   metavar="AxBxC", help="torus shape, e.g. 4x4x4")
    p.add_argument("--backend", choices=["loop", "stacked"],
                   default="stacked", help="mesh execution backend")
    p.add_argument("--batch-exec", type=int, default=64,
                   help="batch for the executed workload")
    p.add_argument("--steps", type=int, default=2,
                   help="decode steps in the executed workload")
    p.add_argument("--out", help="write the trace JSON here "
                                 "(default: stdout)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("chaos",
                       help="seeded cluster chaos scenarios "
                            "(docs/cluster.md)")
    p.add_argument("--scenario", default="all",
                   help=f"scenario name, or 'all' "
                        f"({', '.join(sorted(SCENARIOS))})")
    p.add_argument("--backend", choices=["loop", "stacked", "both"],
                   default="loop", help="mesh execution backend")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (the run is a pure function of "
                        "scenario, backend and seed)")
    p.add_argument("--trace", help="write the last run's cluster span "
                                   "trace JSON here")
    p.add_argument("--json", help="write every run's journal + audit "
                                  "artifact JSON here")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("autoscale",
                       help="trace-driven autoscale benchmark "
                            "(goodput, per-class SLO latency, cost)")
    p.add_argument("--trace", default="all",
                   help="trace name or 'all' (default)")
    p.add_argument("--backend", default="loop",
                   choices=["loop", "stacked"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write BENCH_autoscale-style JSON here")
    p.add_argument("--no-determinism", action="store_true",
                   help="skip the re-run determinism check (faster)")
    p.set_defaults(func=cmd_autoscale)

    p = sub.add_parser("disagg",
                       help="disaggregated prefill/decode pools vs the "
                            "equal-chip colocated fleet (KV handoff)")
    p.add_argument("--backend", default="loop",
                   choices=["loop", "stacked"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write BENCH_disagg-style JSON here")
    p.add_argument("--no-determinism", action="store_true",
                   help="skip the re-run determinism check (faster)")
    p.set_defaults(func=cmd_disagg)

    p = sub.add_parser("metrics",
                       help="per-phase/per-layer executed mesh metrics")
    p.add_argument("--topology", type=_mesh_shape, default=(2, 2, 2),
                   metavar="AxBxC")
    p.add_argument("--backend", choices=["loop", "stacked"],
                   default="stacked")
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--crosscheck", action="store_true",
                   help="also run the estimator vs. executed-trace "
                        "event-match suite")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("calibrate",
                       help="Table 2 calibration report / refit")
    p.add_argument("--refit", action="store_true",
                   help="run the coordinate-descent refit")
    p.add_argument("--sweeps", type=int, default=2)
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
