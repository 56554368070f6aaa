"""Replay breakdown: where a captured program's replay time goes.

Builds one of the standard deployments of ``tools/numeric_digests.py``
(``A-4x4x4-b4`` and ``B-2x2x2-b4`` are the serving benchmark's Model A
and Model B), captures its decode step and one prefill chunk on the
stacked backend, and replays each program instruction by instruction,
timing every call.  It prints, per program, the straight-line replay
time and the in-sequence time per op class and per instruction label,
in microseconds per replay.  From the repo root::

    PYTHONPATH=src python tools/replay_breakdown.py
    PYTHONPATH=src python tools/replay_breakdown.py --deployment A-4x4x4-b4

BLAS runs on one thread, as in the serving benchmark, unless
``OPENBLAS_NUM_THREADS`` (or ``OMP_NUM_THREADS``/``MKL_NUM_THREADS``) is
set.  In-sequence times include one timer call per instruction, so they
sum to a little more than the straight-line replay.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import pathlib
import sys
import time

if __name__ == "__main__":  # before numpy loads BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread pins)

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DEPLOYMENTS = ("A-4x4x4-b4", "B-2x2x2-b4")
CHUNK = 4
#: Cache capacity: a short prompt plus a few dozen generated tokens.
MAX_LEN = 64
#: Untimed replays of each program before the timed ones.
WARMUP = 10

#: Op class of an instruction, by the first matching label prefix;
#: collectives are classed by their flag.
_CLASSES = (("einsum", "contraction"), ("projection", "contraction"),
            ("attention", "attention"), ("kv_", "kv-cache"),
            ("to_global", "conversion"), ("from_global", "conversion"))


def _digests_tool():
    spec = importlib.util.spec_from_file_location(
        "numeric_digests", ROOT / "tools" / "numeric_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def op_class(ins) -> str:
    if ins.collective:
        return "collective"
    for prefix, name in _CLASSES:
        if ins.label.startswith(prefix):
            return name
    return "elementwise"


def label(ins) -> str:
    return ins.label.split(":")[0]


def _timed_replay(program, tokens, caches, totals: np.ndarray) -> None:
    """One replay, instruction by instruction, adding each call's
    seconds to ``totals``."""
    from repro.mesh.capture import ReplayContext

    values = list(program._template)
    values[0] = ReplayContext(tokens, caches)
    clock = time.perf_counter
    for i, ins in enumerate(program._instrs):
        args = [values[v] for v in ins.inputs]
        start = clock()
        if ins.buffer is not None:
            out = ins.fn(*args, out=ins.buffer)
        else:
            out = ins.fn(*args)
        totals[i] += clock() - start
        if ins.out is not None:
            values[ins.out] = out


def breakdown(name: str, reps: int) -> list[dict]:
    """Per program of deployment ``name`` (decode, then prefill): its
    kind, instruction count, straight-line replay microseconds and the
    in-sequence microseconds per op class and per label."""
    from repro.mesh.capture import capture_chunk

    tool = _digests_tool()
    model = tool.build(name, "stacked")
    batch = tool.DEPLOYMENTS[name][3]
    rng = np.random.default_rng(0)

    def fresh_caches():
        """Caches holding one prompt chunk, as a served request's do."""
        caches = model.new_cache(batch, MAX_LEN)
        model.forward(rng.integers(0, 32, size=(batch, CHUNK)), caches)
        return caches

    results = []
    for length in (1, CHUNK):
        caches = fresh_caches()
        tokens = rng.integers(0, 32, size=(batch, length))
        _, program = capture_chunk(model, tokens, caches)

        def step(run):
            nonlocal caches
            if caches[0].length + length > MAX_LEN:
                caches = fresh_caches()
            run()

        totals = np.zeros(program.n_instructions)
        for _ in range(WARMUP):
            step(lambda: program.replay(tokens, caches))
            step(lambda: _timed_replay(program, tokens, caches, totals))
        totals[:] = 0.0
        elapsed = 0.0
        for _ in range(reps):
            def replay():
                nonlocal elapsed
                start = time.perf_counter()
                program.replay(tokens, caches)
                elapsed += time.perf_counter() - start
            step(replay)
            step(lambda: _timed_replay(program, tokens, caches, totals))
        replay_us = elapsed / reps * 1e6
        per = totals / reps * 1e6
        by_class: dict[str, float] = {}
        by_label: dict[str, list] = {}
        for ins, us in zip(program._instrs, per):
            by_class[op_class(ins)] = by_class.get(op_class(ins), 0.0) + us
            entry = by_label.setdefault(label(ins), [0, 0.0])
            entry[0] += 1
            entry[1] += us
        results.append(dict(kind=program.kind,
                            instructions=program.n_instructions,
                            replay_us=replay_us, by_class=by_class,
                            by_label=by_label))
    return results


def _table(rows, total: float, count: bool) -> list[str]:
    lines = []
    for key, value in sorted(rows.items(), key=lambda kv: -(
            kv[1][1] if count else kv[1])):
        n, us = value if count else (None, value)
        lead = f"    {key:<22}" + (f"{n:>4}" if count else "    ")
        lines.append(f"{lead}{us:>10.1f}{100 * us / total:>8.1f}%")
    return lines


def render(name: str, results: list[dict]) -> str:
    lines = []
    for res in results:
        total = sum(res["by_class"].values())
        lines.append(f"{name} {res['kind']}: {res['instructions']} "
                     f"instructions, replay {res['replay_us']:.1f} us, "
                     f"in sequence {total:.1f} us")
        lines.append(f"    {'op class':<26}{'us':>10}{'share':>9}")
        lines += _table(res["by_class"], total, False)
        lines.append(f"    {'label':<22}{'n':>4}{'us':>10}{'share':>9}")
        lines += _table(res["by_label"], total, True)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deployment", action="append",
                        choices=sorted(_digests_tool().DEPLOYMENTS),
                        help="deployment to profile (repeatable; default: "
                        "the serving benchmark's two)")
    parser.add_argument("--reps", type=int, default=200,
                        help="timed replays per program (default 200)")
    args = parser.parse_args(argv)
    for name in args.deployment or BENCH_DEPLOYMENTS:
        print(render(name, breakdown(name, args.reps)))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
