"""Chaos digests: sha256 fingerprints of every seeded chaos run.

Every chaos run is a pure function of ``(scenario, backend, seed)``, so
its whole timeline can be pinned by a few hashes.  For each scenario in
``repro.cluster.chaos.SCENARIOS``, each mesh backend and each seed in
:data:`SEEDS` this computes the sha256 of

* ``journal`` — the run's ``journal_dump`` (every record, in order);
* ``spans`` — every span field (group regions and derived marks);
* ``report`` — every ``ChaosReport`` field except the two streams above
  and the capture counters;
* ``capture_stats`` — the per-replica step-compiler counters, kept
  apart because a capture-only change moves them on purpose.

Regenerate the committed file from the repo root (about 20 s)::

    PYTHONPATH=src python tools/chaos_digests.py

``tests/integration/test_chaos_golden.py`` compares a fresh run of
every entry against ``tests/golden/chaos.json``.  A change that moves a
digest on purpose regenerates the file and says which digests moved,
and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "chaos.json"
SEEDS = (0, 1, 7)
BACKENDS = ("loop", "stacked")
#: ChaosReport fields hashed on their own (see the module docstring).
_OWN_DIGEST = ("journal_dump", "spans", "capture_stats")


def _sha(value) -> str:
    # No ``default=``: a numpy scalar in the stream fails loudly here
    # instead of hashing a version-dependent repr.
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def key(scenario: str, backend: str, seed: int) -> str:
    return f"{scenario}/{backend}/seed{seed}"


def run_digests(scenario: str, backend: str, seed: int) -> dict[str, str]:
    """The four digests of one chaos run."""
    from repro.cluster.chaos import run_scenario

    report = run_scenario(scenario, backend=backend, seed=seed)
    spans = [[s.span_id, s.parent_id, s.name, s.kind, s.start_s,
              s.duration_s, s.phase, s.layer, dict(s.attrs)]
             for s in report.spans]
    fields = {f.name: getattr(report, f.name)
              for f in dataclasses.fields(report)
              if f.name not in _OWN_DIGEST}
    return {"journal": _sha(report.journal_dump), "spans": _sha(spans),
            "report": _sha(fields),
            "capture_stats": _sha(report.capture_stats)}


def all_runs() -> list[tuple[str, str, int]]:
    from repro.cluster.chaos import SCENARIOS

    return [(name, backend, seed) for name in sorted(SCENARIOS)
            for backend in BACKENDS for seed in SEEDS]


def main() -> int:
    digests = {key(*run): run_digests(*run) for run in all_runs()}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} chaos digests to "
          f"{GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
