"""Deterministic fault injection for the virtual mesh.

The paper's recipes assume every chip in the slice stays healthy for the
whole run; at production scale chips die, links stall and single
collectives corrupt or time out.  This module makes those failures
*injectable and schedulable* on the virtual mesh so the layers above
(replanning in :mod:`repro.partitioning.degraded`, the resilient request
lifecycle in :mod:`repro.serving.resilient`) can be tested
deterministically on both execution backends.

A :class:`FaultPlan` is a seeded schedule of faults:

* :class:`ChipKill` — from a given step on, every collective whose group
  touches the dead chip raises a typed :class:`ChipFailure` (in SPMD
  execution every chip participates in every collective, so the first
  collective after the kill detects it).
* :class:`CollectiveFault` — one matching collective either times out
  (:class:`CollectiveTimeout`) or has one receiver's replica corrupted.
  Corruption is caught by the checksum verification real systems run on
  collective payloads and surfaces as :class:`CollectiveCorruption`;
  with ``detected=False`` the corruption propagates silently instead —
  the failure mode the typed errors exist to prevent.
* :class:`StragglerFault` — a chip becomes ``slowdown`` times slower;
  every collective it participates in adds simulated delay to
  ``FaultState.sim_delay_s`` rather than raising.  Detection is the
  serving layer's job (deadline projection), mirroring how stragglers
  are only visible as latency in production.

Faults trigger against a step/phase clock advanced by the serving layer
(:meth:`FaultState.advance`); with nobody advancing the clock, ``at_step=0``
faults are live from the first collective, which is what direct mesh-level
tests want.  All scheduling is deterministic: same plan, same program,
same failure point — on either backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.events import FAULT_INJECTED, EventLog

Coord = tuple[int, int, int]


# ---------------------------------------------------------------------------
# Typed failures
# ---------------------------------------------------------------------------

class MeshFault(RuntimeError):
    """Base class for injected mesh failures (never a silent wrong answer)."""


class ChipFailure(MeshFault):
    """A collective touched a dead chip."""

    def __init__(self, chip: Coord, op: str, step: int):
        super().__init__(f"chip {chip} is dead (detected by {op!r} at "
                         f"step {step})")
        self.chip = chip
        self.op = op
        self.step = step


class CollectiveTimeout(MeshFault):
    """A collective on the given axes timed out."""

    def __init__(self, op: str, axes: tuple[str, ...], step: int):
        super().__init__(f"collective {op!r} over axes {axes} timed out "
                         f"at step {step}")
        self.op = op
        self.axes = axes
        self.step = step


class ReplicaCrashed(MeshFault):
    """A whole replica process died (beyond any single chip).

    Scheduled by the cluster layer (see ``RestartSpec`` in
    :mod:`repro.cluster.control_plane`), not by a :class:`FaultPlan`:
    process death is a *host*-level failure, so it is injected by the
    control plane's clock rather than by a collective.  It rides the
    standard :class:`MeshFault` failover path — in-flight groups
    re-prefill elsewhere — and the control plane then restarts the
    replica (cold re-shard or warm rejoin) and journals both halves.
    """

    def __init__(self, replica: str, mode: str, group: int | None = None):
        super().__init__(f"replica {replica!r} process died "
                         f"(scheduled {mode} restart)")
        self.replica = replica
        self.mode = mode
        self.group = group


class CollectiveCorruption(MeshFault):
    """Checksum verification caught a corrupted collective payload."""

    def __init__(self, op: str, axes: tuple[str, ...], chip: Coord,
                 step: int):
        super().__init__(f"collective {op!r} over axes {axes} delivered a "
                         f"corrupt payload to chip {chip} at step {step}")
        self.op = op
        self.axes = axes
        self.chip = chip
        self.step = step


# ---------------------------------------------------------------------------
# Fault schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChipKill:
    """Kill ``chip`` once the clock reaches ``at_step`` (in ``phase``)."""

    chip: Coord
    at_step: int = 0
    phase: str | None = None  # None = any phase


@dataclass(frozen=True)
class CollectiveFault:
    """Fail exactly one matching collective (one-shot).

    ``axes=None`` matches any collective; otherwise the collective's axes
    tuple must equal ``axes``.  ``op=None`` matches any op name.
    ``match_index`` skips that many matching collectives first, so a test
    can target, e.g., the third all-gather of a decode step.
    """

    kind: str = "timeout"  # "timeout" | "corrupt"
    axes: tuple[str, ...] | None = None
    op: str | None = None
    at_step: int = 0
    phase: str | None = None
    match_index: int = 0
    chip: Coord = (0, 0, 0)      # receiver whose replica is corrupted
    detected: bool = True        # checksum catches the corruption
    magnitude: float = 1e3       # corruption noise scale

    def __post_init__(self) -> None:
        if self.kind not in ("timeout", "corrupt"):
            raise ValueError(f"unknown collective fault kind {self.kind!r}")


@dataclass(frozen=True)
class StragglerFault:
    """Make ``chip`` a straggler: ``slowdown``x slower from ``at_step``.

    Each collective the chip participates in (all of them, under SPMD)
    adds ``delay_s_per_op * (slowdown - 1)`` of simulated wall-clock to
    :attr:`FaultState.sim_delay_s`.  ``until_step`` (exclusive, on the
    same clock as ``at_step``) makes the straggle a *window*: the chip
    heals once the clock reaches it.  ``None`` means it never heals.
    """

    chip: Coord
    slowdown: float = 10.0
    delay_s_per_op: float = 1e-3
    at_step: int = 0
    phase: str | None = None
    until_step: int | None = None


Fault = ChipKill | CollectiveFault | StragglerFault


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of mesh faults.

    Construction validates the schedule: duplicate :class:`ChipKill`\\ s
    for the same chip (a chip cannot die twice; which one "wins" would be
    execution-order-dependent), negative ``at_step``\\ s, and inverted
    straggler windows (``until_step <= at_step``) are all rejected with a
    clear error instead of producing undefined runtime behaviour.
    """

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        self._validate()

    def _validate(self) -> None:
        killed: dict[Coord, ChipKill] = {}
        for fault in self.faults:
            if fault.at_step < 0:
                raise ValueError(
                    f"fault {fault!r} has negative at_step "
                    f"{fault.at_step}; the fault clock starts at 0")
            if isinstance(fault, ChipKill):
                earlier = killed.get(fault.chip)
                if earlier is not None:
                    raise ValueError(
                        f"duplicate ChipKill for chip {fault.chip}: "
                        f"{earlier!r} and {fault!r} overlap — a chip "
                        f"can only die once per plan")
                killed[fault.chip] = fault
            elif isinstance(fault, StragglerFault):
                if fault.until_step is not None \
                        and fault.until_step <= fault.at_step:
                    raise ValueError(
                        f"inverted straggler window in {fault!r}: "
                        f"until_step {fault.until_step} must be > "
                        f"at_step {fault.at_step}")
                if fault.slowdown < 1.0:
                    raise ValueError(
                        f"straggler slowdown must be >= 1, got "
                        f"{fault.slowdown} in {fault!r}")

    @property
    def kills(self) -> tuple[ChipKill, ...]:
        return tuple(f for f in self.faults if isinstance(f, ChipKill))

    @property
    def stragglers(self) -> tuple[StragglerFault, ...]:
        return tuple(f for f in self.faults
                     if isinstance(f, StragglerFault))


def _describe(fault: Fault) -> dict:
    data = {"type": type(fault).__name__}
    data.update(vars(fault))
    return data


class FaultState:
    """Mutable per-mesh fault bookkeeping, driven by the collectives.

    The serving layer advances the step/phase clock via :meth:`advance`;
    the collective hooks in :mod:`repro.mesh.ops` call
    :meth:`on_collective` before computing and :meth:`post_collective`
    on the result shards.
    """

    def __init__(self, plan: FaultPlan, event_log: EventLog | None = None):
        self.plan = plan
        self.events = event_log
        self.step = 0
        self.phase: str | None = None
        self.phase_steps: dict[str, int] = {}
        self.op_counter = 0
        self.sim_delay_s = 0.0
        self._fired: set[int] = set()      # indices of announced faults
        self._spent: set[int] = set()      # one-shot faults already fired
        self._match_seen: dict[int, int] = {}
        self._rng = np.random.default_rng(plan.seed)

    # -- clock ------------------------------------------------------------

    def advance(self, phase: str = "step") -> None:
        """Advance the fault clock by one model invocation in ``phase``."""
        self.step += 1
        self.phase = phase
        self.phase_steps[phase] = self.phase_steps.get(phase, 0) + 1

    def _active(self, fault: Fault) -> bool:
        if fault.phase is None:
            clock = self.step
            in_phase = True
        else:
            clock = self.phase_steps.get(fault.phase, 0)
            in_phase = self.phase == fault.phase
        until = getattr(fault, "until_step", None)
        if until is not None and clock >= until:
            return False  # windowed fault (straggler) has healed
        return in_phase and clock >= fault.at_step

    # -- queries ----------------------------------------------------------

    @property
    def dead_chips(self) -> frozenset[Coord]:
        return frozenset(f.chip for f in self.plan.kills if self._active(f))

    def straggler_chips(self) -> frozenset[Coord]:
        return frozenset(f.chip for f in self.plan.stragglers
                         if self._active(f))

    def quiescent(self) -> bool:
        """True when no scheduled fault could fire or accrue delay now.

        The gate for captured-program replay
        (:mod:`repro.mesh.capture`): replay skips the per-collective
        fault hooks, so it is only allowed while every unspent fault is
        inactive on the current clock — any live kill, timeout,
        corruption or straggler forces the step back onto the eager
        path where the hooks fire exactly as usual.
        """
        for index, fault in enumerate(self.plan.faults):
            if isinstance(fault, CollectiveFault) and index in self._spent:
                continue
            if self._active(fault):
                return False
        return True

    # -- collective hooks -------------------------------------------------

    def _announce(self, index: int, fault: Fault, op: str) -> None:
        if index in self._fired:
            return
        self._fired.add(index)
        if self.events is not None:
            self.events.record(FAULT_INJECTED, op=op, step=self.step,
                               phase=self.phase, fault=_describe(fault))

    def on_collective(self, op: str, axes: tuple[str, ...]) -> None:
        """Pre-compute hook: raise for dead chips and timed-out collectives,
        accumulate straggler delay."""
        self.op_counter += 1
        for index, fault in enumerate(self.plan.faults):
            if not self._active(fault):
                continue
            if isinstance(fault, ChipKill):
                self._announce(index, fault, op)
                raise ChipFailure(fault.chip, op, self.step)
            if isinstance(fault, StragglerFault):
                self._announce(index, fault, op)
                self.sim_delay_s += fault.delay_s_per_op * \
                    (fault.slowdown - 1.0)
            elif isinstance(fault, CollectiveFault) and \
                    fault.kind == "timeout":
                if self._matches(index, fault, op, axes):
                    self._announce(index, fault, op)
                    raise CollectiveTimeout(op, axes, self.step)

    def post_collective(self, op: str, axes: tuple[str, ...],
                        shards: np.ndarray) -> np.ndarray:
        """Post-compute hook: apply (and detect) payload corruption."""
        for index, fault in enumerate(self.plan.faults):
            if not isinstance(fault, CollectiveFault) or \
                    fault.kind != "corrupt":
                continue
            if not self._active(fault) or \
                    not self._matches(index, fault, op, axes):
                continue
            self._announce(index, fault, op)
            shard = shards[fault.chip]
            noise = fault.magnitude * (1.0 + np.abs(
                self._rng.standard_normal(np.shape(shard))))
            # Assignment (not in-place add): on the loop backend a group's
            # replicas may alias one array, and only this chip's copy is
            # corrupt.
            shards = shards.copy()
            shards[fault.chip] = shard + noise
            if fault.detected:
                raise CollectiveCorruption(op, axes, fault.chip, self.step)
        return shards

    def _matches(self, index: int, fault: CollectiveFault, op: str,
                 axes: tuple[str, ...]) -> bool:
        if index in self._spent:
            return False
        if fault.op is not None and fault.op != op:
            return False
        if fault.axes is not None and tuple(fault.axes) != tuple(axes):
            return False
        seen = self._match_seen.get(index, 0)
        self._match_seen[index] = seen + 1
        if seen < fault.match_index:
            return False
        self._spent.add(index)
        return True

    def take_transfer_fault(self, phase: str = "handoff"
                            ) -> CollectiveFault | None:
        """Consume one live one-shot fault scheduled against ``phase``.

        The KV-handoff transfer is host-mediated — no collective runs,
        so :meth:`on_collective` never sees faults aimed at the
        ``"handoff"`` phase clock.  The transactional handoff calls this
        instead: a matching unspent :class:`CollectiveFault` is spent
        and returned (modeling a lost transfer acknowledgement the
        retry-plus-dedup protocol must absorb), or ``None``.
        """
        for index, fault in enumerate(self.plan.faults):
            if not isinstance(fault, CollectiveFault) or \
                    index in self._spent:
                continue
            if fault.phase != phase or not self._active(fault):
                continue
            self._spent.add(index)
            self._announce(index, fault, op="kv_handoff")
            return fault
        return None

    # -- replanning support ----------------------------------------------

    def remaining_plan(self, origin: Coord,
                       shape: Coord) -> FaultPlan:
        """The plan translated into a healthy sub-slice's coordinates.

        Spent one-shot faults and faults whose chip falls outside the
        sub-slice are dropped; surviving chip coordinates are shifted by
        ``origin``.  Used when replanning installs fault state on the new
        (shrunken) mesh.
        """

        def inside(chip: Coord) -> bool:
            return all(o <= c < o + s
                       for c, o, s in zip(chip, origin, shape))

        def shift(chip: Coord) -> Coord:
            return tuple(c - o for c, o in zip(chip, origin))

        kept: list[Fault] = []
        for index, fault in enumerate(self.plan.faults):
            if index in self._spent:
                continue
            if isinstance(fault, (ChipKill, StragglerFault)):
                if index in self._fired or not inside(fault.chip):
                    continue
                kept.append(replace(fault, chip=shift(fault.chip)))
            elif inside(fault.chip):
                kept.append(replace(fault, chip=shift(fault.chip)))
        return FaultPlan(faults=tuple(kept), seed=self.plan.seed)


# ---------------------------------------------------------------------------
# Mesh integration
# ---------------------------------------------------------------------------

def install_fault_plan(mesh, plan: FaultPlan,
                       event_log: EventLog | None = None) -> FaultState:
    """Attach a fault plan to a mesh; collectives consult it from now on."""
    state = FaultState(plan, event_log)
    mesh.fault_state = state
    return state


def clear_faults(mesh) -> None:
    """Detach any fault state from a mesh."""
    if hasattr(mesh, "fault_state"):
        del mesh.fault_state
