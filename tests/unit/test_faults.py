"""Mesh-level fault injection: typed failures, scheduling, both backends."""

import numpy as np
import pytest

from repro.events import FAULT_INJECTED, EventLog
from repro.mesh import (
    ChipFailure,
    ChipKill,
    CollectiveCorruption,
    CollectiveFault,
    CollectiveTimeout,
    FaultPlan,
    MeshFault,
    ShardedTensor,
    StragglerFault,
    VirtualMesh,
    all_gather,
    all_reduce,
    clear_faults,
)
from repro.mesh.virtual_mesh import BACKENDS
from repro.sharding import ShardingError, parse
from tests.unit.grid import every_device

RNG = np.random.default_rng(0)


def sharded_x(mesh, seed=0):
    rng = np.random.default_rng(seed)
    return ShardedTensor.from_global(mesh, rng.standard_normal((8,)),
                                     parse("D_x"))


@pytest.mark.parametrize("backend", BACKENDS)
class TestChipKill:
    def test_first_collective_detects(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        mesh.install_faults(FaultPlan(faults=(ChipKill(chip=(1, 0, 1)),)))
        with pytest.raises(ChipFailure) as err:
            all_gather(sharded_x(mesh), ("x",), "D")
        assert err.value.chip == (1, 0, 1)
        assert err.value.op == "all_gather"
        assert isinstance(err.value, MeshFault)

    def test_scheduled_kill_waits_for_step(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        state = mesh.install_faults(
            FaultPlan(faults=(ChipKill(chip=(0, 0, 0), at_step=2),)))
        t = sharded_x(mesh)
        all_gather(t, ("x",), "D")  # step 0: healthy
        state.advance()
        all_gather(t, ("x",), "D")  # step 1: still healthy
        state.advance()
        with pytest.raises(ChipFailure):
            all_gather(t, ("x",), "D")

    def test_phase_filter(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        state = mesh.install_faults(FaultPlan(faults=(
            ChipKill(chip=(0, 0, 0), at_step=1, phase="decode"),)))
        t = sharded_x(mesh)
        state.advance("prefill")
        all_gather(t, ("x",), "D")  # prefill steps never trigger it
        state.advance("decode")
        with pytest.raises(ChipFailure):
            all_gather(t, ("x",), "D")

    def test_clear_faults(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        mesh.install_faults(FaultPlan(faults=(ChipKill(chip=(0, 0, 0)),)))
        clear_faults(mesh)
        all_gather(sharded_x(mesh), ("x",), "D")  # healthy again


@pytest.mark.parametrize("backend", BACKENDS)
class TestCollectiveFaults:
    def test_timeout_is_one_shot(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        mesh.install_faults(FaultPlan(faults=(
            CollectiveFault(kind="timeout", axes=("x",)),)))
        t = sharded_x(mesh)
        with pytest.raises(CollectiveTimeout) as err:
            all_gather(t, ("x",), "D")
        assert err.value.axes == ("x",)
        all_gather(t, ("x",), "D")  # the fault is spent

    def test_timeout_axis_filter(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        mesh.install_faults(FaultPlan(faults=(
            CollectiveFault(kind="timeout", axes=("y",)),)))
        all_gather(sharded_x(mesh), ("x",), "D")  # wrong axes: no fault
        t_y = ShardedTensor.from_global(mesh, RNG.standard_normal((8,)),
                                        parse("D_y"))
        with pytest.raises(CollectiveTimeout):
            all_gather(t_y, ("y",), "D")

    def test_match_index_skips(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        mesh.install_faults(FaultPlan(faults=(
            CollectiveFault(kind="timeout", op="all_gather",
                            match_index=1),)))
        t = sharded_x(mesh)
        all_gather(t, ("x",), "D")  # first match skipped
        with pytest.raises(CollectiveTimeout):
            all_gather(t, ("x",), "D")

    def test_detected_corruption_raises(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        mesh.install_faults(FaultPlan(faults=(
            CollectiveFault(kind="corrupt", chip=(0, 1, 0)),)))
        with pytest.raises(CollectiveCorruption) as err:
            all_gather(sharded_x(mesh), ("x",), "D")
        assert err.value.chip == (0, 1, 0)

    def test_silent_corruption_changes_result(self, backend):
        # detected=False is the escape hatch that demonstrates *why*
        # detection matters: the answer is wrong with no error raised.
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        x = RNG.standard_normal((8,))
        replicated = ShardedTensor.from_global(mesh, x / 2, parse("D"))
        spec = parse("D").with_partial_sum(("x",))
        # One copy per replicated axis: broadcast over the partial x.
        t = ShardedTensor(mesh, spec, x.shape, every_device(replicated))
        clean = all_reduce(t, ("x",)).to_global()
        np.testing.assert_allclose(clean, x)
        mesh.install_faults(FaultPlan(faults=(
            CollectiveFault(kind="corrupt", chip=(0, 0, 0),
                            detected=False),)))
        dirty = all_reduce(t, ("x",))
        assert not np.allclose(clean, dirty.shards[0, 0, 0])
        # Only chip (0, 0, 0)'s copy is corrupt: the replicas disagree.
        with pytest.raises(ShardingError, match="replicas disagree"):
            dirty.to_global()

    def test_unknown_kind_rejected(self, backend):
        with pytest.raises(ValueError, match="kind"):
            CollectiveFault(kind="explode")


@pytest.mark.parametrize("backend", BACKENDS)
class TestStraggler:
    def test_accumulates_delay_without_raising(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        state = mesh.install_faults(FaultPlan(faults=(
            StragglerFault(chip=(0, 0, 1), slowdown=11.0,
                           delay_s_per_op=1e-3),)))
        t = sharded_x(mesh)
        for _ in range(4):
            all_gather(t, ("x",), "D")
        assert state.sim_delay_s == pytest.approx(4 * 1e-3 * 10.0)
        assert state.straggler_chips() == frozenset({(0, 0, 1)})

    def test_results_stay_correct(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        t = sharded_x(mesh)
        clean = all_gather(t, ("x",), "D").to_global()
        mesh.install_faults(FaultPlan(faults=(
            StragglerFault(chip=(1, 1, 1)),)))
        slow = all_gather(t, ("x",), "D").to_global()
        np.testing.assert_array_equal(clean, slow)


class TestEventsAndRemainingPlan:
    def test_injection_recorded_once(self):
        log = EventLog()
        mesh = VirtualMesh((2, 2, 2))
        mesh.install_faults(FaultPlan(faults=(
            StragglerFault(chip=(0, 0, 1)),)), event_log=log)
        t = sharded_x(mesh)
        all_gather(t, ("x",), "D")
        all_gather(t, ("x",), "D")
        injected = log.of_kind(FAULT_INJECTED)
        assert len(injected) == 1
        assert injected[0]["fault"]["type"] == "StragglerFault"
        assert injected[0]["fault"]["chip"] == (0, 0, 1)

    def test_remaining_plan_shifts_and_drops(self):
        mesh = VirtualMesh((2, 2, 2))
        state = mesh.install_faults(FaultPlan(faults=(
            ChipKill(chip=(0, 1, 0)),               # fires below
            ChipKill(chip=(1, 1, 1), at_step=99),   # outside new slice
            CollectiveFault(kind="timeout", at_step=99, chip=(0, 0, 1)),
        ), seed=7))
        with pytest.raises(ChipFailure):
            all_gather(sharded_x(mesh), ("x",), "D")
        # Replan onto the y=0 slab: origin (0,0,0), shape (2,1,2).
        remaining = state.remaining_plan((0, 0, 0), (2, 1, 2))
        assert remaining.seed == 7
        types = [type(f).__name__ for f in remaining.faults]
        assert types == ["CollectiveFault"]  # fired kill + outside dropped
        assert remaining.faults[0].chip == (0, 0, 1)

    def test_spent_faults_dropped(self):
        mesh = VirtualMesh((2, 2, 2))
        state = mesh.install_faults(FaultPlan(faults=(
            CollectiveFault(kind="timeout"),)))
        with pytest.raises(CollectiveTimeout):
            all_gather(sharded_x(mesh), ("x",), "D")
        assert state.remaining_plan((0, 0, 0), (2, 2, 2)).faults == ()


class TestFaultPlanValidation:
    def test_duplicate_chip_kill_rejected(self):
        with pytest.raises(ValueError, match="duplicate ChipKill"):
            FaultPlan(faults=(ChipKill(chip=(0, 1, 0), at_step=1),
                              ChipKill(chip=(0, 1, 0), at_step=5)))

    def test_duplicate_kill_same_step_rejected(self):
        with pytest.raises(ValueError, match="can only die once"):
            FaultPlan(faults=(ChipKill(chip=(1, 1, 1)),
                              ChipKill(chip=(1, 1, 1))))

    def test_kills_of_distinct_chips_allowed(self):
        plan = FaultPlan(faults=(ChipKill(chip=(0, 0, 0)),
                                 ChipKill(chip=(0, 0, 1), at_step=3)))
        assert len(plan.kills) == 2

    def test_inverted_straggler_window_rejected(self):
        with pytest.raises(ValueError, match="inverted straggler window"):
            FaultPlan(faults=(StragglerFault(chip=(0, 0, 1), at_step=5,
                                             until_step=3),))

    def test_empty_straggler_window_rejected(self):
        # until_step is exclusive, so until_step == at_step never fires.
        with pytest.raises(ValueError, match="inverted straggler window"):
            FaultPlan(faults=(StragglerFault(chip=(0, 0, 1), at_step=4,
                                             until_step=4),))

    def test_forward_straggler_window_allowed(self):
        plan = FaultPlan(faults=(StragglerFault(chip=(0, 0, 1), at_step=2,
                                                until_step=9),))
        assert plan.stragglers[0].until_step == 9

    @pytest.mark.parametrize("fault", [
        ChipKill(chip=(0, 0, 0), at_step=-1),
        StragglerFault(chip=(0, 0, 1), at_step=-3),
        CollectiveFault(kind="timeout", at_step=-2),
    ])
    def test_negative_at_step_rejected(self, fault):
        with pytest.raises(ValueError, match="negative at_step"):
            FaultPlan(faults=(fault,))

    def test_sub_unit_slowdown_rejected(self):
        with pytest.raises(ValueError, match="slowdown must be >= 1"):
            FaultPlan(faults=(StragglerFault(chip=(0, 0, 1),
                                             slowdown=0.5),))


@pytest.mark.parametrize("backend", BACKENDS)
class TestStragglerWindow:
    def test_straggler_heals_at_until_step(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        state = mesh.install_faults(FaultPlan(faults=(
            StragglerFault(chip=(0, 0, 1), slowdown=2.0,
                           delay_s_per_op=1e-3, at_step=1,
                           until_step=3),)))
        delays = []
        for _ in range(4):
            state.advance("decode")
            before = state.sim_delay_s
            all_gather(sharded_x(mesh), ("x",), "D")
            delays.append(state.sim_delay_s - before)
        # Active on steps 1 and 2, healed from step 3 (exclusive bound).
        assert delays[0] > 0 and delays[1] > 0
        assert delays[2] == 0 and delays[3] == 0
        assert state.straggler_chips() == frozenset()
