"""Unit tests for the extension modules: shared arenas, the
first-class channel, workloads, and replay edge cases."""

import pytest

from repro.core.shared import SharedArena, SharedMutex
from repro.debug.replay import ScheduleStep, compare_schedules
from repro.sim.world import World
from repro.unix.firstclass import FirstClassInterface
from repro.unix.io import IoRequest
from repro.unix.kernel import UnixKernel
from repro.unix.process import UnixProcess


class TestSharedArena:
    def test_allocation_bumps_and_bounds(self):
        world = World("sparc-ipx")
        arena = SharedArena(world, size=64)
        first = arena.allocate(16)
        second = arena.allocate(16)
        assert first == 0 and second == 16
        with pytest.raises(MemoryError):
            arena.allocate(64)

    def test_attach_is_a_syscall_and_idempotent(self):
        world = World("sparc-ipx")
        kernel = UnixKernel(world)
        arena = SharedArena(world)
        proc = UnixProcess(kernel, None)
        arena.attach(proc)
        arena.attach(proc)
        assert arena.attached_pids.count(proc.pid) == 1
        assert kernel.syscall_counts["shmat"] == 2

    def test_shared_mutex_lives_in_the_arena(self):
        world = World("sparc-ipx")
        arena = SharedArena(world)
        a = SharedMutex(arena)
        b = SharedMutex(arena)
        assert a.offset != b.offset
        assert not a.locked


class TestFirstClassChannel:
    def _channel(self):
        world = World("sparc-ipx")
        kernel = UnixKernel(world)
        return world, kernel, FirstClassInterface(world, kernel)

    def _request(self, datum):
        return IoRequest(
            reqid=1, fd=1, op="read", nbytes=8, requester=datum,
            done=True, result=8,
        )

    def test_completion_reaches_registered_upcall(self):
        world, kernel, channel = self._channel()
        got = []
        channel.register_scheduler(
            lambda r: got.append((r.requester, r.result))
        )
        channel.notify(self._request("datum-x"))
        assert got == [("datum-x", 8)]
        assert channel.notifications == 1

    def test_registration_costs_one_syscall(self):
        world, kernel, channel = self._channel()
        channel.register_scheduler(lambda r: None)
        assert kernel.syscall_counts["fc_register"] == 1

    def test_notification_is_far_cheaper_than_signal_delivery(self):
        world, kernel, channel = self._channel()
        channel.register_scheduler(lambda r: None)
        before = world.now
        channel.notify(self._request("x"))
        cost = world.now - before
        assert cost < world.model.cost("unix_signal_deliver") / 10


class TestReplayEdges:
    def test_empty_schedules_are_identical(self):
        diff = compare_schedules([], [])
        assert diff.identical

    def test_single_step_mismatch(self):
        diff = compare_schedules(
            [ScheduleStep(1, "a")], [ScheduleStep(1, "b")]
        )
        assert not diff.identical
        assert diff.first_divergence == 0

    def test_time_shift_detected_only_in_strict_mode(self):
        a = [ScheduleStep(10, "x")]
        b = [ScheduleStep(20, "x")]
        assert not compare_schedules(a, b).identical
        assert compare_schedules(a, b, compare_times=False).identical


class TestWorkloadValidation:
    def test_lock_storm_asserts_its_own_postconditions(self):
        from repro.bench.workloads import lock_storm, run_workload

        result = run_workload(lock_storm(threads=3, iterations=2))
        assert result["context_switches"] > 0
        assert result["elapsed_us"] > 0

    def test_pipeline_returns_metadata(self):
        from repro.bench.workloads import pipeline, run_workload

        result = run_workload(pipeline(stages=2, items=4))
        assert result["runtime"].terminated_by is None
