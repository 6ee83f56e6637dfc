"""The chaos entry point: empty-timeline bit-identity, the per-cycle
partition invariant, drop/park/abort accounting, and the
delivered-fraction view."""

import dataclasses

import numpy as np
import pytest

from repro.chaos import (
    ChaosEvent,
    ChaosSchedule,
    chaos_options,
    check_chaos_run,
    delivered_fraction,
    random_timeline,
    run_chaos,
    run_chaos_random_rank,
    run_chaos_switchsim,
    same_delivery,
)
from repro.core import (
    ConstantCapacity,
    DeliveryTimeout,
    Direction,
    FatTree,
    MessageSet,
    Schedule,
    ScheduleError,
)
from repro.core.registry import STACKS
from repro.faults import DegradedFatTree, FaultModel
from repro.obs import Obs
from repro.workloads import uniform_random

EMPTY = ChaosSchedule()
# killing the root severs channels (1,0) and (1,1): every message whose
# path crosses the root dies with it, local traffic is untouched
ROOT_KILL = ChaosSchedule((ChaosEvent(at=0, kind="switch-kill", level=0, index=0),))


def _pairs(sched):
    """Exact per-cycle (src, dst) sequences — the bit-identity view."""
    return [list(zip(c.src.tolist(), c.dst.tolist())) for c in sched.cycles]


def _split_traffic(n=16):
    """Half root-crossing, half leaf-local traffic on an n-leaf tree."""
    crossing = [(i, i + n // 2) for i in range(n // 2)]
    local = [(i, i ^ 1) for i in range(n // 2)]
    pairs = crossing + local
    ms = MessageSet([s for s, _ in pairs], [d for _, d in pairs], n)
    return ms, crossing, local


class TestEmptyTimelineIdentity:
    """chaos=None and an empty timeline must be indistinguishable."""

    @pytest.mark.parametrize("stack", list(STACKS))
    def test_matches_healthy_run(self, stack):
        # Corollary 2 needs cap(c) > lg n
        ft = FatTree(16, ConstantCapacity(4, 5)) if stack == "corollary2" else FatTree(16)
        messages = uniform_random(16, 40, seed=3)
        chaos = run_chaos(
            stack, ft, messages, EMPTY, **chaos_options(stack, seed=5, max_cycles=10_000)
        )
        healthy = STACKS[stack].run(ft, messages, seed=5, max_cycles=10_000)
        assert same_delivery(healthy, chaos)
        assert check_chaos_run(ft, messages, chaos) == []
        assert chaos.cycle_stats  # the instrumented run carries stats
        if isinstance(chaos, Schedule):
            assert _pairs(chaos) == _pairs(healthy)
            assert chaos.dropped is None
            chaos.validate(ft, messages)
        elif stack == "switchsim":
            assert chaos.cycles == healthy.cycles
            assert chaos.attempts == healthy.attempts
            assert not chaos.dropped
            for cr, hr in zip(chaos.reports, healthy.reports):
                assert sorted((m.src, m.dst) for m in cr.delivered) == sorted(
                    (m.src, m.dst) for m in hr.delivered
                )
                assert len(cr.congested) == len(hr.congested)
        else:
            assert chaos.makespan == healthy.makespan
            assert np.array_equal(chaos.latencies, healthy.latencies)
            assert chaos.max_queue_depth == healthy.max_queue_depth
            assert not chaos.dropped


class TestPartitionInvariant:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_rank_over_random_timelines(self, seed):
        ft = FatTree(8)
        messages = uniform_random(8, 24, seed=seed)
        timeline = random_timeline(ft, seed=seed, events=5, horizon=8)
        sched = run_chaos_random_rank(ft, messages, timeline, seed=seed)
        sched.validate(ft, messages)
        for stats in sched.cycle_stats:
            stats.check()

    @pytest.mark.parametrize("seed", (0, 1))
    def test_online_retry_over_random_timelines(self, seed):
        ft = FatTree(8)
        messages = uniform_random(8, 24, seed=seed)
        timeline = random_timeline(ft, seed=seed + 10, events=4, horizon=8)
        sched = run_chaos("online-retry", ft, messages, timeline, seed=seed)
        sched.validate(ft, messages)

    def test_corrupted_partition_is_detected(self):
        # regression: Schedule.validate must re-check the per-cycle
        # partition, not trust the run that produced it
        ft = FatTree(16)
        messages, _, _ = _split_traffic()
        sched = run_chaos_random_rank(ft, messages, ROOT_KILL)
        stats = list(sched.cycle_stats)
        stats[0] = dataclasses.replace(stats[0], deferred=stats[0].deferred + 1)
        corrupted = dataclasses.replace(sched, cycle_stats=stats)
        with pytest.raises(ScheduleError):
            corrupted.validate(ft, messages)

    def test_truncated_stats_are_detected(self):
        ft = FatTree(16)
        messages = uniform_random(16, 40, seed=3)
        sched = run_chaos_random_rank(ft, messages, ROOT_KILL)
        assert len(sched.cycle_stats) >= 2
        corrupted = dataclasses.replace(sched, cycle_stats=sched.cycle_stats[:-1])
        with pytest.raises(ScheduleError):
            corrupted.validate(ft, messages)


class TestRecovery:
    def test_healing_storm_delivers_everything(self):
        # every drop has a scheduled repair: severed messages park
        # (deferred), nothing is dropped, delivery completes
        ft = FatTree(16)
        cap_root = ft.cap(1)
        messages = MessageSet(
            [i % 8 for i in range(24)], [8 + (i % 8) for i in range(24)], 16
        )
        events = []
        for index in (0, 1):
            events.append(ChaosEvent(at=1, kind="wire-drop", level=1,
                                     index=index, count=cap_root))
            events.append(ChaosEvent(at=4, kind="wire-repair", level=1,
                                     index=index, count=cap_root))
        sched = run_chaos_random_rank(ft, messages, ChaosSchedule(tuple(events)))
        sched.validate(ft, messages)
        assert sched.dropped is None
        assert delivered_fraction(sched) == 1.0
        assert any(stats.deferred > 0 for stats in sched.cycle_stats)

    def test_unrepaired_root_kill_drops_exactly_crossing_traffic(self):
        ft = FatTree(16)
        messages, crossing, local = _split_traffic()
        sched = run_chaos_random_rank(ft, messages, ROOT_KILL)
        sched.validate(ft, messages)
        dropped = sorted(zip(sched.dropped.src.tolist(), sched.dropped.dst.tolist()))
        assert dropped == sorted(crossing)
        delivered = sorted(p for cycle in _pairs(sched) for p in cycle)
        assert delivered == sorted(local)
        assert delivered_fraction(sched) == 0.5

    def test_on_severed_raise_aborts_with_accounting(self):
        # the mid-flight severance abort path: structured DeliveryTimeout
        # plus a chaos.abort trace and chaos.aborted counter
        ft = FatTree(16)
        messages, crossing, _ = _split_traffic()
        obs = Obs(enabled=True)
        with pytest.raises(DeliveryTimeout) as excinfo:
            run_chaos_random_rank(
                ft, messages, ROOT_KILL, on_severed="raise", obs=obs
            )
        assert sorted(excinfo.value.undelivered) == sorted(crossing)
        assert obs.metrics.counter_value("chaos.aborted") == len(crossing)
        aborts = obs.tracer.select("chaos.abort")
        assert aborts and aborts[0]["severed"] == len(crossing)

    def test_caller_tree_is_never_mutated(self):
        dft = DegradedFatTree(FatTree(16), FaultModel())
        before = [dft.cap_vector(k, Direction.UP).copy()
                  for k in range(1, dft.depth + 1)]
        messages, _, _ = _split_traffic()
        first = run_chaos_random_rank(dft, messages, ROOT_KILL)
        second = run_chaos_random_rank(dft, messages, ROOT_KILL)
        assert _pairs(first) == _pairs(second)  # deterministic replay
        for k, vec in zip(range(1, dft.depth + 1), before):
            assert np.array_equal(dft.cap_vector(k, Direction.UP), vec)

    def test_switchsim_drop_accounting(self):
        ft = FatTree(16)
        messages, crossing, _ = _split_traffic()
        outcome = run_chaos_switchsim(ft, messages, ROOT_KILL, seed=0)
        assert sorted(outcome.dropped) == sorted(crossing)
        assert delivered_fraction(outcome) == 0.5
        for stats in outcome.cycle_stats:
            stats.check()
        assert sum(s.dropped for s in outcome.cycle_stats) == len(crossing)

    def test_buffered_drop_accounting(self):
        ft = FatTree(16)
        messages, crossing, _ = _split_traffic()
        run = run_chaos("buffered", ft, messages, ROOT_KILL)
        assert sorted(run.dropped) == sorted(crossing)
        assert delivered_fraction(run) == 0.5
        # dropped messages never accrue latency
        assert int((run.latencies == 0).sum()) >= len(crossing)

    def test_online_retry_drop_accounting(self):
        ft = FatTree(16)
        messages, crossing, _ = _split_traffic()
        sched = run_chaos("online-retry", ft, messages, ROOT_KILL)
        sched.validate(ft, messages)
        dropped = sorted(zip(sched.dropped.src.tolist(), sched.dropped.dst.tolist()))
        assert dropped == sorted(crossing)

    def test_offline_executor_drops_and_heals(self):
        ft = FatTree(16)
        messages, crossing, _ = _split_traffic()
        sched = run_chaos("theorem1", ft, messages, ROOT_KILL)
        sched.validate(ft, messages)
        dropped = sorted(zip(sched.dropped.src.tolist(), sched.dropped.dst.tolist()))
        assert dropped == sorted(crossing)
        assert delivered_fraction(sched) == 0.5


class TestGates:
    def test_unknown_scheduler_rejected(self):
        ft = FatTree(8)
        with pytest.raises(ValueError, match="stack"):
            run_chaos("quantum", ft, uniform_random(8, 4, seed=0), EMPTY)

    def test_delivered_fraction_rejects_unknown_results(self):
        with pytest.raises(TypeError, match="delivered-fraction"):
            delivered_fraction(42)

    def test_empty_workload_reports_full_delivery(self):
        ft = FatTree(8)
        sched = run_chaos_random_rank(ft, MessageSet([], [], 8), EMPTY)
        assert delivered_fraction(sched) == 1.0
