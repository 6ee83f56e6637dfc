"""Tests for the Theorem 1 scheduler.

Theorem 1: any message set M on a fat-tree of n processors has an
off-line schedule with d = O(λ(M)·lg n) delivery cycles; this
implementation achieves d <= 2·ceil(λ(M))·lg n.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstantCapacity,
    ExplicitCapacity,
    FatTree,
    MessageSet,
    ScheduleError,
    UniversalCapacity,
    load_factor,
    schedule_theorem1,
    theorem1_cycle_bound,
)
from repro.core.fattree import Direction
from repro.core.partition import group_indices
from repro.core.scheduler import (
    _reference_partition_group,
    _reference_schedule_theorem1,
    partition_group,
)
from repro.core.tree import level_of_flat
from repro.obs import Obs
from repro.workloads import uniform_random


def check(ft, m):
    """Schedule, validate both invariants, check the Theorem 1 bound."""
    sched = schedule_theorem1(ft, m)
    sched.validate(ft, m)
    lam = load_factor(ft, m)
    assert sched.num_cycles >= math.ceil(lam)  # the load-factor lower bound
    assert sched.num_cycles <= theorem1_cycle_bound(ft, lam)
    return sched


class TestBasic:
    def test_empty(self):
        sched = check(FatTree(8), MessageSet.empty(8))
        assert sched.num_cycles == 0

    def test_only_self_messages(self):
        sched = check(FatTree(8), MessageSet([1, 2], [1, 2], 8))
        assert sched.num_cycles == 0
        assert sched.n_self_messages == 2

    def test_single_message(self):
        sched = check(FatTree(8), MessageSet([0], [7], 8))
        assert sched.num_cycles == 1

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            schedule_theorem1(FatTree(8), MessageSet([0], [1], 16))

    def test_message_exceeding_unit_capacity_is_fine(self):
        """cap = 1 everywhere still schedules (one message at a time
        through any channel)."""
        ft = FatTree(8, ConstantCapacity(3, 1))
        m = MessageSet([0, 1, 2, 3], [4, 5, 6, 7], 8)
        check(ft, m)


class TestWorkloads:
    def test_random_permutation_full_fat_tree(self):
        n = 64
        ft = FatTree(n)
        m = MessageSet.from_permutation(np.random.default_rng(0).permutation(n))
        sched = check(ft, m)
        # λ <= 1 on the full fat-tree, so d <= 2·lg n
        assert sched.num_cycles <= 2 * ft.depth

    def test_hotspot_traffic(self):
        n = 32
        ft = FatTree(n)
        m = MessageSet(list(range(1, n)), [0] * (n - 1), n)
        check(ft, m)

    def test_all_to_all(self):
        n = 16
        ft = FatTree(n)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        check(ft, MessageSet.from_pairs(pairs, n))

    def test_bit_reversal_on_skinny_tree(self):
        n = 32
        ft = FatTree(n, UniversalCapacity(n, 16, strict=False))
        rev = [int(f"{i:05b}"[::-1], 2) for i in range(n)]
        check(ft, MessageSet(list(range(n)), rev, n))

    def test_heavy_random_traffic_narrow_tree(self):
        n = 64
        ft = FatTree(n, UniversalCapacity(n, 16))
        rng = np.random.default_rng(42)
        m = MessageSet(rng.integers(0, n, 1000), rng.integers(0, n, 1000), n)
        check(ft, m)

    def test_local_traffic_costs_few_cycles(self):
        """Neighbour exchanges route within exchanges — the telephone
        analogy of §II: local traffic should need few delivery cycles even
        though total volume is large."""
        n = 64
        ft = FatTree(n)
        pairs = [(i, i ^ 1) for i in range(n)]
        sched = check(ft, MessageSet.from_pairs(pairs, n))
        assert sched.num_cycles <= 2  # all LCAs at the leaf-pair level

    def test_duplicated_messages(self):
        ft = FatTree(16)
        m = MessageSet([0] * 8, [15] * 8, 16)
        sched = check(ft, m)
        assert sched.num_cycles == 8  # single-wire leaf channel


class TestStructure:
    def test_per_level_cycle_counts_sum_to_d(self):
        ft = FatTree(32)
        rng = np.random.default_rng(1)
        m = MessageSet(rng.integers(0, 32, 200), rng.integers(0, 32, 200), 32)
        sched = schedule_theorem1(ft, m)
        assert sum(sched.per_level_cycles.values()) == sched.num_cycles

    def test_cycles_only_mix_same_level_lcas(self):
        """Every delivery cycle contains messages whose LCAs all sit at
        one tree level (the level-by-level structure of the proof)."""
        ft = FatTree(32)
        rng = np.random.default_rng(2)
        m = MessageSet(rng.integers(0, 32, 150), rng.integers(0, 32, 150), 32)
        sched = schedule_theorem1(ft, m)
        for cycle in sched:
            levels = {
                ft.depth - (s ^ d).bit_length() for s, d in cycle
            }
            assert len(levels) == 1

    def test_validator_catches_bad_partition(self):
        ft = FatTree(8)
        m = MessageSet([0, 1], [4, 5], 8)
        sched = schedule_theorem1(ft, m)
        sched.cycles.append(MessageSet([0], [4], 8))  # duplicate a message
        with pytest.raises(ScheduleError):
            sched.validate(ft, m)

    def test_validator_catches_overloaded_cycle(self):
        ft = FatTree(8, ConstantCapacity(3, 1))
        overloaded = MessageSet([0, 1], [4, 5], 8)  # root load 2 > cap 1
        sched = schedule_theorem1(ft, overloaded)
        sched.cycles = [overloaded]
        with pytest.raises(ScheduleError):
            sched.validate(ft, overloaded)


class TestPartitionGroup:
    def test_group_piece_count_bound(self):
        """A group with load factor λ_g splits into <= 2^ceil(lg λ_g)
        one-cycle pieces."""
        n = 16
        ft = FatTree(n, ConstantCapacity(4, 2))
        m = MessageSet([0] * 11, [8] * 11, n)  # λ_g = 11/2 through leaf wires?
        # leaf channel of 0 has cap 2 and load 11 -> λ_g = 5.5
        groups = group_indices(m, ft.depth)
        (idx,) = groups.values()
        pieces = partition_group(ft, m, idx)
        lam_g = 11 / 2
        assert len(pieces) <= 2 ** math.ceil(math.log2(lam_g))

    def test_zero_capacity_message_raises(self):
        """With positive capacities every single message fits, so the
        public API never reaches the over-capacity guard; see
        :class:`TestOverCapacitySingleton` for the guard itself."""
        ft = FatTree(4, ConstantCapacity(2, 1))
        m = MessageSet([0], [3], 4)
        sched = schedule_theorem1(ft, m)
        sched.validate(ft, m)


class _DeadLeafChannelTree(FatTree):
    """A tree whose leaf-0 up channel reports capacity 0 while
    :meth:`routable_mask` still calls every message routable — the
    inconsistent state a broken custom tree could present."""

    def cap_vector(self, level, direction):
        vec = super().cap_vector(level, direction)
        if level == self.depth and direction is Direction.UP:
            vec = vec.copy()
            vec[0] = 0
        return vec


class TestOverCapacitySingleton:
    """A one-message piece that still overloads a channel cannot be split
    further: the level-synchronous halving must raise, not spin."""

    def test_schedule_theorem1_raises(self):
        ft = _DeadLeafChannelTree(8, ConstantCapacity(3, 2))
        m = MessageSet([0, 0, 1, 5], [4, 7, 6, 2], 8)
        with pytest.raises(ValueError, match="single message exceeds"):
            schedule_theorem1(ft, m)

    def test_partition_group_and_reference_raise(self):
        ft = _DeadLeafChannelTree(8, ConstantCapacity(3, 2))
        m = MessageSet([0, 0, 1], [4, 5, 6], 8)
        (idx,) = group_indices(m, ft.depth).values()
        with pytest.raises(ValueError, match="single message exceeds"):
            partition_group(ft, m, idx)
        with pytest.raises(ValueError, match="single message exceeds"):
            _reference_partition_group(ft, m, idx)

    def test_messages_avoiding_the_dead_channel_still_schedule(self):
        ft = _DeadLeafChannelTree(8, ConstantCapacity(3, 2))
        m = MessageSet([1, 2, 5], [4, 6, 3], 8)
        sched = schedule_theorem1(ft, m)
        assert sched.num_cycles == _reference_schedule_theorem1(ft, m).num_cycles


class TestObsEvents:
    """Theorem 1 reports its level-by-level structure: one ``partition``
    trace event per LCA level and a ``theorem1.level_cycles`` counter."""

    def _run(self):
        n = 64
        ft = FatTree(n, ConstantCapacity(6, 2))
        m = uniform_random(n, 4 * n, seed=3)
        obs = Obs(enabled=True)
        return m, ft, schedule_theorem1(ft, m, obs=obs), obs

    def test_one_partition_event_per_level(self):
        m, ft, sched, obs = self._run()
        events = obs.tracer.select("partition")
        assert [e["level"] for e in events] == sorted(sched.per_level_cycles)
        nodes: dict[int, set[int]] = {}
        for key in group_indices(m.without_self_messages(), ft.depth):
            nodes.setdefault(level_of_flat(key >> 1), set()).add(key >> 1)
        for event in events:
            assert event["scheduler"] == "theorem1"
            assert event["cycles"] == sched.per_level_cycles[event["level"]]
            assert event["nodes"] == len(nodes[event["level"]])

    def test_level_cycles_counter_totals_num_cycles(self):
        _, _, sched, obs = self._run()
        per_level = {
            labels["level"]: value
            for kind, name, labels, value in obs.metrics.series()
            if kind == "counter" and name == "theorem1.level_cycles"
        }
        assert sum(per_level.values()) == sched.num_cycles
        assert per_level == sched.per_level_cycles


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), max_size=120),
    st.sampled_from([1, 2, 4]),
)
def test_schedule_property(pairs, cap_scale):
    """Any message set on any of several capacity profiles yields a valid
    schedule within the Theorem 1 bound."""
    n = 32
    caps = [max(1, (n >> k) * cap_scale // 4) for k in range(6)]
    ft = FatTree(n, ExplicitCapacity(caps))
    m = MessageSet.from_pairs(pairs, n)
    check(ft, m)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_permutations_property(seed):
    n = 64
    ft = FatTree(n, UniversalCapacity(n, 32))
    m = MessageSet.from_permutation(np.random.default_rng(seed).permutation(n))
    check(ft, m)
