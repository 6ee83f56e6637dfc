"""Tests for the random-rank on-line router (§VI / ref [8] direction)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstantCapacity,
    DeliveryTimeout,
    FatTree,
    MessageSet,
    UniversalCapacity,
    load_factor,
    online_cycle_bound,
    schedule_random_rank,
)
from repro.core.online import _reference_schedule_random_rank
from repro.core.radix import _radix_argsort
from repro.workloads import hotspot, random_permutation, uniform_random


class TestRandomRank:
    def test_valid_schedule(self):
        ft = FatTree(32, UniversalCapacity(32, 16, strict=False))
        m = uniform_random(32, 300, seed=0)
        sched = schedule_random_rank(ft, m, seed=1)
        sched.validate(ft, m)

    def test_empty(self):
        sched = schedule_random_rank(FatTree(8), MessageSet.empty(8))
        assert sched.num_cycles == 0

    def test_self_messages_skipped(self):
        ft = FatTree(8)
        sched = schedule_random_rank(ft, MessageSet([1, 2], [1, 3], 8))
        assert sched.n_self_messages == 1
        assert sched.num_cycles == 1

    def test_permutation_one_cycle_on_full_tree(self):
        ft = FatTree(64)
        m = random_permutation(64, seed=2)
        sched = schedule_random_rank(ft, m, seed=0)
        assert sched.num_cycles == 1  # λ <= 1: nobody can lose

    def test_deterministic_given_seed(self):
        ft = FatTree(16)
        m = uniform_random(16, 80, seed=3)
        a = schedule_random_rank(ft, m, seed=7)
        b = schedule_random_rank(ft, m, seed=7)
        assert [list(c) for c in a] == [list(c) for c in b]

    def test_progress_guard(self):
        ft = FatTree(8, ConstantCapacity(3, 1))
        m = MessageSet([0] * 20, [7] * 20, 8)
        sched = schedule_random_rank(ft, m)
        assert sched.num_cycles == 20  # serialised through the leaf wire

    def test_max_cycles(self):
        ft = FatTree(8, ConstantCapacity(3, 1))
        m = MessageSet([0] * 20, [7] * 20, 8)
        with pytest.raises(RuntimeError):
            schedule_random_rank(ft, m, max_cycles=3)

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            schedule_random_rank(FatTree(8), MessageSet([0], [1], 16))

    def test_within_announced_bound(self):
        """The [8] shape: cycles = O(λ + lg n·lg lg n), sampled over
        seeds and workloads."""
        for n, seed in [(64, 0), (128, 1), (256, 2)]:
            ft = FatTree(n, UniversalCapacity(n, math.ceil(n ** (2 / 3))))
            for m in (
                uniform_random(n, 4 * n, seed=seed),
                hotspot(n, 2 * n, seed=seed),
            ):
                lam = load_factor(ft, m)
                sched = schedule_random_rank(ft, m, seed=seed)
                sched.validate(ft, m)
                assert sched.num_cycles <= online_cycle_bound(ft, lam)

    def test_backoff_livelock_raises_before_burning_budget(self):
        """Regression: with loss_rate > 0 and a large max_backoff, every
        pending message can back off past the remaining max_cycles
        headroom.  That livelock must raise DeliveryTimeout immediately
        (with the backoff histogram) instead of appending empty cycles
        until the budget runs out."""
        ft = FatTree(8, ConstantCapacity(3, 1))
        m = MessageSet([0] * 2, [7] * 2, 8)
        for fn in (schedule_random_rank, _reference_schedule_random_rank):
            with pytest.raises(DeliveryTimeout) as exc:
                fn(ft, m, seed=1, loss_rate=0.97, max_backoff=4096, max_cycles=8)
            assert exc.value.cycles < 8  # raised early, not at the budget
            assert sum(exc.value.attempts.values()) == len(exc.value.undelivered)
            assert max(exc.value.attempts) >= 1  # histogram is populated

    def test_lossy_budget_exhaustion_carries_histogram(self):
        """The plain budget-exhaustion branch also reports the backoff
        (attempt-count) histogram."""
        ft = FatTree(8, ConstantCapacity(3, 1))
        m = MessageSet([0] * 12, [7] * 12, 8)
        with pytest.raises(DeliveryTimeout) as exc:
            schedule_random_rank(
                ft, m, seed=0, loss_rate=0.95, max_backoff=4096, max_cycles=12
            )
        assert exc.value.cycles == 12
        assert sum(exc.value.attempts.values()) == len(exc.value.undelivered)

    def test_no_progress_raises_delivery_timeout(self):
        """Regression: a cycle that cannot make progress (possible only on
        a pathological tree whose capacities are all zero while its
        routable mask claims otherwise) must raise DeliveryTimeout with
        the attempt histogram — it used to trip a bare AssertionError."""

        class LyingTree(FatTree):
            def chan_cap(self, level, index, direction):
                return 0

        ft = LyingTree(8, ConstantCapacity(3, 1))
        with pytest.raises(DeliveryTimeout) as exc:
            _reference_schedule_random_rank(ft, MessageSet([0], [7], 8))
        assert exc.value.attempts == {1: 1}

    def test_beats_nothing_below_lower_bound(self):
        ft = FatTree(32, UniversalCapacity(32, 16, strict=False))
        m = uniform_random(32, 400, seed=5)
        lam = load_factor(ft, m)
        sched = schedule_random_rank(ft, m, seed=5)
        assert sched.num_cycles >= math.ceil(lam)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), max_size=80),
    st.integers(0, 1000),
)
def test_random_rank_property(pairs, seed):
    ft = FatTree(32, UniversalCapacity(32, 16, strict=False))
    m = MessageSet.from_pairs(pairs, 32)
    sched = schedule_random_rank(ft, m, seed=seed)
    sched.validate(ft, m)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 7, 1 << 16, (1 << 16) + 1, 70_000, 1 << 33]),
    st.integers(0, 300),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_radix_argsort_is_the_stable_argsort(bound, size, all_equal, seed):
    """The grant's gid sort equals ``np.argsort(kind="stable")`` below
    and above 2^16, on empty and all-equal keys too."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, bound, size=size, dtype=np.int64)
    if all_equal and size:
        keys[:] = keys[0]
    got = _radix_argsort(keys, bound)
    assert got.tolist() == np.argsort(keys, kind="stable").tolist()
