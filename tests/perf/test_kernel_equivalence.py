"""Property tests: the vectorised kernels are seed-for-seed identical to
the retained pure-Python ``_reference_*`` oracles.

These are the equality guarantees the perf layer rests on — every cycle
count published by the benches is unchanged by vectorisation.  The CI
smoke job fails if these tests are skipped.
"""

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
    schedule_greedy_first_fit,
    schedule_random_rank,
    simulate_online_retry,
)
from repro.chaos import ChaosController, random_timeline, run_chaos
from repro.core.delivery import Attempt, DeliveryLoop
from repro.core.greedy import _reference_schedule_greedy_first_fit
from repro.core.online import _reference_schedule_random_rank
from repro.core.schedule import Schedule
from repro.faults import DegradedFatTree, FaultModel
from repro.obs import resolve_obs
from repro.perf import get_path_index
from repro.workloads import random_permutation, uniform_random


def _cycles(schedule):
    return [sorted(c) for c in schedule.cycles]


def assert_schedules_identical(a, b):
    assert a.n_self_messages == b.n_self_messages
    assert _cycles(a) == _cycles(b)  # same messages in the same cycles


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), max_size=80),
    st.integers(0, 1000),
)
def test_random_rank_matches_reference(pairs, seed):
    ft = FatTree(32, UniversalCapacity(32, 16, strict=False))
    m = MessageSet.from_pairs(pairs, 32)
    assert_schedules_identical(
        schedule_random_rank(ft, m, seed=seed),
        _reference_schedule_random_rank(ft, m, seed=seed),
    )


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60),
    st.integers(0, 500),
    st.floats(0.05, 0.6),
)
def test_random_rank_matches_reference_lossy(pairs, seed, loss_rate):
    """The lossy path exercises the corruption draw and the per-message
    exponential-backoff draws, which must consume the RNG identically."""
    ft = FatTree(16, ConstantCapacity(4, 2))
    m = MessageSet.from_pairs(pairs, 16)
    assert_schedules_identical(
        schedule_random_rank(ft, m, seed=seed, loss_rate=loss_rate),
        _reference_schedule_random_rank(ft, m, seed=seed, loss_rate=loss_rate),
    )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), max_size=80),
    st.sampled_from(["given", "random", "longest-first"]),
)
def test_greedy_first_fit_matches_reference(pairs, order):
    ft = FatTree(32, UniversalCapacity(32, 8, strict=False))
    m = MessageSet.from_pairs(pairs, 32)
    assert_schedules_identical(
        schedule_greedy_first_fit(ft, m, order=order),
        _reference_schedule_greedy_first_fit(ft, m, order=order),
    )


class TestAtScale:
    def test_random_rank_permutation_n1024(self):
        """The acceptance configuration: n=1024, random permutation, seed 0."""
        ft = FatTree(1024)
        m = random_permutation(1024, seed=0)
        fast = schedule_random_rank(ft, m, seed=0)
        slow = _reference_schedule_random_rank(ft, m, seed=0)
        assert_schedules_identical(fast, slow)
        fast.validate(ft, m)

    def test_random_rank_contended(self):
        n = 256
        ft = FatTree(n, UniversalCapacity(n, 40, strict=False))
        m = uniform_random(n, 6 * n, seed=4)
        assert_schedules_identical(
            schedule_random_rank(ft, m, seed=4),
            _reference_schedule_random_rank(ft, m, seed=4),
        )

    def test_greedy_contended(self):
        n = 128
        ft = FatTree(n, UniversalCapacity(n, 26, strict=False))
        m = uniform_random(n, 4 * n, seed=9)
        assert_schedules_identical(
            schedule_greedy_first_fit(ft, m),
            _reference_schedule_greedy_first_fit(ft, m),
        )


class TestDegraded:
    def _tree(self):
        base = FatTree(32, ConstantCapacity(5, 3))
        faults = (
            FaultModel(seed=2)
            .kill_wires(1, 0, 2, direction="up")
            .kill_wires(2, 3, 1)
            .kill_switch(3, 5)
        )
        return DegradedFatTree(base, faults)

    def test_random_rank_matches_on_degraded_tree(self):
        ft = self._tree()
        m = uniform_random(32, 150, seed=6)
        routable = m.take(ft.routable_mask(m))
        assert_schedules_identical(
            schedule_random_rank(ft, routable, seed=6),
            _reference_schedule_random_rank(ft, routable, seed=6),
        )

    def test_greedy_matches_on_degraded_tree(self):
        ft = self._tree()
        m = uniform_random(32, 150, seed=8)
        routable = m.take(ft.routable_mask(m))
        assert_schedules_identical(
            schedule_greedy_first_fit(ft, routable),
            _reference_schedule_greedy_first_fit(ft, routable),
        )


class TestTimeoutParity:
    def test_both_raise_delivery_timeout_at_budget(self):
        ft = FatTree(8, ConstantCapacity(3, 1))
        m = MessageSet([0] * 20, [7] * 20, 8)
        for fn in (schedule_random_rank, _reference_schedule_random_rank):
            with pytest.raises(DeliveryTimeout) as exc:
                fn(ft, m, max_cycles=3)
            assert exc.value.cycles == 3
            assert len(exc.value.undelivered) == 17  # 3 delivered, 17 left


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60))
def test_online_retry_still_valid_on_shared_index(pairs):
    """simulate_online_retry moved onto the PathIndex; its schedules stay
    valid and deterministic."""
    ft = FatTree(16, ConstantCapacity(4, 2))
    m = MessageSet.from_pairs(pairs, 16)
    a = simulate_online_retry(ft, m, seed=1)
    b = simulate_online_retry(ft, m, seed=1)
    a.validate(ft, m)
    assert _cycles(a) == _cycles(b)


# -- online retry --------------------------------------------------------------


class _ReferenceOnlineRetry(DeliveryLoop):
    """The online-retry attempt step as numpy fancy indexing: per shuffled
    row, ``(residual[path] > 0).all()`` and ``residual[path] -= 1``.

    Kept as the equality oracle for ``repro.core.greedy._OnlineRetry``,
    whose scan walks Python int lists instead; the carried-over order
    and its shuffle are the same.
    """

    def __init__(self, ft, routable, index, *, rng, **loop_args):
        super().__init__(ft, routable, index, **loop_args)
        self.rng = rng
        self.order = list(range(len(routable)))

    def chaos_step(self, t):
        drops, park = super().chaos_step(t)
        if drops or park:
            moved = set(drops) | set(park)
            self.order = [i for i in self.order if i not in moved]
        return drops, park

    def attempt(self, rows, t):
        order = self.order
        if len(order) < rows.size:
            queued = set(order)
            order = order + [i for i in rows.tolist() if i not in queued]
        self.rng.shuffle(order)
        paths = self.index.paths
        residual = self.index.caps.copy()
        delivered, still = [], []
        for i in order:
            path = paths[i]
            if (residual[path] > 0).all():
                residual[path] -= 1
                delivered.append(i)
            else:
                still.append(i)
        self.order = still
        return Attempt(
            rows,
            np.array(sorted(delivered), dtype=np.int64),
            np.asarray(still, dtype=np.int64),
        )


def _reference_online_retry(ft, messages, *, seed, max_cycles, chaos=None):
    """``simulate_online_retry`` driven by :class:`_ReferenceOnlineRetry`;
    with ``chaos`` it runs on the controller's tree, as ``run_chaos`` does."""
    if chaos is not None:
        ft = chaos.tree
    routable = messages.without_self_messages()
    loop = _ReferenceOnlineRetry(
        ft,
        routable,
        get_path_index(ft, routable),
        rng=np.random.default_rng(seed),
        scheduler="online_retry",
        max_cycles=max_cycles,
        obs=resolve_obs(None),
        chaos=chaos,
    )
    loop.run()
    cycles = [routable.take(rows) for rows in loop.delivered_log]
    if chaos is None:
        return Schedule(cycles=cycles, n_self_messages=len(messages) - len(routable))
    return Schedule(
        cycles=cycles,
        n_self_messages=len(messages) - len(routable),
        cycle_stats=list(chaos.cycle_stats),
        dropped=chaos.dropped_messages(routable),
    )


def _outcome(run):
    """A run's schedule fields, or its ``DeliveryTimeout`` fields."""
    try:
        s = run()
    except DeliveryTimeout as exc:
        return ("timeout", exc.undelivered, exc.cycles, dict(exc.attempts))
    return (
        "done",
        [c.as_pairs() for c in s.cycles],
        s.n_self_messages,
        s.cycle_stats,
        None if s.dropped is None else s.dropped.as_pairs(),
    )


def _retry_tree(n, kind, seed):
    depth = n.bit_length() - 1
    if kind == "default":
        return FatTree(n)
    if kind.startswith("constant"):
        return FatTree(n, ConstantCapacity(depth, int(kind[-1])))
    base = FatTree(n, ConstantCapacity(depth, 2))
    return DegradedFatTree(base, FaultModel(seed=seed).kill_random_wires(base, 0.2))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([8, 16, 64]),
    st.sampled_from(["default", "constant-1", "constant-2", "constant-3", "degraded"]),
    st.integers(0, 10_000),
    st.integers(0, 5),
    st.sampled_from([4, 12, 100_000]),
    st.sampled_from(["drop", "raise"]),
)
def test_online_retry_matches_reference(n, kind, seed, load, max_cycles, on_severed):
    """The int-list scan delivers, times out and drops exactly as the
    numpy attempt step does, healthy and under a kill-bearing timeline."""
    ft = _retry_tree(n, kind, seed)
    messages = uniform_random(n, load * n + seed % n, seed=seed)
    timeline = random_timeline(ft, seed=seed, events=8)
    chaos = _outcome(
        lambda: run_chaos(
            "online-retry", ft, messages, timeline,
            on_severed=on_severed, seed=seed, max_cycles=max_cycles,
        )
    )
    ref_chaos = _outcome(
        lambda: _reference_online_retry(
            ft, messages, seed=seed, max_cycles=max_cycles,
            chaos=ChaosController(ft, timeline, on_severed=on_severed),
        )
    )
    assert chaos == ref_chaos
    routable = messages.take(ft.routable_mask(messages))
    healthy = _outcome(
        lambda: simulate_online_retry(ft, routable, seed=seed, max_cycles=max_cycles)
    )
    assert healthy == _outcome(
        lambda: _reference_online_retry(ft, routable, seed=seed, max_cycles=max_cycles)
    )
