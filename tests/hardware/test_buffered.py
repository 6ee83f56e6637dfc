"""Tests for the buffered store-and-forward fat-tree."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosController, random_timeline
from repro.core import (
    ConstantCapacity,
    DeliveryTimeout,
    FatTree,
    MessageSet,
    UniversalCapacity,
    load_factor,
)
from repro.core.delivery import NO_ROWS, Attempt, DeliveryLoop
from repro.hardware import run_store_and_forward
from repro.hardware.buffered import BufferedRun
from repro.obs import Obs
from repro.perf import PAD_GID, get_path_index
from repro.workloads import random_permutation, uniform_random


class TestBasics:
    def test_empty(self):
        run = run_store_and_forward(FatTree(8), MessageSet.empty(8))
        assert run.makespan == 0
        assert run.mean_latency == 0.0

    def test_self_messages_free(self):
        run = run_store_and_forward(FatTree(8), MessageSet([3], [3], 8))
        assert run.makespan == 0

    def test_single_message_latency_is_path_length(self):
        ft = FatTree(16)
        run = run_store_and_forward(ft, MessageSet([0], [15], 16))
        assert run.makespan == 2 * 4  # one hop per channel
        assert run.max_latency == 8

    def test_sibling_message(self):
        ft = FatTree(16)
        run = run_store_and_forward(ft, MessageSet([0], [1], 16))
        assert run.makespan == 2

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            run_store_and_forward(FatTree(8), MessageSet([0], [1], 16))

    def test_step_guard(self):
        ft = FatTree(8, ConstantCapacity(3, 1))
        m = MessageSet([0] * 50, [7] * 50, 8)
        with pytest.raises(RuntimeError):
            run_store_and_forward(ft, m, max_steps=5)


class TestContention:
    def test_serialisation_on_unit_channel(self):
        """k messages over one unit channel take k + path − 1 steps
        (pipelined behind each other)."""
        ft = FatTree(8, ConstantCapacity(3, 1))
        k = 6
        m = MessageSet([0] * k, [1] * k, 8)  # single shared 2-hop path
        run = run_store_and_forward(ft, m)
        assert run.makespan == k + 2 - 1

    def test_makespan_lower_bounds(self):
        ft = FatTree(32, UniversalCapacity(32, 8, strict=False))
        m = uniform_random(32, 300, seed=0)
        run = run_store_and_forward(ft, m)
        lam = load_factor(ft, m)
        assert run.makespan >= math.ceil(lam)
        assert run.makespan >= max(
            2 * ((s ^ d).bit_length()) for s, d in m if s != d
        )

    def test_greedy_is_near_optimal_on_trees(self):
        """Oldest-first store-and-forward on a tree stays within
        congestion + dilation (the classic O(c + d) shape)."""
        for seed in range(5):
            ft = FatTree(64, UniversalCapacity(64, 16))
            m = uniform_random(64, 400, seed=seed)
            run = run_store_and_forward(ft, m)
            lam = load_factor(ft, m)
            # greedy FIFO on a tree: congestion + dilation, with a small
            # constant for the per-queue (not globally oldest) service
            assert run.makespan <= 1.5 * math.ceil(lam) + 2 * ft.depth

    def test_queue_depth_bounded_by_channel_load(self):
        ft = FatTree(16)
        m = MessageSet(list(range(1, 16)), [0] * 15, 16)  # hotspot
        run = run_store_and_forward(ft, m)
        assert run.max_queue_depth <= 15

    def test_wide_channels_cut_makespan(self):
        m = uniform_random(64, 500, seed=1)
        narrow = run_store_and_forward(
            FatTree(64, UniversalCapacity(64, 16)), m
        )
        wide = run_store_and_forward(FatTree(64), m)
        assert wide.makespan <= narrow.makespan

    def test_latencies_recorded_for_all(self):
        ft = FatTree(32)
        m = random_permutation(32, seed=2)
        routable = m.without_self_messages()  # permutations may fix points
        run = run_store_and_forward(ft, m)
        assert run.latencies.shape == (len(routable),)
        assert (run.latencies >= 2).all()
        assert run.max_latency == run.latencies.max()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), max_size=80))
def test_buffered_always_delivers_property(pairs):
    """Every message set is eventually delivered, within the congestion
    + dilation envelope."""
    ft = FatTree(32, UniversalCapacity(32, 8, strict=False))
    m = MessageSet.from_pairs(pairs, 32)
    run = run_store_and_forward(ft, m)
    routable = m.without_self_messages()
    if len(routable) == 0:
        assert run.makespan == 0
        return
    lam = load_factor(ft, m)
    assert run.makespan <= 1.5 * math.ceil(lam) + 2 * ft.depth


# -- the dict-of-deques loop, as the oracle for run_store_and_forward --------


class _ReferenceStoreAndForward(DeliveryLoop):
    """Per-channel FIFO deques in a dict keyed by gid (first-use order);
    each step walks the dict and pops up to ``cap(c)`` per queue."""

    event = "step"
    store_and_forward = True

    def __init__(self, ft, routable, index, **loop_args):
        super().__init__(ft, routable, index, **loop_args)
        self.paths = [[int(g) for g in row if g != PAD_GID] for row in index.paths]
        self.progress = [0] * len(self.paths)
        self.queues: dict[int, deque] = {}
        for i, hops in enumerate(self.paths):
            self.queues.setdefault(hops[0], deque()).append(i)
        self.latencies = np.zeros(len(self.paths), dtype=np.int64)
        self.max_depth = max(len(q) for q in self.queues.values())

    def gids_of(self, i):
        return self.paths[i][self.progress[i] :]

    def chaos_step(self, t):
        drops, park = super().chaos_step(t)
        for i in drops:
            self.queues[self.paths[i][self.progress[i]]].remove(i)
        return drops, park

    def attempt(self, rows, t):
        caps = self.index.caps
        moves: list[int] = []
        for gid, queue in self.queues.items():
            for _ in range(min(int(caps[gid]), len(queue))):
                moves.append(queue.popleft())
        arrived: list[int] = []
        for i in moves:
            self.progress[i] += 1
            if self.progress[i] == len(self.paths[i]):
                self.latencies[i] = t + 1
                arrived.append(i)
            else:
                self.queues.setdefault(self.paths[i][self.progress[i]], deque()).append(i)
        depth = max((len(q) for q in self.queues.values()), default=0)
        self.max_depth = max(self.max_depth, depth)
        if self.obs.enabled:
            self.obs.metrics.observe(
                "queue.depth", depth, simulator="store_and_forward"
            )
        return Attempt(
            np.asarray(moves, dtype=np.int64),
            np.asarray(arrived, dtype=np.int64),
            NO_ROWS,
            trace={"moves": len(moves), "queue_depth": depth},
        )


def _reference_store_and_forward(ft, messages, *, max_steps=1_000_000, obs, chaos=None):
    routable = messages.without_self_messages()
    index = get_path_index(ft, routable, obs=obs)
    if len(routable) == 0:
        return BufferedRun(0, np.empty(0, dtype=np.int64), 0)
    loop = _ReferenceStoreAndForward(
        ft, routable, index, scheduler="store_and_forward",
        max_cycles=max_steps, obs=obs, chaos=chaos,
    )
    makespan = loop.run()
    run = BufferedRun(makespan, loop.latencies, loop.max_depth)
    if chaos is not None:
        run.dropped = chaos.dropped_pairs(routable)
        run.cycle_stats = list(chaos.cycle_stats)
    return run


def _buffered_case(k):
    """Case ``k`` of the oracle grid: tree, traffic, timeline, mode."""
    rng = np.random.default_rng([7, k])
    n = (8, 16, 64)[k % 3]
    depth = n.bit_length() - 1
    width = int(rng.integers(0, 4))
    ft = FatTree(n) if width == 0 else FatTree(n, ConstantCapacity(depth, width))
    m = int(rng.integers(1, 8 * n + 1))
    messages = MessageSet(rng.integers(0, n, m), rng.integers(0, n, m), n)
    timeline = None
    if k % 4:
        timeline = random_timeline(
            ft, seed=int(rng.integers(2**31)), events=int(rng.integers(1, 9))
        )
    mode = ("drop", "raise")[int(rng.integers(0, 2))]
    return ft, messages, timeline, mode


def _run_observed(runner, ft, messages, timeline, mode, **kwargs):
    """One run with a fresh enabled Obs (and controller); returns the
    run or its DeliveryTimeout, the step events and the depth histogram."""
    obs = Obs(enabled=True)
    chaos = None
    if timeline is not None:
        chaos = ChaosController(ft, timeline, on_severed=mode, obs=obs)
        ft = chaos.tree
    try:
        out = runner(ft, messages, obs=obs, chaos=chaos, **kwargs)
    except DeliveryTimeout as exc:
        out = ("timeout", exc.undelivered, exc.cycles, dict(exc.attempts))
    steps = [{k: v for k, v in e.items() if k != "seq"} for e in obs.tracer.select("step")]
    depth = obs.metrics.histogram("queue.depth", simulator="store_and_forward")
    return out, steps, None if depth is None else depth.as_dict()


@pytest.mark.parametrize("k", range(60))
def test_matches_the_deque_loop(k):
    """Latencies, makespan, depth, drops, cycle stats, timeouts and the
    per-step trace fields equal the dict-of-deques loop's."""
    ft, messages, timeline, mode = _buffered_case(k)
    got, got_steps, got_depth = _run_observed(
        run_store_and_forward, ft, messages, timeline, mode
    )
    want, want_steps, want_depth = _run_observed(
        _reference_store_and_forward, ft, messages, timeline, mode
    )
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.makespan == want.makespan
        assert got.latencies.tolist() == want.latencies.tolist()
        assert got.max_queue_depth == want.max_queue_depth
        assert got.dropped == want.dropped
        assert got.cycle_stats == want.cycle_stats
    assert got_steps == want_steps
    assert got_depth == want_depth


def test_step_budget_matches_the_deque_loop():
    ft = FatTree(16, ConstantCapacity(4, 1))
    messages = uniform_random(16, 100, seed=3)
    got = _run_observed(run_store_and_forward, ft, messages, None, "drop", max_steps=9)
    want = _run_observed(
        _reference_store_and_forward, ft, messages, None, "drop", max_steps=9
    )
    assert got[0][0] == "timeout"
    assert got == want
