"""The halving's round skip is sound: a piece is never split without
overloading a channel, and never closed while it still does.

``halve_until_fit`` counts a piece's channel loads only once the rounds
its last count promised have run out (``_overloaded`` returns that
promise, from the even-split bound), and skips levels no piece is large
enough to overload.  :func:`halve_counting_every_round` below counts
every open piece on every level in every round, and checks each
inherited promise against the fresh count.  On trees whose capacities
sit close to the loads, where the bound is nearly exact, both halvings
must give the same ``starts`` and ``order``, or both raise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConstantCapacity, FatTree, MessageSet
from repro.core.fattree import Direction
from repro.core.partition import (
    _overloaded,
    _run_ids,
    halve_until_fit,
    message_group_keys,
    run_starts,
    split_units,
)
from repro.faults import DegradedFatTree, FaultModel

SINGLE = "single message exceeds"


def halve_counting_every_round(ft, messages, keys, lca, order, starts, *, per_channel):
    """:func:`halve_until_fit` with no skip: every open piece is counted
    on every level each round.  Asserts that a piece whose parent's count
    promised more rounds does overload."""
    src, dst = messages.src, messages.dst
    m = order.size
    levels = list(range(1, ft.depth + 1))
    starts = np.asarray(starts, dtype=np.int64)
    promise = np.zeros(starts.size, dtype=np.int64)
    open_ = np.ones(starts.size, dtype=bool)
    while open_.any():
        act = np.flatnonzero(open_)
        lo = starts[act]
        sizes = np.append(starts, m)[act + 1] - lo
        piece = np.repeat(np.arange(act.size), sizes)
        pos = np.arange(piece.size) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
        elems = order[pos]
        rounds = _overloaded(
            ft, piece, act.size, src[elems], dst[elems], lca[elems], levels, per_channel
        )
        assert (rounds[promise[act] > 0] > 0).all(), "a promised overload fits"
        over = rounds > 0
        if (sizes[over] == 1).any():
            raise ValueError(SINGLE)
        open_[act[~over]] = False
        if not over.any():
            break
        sel = over[piece]
        pos, elems, piece = pos[sel], elems[sel], piece[sel]
        is_b = split_units(src[elems], dst[elems], _run_ids(piece, keys[elems]), ft.depth)
        order[pos] = elems[np.argsort((piece << 1) | ~is_b, kind="stable")]
        n_b = np.bincount(piece[is_b], minlength=act.size)[over]
        left = np.maximum(promise[act[over]], rounds[over]) - 1
        promise[act[over]] = left
        starts = np.concatenate((starts, starts[act[over]] + n_b))
        open_ = np.concatenate((open_, np.ones(n_b.size, dtype=bool)))
        promise = np.concatenate((promise, left))
        resort = np.argsort(starts, kind="stable")
        starts, open_, promise = starts[resort], open_[resort], promise[resort]
    return starts


def both_halvings(ft, messages, *, whole, per_channel):
    """Run both halvings on ``messages`` (all routable, no self-messages):
    one piece per group (Theorem 1) or one piece in all (Corollary 2)."""
    keys, lca = message_group_keys(messages, ft.depth)
    order = np.argsort(keys, kind="stable")
    starts = np.zeros(1, dtype=np.int64) if whole else run_starts(keys[order])
    results = []
    for halve in (halve_until_fit, halve_counting_every_round):
        got = order.copy()
        try:
            results.append((halve(ft, messages, keys, lca, got, starts,
                                  per_channel=per_channel), got))
        except ValueError as err:
            assert SINGLE in str(err)
            results.append(None)
    return results


def assert_same(results):
    fast, slow = results
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert fast[0].tolist() == slow[0].tolist()
        assert fast[1].tolist() == slow[1].tolist()


def uniform(n, count, seed):
    rng = np.random.default_rng(seed)
    return MessageSet(rng.integers(0, n, count), rng.integers(0, n, count), n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_corollary2_on_the_tightest_wide_tree(depth, per_leaf, seed):
    """``cap = lg n + 1``: the least capacity Corollary 2 admits."""
    n = 1 << depth
    ft = FatTree(n, ConstantCapacity(depth, depth + 1))
    m = uniform(n, per_leaf * n, seed).without_self_messages()
    assert_same(both_halvings(ft, m, whole=True, per_channel=False))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(1, 3),
    st.sampled_from([0.1, 0.3, 0.5]),
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
)
def test_theorem1_on_degraded_low_capacity_trees(depth, cap, fraction, per_leaf, seed):
    n = 1 << depth
    base = FatTree(n, ConstantCapacity(depth, cap))
    ft = DegradedFatTree(base, FaultModel(seed=seed).kill_random_wires(base, fraction))
    m = uniform(n, per_leaf * n, seed).without_self_messages()
    m = m.take(ft.routable_mask(m))
    assert_same(both_halvings(ft, m, whole=False, per_channel=True))


class _DeadLeafChannels(FatTree):
    """Some leaf up channels report capacity 0 while every message still
    counts as routable, so a one-message piece can overload."""

    def __init__(self, n, capacity, dead):
        super().__init__(n, capacity)
        self.dead = dead

    def cap_vector(self, level, direction):
        vec = super().cap_vector(level, direction)
        if level == self.depth and direction is Direction.UP:
            vec = vec.copy()
            vec[self.dead] = 0
        return vec


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 7),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 2**31 - 1),
)
def test_one_message_over_capacity_raises_in_both(depth, cap, per_leaf, seed):
    n = 1 << depth
    dead = np.random.default_rng(seed).choice(n, size=max(1, n // 8), replace=False)
    ft = _DeadLeafChannels(n, ConstantCapacity(depth, cap), dead)
    m = uniform(n, per_leaf * n, seed).without_self_messages()
    results = both_halvings(ft, m, whole=False, per_channel=True)
    assert_same(results)
    if np.isin(m.src, dead).any():
        assert results[0] is None


def test_corollary2_counts_loads_in_two_rounds(monkeypatch):
    """At n=1024 with 8n uniform messages, the first count promises 7
    rounds: only that count and the one that closes the final pieces
    are made, where counting every round makes 8."""
    import repro.core.partition as partition

    n = 1024
    ft = FatTree(n, ConstantCapacity(10, 20))
    m = uniform(n, 8 * n, 0).without_self_messages()
    counts = []

    def spy(*args):
        counts.append(_overloaded(*args))
        return counts[-1]

    monkeypatch.setattr(partition, "_overloaded", spy)
    fast, slow = both_halvings(ft, m, whole=True, per_channel=False)
    assert_same((fast, slow))
    assert [c.tolist() for c in counts[:1]] == [[7]]
    assert [c.size for c in counts] == [1, fast[0].size]
