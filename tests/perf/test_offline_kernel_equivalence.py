"""Property tests: the batched even-split kernel behind the paper's
off-line schedulers is bit-identical to the retained ``_reference_*``
oracles.

Theorem 1 and Corollary 2 halve every overloaded piece of every group in
one batched pass per round; the oracles halve one group (or one whole
set) at a time, depth first.  Both must produce the same cycles, the
same message order inside every cycle and the same ``per_level_cycles``.
The CI smoke job fails if these tests are skipped.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstantCapacity,
    FatTree,
    MessageSet,
    UniversalCapacity,
    schedule_corollary2,
    schedule_theorem1,
)
from repro.core.partition import (
    _reference_even_split_all,
    _reference_even_split_indices,
    even_split_all,
    even_split_indices,
    group_indices,
)
from repro.core.reuse_scheduler import (
    _reference_schedule_corollary2,
    capacity_ratio,
)
from repro.core.scheduler import (
    _reference_partition_group,
    _reference_schedule_theorem1,
    partition_group,
)
from repro.faults import DegradedFatTree, FaultModel
from repro.workloads import random_permutation, uniform_random
from repro.workloads.locality import local_traffic

KINDS = ["empty", "all-self", "permutation", "local", "uniform"]


def make_messages(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "empty":
        return MessageSet.empty(n)
    if kind == "all-self":
        procs = rng.integers(0, n, n)
        return MessageSet(procs, procs, n)
    if kind == "permutation":
        return random_permutation(n, seed=seed)
    if kind == "local":
        return local_traffic(n, 2 * n, seed=seed)
    return uniform_random(n, int(rng.integers(1, 5)) * n, seed=seed)


def assert_message_sets_identical(a, b):
    assert a.n == b.n
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)


def assert_schedules_identical(new, ref):
    assert new.n_self_messages == ref.n_self_messages
    assert new.num_cycles == ref.num_cycles
    for got, want in zip(new.cycles, ref.cycles):
        assert_message_sets_identical(got, want)
    assert new.per_level_cycles == ref.per_level_cycles


trees = st.integers(1, 10)  # depth: n = 2 ... 1024
kinds = st.sampled_from(KINDS)
seeds = st.integers(0, 2**31 - 1)


@settings(max_examples=60, deadline=None)
@given(trees, kinds, seeds, st.floats(0.0, 1.0))
def test_theorem1_matches_reference(depth, kind, seed, width):
    n = 1 << depth
    w = max(1, int(width * n))
    ft = FatTree(n, UniversalCapacity(n, w, strict=False))
    m = make_messages(kind, n, seed)
    assert_schedules_identical(
        schedule_theorem1(ft, m), _reference_schedule_theorem1(ft, m)
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), kinds, seeds, st.sampled_from([0.1, 0.25, 0.5]))
def test_theorem1_matches_reference_on_degraded_tree(depth, kind, seed, fraction):
    n = 1 << depth
    base = FatTree(n, ConstantCapacity(depth, 3))
    ft = DegradedFatTree(base, FaultModel(seed=seed).kill_random_wires(base, fraction))
    m = make_messages(kind, n, seed)
    m = m.take(ft.routable_mask(m))
    assert_schedules_identical(
        schedule_theorem1(ft, m), _reference_schedule_theorem1(ft, m)
    )


@settings(max_examples=40, deadline=None)
@given(trees, kinds, seeds, st.sampled_from([1.5, 2.0, 3.0]))
def test_corollary2_matches_reference(depth, kind, seed, a):
    n = 1 << depth
    cap = max(depth + 1, int(a * depth))
    ft = FatTree(n, ConstantCapacity(depth, cap))
    m = make_messages(kind, n, seed)
    assert_schedules_identical(
        schedule_corollary2(ft, m), _reference_schedule_corollary2(ft, m)
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 7), kinds, seeds)
def test_corollary2_matches_reference_on_degraded_tree(depth, kind, seed):
    n = 1 << depth
    base = FatTree(n, ConstantCapacity(depth, 3 * depth))
    ft = DegradedFatTree(base, FaultModel(seed=seed).kill_random_wires(base, 0.2))
    assume(capacity_ratio(ft) > 1)  # Corollary 2's hypothesis
    m = make_messages(kind, n, seed)
    m = m.take(ft.routable_mask(m))
    assert_schedules_identical(
        schedule_corollary2(ft, m), _reference_schedule_corollary2(ft, m)
    )


@settings(max_examples=60, deadline=None)
@given(trees, kinds, seeds)
def test_even_splits_match_reference(depth, kind, seed):
    """Element by element: both halves of every group, and both halves
    of the whole-set split."""
    n = 1 << depth
    ft = FatTree(n)
    m = make_messages(kind, n, seed)
    for idx in group_indices(m, depth).values():
        got = even_split_indices(m, idx, depth)
        want = _reference_even_split_indices(m, idx, depth)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
    for got, want in zip(even_split_all(ft, m), _reference_even_split_all(ft, m)):
        assert_message_sets_identical(got, want)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), kinds, seeds, st.integers(1, 4))
def test_partition_group_matches_reference(depth, kind, seed, cap):
    n = 1 << depth
    ft = FatTree(n, ConstantCapacity(depth, cap))
    m = make_messages(kind, n, seed)
    for idx in group_indices(m, depth).values():
        got = partition_group(ft, m, idx)
        want = _reference_partition_group(ft, m, idx)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
