"""Tests for the shared path index (repro.perf.pathindex)."""

import numpy as np
import pytest

from repro.core import (
    Channel,
    ConstantCapacity,
    Direction,
    FatTree,
    MessageSet,
    UniversalCapacity,
    channel_loads,
)
from repro.faults import DegradedFatTree, FaultModel
from repro.perf import (
    PAD_GID,
    PathIndex,
    clear_path_index_cache,
    get_path_index,
    pack_gid,
    unpack_gid,
)
from repro.workloads import uniform_random


class TestGidPacking:
    def test_roundtrip_all_channels(self):
        ft = FatTree(32)
        for ch in ft.channels(include_external=True):
            d = 0 if ch.direction is Direction.UP else 1
            gid = pack_gid(ch.level, ch.index, d)
            assert unpack_gid(gid) == (ch.level, ch.index, d)

    def test_gids_are_unique(self):
        ft = FatTree(16)
        gids = [
            pack_gid(ch.level, ch.index, 0 if ch.direction is Direction.UP else 1)
            for ch in ft.channels(include_external=True)
        ]
        assert len(set(gids)) == len(gids)

    def test_pad_gid_is_external(self):
        # gid 0 is the level-0 external up channel, never used internally
        assert unpack_gid(PAD_GID) == (0, 0, 0)

    def test_pack_vectorises(self):
        levels = np.array([1, 2, 3])
        idx = np.array([1, 3, 7])
        packed = pack_gid(levels, idx, 1)
        assert [unpack_gid(int(g)) for g in packed] == [
            (1, 1, 1),
            (2, 3, 1),
            (3, 7, 1),
        ]


class TestPathIndex:
    def test_paths_match_path_channels(self):
        ft = FatTree(64)
        m = uniform_random(64, 200, seed=0)
        index = PathIndex(ft, m)
        hops = index.hop_matrix()
        for i, (s, d) in enumerate(m):
            expected = [
                pack_gid(
                    ch.level, ch.index, 0 if ch.direction is Direction.UP else 1
                )
                for ch in ft.path_channels(s, d)
            ]
            length = ft.path_length(s, d)
            # same channels, same order, then only padding
            assert hops[i, :length].tolist() == expected
            assert (hops[i, length:] == PAD_GID).all()
            assert int(index.path_len[i]) == length

    def test_row_is_padded_to_twice_depth(self):
        ft = FatTree(16)
        m = MessageSet([0, 5], [1, 5], 16)
        index = PathIndex(ft, m)
        assert index.paths.shape == (2, 2 * ft.depth)
        # self-message row is all padding
        assert (index.paths[1] == PAD_GID).all()
        assert int(index.path_len[1]) == 0

    def test_caps_match_chan_cap(self):
        ft = FatTree(32, UniversalCapacity(32, 16, strict=False))
        index = PathIndex(ft, MessageSet.empty(32))
        for ch in ft.channels():
            d = 0 if ch.direction is Direction.UP else 1
            assert int(index.caps[pack_gid(ch.level, ch.index, d)]) == ft.chan_cap(
                ch.level, ch.index, ch.direction
            )

    def test_degraded_caps_and_routability(self):
        base = FatTree(16, ConstantCapacity(4, 2))
        faults = FaultModel().kill_wires(1, 0, 2, direction="up")
        ft = DegradedFatTree(base, faults)
        m = uniform_random(16, 120, seed=3)
        index = PathIndex(ft, m)
        assert int(index.caps[pack_gid(1, 0, 0)]) == 0
        assert np.array_equal(index.routable_mask(), ft.routable_mask(m))
        assert not index.routable_mask().all()  # the fault severs something

    def test_load_vector_matches_channel_loads(self):
        ft = FatTree(32)
        m = uniform_random(32, 250, seed=1)
        index = PathIndex(ft, m)
        vec = index.load_vector()
        loads = channel_loads(ft, m)
        for k in range(1, ft.depth + 1):
            for x in range(1 << k):
                assert vec[pack_gid(k, x, 0)] == loads.load(
                    Channel(k, x, Direction.UP)
                )
                assert vec[pack_gid(k, x, 1)] == loads.load(
                    Channel(k, x, Direction.DOWN)
                )

    def test_level_loads_matches_load_vector(self):
        ft = FatTree(32)
        m = uniform_random(32, 150, seed=2)
        index = PathIndex(ft, m)
        vec = index.load_vector()
        loads = index.level_loads()
        assert loads.shape == (ft.depth + 1, 2)
        assert loads[0, 0] == loads[0, 1] == 0
        for k in range(1, ft.depth + 1):
            up = sum(vec[pack_gid(k, x, 0)] for x in range(1 << k))
            down = sum(vec[pack_gid(k, x, 1)] for x in range(1 << k))
            assert (loads[k, 0], loads[k, 1]) == (up, down)

    def test_level_loads_subset(self):
        ft = FatTree(32)
        m = uniform_random(32, 150, seed=2)
        index = PathIndex(ft, m)
        idx = np.arange(10)
        sub = index.level_loads(idx)
        # each crossing message contributes one up and one down hop per level
        crossing = index.path_len[idx] // 2
        assert sub[1:, 0].sum() == sub[1:, 1].sum()
        assert sub[1:, 0].sum() == sum(
            1
            for i in idx
            for g in index.paths[int(i)]
            if g != PAD_GID and g % 2 == 0
        )
        assert int(crossing.sum()) >= int(sub[ft.depth, 0])

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            PathIndex(FatTree(8), MessageSet([0], [1], 16))

    def test_depth_zero_tree(self):
        ft = FatTree(1)
        index = PathIndex(ft, MessageSet([0], [0], 1))
        assert (index.hop_matrix() == PAD_GID).all()
        assert index.routable_mask().all()


class TestCache:
    def test_same_content_hits_cache(self):
        ft = FatTree(16)
        a = get_path_index(ft, MessageSet([0, 1], [3, 2], 16))
        b = get_path_index(ft, MessageSet([0, 1], [3, 2], 16))
        assert a is b  # digest-keyed: equal content, same index object

    def test_different_messages_miss(self):
        ft = FatTree(16)
        a = get_path_index(ft, MessageSet([0], [3], 16))
        b = get_path_index(ft, MessageSet([0], [2], 16))
        assert a is not b

    def test_per_tree_isolation(self):
        m = MessageSet([0, 2], [1, 3], 16)
        a = get_path_index(FatTree(16), m)
        b = get_path_index(FatTree(16, ConstantCapacity(4, 1)), m)
        assert a is not b
        assert int(a.caps.max()) != int(b.caps.max()) or not np.array_equal(
            a.caps, b.caps
        )

    def test_clear(self):
        ft = FatTree(16)
        m = MessageSet([0], [5], 16)
        a = get_path_index(ft, m)
        clear_path_index_cache(ft)
        assert get_path_index(ft, m) is not a
        clear_path_index_cache(ft)  # idempotent on an empty cache

    def test_apply_faults_invalidates_cached_paths(self):
        """Regression: route, degrade the same tree object, re-route.
        The second routing must see the degraded capacities, not the
        cached pristine index."""
        base = FatTree(16, ConstantCapacity(4, 2))
        dft = DegradedFatTree(base, FaultModel())
        m = uniform_random(16, 120, seed=3)
        before = get_path_index(dft, m)
        assert before.routable_mask().all()

        dft.apply_faults(FaultModel().kill_switch(1, 0))
        after = get_path_index(dft, m)
        assert after is not before
        assert int(after.caps[pack_gid(1, 0, 0)]) == 0
        assert np.array_equal(after.routable_mask(), dft.routable_mask(m))
        assert not after.routable_mask().all()  # crossing traffic is severed

    def test_capacity_fingerprint_guards_silent_mutation(self):
        """Even a capacity change that forgets to invalidate the cache
        (the original staleness bug) misses: the cache key folds in a
        fingerprint of the tree's effective capacity vectors."""
        base = FatTree(16, ConstantCapacity(4, 2))
        dft = DegradedFatTree(base, FaultModel())
        m = uniform_random(16, 120, seed=3)
        before = get_path_index(dft, m)
        # mutate capacities behind the cache's back — no invalidation
        dft._effective = dft._build_effective(FaultModel().kill_switch(1, 0))
        after = get_path_index(dft, m)
        assert after is not before
        assert int(after.caps[pack_gid(1, 0, 0)]) == 0

    def test_invalidate_channels_matches_rebuild(self):
        """The incremental-reroute primitive: patching the named gids
        must equal a from-scratch rebuild while sharing the path matrix
        (topology never changes under capacity mutation)."""
        base = FatTree(16, ConstantCapacity(4, 2))
        dft = DegradedFatTree(base, FaultModel())
        m = uniform_random(16, 120, seed=5)
        index = PathIndex(dft, m)
        dft.set_channel_caps([(2, 1, Direction.UP, 0), (3, 0, Direction.DOWN, 1)])
        patched = index.invalidate_channels(dft, [pack_gid(2, 1, 0), pack_gid(3, 0, 1)])
        rebuilt = PathIndex(dft, m)
        assert np.array_equal(patched.caps, rebuilt.caps)
        assert patched.paths is index.paths  # shared, not copied
        assert patched.path_len is index.path_len
        # the original index is immutable: still the pristine capacities
        assert int(index.caps[pack_gid(2, 1, 0)]) == 2

    def test_invalidate_channels_rejects_foreign_input(self):
        ft = FatTree(16)
        index = PathIndex(ft, MessageSet([0], [5], 16))
        with pytest.raises(ValueError, match="slot range"):
            index.invalidate_channels(ft, [index.num_slots])
        with pytest.raises(ValueError, match="does not match"):
            index.invalidate_channels(FatTree(8), [2])

    def test_two_successive_mutations_stay_fresh(self):
        """Regression for fingerprint folding: *each* tracked capacity
        mutation must advance the cache key, so a second mutation on
        the same tree object can never resurrect the index built after
        the first one."""
        base = FatTree(16, ConstantCapacity(4, 2))
        dft = DegradedFatTree(base, FaultModel())
        m = uniform_random(16, 120, seed=3)
        pristine = get_path_index(dft, m)

        dft.set_channel_caps([(1, 0, Direction.UP, 0)])
        first = get_path_index(dft, m)
        assert first is not pristine
        assert int(first.caps[pack_gid(1, 0, 0)]) == 0

        dft.set_channel_caps([(1, 0, Direction.UP, 2), (1, 1, Direction.UP, 0)])
        second = get_path_index(dft, m)
        assert second is not first and second is not pristine
        assert int(second.caps[pack_gid(1, 0, 0)]) == 2
        assert int(second.caps[pack_gid(1, 1, 0)]) == 0

    def test_lru_eviction_is_bounded(self):
        from repro.perf import pathindex as px

        ft = FatTree(16)
        first = get_path_index(ft, MessageSet([0], [1], 16))
        for i in range(px._CACHE_MAXSIZE):
            get_path_index(ft, MessageSet([0, i // 16], [1, i % 16], 16))
        cache = getattr(ft, px._CACHE_ATTR)
        assert len(cache) <= px._CACHE_MAXSIZE
        assert get_path_index(ft, MessageSet([0], [1], 16)) is not first
