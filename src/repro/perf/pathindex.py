"""A shared, vectorised path index for fat-tree routing (perf layer).

Every scheduler in this package routes the same way — message ``(i, j)``
climbs to the LCA and descends — yet historically each one re-derived
the per-message channel lists in its own Python loop, which made the
routing stack CPU-bound far below the sizes where the paper's bounds
(§IV–§V) separate from noise.  :class:`PathIndex` derives *all* paths of
a ``(FatTree, MessageSet)`` pair once, in a few vectorised passes, and a
small per-tree LRU cache lets the greedy, on-line, buffered and
switch-simulator entry points share the result instead of recomputing
it.

Channel ids
-----------
A channel ``(level, index, direction)`` is packed into one flat int — a
*gid* — as ``(flat_node_id << 1) | direction`` where ``flat_node_id =
2**level - 1 + index`` is the heap-order id of the node beneath the
channel (:func:`repro.core.tree.flat_id`) and direction is 0 for up,
1 for down.  Gids 0 and 1 name the level-0 external-interface channels,
which internal routing never uses; gid 0 doubles as the **padding
slot**: every message row of the path matrix has exactly ``2·depth``
entries, with non-crossed levels padded by gid 0, and the flat capacity
vector gives the padding slot effectively infinite capacity so kernels
can scatter whole rows without masking.

Row layout
----------
For a tree of depth ``d``, column ``j < d`` holds the up channel at
level ``d - j`` (first hop first) and column ``d + k - 1`` holds the
down channel at level ``k`` (so down hops appear in ascending-level =
path order).  Scanning a row left to right and skipping padding
therefore yields the hops of the message in exact path order, which the
buffered store-and-forward simulator relies on.

Capacities are read through :meth:`FatTree.cap_vector`, so the index of
a :class:`~repro.faults.DegradedFatTree` is automatically built against
its surviving per-channel wire counts.
"""

from __future__ import annotations

from collections import OrderedDict
from hashlib import blake2b
from typing import TYPE_CHECKING

import numpy as np

from ..core.fattree import Direction, FatTree
from ..core.message import MessageSet
from ..obs import resolve_obs

if TYPE_CHECKING:
    from ..obs import Obs

__all__ = [
    "PAD_GID",
    "PathIndex",
    "get_path_index",
    "clear_path_index_cache",
    "fold_capacity_fingerprint",
    "index_cache_key",
    "invalidate_capacity_fingerprint",
    "pack_gid",
    "unpack_gid",
]

PAD_GID = 0
_PAD_CAP = np.int64(2) ** 62  # never binds: no run makes 2**62 traversals
_CACHE_ATTR = "_path_index_cache"
_CACHE_MAXSIZE = 16
_FP_ATTR = "_capacity_fp"


def pack_gid(
    level: "int | np.ndarray",
    index: "int | np.ndarray",
    direction: "int | np.ndarray",
) -> "np.ndarray | np.int64":
    """Pack ``(level, index, direction)`` into a flat channel gid.

    Works elementwise on numpy arrays; ``direction`` is 0 (up) or 1
    (down), matching :func:`repro.core.tree.path_channel_keys`.
    """
    return ((((1 << level) - 1) + index) << 1) | direction


def unpack_gid(gid: int) -> tuple[int, int, int]:
    """Invert :func:`pack_gid` for one scalar gid."""
    direction = gid & 1
    flat = gid >> 1
    level = (flat + 1).bit_length() - 1
    return level, flat - ((1 << level) - 1), direction


class PathIndex:
    """All channel paths of a message set, as one padded gid matrix.

    Attributes
    ----------
    paths:
        Read-only ``(m, 2·depth)`` int64 matrix of channel gids, padded
        with :data:`PAD_GID` (see the module docstring for the layout).
    caps:
        Read-only flat int64 vector over all gids: the effective
        capacity of each channel, with the padding slot set high enough
        to never bind.
    path_len:
        Read-only ``(m,)`` int64 vector of true path lengths
        (``2·(depth − lca_level)``, 0 for self-messages).
    """

    __slots__ = ("n", "depth", "m", "num_slots", "paths", "caps", "path_len")

    def __init__(self, ft: FatTree, messages: MessageSet) -> None:
        if messages.n != ft.n:
            raise ValueError("message set and fat-tree disagree on n")
        depth = ft.depth
        m = len(messages)
        self.n = ft.n
        self.depth = depth
        self.m = m
        self.num_slots = ((1 << (depth + 1)) - 1) << 1
        src, dst = messages.src, messages.dst
        paths = np.full((m, max(1, 2 * depth)), PAD_GID, dtype=np.int64)
        caps = np.full(self.num_slots, _PAD_CAP, dtype=np.int64)
        lengths = np.zeros(m, dtype=np.int64)
        for k in range(1, depth + 1):
            shift = depth - k
            s_anc = src >> shift
            d_anc = dst >> shift
            crossing = s_anc != d_anc
            base = np.int64((1 << k) - 1)
            np.copyto(
                paths[:, depth - k], (base + s_anc) << 1, where=crossing
            )
            np.copyto(
                paths[:, depth + k - 1], ((base + d_anc) << 1) | 1, where=crossing
            )
            lengths += 2 * crossing
            idx = np.arange(1 << k, dtype=np.int64)
            caps[(base + idx) << 1] = ft.cap_vector(k, Direction.UP)
            caps[((base + idx) << 1) | 1] = ft.cap_vector(k, Direction.DOWN)
        for arr in (paths, caps, lengths):
            arr.setflags(write=False)
        self.paths = paths
        self.caps = caps
        self.path_len = lengths

    # -- derived views ----------------------------------------------------

    def rows(self, idx: "np.ndarray | None" = None) -> np.ndarray:
        """Padded gid rows for a subset (or all) of the messages."""
        return self.paths if idx is None else self.paths[idx]

    def routable_mask(self) -> np.ndarray:
        """True per message iff no channel on its path has capacity 0."""
        return ~(self.caps[self.paths] == 0).any(axis=1)

    def hops(self, i: int) -> list[int]:
        """The gids of message ``i`` in exact path order (pads removed)."""
        row = self.paths[i]
        return [int(g) for g in row if g != PAD_GID]

    def load_vector(self, idx: "np.ndarray | None" = None) -> np.ndarray:
        """Per-gid channel loads of a subset (pads land in slot 0)."""
        return np.bincount(
            self.rows(idx).ravel(), minlength=self.num_slots
        ).astype(np.int64)

    def level_loads(self, idx: "np.ndarray | None" = None) -> np.ndarray:
        """Summed channel loads of a subset per ``(level, direction)``.

        Returns a ``(depth + 1, 2)`` int64 matrix (column 0 = up,
        column 1 = down); row 0 is always zero since internal routing
        never uses the external-interface channels.  This is the
        aggregation the per-cycle utilisation metrics are built from.
        """
        lv = self.load_vector(idx)
        out = np.zeros((self.depth + 1, 2), dtype=np.int64)
        for k in range(1, self.depth + 1):
            start = ((1 << k) - 1) << 1
            block = lv[start : start + (2 << k)]
            out[k, 0] = block[0::2].sum()
            out[k, 1] = block[1::2].sum()
        return out

    def affected_rows(self, gids: "np.ndarray | list[int]") -> np.ndarray:
        """True per message iff its path crosses any of ``gids``.

        The membership test is one vectorised :func:`numpy.isin` pass
        over the path matrix, so detecting which in-flight messages a
        capacity mutation touches costs ``O(m·depth)`` integer compares
        — no per-message Python loop.  :data:`PAD_GID` entries in
        ``gids`` are ignored (padding is not a channel).
        """
        g = np.asarray([int(x) for x in gids if int(x) != PAD_GID], dtype=np.int64)
        if g.size == 0:
            return np.zeros(self.m, dtype=bool)
        return np.isin(self.paths, g).any(axis=1)

    def invalidate_channels(
        self, ft: FatTree, gids: "np.ndarray | list[int]"
    ) -> PathIndex:
        """Delta-rebuild: a new index with ``gids`` re-read from ``ft``.

        The path matrix and path lengths are *shared* with this index
        (routing topology never changes under capacity mutation); only
        the flat capacity vector is copied and patched at the named
        gids.  This is the incremental-reroute primitive the chaos
        recovery path uses instead of a from-scratch
        ``PathIndex(ft, messages)`` rebuild: cost ``O(num_slots +
        len(gids))`` versus ``O(m·depth)`` per-level passes.
        """
        if ft.n != self.n or ft.depth != self.depth:
            raise ValueError("tree does not match this index")
        clone: PathIndex = object.__new__(PathIndex)
        clone.n = self.n
        clone.depth = self.depth
        clone.m = self.m
        clone.num_slots = self.num_slots
        clone.paths = self.paths
        clone.path_len = self.path_len
        caps = self.caps.copy()
        for raw in gids:
            gid = int(raw)
            if not (0 <= gid < self.num_slots):
                raise ValueError(f"gid {gid} outside this index's slot range")
            if gid == PAD_GID:
                continue  # the padding slot has no physical channel
            level, index, d = unpack_gid(gid)
            direction = Direction.UP if d == 0 else Direction.DOWN
            caps[gid] = ft.chan_cap(level, index, direction)
        caps.setflags(write=False)
        clone.caps = caps
        return clone

    def __repr__(self) -> str:
        return f"PathIndex(n={self.n}, m={self.m}, depth={self.depth})"


def _digest(messages: MessageSet) -> bytes:
    h = blake2b(digest_size=16)
    h.update(messages.n.to_bytes(8, "little"))
    h.update(np.ascontiguousarray(messages.src).tobytes())
    h.update(np.ascontiguousarray(messages.dst).tobytes())
    return h.digest()


def _capacity_fingerprint(ft: FatTree) -> bytes:
    """A digest of the tree's current per-channel effective capacities.

    Folding this into the cache key makes the cache safe against
    capacity mutation on a live tree object (re-applying a
    :class:`~repro.faults.FaultModel`, or any future dynamic-capacity
    path): a tree whose capacities change simply stops hitting the
    entries built against the old capacities.

    The digest is cached on the tree under :data:`_FP_ATTR`, so a
    lookup normally costs one attribute read instead of re-hashing
    every capacity vector.  Tracked mutation APIs
    (:meth:`~repro.faults.DegradedFatTree.apply_faults`,
    :meth:`~repro.faults.DegradedFatTree.set_channel_caps`) *fold* a
    delta digest into the cached value via
    :func:`fold_capacity_fingerprint`; untracked assignment to a
    degraded tree's capacity state drops the cached digest entirely so
    the next lookup re-hashes from scratch.  Either way a stale index
    can never be served: a wrong-but-fresh fingerprint only ever causes
    a spurious cache miss, never a hit on old capacities.
    """
    fp: bytes | None = getattr(ft, _FP_ATTR, None)
    if fp is None:
        h = blake2b(digest_size=16)
        for k in range(1, ft.depth + 1):
            for d in (Direction.UP, Direction.DOWN):
                h.update(np.ascontiguousarray(ft.cap_vector(k, d)).tobytes())
        fp = h.digest()
        setattr(ft, _FP_ATTR, fp)
    return fp


def fold_capacity_fingerprint(ft: FatTree, delta: bytes) -> None:
    """Advance ``ft``'s cached capacity fingerprint by a mutation delta.

    Chains ``fp' = H(fp ‖ delta)`` over the previously-cached
    fingerprint.  Two trees sharing a fingerprint therefore share both
    their pre-mutation capacity state and the mutation itself — i.e.
    the chained digest still uniquely identifies the capacity state
    among all keys a tree's cache has ever seen, while costing one
    small hash per mutation instead of a full capacity-vector re-hash
    per lookup.  No-op when no fingerprint is cached yet (the next
    lookup computes one from scratch, which is equally safe).
    """
    fp: bytes | None = getattr(ft, _FP_ATTR, None)
    if fp is not None:
        h = blake2b(digest_size=16)
        h.update(fp)
        h.update(delta)
        setattr(ft, _FP_ATTR, h.digest())


def invalidate_capacity_fingerprint(ft: FatTree) -> None:
    """Drop ``ft``'s cached capacity fingerprint (untracked mutation)."""
    if getattr(ft, _FP_ATTR, None) is not None:
        delattr(ft, _FP_ATTR)


def index_cache_key(ft: FatTree, messages: MessageSet) -> bytes:
    """The cache key of the ``(ft, messages)`` pair: message digest +
    capacity fingerprint.

    This is the key :func:`get_path_index` stores under: two lookups
    that compute the same key are guaranteed to agree on both the
    message multiset (exact array digest) and every per-channel
    effective capacity.  Note that a tree whose fingerprint was advanced
    by tracked mutations (:func:`fold_capacity_fingerprint`) carries a
    *chained* digest: an equivalent tree rebuilt from scratch hashes
    fresh and yields a different key — a spurious miss, never a stale
    hit.
    """
    return _digest(messages) + _capacity_fingerprint(ft)


def get_path_index(
    ft: FatTree, messages: MessageSet, *, obs: "Obs | None" = None
) -> PathIndex:
    """The :class:`PathIndex` of ``(ft, messages)``, cached on the tree.

    The cache lives on the ``FatTree`` instance and is keyed by a digest
    of the message arrays **and** of the tree's current per-channel
    capacities, with LRU eviction beyond a small size.  All schedulers
    route through this accessor, so scheduling the same message set with
    several algorithms derives the paths once — while a tree whose
    capacities are mutated in place (e.g. a re-degraded
    :class:`~repro.faults.DegradedFatTree`) can never be served stale
    paths or capacity vectors.

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives a ``pathindex.cache``
    hit/miss counter and a ``cache`` trace event per lookup.
    """
    obs = resolve_obs(obs)
    cache: OrderedDict[bytes, PathIndex] | None = getattr(ft, _CACHE_ATTR, None)
    if cache is None:
        cache = OrderedDict()
        setattr(ft, _CACHE_ATTR, cache)
    key = index_cache_key(ft, messages)
    index = cache.get(key)
    if index is None:
        result = "miss"
        index = PathIndex(ft, messages)
        # Evict *before* inserting: evicting afterwards let the cache
        # transiently hold _CACHE_MAXSIZE + 1 indexes — one full extra
        # path matrix pinned at exactly the moment memory peaks.
        while len(cache) >= _CACHE_MAXSIZE:
            cache.popitem(last=False)
        cache[key] = index
    else:
        cache.move_to_end(key)
        result = "hit"
    if obs.enabled:
        obs.metrics.inc("pathindex.cache", result=result)
        obs.tracer.emit(
            "cache", op="pathindex", result=result, n=ft.n, m=len(messages)
        )
    return index


def clear_path_index_cache(ft: FatTree) -> None:
    """Drop any cached path indexes held by ``ft``."""
    if getattr(ft, _CACHE_ATTR, None) is not None:
        delattr(ft, _CACHE_ATTR)
