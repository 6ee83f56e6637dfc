"""The fat-tree routing network (Leiserson 1985, §II).

A :class:`FatTree` on ``n = 2**depth`` processors is a complete binary
tree whose leaves are the processors and whose internal nodes are
switches.  Each edge of the underlying tree corresponds to **two**
channels — one from child to parent (``UP``) and one from parent to child
(``DOWN``) — and each channel is a bundle of ``cap(c)`` wires.  The
channel above the root is the external interface.

Routing is determined entirely by the tree: the message ``(i, j)`` climbs
from leaf ``i`` to the least common ancestor of ``i`` and ``j`` and then
descends to leaf ``j``.  :meth:`FatTree.path_channels` enumerates exactly
the channels this path uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator

import numpy as np

from . import tree
from .capacity import CapacityProfile, UniversalCapacity

if TYPE_CHECKING:
    from ._types import BoolArray, IntArray
    from .message import MessageSet

__all__ = ["Direction", "Channel", "FatTree"]


class Direction(Enum):
    """Channel orientation relative to the root."""

    UP = "up"      # child -> parent (toward the root)
    DOWN = "down"  # parent -> child (toward the leaves)


@dataclass(frozen=True, slots=True)
class Channel:
    """One channel of a fat-tree.

    ``level``/``index`` identify the node *beneath* the channel (the
    paper's convention): the channel connects node ``(level, index)`` with
    its parent.  Level-0 channels connect the root with the external
    interface.
    """

    level: int
    index: int
    direction: Direction

    def __str__(self) -> str:
        return f"{self.direction.value}({self.level},{self.index})"


class FatTree:
    """A fat-tree routing network.

    Parameters
    ----------
    n:
        Number of processors; must be a power of two.
    capacity:
        A :class:`~repro.core.capacity.CapacityProfile` of matching depth,
        or ``None`` for the full-bandwidth universal fat-tree
        (``w = n``).

    Examples
    --------
    >>> from repro.core import FatTree, UniversalCapacity
    >>> ft = FatTree(64, UniversalCapacity(64, 32))
    >>> ft.depth
    6
    >>> ft.cap(0)   # root capacity
    32
    >>> ft.cap(6)   # each processor has one connection
    1
    """

    def __init__(self, n: int, capacity: CapacityProfile | None = None):
        if not tree.is_power_of_two(n):
            raise ValueError(
                f"fat-tree processor count must be a positive power of two, "
                f"got n={n!r}"
            )
        depth = tree.ilog2(n)
        if capacity is None:
            capacity = UniversalCapacity(n, n)
        if capacity.depth != depth:
            raise ValueError(
                f"capacity profile depth {capacity.depth} does not match "
                f"lg n = {depth}"
            )
        self.n = n
        self.depth = depth
        self.capacity = capacity
        self._cap_vectors: dict[tuple[int, Direction], IntArray] = {}

    # -- pickling ----------------------------------------------------------

    #: Instance attributes that are pure derived caches, rebuilt on
    #: demand: the per-tree path-index LRU and capacity fingerprint that
    #: ``repro.perf.pathindex`` stashes on the tree via ``setattr``.
    #: Pickling must not carry them — every ProcessPool dispatch
    #: (parallel sweeps, the ``repro.serve`` shards) pickles the tree per
    #: task, and a warm LRU would haul entire path matrices across the
    #: process boundary with every dispatch.
    _EPHEMERAL_ATTRS: tuple[str, ...] = ("_path_index_cache", "_capacity_fp")

    def __getstate__(self) -> dict[str, object]:
        """Pickle without derived caches: warm trees pickle byte-identical
        to cold ones.

        Dropping ``_capacity_fp`` is safe by construction — the
        fingerprint semantics guarantee a rebuilt hash can only cause a
        spurious cache miss, never a stale hit.  ``_cap_vectors`` is
        reset rather than popped because ``__init__`` always creates it.
        """
        state = dict(self.__dict__)
        for attr in self._EPHEMERAL_ATTRS:
            state.pop(attr, None)
        state["_cap_vectors"] = {}
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)

    # -- structure ---------------------------------------------------------

    def cap(self, level: int) -> int:
        """Capacity of any channel at the given level."""
        return self.capacity.cap(level)

    def chan_cap(self, level: int, index: int, direction: Direction) -> int:
        """Effective capacity of one specific channel.

        On a pristine fat-tree every channel at a level has the same
        capacity, so this is just :meth:`cap`.  Fault-degraded trees
        (:class:`repro.faults.DegradedFatTree`) override it with the
        per-channel surviving wire counts; 0 marks a severed channel.
        """
        return self.cap(level)

    def cap_vector(self, level: int, direction: Direction) -> IntArray:
        """Per-channel effective capacities for a whole level.

        A read-only int64 array of length ``2**level``, indexed by channel
        index; the vectorised counterpart of :meth:`chan_cap` used by load
        computation and the schedulers.  Copy before mutating.
        """
        key = (level, direction)
        vec = self._cap_vectors.get(key)
        if vec is None:
            vec = np.full(1 << level, self.cap(level), dtype=np.int64)
            vec.setflags(write=False)
            self._cap_vectors[key] = vec
        return vec

    def routable_mask(self, messages: MessageSet) -> BoolArray:
        """Boolean mask: True where a message still has a usable path.

        On a pristine fat-tree every message is routable.  Degraded trees
        override this to mark messages whose unique tree path crosses a
        channel with zero surviving capacity.
        """
        return np.ones(len(messages), dtype=bool)

    @property
    def root_capacity(self) -> int:
        return self.capacity.root_capacity

    def channels(self, *, include_external: bool = False) -> Iterator[Channel]:
        """All channels, level by level.

        Internal message routing never touches the level-0 external
        interface channels, so they are excluded unless requested.
        """
        start = 0 if include_external else 1
        for level in range(start, self.depth + 1):
            for index in range(1 << level):
                yield Channel(level, index, Direction.UP)
                yield Channel(level, index, Direction.DOWN)

    def num_channels(self, *, include_external: bool = False) -> int:
        """Number of channels (two per tree edge)."""
        total = 2 * ((1 << (self.depth + 1)) - 2)
        if include_external:
            total += 2
        return total

    def total_wires(self, *, include_external: bool = False) -> int:
        """Total wire count: the sum of all channel capacities."""
        start = 0 if include_external else 1
        return sum(
            2 * (1 << level) * self.cap(level)
            for level in range(start, self.depth + 1)
        )

    def node_incident_wires(self, level: int) -> int:
        """Wires incident to a switch at the given level (its up channels
        plus its two children's channels), the ``m`` of Lemma 3/Theorem 4."""
        if not (0 <= level < self.depth):
            raise ValueError(f"no switch at level {level}")
        up = 2 * self.cap(level)
        down = 4 * self.cap(level + 1)
        return up + down

    # -- routing -----------------------------------------------------------

    def path_channels(self, src: int, dst: int) -> list[Channel]:
        """The channels used by message ``(src, dst)``, in path order.

        The message climbs the up channels above ``src`` to the LCA and
        descends the down channels to ``dst``.  A self-message uses no
        channels.
        """
        self._check_processor(src)
        self._check_processor(dst)
        if src == dst:
            return []
        l = tree.lca_level(src, dst, self.depth)
        up = [
            Channel(k, src >> (self.depth - k), Direction.UP)
            for k in range(self.depth, l, -1)
        ]
        down = [
            Channel(k, dst >> (self.depth - k), Direction.DOWN)
            for k in range(l + 1, self.depth + 1)
        ]
        return up + down

    def path_length(self, src: int, dst: int) -> int:
        """Number of channels on the path of message ``(src, dst)``."""
        if src == dst:
            return 0
        l = tree.lca_level(src, dst, self.depth)
        return 2 * (self.depth - l)

    def _check_processor(self, p: int) -> None:
        if not (0 <= p < self.n):
            raise ValueError(f"processor {p} outside [0, {self.n})")

    # -- misc ----------------------------------------------------------------

    def with_capacity(self, capacity: CapacityProfile) -> "FatTree":
        """A fat-tree with the same structure but different capacities."""
        return FatTree(self.n, capacity)

    def __repr__(self) -> str:
        return (
            f"FatTree(n={self.n}, root_capacity={self.root_capacity}, "
            f"profile={type(self.capacity).__name__})"
        )
