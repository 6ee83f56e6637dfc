"""Channel loads and load factors (Leiserson 1985, §III).

For a message set ``M`` and channel ``c``, ``load(M, c)`` is the number
of messages of ``M`` whose (unique) tree path uses ``c``.  The *load
factor* is ``λ(M, c) = load(M, c) / cap(c)`` and
``λ(M) = max_c λ(M, c)``; it is the paper's lower bound on the number of
delivery cycles any schedule needs.

Loads are computed for *all* channels at once with one vectorised pass
per level: the message ``(i, j)`` uses the up channel of node ``(k, x)``
iff ``x`` is the level-``k`` ancestor of ``i`` and *not* of ``j`` (the
LCA lies strictly above level ``k``), and symmetrically for down
channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fattree import Channel, Direction, FatTree
from .message import MessageSet

__all__ = ["LevelLoads", "channel_loads", "channel_load", "load_factor", "is_one_cycle"]


@dataclass(frozen=True, slots=True)
class LevelLoads:
    """Per-channel loads for every level of a fat-tree.

    ``up[k]`` and ``down[k]`` are integer arrays of length ``2**k`` giving
    the load on each up/down channel at level ``k`` (``k`` from 1 to the
    tree depth; the level-0 external channels carry no internal traffic).
    """

    up: dict[int, np.ndarray]
    down: dict[int, np.ndarray]
    depth: int

    def load(self, channel: Channel) -> int:
        """Load on one specific channel."""
        table = self.up if channel.direction is Direction.UP else self.down
        if channel.level == 0:
            return 0
        return int(table[channel.level][channel.index])

    def max_per_level(self) -> dict[int, int]:
        """Maximum load over the channels of each level."""
        return {
            k: int(max(self.up[k].max(initial=0), self.down[k].max(initial=0)))
            for k in range(1, self.depth + 1)
        }

    def total(self) -> int:
        """Sum of loads over all channels (total channel-traversals)."""
        return int(
            sum(int(self.up[k].sum()) + int(self.down[k].sum())
                for k in range(1, self.depth + 1))
        )

    def apply_delta(
        self,
        added: "MessageSet | None" = None,
        removed: "MessageSet | None" = None,
    ) -> "LevelLoads":
        """Loads after adding/removing messages, computed incrementally.

        Returns a new :class:`LevelLoads` equal to
        ``channel_loads(ft, M + added - removed)`` at the cost of one
        bincount pass over just the delta — so loops that repeatedly
        shrink or grow a working set (the reference Theorem 1 halving
        loop, chaos reroutes) stop recomputing loads of the full set
        from scratch.
        Raises ``ValueError`` if ``removed`` is not a sub-multiset (some
        load would go negative).
        """
        up = {k: self.up[k].copy() for k in range(1, self.depth + 1)}
        down = {k: self.down[k].copy() for k in range(1, self.depth + 1)}
        for sign, delta in ((1, added), (-1, removed)):
            if delta is None or len(delta) == 0:
                continue
            src, dst = delta.src, delta.dst
            for k in range(1, self.depth + 1):
                shift = self.depth - k
                s_anc = src >> shift
                d_anc = dst >> shift
                crossing = s_anc != d_anc
                width = 1 << k
                up[k] += sign * np.bincount(
                    s_anc[crossing], minlength=width
                ).astype(np.int64)
                down[k] += sign * np.bincount(
                    d_anc[crossing], minlength=width
                ).astype(np.int64)
        for k in range(1, self.depth + 1):
            if bool((up[k] < 0).any()) or bool((down[k] < 0).any()):
                raise ValueError(
                    "apply_delta removed messages that are not in the set "
                    f"(negative load at level {k})"
                )
        return LevelLoads(up=up, down=down, depth=self.depth)


def channel_loads(ft: FatTree, messages: MessageSet) -> LevelLoads:
    """Loads of every channel of ``ft`` under ``messages``."""
    if messages.n != ft.n:
        raise ValueError(
            f"message set is over {messages.n} processors, fat-tree has {ft.n}"
        )
    depth = ft.depth
    src, dst = messages.src, messages.dst
    up: dict[int, np.ndarray] = {}
    down: dict[int, np.ndarray] = {}
    for k in range(1, depth + 1):
        shift = depth - k
        s_anc = src >> shift
        d_anc = dst >> shift
        crossing = s_anc != d_anc
        width = 1 << k
        up[k] = np.bincount(s_anc[crossing], minlength=width).astype(np.int64)
        down[k] = np.bincount(d_anc[crossing], minlength=width).astype(np.int64)
    return LevelLoads(up=up, down=down, depth=depth)


def channel_load(ft: FatTree, messages: MessageSet, channel: Channel) -> int:
    """Load on a single channel (convenience; prefer :func:`channel_loads`)."""
    if channel.level == 0:
        return 0
    shift = ft.depth - channel.level
    s_anc = messages.src >> shift
    d_anc = messages.dst >> shift
    if channel.direction is Direction.UP:
        return int(np.count_nonzero((s_anc == channel.index) & (d_anc != channel.index)))
    return int(np.count_nonzero((d_anc == channel.index) & (s_anc != channel.index)))


def load_factor(ft: FatTree, messages: MessageSet) -> float:
    """The load factor ``λ(M) = max_c load(M, c) / cap(c)``.

    Capacities are taken per channel (:meth:`FatTree.cap_vector`), so a
    fault-degraded tree is measured against its surviving hardware.  A
    message crossing a channel with zero surviving capacity makes the
    load factor ``inf``.  Returns 0.0 for a message set that uses no
    channels.
    """
    loads = channel_loads(ft, messages)
    lam = 0.0
    for k in range(1, ft.depth + 1):
        for direction, table in (
            (Direction.UP, loads.up),
            (Direction.DOWN, loads.down),
        ):
            caps = ft.cap_vector(k, direction)
            arr = table[k]
            dead = caps == 0
            if bool((arr[dead] > 0).any()):
                return math.inf
            live = ~dead
            if bool(live.any()):
                peak = (arr[live] / caps[live]).max(initial=0.0)
                lam = max(lam, float(peak))
    return float(lam)


def is_one_cycle(ft: FatTree, messages: MessageSet) -> bool:
    """True iff ``messages`` is a one-cycle set: ``load(M, c) <= cap(c)``
    for every channel ``c`` (i.e. ``λ(M) <= 1``), against the per-channel
    effective capacities."""
    loads = channel_loads(ft, messages)
    for k in range(1, ft.depth + 1):
        if bool((loads.up[k] > ft.cap_vector(k, Direction.UP)).any()):
            return False
        if bool((loads.down[k] > ft.cap_vector(k, Direction.DOWN)).any()):
            return False
    return True
