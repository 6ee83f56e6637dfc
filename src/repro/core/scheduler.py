"""The Theorem 1 off-line scheduler.

    *Theorem 1.  Let FT be a fat-tree on n processors, and let C be the
    set of channels in FT.  Then for any message set M with λ(M) >= 1,
    there is an off-line schedule M_1, …, M_d such that
    d = O(λ(M)·lg n).*

The algorithm follows the paper's proof:

1. Group the messages by the node they cross (their LCA in the underlying
   tree) and crossing direction.
2. For each node, partition the left→right group into one-cycle sets by
   repeated even splits (:mod:`repro.core.partition`); likewise the
   right→left group.  Repeated halving of a group with load factor λ_g
   yields at most ``2^ceil(lg λ_g) <= 2·ceil(λ_g)`` one-cycle sets.
3. A left→right set and a right→left set of the same node use disjoint
   channels, so they share a delivery cycle; all subtrees rooted at the
   same level also use disjoint channels, so they run concurrently.
4. Levels run in sequence: ``d = Σ_levels max_node (#sets)``, which is at
   most ``2·ceil(λ(M))·lg n``.

Step 2 runs for every group at once: :func:`~repro.core.partition.halve_until_fit`
halves all overloaded pieces of all groups in one batched even split per
round, and one stable sort over (LCA level, piece rank) of the final
layout assembles the cycles.  The group-by-group recursion it replaced
is kept as :func:`_reference_schedule_theorem1`, the bit-parity oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..obs import Obs
    from .load import LevelLoads

from .errors import UnroutableError
from .fattree import Direction, FatTree
from .load import channel_loads
from .message import MessageSet
from .partition import (  # even_split_indices: perfbench wraps it on this module
    _reference_even_split_indices,
    even_split_indices,  # noqa: F401
    group_indices,
    halve_until_fit,
    message_group_keys,
    run_starts,
)
from .schedule import Schedule
from .tree import level_of_flat

__all__ = ["schedule_theorem1", "theorem1_cycle_bound", "partition_group"]


def theorem1_cycle_bound(ft: FatTree, lam: float) -> int:
    """The Theorem 1 upper bound ``2·ceil(λ)·lg n`` on delivery cycles.

    (This is the explicit constant achieved by the implementation; the
    theorem states it as O(λ·lg n).)
    """
    import math

    return 2 * max(1, math.ceil(lam)) * max(1, ft.depth)


def partition_group(
    ft: FatTree, messages: MessageSet, idx: np.ndarray
) -> list[np.ndarray]:
    """Partition one same-LCA same-direction group into one-cycle sets.

    Halves the group until every piece fits the channel capacities.
    Every halving is an *even* split, so a group of load factor λ_g needs
    at most ``ceil(lg λ_g)`` rounds and yields at most ``2·ceil(λ_g)``
    pieces.  The halving tree is walked level by level
    (:func:`~repro.core.partition.halve_until_fit`): each round splits
    every overloaded piece in one batched even split, and the pieces
    come back in the order a depth-first walk visiting the ``b`` half
    first finishes them.  Bit-identical to
    :func:`_reference_partition_group`.
    """
    if idx.size == 0:
        return []
    order = np.array(idx, dtype=np.int64)
    keys, lca = message_group_keys(messages, ft.depth)
    group = keys[order]
    if bool((group == -1).any()) or bool((group != group[0]).any()):
        raise ValueError("messages do not share an LCA node and direction")
    starts = halve_until_fit(
        ft, messages, keys, lca, order, np.zeros(1, dtype=np.int64),
        per_channel=True,
    )
    return np.split(order, starts[1:])


def _loads_fit(ft: FatTree, loads: LevelLoads) -> bool:
    """One-cycle test against precomputed per-channel loads."""
    for k in range(1, ft.depth + 1):
        if bool((loads.up[k] > ft.cap_vector(k, Direction.UP)).any()):
            return False
        if bool((loads.down[k] > ft.cap_vector(k, Direction.DOWN)).any()):
            return False
    return True


def _reference_partition_group(
    ft: FatTree, messages: MessageSet, idx: np.ndarray
) -> list[np.ndarray]:
    """Depth-first halving of one group, loads carried down the halving
    tree (one half counted fresh, the other by
    :meth:`~repro.core.load.LevelLoads.apply_delta`).  The oracle
    :func:`partition_group` is held bit-identical to."""
    pending = [(idx, channel_loads(ft, messages.take(idx)))]
    done: list[np.ndarray] = []
    while pending:
        piece, loads = pending.pop()
        if piece.size == 0:
            continue
        if _loads_fit(ft, loads):
            done.append(piece)
        else:
            a, b = _reference_even_split_indices(messages, piece, ft.depth)
            if b.size == 0:  # unsplittable singleton that still violates
                raise ValueError(
                    "a single message exceeds channel capacity; "
                    "capacities must be >= 1 on every level"
                )
            loads_a = channel_loads(ft, messages.take(a))
            loads_b = loads.apply_delta(removed=messages.take(a))
            pending.append((a, loads_a))
            pending.append((b, loads_b))
    return done


def schedule_theorem1(
    ft: FatTree, messages: MessageSet, *, obs: Obs | None = None
) -> Schedule:
    """Schedule ``messages`` on ``ft`` per Theorem 1.

    Returns a validated-shape :class:`Schedule` with
    ``d <= 2·ceil(λ(M))·lg n`` delivery cycles.  Self-messages are
    excluded from the cycles (they use no channels).  Bit-identical to
    :func:`_reference_schedule_theorem1`.

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives a kernel wall-time
    span, one ``partition`` trace event per LCA level (how many cycles
    that level contributed) and per-cycle ``cycle`` events.
    """
    from ..obs import resolve_obs

    obs = resolve_obs(obs)
    routable, n_self = _routable(ft, messages)
    with obs.kernel("schedule_theorem1", n=ft.n, m=len(routable)):
        keys, lca = message_group_keys(routable, ft.depth)
        # one piece per (LCA node, direction) group, in ascending key order
        order = np.argsort(keys, kind="stable")
        starts = halve_until_fit(
            ft, routable, keys, lca, order, run_starts(keys[order]),
            per_channel=True,
        )
        piece_key = keys[order[starts]]
        piece_level = lca[order[starts]]
        group_start = run_starts(piece_key)
        rank = np.arange(starts.size) - np.repeat(
            group_start, np.diff(np.append(group_start, starts.size))
        )

        # A level's cycle t holds the t-th piece of every group at that
        # level; levels run in sequence, root first.
        cycle_of_piece = np.empty(starts.size, dtype=np.int64)
        per_level_cycles: dict[int, int] = {}
        nodes_per_level: dict[int, int] = {}
        base = 0
        for level in np.flatnonzero(np.bincount(piece_level)).tolist():
            at_level = piece_level == level
            width = int(rank[at_level].max()) + 1
            cycle_of_piece[at_level] = base + rank[at_level]
            per_level_cycles[level] = width
            nodes_per_level[level] = run_starts(piece_key[at_level] >> 1).size
            base += width
        sizes = np.diff(np.append(starts, order.size))
        cycle_of_msg = np.repeat(cycle_of_piece, sizes)
        take = order[np.argsort(cycle_of_msg, kind="stable")]
        bounds = np.cumsum(np.bincount(cycle_of_msg, minlength=base))[:-1]
        cycles = [routable.take(chunk) for chunk in np.split(take, bounds)] if base else []
        if obs.enabled:
            for level, width in per_level_cycles.items():
                obs.tracer.emit(
                    "partition",
                    scheduler="theorem1",
                    level=level,
                    nodes=nodes_per_level[level],
                    cycles=width,
                )
                obs.metrics.inc("theorem1.level_cycles", width, level=level)

    if obs.enabled:
        _record_offline_cycles(obs, "theorem1", cycles, n_self)
    return Schedule(
        cycles=cycles, n_self_messages=n_self, per_level_cycles=per_level_cycles
    )


def _routable(ft: FatTree, messages: MessageSet) -> tuple[MessageSet, int]:
    """The non-self messages and the self-message count; raises unless
    every message has a usable path."""
    if messages.n != ft.n:
        raise ValueError("message set and fat-tree disagree on n")
    routable = messages.without_self_messages()
    mask = ft.routable_mask(routable)
    if not mask.all():
        raise UnroutableError(routable.take(~mask).as_pairs())
    return routable, len(messages) - len(routable)


def _reference_schedule_theorem1(ft: FatTree, messages: MessageSet) -> Schedule:
    """Group by group through :func:`_reference_partition_group`, cycles
    assembled node by node.  The oracle :func:`schedule_theorem1` is
    held bit-identical to (same cycles, same message order, same
    ``per_level_cycles``)."""
    routable, n_self = _routable(ft, messages)
    groups = group_indices(routable, ft.depth)

    # node flat id -> list of one-cycle index sets, one list per direction
    per_node: dict[int, list[list[np.ndarray]]] = {}
    for key, idx in groups.items():
        flat = key >> 1
        direction = key & 1
        slots = per_node.setdefault(flat, [[], []])
        slots[direction] = _reference_partition_group(ft, routable, idx)

    # Group nodes by level; within a level all nodes route concurrently,
    # and the two directions of one node pair up in the same cycle.
    levels: dict[int, list[int]] = {}
    for flat in per_node:
        levels.setdefault(level_of_flat(flat), []).append(flat)

    cycles: list[MessageSet] = []
    per_level_cycles: dict[int, int] = {}
    for level in sorted(levels):
        node_sets = [per_node[flat] for flat in levels[level]]
        width = max(max(len(lr), len(rl)) for lr, rl in node_sets)
        per_level_cycles[level] = width
        for t in range(width):
            chunks = []
            for lr, rl in node_sets:
                if t < len(lr):
                    chunks.append(lr[t])
                if t < len(rl):
                    chunks.append(rl[t])
            cycles.append(routable.take(np.concatenate(chunks)))
    return Schedule(
        cycles=cycles, n_self_messages=n_self, per_level_cycles=per_level_cycles
    )


def _record_offline_cycles(
    obs: Obs, scheduler: str, cycles: list[MessageSet], n_self: int
) -> None:
    """Per-cycle accounting for an off-line scheduler: one ``cycle``
    event per delivery cycle (nothing is ever congested or deferred
    off-line) plus the self-message counter."""
    from .online import _record_cycle

    for t, cycle in enumerate(cycles):
        _record_cycle(
            obs, scheduler, t, delivered=len(cycle), congested=0, deferred=0
        )
    obs.metrics.inc("messages.self", n_self, scheduler=scheduler)
