"""The even-split partitioner from the proof of Theorem 1.

Given a set ``Q`` of messages that all cross the same fat-tree node in
the same direction (say left subtree → right subtree), Theorem 1's proof
partitions ``Q`` into halves ``Q_a`` and ``Q_b`` such that **every**
channel's load splits exactly evenly::

    load(Q_a, c) = ceil(load(Q, c) / 2)
    load(Q_b, c) = floor(load(Q, c) / 2)      (up to swapping a/b per channel)

The construction has two phases, following the paper:

*Matching.*  Each message is a string with a *source end* (at its source
leaf) and a *destination end* (at its destination leaf).  Within each
processor, ends of the same kind are paired; leftovers (at most one per
processor) are paired bottom-up in two-leaf subtrees, four-leaf subtrees,
and so on.  The invariant: in every subtree, at most one string end is
matched outside the subtree or left unmatched.

*Tracing.*  The pairs form a graph on the messages in which every message
touches at most one source-pair edge and at most one destination-pair
edge.  Components are therefore paths and cycles whose edges alternate
between the two kinds, so cycles are even and the graph is bipartite: a
2-colouring assigns the messages of every pair to opposite halves.  (The
paper traces the strings explicitly; 2-colouring the pairing graph is the
same assignment.)

Because any subtree contains at most one end not matched *inside* it, the
per-subtree — hence per-channel — imbalance between the halves is at most
one message.

Both phases run for many groups at once (:func:`split_units`): a *unit*
is one group, or one piece of a group, laid out contiguously, and its id
goes into composite ``(unit, leaf)`` keys.  Matching sorts the ends by
that key once, pairs consecutive ends at each leaf, then climbs the
leftovers one level per pass (``key >> j``), pairing the two leftovers
of sibling subtrees.  Tracing colours each message by the parity of its
distance to the lowest-position message of its path or cycle, found by
pointer doubling over the two-step walks (source partner then
destination partner, and the reverse).  :func:`halve_until_fit` drives
the Theorem 1 and Corollary 2 halvings with it: every piece that still
overloads a channel splits in the same round.  The even split also says
how many rounds a piece must keep splitting (see :func:`_overloaded`):
a level-``k`` channel carries at most ``k`` groups and each halving
leaves each group at least ``floor(load / 2)``, so a piece loading it
with ``L`` over capacity ``c`` overloads for
``bit_length(ceil((L + k) / (c + k)) - 1)`` rounds, and its loads are
counted again only after that.  Corollary 2 on 8n uniform messages at
n=1024 counts loads in 2 of its 8 rounds.  Every stable sort on this
path is :func:`~repro.core.radix._radix_argsort`'s 16-bit digit passes.

:func:`even_split` applies the construction to a single
same-LCA/same-direction group; :func:`even_split_all` applies it to each
group of an arbitrary message set independently (used by Corollary 2,
where the per-channel error then accumulates to at most ``lg n`` over the
whole recursion — see :mod:`repro.core.reuse_scheduler`).  The
one-group-at-a-time recursion and breadth-first colouring the kernel
replaced are kept as :func:`_reference_even_split_indices` and
:func:`_reference_even_split_all`, the oracles the bit-parity tests
compare against.
"""

from __future__ import annotations

import numpy as np

from .fattree import Direction, FatTree
from .message import MessageSet
from .radix import _radix_argsort

__all__ = [
    "message_group_keys",
    "group_indices",
    "run_starts",
    "split_units",
    "halve_until_fit",
    "even_split",
    "even_split_indices",
    "even_split_all",
]


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for non-negative int64 arrays.

    Exact for values below 2**53 (we only ever pass XORs of processor
    ids, far below that).
    """
    _, exponents = np.frexp(values.astype(np.float64))
    return exponents.astype(np.int64)


def message_group_keys(
    messages: MessageSet, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-message (lca_level, lca_index, direction) as a composite key.

    Returns ``(keys, lca_levels)`` where ``keys[k]`` uniquely encodes the
    LCA node and crossing direction of message ``k`` (direction bit 0 =
    source in the left child subtree).  Self-messages get key ``-1``.
    """
    diff = messages.src ^ messages.dst
    bitlen = _bit_lengths(diff)
    lca_level = depth - bitlen
    lca_index = messages.src >> bitlen
    direction = np.where(bitlen > 0, (messages.src >> np.maximum(bitlen - 1, 0)) & 1, 0)
    flat = (np.int64(1) << lca_level) - 1 + lca_index
    keys = np.where(diff == 0, np.int64(-1), (flat << 1) | direction)
    return keys, lca_level


def group_indices(messages: MessageSet, depth: int) -> dict[int, np.ndarray]:
    """Message indices grouped by (LCA node, direction) composite key.

    Self-messages (key ``-1``) are omitted: they use no channels.
    """
    keys, _ = message_group_keys(messages, depth)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = run_starts(sorted_keys)
    ends = np.append(starts[1:], keys.size)
    return {
        int(sorted_keys[s]): order[s:e]
        for s, e in zip(starts, ends)
        if sorted_keys[s] != -1
    }


def run_starts(values: np.ndarray) -> np.ndarray:
    """Positions where a run of equal values begins (``values`` grouped)."""
    if values.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def _run_ids(*columns: np.ndarray) -> np.ndarray:
    """Per element, the index of its run of equal rows (rows grouped)."""
    change = np.zeros(columns[0].size, dtype=bool)
    for col in columns:
        change[1:] |= col[1:] != col[:-1]
    return np.cumsum(change)


def _link(partner: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    partner[u] = v
    partner[v] = u


def _match_ends(unit: np.ndarray, leaf: np.ndarray, depth: int) -> np.ndarray:
    """Matching phase for one kind of end, every unit at once.

    Returns each end's partner (``-1`` = unmatched).  Ends at one leaf
    pair consecutively in position order, the last one left over when
    their count is odd; the leftovers then climb one level per pass and
    pair with their sibling subtree's leftover.  At most one end per
    unit stays unmatched.
    """
    m = leaf.size
    partner = np.full(m, -1, dtype=np.int64)
    if m == 0:
        return partner
    ckey = (unit << depth) | leaf
    order = _radix_argsort(ckey, (int(unit[-1]) + 1) << depth)
    ckey = ckey[order]
    has_next = np.zeros(m, dtype=bool)
    has_next[:-1] = ckey[1:] == ckey[:-1]
    # rank parity inside each run of equal keys
    idx = np.arange(m)
    rank = np.where(np.concatenate(([True], ~has_next[:-1])), idx, 0)
    np.maximum.accumulate(rank, out=rank)
    np.subtract(idx, rank, out=rank)
    even = (rank & 1) == 0
    del idx, rank
    first = np.flatnonzero(even & has_next)
    _link(partner, order[first], order[first + 1])
    rest = np.flatnonzero(even & ~has_next)
    keys, ends = ckey[rest], order[rest]
    for j in range(1, depth + 1):
        if keys.size < 2:
            break
        up = keys >> j
        pair = np.flatnonzero(up[1:] == up[:-1])
        if pair.size:
            _link(partner, ends[pair], ends[pair + 1])
            keep = np.ones(keys.size, dtype=bool)
            keep[pair] = False
            keep[pair + 1] = False
            keys, ends = keys[keep], ends[keep]
    return partner


def _two_step(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``v -> second[first[v]]``, or ``v`` itself where the walk ends."""
    idx = np.arange(first.size)
    nxt = second[np.where(first >= 0, first, idx)]
    return np.where((first >= 0) & (nxt >= 0), nxt, idx)


def _orbit_min(step: np.ndarray, span: int) -> np.ndarray:
    """Per element, the least index among its first ``span`` iterates
    under ``step`` (pointer doubling)."""
    low = np.arange(step.size)
    reach = 1
    while reach < span:
        np.minimum(low, low[step], out=low)
        step = step[step]
        reach *= 2
    return low


def split_units(
    src: np.ndarray, dst: np.ndarray, unit: np.ndarray, depth: int
) -> np.ndarray:
    """Even-split every unit at once; True marks the ``b`` half.

    ``unit`` is non-decreasing: each unit's messages are contiguous, in
    position order, and share one LCA node and crossing direction.  A
    message joins the ``a`` half when it lies at even distance from the
    lowest-position message of its path or cycle in the pairing graph —
    the colouring a breadth-first search started there makes.
    """
    if src.size == 0:
        return np.zeros(0, dtype=bool)
    src_partner = _match_ends(unit, src, depth)
    dst_partner = _match_ends(unit, dst, depth)
    # a class of one parity holds at most ceil(size / 2) messages
    span = (int(np.bincount(unit).max()) + 1) // 2
    even_min = np.minimum(
        _orbit_min(_two_step(src_partner, dst_partner), span),
        _orbit_min(_two_step(dst_partner, src_partner), span),
    )
    neighbour = np.where(src_partner >= 0, src_partner, dst_partner)
    odd_min = np.where(neighbour >= 0, even_min[neighbour], src.size)
    return odd_min < even_min


def _overloaded(
    ft: FatTree,
    piece: np.ndarray,
    n_pieces: int,
    src: np.ndarray,
    dst: np.ndarray,
    lca: np.ndarray,
    levels: list[int],
    per_channel: bool,
) -> np.ndarray:
    """Per piece, for how many halving rounds it is sure to overload a
    channel (``0``: it fits).

    Counts loads per ``(piece, level, ancestor)`` key, one of the given
    ``levels`` at a time and only over the messages whose LCA lies above
    that level.  ``per_channel`` compares against
    :meth:`FatTree.cap_vector`; otherwise against the level's
    :meth:`FatTree.cap`.  A level-``k`` channel with load ``L`` over
    capacity ``c`` carries at most ``k`` groups, and an even split
    leaves each at least ``floor(load / 2)``, so every descendant ``r``
    rounds down still carries at least ``(L + k) / 2**r - k``: the piece
    and its descendants overload it for
    ``bit_length(ceil((L + k) / (c + k)) - 1)`` rounds.
    """
    depth = ft.depth
    owners: list[np.ndarray] = []
    ratios: list[np.ndarray] = []
    for leaves, direction in ((src, Direction.UP), (dst, Direction.DOWN)):
        comp = (piece << depth) | leaves
        order = _radix_argsort(comp, n_pieces << depth)
        comp, above = comp[order], lca[order]
        del order
        for k in levels:
            anc = comp[above < k]
            if anc.size == 0:
                continue
            anc >>= depth - k
            starts = run_starts(anc)
            counts = np.diff(starts, append=anc.size)
            keys = anc[starts]
            if per_channel:
                cap = ft.cap_vector(k, direction)[keys & ((1 << k) - 1)]
            else:
                cap = np.full(keys.size, ft.cap(k), dtype=np.int64)
            bad = counts > cap
            if not bad.any():
                continue
            cap = cap[bad]
            owners.append(keys[bad] >> k)
            ratios.append((counts[bad] + k + cap + k - 1) // (cap + k))
    worst = np.ones(n_pieces, dtype=np.int64)
    if owners:
        np.maximum.at(worst, np.concatenate(owners), np.concatenate(ratios))
    return _bit_lengths(worst - 1)


def halve_until_fit(
    ft: FatTree,
    messages: MessageSet,
    keys: np.ndarray,
    lca: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    *,
    per_channel: bool,
) -> np.ndarray:
    """Even-split pieces, level-synchronously, until every piece fits.

    ``order`` lists message indices with each starting piece contiguous
    from its entry in ``starts``, members in ascending group key and
    position order; ``keys``/``lca`` are :func:`message_group_keys` of
    ``messages``.  Each round splits every open piece that overloads a
    channel in one :func:`split_units` call, each (piece, group) pair a
    unit.  A piece is counted against the capacities (see
    :func:`_overloaded`) only once the rounds its last count promised
    have run out: until then the even-split bound already says it
    overloads, and both halves inherit what is left of the promise.  A
    count skips the levels whose least capacity is at least the largest
    piece's size.  The ``b`` half goes first in the piece's span, so
    ``order`` ends up with every final piece contiguous, in the order a
    depth-first halving that visits ``b`` before ``a`` finishes them.  ``order`` is updated
    in place; returns the final pieces' start positions.

    Raises ``ValueError`` when a one-message piece still overloads a
    channel (a capacity below one).
    """
    src_all, dst_all = messages.src, messages.dst
    m = order.size
    starts = np.asarray(starts, dtype=np.int64)
    # per level, the least channel capacity: a piece no larger fits there
    floor = np.array([
        min(int(ft.cap_vector(k, d).min()) for d in (Direction.UP, Direction.DOWN))
        if per_channel else ft.cap(k)
        for k in range(1, ft.depth + 1)
    ], dtype=np.int64)
    # per piece: rounds it is still sure to overload (0: test it), -1: done
    left = np.zeros(starts.size, dtype=np.int64)
    while True:
        act = np.flatnonzero(left >= 0)
        if act.size == 0:
            break
        lo = starts[act]
        sizes = np.append(starts, m)[act + 1] - lo
        piece = np.repeat(np.arange(act.size), sizes)
        pos = np.arange(piece.size) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
        rounds = left[act]
        test = rounds == 0
        if test.any():
            sel = test[piece]
            elems = order[pos[sel]]
            levels = np.flatnonzero(floor < sizes[test].max()) + 1
            rounds[test] = _overloaded(
                ft, (np.cumsum(test) - 1)[piece[sel]], int(test.sum()),
                src_all[elems], dst_all[elems], lca[elems], levels.tolist(),
                per_channel,
            )
        over = rounds > 0
        if bool((sizes[over] == 1).any()):
            raise ValueError(
                "a single message exceeds channel capacity; "
                "capacities must be >= 1 on every level"
            )
        left[act[~over]] = -1
        if not bool(over.any()):
            break
        sel = over[piece]
        pos, piece = pos[sel], piece[sel]
        elems = order[pos]
        is_b = split_units(
            src_all[elems], dst_all[elems], _run_ids(piece, keys[elems]), ft.depth
        )
        order[pos] = elems[_radix_argsort((piece << 1) | ~is_b, 2 * act.size)]
        n_b = np.bincount(piece[is_b], minlength=act.size)[over]
        carried = rounds[over] - 1  # both halves inherit the promise
        left[act[over]] = carried
        starts = np.concatenate((starts, starts[act[over]] + n_b))
        left = np.concatenate((left, carried))
        resort = _radix_argsort(starts, m + 1)
        starts, left = starts[resort], left[resort]
    return starts


def _pair_bottom_up(
    leaves: np.ndarray,
    lo: int,
    hi: int,
    pairs: list[tuple[int, int]],
) -> None:
    """Pair string ends bottom-up over the subtree with leaf range [lo, hi).

    ``leaves`` is the sorted array of leaf positions of the ends; entry
    ``t`` refers to end ``t`` (positions into the caller's order array).
    Appends pairs of *end indices* to ``pairs``.  At most one end stays
    unmatched.  Implemented iteratively on an explicit stack to keep deep
    trees out of Python's recursion limit.  (Splits use ``bisect`` on a
    plain list: the per-node slices are tiny, where numpy call overhead
    dominates — measured 2-3x faster on large schedules.)
    """
    from bisect import bisect_left

    leaf_list = leaves.tolist()
    # Each frame: (a, b, lo, hi, state); state 0 = descend, 1 = combine.
    # returns[] acts as the return stack of child leftover end indices.
    stack: list[tuple[int, int, int, int, int]] = [(0, len(leaf_list), lo, hi, 0)]
    returns: list[int | None] = []
    while stack:
        a, b, rlo, rhi, state = stack.pop()
        if state == 0:
            if a >= b:
                returns.append(None)
                continue
            if rhi - rlo == 1 or leaf_list[a] == leaf_list[b - 1]:
                # All ends at the same leaf (or in an unsplittable range):
                # pair consecutively.
                for t in range(a, b - 1, 2):
                    pairs.append((t, t + 1))
                returns.append(b - 1 if (b - a) % 2 else None)
                continue
            mid = (rlo + rhi) // 2
            m = bisect_left(leaf_list, mid, a, b)
            stack.append((a, b, rlo, rhi, 1))          # combine afterwards
            stack.append((m, b, mid, rhi, 0))          # right child
            stack.append((a, m, rlo, mid, 0))          # left child
        else:
            right = returns.pop()
            left = returns.pop()
            if left is not None and right is not None:
                pairs.append((left, right))
                returns.append(None)
            else:
                returns.append(left if left is not None else right)
    # The final leftover (returns[0]) stays unmatched, as in the paper.


def _pairs_for_side(ends: np.ndarray, lo: int, hi: int) -> list[tuple[int, int]]:
    """Matching phase for one side: pair the given ends (leaf positions,
    indexed by message position) within the leaf range [lo, hi).

    Returns pairs of *message positions*.
    """
    order = np.argsort(ends, kind="stable")
    sorted_ends = ends[order]
    raw_pairs: list[tuple[int, int]] = []
    _pair_bottom_up(sorted_ends, lo, hi, raw_pairs)
    return [(int(order[u]), int(order[v])) for u, v in raw_pairs]


def _two_colour(
    m: int,
    src_pairs: list[tuple[int, int]],
    dst_pairs: list[tuple[int, int]],
) -> np.ndarray:
    """Tracing phase: 2-colour the pairing graph on ``m`` messages.

    Every vertex has at most one edge of each kind, so components are
    paths and even (alternating) cycles; a BFS 2-colouring exists.
    """
    src_partner = np.full(m, -1, dtype=np.int64)
    dst_partner = np.full(m, -1, dtype=np.int64)
    for u, v in src_pairs:
        src_partner[u], src_partner[v] = v, u
    for u, v in dst_pairs:
        dst_partner[u], dst_partner[v] = v, u
    colour = np.full(m, -1, dtype=np.int8)
    for start in range(m):
        if colour[start] != -1:
            continue
        colour[start] = 0
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in (src_partner[u], dst_partner[u]):
                if v == -1:
                    continue
                if colour[v] == -1:
                    colour[v] = 1 - colour[u]
                    frontier.append(int(v))
                elif colour[v] == colour[u]:  # pragma: no cover - impossible
                    raise AssertionError("pairing graph is not bipartite")
    return colour


def _check_group(sub_src: np.ndarray, sub_dst: np.ndarray) -> int:
    """The group's common ``bitlen`` (LCA height); raises ``ValueError``
    unless every message shares one LCA node and crossing direction."""
    diff = sub_src ^ sub_dst
    bitlen = int(diff[0]).bit_length()
    if bitlen == 0:
        raise ValueError("group contains self-messages")
    if not ((sub_src >> bitlen) == (sub_src[0] >> bitlen)).all() or not (
        _bit_lengths(diff) == bitlen
    ).all():
        raise ValueError("messages do not share an LCA node")
    side = (sub_src >> (bitlen - 1)) & 1
    if not (side == side[0]).all():
        raise ValueError("messages do not share a crossing direction")
    return bitlen


def even_split_indices(
    messages: MessageSet, indices: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split a same-LCA, same-direction group of messages evenly.

    ``indices`` selects the group inside ``messages``.  Returns two index
    arrays partitioning ``indices`` such that every channel's load splits
    to within one message.  The group's common LCA and direction are
    recomputed here and verified.  Bit-identical to
    :func:`_reference_even_split_indices`.
    """
    if indices.size <= 1:
        return indices, indices[:0]
    sub_src = messages.src[indices]
    sub_dst = messages.dst[indices]
    _check_group(sub_src, sub_dst)
    unit = np.zeros(indices.size, dtype=np.int64)
    is_b = split_units(sub_src, sub_dst, unit, depth)
    return indices[~is_b], indices[is_b]


def _reference_even_split_indices(
    messages: MessageSet, indices: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """One group at a time: recursive bottom-up matching per side, then
    a breadth-first 2-colouring.  The oracle :func:`even_split_indices`
    is held bit-identical to."""
    if indices.size <= 1:
        return indices, indices[:0]
    sub_src = messages.src[indices]
    sub_dst = messages.dst[indices]
    bitlen = _check_group(sub_src, sub_dst)

    # Leaf ranges of the source-side and destination-side child subtrees.
    src_child = int(sub_src[0] >> (bitlen - 1))
    dst_child = src_child ^ 1
    span = 1 << (bitlen - 1)
    src_lo, src_hi = src_child * span, (src_child + 1) * span
    dst_lo, dst_hi = dst_child * span, (dst_child + 1) * span

    src_pairs = _pairs_for_side(sub_src, src_lo, src_hi)
    dst_pairs = _pairs_for_side(sub_dst, dst_lo, dst_hi)
    colour = _two_colour(indices.size, src_pairs, dst_pairs)
    return indices[colour == 0], indices[colour == 1]


def even_split(
    ft: FatTree, group: MessageSet
) -> tuple[MessageSet, MessageSet]:
    """Split a same-LCA, same-direction message set into even halves."""
    idx = np.arange(len(group))
    a, b = even_split_indices(group, idx, ft.depth)
    return group.take(a), group.take(b)


def even_split_all(
    ft: FatTree, messages: MessageSet
) -> tuple[MessageSet, MessageSet]:
    """Split an arbitrary message set, group by group.

    Each (LCA node, direction) group is split evenly on every channel; a
    channel used by ``g`` groups therefore splits to within ``g`` (and
    ``g <= lg n``), which is what Corollary 2's error argument needs.
    Self-messages are dropped (they need no routing).  Both halves list
    their messages by ascending group key, then position.  Bit-identical
    to :func:`_reference_even_split_all`.
    """
    keys, _ = message_group_keys(messages, ft.depth)
    order = np.argsort(keys, kind="stable")
    order = order[keys[order] != -1]
    is_b = split_units(
        messages.src[order], messages.dst[order], _run_ids(keys[order]), ft.depth
    )
    return messages.take(order[~is_b]), messages.take(order[is_b])


def _reference_even_split_all(
    ft: FatTree, messages: MessageSet
) -> tuple[MessageSet, MessageSet]:
    """:func:`even_split_all` one group at a time through
    :func:`_reference_even_split_indices` (the parity oracle)."""
    groups = group_indices(messages, ft.depth)
    parts_a: list[np.ndarray] = []
    parts_b: list[np.ndarray] = []
    for idx in groups.values():
        a, b = _reference_even_split_indices(messages, idx, ft.depth)
        parts_a.append(a)
        parts_b.append(b)
    empty = np.empty(0, dtype=np.int64)
    take_a = np.concatenate(parts_a) if parts_a else empty
    take_b = np.concatenate(parts_b) if parts_b else empty
    return messages.take(take_a), messages.take(take_b)
