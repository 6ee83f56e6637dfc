"""On-line routing: the direction the paper points at (§VI, ref. [8]).

    "In results to be reported elsewhere [Greenberg & Leiserson 1985] we
    have discovered a randomized routing algorithm that delivers all
    messages in O(λ(M) + lg n·lg lg n) delivery cycles with high
    probability."

The paper only *announces* this; this module implements the natural
random-rank contention-resolution scheme in that spirit and the benches
measure its cycle count against the announced ``λ + lg n·lg lg n``
shape:

Each delivery cycle, every pending message draws an independent uniform
rank.  Every channel grants its ``cap(c)`` wires to its lowest-ranked
contenders; a message is delivered iff it wins a wire on *every* channel
of its path (consistent ranks make the winner sets coherent down a
path).  Losers retry next cycle with fresh ranks — fully on-line: no
global knowledge, only per-channel comparisons, exactly what a switch
can do in hardware.

:func:`schedule_random_rank` runs the shared delivery driver
(:class:`~repro.core.delivery.DeliveryLoop`) with a vectorised attempt
step over the shared :class:`~repro.perf.PathIndex`: each cycle is one
argsort of the eligible messages' ranks, one radix sort of their path
entries by channel gid, and a grouped prefix count.  The pure-Python
predecessor is retained as :func:`_reference_schedule_random_rank`; the
two are bit-identical for any seed (property-tested), so every
published cycle count is unchanged.

Degraded-mode extensions (:mod:`repro.faults`): capacities are read per
channel, so a :class:`~repro.faults.DegradedFatTree` is routed against
its surviving wires; messages whose path is severed raise
:class:`~repro.core.errors.UnroutableError` up front.  A positive
``loss_rate`` (taken from the tree's fault model when not given)
corrupts each would-be delivery independently; corrupted and congested
messages are NACKed and re-injected after a capped binary exponential
backoff; the driver's cycle budget turns a run that cannot finish into
a structured :class:`~repro.core.errors.DeliveryTimeout`.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from ..chaos.engine import ChaosController
    from ..faults.backoff import BackoffPolicy
    from ..obs import Obs
    from ..perf import PathIndex
    from ._types import FloatArray, IntArray

from .delivery import Attempt, DeliveryLoop
from .errors import DeliveryTimeout, UnroutableError
from .fattree import Direction, FatTree
from .message import MessageSet
from .radix import _radix_argsort
from .schedule import Schedule
from .tree import path_channel_keys

__all__ = [
    "schedule_random_rank",
    "online_cycle_bound",
    "_reference_schedule_random_rank",
]


def online_cycle_bound(ft: FatTree, lam: float, constant: float = 8.0) -> float:
    """The announced high-probability shape: c·(λ(M) + lg n·lg lg n)."""
    lg = max(1.0, ft.depth)
    return constant * (max(lam, 1.0) + lg * max(1.0, math.log2(lg)))


def _validate_args(
    ft: FatTree, messages: MessageSet, loss_rate: float | None, max_backoff: int
) -> float:
    if messages.n != ft.n:
        raise ValueError("message set and fat-tree disagree on n")
    if loss_rate is None:
        model = getattr(ft, "faults", None)
        loss_rate = model.loss_rate if model is not None else 0.0
    if not (0.0 <= loss_rate < 1.0):
        raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
    if max_backoff < 1:
        raise ValueError("max_backoff must be >= 1")
    return loss_rate


def schedule_random_rank(
    ft: FatTree,
    messages: MessageSet,
    *,
    seed: int = 0,
    max_cycles: int = 100_000,
    loss_rate: float | None = None,
    max_backoff: int = 16,
    backoff: BackoffPolicy | None = None,
    obs: Obs | None = None,
    chaos: ChaosController | None = None,
) -> Schedule:
    """Deliver ``messages`` with random-rank on-line contention
    resolution; returns the per-cycle delivery trace as a
    :class:`Schedule` (each cycle is a valid one-cycle set by
    construction).

    The cycle loop is :class:`~repro.core.delivery.DeliveryLoop` — its
    budget, chaos handling and per-cycle record apply; this stack
    supplies the attempt step: one rank draw per eligible message, the
    per-channel grant and the corruption draws.  ``loss_rate`` is the
    per-delivery-attempt corruption probability (``None`` reads the
    tree's fault model, defaulting to 0).  A corrupted or congested
    message backs off for a uniformly random number of cycles within a
    window that doubles per failed attempt, capped at ``max_backoff``
    (or the explicit ``backoff`` policy; the default policy reproduces
    the historic constants bit for bit) — cycles where every pending
    message is backing off appear as empty delivery cycles in the
    schedule.  ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives the driver's ``cycle``
    records, utilisation histograms and a kernel wall-time span;
    instrumentation never touches the RNG.  ``chaos`` attaches a
    :class:`~repro.chaos.ChaosController`; the schedule then carries
    per-cycle :class:`~repro.core.CycleStats` and the dropped messages,
    and with an empty timeline it is bit-identical to a healthy run.

    This is the vectorised kernel; it is bit-identical, seed for seed,
    to :func:`_reference_schedule_random_rank`.
    """
    from ..faults.backoff import BackoffPolicy
    from ..obs import resolve_obs
    from ..perf import get_path_index

    obs = resolve_obs(obs)
    loss_rate = _validate_args(ft, messages, loss_rate, max_backoff)
    policy = backoff if backoff is not None else BackoffPolicy(base=1, cap=max_backoff)
    rng = np.random.default_rng(seed)
    routable = messages.without_self_messages()
    index = get_path_index(ft, routable, obs=obs)
    mask = index.routable_mask()
    if chaos is None and not mask.all():
        raise UnroutableError(routable.take(~mask).as_pairs())
    loop = _RandomRank(
        ft,
        routable,
        index,
        rngs=[rng],
        loss_rate=loss_rate,
        scheduler="random_rank",
        max_cycles=max_cycles,
        obs=obs,
        chaos=chaos,
        policy=policy,
        jrngs=[policy.jitter_rng(rng)],
    )
    with obs.kernel("schedule_random_rank", n=ft.n, m=len(routable), seed=seed):
        loop.run()
    cycles = [routable.take(rows) for rows in loop.delivered_log]
    n_self = len(messages) - len(routable)
    if chaos is None:
        return Schedule(cycles=cycles, n_self_messages=n_self)
    return Schedule(
        cycles=cycles,
        n_self_messages=n_self,
        cycle_stats=list(chaos.cycle_stats),
        dropped=chaos.dropped_messages(routable),
    )


class _RandomRank(DeliveryLoop):
    """Random-rank contention: each cycle every eligible message draws a
    uniform rank and each channel grants its ``cap(c)`` wires to its
    lowest-ranked contenders.

    Set ``b`` draws its ranks, then its corruption draws, from
    ``rngs[b]``.  With several sets, set ``b``'s gids are shifted by
    ``b · num_slots`` against a capacity vector tiled B times, so the
    sets hold disjoint channel ranges and one gid sort grants them
    all; each gid group then lies within one set, with the solo run's
    contenders, ranks and tie-break order.
    """

    def __init__(
        self,
        ft: FatTree,
        routable: MessageSet,
        index: PathIndex,
        *,
        rngs: list[np.random.Generator],
        loss_rate: float,
        **loop_args: Any,
    ):
        super().__init__(ft, routable, index, **loop_args)
        self.rngs = rngs
        self.loss_rate = loss_rate
        self.shifted: tuple[IntArray, IntArray] | None = None
        if self.n_sets > 1:
            shift = np.repeat(np.arange(self.n_sets) * index.num_slots, np.diff(self.offsets))
            self.shifted = (
                index.paths + shift[:, np.newaxis],
                np.tile(index.caps, self.n_sets),
            )

    def draw(self, rows: IntArray) -> FloatArray:
        """One uniform draw per row, each from its own set's stream."""
        if self.n_sets == 1:
            return self.rngs[0].random(rows.size)
        return np.concatenate(
            [rng.random(c) for rng, c in zip(self.rngs, self.counts(rows))]
        )

    def attempt(self, rows: IntArray, t: int) -> Attempt:
        paths, caps = self.shifted or (self.index.paths, self.index.caps)
        width = paths.shape[1]
        # entries laid out in (rank, arrival, column) order, then one
        # stable sort by gid resolves every channel's grant at once:
        # within each gid group the first cap(c) entries win a wire
        by_rank = np.argsort(self.draw(rows), kind="stable")
        gids = paths[rows[by_rank]].ravel()
        entry_msg = np.repeat(by_rank, width)
        order = _radix_argsort(gids, caps.size)
        sg = gids[order]
        head = np.empty(sg.size, dtype=bool)
        head[0] = True
        np.not_equal(sg[1:], sg[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        counts = np.empty(starts.size, dtype=np.int64)
        counts[:-1] = starts[1:] - starts[:-1]
        counts[-1] = sg.size - starts[-1]
        pos_in_group = np.arange(sg.size) - np.repeat(starts, counts)
        won = pos_in_group < caps[sg]
        wins = np.bincount(entry_msg[order][won], minlength=rows.size)
        delivered_pos = np.flatnonzero(wins == width)  # won every channel
        lr = self.loss_rate if self.chaos is None else self.chaos.loss_rate(self.loss_rate)
        if lr:
            # transient corruption: a won path can still deliver garbage,
            # which the destination NACKs — the source must retry
            survived = self.draw(rows[delivered_pos]) >= lr
            delivered_pos = delivered_pos[survived]
        del_mask = np.zeros(rows.size, dtype=bool)
        del_mask[delivered_pos] = True
        return Attempt(rows, rows[delivered_pos], rows[~del_mask], lossy=bool(lr))


def _reference_schedule_random_rank(
    ft: FatTree,
    messages: MessageSet,
    *,
    seed: int = 0,
    max_cycles: int = 100_000,
    loss_rate: float | None = None,
    max_backoff: int = 16,
    backoff: BackoffPolicy | None = None,
) -> Schedule:
    """Pure-Python random-rank router, kept as the equality oracle for
    the vectorised :func:`schedule_random_rank` (identical semantics,
    identical RNG consumption, identical schedules for any seed)."""
    from ..faults.backoff import BackoffPolicy

    loss_rate = _validate_args(ft, messages, loss_rate, max_backoff)
    policy = backoff if backoff is not None else BackoffPolicy(base=1, cap=max_backoff)
    rng = np.random.default_rng(seed)
    jrng = policy.jitter_rng(rng)
    routable = messages.without_self_messages()
    mask = ft.routable_mask(routable)
    if not mask.all():
        raise UnroutableError(routable.take(~mask).as_pairs())
    n_self = len(messages) - len(routable)
    depth = ft.depth
    paths = [
        path_channel_keys(int(s), int(d), depth) for s, d in routable
    ]
    directions = (Direction.UP, Direction.DOWN)
    caps = {
        key: ft.chan_cap(key[0], key[1], directions[key[2]])
        for path in paths
        for key in path
    }
    m = len(routable)
    attempts = [0] * m
    next_try = [0] * m
    pending = list(range(m))
    cycles: list[MessageSet] = []

    def _timeout(t: int) -> DeliveryTimeout:
        pairs = routable.as_pairs()
        return DeliveryTimeout(
            [pairs[i] for i in pending],
            t,
            Counter(attempts[i] for i in pending),
        )

    while pending:
        t = len(cycles)
        if t >= max_cycles:
            raise _timeout(t)
        eligible = [i for i in pending if next_try[i] <= t]
        if not eligible:
            if min(next_try[i] for i in pending) >= max_cycles:
                raise _timeout(t)
            cycles.append(MessageSet.empty(ft.n))  # everyone backing off
            continue
        for i in eligible:
            attempts[i] += 1
        ranks = rng.random(len(eligible))
        # per-channel grant: lowest cap(c) ranks win each channel
        contenders: dict[tuple[int, int, int], list[tuple[float, int]]] = {}
        for pos, i in enumerate(eligible):
            for key in paths[i]:
                contenders.setdefault(key, []).append((ranks[pos], pos))
        winners_per_channel: dict[tuple[int, int, int], set[int]] = {}
        for key, lst in contenders.items():
            lst.sort()
            winners_per_channel[key] = {p for _, p in lst[: caps[key]]}
        delivered = [
            pos
            for pos, i in enumerate(eligible)
            if all(pos in winners_per_channel[key] for key in paths[i])
        ]
        if loss_rate:
            survived = rng.random(len(delivered)) >= loss_rate
            delivered = [p for p, ok in zip(delivered, survived) if ok]
        elif not delivered:
            raise _timeout(t)
        delivered_set = {eligible[p] for p in delivered}
        cycles.append(
            routable.take(np.array(sorted(delivered_set), dtype=np.int64))
        )
        for i in eligible:
            if i not in delivered_set:
                if loss_rate:
                    window = policy.window(attempts[i])
                    next_try[i] = t + 1 + int(jrng.integers(0, window))
                else:
                    next_try[i] = t + 1  # pure contention: retry immediately

        pending = [i for i in pending if i not in delivered_set]
    return Schedule(cycles=cycles, n_self_messages=n_self)
