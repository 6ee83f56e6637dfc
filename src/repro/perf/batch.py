"""Batched scheduling: B message sets against one tree in one 3-D pass.

The throughput shape the ``repro.serve`` daemon consumes — and the
workload shape topology-evaluation studies need — is *many small
message sets against the same fat-tree*.  Scheduling them one
:class:`~repro.core.MessageSet` at a time pays the fixed costs B times
over: a :class:`~repro.perf.PathIndex` cache probe (or build) per set,
a kernel dispatch per set, and — for the on-line kernel — one grant
sort per set per cycle over a tiny entry array.

:func:`batch_schedule` amortises all three with a *channel-offset
embedding*.  The B sets' path matrices are stacked into one
``(Σ m_b, 2·depth)`` gid matrix whose rows for set ``b`` are shifted by
``b · num_slots``, and the capacity vector is tiled B times.  Under
this embedding the sets occupy pairwise-disjoint channel ranges, so

* one :func:`repro.perf.firstfit.first_fit_assign` call packs all B
  first-fit problems at once (set ``b``'s greedy packing of any cycle
  only ever meets set ``b``'s own channels — the combined run is the
  B independent runs, interleaved), and
* the on-line kernel runs the B sets as one
  :class:`~repro.core.delivery.DeliveryLoop` with a set axis — the
  solo kernel's own ``_RandomRank`` loop — whose one gid sort per
  shared cycle resolves every set's channel grants (each offset-gid
  group is wholly within one set, with the same contenders, the same
  ranks from that set's own seeded stream, and the same tie-break
  order as the solo kernel's group).  Budget, livelock, stall, backoff
  and the cycle records are the loop's, per set.

Bit-parity contract: :func:`batch_schedule` is **bit-identical to B
independent calls** of the corresponding solo kernel —
:func:`~repro.core.greedy.schedule_greedy_first_fit` or
:func:`~repro.core.online.schedule_random_rank` — on healthy *and*
:class:`~repro.faults.DegradedFatTree` trees, for every kernel, order,
and seed.  The serial loop is retained as
:func:`_reference_batch_schedule`, the paired equality oracle, and the
``batched:*`` fuzz family (:mod:`repro.verify`) cross-checks the two on
every run.

RNG discipline: the on-line path holds one ``default_rng(seed)`` stream
*per set*, consumed in exactly the positions the solo kernel consumes
its single stream — draws for different sets come from different
streams, so the interleaving introduced by the shared cycle loop cannot
perturb any set's sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..core.fattree import FatTree
    from ..obs import Obs
    from .pathindex import PathIndex

from ..core.delivery import level_capacity_totals, record_offline_cycles
from ..core.errors import UnroutableError
from ..core.message import MessageSet
from ..core.registry import BATCH_KERNELS
from ..core.schedule import Schedule

__all__ = ["batch_schedule", "_reference_batch_schedule"]


def _combined_index(
    ft: FatTree, message_sets: list[MessageSet], obs: "Obs | None"
) -> "tuple[list[MessageSet], MessageSet, PathIndex, np.ndarray]":
    """One PathIndex over the concatenation of all routable sets.

    Paths depend only on (src, dst, depth), so the concatenated index's
    row block for set ``b`` equals set ``b``'s own index rows — one
    build (and one cache slot) replaces B.  Returns the per-set
    routable sets, their concatenation, its index, and the row offset
    of each set.
    """
    from . import get_path_index

    routables = [ms.without_self_messages() for ms in message_sets]
    sizes = [len(r) for r in routables]
    offsets = np.zeros(len(routables) + 1, dtype=np.int64)
    np.cumsum(np.asarray(sizes, dtype=np.int64), out=offsets[1:])
    combined = MessageSet(
        np.concatenate([r.src for r in routables]),
        np.concatenate([r.dst for r in routables]),
        ft.n,
    )
    index = get_path_index(ft, combined, obs=obs)
    mask = index.routable_mask()
    if not mask.all():
        # first unroutable *set* wins, matching the serial loop's order
        for b, r in enumerate(routables):
            bad = ~mask[offsets[b] : offsets[b + 1]]
            if bad.any():
                raise UnroutableError(r.take(bad).as_pairs())
    return routables, combined, index, offsets


def _batch_greedy(
    ft: FatTree, message_sets: list[MessageSet], order: str, obs: "Obs"
) -> list[Schedule]:
    from ..core.greedy import _placement_order
    from .firstfit import first_fit_assign

    routables, _, index, offsets = _combined_index(ft, message_sets, obs)
    B = len(routables)
    num_slots = index.num_slots
    total_m = int(offsets[-1])

    set_of_row = np.repeat(np.arange(B, dtype=np.int64), np.diff(offsets))
    # per-set placement orders, batched (identical to each solo call):
    # ``global_perm`` lists combined row indices in processing order,
    # set blocks contiguous and ascending
    if order == "longest-first" and total_m:
        # one stable argsort over (set, -length) reproduces every solo
        # ``argsort(-lengths, kind="stable")``: the set term dominates,
        # and within a set ties keep input order exactly as solo does
        max_len = np.int64(int(index.path_len.max()) + 1)
        key = set_of_row * max_len + (max_len - 1 - index.path_len)
        global_perm = np.argsort(key, kind="stable")
    elif order == "random":
        # solo re-seeds default_rng(0) per call — mirror that per set
        global_perm = np.concatenate(
            [
                np.asarray(offsets[b], dtype=np.int64)
                + _placement_order(ft, r, order)
                for b, r in enumerate(routables)
            ]
            or [np.zeros(0, dtype=np.int64)]
        )
    else:
        if order not in ("given", "longest-first"):
            _placement_order(ft, MessageSet.empty(ft.n), order)  # raises
        global_perm = np.arange(total_m, dtype=np.int64)

    with obs.kernel("batch_schedule", n=ft.n, b=B, m=total_m, engine="greedy"):
        packed = np.zeros(total_m, dtype=np.int64)
        if total_m:
            # offset embedding: shift set b's gids into its private
            # channel range [b·num_slots, (b+1)·num_slots) — pads
            # (gid 0) land on b·num_slots, whose tiled capacity is the
            # pad cap: never binds
            rows = (
                index.paths[global_perm]
                + set_of_row[:, np.newaxis] * num_slots
            )
            caps = np.tile(index.caps, B)
            # per-set strategy dispatch: the sets are channel-disjoint,
            # so each set's first-fit packing — and therefore the engine
            # strategy that suits it — is independent of the others.  A
            # single combined call would let one heavily-overloaded set
            # drag every light set through the sequential scan; instead,
            # sets whose demand nowhere exceeds capacity pack into cycle
            # 0 outright, and the rest are grouped by overload ratio so
            # each group re-dispatches to its own best strategy.
            demand = np.bincount(rows.reshape(-1), minlength=caps.size)
            set_ratio = (demand / np.maximum(caps, 1)).reshape(
                B, num_slots
            ).max(axis=1)
            heavy = set_ratio >= 3.0
            for group in (~heavy & (set_ratio > 1.0), heavy):
                take = group[set_of_row]
                if take.any():
                    packed[take], _ = first_fit_assign(rows[take], caps)

    schedules: list[Schedule] = []
    level_cap_totals = level_capacity_totals(ft) if obs.enabled else None
    for b, r in enumerate(routables):
        lo, hi = int(offsets[b]), int(offsets[b + 1])
        m_b = hi - lo
        assignment = np.zeros(m_b, dtype=np.int64)
        assignment[global_perm[lo:hi] - lo] = packed[lo:hi]
        # every cycle a solo run opens is non-empty, and set b's cycles
        # in the combined packing coincide with its solo cycles
        num_cycles = int(assignment.max()) + 1 if m_b else 0
        cycles = [r.take(assignment == t) for t in range(num_cycles)]
        if level_cap_totals is not None:
            record_offline_cycles(
                obs,
                "batch_greedy_first_fit",
                [len(c) for c in cycles],
                rows=[lo + np.flatnonzero(assignment == t) for t in range(num_cycles)],
                index=index,
                level_cap_totals=level_cap_totals,
                set=b,
            )
        n_self = len(message_sets[b]) - m_b
        # returned to the caller in the per-set list; validated externally
        # by the conformance oracle (validating B times here would undo
        # the batching win)
        schedules.append(Schedule(cycles=cycles, n_self_messages=n_self))  # reprolint: ignore[schedule-hygiene]
    return schedules


def _batch_random_rank(
    ft: FatTree,
    message_sets: list[MessageSet],
    seed: int,
    max_cycles: int,
    loss_rate: float | None,
    max_backoff: int,
    obs: "Obs",
) -> list[Schedule]:
    from ..core.online import _RandomRank, _validate_args
    from ..faults.backoff import BackoffPolicy

    lr = 0.0
    for ms in message_sets:
        lr = _validate_args(ft, ms, loss_rate, max_backoff)
    policy = BackoffPolicy(base=1, cap=max_backoff)
    routables, combined, index, offsets = _combined_index(ft, message_sets, obs)
    B = len(routables)
    # one default_rng(seed) stream per set, drawn in the solo run's
    # positions: the bit-parity invariant
    rngs = [np.random.default_rng(seed) for _ in range(B)]
    loop = _RandomRank(
        ft,
        combined,
        index,
        rngs=rngs,
        loss_rate=lr,
        scheduler="batch_random_rank",
        max_cycles=max_cycles,
        obs=obs,
        policy=policy,
        jrngs=[policy.jitter_rng(rng) for rng in rngs],
        offsets=offsets,
    )
    with obs.kernel(
        "batch_schedule", n=ft.n, b=B, m=int(offsets[-1]), engine="random_rank", seed=seed
    ):
        loop.run()
    # set b's cycles run up to the one that delivers its last row
    cycles: list[list[MessageSet]] = [[] for _ in range(B)]
    left = np.diff(offsets).tolist()
    for rows in loop.delivered_log:
        for b, block in enumerate(loop.split(rows)):
            if left[b]:
                cycles[b].append(routables[b].take(block - offsets[b]))
                left[b] -= block.size
    # returned per set; validated externally by the conformance oracle
    return [
        Schedule(  # reprolint: ignore[schedule-hygiene]
            cycles=cycles[b],
            n_self_messages=len(message_sets[b]) - len(routables[b]),
        )
        for b in range(B)
    ]


def batch_schedule(
    ft: FatTree,
    message_sets: list[MessageSet],
    *,
    kernel: str = "greedy",
    order: str = "longest-first",
    seed: int = 0,
    max_cycles: int = 100_000,
    loss_rate: float | None = None,
    max_backoff: int = 16,
    obs: Obs | None = None,
) -> list[Schedule]:
    """Schedule B message sets against one tree in a single 3-D pass.

    ``kernel`` selects the scheduler: ``"greedy"`` (off-line first-fit,
    honouring ``order``) or ``"random_rank"`` (on-line contention
    resolution, honouring ``seed`` / ``max_cycles`` / ``loss_rate`` /
    ``max_backoff``).  Returns one :class:`Schedule` per input set, in
    order.

    Bit-parity contract: the result is **bit-identical to B independent
    calls** of the solo kernel
    (:func:`~repro.core.greedy.schedule_greedy_first_fit` resp.
    :func:`~repro.core.online.schedule_random_rank` with the same
    keyword arguments) on healthy and
    :class:`~repro.faults.DegradedFatTree` trees — the equality oracle
    is :func:`_reference_batch_schedule`, exactly that serial loop.
    Error behaviour matches too: the first set (in input order) whose
    messages are unroutable raises :class:`UnroutableError`, and the
    lowest-index set that times out raises its
    :class:`DeliveryTimeout`.

    The amortisation: one PathIndex build/cache-probe for all B sets
    (paths depend only on endpoints), one first-fit engine call — the
    B path matrices are stacked with per-set gid offsets into disjoint
    channel ranges of a tiled capacity vector — and, on-line, one
    grant sort per global cycle instead of one per set per cycle.

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives one ``batch_schedule``
    kernel span plus per-set per-cycle ``cycle`` records (each naming
    its ``set``) under the ``batch_greedy_first_fit`` /
    ``batch_random_rank`` scheduler labels;
    instrumentation never touches any RNG stream.
    """
    from ..obs import resolve_obs

    if kernel not in BATCH_KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {BATCH_KERNELS}")
    obs = resolve_obs(obs)
    if not message_sets:
        return []
    for ms in message_sets:
        if ms.n != ft.n:
            raise ValueError("message set and fat-tree disagree on n")
    if kernel == "greedy":
        return _batch_greedy(ft, message_sets, order, obs)
    return _batch_random_rank(
        ft, message_sets, seed, max_cycles, loss_rate, max_backoff, obs
    )


def _reference_batch_schedule(
    ft: FatTree,
    message_sets: list[MessageSet],
    *,
    kernel: str = "greedy",
    order: str = "longest-first",
    seed: int = 0,
    max_cycles: int = 100_000,
    loss_rate: float | None = None,
    max_backoff: int = 16,
    obs: Obs | None = None,
) -> list[Schedule]:
    """Serial per-set loop, kept as the equality oracle for the batched
    :func:`batch_schedule` (identical placements and delivery traces,
    hence identical schedules, for every kernel, order and seed)."""
    from ..core.greedy import schedule_greedy_first_fit
    from ..core.online import schedule_random_rank
    from ..obs import resolve_obs

    if kernel not in BATCH_KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {BATCH_KERNELS}")
    obs = resolve_obs(obs)
    if kernel == "greedy":
        return [
            schedule_greedy_first_fit(ft, ms, order=order, obs=obs)
            for ms in message_sets
        ]
    return [
        schedule_random_rank(
            ft,
            ms,
            seed=seed,
            max_cycles=max_cycles,
            loss_rate=loss_rate,
            max_backoff=max_backoff,
            obs=obs,
        )
        for ms in message_sets
    ]
