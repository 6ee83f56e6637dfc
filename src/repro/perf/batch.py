"""Batched scheduling: B message sets against one tree in one 3-D pass.

The throughput shape the planned ``repro.serve`` daemon consumes — and
the workload shape topology-evaluation studies need — is *many small
message sets against the same fat-tree*.  Scheduling them one
:class:`~repro.core.MessageSet` at a time pays the fixed costs B times
over: a :class:`~repro.perf.PathIndex` cache probe (or build) per set,
a kernel dispatch per set, and — for the on-line kernel — one lexsort
per set per cycle over a tiny entry array.

:func:`batch_schedule` amortises all three with a *channel-offset
embedding*.  The B sets' path matrices are stacked into one
``(Σ m_b, 2·depth)`` gid matrix whose rows for set ``b`` are shifted by
``b · num_slots``, and the capacity vector is tiled B times.  Under
this embedding the sets occupy pairwise-disjoint channel ranges, so

* one :func:`repro.perf.firstfit.first_fit_assign` call packs all B
  first-fit problems at once (set ``b``'s greedy packing of any cycle
  only ever meets set ``b``'s own channels — the combined run is the
  B independent runs, interleaved), and
* one lexsort per *global* cycle resolves every set's random-rank
  channel grants (each offset-gid group is wholly within one set, with
  the same contenders, the same ranks from that set's own seeded
  stream, and the same tie-break order as the solo kernel's group).

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

from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..core.fattree import FatTree
    from ..obs import Obs
    from .pathindex import PathIndex

from ..core.delivery import level_capacity_totals, record_cycle, record_offline_cycles
from ..core.errors import DeliveryTimeout, UnroutableError
from ..core.message import MessageSet
from ..core.registry import BATCH_KERNELS
from ..core.schedule import CycleStats, Schedule

__all__ = ["batch_schedule", "_reference_batch_schedule"]


def _combined_index(
    ft: FatTree, message_sets: list[MessageSet], obs: "Obs | None"
) -> "tuple[list[MessageSet], PathIndex, np.ndarray]":
    """One PathIndex over the concatenation of all routable sets.

    Paths depend only on (src, dst, depth), so the concatenated index's
    row block for set ``b`` equals set ``b``'s own index rows — one
    build (and one cache slot) replaces B.  Returns the per-set
    routable sets, the combined index, and the row offset of each set.
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
    return routables, index, offsets


def _batch_greedy(
    ft: FatTree, message_sets: list[MessageSet], order: str, obs: "Obs"
) -> list[Schedule]:
    from ..core.greedy import _placement_order
    from .firstfit import first_fit_assign

    routables, index, offsets = _combined_index(ft, message_sets, obs)
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
    from ..core.online import _validate_args
    from ..faults.backoff import BackoffPolicy

    lr = 0.0
    for ms in message_sets:
        lr = _validate_args(ft, ms, loss_rate, max_backoff)
    policy = BackoffPolicy(base=1, cap=max_backoff)
    routables, index, offsets = _combined_index(ft, message_sets, obs)
    B = len(routables)
    num_slots = index.num_slots
    width = index.paths.shape[1]
    caps_tiled = np.tile(index.caps, B)
    total_m = int(offsets[-1])

    # flat solo state over the concatenated messages: pending / attempts
    # / next_try updates are whole-array passes, and the per-set view is
    # recovered by slicing at ``offsets``.  Each set still draws from
    # its own default_rng(seed) stream in exactly the solo kernel's
    # positions — that is the bit-parity invariant.
    set_of_row = np.repeat(np.arange(B, dtype=np.int64), np.diff(offsets))
    rngs = [np.random.default_rng(seed) for _ in range(B)]
    jrngs = [policy.jitter_rng(rngs[b]) for b in range(B)]
    attempts = np.zeros(total_m, dtype=np.int64)
    next_try = np.zeros(total_m, dtype=np.int64)
    pending = np.ones(total_m, dtype=bool)
    n_pending = np.diff(offsets).astype(np.int64)
    cycle_lists: list[list[MessageSet]] = [[] for _ in range(B)]
    failures: dict[int, DeliveryTimeout] = {}

    def _fail(b: int, t: int) -> None:
        # records the DeliveryTimeout the solo kernel would raise at its
        # cycle t, then retires the set so the joint loop moves on
        sl = slice(int(offsets[b]), int(offsets[b + 1]))
        pend_b = pending[sl]
        failures[b] = DeliveryTimeout(
            routables[b].take(np.flatnonzero(pend_b)).as_pairs(),
            t,
            Counter(attempts[sl][pend_b].tolist()),
        )
        pending[sl] = False
        n_pending[b] = 0

    tracing = obs.enabled
    if tracing:
        level_cap_totals = level_capacity_totals(ft)

    with obs.kernel(
        "batch_schedule", n=ft.n, b=B, m=total_m, engine="random_rank", seed=seed
    ):
        # every live set appends exactly one cycle per iteration, so the
        # iteration counter t equals each solo kernel's local cycle
        t = 0
        while True:
            if not n_pending.any():
                break
            if t >= max_cycles:
                for b in np.flatnonzero(n_pending).tolist():
                    _fail(b, t)
                break
            elig = np.flatnonzero(pending & (next_try <= t))
            set_of_elig = set_of_row[elig]
            cnt = np.bincount(set_of_elig, minlength=B)
            stalled = np.flatnonzero((cnt == 0) & (n_pending > 0))
            for b in stalled.tolist():
                sl = slice(int(offsets[b]), int(offsets[b + 1]))
                if int(next_try[sl][pending[sl]].min()) >= max_cycles:
                    _fail(b, t)  # livelock: no eligibility within budget
                    continue
                cycle_lists[b].append(MessageSet.empty(ft.n))
                if tracing:
                    pend = int(n_pending[b])
                    record_cycle(
                        obs,
                        "batch_random_rank",
                        t,
                        CycleStats(pend, 0, 0, 0, pend, 0),
                        set=b,
                    )
            if elig.size == 0:
                t += 1
                continue
            attempts[elig] += 1
            # elig is sorted, so entries fall into contiguous ascending
            # set blocks; fill each block from its own rank stream
            ranks = np.empty(elig.size, dtype=np.float64)
            pos = 0
            for b in np.flatnonzero(cnt).tolist():
                c = int(cnt[b])
                ranks[pos : pos + c] = rngs[b].random(c)
                pos += c
            # one lexsort resolves every set's channel grants at once:
            # each offset-gid group lies wholly within one set, with the
            # solo kernel's contenders, ranks and tie-break order
            gids = (
                index.paths[elig] + set_of_elig[:, np.newaxis] * num_slots
            ).reshape(-1)
            entry_msg = np.repeat(np.arange(elig.size, dtype=np.int64), width)
            order = np.lexsort((entry_msg, ranks[entry_msg], gids))
            sg = gids[order]
            seg = np.empty(sg.size, dtype=bool)
            seg[0] = True
            np.not_equal(sg[1:], sg[:-1], out=seg[1:])
            starts = np.flatnonzero(seg)
            counts = np.empty(starts.size, dtype=np.int64)
            counts[:-1] = starts[1:] - starts[:-1]
            counts[-1] = sg.size - starts[-1]
            pos_in_group = np.arange(sg.size) - np.repeat(starts, counts)
            won = pos_in_group < caps_tiled[sg]
            wins = np.bincount(entry_msg[order][won], minlength=elig.size)
            delivered_mask = wins == width  # per eligible entry
            if lr:
                # per-set survival draws, in stream order after ranks
                base = 0
                for b in np.flatnonzero(cnt).tolist():
                    c = int(cnt[b])
                    block = delivered_mask[base : base + c]
                    k = int(block.sum())
                    if k:
                        block[np.flatnonzero(block)] = rngs[b].random(k) >= lr
                    base += c
            dcnt = np.bincount(
                set_of_elig[delivered_mask], minlength=B
            )
            if not lr:
                # a no-progress cycle means the solo kernel times out
                for b in np.flatnonzero((cnt > 0) & (dcnt == 0)).tolist():
                    _fail(b, t)
            delivered_flat = elig[delivered_mask]
            failed_flat = elig[~delivered_mask]
            bounds = np.cumsum(dcnt)
            if tracing:
                # per-set failures on a first attempt vs. on a retry
                first = np.bincount(
                    set_of_row[failed_flat[attempts[failed_flat] == 1]],
                    minlength=B,
                )
            for b in np.flatnonzero(cnt).tolist():
                if b in failures:
                    continue
                hi = int(bounds[b])
                part = delivered_flat[hi - int(dcnt[b]) : hi]
                cycle_lists[b].append(routables[b].take(part - int(offsets[b])))
                if tracing:
                    lost = int(cnt[b] - dcnt[b])
                    record_cycle(
                        obs,
                        "batch_random_rank",
                        t,
                        CycleStats(
                            in_flight=int(n_pending[b]),
                            delivered=int(dcnt[b]),
                            congested=int(first[b]),
                            retried=lost - int(first[b]),
                            deferred=int(n_pending[b] - cnt[b]),
                            dropped=0,
                        ),
                        index=index,
                        delivered_idx=part,
                        level_cap_totals=level_cap_totals,
                        set=b,
                    )
            if lr:
                # ascending rows = per-set ascending local order, the
                # exact jitter draw order of each solo kernel
                for row in failed_flat.tolist():
                    b = int(set_of_row[row])
                    if b in failures:
                        continue
                    window = policy.window(int(attempts[row]))
                    next_try[row] = t + 1 + int(jrngs[b].integers(0, window))
            else:
                next_try[failed_flat] = t + 1  # retry immediately
            pending[delivered_flat] = False
            n_pending -= dcnt
            t += 1

    if failures:
        # the serial loop would surface the lowest-index failing set
        raise failures[min(failures)]
    # returned per set; validated externally by the conformance oracle
    return [
        Schedule(  # reprolint: ignore[schedule-hygiene]
            cycles=cycle_lists[b],
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
    lexsort per global cycle instead of one per set per cycle.

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
