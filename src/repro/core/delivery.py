"""The delivery driver: the §II acknowledge-and-retry loop, written once.

Each delivery cycle, pending messages try to cross the network;
messages that lose a channel are not acknowledged and retry in a later
cycle.  Every on-line stack runs that loop, and so does the off-line
chaos replay:

* random-rank contention (:func:`~repro.core.online.schedule_random_rank`),
  and its batched form (:func:`~repro.perf.batch_schedule` with
  ``kernel="random_rank"``), which runs B message sets as one loop,
* shuffle-and-retry (:func:`~repro.core.greedy.simulate_online_retry`),
* the bit-serial switch simulator
  (:func:`~repro.hardware.switchsim.run_until_delivered`),
* store-and-forward (:func:`~repro.hardware.buffered.run_store_and_forward`),
* the off-line chaos replay (:func:`~repro.chaos.run_chaos` of an
  off-line stack), which repairs each scheduled cycle against the
  degraded capacities.

Each is a :class:`DeliveryLoop` subclass that supplies only its attempt
step — "these eligible rows at cycle t → delivered / failed" — and the
loop owns everything else, each cycle and for each message set it
carries (a solo run is one set):

1. the cycle budget: past ``max_cycles`` the set fails with a
   :class:`~repro.core.errors.DeliveryTimeout` holding its pending
   pairs, the cycle and the attempt histogram;
2. the chaos step, when a :class:`~repro.chaos.ChaosController` is
   attached: advance the fault clock, then park each newly severed row
   until its scheduled repair or drop it;
3. eligibility: pending rows whose backoff has expired;
4. the empty cycle when every message is backing off, and the livelock
   check (nobody becomes eligible within the budget);
5. attempt counting, the stall check (a loss-free cycle that delivers
   nothing can never make progress) and capped binary-exponential
   backoff for random losses;
6. one :class:`~repro.core.CycleStats` record, which feeds the chaos
   accounting and the obs ``cycle`` event;
7. the pending update.

A set that fails retires and the others run on; once every set is done
the loop raises the lowest-index failure, so a solo run raises exactly
at its budget, livelock or stall.

:func:`record_cycle` is the one per-cycle obs emitter.  Every scheduler
— the loops above, both batch kernels and the off-line schedulers
(:func:`record_offline_cycles`) — emits the same ``CycleStats`` fields
``in_flight``, ``delivered``, ``congested``, ``retried``, ``deferred``
and ``dropped``, which partition the messages in flight at the start of
the cycle.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import DeliveryTimeout
from .fattree import Direction, FatTree
from .message import MessageSet
from .schedule import CycleStats

if TYPE_CHECKING:
    from ..chaos.engine import ChaosController
    from ..faults.backoff import BackoffPolicy
    from ..obs import Obs
    from ..perf import PathIndex
    from ._types import IntArray

__all__ = [
    "IDLE",
    "NO_ROWS",
    "Attempt",
    "DeliveryLoop",
    "level_capacity_totals",
    "record_cycle",
    "record_offline_cycles",
]

NO_ROWS: IntArray = np.empty(0, dtype=np.int64)
NO_ROWS.flags.writeable = False


@dataclass(frozen=True)
class Attempt:
    """What one attempt step did with the rows it was handed.

    ``attempted`` rows are charged one delivery attempt; ``delivered``
    rows arrived, in the order the cycle lists them; ``failed`` rows
    lost and retry, in backoff-draw order.  ``lossy`` marks the losses
    as random (corruption, transient faults): failed rows back off under
    the loop's policy, and a cycle that delivers nothing is not a stall.
    ``trace`` adds stack-specific fields to the obs event.
    """

    attempted: IntArray
    delivered: IntArray
    failed: IntArray
    lossy: bool = False
    trace: dict[str, Any] | None = None


#: the outcome of a cycle in which nothing was attempted
IDLE = Attempt(NO_ROWS, NO_ROWS, NO_ROWS)


class DeliveryLoop:
    """One delivery run: its per-row state and the cycle loop.

    Rows are indices into ``messages`` (and into ``index``).  The loop
    keeps ``pending`` / ``attempts`` / ``next_try`` per row and, per
    cycle, the delivered rows (:attr:`delivered_log`).  Subclasses
    implement :meth:`attempt`.

    **Set axis.**  ``offsets`` cuts the rows into B independent runs on
    one cycle counter (set ``b`` is rows ``offsets[b]:offsets[b + 1]``;
    no ``offsets``: one set).  Each set has its own pending count, its
    own budget, livelock and stall checks, and one record per cycle it
    is live, naming its ``set`` when ``offsets`` is given.  A failing
    set stores its :class:`~repro.core.errors.DeliveryTimeout` in
    :attr:`failures` and retires, unrecorded that cycle; :meth:`run`
    raises the lowest-index failure once every set is done.  Set
    ``b``'s cycles are the :attr:`delivered_log` entries up to the one
    delivering its last row, restricted to its rows.  With several
    sets, :meth:`attempt` returns ascending rows; chaos runs one set.

    ``policy`` and ``jrngs`` drive the backoff of lossy failures: a row
    of set ``b`` that failed its ``k``-th attempt at cycle ``t`` retries
    at ``t + 1 + jrngs[b].integers(0, policy.window(k))``.  Each set
    takes one array draw over its failed rows, in the order the attempt
    step lists them (ascending with several sets); numpy gives it the
    values of one scalar draw per row in that order and leaves the
    stream where those draws would.  Loss-free failures retry at
    ``t + 1``.
    """

    #: trace event name of the per-cycle record
    event = "cycle"
    #: messages hop queue to queue: a severed message waits in its queue
    #: instead of parking, and a delivered message did not hold its
    #: whole path for the cycle (no channel-utilisation histograms)
    store_and_forward = False
    #: the gids row ``i`` still has to cross (``None``: its whole path)
    gids_of: Callable[[int], Sequence[int]] | None = None

    def __init__(
        self,
        ft: FatTree,
        messages: MessageSet,
        index: PathIndex,
        *,
        scheduler: str,
        max_cycles: int,
        obs: Obs,
        chaos: ChaosController | None = None,
        policy: BackoffPolicy | None = None,
        jrngs: Sequence[np.random.Generator] = (),
        offsets: IntArray | None = None,
    ):
        m = len(messages)
        self.n_sets = 1 if offsets is None else len(offsets) - 1
        #: extra record fields per set: a batched run names the set
        self.labels = [{"set": b} for b in range(self.n_sets)] if offsets is not None else [{}]
        self.offsets = np.array([0, m], dtype=np.int64) if offsets is None else offsets
        if chaos is not None and self.n_sets > 1:
            raise ValueError("a chaos run delivers one message set")
        self.messages = messages
        self.index = index
        self.scheduler = scheduler
        self.max_cycles = max_cycles
        self.obs = obs
        self.chaos = chaos
        self.policy = policy
        self.jrngs = jrngs
        self.pending = np.ones(m, dtype=bool)
        self.n_pending: list[int] = np.diff(self.offsets).tolist()
        self.failures: dict[int, DeliveryTimeout] = {}
        self.attempts = np.zeros(m, dtype=np.int64)
        self.next_try = np.zeros(m, dtype=np.int64)
        self.delivered_log: list[IntArray] = []
        self.level_cap_totals = (
            level_capacity_totals(ft)
            if obs.enabled and not self.store_and_forward
            else None
        )

    def attempt(self, rows: IntArray, t: int) -> Attempt:
        """Try to deliver ``rows`` at cycle ``t``; ``rows`` are
        ascending and never empty."""
        raise NotImplementedError

    # -- the pieces of one cycle ------------------------------------------

    def split(self, rows: IntArray) -> list[IntArray]:
        """``rows`` (ascending, with several sets) cut into per-set blocks."""
        if self.n_sets == 1:
            return [rows]
        cuts = np.searchsorted(rows, self.offsets).tolist()
        return [rows[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]

    def counts(self, rows: IntArray) -> list[int]:
        """How many of ``rows`` (ascending, with several sets) each set has."""
        if self.n_sets == 1:
            return [int(rows.size)]
        cuts = np.searchsorted(rows, self.offsets)
        counts: list[int] = (cuts[1:] - cuts[:-1]).tolist()
        return counts

    def retire(self, b: int, t: int) -> None:
        """Record set ``b``'s :class:`DeliveryTimeout` at cycle ``t`` —
        its rows still pending and their attempt histogram — and stop
        the set."""
        lo, hi = int(self.offsets[b]), int(self.offsets[b + 1])
        rows = lo + np.flatnonzero(self.pending[lo:hi])
        self.failures[b] = DeliveryTimeout(
            self.messages.take(rows).as_pairs(),
            t,
            Counter(self.attempts[rows].tolist()),
        )
        self.pending[lo:hi] = False
        self.n_pending[b] = 0

    def chaos_step(self, t: int) -> tuple[list[int], dict[int, int]]:
        """Advance the chaos clock to ``t`` and settle newly severed rows.

        Parked rows wait until their repair cycle (``next_try``);
        dropped rows stop pending.  Returns ``(drops, park)`` as
        :meth:`~repro.chaos.ChaosController.resolve_severed` does.
        """
        chaos = self.chaos
        assert chaos is not None
        self.index = chaos.begin_cycle(t, self.index)
        severed = chaos.severed_rows(self.index, self.pending)
        if not severed.size:
            return [], {}
        drops, park = chaos.resolve_severed(
            self.index, severed, t, self.messages, self.attempts,
            gids_of=self.gids_of,
        )
        if not self.store_and_forward:
            for i, heal_at in park.items():
                self.next_try[i] = heal_at
        if drops:
            self.pending[np.asarray(drops, dtype=np.int64)] = False
            self.n_pending[0] -= len(drops)
        return drops, park

    def finish_cycle(
        self,
        t: int,
        in_flight: list[int],
        dropped: int,
        out: Attempt,
        stalled: Sequence[int] = (),
    ) -> None:
        """Charge attempts, retire the ``stalled`` sets, back failed rows
        off and retire the delivered rows; then record the cycle of every
        other set live at its start (``in_flight`` per set)."""
        delivered, failed = out.delivered, out.failed
        self.attempts[out.attempted] += 1
        for b in stalled:
            self.retire(b, t)
        if out.lossy and failed.size:
            assert self.policy is not None
            for jrng, block in zip(self.jrngs, self.split(failed)):
                if block.size:
                    windows = self.policy.window(self.attempts[block])
                    self.next_try[block] = t + 1 + jrng.integers(0, windows)
        else:
            self.next_try[failed] = t + 1
        self.pending[delivered] = False
        self.delivered_log.append(delivered)
        self.n_pending = [
            left - got for left, got in zip(self.n_pending, self.counts(delivered))
        ]
        if self.chaos is None and not self.obs.enabled:
            return
        for b, (got, lost) in enumerate(zip(self.split(delivered), self.split(failed))):
            if not in_flight[b] or b in self.failures:
                continue
            first = int(np.count_nonzero(self.attempts[lost] == 1))
            stats = CycleStats(
                in_flight=in_flight[b],
                delivered=int(got.size),
                congested=first,
                retried=int(lost.size) - first,
                deferred=self.n_pending[b] - int(lost.size),
                dropped=dropped,
            )
            if self.chaos is not None:
                self.chaos.record(stats)
            if self.obs.enabled:
                record_cycle(
                    self.obs,
                    self.scheduler,
                    t,
                    stats,
                    index=None if self.store_and_forward else self.index,
                    delivered_idx=got,
                    level_cap_totals=self.level_cap_totals,
                    event=self.event,
                    **(out.trace or {}),
                    **self.labels[b],
                )

    def run(self) -> int:
        """Run delivery cycles until no set is pending; returns the
        number of cycles, or raises the lowest-index set's timeout."""
        chaos = self.chaos
        t = 0
        while any(self.n_pending):
            if t >= self.max_cycles:  # the budget: retire every live set
                for b, left in enumerate(self.n_pending):
                    if left:
                        self.retire(b, t)
                break
            in_flight = self.n_pending[:]
            dropped = len(self.chaos_step(t)[0]) if chaos is not None else 0
            rows = np.flatnonzero(self.pending & (self.next_try <= t))
            for b, (left, ready) in enumerate(zip(self.n_pending, self.counts(rows))):
                # livelock: the set is pending, but nobody becomes ready
                # within the budget
                if left and not ready:
                    lo, hi = int(self.offsets[b]), int(self.offsets[b + 1])
                    waits = self.next_try[lo:hi][self.pending[lo:hi]]
                    if int(waits.min()) >= self.max_cycles:
                        self.retire(b, t)
            if rows.size == 0:
                self.finish_cycle(t, in_flight, dropped, IDLE)
            else:
                out = self.attempt(rows, t)
                # with positive capacities some contender always wins
                # every channel it needs: a loss-free cycle without a
                # delivery means the set cannot make progress at all
                # (store-and-forward progresses hop by hop instead)
                stalled: list[int] = []
                if not (out.lossy or self.store_and_forward):
                    stalled = [
                        b
                        for b, (tried, got) in enumerate(
                            zip(self.counts(rows), self.counts(out.delivered))
                        )
                        if tried and not got
                    ]
                self.finish_cycle(t, in_flight, dropped, out, stalled)
            t += 1
        if self.failures:
            raise self.failures[min(self.failures)]
        return t


# -- the per-cycle record ---------------------------------------------------


def level_capacity_totals(ft: FatTree) -> list[tuple[int, int]]:
    """Per-level ``(up, down)`` total wire counts, for utilisation."""
    return [
        (
            int(ft.cap_vector(k, Direction.UP).sum()),
            int(ft.cap_vector(k, Direction.DOWN).sum()),
        )
        for k in range(ft.depth + 1)
    ]


def record_cycle(
    obs: Obs,
    scheduler: str,
    t: int,
    stats: CycleStats,
    *,
    index: PathIndex | None = None,
    delivered_idx: IntArray | None = None,
    level_cap_totals: list[tuple[int, int]] | None = None,
    event: str = "cycle",
    **extra: Any,
) -> None:
    """Emit one delivery cycle's record.

    One trace event (``cycle`` unless ``event`` says otherwise) carrying
    the :class:`CycleStats` fields plus ``extra``; the counters
    ``messages.delivered`` / ``.deferred`` / ``.dropped`` and
    ``messages.congested`` / ``.retried`` (both count every failed
    attempt, first or repeat); and, when a path index is given, the
    delivered rows' per-level ``channel.utilization`` histograms.
    """
    failed = stats.congested + stats.retried
    obs.tracer.emit(
        event,
        scheduler=scheduler,
        t=t,
        in_flight=stats.in_flight,
        delivered=stats.delivered,
        congested=stats.congested,
        retried=stats.retried,
        deferred=stats.deferred,
        dropped=stats.dropped,
        **extra,
    )
    metrics = obs.metrics
    if stats.delivered:
        metrics.inc("messages.delivered", stats.delivered, scheduler=scheduler)
    if failed:
        metrics.inc("messages.congested", failed, scheduler=scheduler)
        metrics.inc("messages.retried", failed, scheduler=scheduler)
    if stats.deferred:
        metrics.inc("messages.deferred", stats.deferred, scheduler=scheduler)
    if stats.dropped:
        metrics.inc("messages.dropped", stats.dropped, scheduler=scheduler)
    if (
        index is None
        or delivered_idx is None
        or level_cap_totals is None
        or not stats.delivered
    ):
        return
    loads = index.level_loads(delivered_idx).tolist()
    for k in range(1, index.depth + 1):
        for d, direction in enumerate(("up", "down")):
            total = level_cap_totals[k][d]
            if total:
                metrics.observe(
                    "channel.utilization",
                    loads[k][d] / total,
                    level=k,
                    direction=direction,
                    scheduler=scheduler,
                )


def record_offline_cycles(
    obs: Obs,
    scheduler: str,
    sizes: Sequence[int],
    *,
    rows: Sequence[IntArray] | None = None,
    index: PathIndex | None = None,
    level_cap_totals: list[tuple[int, int]] | None = None,
    **extra: Any,
) -> None:
    """The records of an off-line schedule whose cycle ``t`` delivers
    ``sizes[t]`` messages (``rows[t]`` of ``index``, for utilisation);
    ``extra`` fields go on every event.

    All traffic is in flight from cycle 0; nothing is ever congested
    off-line, so every message not delivered in a cycle is deferred.
    """
    in_flight = int(sum(sizes))
    for t, size in enumerate(sizes):
        record_cycle(
            obs,
            scheduler,
            t,
            CycleStats(in_flight, size, 0, 0, in_flight - size, 0),
            index=index,
            delivered_idx=None if rows is None else rows[t],
            level_cap_totals=level_cap_totals,
            **extra,
        )
        in_flight -= size
