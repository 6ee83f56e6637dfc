"""The chaos engine: controllers, recovery, and chaos entry points.

:class:`ChaosController` bundles one run's chaos machinery — a fresh
mutable :class:`~repro.faults.DegradedFatTree` (the caller's tree is
never mutated), the :class:`~repro.chaos.ChaosClock` and the per-cycle
:class:`~repro.core.CycleStats` recorder.  Its per-cycle hooks have one
caller, the delivery driver :class:`~repro.core.delivery.DeliveryLoop`,
which every runtime loop runs (``schedule_random_rank``,
``simulate_online_retry``, ``run_until_delivered``,
``run_store_and_forward``; each takes the controller as ``chaos=``).
Each cycle the loop calls :meth:`~ChaosController.begin_cycle`,
:meth:`~ChaosController.severed_rows` and
:meth:`~ChaosController.resolve_severed`, then hands the cycle's record
to :meth:`~ChaosController.record`.  Failed rows retry under the run's
own backoff, and the controller draws from no stream of the run, so an
empty-timeline chaos run is bit-identical to a healthy run.

Recovery is incremental by construction: a capacity mutation
delta-updates the shared :class:`~repro.perf.PathIndex` via
:meth:`~repro.perf.PathIndex.invalidate_channels` (never a from-scratch
rebuild), newly-severed in-flight messages are *parked* until the
timeline's matching repair (:meth:`ChaosClock.heal_cycle`) or dropped
with full accounting when no repair is scheduled, and the off-line
executor (:func:`run_chaos_schedule`) repairs each delivery cycle
against the mutated capacities with
:meth:`~repro.core.LevelLoads.apply_delta` instead of rescheduling the
remaining traffic from scratch (around that repair it runs the
driver's budget, chaos step and record).

Every cycle of every chaos run satisfies the strengthened partition
invariant — ``delivered + congested + retried + deferred + dropped ==
in-flight`` — which :meth:`~repro.core.Schedule.validate` re-checks
from the recorded stats.
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np

from ..core.delivery import Attempt, DeliveryLoop
from ..core.errors import DeliveryTimeout
from ..core.fattree import Direction, FatTree
from ..core.load import channel_loads
from ..core.message import MessageSet
from ..core.registry import STACKS
from ..core.schedule import CycleStats, Schedule, ScheduleError
from ..faults.backoff import BackoffPolicy
from ..faults.degraded import DegradedFatTree
from ..faults.model import FaultModel
from ..perf import PAD_GID, get_path_index
from .clock import ChaosClock
from .timeline import ChaosSchedule

__all__ = [
    "ChaosController",
    "run_chaos_random_rank",
    "run_chaos_online_retry",
    "run_chaos_switchsim",
    "run_chaos_store_and_forward",
    "run_chaos_schedule",
    "delivered_fraction",
    "assert_delivered_floor",
]

_ON_SEVERED = ("drop", "raise")


def _fresh_tree(ft: FatTree) -> DegradedFatTree:
    """A private degraded copy of ``ft`` for the chaos run to mutate."""
    if isinstance(ft, DegradedFatTree):
        base, faults = ft.base, ft.faults.copy()
    else:
        base, faults = ft, FaultModel()
    return DegradedFatTree(base, faults)


class ChaosController:
    """One chaos run's fault clock and accounting.

    Single-use: construct one controller per run (the ``run_chaos_*``
    entry points do).  The controller owns :attr:`tree` — a fresh
    degraded copy of the tree it was given — so a chaos run never
    mutates the caller's objects.
    """

    def __init__(
        self,
        ft: FatTree,
        timeline: ChaosSchedule,
        *,
        backoff: BackoffPolicy | None = None,
        on_severed: str = "drop",
        obs=None,
    ):
        from ..obs import resolve_obs

        if on_severed not in _ON_SEVERED:
            raise ValueError(
                f"on_severed must be one of {_ON_SEVERED}, got {on_severed!r}"
            )
        self.obs = resolve_obs(obs)
        self.tree = _fresh_tree(ft)
        self.timeline = timeline
        self.clock = ChaosClock(self.tree, timeline, obs=obs)
        self.backoff = backoff
        self.on_severed = on_severed
        self.cycle_stats: list[CycleStats] = []
        self.dropped_rows: list[int] = []
        self._severed_gids: list[int] = []

    # -- per-cycle hooks ---------------------------------------------------

    def begin_cycle(self, t: int, index):
        """Advance the clock to cycle ``t`` and delta-update ``index``.

        Returns the (possibly replaced) path index.  After this call
        the gids severed by this advance — plus, at ``t == 0``, every
        channel already severed by the initial fault scenario — are
        staged for :meth:`severed_rows` / :meth:`resolve_severed`.
        """
        zeroed, _restored = self.clock.advance_to(t)
        if t == 0:
            self._severed_gids = sorted(self.clock.zero_gids)
        else:
            self._severed_gids = zeroed
        changed = self.clock.changed_gids
        if changed:
            index = index.invalidate_channels(self.tree, changed)
            if self.obs.enabled:
                self.obs.tracer.emit(
                    "chaos.reroute", t=t, channels=len(changed)
                )
                self.obs.metrics.inc("chaos.reroutes", channels=len(changed))
        return index

    def severed_rows(self, index, pending_mask: np.ndarray) -> np.ndarray:
        """Pending rows whose path crosses a newly-severed channel."""
        if not self._severed_gids:
            return np.empty(0, dtype=np.int64)
        hit = index.affected_rows(self._severed_gids)
        return np.flatnonzero(hit & pending_mask)

    def resolve_severed(
        self,
        index,
        rows: np.ndarray,
        t: int,
        messages: MessageSet,
        attempts,
        *,
        gids_of=None,
    ) -> tuple[list[int], dict[int, int]]:
        """Decide each severed row's fate: park until repair, or drop.

        Returns ``(drops, park)`` where ``park`` maps a row to the
        cycle its last severed channel heals at.  With
        ``on_severed="raise"`` a row with no scheduled repair aborts
        the run with a :class:`DeliveryTimeout` instead (the mid-flight
        severance abort path), after emitting a ``chaos.abort`` event.

        ``gids_of(i)`` overrides which channels row ``i`` still needs
        (store-and-forward passes the *remaining* hops: damage behind a
        message's progress point must not strand it); rows whose
        checked gids are all healthy are skipped.
        """
        caps = index.caps
        drops: list[int] = []
        park: dict[int, int] = {}
        for i in rows.tolist():
            row = index.paths[i] if gids_of is None else gids_of(i)
            zero = [int(g) for g in row if g != PAD_GID and caps[g] == 0]
            heals = [self.clock.heal_cycle(g) for g in zero]
            if zero and all(h is not None for h in heals):
                park[i] = max(t + 1, max(h for h in heals if h is not None))
            elif zero:
                drops.append(i)
        if drops and self.on_severed == "raise":
            pairs = [
                (int(messages.src[i]), int(messages.dst[i])) for i in drops
            ]
            if self.obs.enabled:
                self.obs.tracer.emit(
                    "chaos.abort", t=t, severed=len(drops)
                )
                self.obs.metrics.inc("chaos.aborted", len(drops))
            raise DeliveryTimeout(
                pairs, t, Counter(int(attempts[i]) for i in drops)
            )
        if drops:
            self.dropped_rows.extend(drops)
        if self.obs.enabled and (drops or park):
            self.obs.tracer.emit(
                "chaos.severed",
                t=t,
                rows=int(rows.size),
                dropped=len(drops),
                parked=len(park),
            )
            if drops:
                self.obs.metrics.inc("chaos.dropped", len(drops))
            if park:
                self.obs.metrics.inc("chaos.parked", len(park))
        return drops, park

    def loss_rate(self, base: float) -> float:
        """The transient corruption rate in force at the current cycle."""
        return self.clock.loss_rate(base)

    # -- accounting --------------------------------------------------------

    def record(self, stats: CycleStats) -> None:
        """Record (and immediately check) one cycle's outcome partition."""
        stats.check()
        self.cycle_stats.append(stats)

    def dropped_messages(self, messages: MessageSet) -> MessageSet | None:
        """The dropped sub-multiset (``None`` when nothing was dropped)."""
        if not self.dropped_rows:
            return None
        rows = np.asarray(sorted(self.dropped_rows), dtype=np.int64)
        return messages.take(rows)

    def dropped_pairs(self, messages: MessageSet) -> list[tuple[int, int]]:
        """The dropped ``(src, dst)`` pairs, in row order."""
        return [
            (int(messages.src[i]), int(messages.dst[i]))
            for i in sorted(self.dropped_rows)
        ]


# -- runtime entry points --------------------------------------------------


def run_chaos_random_rank(
    ft: FatTree,
    messages: MessageSet,
    timeline: ChaosSchedule,
    *,
    seed: int = 0,
    max_cycles: int = 100_000,
    loss_rate: float | None = None,
    backoff: BackoffPolicy | None = None,
    on_severed: str = "drop",
    obs=None,
) -> Schedule:
    """Random-rank on-line routing under a chaos timeline.

    The returned :class:`Schedule` carries per-cycle
    :class:`~repro.core.CycleStats` and the dropped sub-multiset; with
    an empty timeline it is cycle-for-cycle bit-identical to
    :func:`~repro.core.online.schedule_random_rank` on the same tree
    and seed.  ``obs`` is forwarded to the underlying kernel.
    """
    from ..core.online import schedule_random_rank

    ctrl = ChaosController(
        ft, timeline, backoff=backoff, on_severed=on_severed, obs=obs
    )
    return schedule_random_rank(
        ctrl.tree,
        messages,
        seed=seed,
        max_cycles=max_cycles,
        loss_rate=loss_rate,
        backoff=backoff,
        obs=obs,
        chaos=ctrl,
    )


def run_chaos_online_retry(
    ft: FatTree,
    messages: MessageSet,
    timeline: ChaosSchedule,
    *,
    seed: int = 0,
    max_cycles: int = 100_000,
    on_severed: str = "drop",
    obs=None,
) -> Schedule:
    """The §II shuffle-and-retry loop under a chaos timeline.

    Empty timeline ⇒ bit-identical to
    :func:`~repro.core.greedy.simulate_online_retry`.  ``obs`` is
    forwarded to the underlying loop.
    """
    from ..core.greedy import simulate_online_retry

    ctrl = ChaosController(ft, timeline, on_severed=on_severed, obs=obs)
    return simulate_online_retry(
        ctrl.tree,
        messages,
        seed=seed,
        max_cycles=max_cycles,
        obs=obs,
        chaos=ctrl,
    )


def run_chaos_switchsim(
    ft: FatTree,
    messages: MessageSet,
    timeline: ChaosSchedule,
    *,
    concentrators: str = "ideal",
    seed: int = 0,
    payload_bits: int = 0,
    fault_rate: float = 0.0,
    max_cycles: int = 10_000,
    backoff: BackoffPolicy | None = None,
    on_severed: str = "drop",
    obs=None,
):
    """The bit-serial switch simulator's retry loop under chaos.

    Empty timeline ⇒ bit-identical reports to
    :func:`~repro.hardware.switchsim.run_until_delivered`.  ``obs`` is
    forwarded into every delivery cycle.
    """
    from ..hardware.switchsim import run_until_delivered

    ctrl = ChaosController(
        ft, timeline, backoff=backoff, on_severed=on_severed, obs=obs
    )
    return run_until_delivered(
        ctrl.tree,
        messages,
        concentrators=concentrators,
        seed=seed,
        payload_bits=payload_bits,
        fault_rate=fault_rate,
        max_cycles=max_cycles,
        backoff=backoff,
        obs=obs,
        chaos=ctrl,
    )


def run_chaos_store_and_forward(
    ft: FatTree,
    messages: MessageSet,
    timeline: ChaosSchedule,
    *,
    max_steps: int = 1_000_000,
    on_severed: str = "drop",
    obs=None,
):
    """The buffered store-and-forward design under chaos.

    A severed channel simply parks its queue (store-and-forward is
    self-healing by nature); messages whose severed hop never repairs
    are dropped with accounting.  Empty timeline ⇒ bit-identical to
    :func:`~repro.hardware.buffered.run_store_and_forward`.  ``obs``
    is forwarded to the underlying simulator.
    """
    from ..hardware.buffered import run_store_and_forward

    ctrl = ChaosController(ft, timeline, on_severed=on_severed, obs=obs)
    return run_store_and_forward(
        ctrl.tree, messages, max_steps=max_steps, obs=obs, chaos=ctrl
    )


_OFFLINE_SCHEDULERS = tuple(n for n, s in STACKS.items() if s.kind == "offline")


def run_chaos_schedule(
    ft: FatTree,
    messages: MessageSet,
    timeline: ChaosSchedule,
    *,
    scheduler: str = "theorem1",
    schedule: Schedule | None = None,
    max_cycles: int = 100_000,
    on_severed: str = "drop",
    obs=None,
) -> Schedule:
    """Execute an off-line schedule while the tree degrades under it.

    Builds (or takes) a healthy schedule for the *initial* tree, then
    replays it cycle by cycle against the chaos timeline.  Each head
    cycle is *repaired* against the current capacities instead of
    rescheduling the remaining traffic from scratch: messages over a
    now-overloaded channel are evicted to the next cycle (first-come
    kept, excess deferred) and the repair is verified incrementally
    with :meth:`~repro.core.LevelLoads.apply_delta`; severed messages
    park until their scheduled repair or drop.  With an empty timeline
    the output cycles equal the input schedule's exactly.

    Returns a :class:`Schedule` with per-cycle stats and drops; raises
    :class:`DeliveryTimeout` past ``max_cycles`` and, with
    ``on_severed="raise"``, on the first unrepairable severance.
    ``obs`` is threaded through scheduling and receives one ``cycle``
    record per replayed cycle under the ``chaos_<scheduler>`` label.
    """
    if scheduler not in _OFFLINE_SCHEDULERS:
        raise ValueError(
            f"scheduler must be one of {_OFFLINE_SCHEDULERS}, got {scheduler!r}"
        )
    from ..obs import resolve_obs

    ctrl = ChaosController(ft, timeline, on_severed=on_severed, obs=obs)
    tree = ctrl.tree
    routable = messages.without_self_messages()
    n_self = len(messages) - len(routable)
    if schedule is None:
        # off-line stacks are unseeded: ``seed`` is ignored
        schedule = STACKS[scheduler].run(
            tree, messages, seed=0, max_cycles=max_cycles, obs=obs
        )
    loop = DeliveryLoop(
        tree,
        routable,
        get_path_index(tree, routable, obs=obs),
        scheduler=f"chaos_{scheduler}",
        max_cycles=max_cycles,
        obs=resolve_obs(obs),
        chaos=ctrl,
    )

    # map the schedule's cycles onto master row indices (multiset match)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (s, d) in enumerate(
        zip(routable.src.tolist(), routable.dst.tolist())
    ):
        buckets.setdefault((s, d), []).append(i)
    queue: deque[np.ndarray] = deque()
    for cycle in schedule.cycles:
        rows = [
            buckets[(int(s), int(d))].pop()
            for s, d in zip(cycle.src.tolist(), cycle.dst.tolist())
        ]
        queue.append(np.asarray(rows, dtype=np.int64))

    parked: dict[int, int] = {}
    t = 0
    while loop.n_pending[0]:
        if loop.over_budget(t):
            break
        in_flight = loop.n_pending[:]
        drops, park = loop.chaos_step(t)
        index = loop.index
        caps = index.caps
        moved = set(drops) | set(park)
        if moved:
            queue = deque(
                rows[~np.isin(rows, np.asarray(sorted(moved), dtype=np.int64))]
                for rows in queue
            )
            for i in drops:
                parked.pop(i, None)
            parked.update(park)
        # release parked rows whose repair has landed
        due = sorted(i for i, h in parked.items() if h <= t)
        for i in due:
            del parked[i]
        head = queue.popleft() if queue else np.empty(0, dtype=np.int64)
        if due:
            head = np.concatenate([head, np.asarray(due, dtype=np.int64)])
        # repair the head against current capacities: evict the excess
        keep_mask = np.ones(head.size, dtype=bool)
        if head.size:
            lv = index.load_vector(head)
            for gid in np.flatnonzero(lv > caps).tolist():
                crossing = np.flatnonzero(
                    (index.paths[head] == gid).any(axis=1) & keep_mask
                )
                allowed = int(caps[gid])
                if crossing.size > allowed:
                    keep_mask[crossing[allowed:]] = False
        delivered_rows = head[keep_mask]
        evicted = head[~keep_mask]
        if evicted.size:
            # verify the repair incrementally: removing the evicted
            # rows from the head's loads must leave a one-cycle set
            # against the *current* (mutated) capacities
            loads = channel_loads(tree, routable.take(head)).apply_delta(
                removed=routable.take(evicted)
            )
            for k in range(1, tree.depth + 1):
                over_up = loads.up[k] > tree.cap_vector(k, Direction.UP)
                over_down = loads.down[k] > tree.cap_vector(k, Direction.DOWN)
                if bool(over_up.any()) or bool(over_down.any()):
                    raise ScheduleError(
                        f"cycle {t} repair left level {k} overloaded "
                        "after eviction"
                    )
        # every head row is charged an attempt: an evicted row is
        # congested on its first eviction and retried after that
        loop.finish_cycle(
            t, in_flight, len(drops), Attempt(head, delivered_rows, evicted)
        )
        if evicted.size:
            if queue:
                queue[0] = np.concatenate([evicted, queue[0]])
            else:
                queue.append(evicted)
        t += 1
    loop.raise_failure()
    return Schedule(
        cycles=[routable.take(rows) for rows in loop.delivered_log],
        n_self_messages=n_self,
        cycle_stats=ctrl.cycle_stats,
        dropped=ctrl.dropped_messages(routable),
    )


# -- graceful-degradation gates --------------------------------------------


def delivered_fraction(result) -> float:
    """Fraction of routed traffic a chaos run actually delivered.

    Accepts a :class:`~repro.core.Schedule`, a switchsim
    ``RetryOutcome``, or a buffered ``BufferedRun``; healthy runs (and
    empty workloads) report 1.0.
    """
    if isinstance(result, Schedule):
        delivered = sum(len(cycle) for cycle in result.cycles)
        dropped = 0 if result.dropped is None else len(result.dropped)
    elif hasattr(result, "reports"):  # RetryOutcome
        delivered = sum(len(r.delivered) for r in result.reports)
        dropped = len(getattr(result, "dropped", []))
    elif hasattr(result, "latencies"):  # BufferedRun
        dropped = len(getattr(result, "dropped", []))
        delivered = int(result.latencies.size) - dropped
    else:
        raise TypeError(f"no delivered-fraction view of {type(result).__name__}")
    total = delivered + dropped
    return 1.0 if total == 0 else delivered / total


def assert_delivered_floor(result, floor: float) -> float:
    """The graceful-degradation gate: delivered fraction >= ``floor``.

    Returns the measured fraction; raises ``AssertionError`` below the
    declared floor.
    """
    fraction = delivered_fraction(result)
    if fraction + 1e-12 < floor:
        raise AssertionError(
            f"delivered fraction {fraction:.4f} below declared floor {floor:.4f}"
        )
    return fraction
