"""The chaos engine: controllers, recovery, the chaos entry point and
its checker.

:func:`run_chaos` runs any :data:`~repro.core.registry.STACKS` row
under a chaos timeline.  It builds one :class:`ChaosController` — a
fresh mutable :class:`~repro.faults.DegradedFatTree` (the caller's tree
is never mutated), the :class:`~repro.chaos.ChaosClock` and the
per-cycle :class:`~repro.core.CycleStats` recorder — and hands it as
``chaos=`` to the row's entry point (``schedule_random_rank``,
``simulate_online_retry``, ``run_until_delivered``,
``run_store_and_forward``) or, for an off-line row, to the schedule
replay.  The controller's per-cycle hooks have one caller, the delivery
driver :class:`~repro.core.delivery.DeliveryLoop`, which every one of
those runs is.  Each cycle the loop calls
:meth:`~ChaosController.begin_cycle`,
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
replay repairs each delivery cycle against the mutated capacities with
:meth:`~repro.core.LevelLoads.apply_delta` instead of rescheduling the
remaining traffic from scratch.

Every cycle of every chaos run satisfies the strengthened partition
invariant — ``delivered + congested + retried + deferred + dropped ==
in-flight`` — which :func:`check_chaos_run` re-checks from the recorded
stats, together with the delivered-plus-dropped multiset.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..core.delivery import Attempt, DeliveryLoop
from ..core.errors import DeliveryTimeout
from ..core.fattree import Direction, FatTree
from ..core.load import channel_loads
from ..core.message import MessageSet
from ..core.registry import STACKS
from ..core.schedule import CycleStats, Schedule, ScheduleError
from ..faults.degraded import DegradedFatTree
from ..faults.model import FaultModel
from ..perf import PAD_GID, get_path_index
from .clock import ChaosClock
from .timeline import ChaosSchedule

__all__ = [
    "ChaosController",
    "run_chaos",
    "run_chaos_random_rank",
    "run_chaos_switchsim",
    "chaos_options",
    "delivered_fraction",
    "check_chaos_run",
    "same_delivery",
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

    Single-use: construct one controller per run (:func:`run_chaos`
    does).  The controller owns :attr:`tree` — a fresh
    degraded copy of the tree it was given — so a chaos run never
    mutates the caller's objects.
    """

    def __init__(
        self,
        ft: FatTree,
        timeline: ChaosSchedule,
        *,
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


# -- the chaos entry point --------------------------------------------------


def run_chaos(
    stack: str,
    ft: FatTree,
    messages: MessageSet,
    timeline: ChaosSchedule,
    *,
    on_severed: str = "drop",
    obs=None,
    **kernel_options,
):
    """Run the :data:`~repro.core.registry.STACKS` row ``stack`` under
    a chaos timeline.

    An on-line or hardware row runs its entry point on the controller's
    private tree with ``chaos=`` attached; ``kernel_options`` (``seed``,
    ``max_cycles``, ``loss_rate``, ``concentrators``, …) go to that
    entry point, whose own defaults hold otherwise.  An off-line row
    replays its healthy schedule with incremental repair
    (``max_cycles`` is then the replay's budget, default 100 000).
    The result is the row's own type, carrying per-cycle
    :class:`~repro.core.CycleStats` and the dropped messages; with an
    empty timeline it is bit-identical to the healthy run.  ``obs`` is
    forwarded to the run.
    """
    row = STACKS.get(stack)
    if row is None:
        raise ValueError(f"stack must be one of {tuple(STACKS)}, got {stack!r}")
    ctrl = ChaosController(ft, timeline, on_severed=on_severed, obs=obs)
    if row.kind == "offline":
        return _run_chaos_schedule(ctrl, messages, stack, obs=obs, **kernel_options)
    return row.function()(ctrl.tree, messages, obs=obs, chaos=ctrl, **kernel_options)


def run_chaos_random_rank(ft, messages, timeline, *, obs=None, **options) -> Schedule:
    """:func:`run_chaos` of ``"random-rank"``."""
    return run_chaos("random-rank", ft, messages, timeline, obs=obs, **options)


def run_chaos_switchsim(ft, messages, timeline, *, obs=None, **options):
    """:func:`run_chaos` of ``"switchsim"``."""
    return run_chaos("switchsim", ft, messages, timeline, obs=obs, **options)


def chaos_options(stack: str, *, seed: int, max_cycles: int) -> dict[str, int]:
    """The :func:`run_chaos` options of one seeded run of ``stack``
    within ``max_cycles``: seeded rows take both (the switch simulator
    at most its own 10 000-cycle budget), the off-line replay the
    budget, and store-and-forward neither."""
    row = STACKS[stack]
    if row.seeded:
        budget = min(max_cycles, 10_000) if row.kind == "hardware" else max_cycles
        return {"seed": seed, "max_cycles": budget}
    return {"max_cycles": max_cycles} if row.kind == "offline" else {}


class _Replay(DeliveryLoop):
    """An off-line schedule replayed while the tree degrades under it.

    Row ``i`` starts out waiting for its scheduled cycle (``next_try``),
    so the loop's eligibility rule hands :meth:`attempt` exactly that
    cycle's rows plus the rows it carries over; :attr:`key` then
    restores the head's order: last cycle's evicted rows first (in
    head order), then the scheduled rows (in schedule order), then the
    released parked rows (by row).
    """

    def __init__(self, ft, routable, index, schedule, **loop_args):
        super().__init__(ft, routable, index, **loop_args)
        m = len(routable)
        self.key = np.empty(m, dtype=np.int64)
        # map the schedule's cycles onto rows (multiset match)
        buckets: dict[tuple[int, int], list[int]] = {}
        for i, pair in enumerate(zip(routable.src.tolist(), routable.dst.tolist())):
            buckets.setdefault(pair, []).append(i)
        for t, cycle in enumerate(schedule.cycles):
            for pos, pair in enumerate(zip(cycle.src.tolist(), cycle.dst.tolist())):
                i = buckets[pair].pop()
                self.next_try[i] = t
                self.key[i] = m + pos

    def chaos_step(self, t):
        drops, park = super().chaos_step(t)
        for i in park:
            self.key[i] = 2 * len(self.key) + i
        return drops, park

    def attempt(self, rows, t):
        head = rows[np.argsort(self.key[rows], kind="stable")]
        tree, index = self.chaos.tree, self.index
        caps = index.caps
        # repair the head against current capacities: evict the excess
        keep_mask = np.ones(head.size, dtype=bool)
        lv = index.load_vector(head)
        for gid in np.flatnonzero(lv > caps).tolist():
            crossing = np.flatnonzero(
                (index.paths[head] == gid).any(axis=1) & keep_mask
            )
            allowed = int(caps[gid])
            if crossing.size > allowed:
                keep_mask[crossing[allowed:]] = False
        evicted = head[~keep_mask]
        # last cycle's evicted rows lead the next head, in head order
        self.key[evicted] = np.arange(evicted.size)
        if evicted.size:
            # verify the repair incrementally: removing the evicted
            # rows from the head's loads must leave a one-cycle set
            # against the *current* (mutated) capacities
            loads = channel_loads(tree, self.messages.take(head)).apply_delta(
                removed=self.messages.take(evicted)
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
        return Attempt(head, head[keep_mask], evicted)


def _run_chaos_schedule(
    ctrl: ChaosController,
    messages: MessageSet,
    stack: str,
    *,
    max_cycles: int = 100_000,
    obs=None,
) -> Schedule:
    """Execute ``stack``'s off-line schedule while the tree degrades under it.

    Builds a healthy schedule for the *initial* tree, then replays it
    cycle by cycle against the chaos timeline.  Each cycle is
    *repaired* against the current capacities instead of rescheduling
    the remaining traffic from scratch: messages over a now-overloaded
    channel are evicted to the next cycle (first-come kept, excess
    deferred) and the repair is verified incrementally with
    :meth:`~repro.core.LevelLoads.apply_delta`; severed messages park
    until their scheduled repair or drop.  With an empty timeline the
    output cycles equal the input schedule's exactly.  ``obs`` is
    threaded through scheduling and receives one ``cycle`` record per
    replayed cycle under the ``chaos_<stack>`` scheduler.
    """
    from ..obs import resolve_obs

    tree = ctrl.tree
    routable = messages.without_self_messages()
    # off-line stacks are unseeded: ``seed`` is ignored
    schedule = STACKS[stack].run(tree, messages, seed=0, max_cycles=max_cycles, obs=obs)
    loop = _Replay(
        tree,
        routable,
        get_path_index(tree, routable, obs=obs),
        schedule,
        scheduler=f"chaos_{stack}",
        max_cycles=max_cycles,
        obs=resolve_obs(obs),
        chaos=ctrl,
    )
    loop.run()
    return Schedule(
        cycles=[routable.take(rows) for rows in loop.delivered_log],
        n_self_messages=len(messages) - len(routable),
        cycle_stats=ctrl.cycle_stats,
        dropped=ctrl.dropped_messages(routable),
    )


# -- the checker ---------------------------------------------------------


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


def check_chaos_run(ft: FatTree, messages: MessageSet, result) -> list[str]:
    """The invariants every chaos run of ``messages`` on ``ft`` keeps;
    returns the violations (empty: clean).

    A :class:`~repro.core.Schedule` passes
    :meth:`~repro.core.Schedule.validate` (one-cycle cycles, the
    per-cycle outcome partitions, delivered + dropped == the routed
    multiset).  A hardware result re-checks each cycle's outcome
    partition, leaves nothing in flight, and its delivered plus dropped
    messages are the routed multiset: every message for the switch
    simulator, which delivers self-messages, and the others for
    store-and-forward.
    """
    if isinstance(result, Schedule):
        try:
            result.validate(ft, messages)
        except ScheduleError as exc:
            return [f"invalid schedule: {exc}"]
        return []
    problems: list[str] = []
    try:
        for stats in result.cycle_stats:
            stats.check()
    except ScheduleError as exc:
        problems.append(f"cycle stats: {exc}")
    if result.cycle_stats:
        last = result.cycle_stats[-1]
        leftover = last.in_flight - last.delivered - last.dropped
        if leftover:
            problems.append(f"final cycle leaves {leftover} in flight")
    if hasattr(result, "reports"):  # RetryOutcome
        routed = messages
        delivered = Counter((f.src, f.dst) for r in result.reports for f in r.delivered)
    else:  # BufferedRun: a delivered message has a latency, a dropped one none
        routed = messages.without_self_messages()
        delivered = Counter(routed.take(result.latencies > 0))
    if delivered + Counter(result.dropped) != Counter(routed):
        problems.append("delivered + dropped does not partition the message multiset")
    return problems


def _delivery(result):
    """What a run delivered and when: the part of its result that an
    empty timeline leaves bit-identical."""
    if isinstance(result, Schedule):
        return [cycle.as_pairs() for cycle in result.cycles], result.n_self_messages
    if hasattr(result, "reports"):  # RetryOutcome
        reports = [
            ([(f.src, f.dst) for f in r.delivered], len(r.congested), len(r.deferred), r.wave_ticks)
            for r in result.reports
        ]
        return result.cycles, result.attempts, reports
    return result.makespan, result.latencies.tolist(), result.max_queue_depth


def same_delivery(healthy, chaos) -> bool:
    """Whether a chaos run delivered exactly what the healthy run did,
    in the same cycles and order (the empty-timeline identity)."""
    return _delivery(healthy) == _delivery(chaos)
