"""Baseline schedulers for comparison with Theorem 1 / Corollary 2.

Neither of these is from the paper; they are the obvious strawmen a
practitioner would try first, used by the benches as ablation baselines
for the even-split partitioner:

* :func:`schedule_greedy_first_fit` — off-line first-fit bin packing:
  place each message in the earliest delivery cycle with residual
  capacity on its whole path.
* :func:`simulate_online_retry` — the on-line retry loop sketched in §II:
  every pending message attempts delivery each cycle; congested channels
  drop the excess; dropped messages are retried next cycle (the
  acknowledgment mechanism).  Randomised priority, so results vary with
  the seed.

Both route over the shared :class:`~repro.perf.PathIndex`.  First-fit
placement is resolved by the wave-based certainty-interval engine
:func:`repro.perf.firstfit.first_fit_assign` — whole-array passes per
delivery cycle instead of a numpy round-trip per message, which is what
made the tier-1 kernel *slower* than pure Python at small ``n``.  The
per-level dict-of-arrays bookkeeping is retained in
:func:`_reference_schedule_greedy_first_fit` as the equality oracle
(identical placements for every input and order).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from ..chaos.engine import ChaosController
    from ..obs import Obs
    from ..perf import PathIndex
    from ._types import IntArray

from .delivery import (
    Attempt,
    DeliveryLoop,
    level_capacity_totals,
    record_offline_cycles,
)

from .errors import UnroutableError
from .fattree import Direction, FatTree
from .message import MessageSet
from .schedule import Schedule
from .tree import path_up_down

__all__ = [
    "schedule_greedy_first_fit",
    "simulate_online_retry",
    "_reference_schedule_greedy_first_fit",
]


def _placement_order(
    ft: FatTree,
    routable: MessageSet,
    order: str,
    path_len: np.ndarray | None = None,
) -> np.ndarray:
    m = len(routable)
    if order == "given":
        return np.arange(m)
    if order == "random":
        return np.random.default_rng(0).permutation(m)
    if order == "longest-first":
        if path_len is None:
            lengths = np.array(
                [ft.path_length(int(s), int(d)) for s, d in routable],
                dtype=np.int64,
            )
        else:
            # PathIndex.path_len holds exactly ft.path_length per message,
            # already vectorised — same values, same stable argsort
            lengths = path_len
        return np.argsort(-lengths, kind="stable")
    raise ValueError(f"unknown order {order!r}")


def schedule_greedy_first_fit(
    ft: FatTree,
    messages: MessageSet,
    *,
    order: str = "longest-first",
    obs: Obs | None = None,
) -> Schedule:
    """Off-line first-fit scheduler.

    ``order`` controls message placement order: ``"longest-first"`` (by
    path length, a standard bin-packing heuristic), ``"given"`` (input
    order), or ``"random"``.

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives a kernel wall-time
    span, per-cycle ``cycle`` trace events (off-line placement: nothing
    is ever congested or deferred) and per-level utilisation histograms.
    """
    from ..obs import resolve_obs
    from ..perf import get_path_index
    from ..perf.firstfit import first_fit_assign

    obs = resolve_obs(obs)
    routable = messages.without_self_messages()
    index = get_path_index(ft, routable, obs=obs)
    mask = index.routable_mask()
    if not mask.all():
        raise UnroutableError(routable.take(~mask).as_pairs())
    n_self = len(messages) - len(routable)
    m = len(routable)
    perm = _placement_order(ft, routable, order, path_len=index.path_len)

    # the wave engine consumes path rows in processing order and returns
    # the exact sequential first-fit cycle per row (see repro.perf.firstfit)
    assignment = np.zeros(m, dtype=np.int64)
    with obs.kernel("schedule_greedy_first_fit", n=ft.n, m=m, order=order):
        wave_cycle, num_cycles = first_fit_assign(index.paths[perm], index.caps)
        assignment[perm] = wave_cycle

    cycles = [routable.take(assignment == t) for t in range(num_cycles)]
    if obs.enabled:
        record_offline_cycles(
            obs,
            "greedy_first_fit",
            [len(c) for c in cycles],
            rows=[np.flatnonzero(assignment == t) for t in range(num_cycles)],
            index=index,
            level_cap_totals=level_capacity_totals(ft),
        )
    return Schedule(cycles=cycles, n_self_messages=n_self)


class _ResidualCycles:
    """Residual up/down capacities for a growing list of delivery cycles
    (the pre-vectorisation bookkeeping, kept for the reference oracle)."""

    def __init__(self, ft: FatTree):
        self.ft = ft
        self.up: list[dict[int, np.ndarray]] = []
        self.down: list[dict[int, np.ndarray]] = []

    def _new_cycle(self) -> int:
        caps_up = {
            k: self.ft.cap_vector(k, Direction.UP).copy()
            for k in range(1, self.ft.depth + 1)
        }
        caps_down = {
            k: self.ft.cap_vector(k, Direction.DOWN).copy()
            for k in range(1, self.ft.depth + 1)
        }
        self.up.append(caps_up)
        self.down.append(caps_down)
        return len(self.up) - 1

    def fits(self, t: int, ups, downs) -> bool:
        up_t, down_t = self.up[t], self.down[t]
        return all(up_t[k][x] > 0 for k, x in ups) and all(
            down_t[k][x] > 0 for k, x in downs
        )

    def commit(self, t: int, ups, downs) -> None:
        for k, x in ups:
            self.up[t][k][x] -= 1
        for k, x in downs:
            self.down[t][k][x] -= 1

    def place_first_fit(self, ups, downs) -> int:
        for t in range(len(self.up)):
            if self.fits(t, ups, downs):
                self.commit(t, ups, downs)
                return t
        t = self._new_cycle()
        self.commit(t, ups, downs)
        return t


def _reference_schedule_greedy_first_fit(
    ft: FatTree, messages: MessageSet, *, order: str = "longest-first"
) -> Schedule:
    """Pure-Python first-fit, kept as the equality oracle for the
    vectorised :func:`schedule_greedy_first_fit` (identical placements,
    hence identical schedules, for every input and order)."""
    routable = messages.without_self_messages()
    mask = ft.routable_mask(routable)
    if not mask.all():
        raise UnroutableError(routable.take(~mask).as_pairs())
    n_self = len(messages) - len(routable)
    m = len(routable)
    perm = _placement_order(ft, routable, order)

    residual = _ResidualCycles(ft)
    assignment = np.zeros(m, dtype=np.int64)
    for i in perm:
        src, dst = int(routable.src[i]), int(routable.dst[i])
        ups, downs = path_up_down(src, dst, ft.depth)
        assignment[i] = residual.place_first_fit(ups, downs)

    num_cycles = len(residual.up)
    cycles = [routable.take(assignment == t) for t in range(num_cycles)]
    return Schedule(cycles=cycles, n_self_messages=n_self)


def simulate_online_retry(
    ft: FatTree,
    messages: MessageSet,
    *,
    seed: int = 0,
    max_cycles: int = 100_000,
    obs: Obs | None = None,
    chaos: ChaosController | None = None,
) -> Schedule:
    """On-line delivery with congestion drops and retry (§II mechanism).

    Each cycle, pending messages are considered in random order; a message
    is delivered iff every channel on its path still has residual
    capacity this cycle.  Messages that lose a channel are retried in the
    next cycle.  Models ideal concentrators (no drops without congestion)
    and instant acknowledgments.

    The cycle loop is :class:`~repro.core.delivery.DeliveryLoop` — its
    budget (:class:`~repro.core.errors.DeliveryTimeout` past
    ``max_cycles``), chaos handling and per-cycle record apply; this
    stack supplies the shuffle and the first-fit pass, a scan over
    Python int lists of the path rows and residual capacities.
    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives the loop's ``cycle``
    records, utilisation histograms and a kernel wall-time span.
    ``chaos`` attaches a :class:`~repro.chaos.ChaosController`; the
    schedule then carries per-cycle :class:`~repro.core.CycleStats` and
    the dropped messages, and with an empty timeline the shuffle
    sequence, hence the schedule, is bit-identical to a healthy run.
    """
    from ..obs import resolve_obs
    from ..perf import get_path_index

    obs = resolve_obs(obs)
    routable = messages.without_self_messages()
    index = get_path_index(ft, routable, obs=obs)
    mask = index.routable_mask()
    if chaos is None and not mask.all():
        raise UnroutableError(routable.take(~mask).as_pairs())
    loop = _OnlineRetry(
        ft,
        routable,
        index,
        rng=np.random.default_rng(seed),
        scheduler="online_retry",
        max_cycles=max_cycles,
        obs=obs,
        chaos=chaos,
    )
    with obs.kernel("simulate_online_retry", n=ft.n, m=len(routable), seed=seed):
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


class _OnlineRetry(DeliveryLoop):
    """Shuffle-and-retry: each cycle the ready messages, in a freshly
    shuffled order, take residual capacity first-fit.

    The order carries over between cycles — losers first, then
    (ascending) the messages whose repair has just landed; severed
    messages leave it when they park or drop.  That order is part of
    the RNG contract.

    The first-fit pass scans Python int lists: the path rows once per
    run (chaos swaps only the capacity vector, never the paths) and the
    residual capacities once per cycle, stopping a row at its first
    exhausted channel.  The padding gid's capacity never binds.
    ``tests/perf/test_kernel_equivalence.py`` keeps the numpy
    fancy-indexing step as its oracle.
    """

    def __init__(
        self,
        ft: FatTree,
        routable: MessageSet,
        index: PathIndex,
        *,
        rng: np.random.Generator,
        **loop_args: Any,
    ):
        super().__init__(ft, routable, index, **loop_args)
        self.rng = rng
        self.order: list[int] = list(range(len(routable)))
        self.paths: list[list[int]] = index.paths.tolist()

    def chaos_step(self, t: int) -> tuple[list[int], dict[int, int]]:
        drops, park = super().chaos_step(t)
        if drops or park:
            moved = set(drops) | set(park)
            self.order = [i for i in self.order if i not in moved]
        return drops, park

    def attempt(self, rows: IntArray, t: int) -> Attempt:
        order = self.order
        if len(order) < rows.size:  # repairs landed: append, ascending
            queued = set(order)
            order = order + [i for i in rows.tolist() if i not in queued]
        self.rng.shuffle(order)
        paths = self.paths
        residual: list[int] = self.index.caps.tolist()
        delivered: list[int] = []
        still: list[int] = []
        for i in order:
            path = paths[i]
            for g in path:
                if residual[g] <= 0:
                    still.append(i)
                    break
            else:
                for g in path:
                    residual[g] -= 1
                delivered.append(i)
        self.order = still
        return Attempt(
            rows,
            np.array(sorted(delivered), dtype=np.int64),
            np.asarray(still, dtype=np.int64),
        )
