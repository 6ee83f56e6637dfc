"""A buffered (store-and-forward) fat-tree: the §VII design alternative.

§VII: "We also assumed the architecture was synchronized by delivery
cycle.  Presumably, fat-tree architectures can be built with different
design decisions."  This module builds the most natural alternative:
switches hold per-node queues, and each channel moves up to ``cap(c)``
queued messages per time step (no delivery cycles, no batching, no
off-line schedule — pure dynamic store-and-forward with oldest-first
service).

The quantities of interest, which bench E20 compares against the
delivery-cycle design:

* *makespan* — steps until the last delivery; lower-bounded by both the
  load factor λ(M) and the longest path;
* *latency* — per-message time in the network;
* *queue depth* — the buffering the design buys its simplicity with
  (the circuit-switched design needs no switch buffers at all).

The queues are arrays over messages: each waiting message carries a
FIFO key, each channel a first-use rank, and one sort by ``(rank, key)``
per step yields the service order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.delivery import NO_ROWS, Attempt, DeliveryLoop
from ..core.errors import UnroutableError
from ..core.fattree import FatTree
from ..core.message import MessageSet

__all__ = ["BufferedRun", "run_store_and_forward"]


@dataclass
class BufferedRun:
    """Outcome of a buffered store-and-forward run.

    Chaos-instrumented runs additionally carry the ``(src, dst)`` pairs
    of messages dropped after an unrepairable severance (their latency
    stays 0) and one :class:`~repro.core.CycleStats` row per step; both
    stay empty for healthy runs.
    """

    makespan: int
    latencies: np.ndarray
    max_queue_depth: int
    dropped: list[tuple[int, int]] = field(default_factory=list)
    cycle_stats: list = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        return float(self.latencies.mean()) if self.latencies.size else 0.0

    @property
    def max_latency(self) -> int:
        return int(self.latencies.max()) if self.latencies.size else 0


def run_store_and_forward(
    ft: FatTree,
    messages: MessageSet,
    *,
    max_steps: int = 1_000_000,
    obs=None,
    chaos=None,
) -> BufferedRun:
    """Dynamically deliver ``messages``; oldest-first channel service.

    Each step, every channel independently forwards up to ``cap(c)`` of
    the oldest messages queued at its tail that want to cross it.  The
    step loop is :class:`~repro.core.delivery.DeliveryLoop` (one step
    per cycle, one attempt per hop crossed); this stack supplies the
    queue moves.  Capacities are per channel, so degraded trees serve
    only their surviving wires; messages with a severed path raise
    :class:`~repro.core.errors.UnroutableError` up front, and messages
    still queued after ``max_steps`` raise
    :class:`~repro.core.errors.DeliveryTimeout`.

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives the driver's records
    under the ``step`` event name (plus the hops ``moves`` and the live
    ``queue_depth``), a queue-depth histogram and a kernel wall-time
    span.

    ``chaos`` attaches a :class:`~repro.chaos.ChaosController`.
    Store-and-forward is naturally self-healing: a severed channel
    simply serves nothing, so messages queued at it wait in place until
    the scheduled repair.  Only a message whose remaining hops cross a
    channel that *never* repairs is dropped (recorded on the run, with
    per-step :class:`~repro.core.CycleStats`) or — with
    ``on_severed="raise"`` on the controller — aborts the run.  With an
    empty timeline the simulation is bit-identical to a healthy run.
    """
    from ..obs import resolve_obs
    from ..perf import get_path_index

    obs = resolve_obs(obs)
    if messages.n != ft.n:
        raise ValueError("message set and fat-tree disagree on n")
    routable = messages.without_self_messages()
    index = get_path_index(ft, routable, obs=obs)
    mask = index.routable_mask()
    if chaos is None and not mask.all():
        raise UnroutableError(routable.take(~mask).as_pairs())
    m = len(routable)
    if m == 0:
        return BufferedRun(0, np.empty(0, dtype=np.int64), 0)
    loop = _StoreAndForward(
        ft,
        routable,
        index,
        scheduler="store_and_forward",
        max_cycles=max_steps,
        obs=obs,
        chaos=chaos,
    )
    with obs.kernel("run_store_and_forward", n=ft.n, m=m):
        makespan = loop.run()
    if obs.enabled:
        obs.metrics.set_gauge(
            "queue.max_depth", loop.max_depth, simulator="store_and_forward"
        )
    run = BufferedRun(
        makespan=makespan, latencies=loop.latencies, max_queue_depth=loop.max_depth
    )
    if chaos is not None:
        run.dropped = chaos.dropped_pairs(routable)
        run.cycle_stats = list(chaos.cycle_stats)
    return run


class _StoreAndForward(DeliveryLoop):
    """Per-channel FIFO queues; each step every channel moves up to
    ``cap(c)`` of its oldest queued messages one hop on.

    The queues are arrays.  Message ``i`` waits at channel
    ``hops[i, progress[i]]``, and its ``key`` orders it in that queue:
    keys are handed out in queue-arrival order, so the smallest key is
    the oldest.  A channel's rank is the key of the first message ever
    queued at it, so channels rank in order of first use.  Sorting the
    waiting messages by ``(rank, key)`` therefore lists them in the
    order a dict of per-channel deques, keyed by first use, would pop
    them.
    """

    event = "step"
    store_and_forward = True

    def __init__(self, ft, routable, index, **loop_args):
        super().__init__(ft, routable, index, **loop_args)
        m = len(routable)
        self.hops = index.hop_matrix()
        self.progress = np.zeros(m, dtype=np.int64)
        self.key = np.arange(m, dtype=np.int64)
        self.next_key = m
        self.rank = np.full(index.num_slots, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(self.rank, self.hops[:, 0], self.key)
        self.latencies = np.zeros(m, dtype=np.int64)
        self.max_depth = int(np.bincount(self.hops[:, 0]).max())

    def gids_of(self, i):
        # damage behind a message's progress point must not strand it
        return self.hops[i, self.progress[i] :]

    def attempt(self, rows, t):
        # ``rows`` are every queued message: none ever backs off, since
        # a hop that is not taken is not a failure
        at = self.hops[rows, self.progress[rows]]
        order = np.lexsort((self.key[rows], self.rank[at]))
        queued, at = rows[order], at[order]
        head = np.flatnonzero(np.r_[True, at[1:] != at[:-1]])
        place = np.arange(at.size) - np.repeat(head, np.diff(np.r_[head, at.size]))
        go = place < self.index.caps[at]
        moves = queued[go]
        self.progress[moves] += 1
        done = self.progress[moves] == self.index.path_len[moves]
        arrived = moves[done]
        self.latencies[arrived] = t + 1
        onward = moves[~done]
        self.key[onward] = np.arange(self.next_key, self.next_key + onward.size)
        self.next_key += onward.size
        nxt = self.hops[onward, self.progress[onward]]
        np.minimum.at(self.rank, nxt, self.key[onward])
        waiting = np.concatenate([at[~go], nxt])
        depth = int(np.bincount(waiting).max()) if waiting.size else 0
        self.max_depth = max(self.max_depth, depth)
        if self.obs.enabled:
            self.obs.metrics.observe(
                "queue.depth", depth, simulator="store_and_forward"
            )
        return Attempt(
            moves, arrived, NO_ROWS, trace={"moves": int(moves.size), "queue_depth": depth}
        )
