"""A synchronous bit-serial network simulator for fat-trees (§II).

Runs whole *delivery cycles*: every processor injects its batched
messages, leading bits snake through the tree establishing paths, nodes
switch per Fig. 3, concentrators drop the excess under congestion, and
acknowledgments tell sources which messages to retry next cycle.

Two fidelity levels for the concentrators:

* ``"ideal"`` — the §III assumption: an output channel of capacity c
  carries up to c simultaneous messages, none lost without congestion.
* ``"pippenger"`` — partial concentrators: only ``floor(α·c)`` messages
  are guaranteed through a capacity-c port (α = 3/4), modelling the §IV
  hardware.  (The off-line results survive by treating the usable
  capacity as α times the wire count, "which changes the results by only
  a constant factor".)

The cycle is one array pass over the padded path rows of a
:class:`~repro.perf.PathIndex`.  A message's row lists the channels it
crosses, one per switch, so at tick ``t`` every surviving message sits
at hop ``t`` of its row: the wavefront's hop-``t`` gids are one gather.
Each tick groups the wavefront by gid (one bucket per node output port,
in order of first arrival) with one stable sort on a first-arrival key
(each gid's earliest wavefront position, from ``np.minimum.at``),
charges one per-channel ``used`` vector that persists across the ticks
of the cycle, and loops in Python only over the over-subscribed
buckets, whose concentrators draw the arbitration shuffle; a tick
without transient losses allocates no loss vector and needs no sort of
its failures, which are already in bucket order.  Capacities are the
index's per-channel vector, so a :class:`~repro.faults.DegradedFatTree`
is simulated against its surviving wires; a tree whose fault model
carries a transient ``loss_rate`` corrupts each switch traversal with
that probability, in addition to the explicit ``fault_rate`` knob.  Every delivery cycle
asserts the conservation invariant — delivered + congested + deferred
partitions the injected rows — and that every delivered row's last hop
is its destination leaf, so losses can never go silently unaccounted.

The cycle returns row positions.  :class:`DeliveryReport` turns them
into Fig. 2 frames (:class:`~repro.hardware.BitSerialMessage`, each
address stripped by the switches it crossed) only when a frame list is
read; the retry loop never reads them.  The per-frame simulator the
array cycle replaced stays as :func:`_reference_run_delivery_cycle`,
and the two agree frame for frame, in order, on every seed.

The retry loop (:func:`run_until_delivered`) runs the shared delivery
driver (:class:`~repro.core.delivery.DeliveryLoop`), which NACKs
congested and corrupted messages, re-injects them (under capped binary
exponential backoff when transient faults are active), tracks
per-message attempt counts, and raises a structured
:class:`~repro.core.errors.DeliveryTimeout` at its cycle budget.

The simulator is the end-to-end check on the scheduling theory: a
one-cycle message set must route with zero congestion drops under ideal
concentrators (:func:`run_schedule` asserts exactly that for every cycle
of a Theorem 1 / Corollary 2 schedule).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..core.delivery import Attempt, DeliveryLoop, record_offline_cycles
from ..core.errors import UnroutableError
from ..core.fattree import Direction, FatTree
from ..core.message import MessageSet
from ..core.schedule import Schedule
from .bitserial import BitSerialMessage, encode_address
from .node import Port, concentrate, select_output

if TYPE_CHECKING:
    from ..perf import PathIndex

__all__ = ["DeliveryReport", "run_delivery_cycle", "run_until_delivered", "run_schedule"]


@dataclass(frozen=True)
class _Cycle:
    """Row positions of one array delivery cycle.

    ``delivered`` lists self-messages first, then leaf arrivals in
    wavefront order; ``congested`` lists each tick's losses bucket by
    bucket, concentrator losers before transient faults, with the tick
    of each in ``congested_at``; ``deferred`` rows were never injected.
    """

    delivered: np.ndarray
    congested: np.ndarray
    congested_at: np.ndarray
    deferred: np.ndarray
    wave_ticks: int


class DeliveryReport:
    """Outcome of one delivery cycle.

    ``delivered``, ``congested`` (lost in a concentrator or to a
    transient fault) and ``deferred`` (never injected) are lists of
    Fig. 2 frames.  A report of :func:`run_delivery_cycle` holds row
    positions and builds those lists when one is first read.
    """

    def __init__(
        self,
        delivered: list[BitSerialMessage],
        congested: list[BitSerialMessage],
        deferred: list[BitSerialMessage],
        wave_ticks: int,
        payload_bits: int = 0,
    ) -> None:
        self._frames: tuple[list, list, list] | None = (delivered, congested, deferred)
        self._rows: tuple | None = None
        self.wave_ticks = wave_ticks
        self.payload_bits = payload_bits

    @classmethod
    def _of_cycle(cls, cycle: _Cycle, src, dst, depth: int, payload_bits: int):
        """A report whose frames are built from ``cycle`` on first read
        (``src``/``dst`` hold the endpoints of each row position)."""
        report = cls([], [], [], cycle.wave_ticks, payload_bits)
        report._frames = None
        report._rows = (cycle, src, dst, depth)
        return report

    def _lists(self) -> tuple[list, list, list]:
        if self._frames is None:
            cycle, src, dst, depth = self._rows
            src, dst = src.tolist(), dst.tolist()
            payload = (0,) * self.payload_bits

            def frames(rows, stripped):
                return [
                    BitSerialMessage(
                        src[i], dst[i], encode_address(src[i], dst[i], depth)[k:], payload
                    )
                    for i, k in zip(rows.tolist(), stripped)
                ]

            # a delivered frame crossed every switch of its path; one
            # congested at tick t lost t - 1 bits on the way there
            self._frames = (
                [BitSerialMessage(src[i], dst[i], [], payload) for i in cycle.delivered.tolist()],
                frames(cycle.congested, (cycle.congested_at - 1).tolist()),
                frames(cycle.deferred, [0] * cycle.deferred.size),
            )
            self._rows = None
        return self._frames

    @property
    def delivered(self) -> list[BitSerialMessage]:
        return self._lists()[0]

    @property
    def congested(self) -> list[BitSerialMessage]:
        return self._lists()[1]

    @property
    def deferred(self) -> list[BitSerialMessage]:
        return self._lists()[2]

    @property
    def losses(self) -> int:
        if self._frames is None:
            cycle = self._rows[0]
            return int(cycle.congested.size + cycle.deferred.size)
        return len(self._frames[1]) + len(self._frames[2])

    def cycle_bit_time(self) -> int:
        """Wall-clock bit-times for the cycle: the head needs one tick per
        switch, and the pipelined tail (M bit + payload) drains behind it."""
        return self.wave_ticks + 1 + self.payload_bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeliveryReport):
            return NotImplemented
        return (self._lists(), self.wave_ticks, self.payload_bits) == (
            other._lists(), other.wave_ticks, other.payload_bits
        )

    def __repr__(self) -> str:
        delivered, congested, deferred = self._lists()
        return (
            f"DeliveryReport(delivered={delivered!r}, congested={congested!r}, "
            f"deferred={deferred!r}, wave_ticks={self.wave_ticks}, "
            f"payload_bits={self.payload_bits})"
        )


def _effective_capacity(cap: int, concentrators: str) -> int:
    if cap <= 0:
        return 0  # a severed channel carries nothing under any model
    if concentrators in ("ideal", "faulty"):
        return cap
    if concentrators == "pippenger":
        return max(1, math.floor(0.75 * cap))
    raise ValueError(f"unknown concentrator model {concentrators!r}")


def _effective_caps(caps: np.ndarray, concentrators: str) -> np.ndarray:
    """:func:`_effective_capacity` over a path index's capacity vector."""
    if concentrators != "pippenger":
        return caps
    out = caps.copy()
    wired = caps[2:]  # gids 0 and 1 are the padding slot's, never a hop
    out[2:] = np.where(wired > 0, np.maximum(1, (3 * wired) // 4), 0)
    return out


def _transient_faults(
    ft: FatTree, concentrators: str, seed: int | None, fault_rate: float
) -> tuple[np.random.Generator | None, float]:
    """Validate the cycle's fault knobs; returns its ``(rng, loss_rate)``.

    Transient faults (``fault_rate``, or a degraded tree's
    ``loss_rate``) need random draws, so they default ``seed`` to 0.
    """
    if concentrators not in ("ideal", "pippenger", "faulty"):
        raise ValueError(f"unknown concentrator model {concentrators!r}")
    if concentrators == "faulty":
        if not (0.0 <= fault_rate < 1.0):
            raise ValueError("fault_rate must be in [0, 1)")
        if seed is None:
            seed = 0
    elif fault_rate:
        raise ValueError('fault_rate requires concentrators="faulty"')
    loss_rate = fault_rate
    if not loss_rate:
        model = getattr(ft, "faults", None)
        if model is not None and model.loss_rate:
            loss_rate = model.loss_rate
            if seed is None:
                seed = 0
    rng = np.random.default_rng(seed) if seed is not None else None
    return rng, loss_rate


def _runs(ranked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values in sorted ``ranked``."""
    edge = np.empty(ranked.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    return bounds[:-1], np.diff(bounds)


def _occurrence(keys: np.ndarray) -> np.ndarray:
    """Per element, how many earlier elements share its key."""
    order = np.argsort(keys, kind="stable")
    head, size = _runs(keys[order])
    out = np.empty(keys.size, dtype=np.int64)
    out[order] = np.arange(keys.size) - np.repeat(head, size)
    return out


def _array_cycle(
    paths: np.ndarray,
    path_len: np.ndarray,
    caps: np.ndarray,
    dst: np.ndarray,
    depth: int,
    rng: np.random.Generator | None,
    loss_rate: float,
) -> _Cycle:
    """One delivery cycle of the rows ``paths`` (a :class:`PathIndex`
    row subset) against effective capacities ``caps``.

    Draws from ``rng`` exactly as :func:`_reference_run_delivery_cycle`
    does: one shuffle per over-subscribed bucket (free capacity 0
    included), then one ``random()`` per winner, buckets in order; with
    transient losses, the wavefront positions between two such buckets
    draw theirs before the next bucket's shuffle.
    """
    from ..perf import PAD_GID

    m = path_len.size
    # injection: a processor's up channel (hop 0) admits its first
    # cap heads in row order; it is not charged to ``used``
    pending = np.flatnonzero(path_len > 0)
    leaf = paths[pending, 0]
    held = _occurrence(leaf) >= caps[leaf]
    deferred = pending[held]
    wave = pending[~held]
    up = path_len // 2
    # channels are circuit-switched: a message holds its wire for the
    # whole delivery cycle, so capacity is consumed per cycle, not per
    # tick — the load(M, c) <= cap(c) accounting of §III
    used = np.zeros(caps.size, dtype=np.int64)
    delivered = [np.flatnonzero(path_len == 0)]  # self-messages
    congested: list[np.ndarray] = []
    congested_at: list[np.ndarray] = []
    pos = np.arange(m)
    first_at = np.empty(caps.size, dtype=np.int64)  # per gid: first arrival
    t = 0
    while wave.size:
        t += 1
        u = up[wave]
        gids = paths[wave, np.where(t < u, t, 2 * depth - 2 * u + t)]
        if (gids == PAD_GID).any():
            raise AssertionError("internal message tried to leave through the root")
        # buckets by first arrival; candidates keep arrival order
        first_at[gids] = wave.size
        np.minimum.at(first_at, gids, pos[: wave.size])
        key = first_at[gids]
        by_bucket = np.argsort(key, kind="stable")
        wave, gids, key = wave[by_bucket], gids[by_bucket], key[by_bucket]
        slot = pos[: wave.size] - np.searchsorted(key, key)
        free = caps[gids] - used[gids]
        win = slot < free
        lost = np.zeros(wave.size, dtype=bool) if loss_rate else None
        if rng is not None:
            # an over-subscribed bucket's first loser sits at slot == free
            cut = np.flatnonzero(slot == free)
            ends = np.searchsorted(key, key[cut], side="right").tolist()
            taken: list[int] = []
            winners: list[int] = []
            drawn = 0  # loss draws taken up to this wavefront position
            for j, f, e in zip(cut.tolist(), free[cut].tolist(), ends):
                s = j - f
                if lost is not None:
                    lost[drawn:s] = rng.random(s - drawn) < loss_rate
                order = list(range(e - s))
                rng.shuffle(order)
                won = [s + i for i in sorted(order[:f])]
                taken.extend(range(s, j))
                winners.extend(won)
                if lost is not None:
                    lost[won] = rng.random(f) < loss_rate
                drawn = e
            win[taken] = False
            win[winners] = True
            if lost is not None:
                lost[drawn:] = rng.random(wave.size - drawn) < loss_rate
        ok = win if lost is None else win & ~lost
        used += np.bincount(gids[ok], minlength=used.size)
        # per bucket: the concentrator's losers, then transient faults;
        # without losses the losers are already in bucket order
        failed = np.flatnonzero(~ok)
        if failed.size:
            if lost is not None:
                failed = failed[np.argsort(2 * key[failed] + lost[failed], kind="stable")]
            congested.append(wave[failed])
            congested_at.append(np.full(failed.size, t, dtype=np.int64))
        wave = wave[ok]
        arrived = path_len[wave] == t + 1
        delivered.append(wave[arrived])
        wave = wave[~arrived]
    cycle = _Cycle(
        np.concatenate(delivered),
        np.concatenate(congested) if congested else np.zeros(0, dtype=np.int64),
        np.concatenate(congested_at) if congested else np.zeros(0, dtype=np.int64),
        deferred,
        t,
    )
    landed = cycle.delivered[path_len[cycle.delivered] > 0]
    leaf_down = ((((1 << depth) - 1) + dst[landed]) << 1) | 1
    wrong = landed[paths[landed, 2 * depth - 1] != leaf_down]
    if wrong.size:
        raise AssertionError(
            f"misrouted message to leaf {int(dst[wrong[0]])} at row {int(wrong[0])}"
        )
    seen = np.bincount(
        np.concatenate([cycle.delivered, cycle.congested, cycle.deferred]), minlength=m
    )
    if (seen != 1).any():
        raise AssertionError(
            "delivery-cycle accounting violated: delivered + congested + "
            "deferred must partition the injected rows "
            f"(missing={np.flatnonzero(seen == 0).tolist()}, "
            f"repeated={np.flatnonzero(seen > 1).tolist()})"
        )
    return cycle


def _run_cycle(
    ft: FatTree,
    index: PathIndex,
    rows: np.ndarray | None,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    concentrators: str,
    seed: int | None,
    payload_bits: int,
    fault_rate: float,
    obs,
) -> tuple[_Cycle, DeliveryReport]:
    """One array cycle of ``index`` rows ``rows`` (``None``: all), whose
    endpoints are ``src``/``dst``; returns it and its lazy report."""
    from ..obs import resolve_obs

    rng, loss_rate = _transient_faults(ft, concentrators, seed, fault_rate)
    paths, path_len = index.paths, index.path_len
    if rows is not None:
        paths, path_len = paths[rows], path_len[rows]
    cycle = _array_cycle(
        paths, path_len, _effective_caps(index.caps, concentrators), dst,
        ft.depth, rng, loss_rate,
    )
    resolve_obs(obs).metrics.observe("switchsim.wave_ticks", cycle.wave_ticks)
    return cycle, DeliveryReport._of_cycle(cycle, src, dst, ft.depth, payload_bits)


def run_delivery_cycle(
    ft: FatTree,
    messages: MessageSet,
    *,
    concentrators: str = "ideal",
    seed: int | None = None,
    payload_bits: int = 0,
    fault_rate: float = 0.0,
    obs=None,
) -> DeliveryReport:
    """Simulate one delivery cycle of ``messages`` on ``ft``.

    Returns delivered / congested (lost in a concentrator) / deferred
    (never injected: a processor may start at most ``cap(lg n)`` messages
    per cycle on its channel) messages plus the tick count.  Frame for
    frame, in order, the report equals that of
    :func:`_reference_run_delivery_cycle` on the same arguments.

    ``concentrators="faulty"`` (with ``fault_rate`` > 0) models transient
    switch faults: each switch traversal independently drops the message
    with the given probability, exercising the §II acknowledge-and-retry
    mechanism beyond pure congestion.  A degraded tree whose
    :class:`~repro.faults.FaultModel` carries a ``loss_rate`` applies the
    same per-traversal corruption under any concentrator model.

    The paths come from a fresh :class:`~repro.perf.PathIndex`, not the
    tree's index cache.  ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives the wave-tick
    histogram; the per-cycle record is the caller's
    (:func:`run_until_delivered`, :func:`run_schedule`).
    """
    from ..perf import PathIndex

    return _run_cycle(
        ft,
        PathIndex(ft, messages),
        None,
        messages.src,
        messages.dst,
        concentrators=concentrators,
        seed=seed,
        payload_bits=payload_bits,
        fault_rate=fault_rate,
        obs=obs,
    )[1]


def _assert_conserved(
    messages: MessageSet,
    delivered: list[BitSerialMessage],
    congested: list[BitSerialMessage],
    deferred: list[BitSerialMessage],
) -> None:
    """The accounting invariant: every injected message ends the cycle in
    exactly one of delivered / congested / deferred."""
    injected = Counter(zip(messages.src.tolist(), messages.dst.tolist()))
    accounted: Counter = Counter()
    for group in (delivered, congested, deferred):
        for f in group:
            accounted[(f.src, f.dst)] += 1
    if accounted != injected:
        missing = injected - accounted
        extra = accounted - injected
        raise AssertionError(
            "delivery-cycle accounting violated: delivered + congested + "
            f"deferred must partition the injected multiset "
            f"(missing={dict(missing)}, extra={dict(extra)})"
        )


def _reference_run_delivery_cycle(
    ft: FatTree,
    messages: MessageSet,
    *,
    concentrators: str = "ideal",
    seed: int | None = None,
    payload_bits: int = 0,
    fault_rate: float = 0.0,
    obs=None,
) -> DeliveryReport:
    """The per-frame oracle of :func:`run_delivery_cycle`, bit-identical.

    Walks Fig. 2 frames through Fig. 3 nodes one by one: the selector
    picks each frame's output port, a dict buckets the frames per port,
    :func:`~repro.hardware.concentrate` arbitrates and each winner's
    leading address bit is stripped.  Capacities are read per channel
    with :meth:`FatTree.chan_cap`.  Same arguments, same report: every
    frame list equal in order, and the same ``wave_ticks``.
    """
    if messages.n != ft.n:
        raise ValueError("message set and fat-tree disagree on n")
    rng, loss_rate = _transient_faults(ft, concentrators, seed, fault_rate)
    depth = ft.depth

    frames = [
        BitSerialMessage.make(int(s), int(d), depth, payload=(0,) * payload_bits)
        for s, d in messages
    ]
    delivered = [f for f in frames if f.arrived]  # self-messages
    pending = [f for f in frames if not f.arrived]

    # Injection: each processor's up channel admits its surviving heads.
    per_leaf: dict[int, int] = {}
    wavefront: list[tuple[int, int, Port, BitSerialMessage]] = []
    deferred: list[BitSerialMessage] = []
    for f in pending:
        inject_cap = _effective_capacity(
            ft.chan_cap(depth, f.src, Direction.UP), concentrators
        )
        count = per_leaf.get(f.src, 0)
        if count >= inject_cap:
            deferred.append(f)
            continue
        per_leaf[f.src] = count + 1
        parent = (depth - 1, f.src >> 1)
        wavefront.append((parent[0], parent[1], Port(f"L{f.src & 1}"), f))

    used: dict[tuple[int, int, Port], int] = {}
    congested: list[BitSerialMessage] = []
    ticks = 0
    while wavefront:
        ticks += 1
        # group arrivals per (node, output port)
        buckets: dict[tuple[int, int, Port], list[BitSerialMessage]] = {}
        for level, index, came_from, msg in wavefront:
            out = select_output(came_from, msg)
            if level == 0 and out is Port.U:
                raise AssertionError(
                    "internal message tried to leave through the root"
                )
            buckets.setdefault((level, index, out), []).append(msg)
        nxt: list[tuple[int, int, Port, BitSerialMessage]] = []
        for (level, index, out), cands in buckets.items():
            if out is Port.U:
                chan = (level, index, Direction.UP)
            else:
                child = (index << 1) | (0 if out is Port.L0 else 1)
                chan = (level + 1, child, Direction.DOWN)
            cap = _effective_capacity(ft.chan_cap(*chan), concentrators)
            free = cap - used.get((level, index, out), 0)
            winners, losers = concentrate(cands, max(0, free), rng=rng)
            if loss_rate and winners:
                healthy = []
                for msg in winners:
                    if rng.random() < loss_rate:
                        losers.append(msg)  # transient switch fault
                    else:
                        healthy.append(msg)
                winners = healthy
            used[(level, index, out)] = used.get((level, index, out), 0) + len(
                winners
            )
            congested.extend(losers)
            for msg in winners:
                fwd = msg.strip_bit()
                if out is Port.U:
                    nxt.append((level - 1, index >> 1, Port(f"L{index & 1}"), fwd))
                else:
                    child = (index << 1) | (0 if out is Port.L0 else 1)
                    if level + 1 == depth:  # arriving at a leaf
                        if not fwd.arrived or fwd.dst != child:
                            raise AssertionError(
                                f"misrouted message {msg.src}->{msg.dst} "
                                f"landed at leaf {child}"
                            )
                        delivered.append(fwd)
                    else:
                        nxt.append((level + 1, child, Port.U, fwd))
        wavefront = nxt
    _assert_conserved(messages, delivered, congested, deferred)
    report = DeliveryReport(
        delivered=delivered,
        congested=congested,
        deferred=deferred,
        wave_ticks=ticks,
        payload_bits=payload_bits,
    )
    from ..obs import resolve_obs

    resolve_obs(obs).metrics.observe("switchsim.wave_ticks", report.wave_ticks)
    return report


@dataclass
class RetryOutcome:
    """Result of running delivery cycles until everything arrives.

    Chaos-instrumented runs additionally carry one
    :class:`~repro.core.CycleStats` row per delivery cycle and the
    ``(src, dst)`` pairs of messages dropped after an unrepairable
    severance; both stay empty for healthy runs.
    """

    cycles: int
    reports: list[DeliveryReport] = field(default_factory=list)
    attempts: list[int] = field(default_factory=list)
    cycle_stats: list = field(default_factory=list)
    dropped: list[tuple[int, int]] = field(default_factory=list)

    def total_bit_time(self) -> int:
        """Wall-clock bit-times summed over all delivery cycles."""
        return sum(r.cycle_bit_time() for r in self.reports)

    def attempt_histogram(self) -> Counter:
        """``Counter`` mapping attempt counts to number of messages."""
        return Counter(self.attempts)

    def max_attempts(self) -> int:
        """Most delivery attempts any single message needed."""
        return max(self.attempts, default=0)


def run_until_delivered(
    ft: FatTree,
    messages: MessageSet,
    *,
    concentrators: str = "ideal",
    seed: int = 0,
    payload_bits: int = 0,
    fault_rate: float = 0.0,
    max_cycles: int = 10_000,
    max_backoff: int = 8,
    backoff=None,
    obs=None,
    chaos=None,
) -> RetryOutcome:
    """Deliver ``messages`` with the §II acknowledge-and-retry loop.

    The cycle loop is :class:`~repro.core.delivery.DeliveryLoop` — its
    budget, stall check, backoff, chaos handling and per-cycle record
    apply; this stack supplies one :func:`run_delivery_cycle` per cycle
    (seeded ``seed + t``) and maps its frames back to message rows.
    Congestion losses retry next cycle; when transient faults are
    active (``fault_rate`` > 0 or a degraded tree's ``loss_rate``),
    failed messages back off under ``backoff`` (default: capped at
    ``max_backoff``).  A message its processor could not inject spends
    no attempt.  Messages with no surviving path raise
    :class:`~repro.core.errors.UnroutableError` up front; exhausting
    ``max_cycles``, or a loss-free cycle that delivers nothing, raises
    :class:`~repro.core.errors.DeliveryTimeout` — the loop can never
    hang.

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives the driver's ``cycle``
    records (plus each cycle's ``wave_ticks`` and ``concentrators``),
    wave-tick and per-message attempt histograms and a kernel wall-time
    span.  ``chaos`` attaches a :class:`~repro.chaos.ChaosController`;
    per-cycle :class:`~repro.core.CycleStats` and the dropped pairs then
    land on the outcome, and with an empty timeline the reports are
    bit-identical to a healthy run.
    """
    from ..faults.backoff import BackoffPolicy
    from ..obs import resolve_obs
    from ..perf import get_path_index

    obs = resolve_obs(obs)
    if max_backoff < 1:
        raise ValueError("max_backoff must be >= 1")
    if messages.n != ft.n:
        raise ValueError("message set and fat-tree disagree on n")
    policy = backoff if backoff is not None else BackoffPolicy(base=1, cap=max_backoff)
    # the shared PathIndex both answers routability and primes the cache
    # for any scheduler later run on the same (tree, message set) pair
    index = get_path_index(ft, messages, obs=obs)
    mask = index.routable_mask()
    if chaos is None and not mask.all():
        raise UnroutableError(messages.take(~mask).as_pairs())
    loop = _SwitchSim(
        ft,
        messages,
        index,
        seed=seed,
        cycle_args={
            "concentrators": concentrators,
            "payload_bits": payload_bits,
            "fault_rate": fault_rate,
        },
        scheduler="switchsim",
        max_cycles=max_cycles,
        obs=obs,
        chaos=chaos,
        policy=policy,
        jrngs=[policy.jitter_rng(np.random.default_rng((seed + 1) * 0x9E3779B1))],
    )
    with obs.kernel("run_until_delivered", n=ft.n, m=len(messages), seed=seed):
        cycles = loop.run()
    idle = DeliveryReport([], [], [], 0, payload_bits)
    attempts = loop.attempts.tolist()
    outcome = RetryOutcome(
        cycles=cycles,
        reports=[loop.reports.get(t, idle) for t in range(cycles)],
        attempts=attempts,
    )
    if obs.enabled:
        for count in attempts:
            obs.metrics.observe("retry.attempts", count, scheduler="switchsim")
    if chaos is not None:
        outcome.cycle_stats = list(chaos.cycle_stats)
        outcome.dropped = chaos.dropped_pairs(messages)
    return outcome


class _SwitchSim(DeliveryLoop):
    """One array delivery cycle per loop cycle, over the loop's path index.

    The cycle returns positions in ``rows``; they map back to message
    rows as the frame simulator's ``(src, dst)`` buckets did.  Among the
    rows of one ``(src, dst)`` pair, the pair's delivered messages take
    its highest rows, in delivery order, and its congested messages the
    next highest, in congestion order; deferred messages keep the
    lowest.  Which row of a duplicate pair is charged the attempt and
    the backoff changes the later cycles, so
    ``tests/corpus/delivery_golden.jsonl`` pins this mapping.  Failed
    rows stay in congestion order, the order of the backoff draws.
    """

    def __init__(self, ft, messages, index, *, seed, cycle_args, **loop_args):
        super().__init__(ft, messages, index, **loop_args)
        self.ft = ft
        self.seed = seed
        self.cycle_args = cycle_args
        self.reports: dict[int, DeliveryReport] = {}

    def attempt(self, rows, t):
        ft, ms = self.ft, self.messages
        src, dst = ms.src[rows], ms.dst[rows]
        cycle, report = _run_cycle(
            ft, self.index, rows, src, dst, seed=self.seed + t, obs=self.obs,
            **self.cycle_args,
        )
        self.reports[t] = report
        # the k-th of a pair's delivered-then-congested messages takes
        # the pair's k-th highest row
        pair = src * ft.n + dst
        by_pair = np.argsort(pair, kind="stable")
        taken = np.concatenate([cycle.delivered, cycle.congested])
        top = np.searchsorted(pair[by_pair], pair[taken], side="right") - 1
        mapped = rows[by_pair[top - _occurrence(pair[taken])]]
        delivered = np.sort(mapped[: cycle.delivered.size], kind="stable")
        failed_rows = mapped[cycle.delivered.size :]
        model = getattr(ft, "faults", None)
        return Attempt(
            np.concatenate([delivered, failed_rows]),
            delivered,
            failed_rows,
            # the chaos clock may flip the transient loss rate
            lossy=bool(self.cycle_args["fault_rate"])
            or (model is not None and model.loss_rate > 0),
            trace={
                "wave_ticks": cycle.wave_ticks,
                "concentrators": self.cycle_args["concentrators"],
            },
        )


def run_schedule(
    ft: FatTree,
    schedule: Schedule,
    *,
    payload_bits: int = 0,
    obs=None,
) -> list[DeliveryReport]:
    """Execute an off-line schedule on the switch simulator.

    With ideal concentrators every cycle of a valid schedule must route
    with **zero** congestion losses — the end-to-end confirmation that
    one-cycle sets and the Fig. 3 switching agree.  Raises on any loss.
    (On a degraded tree the guarantee holds for schedules built against
    the same degraded capacities — the surviving wires are exactly what
    the one-cycle property was checked on.)

    ``obs`` is forwarded to every per-cycle
    :func:`run_delivery_cycle` call and receives one ``cycle`` record
    per schedule cycle.
    """
    from ..obs import resolve_obs

    obs = resolve_obs(obs)
    reports = []
    for t, cycle in enumerate(schedule.cycles):
        report = run_delivery_cycle(
            ft, cycle, concentrators="ideal", payload_bits=payload_bits, obs=obs
        )
        if report.losses:
            raise AssertionError(
                f"schedule cycle {t} lost {report.losses} messages in the "
                "switch simulator — not a one-cycle set?"
            )
        reports.append(report)
    if obs.enabled:
        record_offline_cycles(obs, "switchsim", [len(r.delivered) for r in reports])
    return reports
