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

Channel capacities are read *per channel* (:meth:`FatTree.chan_cap`), so
a :class:`~repro.faults.DegradedFatTree` is simulated against its
surviving wires; a tree whose fault model carries a transient
``loss_rate`` corrupts each switch traversal with that probability, in
addition to the explicit ``fault_rate`` knob.  Every delivery cycle
asserts the conservation invariant — delivered + congested + deferred
partitions the injected multiset — so losses can never go silently
unaccounted.

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

import numpy as np

from ..core.delivery import IDLE, Attempt, DeliveryLoop, record_offline_cycles
from ..core.errors import UnroutableError
from ..core.fattree import Direction, FatTree
from ..core.message import MessageSet
from ..core.schedule import Schedule
from .bitserial import BitSerialMessage
from .node import Port, concentrate, select_output

__all__ = ["DeliveryReport", "run_delivery_cycle", "run_until_delivered", "run_schedule"]


@dataclass
class DeliveryReport:
    """Outcome of one delivery cycle."""

    delivered: list[BitSerialMessage]
    congested: list[BitSerialMessage]
    deferred: list[BitSerialMessage]
    wave_ticks: int
    payload_bits: int = 0

    @property
    def losses(self) -> int:
        return len(self.congested) + len(self.deferred)

    def cycle_bit_time(self) -> int:
        """Wall-clock bit-times for the cycle: the head needs one tick per
        switch, and the pipelined tail (M bit + payload) drains behind it."""
        return self.wave_ticks + 1 + self.payload_bits


def _effective_capacity(cap: int, concentrators: str) -> int:
    if cap <= 0:
        return 0  # a severed channel carries nothing under any model
    if concentrators in ("ideal", "faulty"):
        return cap
    if concentrators == "pippenger":
        return max(1, math.floor(0.75 * cap))
    raise ValueError(f"unknown concentrator model {concentrators!r}")


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
    per cycle on its channel) messages plus the tick count.

    ``concentrators="faulty"`` (with ``fault_rate`` > 0) models transient
    switch faults: each switch traversal independently drops the message
    with the given probability, exercising the §II acknowledge-and-retry
    mechanism beyond pure congestion.  A degraded tree whose
    :class:`~repro.faults.FaultModel` carries a ``loss_rate`` applies the
    same per-traversal corruption under any concentrator model.

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives the wave-tick
    histogram; the per-cycle record is the caller's
    (:func:`run_until_delivered`, :func:`run_schedule`).
    """
    if messages.n != ft.n:
        raise ValueError("message set and fat-tree disagree on n")
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
    depth = ft.depth
    rng = np.random.default_rng(seed) if seed is not None else None

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

    # Channels are circuit-switched: a message holds its wire for the
    # whole delivery cycle (the tail follows the head), so capacity is
    # consumed per cycle, not per tick — exactly the load(M, c) <= cap(c)
    # accounting of §III.
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
        jrng=policy.jitter_rng(np.random.default_rng((seed + 1) * 0x9E3779B1)),
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
    """One bit-serial delivery cycle per loop cycle; frames map back to
    message rows by ``(src, dst)``."""

    def __init__(self, ft, messages, index, *, seed, cycle_args, **loop_args):
        super().__init__(ft, messages, index, **loop_args)
        self.ft = ft
        self.seed = seed
        self.cycle_args = cycle_args
        self.reports: dict[int, DeliveryReport] = {}

    def attempt(self, rows, t):
        if rows.size == 0:
            return IDLE
        ft, ms = self.ft, self.messages
        report = run_delivery_cycle(
            ft,
            MessageSet(ms.src[rows], ms.dst[rows], ft.n),
            seed=self.seed + t,
            obs=self.obs,
            **self.cycle_args,
        )
        self.reports[t] = report
        # map report frames back to message rows ((src, dst) multiset)
        buckets: dict[tuple[int, int], list[int]] = {}
        for i, s, d in zip(rows.tolist(), ms.src[rows].tolist(), ms.dst[rows].tolist()):
            buckets.setdefault((s, d), []).append(i)
        done = [buckets[(f.src, f.dst)].pop() for f in report.delivered]
        failed = [buckets[(f.src, f.dst)].pop() for f in report.congested]
        delivered = np.asarray(sorted(done), dtype=np.int64)
        failed_rows = np.asarray(failed, dtype=np.int64)
        model = getattr(ft, "faults", None)
        return Attempt(
            np.concatenate([delivered, failed_rows]),
            delivered,
            failed_rows,
            # the chaos clock may flip the transient loss rate
            lossy=bool(self.cycle_args["fault_rate"])
            or (model is not None and model.loss_rate > 0),
            trace={
                "wave_ticks": report.wave_ticks,
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
