"""Schedules: partitions of a message set into delivery cycles (§III).

A *schedule* of a message set ``M`` is a partition of ``M`` into
one-cycle message sets ``M_1, …, M_d``; ``d`` is the number of delivery
cycles.  ``d >= λ(M)`` always (the load-factor lower bound), and the
paper's schedulers achieve ``d = O(λ(M)·lg n)`` (Theorem 1) or
``d <= 2·ceil((a/(a−1))·λ(M))`` (Corollary 2).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .fattree import FatTree
from .load import is_one_cycle, load_factor
from .message import MessageSet

__all__ = ["CycleStats", "Schedule", "ScheduleError"]


class ScheduleError(AssertionError):
    """Raised by :meth:`Schedule.validate` when a schedule is invalid."""


@dataclass(frozen=True, slots=True)
class CycleStats:
    """Per-cycle outcome partition of the in-flight messages.

    A chaos-instrumented run labels every message that is in flight at
    the start of cycle ``t`` with exactly one outcome for that cycle:

    * ``delivered`` — attempted and succeeded this cycle;
    * ``congested`` — first delivery attempt failed (lost arbitration
      or corrupted);
    * ``retried`` — a repeat attempt failed again;
    * ``deferred`` — made no attempt this cycle (backoff window, or
      parked awaiting a scheduled repair);
    * ``dropped`` — severed by a fault with no repair scheduled and
      abandoned this cycle.

    The strengthened partition invariant is exactly

    ``delivered + congested + retried + deferred + dropped == in_flight``

    and :meth:`Schedule.validate` enforces it per cycle, plus the
    cross-cycle chain ``in_flight[t+1] == in_flight[t] - delivered[t]
    - dropped[t]`` (all traffic enters at cycle 0).
    """

    in_flight: int
    delivered: int
    congested: int
    retried: int
    deferred: int
    dropped: int

    def check(self) -> None:
        """Raise :class:`ScheduleError` unless the partition holds."""
        parts = (
            self.delivered,
            self.congested,
            self.retried,
            self.deferred,
            self.dropped,
        )
        if self.in_flight < 0 or any(p < 0 for p in parts):
            raise ScheduleError(f"negative cycle stats: {self!r}")
        if sum(parts) != self.in_flight:
            raise ScheduleError(
                "cycle outcome partition broken: delivered + congested + "
                f"retried + deferred + dropped = {sum(parts)} != "
                f"in_flight = {self.in_flight} ({self!r})"
            )


@dataclass
class Schedule:
    """A sequence of delivery cycles plus bookkeeping.

    Attributes
    ----------
    cycles:
        One :class:`MessageSet` per delivery cycle.
    n_self_messages:
        Self-messages removed before scheduling (they use no channels and
        are considered delivered immediately).
    per_level_cycles:
        For Theorem 1 schedules, the number of cycles contributed by each
        tree level (empty for schedulers that do not work level by level).
    cycle_stats:
        For chaos-instrumented runs, one :class:`CycleStats` outcome
        partition per cycle (empty for healthy schedules).
    dropped:
        Messages abandoned mid-run because a fault severed their path
        with no repair scheduled (``None`` for healthy schedules, which
        must deliver everything).
    """

    cycles: list[MessageSet]
    n_self_messages: int = 0
    per_level_cycles: dict[int, int] = field(default_factory=dict)
    cycle_stats: list[CycleStats] = field(default_factory=list)
    dropped: MessageSet | None = None

    @property
    def num_cycles(self) -> int:
        """The paper's ``d``."""
        return len(self.cycles)

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self) -> Iterator[MessageSet]:
        return iter(self.cycles)

    def total_messages(self) -> int:
        """Messages covered by the schedule, self-messages included."""
        return sum(len(c) for c in self.cycles) + self.n_self_messages

    def validate(self, ft: FatTree, original: MessageSet) -> None:
        """Check the schedule invariants, raising on violation:

        1. every cycle is a one-cycle set (``λ(M_t) <= 1``) — checked
           against the *pristine* base capacities when the run carries
           :attr:`cycle_stats`, since a chaos run's capacities mutate
           between cycles and only the base tree upper-bounds them all;
        2. the cycles (plus :attr:`dropped`, if any) partition
           ``original`` minus its self-messages;
        3. when per-level bookkeeping is present, it accounts for every
           cycle exactly (``sum(per_level_cycles) == num_cycles``);
        4. when :attr:`cycle_stats` is present, every cycle's outcome
           partition holds (delivered + congested + retried + deferred
           + dropped == in-flight), the per-cycle delivered/dropped
           tallies match the actual cycles, and the in-flight counts
           chain correctly from one cycle to the next.
        """
        # Effective capacities never exceed the pristine base, so base
        # one-cycle-ness is a sound (and time-invariant) check for runs
        # whose tree mutated mid-flight.
        cycle_ft: FatTree = (
            getattr(ft, "base", ft) if self.cycle_stats else ft
        )
        for t, cycle in enumerate(self.cycles):
            if not is_one_cycle(cycle_ft, cycle):
                raise ScheduleError(
                    f"cycle {t} is not a one-cycle set "
                    f"(λ = {load_factor(cycle_ft, cycle):.3f})"
                )
        routable = original.without_self_messages()
        expected_self = len(original) - len(routable)
        if self.n_self_messages != expected_self:
            raise ScheduleError(
                f"schedule records {self.n_self_messages} self-messages, "
                f"original has {expected_self}"
            )
        union = MessageSet.empty(original.n)
        for cycle in self.cycles:
            union = union.concat(cycle)
        if self.dropped is not None:
            if self.dropped.n != original.n:
                raise ScheduleError(
                    f"dropped message set is over n={self.dropped.n}, "
                    f"schedule is over n={original.n}"
                )
            union = union.concat(self.dropped)
        if union.counter() != routable.counter():
            raise ScheduleError("schedule cycles do not partition the message set")
        self._validate_cycle_stats()
        if self.per_level_cycles:
            negative = {
                level: count
                for level, count in self.per_level_cycles.items()
                if count < 0
            }
            if negative:
                raise ScheduleError(
                    f"per_level_cycles has negative counts: {negative}"
                )
            accounted = sum(self.per_level_cycles.values())
            if accounted != self.num_cycles:
                raise ScheduleError(
                    f"per_level_cycles accounts for {accounted} cycles, "
                    f"schedule has {self.num_cycles}"
                )

    def _validate_cycle_stats(self) -> None:
        """Invariant 4: the strengthened chaos outcome partition."""
        if not self.cycle_stats:
            return
        if len(self.cycle_stats) != self.num_cycles:
            raise ScheduleError(
                f"cycle_stats has {len(self.cycle_stats)} rows, "
                f"schedule has {self.num_cycles} cycles"
            )
        n_dropped = 0 if self.dropped is None else len(self.dropped)
        for t, stats in enumerate(self.cycle_stats):
            stats.check()
            if stats.delivered != len(self.cycles[t]):
                raise ScheduleError(
                    f"cycle {t} stats claim {stats.delivered} delivered, "
                    f"cycle holds {len(self.cycles[t])} messages"
                )
            if t + 1 < len(self.cycle_stats):
                expected = stats.in_flight - stats.delivered - stats.dropped
                nxt = self.cycle_stats[t + 1].in_flight
                if nxt != expected:
                    raise ScheduleError(
                        f"in-flight chain broken at cycle {t}: "
                        f"{stats.in_flight} - {stats.delivered} delivered "
                        f"- {stats.dropped} dropped = {expected}, but "
                        f"cycle {t + 1} starts with {nxt}"
                    )
        total_dropped = sum(s.dropped for s in self.cycle_stats)
        if total_dropped != n_dropped:
            raise ScheduleError(
                f"cycle_stats drop {total_dropped} messages, schedule "
                f"records {n_dropped} dropped"
            )
        last = self.cycle_stats[-1]
        if last.in_flight - last.delivered - last.dropped != 0:
            raise ScheduleError(
                f"final cycle leaves {last.in_flight - last.delivered - last.dropped} "
                "messages in flight"
            )
