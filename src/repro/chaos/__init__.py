"""repro.chaos — runtime fault injection with self-healing rescheduling.

The robustness layer of the reproduction: deterministic, seeded chaos
timelines (:class:`ChaosSchedule`) mutate a live
:class:`~repro.faults.DegradedFatTree` *between* delivery cycles while
a routing run is in flight, and the runtime loops recover — rerouting
incrementally, parking severed messages until their scheduled repair,
and backing off with capped seeded jitter — without ever recomputing
state from scratch.  Every cycle's outcome satisfies the partition
invariant ``delivered + congested + retried + deferred + dropped ==
in-flight``, and an *empty* timeline is guaranteed bit-identical to a
healthy run.

Entry points: :func:`run_chaos_random_rank`,
:func:`run_chaos_online_retry`, :func:`run_chaos_switchsim`,
:func:`run_chaos_store_and_forward` (runtime loops under chaos) and
:func:`run_chaos_schedule` (off-line schedules replayed with
incremental repair).
"""

from .clock import ChaosClock
from .engine import (
    ChaosController,
    assert_delivered_floor,
    delivered_fraction,
    run_chaos_online_retry,
    run_chaos_random_rank,
    run_chaos_schedule,
    run_chaos_store_and_forward,
    run_chaos_switchsim,
)
from .timeline import EVENT_KINDS, ChaosEvent, ChaosSchedule, random_timeline

__all__ = [
    "ChaosEvent",
    "ChaosSchedule",
    "EVENT_KINDS",
    "random_timeline",
    "ChaosClock",
    "ChaosController",
    "run_chaos_random_rank",
    "run_chaos_online_retry",
    "run_chaos_switchsim",
    "run_chaos_store_and_forward",
    "run_chaos_schedule",
    "delivered_fraction",
    "assert_delivered_floor",
]
