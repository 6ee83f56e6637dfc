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

Entry point: :func:`run_chaos` runs any
:data:`~repro.core.registry.STACKS` row under a timeline — the runtime
loops with the chaos controller attached, the off-line schedulers as a
replay of their healthy schedule with incremental repair.
:func:`check_chaos_run` and :func:`same_delivery` are the checks
``repro chaos`` and the fuzz oracle share.
"""

from .clock import ChaosClock
from .engine import (
    ChaosController,
    chaos_options,
    check_chaos_run,
    delivered_fraction,
    run_chaos,
    run_chaos_random_rank,
    run_chaos_switchsim,
    same_delivery,
)
from .timeline import EVENT_KINDS, ChaosEvent, ChaosSchedule, random_timeline

__all__ = [
    "ChaosEvent",
    "ChaosSchedule",
    "EVENT_KINDS",
    "random_timeline",
    "ChaosClock",
    "ChaosController",
    "run_chaos",
    "run_chaos_random_rank",
    "run_chaos_switchsim",
    "chaos_options",
    "delivered_fraction",
    "check_chaos_run",
    "same_delivery",
]
