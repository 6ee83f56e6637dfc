"""The schedule conformance oracle: one case, every routing stack.

The repo has seven independent ways to deliver the same message set —
the Theorem 1 off-line scheduler, the Corollary 2 reuse scheduler, the
random-rank on-line kernel, greedy first-fit, the on-line retry loop,
the buffered store-and-forward design and the bit-serial switch
simulator — each also runnable on a fault-degraded tree, and each one
row of :data:`repro.core.registry.STACKS`.  Agreement between all of
them *is* the reproduction's correctness claim, so the
:class:`DifferentialOracle` runs one :class:`~repro.verify.FuzzCase`
through every entry point and cross-checks:

* :meth:`Schedule.validate` on every produced schedule (one-cycle
  cycles, exact partition of the message multiset, per-level cycle
  accounting);
* the load-factor lower bound ``d >= ceil(λ(M))`` for every schedule;
* the Theorem 1 upper bound ``d <= 2·ceil(λ)·lg n`` and, when the
  capacities admit it, the Corollary 2 bound
  ``d <= 2·ceil((a/(a−1))·λ)``;
* bit-identical parity between the vectorised kernels and their
  retained pure-Python reference oracles;
* batched conformance for cases carrying extra message sets: one
  :func:`repro.perf.batch_schedule` call over every set must be
  bit-identical, set by set, to scheduling each set alone (greedy and
  random-rank kernels), and each per-set schedule must deliver exactly
  its own message multiset;
* identical delivered multisets across all stacks (including the
  switch simulator's retry loop and the buffered design);
* zero congestion losses when the Theorem 1 schedule is executed
  end-to-end on the bit-serial switch simulator;
* observability accounting for every schedule stack that ran:
  per-cycle ``cycle`` events under the stack's registry ``label``
  match the returned schedule exactly, and tracing never perturbs the
  RNG (traced and untraced runs are bit-identical);
* chaos conformance (:mod:`repro.chaos`) for every stack that ran
  healthy, reported as ``chaos-<stack>``: for cases carrying a
  timeline, the chaos run passes :func:`~repro.chaos.check_chaos_run`
  (the per-cycle partition invariant, nothing left in flight,
  delivered + dropped exactly partitions the message multiset) and
  random-rank's cycles before the first fault event equal the healthy
  run's (healthy-prefix equivalence); then an *empty*-timeline chaos
  run is bit-identical to the healthy run (run last, so it doubles as
  proof that real-timeline chaos runs leave no footprint on the
  caller's tree).

A failing case raises :class:`ConformanceError` carrying every failed
check plus the case's JSON, which :mod:`repro.verify.shrink` then
reduces to a minimal reproducer.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import DeliveryTimeout, UnroutableError
from ..core.fattree import FatTree
from ..core.load import load_factor
from ..core.message import MessageSet
from ..core.registry import BATCH_KERNELS, STACKS
from ..core.schedule import Schedule, ScheduleError
from .generators import FuzzCase

__all__ = ["ConformanceError", "OracleReport", "DifferentialOracle", "SCHEDULE_STACKS"]

SCHEDULE_STACKS: tuple[str, ...] = tuple(
    name for name, stack in STACKS.items() if stack.kind != "hardware"
)
"""Registry stacks that return a :class:`~repro.core.Schedule` (the
buffered design and the switch simulator are checked separately)."""


class ConformanceError(AssertionError):
    """One or more conformance checks failed for a fuzz case."""

    def __init__(self, case: FuzzCase, failures: list[str]):
        self.case = case
        self.failures = list(failures)
        lines = "\n".join(f"  - {f}" for f in self.failures)
        super().__init__(
            f"{len(self.failures)} conformance failure(s) on "
            f"[{case.describe()}]\n{lines}\nreproducer: {case.to_json()}"
        )


@dataclass
class OracleReport:
    """What a clean oracle pass established for one case."""

    case: FuzzCase
    lam: float
    num_messages: int
    num_routable: int
    num_unroutable: int
    cycles: dict[str, int] = field(default_factory=dict)
    checks: int = 0
    skipped: tuple[str, ...] = ()


def _schedule_pairs(sched: Schedule) -> list[list[tuple[int, int]]]:
    """Cycles as lists of ``(src, dst)`` pairs, for bit-identity tests."""
    return [cycle.as_pairs() for cycle in sched.cycles]


def _cycles(result) -> int:
    """A run's cycle count: schedule cycles, switch-simulator delivery
    cycles or store-and-forward makespan."""
    if isinstance(result, Schedule):
        return result.num_cycles
    return result.makespan if hasattr(result, "makespan") else result.cycles


def _delivered_counter(sched: Schedule) -> Counter:
    """Multiset of messages the schedule delivers (self-messages excluded)."""
    total: Counter = Counter()
    for cycle in sched.cycles:
        total.update(cycle)
    return total


class DifferentialOracle:
    """Run a fuzz case through every routing stack and cross-check them.

    Parameters
    ----------
    max_cycles:
        Delivery-cycle budget handed to the on-line stacks (exhausting
        it is itself a conformance failure).
    overrides:
        Optional ``{stack_name: runner}`` replacing a registry stack's
        :meth:`~repro.core.registry.Stack.run`; a runner has signature
        ``fn(ft, messages, *, seed, max_cycles, obs=None) -> Schedule``.
        This is the mutation-testing hook: an intentionally broken
        scheduler must be caught by the checks.
    """

    def __init__(self, *, max_cycles: int = 100_000, overrides: dict | None = None):
        self.max_cycles = int(max_cycles)
        self._schedulers = {name: STACKS[name].run for name in SCHEDULE_STACKS}
        if overrides:
            unknown = set(overrides) - set(self._schedulers)
            if unknown:
                raise ValueError(f"unknown stack override(s): {sorted(unknown)}")
            self._schedulers.update(overrides)

    # -- public entry points -------------------------------------------------

    def passes(self, case: FuzzCase) -> bool:
        """True iff :meth:`check` raises nothing (the shrink predicate is
        its negation)."""
        try:
            self.check(case)
        except AssertionError:
            return False
        return True

    def check(self, case: FuzzCase) -> OracleReport:
        """Run every stack on ``case``; raise :class:`ConformanceError`
        listing every failed check, or return the :class:`OracleReport`."""
        failures: list[str] = []
        report = self._run(case, failures)
        if failures:
            raise ConformanceError(case, failures)
        return report

    # -- the checks ----------------------------------------------------------

    def _run(self, case: FuzzCase, failures: list[str]) -> OracleReport:
        ft = case.tree()
        messages = case.message_set()
        mask = ft.routable_mask(messages)
        n_unroutable = int((~mask).sum())
        routable_input = messages.take(mask)
        report = OracleReport(
            case=case,
            lam=0.0,
            num_messages=len(messages),
            num_routable=len(routable_input),
            num_unroutable=n_unroutable,
        )

        def check(ok: bool, msg: str) -> bool:
            report.checks += 1
            if not ok:
                failures.append(msg)
            return ok

        if not case.has_faults:
            check(n_unroutable == 0, "pristine tree reported unroutable messages")
        elif n_unroutable:
            # every stack must refuse the severed messages up front
            self._check_unroutable_refused(ft, messages, check)

        lam = load_factor(ft, routable_input)
        report.lam = lam
        if not check(
            math.isfinite(lam),
            f"λ(M) = {lam} for messages the tree reported routable",
        ):
            return report
        nonself = routable_input.without_self_messages()
        expected = Counter(nonself)
        lower = math.ceil(lam) if len(nonself) else 0

        schedules = self._run_schedule_stacks(
            ft, routable_input, case, lower, check, report
        )
        self._check_kernel_parity(ft, routable_input, case, schedules, check)
        if case.has_batch:
            self._check_batched(ft, routable_input, case, check)
        for name, sched in schedules.items():
            check(
                _delivered_counter(sched) == expected,
                f"{name}: delivered multiset differs from the message set",
            )
        self._check_obs_accounting(ft, routable_input, case, schedules, check)
        hardware = self._check_hardware(
            ft, routable_input, nonself, lam, schedules, check, report
        )
        self._check_chaos(
            ft, routable_input, case, {**schedules, **hardware}, check, report
        )
        return report

    def _check_unroutable_refused(self, ft, messages, check) -> None:
        for name in ("theorem1", "random-rank"):
            try:
                STACKS[name].run(ft, messages, seed=0, max_cycles=4)
                check(False, f"{name}: accepted messages with severed paths")
            except UnroutableError:
                check(True, "")
            except Exception as exc:  # noqa: BLE001 - any other error is a failure
                check(
                    False,
                    f"{name}: {type(exc).__name__} instead of UnroutableError: {exc}",
                )

    def _run_schedule_stacks(
        self, ft, routable_input, case, lower, check, report
    ) -> dict[str, Schedule]:
        from ..core.reuse_scheduler import capacity_ratio, corollary2_cycle_bound
        from ..core.scheduler import theorem1_cycle_bound

        schedules: dict[str, Schedule] = {}
        skipped: list[str] = []
        for name in SCHEDULE_STACKS:
            if name == "corollary2" and (
                case.has_faults or capacity_ratio(ft) <= 1.0
            ):
                skipped.append(name)  # hypothesis cap(c) > lg n not met
                continue
            try:
                sched = self._schedulers[name](
                    ft,
                    routable_input,
                    seed=case.seed,
                    max_cycles=self.max_cycles,
                )
            except (
                UnroutableError,
                DeliveryTimeout,
                ScheduleError,
                ValueError,
                RuntimeError,
                AssertionError,
            ) as exc:
                check(False, f"{name}: raised {type(exc).__name__}: {exc}")
                continue
            schedules[name] = sched
            report.cycles[name] = sched.num_cycles
            try:
                sched.validate(ft, routable_input)
                check(True, "")
            except ScheduleError as exc:
                check(False, f"{name}: invalid schedule: {exc}")
            check(
                sched.num_cycles >= lower,
                f"{name}: {sched.num_cycles} cycles beats the λ lower bound "
                f"{lower} — impossible for a real schedule",
            )
            if name == "theorem1":
                bound = theorem1_cycle_bound(ft, report.lam)
                check(
                    sched.num_cycles <= bound,
                    f"theorem1: {sched.num_cycles} cycles exceeds the "
                    f"Theorem 1 bound {bound}",
                )
            elif name == "corollary2":
                bound = corollary2_cycle_bound(ft, report.lam)
                check(
                    sched.num_cycles <= bound,
                    f"corollary2: {sched.num_cycles} cycles exceeds the "
                    f"Corollary 2 bound {bound}",
                )
        report.skipped = tuple(skipped)
        return schedules

    def _check_kernel_parity(
        self, ft, routable_input, case, schedules, check
    ) -> None:
        """Vectorised kernels must be bit-identical to their retained
        pure-Python reference oracles."""
        from ..core.greedy import _reference_schedule_greedy_first_fit
        from ..core.online import _reference_schedule_random_rank

        if "random-rank" in schedules:
            ref = _reference_schedule_random_rank(
                ft, routable_input, seed=case.seed, max_cycles=self.max_cycles
            )
            check(
                _schedule_pairs(schedules["random-rank"]) == _schedule_pairs(ref),
                "random-rank: vectorised kernel diverges from the "
                "pure-Python reference (same seed)",
            )
        if "greedy" in schedules:
            ref = _reference_schedule_greedy_first_fit(ft, routable_input)
            check(
                _schedule_pairs(schedules["greedy"]) == _schedule_pairs(ref),
                "greedy: vectorised first-fit diverges from the "
                "pure-Python reference",
            )

    def _check_batched(self, ft, routable_input, case, check) -> None:
        """One :func:`repro.perf.batch_schedule` call over every set of
        the case must be bit-identical, set by set, to scheduling each
        set alone, and each per-set schedule must deliver exactly its
        own message multiset — on healthy and degraded trees alike."""
        from ..perf.batch import _reference_batch_schedule, batch_schedule

        sets = [routable_input]
        for extra in case.batch_message_sets()[1:]:
            sets.append(extra.take(ft.routable_mask(extra)))
        for kernel in BATCH_KERNELS:
            try:
                batched = batch_schedule(
                    ft,
                    sets,
                    kernel=kernel,
                    seed=case.seed,
                    max_cycles=self.max_cycles,
                )
                serial = _reference_batch_schedule(
                    ft,
                    sets,
                    kernel=kernel,
                    seed=case.seed,
                    max_cycles=self.max_cycles,
                )
            except (
                UnroutableError,
                DeliveryTimeout,
                ScheduleError,
                ValueError,
                RuntimeError,
                AssertionError,
            ) as exc:
                check(False, f"batched-{kernel}: raised {type(exc).__name__}: {exc}")
                continue
            if not check(
                len(batched) == len(sets),
                f"batched-{kernel}: {len(batched)} schedules for "
                f"{len(sets)} message sets",
            ):
                continue
            for b, (bat, ser, ms) in enumerate(zip(batched, serial, sets)):
                check(
                    _schedule_pairs(bat) == _schedule_pairs(ser),
                    f"batched-{kernel}: set {b} diverges from scheduling "
                    "the set alone",
                )
                check(
                    _delivered_counter(bat)
                    == Counter(ms.without_self_messages()),
                    f"batched-{kernel}: set {b} delivered multiset differs "
                    "from its message set",
                )

    def _check_obs_accounting(
        self, ft, routable_input, case, schedules, check
    ) -> None:
        """Traced re-runs must be bit-identical and their per-cycle
        ``cycle`` events must match the returned schedule exactly."""
        from ..obs import Obs

        for name in schedules:
            label = STACKS[name].label
            obs = Obs(enabled=True)
            try:
                traced = self._schedulers[name](
                    ft,
                    routable_input,
                    seed=case.seed,
                    max_cycles=self.max_cycles,
                    obs=obs,
                )
            except TypeError:
                continue  # an override without obs support: nothing to check
            check(
                _schedule_pairs(traced) == _schedule_pairs(schedules[name]),
                f"{name}: tracing changed the schedule (instrumentation "
                "must be RNG-neutral)",
            )
            events = [
                e
                for e in obs.tracer.select("cycle")
                if e.get("scheduler") == label
            ]
            sched = schedules[name]
            if not check(
                len(events) == sched.num_cycles,
                f"{name}: {len(events)} cycle events for "
                f"{sched.num_cycles} schedule cycles",
            ):
                continue
            mismatched = [
                t
                for t, (event, cycle) in enumerate(zip(events, sched.cycles))
                if event["delivered"] != len(cycle)
            ]
            check(
                not mismatched,
                f"{name}: cycle events disagree with the schedule at "
                f"cycle(s) {mismatched[:5]}",
            )
            delivered = obs.metrics.counter_value(
                "messages.delivered", scheduler=label
            )
            total = sum(len(c) for c in sched.cycles)
            check(
                int(delivered) == total,
                f"{name}: messages.delivered counter {int(delivered)} != "
                f"schedule total {total}",
            )

    def _check_hardware(
        self, ft, routable_input, nonself, lam, schedules, check, report
    ) -> dict:
        """The two hardware stacks: buffered store-and-forward and the
        bit-serial switch simulator (plus end-to-end schedule execution).
        Returns the runs that completed, by stack name."""
        from ..hardware.buffered import run_store_and_forward
        from ..hardware.switchsim import run_schedule, run_until_delivered

        m = len(nonself)
        results: dict = {}
        try:
            run = run_store_and_forward(ft, routable_input)
        except (RuntimeError, UnroutableError, AssertionError) as exc:
            check(False, f"buffered: raised {type(exc).__name__}: {exc}")
            run = None
        if run is not None:
            results["buffered"] = run
            report.cycles["buffered"] = run.makespan
            check(
                run.latencies.size == m,
                f"buffered: delivered {run.latencies.size} of {m} messages",
            )
            longest = max(
                (
                    ft.path_length(int(s), int(d))
                    for s, d in zip(nonself.src, nonself.dst)
                ),
                default=0,
            )
            floor = max(math.ceil(lam) if m else 0, longest)
            check(
                run.makespan >= floor,
                f"buffered: makespan {run.makespan} beats the lower bound "
                f"{floor} (λ and longest path)",
            )
        try:
            outcome = run_until_delivered(
                ft,
                routable_input,
                seed=self._hardware_seed(report.case),
                max_cycles=min(self.max_cycles, 10_000),
            )
        except (DeliveryTimeout, RuntimeError, AssertionError) as exc:
            check(False, f"switchsim: raised {type(exc).__name__}: {exc}")
            outcome = None
        if outcome is not None:
            results["switchsim"] = outcome
            report.cycles["switchsim"] = outcome.cycles
            delivered: Counter = Counter()
            for rep in outcome.reports:
                delivered.update((f.src, f.dst) for f in rep.delivered)
            check(
                delivered == Counter(routable_input),
                "switchsim: delivered multiset differs from the message set",
            )
        if "theorem1" in schedules:
            try:
                run_schedule(ft, schedules["theorem1"])
                check(True, "")
            except AssertionError as exc:
                check(
                    False,
                    f"switchsim: Theorem 1 schedule lost messages end-to-end: {exc}",
                )
        return results

    def _check_chaos(self, ft, routable_input, case, healthy, check, report) -> None:
        """Chaos conformance of every stack that ran healthy (``healthy``
        maps its name to its result): a timeline run passes
        :func:`~repro.chaos.check_chaos_run`, random-rank's healthy
        prefix holds, and an empty-timeline run, run last so it doubles
        as a no-footprint check on the caller's tree, is bit-identical
        to the healthy run."""
        from ..chaos import (
            ChaosSchedule,
            chaos_options,
            check_chaos_run,
            run_chaos,
            same_delivery,
        )

        timeline = case.chaos_timeline()
        timelines = [ChaosSchedule()] if timeline.empty else [timeline, ChaosSchedule()]
        for name in (n for n in STACKS if n in healthy):
            label = f"chaos-{name}"
            seed = self._hardware_seed(case) if name == "switchsim" else case.seed
            options = chaos_options(name, seed=seed, max_cycles=self.max_cycles)
            for tl in timelines:
                try:
                    result = run_chaos(name, ft, routable_input, tl, **options)
                except (
                    DeliveryTimeout,
                    ScheduleError,
                    ValueError,
                    RuntimeError,
                    AssertionError,
                ) as exc:
                    check(False, f"{label}: raised {type(exc).__name__}: {exc}")
                    continue
                problems = check_chaos_run(ft, routable_input, result)
                check(not problems, f"{label}: {'; '.join(problems)}")
                if tl.empty:
                    check(
                        same_delivery(healthy[name], result),
                        f"{label}: empty-timeline run is not bit-identical "
                        "to the healthy run",
                    )
                    continue
                report.cycles[label] = _cycles(result)
                if name == "random-rank":
                    pairs = _schedule_pairs(result)
                    healthy_pairs = _schedule_pairs(healthy[name])
                    first_event = timeline.events[0].at
                    prefix = min(first_event, len(pairs), len(healthy_pairs))
                    check(
                        pairs[:prefix] == healthy_pairs[:prefix],
                        f"{label}: cycles before the first fault event "
                        f"(t < {first_event}) diverge from the healthy run",
                    )

    @staticmethod
    def _hardware_seed(case: FuzzCase) -> int:
        """Decorrelate the switch simulator's tie-breaking from the
        schedulers' seed without adding a knob to the case format."""
        return (case.seed ^ 0x5F5F5F5F) & 0x7FFFFFFF
