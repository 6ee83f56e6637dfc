"""The in-process workloads: the paper's schedulers and the delivery loops.

Both run serially in this process, one *pass* after another until the
measured interval is over.  A pass runs every operation of one case on
a freshly built tree, so every run of a case does the same work and no
cache carries over from the pass before.  Inputs come from the seed only.

* ``offline-paper`` (n=1024, four cases of one call each):
  ``schedule_theorem1`` on uniform traffic (4n messages),
  ``local_traffic`` (2n) and one permutation, and
  ``schedule_corollary2`` with 8n uniform messages on a
  ``ConstantCapacity(lg n, 2 lg n)`` tree (a = 2).
* ``online-chaos`` (n=256, :data:`CHAOS_CASES` cases of 4n uniform
  messages, one seeded ``random_timeline`` each): the five delivery
  loops, then ``run_chaos_random_rank`` and ``run_chaos_switchsim``.
  Timelines hold wire-level damage only (``allow_kills=False``, the
  guaranteed-delivery regime): one unrepaired switch kill near the root
  drops over half of all messages, so with kills the delivered fraction
  and the work done swing by a factor of two from seed to seed.

Every result is checked outside the timed region: schedules pass
``Schedule.validate`` (which also checks the chaos ``CycleStats``
partition) and the Theorem 1 / Corollary 2 cycle bounds; the simulators
deliver every message or account for each drop.  A repeated case must
reproduce its first cycle count exactly.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import common
import spans as spanlib

perf_counter = time.perf_counter

# Sizes keep every call well under half a second, so each call repeats
# dozens of times in a run and its best repeat falls in one of the
# host's fast moments; calls of seconds often find none.
OFFLINE_N = 1024
CHAOS_N = 256
CHAOS_CASES = 3
SETUP_SAMPLES = 15
OBS_REPEATS = 5


@dataclass
class Op:
    label: str
    msgs: int
    call: Callable[[], object]
    check: Callable[[object], "Outcome"]


@dataclass
class Outcome:
    """What the checks extracted from one operation's result."""

    cycles: int = 0
    delivered: int = 0
    dropped: int = 0
    extra: dict = field(default_factory=dict)


# -- offline-paper ----------------------------------------------------------


class OfflineCase:
    """One scheduler call on one message set: each is its own job."""

    def __init__(self, label: str, ms) -> None:
        self.label = label
        self.ms = ms

    def ops(self) -> list[Op]:
        from repro.core import FatTree, reuse_scheduler, scheduler
        from repro.core.capacity import ConstantCapacity
        from repro.core.load import load_factor

        ms = self.ms
        if self.label.startswith("thm1"):
            ft = FatTree(OFFLINE_N)
            run, bound_of = scheduler.schedule_theorem1, scheduler.theorem1_cycle_bound
        else:
            depth = FatTree(OFFLINE_N).depth
            ft = FatTree(OFFLINE_N, ConstantCapacity(depth, 2 * depth))
            run, bound_of = (reuse_scheduler.schedule_corollary2,
                             reuse_scheduler.corollary2_cycle_bound)

        def check(s) -> Outcome:
            s.validate(ft, ms)
            bound = bound_of(ft, load_factor(ft, ms))
            if s.num_cycles > bound:
                raise AssertionError(f"{s.num_cycles} cycles > bound {bound}")
            return Outcome(s.num_cycles, s.total_messages(),
                           extra={"bound_ratio": s.num_cycles / bound})

        return [Op(self.label, len(ms), lambda: run(ft, ms), check)]


def _offline_cases(seed: int) -> list[OfflineCase]:
    import numpy as np

    from repro.core import MessageSet
    from repro.workloads.locality import local_traffic

    n = OFFLINE_N
    rng = np.random.default_rng([seed, n])
    sets = {
        "thm1.uniform": MessageSet(rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n), n),
        "thm1.local": local_traffic(n, 2 * n, seed=int(rng.integers(2**31))),
        "thm1.permutation": MessageSet(np.arange(n), rng.permutation(n), n),
        "cor2.uniform": MessageSet(rng.integers(0, n, 8 * n), rng.integers(0, n, 8 * n), n),
    }
    return [OfflineCase(label, ms) for label, ms in sets.items()]


# -- online-chaos -----------------------------------------------------------


class ChaosCase:
    def __init__(self, seed: int, k: int) -> None:
        import numpy as np

        from repro.chaos.timeline import random_timeline
        from repro.core import FatTree, MessageSet

        n = CHAOS_N
        rng = np.random.default_rng([seed, n, k])
        self.ms = MessageSet(rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n), n)
        self.seed = int(rng.integers(2**31))
        self.timeline = random_timeline(FatTree(n), seed=self.seed, allow_kills=False)

    def ops(self) -> list[Op]:
        from repro.chaos import engine
        from repro.core import FatTree, greedy, online
        from repro.hardware import buffered, switchsim

        ft = FatTree(CHAOS_N)
        ms, seed, timeline = self.ms, self.seed, self.timeline
        m = len(ms)
        routable = len(ms.without_self_messages())

        def schedule_check(s) -> Outcome:
            s.validate(ft, ms)
            dropped = 0 if s.dropped is None else len(s.dropped)
            retried = sum(c.retried for c in s.cycle_stats)
            return Outcome(s.num_cycles, s.total_messages(), dropped,
                           extra={"retried": retried})

        def switchsim_check(out) -> Outcome:
            delivered = sum(len(r.delivered) for r in out.reports)
            for stats in out.cycle_stats:
                stats.check()
            if out.cycle_stats and sum(s.delivered for s in out.cycle_stats) != delivered:
                raise AssertionError("switchsim cycle stats disagree with reports")
            if delivered + len(out.dropped) != m:
                raise AssertionError(
                    f"switchsim: {delivered} delivered + {len(out.dropped)} dropped != {m}"
                )
            retried = sum(s.retried for s in out.cycle_stats)
            return Outcome(out.cycles, delivered, len(out.dropped),
                           extra={"retries": sum(out.attempts) - m, "retried": retried})

        def buffered_check(run) -> Outcome:
            lat = run.latencies
            if lat.size != routable or int((lat <= 0).sum()) != 0:
                raise AssertionError("store-and-forward left messages undelivered")
            if int(lat.max()) != run.makespan:
                raise AssertionError("store-and-forward makespan != slowest message")
            return Outcome(run.makespan, m)

        return [
            Op("random_rank", m,
               lambda: online.schedule_random_rank(ft, ms, seed=seed), schedule_check),
            Op("first_fit", m,
               lambda: greedy.schedule_greedy_first_fit(ft, ms), schedule_check),
            Op("online_retry", m,
               lambda: greedy.simulate_online_retry(ft, ms, seed=seed), schedule_check),
            Op("switchsim", m,
               lambda: switchsim.run_until_delivered(ft, ms, seed=seed), switchsim_check),
            Op("buffered", m,
               lambda: buffered.run_store_and_forward(ft, ms), buffered_check),
            Op("chaos_random_rank", m,
               lambda: engine.run_chaos_random_rank(ft, ms, timeline, seed=seed),
               schedule_check),
            Op("chaos_switchsim", m,
               lambda: engine.run_chaos_switchsim(ft, ms, timeline, seed=seed),
               switchsim_check),
        ]


# -- pass loop --------------------------------------------------------------


class Runner:
    """Runs passes, checks each case's results once, keeps the timings."""

    def __init__(self, cases: list) -> None:
        self.cases = cases
        self.first: dict[tuple[int, str], Outcome] = {}
        self.msgs: dict[tuple[int, str], int] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, k: int, times: dict, on_op=None) -> None:
        """One pass over case ``k``; appends each call's seconds to
        ``times[(k, label)]``.  ``on_op(k, op, outcome)`` runs after each
        checked operation."""
        for op in self.cases[k].ops():
            self.attempted += 1
            self.msgs[(k, op.label)] = op.msgs
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception:
                self.failures.append(f"case {k} {op.label}: {traceback.format_exc()}")
                continue
            times.setdefault((k, op.label), []).append(perf_counter() - t0)
            outcome = self._check(k, op, result)
            if on_op is not None and outcome is not None:
                on_op(k, op, outcome)

    def _check(self, k: int, op: Op, result) -> Outcome | None:
        """Full checks on a case's first run; later runs must repeat it."""
        key = (k, op.label)
        first = self.first.get(key)
        if first is None:
            try:
                self.first[key] = op.check(result)
            except Exception:
                self.failures.append(f"case {k} {op.label}: {traceback.format_exc()}")
            return self.first.get(key)
        cycles = getattr(result, "num_cycles", None)
        if cycles is None:
            cycles = getattr(result, "cycles", getattr(result, "makespan", None))
        if cycles != first.cycles:
            self.failures.append(
                f"case {k} {op.label}: repeat gave {cycles} cycles, first {first.cycles}"
            )
        return first

    def run_for(self, seconds: float, on_pass=None, on_op=None,
                between=None) -> tuple[dict, int]:
        """Passes until ``seconds`` are over and every case ran once;
        returns the call times by ``(case, label)`` and the pass count.
        ``between(done)`` runs before each pass with the share of the
        interval done; the time it takes does not count."""
        times: dict[tuple[int, str], list[float]] = {}
        passes = 0
        t_end = perf_counter() + seconds
        while passes < len(self.cases) or perf_counter() < t_end:
            if between is not None:
                t0 = perf_counter()
                between(1.0 - (t_end - t0) / seconds)
                t_end += perf_counter() - t0
            k = passes % len(self.cases)
            if on_pass is not None:
                on_pass(k)
            self.run_pass(k, times, on_op)
            passes += 1
        return times, passes

    @property
    def failed(self) -> int:
        return len(self.failures)


def _build(workload: str, seed: int) -> list:
    if workload == "offline-paper":
        return _offline_cases(seed)
    return [ChaosCase(seed, k) for k in range(CHAOS_CASES)]


def _setup_sample(workload: str) -> float:
    """One fresh-interpreter ``import repro`` + tree construction time."""
    out = subprocess.run(
        [sys.executable, str(common.BENCH / "setup_probe.py"), workload],
        capture_output=True, text=True, cwd=common.ROOT,
        env=common.program_env(), timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _quality(runner: Runner, workload: str) -> tuple[float, float]:
    """(cycles per case, delivered fraction), from each case's first run.

    Cycles sum over the case's operations; on online-chaos only the five
    healthy delivery loops count (chaos runs are measured by the
    delivered fraction, which counts only them there).  The delivered
    fraction is over every message handed to a counted call, so a call
    that raised counts all its messages as undelivered.
    """
    per_case: dict[int, int] = {}
    delivered = total = 0
    for (k, label), msgs in runner.msgs.items():
        chaos = label.startswith("chaos")
        out = runner.first.get((k, label), Outcome())
        if not chaos:
            per_case[k] = per_case.get(k, 0) + out.cycles
        if workload == "online-chaos" and not chaos:
            continue
        delivered += out.delivered
        total += msgs
    cycles = common.mean(list(per_case.values()))
    return cycles, (delivered / total if total else 0.0)


def _call_stats(runner: Runner, times: dict, passes: int) -> dict:
    """Job latency and throughput from each call's best time over its repeats.

    A job is one case: one scheduler call on offline-paper, the seven
    delivery and chaos runs on one message set on online-chaos.  Its
    time sums its calls' best times over the pass repeats; p50/p90 are
    taken over the jobs.  Every repeat does the same work, and the
    host's slow spells (CPU about 40 % slower, for one to tens of
    seconds at a time) only ever add time, so the best repeat is the
    figure that repeats from run to run; a median moves with the share
    of the run the spells covered.  Throughput is the geometric mean of
    every call's messages per second, so each call weighs the same
    however long it runs.
    """
    jobs: dict[int, float] = {}
    log_rate = 0.0
    for key, vals in times.items():
        jobs[key[0]] = jobs.get(key[0], 0.0) + min(vals)
        log_rate += math.log(runner.msgs[key] / min(vals))
    ms = [v * 1e3 for v in jobs.values()]
    return {
        "jobs_ms": ms,
        "repeats": [len(v) for v in times.values()],
        "passes": passes,
        "p50_ms": common.median(ms),
        "p90_ms": common.percentile(ms, 90),
        "msgs_per_s": math.exp(log_rate / len(times)) if times else 0.0,
    }


def _report(workload: str, stats: dict, runner: Runner) -> None:
    q1, med, q3 = common.quartiles(stats["jobs_ms"])
    common.print_table(f"{workload} jobs", [
        ("passes", stats["passes"]),
        ("jobs (distinct cases)", len(stats["jobs_ms"])),
        ("repeats per call (min/max)",
         f"{min(stats['repeats'])} / {max(stats['repeats'])}"),
        ("job q1/p50/q3 ms", f"{q1:.2f} / {med:.2f} / {q3:.2f}"),
        ("job p90 ms", stats["p90_ms"]),
        ("msg/s (geometric mean over calls)", stats["msgs_per_s"]),
        ("operations", runner.attempted),
    ])


# -- tracing ----------------------------------------------------------------


def _wrap_layers(rec: spanlib.Recorder) -> None:
    import repro.perf as perf
    from repro.chaos import engine
    from repro.core import greedy, load, online, reuse_scheduler, scheduler
    from repro.hardware import buffered, switchsim
    from repro.perf import pathindex

    targets = [
        (scheduler, "schedule_theorem1", "scheduler.thm1"),
        (scheduler, "partition_group", "scheduler.partition_group"),
        (scheduler, "group_indices", "partition.group_indices"),
        (scheduler, "even_split_indices", "partition.even_split"),
        (scheduler, "channel_loads", "load.channel_loads"),
        (reuse_scheduler, "schedule_corollary2", "reuse.cor2"),
        (reuse_scheduler, "even_split_all", "partition.even_split"),
        (reuse_scheduler, "channel_loads", "load.channel_loads"),
        (load, "channel_loads", "load.channel_loads"),
        (load.LevelLoads, "apply_delta", "load.apply_delta"),
        (online, "schedule_random_rank", "online.random_rank"),
        (greedy, "schedule_greedy_first_fit", "greedy.first_fit"),
        (greedy, "simulate_online_retry", "greedy.online_retry"),
        (switchsim, "run_until_delivered", "switchsim.run"),
        (buffered, "run_store_and_forward", "buffered.run"),
        (engine, "run_chaos_random_rank", "chaos.random_rank"),
        (engine, "run_chaos_switchsim", "chaos.switchsim"),
        (engine, "channel_loads", "load.channel_loads"),
        (engine, "get_path_index", "pathindex.lookup"),
        (perf, "get_path_index", "pathindex.lookup"),
        (pathindex.PathIndex, "__init__", "pathindex.build"),
        (pathindex.PathIndex, "invalidate_channels", "chaos.reroute"),
    ]
    for owner, attr, name in targets:
        rec.wrap(owner, attr, name)


def _obs_overhead(case: ChaosCase) -> tuple[float, float]:
    """(enabled/disabled time ratio, delivered ÷ attempts) of random-rank."""
    from repro.core import FatTree, online
    from repro.obs import Obs

    ft = FatTree(CHAOS_N)
    online.schedule_random_rank(ft, case.ms, seed=case.seed)  # warm the index
    off, on = [], []
    obs = None
    for _ in range(OBS_REPEATS):
        t0 = perf_counter()
        online.schedule_random_rank(ft, case.ms, seed=case.seed)
        off.append(perf_counter() - t0)
        obs = Obs(enabled=True)
        t0 = perf_counter()
        online.schedule_random_rank(ft, case.ms, seed=case.seed, obs=obs)
        on.append(perf_counter() - t0)
    counts = {"messages.delivered": 0.0, "messages.congested": 0.0}
    for kind, name, _labels, value in obs.metrics.series():
        if kind == "counter" and name in counts:
            counts[name] += value
    attempts = counts["messages.delivered"] + counts["messages.congested"]
    useful = counts["messages.delivered"] / attempts if attempts else 0.0
    return common.median(on) / common.median(off), useful


def _traced_layers(workload: str, runner: Runner, seconds: float) -> tuple[dict, list, dict]:
    """Run the passes again with every layer wrapped; returns the
    per-layer metrics, the first round's spans and the traced job stats."""
    rec = spanlib.Recorder()
    op_spans: dict[str, list[tuple[int, int]]] = {}  # label -> span index ranges
    results: list[tuple[str, Outcome]] = []
    marks: list[int] = []
    cursor = [0]

    def on_pass(k: int) -> None:
        marks.append(len(rec.spans))
        cursor[0] = len(rec.spans)

    def on_op(k: int, op: Op, outcome: Outcome) -> None:
        op_spans.setdefault(op.label, []).append((cursor[0], len(rec.spans)))
        cursor[0] = len(rec.spans)
        results.append((op.label, outcome))

    _wrap_layers(rec)
    try:
        times, n_pass = runner.run_for(seconds, on_pass=on_pass, on_op=on_op)
    finally:
        rec.restore()
    k_cases = len(runner.cases)
    rounds = n_pass / k_cases  # per-layer figures are per round over all cases
    totals = spanlib.layer_totals(rec.spans)

    def ms(name: str, key: str = "total") -> float:
        return totals.get(name, {}).get(key, 0.0) * 1e3 / rounds

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / rounds

    spans = rec.spans
    lookups = [i for i, s in enumerate(spans) if s[spanlib.NAME] == "pathindex.lookup"]
    builds = [s for s in spans if s[spanlib.NAME] == "pathindex.build"]
    misses = sum(
        1 for s in builds
        if s[spanlib.PARENT] is not None
        and spans[s[spanlib.PARENT]][spanlib.NAME] == "pathindex.lookup"
    )
    halvings = sum(
        1 for s in spans
        if s[spanlib.NAME] == "partition.even_split" and s[spanlib.PARENT] is not None
        and spans[s[spanlib.PARENT]][spanlib.NAME] == "reuse.cor2"
    )

    def outcome_mean(label_prefix: str, fn) -> float:
        vals = [fn(o) for label, o in results if label.startswith(label_prefix)]
        return common.mean(vals)

    def outcome_per_round(labels: tuple[str, ...], fn) -> float:
        return sum(fn(o) for label, o in results if label in labels) / rounds

    layers = {
        "pathindex.build_ms": common.mean(
            [(s[spanlib.END] - s[spanlib.START]) * 1e3 for s in builds]
        ),
        "pathindex.hit_ratio": 1.0 - misses / len(lookups) if lookups else 0.0,
        "load.channel_loads_calls": calls("load.channel_loads"),
        "load.channel_loads_ms": ms("load.channel_loads"),
        "load.apply_delta_ms": ms("load.apply_delta"),
        "partition.group_indices_ms": ms("partition.group_indices"),
        "partition.even_split_calls": calls("partition.even_split"),
        "partition.even_split_ms": ms("partition.even_split"),
        "scheduler.partition_group_calls": calls("scheduler.partition_group"),
        "scheduler.partition_group_self_ms": ms("scheduler.partition_group", "self"),
        "scheduler.thm1_self_ms": ms("scheduler.thm1", "self"),
        "reuse.cor2_ms": ms("reuse.cor2"),
        "reuse.halvings": halvings / rounds,
        "online.random_rank_ms": ms("online.random_rank", "root_total"),
        "greedy.first_fit_ms": ms("greedy.first_fit", "root_total"),
        "greedy.online_retry_ms": ms("greedy.online_retry", "root_total"),
        "switchsim.run_ms": ms("switchsim.run", "root_total"),
        "buffered.run_ms": ms("buffered.run", "root_total"),
        "chaos.random_rank_ms": ms("chaos.random_rank"),
        "chaos.switchsim_ms": ms("chaos.switchsim"),
        "chaos.reroute_ms": ms("chaos.reroute"),
    }
    if workload == "offline-paper":
        layers["scheduler.thm1_bound_ratio"] = outcome_mean(
            "thm1", lambda o: o.extra["bound_ratio"])
        layers["reuse.cor2_bound_ratio"] = outcome_mean(
            "cor2", lambda o: o.extra["bound_ratio"])
        local = [
            spanlib.layer_totals(spans, lo, hi) for lo, hi in op_spans.get("thm1.local", [])
        ]

        def local_ms(name: str, key: str = "total") -> float:
            return common.mean([t.get(name, {}).get(key, 0.0) * 1e3 for t in local])

        layers["thm1_local.partition_group_self_ms"] = local_ms(
            "scheduler.partition_group", "self")
        layers["thm1_local.load_ms"] = (
            local_ms("load.channel_loads") + local_ms("load.apply_delta"))
        layers["thm1_local.even_split_ms"] = local_ms("partition.even_split")
        common.print_table("thm1.local call, mean per run of it (ms)", [
            ("schedule_theorem1 total", local_ms("scheduler.thm1")),
            ("scheduler.thm1 self", local_ms("scheduler.thm1", "self")),
            ("scheduler.partition_group self", layers["thm1_local.partition_group_self_ms"]),
            ("core.load (channel_loads + apply_delta)", layers["thm1_local.load_ms"]),
            ("partition.even_split", layers["thm1_local.even_split_ms"]),
            ("partition.group_indices", local_ms("partition.group_indices")),
        ])
    else:
        layers["switchsim.retries"] = outcome_per_round(
            ("switchsim",), lambda o: o.extra["retries"])
        layers["buffered.steps"] = outcome_per_round(("buffered",), lambda o: o.cycles)
        chaos_ops = ("chaos_random_rank", "chaos_switchsim")
        layers["chaos.dropped"] = outcome_per_round(chaos_ops, lambda o: o.dropped)
        layers["chaos.retried"] = outcome_per_round(
            chaos_ops, lambda o: o.extra["retried"])
        ratio, useful = _obs_overhead(runner.cases[0])
        layers["obs.enabled_over_disabled"] = ratio
        layers["online.useful_ratio"] = useful
    common.print_table("layer totals, mean per traced round over all cases (ms)", [
        (name, f"calls {row['calls'] / rounds:.1f}  total {row['total'] * 1e3 / rounds:.2f}"
               f"  self {row['self'] * 1e3 / rounds:.2f}")
        for name, row in sorted(totals.items())
    ])
    # keep the span file small: the first traced round only
    first_round = spans[: marks[k_cases]] if len(marks) > k_cases else spans
    return layers, first_round, _call_stats(runner, times, n_pass)


def run(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    setup: list[float] = []

    def sample_setup(done: float) -> None:
        # spread over the interval, so that a slow spell of the host
        # moves only a few of the samples the median is taken over
        while len(setup) < min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * done)):
            setup.append(_setup_sample(workload))

    runner = Runner(_build(workload, seed))
    times, n_pass = runner.run_for(seconds, between=None if trace else sample_setup)
    if not trace:
        sample_setup(1.0)
    stats = _call_stats(runner, times, n_pass)
    rss = common.self_peak_rss_mb()
    _report(workload, stats, runner)
    cycles, delivered_frac = _quality(runner, workload)
    if not trace:
        common.print_table("setup", [("import+trees s", str([round(s, 4) for s in setup]))])
        for msg in runner.failures[:10]:
            print(f"FAIL {msg}", file=sys.stderr)
        metrics = {
            "setup_s": common.metric(common.median(setup), "s"),
            "p50_ms": common.metric(stats["p50_ms"], "ms"),
            "p90_ms": common.metric(stats["p90_ms"], "ms"),
            "msgs_per_s": common.metric(stats["msgs_per_s"], "msg/s"),
            "cycles": common.metric(cycles, "count"),
            "delivered_frac": common.metric(delivered_frac, "ratio"),
            "ok_frac": common.metric(
                (runner.attempted - runner.failed) / runner.attempted, "ratio"),
            "peak_rss_mb": common.metric(rss, "MB"),
        }
        return common.emit_result(
            correct=not runner.failures, attempted=runner.attempted,
            failed=runner.failed, metrics=metrics,
        )

    layers, first_spans, traced = _traced_layers(workload, runner, seconds)
    layers["trace.overhead_frac"] = stats["msgs_per_s"] / traced["msgs_per_s"] - 1.0
    for msg in runner.failures[:10]:
        print(f"FAIL {msg}", file=sys.stderr)
    common.OUT_DIR.mkdir(exist_ok=True)
    out = common.OUT_DIR / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps({
        "environment": common.environment(),
        "workload": workload,
        "seed": seed,
        "layers": layers,
        "spans": first_spans,
    }))
    print(f"trace written to {out.relative_to(common.ROOT)}")
    return common.emit_result(
        correct=not runner.failures, attempted=runner.attempted,
        failed=runner.failed, metrics=common.per_layer(layers),
    )
