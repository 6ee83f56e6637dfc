"""Command-line interface: ``python -m repro <command>``.

Six inspection commands mirroring the library's main entry points:

* ``topology``  — print a universal fat-tree's per-level capacities and
  hardware cost (Fig. 1 / Theorem 4);
* ``schedule``  — generate traffic, schedule it off-line, report λ(M),
  delivery cycles and the Theorem 1 / Corollary 2 bounds;
* ``simulate``  — Theorem 10: run a competitor network's traffic on the
  equal-volume fat-tree and report the slowdown;
* ``hardware``  — run a delivery cycle through the bit-serial switch
  simulator and report ticks/losses;
* ``faults``    — inject wire/switch/transient faults and measure the
  degraded tree: surviving capacities, λ inflation, schedule and retry
  cost, per-message attempt histogram;
* ``trace``     — run any :data:`repro.core.registry.STACKS` stack with
  observability enabled (:mod:`repro.obs`) and print the per-cycle
  accounting, per-level channel utilisation, cache and kernel-timing
  summaries — or dump the raw trace as JSONL (``--jsonl``);
* ``fuzz``      — differential conformance fuzzing (:mod:`repro.verify`):
  replay the regression corpus, then run seeded adversarial cases
  through all routing stacks and cross-check them; on failure, shrink
  to a minimal reproducer, print it paste-able, and exit 3
  (``--lint-corpus`` additionally runs every reproducer snippet the
  fuzzer can emit through :mod:`repro.lint`);
* ``lint``      — the project-aware static analyzer (:mod:`repro.lint`):
  check paths against the routing-invariant rules, exit 0 clean,
  3 on findings, 2 on parse failures;
* ``chaos``     — runtime fault injection (:mod:`repro.chaos`): run
  seeded chaos timelines through the recovery-instrumented stacks,
  check the per-cycle outcome partition, delivered + dropped
  accounting, and empty-timeline bit-identity; exit 3 on any
  violation.

Routing failures (``UnroutableError``, ``DeliveryTimeout``) exit with a
one-line ``error:`` message and status 3, never a traceback; input no
run can start from (a bad ``--n``/``--w``) exits 2 the same way.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .analysis import format_table
from .core.registry import BATCH_KERNELS, STACKS

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """Input no run can start from; :func:`main` exits 2 on it."""


def _make_fattree(n: int, w: int | None):
    from .core import FatTree, UniversalCapacity

    if w is None:
        w = n
    try:
        return FatTree(n, UniversalCapacity(n, w, strict=False))
    except ValueError as exc:
        raise _UsageError(f"invalid --n/--w: {exc}") from None


def _make_traffic(kind: str, n: int, messages: int, seed: int):
    from . import workloads as wl

    if kind == "random":
        return wl.uniform_random(n, messages, seed=seed)
    if kind == "permutation":
        return wl.random_permutation(n, seed=seed)
    if kind == "bit-reversal":
        return wl.bit_reversal(n)
    if kind == "hotspot":
        return wl.hotspot(n, messages, seed=seed)
    if kind == "local":
        return wl.local_traffic(n, messages, seed=seed)
    raise ValueError(f"unknown traffic kind {kind!r}")


def _make_network(name: str, n: int):
    from . import networks as nets

    table = {
        "mesh": nets.Mesh2D,
        "hypercube": nets.Hypercube,
        "shuffle": nets.ShuffleExchange,
        "tree": nets.BinaryTreeNetwork,
        "torus": nets.Torus2D,
    }
    if name not in table:
        raise ValueError(f"unknown network {name!r}; pick from {sorted(table)}")
    return table[name](n)


def cmd_topology(args) -> int:
    from .vlsi import total_components, volume_bound

    ft = _make_fattree(args.n, args.w)
    rows = [
        {
            "level": k,
            "channels": 2 * (1 << k),
            "cap(c)": ft.cap(k),
            "wires": 2 * (1 << k) * ft.cap(k),
        }
        for k in range(ft.depth + 1)
    ]
    print(format_table(rows, title=f"universal fat-tree n={ft.n} w={ft.root_capacity}"))
    print(f"\ntotal wires:      {ft.total_wires()}")
    print(f"switch components: {total_components(ft)}")
    try:
        print(f"volume (Thm 4):   {volume_bound(ft.n, ft.root_capacity, 1.0):.0f}")
    except ValueError:
        print("volume (Thm 4):   n/a (w below n^(2/3))")
    return 0


def cmd_schedule(args) -> int:
    from .core import (
        load_factor,
        schedule_corollary2,
        schedule_theorem1,
        theorem1_cycle_bound,
    )

    ft = _make_fattree(args.n, args.w)
    m = _make_traffic(args.traffic, args.n, args.messages, args.seed)
    lam = load_factor(ft, m)
    sched = schedule_theorem1(ft, m)
    sched.validate(ft, m)
    rows = [
        {
            "scheduler": "Theorem 1",
            "cycles": sched.num_cycles,
            "bound": theorem1_cycle_bound(ft, lam),
        }
    ]
    try:
        sched2 = schedule_corollary2(ft, m)
        sched2.validate(ft, m)
        rows.append(
            {"scheduler": "Corollary 2", "cycles": sched2.num_cycles, "bound": "-"}
        )
    except ValueError:
        pass  # channels narrower than lg n: Corollary 2 does not apply
    print(
        format_table(
            rows,
            title=f"{len(m)} {args.traffic} messages on n={args.n} w={ft.root_capacity}"
            f" — λ(M) = {lam:.2f} (lower bound {math.ceil(lam)})",
        )
    )
    return 0


def cmd_batch(args) -> int:
    import time

    from .perf import clear_path_index_cache
    from .perf.batch import _reference_batch_schedule, batch_schedule

    ft = _make_fattree(args.n, args.w)
    sets = [
        _make_traffic(args.traffic, args.n, args.messages, args.seed + b)
        for b in range(args.batch)
    ]
    clear_path_index_cache(ft)
    t0 = time.perf_counter()
    scheds = batch_schedule(ft, sets, kernel=args.kernel, seed=args.seed)
    batched_s = time.perf_counter() - t0
    clear_path_index_cache(ft)
    t0 = time.perf_counter()
    serial = _reference_batch_schedule(ft, sets, kernel=args.kernel, seed=args.seed)
    serial_s = time.perf_counter() - t0
    for b, (got, want) in enumerate(zip(scheds, serial)):
        if [c.as_pairs() for c in got.cycles] != [c.as_pairs() for c in want.cycles]:
            print(f"error: set {b}: batched schedule differs from the serial loop", file=sys.stderr)
            return 1
    total_m = sum(len(s) for s in sets)
    rows = [
        {"set": b, "messages": len(sets[b]), "cycles": scheds[b].num_cycles}
        for b in range(min(len(sets), 8))
    ]
    print(
        format_table(
            rows,
            title=f"batched {args.kernel}: B={args.batch} sets of "
            f"{args.traffic} traffic on n={args.n} w={ft.root_capacity}"
            + (f" (first 8 of {len(sets)} sets)" if len(sets) > 8 else ""),
        )
    )
    speedup = serial_s / batched_s if batched_s else float("inf")
    print(
        f"\n{total_m} messages in {batched_s:.4f}s batched "
        f"({total_m / batched_s:,.0f} msg/s) vs {serial_s:.4f}s serial "
        f"loop — {speedup:.2f}x"
    )
    return 0


def cmd_simulate(args) -> int:
    from .universality import simulate_network_on_fattree

    net = _make_network(args.network, args.n)
    m = net.neighbor_message_set()
    if len(m):
        res = simulate_network_on_fattree(net, m, t=1)
    else:
        from .workloads import cyclic_shift

        res = simulate_network_on_fattree(net, cyclic_shift(args.n, 1))
    rows = [
        {
            "network R": res.network_name,
            "volume v": res.volume,
            "FT root cap": res.root_capacity,
            "t on R": res.t,
            "λ(M)": res.load_factor,
            "FT cycles": res.delivery_cycles,
            "slowdown": res.slowdown,
            "O(lg³n) bound": res.bound() * res.t,
        }
    ]
    print(format_table(rows, title="Theorem 10 simulation at equal volume"))
    return 0


def cmd_hardware(args) -> int:
    from .hardware import run_until_delivered

    ft = _make_fattree(args.n, args.w)
    m = _make_traffic(args.traffic, args.n, args.messages, args.seed)
    out = run_until_delivered(ft, m, concentrators=args.concentrators, seed=args.seed)
    delivered = sum(len(r.delivered) for r in out.reports)
    rows = [
        {
            "cycle": i,
            "delivered": len(r.delivered),
            "congested": len(r.congested),
            "deferred": len(r.deferred),
            "ticks": r.wave_ticks,
        }
        for i, r in enumerate(out.reports[:12])
    ]
    print(
        format_table(
            rows,
            title=f"bit-serial delivery of {delivered} messages "
            f"({args.concentrators} concentrators), {out.cycles} cycles total",
        )
    )
    if out.cycles > 12:
        print(f"… {out.cycles - 12} more cycles")
    return 0


def _parse_switch(spec: str) -> tuple[int, int]:
    try:
        level_s, index_s = spec.split(":", 1)
        return int(level_s), int(index_s)
    except ValueError:
        raise SystemExit(
            f"--kill-switch expects LEVEL:INDEX (e.g. 2:1), got {spec!r}"
        )


def _build_degraded(args, ft):
    """The fault-injection knobs shared by ``faults`` and ``trace``:
    build the degraded tree, or raise ``ValueError`` on a bad scenario."""
    from .faults import DegradedFatTree, FaultModel

    model = FaultModel(seed=args.seed, loss_rate=args.loss_rate)
    if args.kill_wires:
        model.kill_wire_fraction(ft, args.kill_wires)
    for spec in args.kill_switch or []:
        model.kill_switch(*_parse_switch(spec))
    return DegradedFatTree(ft, model)


def cmd_faults(args) -> int:
    from .core import DeliveryTimeout, load_factor, schedule_theorem1
    from .hardware import run_until_delivered

    ft = _make_fattree(args.n, args.w)
    m = _make_traffic(args.traffic, args.n, args.messages, args.seed)
    try:
        dft = _build_degraded(args, ft)
    except ValueError as exc:
        print(f"invalid fault scenario: {exc}", file=sys.stderr)
        return 2

    print(
        format_table(
            dft.summary(),
            title=f"degraded fat-tree n={ft.n} w={ft.root_capacity} — "
            f"{dft.surviving_fraction():.1%} of wires survive",
        )
    )

    mask = dft.routable_mask(m)
    n_unroutable = int((~mask).sum())
    routable = m.take(mask)
    lam0 = load_factor(ft, m)
    lam1 = load_factor(dft, routable)
    d0 = schedule_theorem1(ft, m).num_cycles
    d1 = schedule_theorem1(dft, routable).num_cycles
    rows = [
        {"": "pristine", "messages": len(m), "λ(M)": round(lam0, 3), "Thm 1 cycles": d0},
        {
            "": "degraded",
            "messages": len(routable),
            "λ(M)": round(lam1, 3),
            "Thm 1 cycles": d1,
        },
    ]
    print()
    print(format_table(rows, title=f"{args.traffic} traffic; {n_unroutable} unroutable message(s) dropped"))

    print()
    try:
        out = run_until_delivered(
            dft, routable, seed=args.seed, max_cycles=args.max_cycles
        )
    except DeliveryTimeout as exc:
        print(f"DeliveryTimeout: {exc}", file=sys.stderr)
        return 3
    hist = sorted(out.attempt_histogram().items())
    print(
        format_table(
            [{"attempts": a, "messages": c} for a, c in hist],
            title=f"retry/backoff delivery: {out.cycles} delivery cycles, "
            f"max {out.max_attempts()} attempts",
        )
    )
    return 0


def cmd_trace(args) -> int:
    from .core import DeliveryTimeout, UnroutableError
    from .obs import Obs

    stack = STACKS[args.scheduler]
    if args.quick:
        args.n, args.messages = 64, 128
    ft = _make_fattree(args.n, args.w)
    if args.kill_wires or args.kill_switch or args.loss_rate:
        try:
            ft = _build_degraded(args, ft)
        except ValueError as exc:
            print(f"invalid fault scenario: {exc}", file=sys.stderr)
            return 2
    m = _make_traffic(args.traffic, args.n, args.messages, args.seed)
    obs = Obs(enabled=True)
    interrupted = False
    try:
        stack.run(ft, m, seed=args.seed, max_cycles=args.max_cycles, obs=obs)
    except (UnroutableError, DeliveryTimeout):
        raise  # routing failures exit 3 in main (UnroutableError is a ValueError)
    except ValueError as exc:
        # a stack whose hypothesis the tree does not meet (Corollary 2
        # on a universal tree, whose leaf channels are narrower than lg n)
        raise _UsageError(str(exc)) from None
    except KeyboardInterrupt:
        # Flush whatever the tracer captured before Ctrl-C: a partial
        # JSONL trace is still a valid, loadable artifact.
        interrupted = True

    if args.jsonl:
        text = obs.tracer.to_jsonl()
        if args.jsonl == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(args.jsonl, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(
                f"wrote {len(obs.tracer)} events to {args.jsonl}"
                + (" (interrupted; partial trace)" if interrupted else "")
            )
        return 130 if interrupted else 0
    if interrupted:
        print("interrupted", file=sys.stderr)
        return 130

    # one record shape per cycle; the buffered simulator names it "step"
    records = obs.tracer.select("cycle") or obs.tracer.select("step")
    unit = "steps" if records and records[0]["type"] == "step" else "delivery cycles"
    parts = ("delivered", "congested", "retried", "deferred", "dropped")
    rows = [{"t": e["t"], **{k: e[k] for k in parts}} for e in records[:12]]
    totals = ", ".join(f"{sum(e[k] for e in records)} {k}" for k in parts)
    print(
        format_table(
            rows,
            title=f"{args.scheduler} on n={args.n}: {len(records)} {unit} — "
            f"{totals} (message-cycles)",
        )
    )
    if len(records) > 12:
        print(f"… {len(records) - 12} more {unit}")

    util_rows = [
        {
            "level": labels["level"],
            "dir": labels["direction"],
            "mean util": f"{hist.mean:.1%}",
            "max util": f"{hist.max:.1%}",
            "cycles": hist.count,
        }
        for kind, name, labels, hist in obs.metrics.series()
        if kind == "histogram" and name == "channel.utilization"
    ]
    if util_rows:
        print()
        print(format_table(util_rows, title="channel utilisation per level"))

    hits = obs.metrics.counter_value("pathindex.cache", result="hit")
    misses = obs.metrics.counter_value("pathindex.cache", result="miss")
    kernel_rows = [
        {
            "kernel": labels["kernel"],
            "calls": hist.count,
            "total s": f"{hist.total:.4f}",
        }
        for kind, name, labels, hist in obs.metrics.series()
        if kind == "histogram" and name == "kernel.seconds"
    ]
    if kernel_rows:
        print()
        print(
            format_table(
                kernel_rows,
                title=f"kernel timings — path-index cache: "
                f"{int(hits)} hit(s), {int(misses)} miss(es)",
            )
        )
    retried = obs.metrics.counter_value("messages.retried", scheduler=stack.label)
    if retried:
        print(f"\nretries: {int(retried)} message-cycles NACKed and retried")
    return 0


def cmd_lint(args) -> int:
    from .lint import (
        lint_paths,
        render_github,
        render_json,
        render_rule_table,
        render_text,
    )

    if args.list_rules:
        print(render_rule_table())
        return 0
    try:
        result = lint_paths(
            args.paths, rule_ids=args.rule or None, project=args.project
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    render = {
        "json": render_json,
        "github": render_github,
    }.get(args.format, render_text)
    print(render(result))
    return result.exit_code


def _lint_corpus_smoke(args, cases) -> int:
    """``repro fuzz --lint-corpus``: run every reproducer snippet the
    fuzzer can emit — one per corpus case and per generated case —
    through the linter.  The snippets are what a failing run asks a
    human to paste into a bug report, so they must themselves satisfy
    the project's RNG/dtype/validation conventions."""
    from .lint import lint_source
    from .verify import generate_case

    snippets = [(f"corpus[{i}]", c.repro_snippet()) for i, c in enumerate(cases)]
    for i in range(args.iters):
        case = generate_case(args.seed, i, max_n=args.max_n)
        snippets.append((f"generated[{i}]", case.repro_snippet()))

    bad = 0
    for label, snippet in snippets:
        result = lint_source(snippet, path=f"<repro-snippet {label}>")
        for failure in result.parse_failures:
            print(failure.format(), file=sys.stderr)
            bad += 1
        for finding in result.findings:
            print(finding.format(), file=sys.stderr)
            bad += 1
    if bad:
        print(
            f"error: {bad} lint finding(s) in {len(snippets)} reproducer "
            "snippet(s)",
            file=sys.stderr,
        )
        return 3
    print(f"lint-corpus: {len(snippets)} reproducer snippet(s) lint-clean")
    return 0


def cmd_fuzz(args) -> int:
    from .verify import (
        ConformanceError,
        DifferentialOracle,
        generate_case,
        load_corpus,
        shrink_case,
    )

    oracle = DifferentialOracle(max_cycles=args.max_cycles)

    def report_failure(origin: str, case, exc: ConformanceError) -> int:
        print(f"\nconformance failure ({origin}): {case.describe()}", file=sys.stderr)
        for line in exc.failures:
            print(f"  - {line}", file=sys.stderr)
        print("\nshrinking to a minimal reproducer …", file=sys.stderr)
        shrunk = shrink_case(case, lambda c: not oracle.passes(c))
        print(
            f"shrunk to {len(shrunk.src)} message(s) on n={shrunk.n}:",
            file=sys.stderr,
        )
        print(f"error: corpus line: {shrunk.to_json()}", file=sys.stderr)
        print("\n# paste-able reproducer:", file=sys.stderr)
        print(shrunk.repro_snippet(), file=sys.stderr)
        return 3

    corpus_cases = []
    if args.corpus and os.path.exists(args.corpus):
        try:
            corpus_cases = load_corpus(args.corpus)
        except ValueError as exc:
            print(f"error: invalid corpus: {exc}", file=sys.stderr)
            return 2
    elif args.corpus:
        print(f"corpus {args.corpus} not found — skipping replay", file=sys.stderr)

    if args.lint_corpus:
        return _lint_corpus_smoke(args, corpus_cases)

    if corpus_cases:
        for case in corpus_cases:
            try:
                oracle.check(case)
            except ConformanceError as exc:
                return report_failure("corpus replay", case, exc)
        print(f"corpus replay: {len(corpus_cases)} case(s) ok ({args.corpus})")

    from collections import Counter

    families: Counter = Counter()
    checks = messages = 0
    for i in range(args.iters):
        case = generate_case(args.seed, i, max_n=args.max_n)
        try:
            report = oracle.check(case)
        except ConformanceError as exc:
            return report_failure(f"iteration {i}", case, exc)
        families[case.label.split(":")[0]] += 1
        checks += report.checks
        messages += report.num_messages
    rows = [
        {"generator": name, "cases": count}
        for name, count in sorted(families.items())
    ]
    if rows:
        print(
            format_table(
                rows,
                title=f"repro fuzz --iters {args.iters} --seed {args.seed}: "
                f"all stacks agree ({messages} messages, {checks} checks)",
            )
        )
    print(
        f"ok: {len(corpus_cases)} corpus + {args.iters} generated case(s), "
        "0 conformance failures"
    )
    return 0


#: the stacks ``repro chaos`` rotates through (``offline`` is Theorem 1)
_CHAOS_STACKS = ("random-rank", "online-retry", "switchsim", "buffered", "offline")


def cmd_chaos(args) -> int:
    import numpy as np

    from .chaos import (
        ChaosSchedule,
        chaos_options,
        check_chaos_run,
        delivered_fraction,
        random_timeline,
        run_chaos,
        same_delivery,
    )
    from .workloads import uniform_random

    ft = _make_fattree(args.n, args.w)
    m = uniform_random(args.n, args.messages, seed=args.seed)

    # empty-timeline bit-identity: chaos instrumentation must be free
    for stack in _CHAOS_STACKS:
        name = "theorem1" if stack == "offline" else stack
        options = chaos_options(name, seed=args.seed, max_cycles=args.max_cycles)
        # the healthy run with the same seed and budget (buffered takes neither)
        healthy = STACKS[name].run(
            ft, m, seed=args.seed, max_cycles=options.get("max_cycles", 0)
        )
        empty = run_chaos(name, ft, m, ChaosSchedule(), **options)
        if not same_delivery(healthy, empty):
            print(
                f"error: empty-timeline chaos run [{stack}] diverged from the "
                "healthy run",
                file=sys.stderr,
            )
            return 3

    totals: dict[str, dict] = {
        s: {"runs": 0, "fraction": 0.0, "worst": 1.0, "dropped": 0}
        for s in _CHAOS_STACKS
    }
    for i in range(args.iters):
        rng = np.random.default_rng([args.seed, i])
        traffic = uniform_random(
            args.n, args.messages, seed=int(rng.integers(0, 2**31))
        )
        timeline = random_timeline(
            ft,
            seed=int(rng.integers(0, 2**31)),
            events=args.events,
            horizon=args.horizon,
            repair_bias=0.8,
        )
        stack = _CHAOS_STACKS[i % len(_CHAOS_STACKS)]
        name = "theorem1" if stack == "offline" else stack
        options = chaos_options(
            name, seed=int(rng.integers(0, 2**31)), max_cycles=args.max_cycles
        )
        try:
            result = run_chaos(name, ft, traffic, timeline, **options)
        except Exception as exc:  # noqa: BLE001 - every escape is a violation
            print(
                f"error: iteration {i} [{stack}]: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            print(f"timeline: {timeline.to_json()}", file=sys.stderr)
            return 3
        problems = check_chaos_run(ft, traffic, result)
        fraction = delivered_fraction(result)
        if args.floor and fraction < args.floor:
            problems.append(
                f"delivered fraction {fraction:.3f} below floor {args.floor}"
            )
        if problems:
            print(f"error: iteration {i} [{stack}]:", file=sys.stderr)
            for p in problems:
                print(f"  - {p}", file=sys.stderr)
            print(f"timeline: {timeline.to_json()}", file=sys.stderr)
            return 3
        row = totals[stack]
        row["runs"] += 1
        row["fraction"] += fraction
        row["worst"] = min(row["worst"], fraction)
        dropped = getattr(result, "dropped", None)
        row["dropped"] += 0 if dropped is None else len(dropped)
    rows = [
        {
            "stack": s,
            "runs": row["runs"],
            "mean delivered": f"{row['fraction'] / row['runs']:.1%}",
            "worst": f"{row['worst']:.1%}",
            "dropped": row["dropped"],
        }
        for s, row in totals.items()
        if row["runs"]
    ]
    print(
        format_table(
            rows,
            title=f"repro chaos --iters {args.iters} --seed {args.seed}: "
            f"n={args.n}, {args.messages} messages, {args.events} events "
            f"per timeline — all partitions hold",
        )
    )
    print("ok: empty-timeline bit-identity + per-cycle outcome partitions")
    return 0


def cmd_experiment(args) -> int:
    from .experiments import run_experiment

    try:
        sections = run_experiment(args.id)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    for title, rows in sections:
        print(format_table(rows, title=title))
        print()
    return 0


def cmd_serve(args) -> int:
    """Run the routing daemon (stdin/stdout JSON lines, or TCP)."""
    import asyncio

    from .faults import DegradedFatTree, FaultModel
    from .serve import ServeConfig, ServeEngine, serve_stdio, serve_tcp

    config = ServeConfig(
        n=args.n,
        w=args.w,
        shards=args.shards,
        lambda_ceiling=args.lambda_ceiling,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
    )
    tenants = {}
    for spec in args.tenant or []:
        name, _, frac_text = spec.partition(":")
        try:
            frac = float(frac_text) if frac_text else 0.0
            if not name or not (0.0 <= frac < 1.0):
                raise ValueError(spec)
        except ValueError:
            print(
                f"invalid --tenant spec {spec!r} (want NAME:FRAC, 0 <= FRAC < 1)",
                file=sys.stderr,
            )
            return 2
        base = _make_fattree(args.n, args.w)
        model = FaultModel(seed=args.seed)
        if frac:
            model.kill_wire_fraction(base, frac)
        tenants[name] = DegradedFatTree(base, model)

    try:
        engine = ServeEngine(config, tenants=tenants)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    code = 0
    try:
        if args.port is not None:
            asyncio.run(serve_tcp(engine, args.host, args.port))
        else:
            asyncio.run(serve_stdio(engine))
    except KeyboardInterrupt:
        # SIGINT is the daemon's off switch: drain the shard pool
        # (finally below), then 130.
        print("interrupted — shutting down shards", file=sys.stderr)
        code = 130
    finally:
        engine.close()
    return code


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fat-trees (Leiserson 1985) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, traffic=False):
        p.add_argument("--n", type=int, default=64, help="processors (power of two)")
        p.add_argument("--w", type=int, default=None, help="root capacity (default n)")
        if traffic:
            p.add_argument(
                "--traffic",
                default="random",
                choices=["random", "permutation", "bit-reversal", "hotspot", "local"],
            )
            p.add_argument("--messages", type=int, default=256)
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("topology", help="capacities and hardware cost (Fig. 1, Thm 4)")
    common(p)
    p.set_defaults(fn=cmd_topology)

    p = sub.add_parser("schedule", help="off-line scheduling (Thm 1 / Cor 2)")
    common(p, traffic=True)
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser(
        "batch", help="batched 3-D scheduling: B message sets in one pass"
    )
    common(p, traffic=True)
    p.add_argument(
        "--batch", type=int, default=32, help="number of message sets B"
    )
    p.add_argument(
        "--kernel", default="greedy", choices=BATCH_KERNELS
    )
    p.set_defaults(fn=cmd_batch)

    p = sub.add_parser("simulate", help="Theorem 10 equal-volume simulation")
    p.add_argument("--n", type=int, default=64)
    p.add_argument(
        "--network",
        default="mesh",
        choices=["mesh", "hypercube", "shuffle", "tree", "torus"],
    )
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("hardware", help="bit-serial switch simulation (Figs. 2-3)")
    common(p, traffic=True)
    p.add_argument(
        "--concentrators", default="ideal", choices=["ideal", "pippenger"]
    )
    p.set_defaults(fn=cmd_hardware)

    def fault_opts(p):
        p.add_argument(
            "--kill-wires",
            type=float,
            default=0.0,
            metavar="FRAC",
            help="kill floor(FRAC·cap) wires of every channel (e.g. 0.25)",
        )
        p.add_argument(
            "--kill-switch",
            action="append",
            metavar="LEVEL:INDEX",
            help="kill the switch at LEVEL:INDEX (repeatable)",
        )
        p.add_argument(
            "--loss-rate",
            type=float,
            default=0.0,
            help="per-traversal transient corruption probability in [0, 1)",
        )
        p.add_argument(
            "--max-cycles",
            type=int,
            default=10_000,
            help="delivery-cycle budget before DeliveryTimeout",
        )

    p = sub.add_parser(
        "faults",
        help="fault injection: degraded capacities, λ inflation, retry cost",
    )
    common(p, traffic=True)
    fault_opts(p)
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "trace",
        help="run a workload with observability on; summary tables or JSONL",
    )
    common(p, traffic=True)
    fault_opts(p)
    p.add_argument(
        "--scheduler",
        default="random-rank",
        choices=list(STACKS),
        help="which instrumented entry point to run",
    )
    p.add_argument(
        "--jsonl",
        metavar="PATH",
        help="dump the raw trace as JSONL to PATH ('-' for stdout) "
        "instead of printing summary tables",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="small preset (n=64, 128 messages) for smoke tests / CI",
    )
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing across all routing stacks",
    )
    p.add_argument(
        "--iters", type=int, default=100, help="generated cases to run"
    )
    p.add_argument("--seed", type=int, default=0, help="fuzz stream seed")
    p.add_argument(
        "--corpus",
        default=os.path.join("tests", "corpus", "conformance.jsonl"),
        help="JSONL regression corpus to replay first "
        "(skipped with a note if missing; '' disables)",
    )
    p.add_argument(
        "--max-n",
        type=int,
        default=32,
        help="largest tree size the generators may draw (power of two)",
    )
    p.add_argument(
        "--max-cycles",
        type=int,
        default=100_000,
        help="delivery-cycle budget for the on-line stacks",
    )
    p.add_argument(
        "--lint-corpus",
        action="store_true",
        help="instead of differential checking, run every reproducer "
        "snippet (corpus + generated) through repro.lint; exit 3 on "
        "any finding",
    )
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "lint",
        help="project-aware static analysis (routing-invariant rules)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    p.add_argument(
        "--format",
        default="text",
        choices=["text", "json", "github"],
        help="report format (text: path:line:col lines; json: stable "
        "object; github: Actions ::error annotations)",
    )
    p.add_argument(
        "--rule",
        action="append",
        metavar="RULE-ID",
        help="run only this rule (repeatable; default: all rules)",
    )
    p.add_argument(
        "--project",
        action="store_true",
        help="also run the whole-program rules (call graph over every "
        "package module: pickle-boundary, async-blocking, "
        "cache-invalidation, obs-rng-flow)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "chaos",
        help="runtime fault injection with self-healing recovery checks",
    )
    p.add_argument(
        "--iters",
        type=int,
        default=25,
        help="chaos runs (rotating through the instrumented stacks)",
    )
    p.add_argument("--seed", type=int, default=0, help="scenario stream seed")
    p.add_argument("--n", type=int, default=16, help="processors (power of two)")
    p.add_argument("--w", type=int, default=None, help="root capacity (default n)")
    p.add_argument(
        "--messages", type=int, default=48, help="uniform-random messages per run"
    )
    p.add_argument(
        "--events", type=int, default=6, help="primitive events per timeline"
    )
    p.add_argument(
        "--horizon",
        type=int,
        default=12,
        help="last cycle at which a timeline event may fire",
    )
    p.add_argument(
        "--max-cycles",
        type=int,
        default=100_000,
        help="delivery-cycle budget for the on-line stacks",
    )
    p.add_argument(
        "--floor",
        type=float,
        default=0.0,
        help="fail (exit 3) if any run delivers less than this fraction",
    )
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="routing-as-a-service daemon: JSON lines over stdin or TCP",
    )
    common(p)
    p.add_argument(
        "--shards", type=int, default=2,
        help="shard worker processes (0 = schedule inline, no pool)",
    )
    p.add_argument(
        "--port", type=int, default=None,
        help="listen on TCP PORT (default: serve stdin/stdout)",
    )
    p.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    p.add_argument(
        "--lambda-ceiling", dest="lambda_ceiling", type=float, default=4096.0,
        help="aggregate in-flight λ(M) admission ceiling (429 beyond)",
    )
    p.add_argument(
        "--max-pending", type=int, default=1024,
        help="max admitted-but-unfinished requests (503 beyond)",
    )
    p.add_argument(
        "--max-batch", type=int, default=32,
        help="max requests coalesced into one batch_schedule call "
        "(requests coalesce only while every shard is busy)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="fault-model seed for --tenant"
    )
    p.add_argument(
        "--tenant", action="append", metavar="NAME:FRAC",
        help="add a degraded tenant fault domain with FRAC of wires killed "
        "(repeatable; e.g. --tenant spotty:0.25)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "experiment", help="regenerate a DESIGN.md experiment table (e01-e21)"
    )
    p.add_argument("id", help="experiment id, e.g. e07, or 'all'")
    p.set_defaults(fn=cmd_experiment)
    return parser


def main(argv=None) -> int:
    """Parse arguments and dispatch to the chosen command.

    Routing failures — traffic with no surviving path, or a run that
    exhausts its delivery-cycle budget — exit with a one-line ``error:``
    message and status 3, never a traceback; input no run can start
    from (a ``--n``/``--w`` with no fat-tree, a stack outside its
    hypothesis) exits 2 the same way.
    """
    from .core import DeliveryTimeout, UnroutableError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UnroutableError, DeliveryTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of our stdout (e.g. ``... | head``) went away
        # mid-stream.  Truncated output is the reader's choice, not an
        # error — but the interpreter would still flush sys.stdout at
        # shutdown and print an unraisable traceback.  Re-point the fd
        # at devnull so that final flush cannot fail, then exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        # Ctrl-C on a long run (trace/fuzz/chaos/serve) is a normal way
        # to stop; commands with partial output to save handle it
        # themselves first (cmd_trace flushes JSONL, cmd_serve drains).
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
