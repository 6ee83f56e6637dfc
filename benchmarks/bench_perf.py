"""PERF — old-vs-new wall-clock for the vectorised routing kernels.

Times the vectorised kernels (:func:`repro.core.schedule_random_rank`,
:func:`repro.core.schedule_greedy_first_fit`, riding the shared
:class:`repro.perf.PathIndex`) and the paper's off-line schedulers
(:func:`repro.core.schedule_theorem1`,
:func:`repro.core.schedule_corollary2`, on the batched even-split
kernel) against the retained pure-Python ``_reference_*`` oracles on
identical inputs, asserts the schedules are identical, and records the
measurements into ``BENCH_PERF.json`` at the repository root.

Acceptance gates: ≥5× on ``schedule_random_rank`` at ``n = 1024`` with
a random permutation (seed 0), ≥5× on ``schedule_greedy_first_fit`` at
``n = 1024`` (full mode); ≥2× on greedy at ``n = 128``, ≥3× on
:func:`repro.perf.batch_schedule` over the serial per-set loop at
``B = 32, n = 256``, ≥10× on Theorem 1 with ``local_traffic`` (2n
messages) and ≥3× on Corollary 2 (8n uniform messages on
``ConstantCapacity(lg n, 2 lg n)``), both at ``n = 1024`` (both modes,
so the CI ``--quick`` smoke enforces them too).  The path-index cache
is cleared before every timed call, so the vectorised numbers are
*cold* — cache hits across schedulers only widen the gap in real use.

Each row also records ``peak_kb`` and ``reference_peak_kb``: the
``tracemalloc`` peak of one untimed call of the vectorised kernel and
of its oracle — the memory that case itself allocates, including its
result, independent of every other row.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_perf.py``
(``--quick`` for the CI smoke subset) or via pytest as a bench.
"""

import argparse
import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PERF.json"
REPEATS = 3
OFFLINE_WORKLOADS = ("thm1 uniform", "thm1 local", "thm1 perm", "cor2 uniform")


def _build_case(kind, n, w=None, msgs_per_proc=None, seed=0):
    from repro.core import FatTree, UniversalCapacity
    from repro.workloads import random_permutation, uniform_random

    ft = FatTree(n) if w is None else FatTree(n, UniversalCapacity(n, w, strict=False))
    if msgs_per_proc is None:
        m = random_permutation(n, seed=seed)
        workload = "permutation"
    else:
        m = uniform_random(n, msgs_per_proc * n, seed=seed)
        workload = f"uniform x{msgs_per_proc}"
    return ft, m, workload


def _time(fn, ft, m, *, repeats=REPEATS, **kw):
    from repro.perf import clear_path_index_cache

    best, result = math.inf, None
    for _ in range(repeats):
        clear_path_index_cache(ft)
        t0 = time.perf_counter()
        result = fn(ft, m, **kw)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _peak_kb(fn, ft, m):
    """``tracemalloc`` peak of one cold call, in KiB."""
    from repro.perf import clear_path_index_cache

    clear_path_index_cache(ft)
    tracemalloc.start()
    try:
        fn(ft, m)
        return tracemalloc.get_traced_memory()[1] // 1024
    finally:
        tracemalloc.stop()


def _run_case(label, kind, n, w=None, msgs_per_proc=None, repeats=REPEATS):
    from repro.core.greedy import (
        _reference_schedule_greedy_first_fit,
        schedule_greedy_first_fit,
    )
    from repro.core.online import (
        _reference_schedule_random_rank,
        schedule_random_rank,
    )

    ft, m, workload = _build_case(kind, n, w, msgs_per_proc)
    if kind == "random_rank":
        new_fn = lambda ft, m: schedule_random_rank(ft, m, seed=0)
        old_fn = lambda ft, m: _reference_schedule_random_rank(ft, m, seed=0)
    else:
        new_fn = schedule_greedy_first_fit
        old_fn = _reference_schedule_greedy_first_fit
    new_s, new_sched = _time(new_fn, ft, m, repeats=repeats)
    old_s, old_sched = _time(old_fn, ft, m, repeats=repeats)
    assert [sorted(c) for c in new_sched.cycles] == [
        sorted(c) for c in old_sched.cycles
    ], f"{label}: vectorised kernel diverged from reference"
    return {
        "case": label,
        "kernel": kind,
        "n": n,
        "workload": workload,
        "cycles": new_sched.num_cycles,
        "reference_s": round(old_s, 6),
        "vectorised_s": round(new_s, 6),
        "speedup": round(old_s / new_s, 2),
        "peak_kb": _peak_kb(new_fn, ft, m),
        "reference_peak_kb": _peak_kb(old_fn, ft, m),
    }


def _build_offline_case(workload, n):
    """The offline benchmark inputs: Theorem 1 on the full-bandwidth
    tree, Corollary 2 on a tree with ``a = 2``."""
    from repro.core import ConstantCapacity, FatTree
    from repro.workloads import random_permutation, uniform_random
    from repro.workloads.locality import local_traffic

    depth = n.bit_length() - 1
    if workload == "cor2 uniform":
        ft = FatTree(n, ConstantCapacity(depth, 2 * depth))
        return ft, uniform_random(n, 8 * n, seed=0), "uniform 8n, cap 2 lg n"
    ft = FatTree(n)
    if workload == "thm1 uniform":
        return ft, uniform_random(n, 4 * n, seed=0), "uniform 4n"
    if workload == "thm1 local":
        return ft, local_traffic(n, 2 * n, seed=0), "local_traffic 2n"
    return ft, random_permutation(n, seed=0), "permutation"


def _run_offline_case(workload, n, repeats=REPEATS):
    """One paper scheduler against its ``_reference_*`` oracle; the
    schedules must match cycle for cycle, in message order."""
    from repro.core import schedule_corollary2, schedule_theorem1
    from repro.core.reuse_scheduler import _reference_schedule_corollary2
    from repro.core.scheduler import _reference_schedule_theorem1

    ft, m, described = _build_offline_case(workload, n)
    if workload.startswith("cor2"):
        new_fn, old_fn = schedule_corollary2, _reference_schedule_corollary2
    else:
        new_fn, old_fn = schedule_theorem1, _reference_schedule_theorem1
    new_s, new_sched = _time(new_fn, ft, m, repeats=repeats)
    old_s, old_sched = _time(old_fn, ft, m, repeats=repeats)
    label = f"{workload} n={n}"
    assert new_sched.per_level_cycles == old_sched.per_level_cycles and [
        c.as_pairs() for c in new_sched.cycles
    ] == [c.as_pairs() for c in old_sched.cycles], (
        f"{label}: batched scheduler diverged from reference"
    )
    return {
        "case": label,
        "kernel": new_fn.__name__,
        "n": n,
        "workload": described,
        "cycles": new_sched.num_cycles,
        "reference_s": round(old_s, 6),
        "vectorised_s": round(new_s, 6),
        "speedup": round(old_s / new_s, 2),
        "messages_per_s": int(len(m) / new_s),
        "peak_kb": _peak_kb(new_fn, ft, m),
        "reference_peak_kb": _peak_kb(old_fn, ft, m),
    }


def _run_batched_case(repeats=REPEATS):
    """Batched 3-D scheduling (one :func:`repro.perf.batch_schedule`
    call over B compatible message sets) against the serial per-set
    loop it is held bit-identical to.

    Workload: B=32 independent uniform-random sets of 16 messages each
    (seeds 0..31) on one n=256 tree, ``kernel="random_rank"`` — small
    sets, so the serial loop's per-call overhead dominates exactly the
    way a Monte-Carlo sweep's inner loop does.  ``messages_per_s``
    counts every input message over the batched wall clock.
    """
    from repro.core import FatTree
    from repro.perf import clear_path_index_cache
    from repro.perf.batch import _reference_batch_schedule, batch_schedule
    from repro.workloads import uniform_random

    n, b, m_per_set = 256, 32, 16
    ft = FatTree(n)
    sets = [uniform_random(n, m_per_set, seed=s) for s in range(b)]
    best_new = best_old = math.inf
    new_scheds = old_scheds = None
    for _ in range(repeats):
        clear_path_index_cache(ft)
        t0 = time.perf_counter()
        new_scheds = batch_schedule(ft, sets, kernel="random_rank", seed=0)
        best_new = min(best_new, time.perf_counter() - t0)
        clear_path_index_cache(ft)
        t0 = time.perf_counter()
        old_scheds = _reference_batch_schedule(ft, sets, kernel="random_rank", seed=0)
        best_old = min(best_old, time.perf_counter() - t0)
    assert all(
        a.cycles == o.cycles for a, o in zip(new_scheds, old_scheds)
    ), "batched: batch_schedule diverged from the serial per-set loop"
    total_m = sum(len(s) for s in sets)
    return {
        "case": f"batched random_rank B={b} n={n}",
        "kernel": "batched random_rank",
        "n": n,
        "workload": f"uniform m/set={m_per_set} B={b}",
        "cycles": max(s.num_cycles for s in new_scheds),
        "reference_s": round(best_old, 6),
        "vectorised_s": round(best_new, 6),
        "speedup": round(best_old / best_new, 2),
        "messages_per_s": int(total_m / best_new),
        "peak_kb": _peak_kb(
            lambda ft, sets: batch_schedule(ft, sets, kernel="random_rank", seed=0),
            ft, sets,
        ),
        "reference_peak_kb": _peak_kb(
            lambda ft, sets: _reference_batch_schedule(
                ft, sets, kernel="random_rank", seed=0
            ),
            ft, sets,
        ),
    }


def _measure_obs_overhead(quick=False, repeats=REPEATS):
    """Time the headline kernel with observability disabled (the default
    NULL_OBS path every existing call site takes) and with a fully
    enabled ``Obs``, on identical inputs.  The disabled number is what
    the <5% regression gate watches; the enabled number is informational
    (tracing is expected to cost real time)."""
    from repro.core import schedule_random_rank
    from repro.obs import Obs

    n = 256 if quick else 1024
    ft, m, workload = _build_case("random_rank", n)
    disabled_s, _ = _time(
        lambda ft, m: schedule_random_rank(ft, m, seed=0), ft, m, repeats=repeats
    )
    enabled_s, _ = _time(
        lambda ft, m: schedule_random_rank(ft, m, seed=0, obs=Obs(enabled=True)),
        ft,
        m,
        repeats=repeats,
    )
    return {
        "case": f"random_rank {workload} n={n}",
        "disabled_s": round(disabled_s, 6),
        "enabled_s": round(enabled_s, 6),
        "enabled_over_disabled": round(enabled_s / disabled_s, 2),
    }


def run_bench(quick=False):
    """All timed cases; the first row is the acceptance configuration."""
    if quick:
        cases = [
            ("random_rank perm n=256", "random_rank", 256, None, None),
            ("random_rank uniform n=256", "random_rank", 256, 40, 4),
            ("greedy uniform n=128", "greedy", 128, 26, 4),
        ]
        offline_sizes = (1024,)
        repeats = 1
    else:
        cases = [
            ("random_rank perm n=1024", "random_rank", 1024, None, None),
            ("random_rank uniform n=512", "random_rank", 512, 64, 6),
            ("random_rank uniform n=1024", "random_rank", 1024, 102, 4),
            ("greedy uniform n=128", "greedy", 128, 26, 4),
            ("greedy uniform n=256", "greedy", 256, 40, 4),
            ("greedy perm n=1024", "greedy", 1024, None, None),
        ]
        offline_sizes = (1024, 4096)
        repeats = REPEATS
    rows = [
        _run_case(label, kind, n, w, mpp, repeats=repeats)
        for label, kind, n, w, mpp in cases
    ]
    rows += [
        _run_offline_case(workload, n, repeats=repeats)
        for n in offline_sizes
        for workload in OFFLINE_WORKLOADS
    ]
    # the batched case is millisecond-scale: always take best-of-3 so
    # the quick-mode ≥3× gate doesn't flap on a single noisy sample
    rows.append(_run_batched_case(repeats=max(repeats, 3)))
    overhead = _measure_obs_overhead(quick=quick, repeats=repeats)
    RESULTS_PATH.write_text(
        json.dumps(
            {"quick": quick, "results": rows, "obs_overhead": overhead}, indent=2
        )
        + "\n"
    )
    return rows


def _gate_failures(rows, quick):
    """Every acceptance-gate violation in ``rows`` as human-readable
    strings (empty list == all gates pass).

    Full mode gates the random_rank n=1024 headline (≥5×) and the
    greedy n=1024 case (≥5×); both modes gate greedy n=128 (≥2×), the
    batched case (≥3× over the serial per-set loop), Theorem 1 on local
    traffic at n=1024 (≥10×) and Corollary 2 at n=1024 (≥3×), so the CI
    ``--quick`` smoke enforces the latter four on every push.
    """
    by_case = {row["case"]: row for row in rows}

    def check(case, minimum, failures):
        row = by_case.get(case)
        if row is None:
            failures.append(f"{case}: case missing from bench results")
        elif row["speedup"] < minimum:
            failures.append(
                f"{case}: expected >={minimum}x, measured {row['speedup']}x"
            )

    failures = []
    if not quick:
        check("random_rank perm n=1024", 5.0, failures)
        check("greedy perm n=1024", 5.0, failures)
    check("greedy uniform n=128", 2.0, failures)
    check("batched random_rank B=32 n=256", 3.0, failures)
    check("thm1 local n=1024", 10.0, failures)
    check("cor2 uniform n=1024", 3.0, failures)
    return failures


def test_vectorised_kernels_speedup(report):
    """The acceptance gates: ≥5× on schedule_random_rank and greedy at
    n=1024, ≥2× on greedy at n=128, ≥3× on batch_schedule over the
    serial per-set loop at B=32 n=256, ≥10× on Theorem 1 local traffic
    and ≥3× on Corollary 2 at n=1024 — schedules bit-identical in every
    case (asserted inside the timing harness)."""
    rows = run_bench(quick=False)
    report(rows, title="PERF — vectorised kernels vs pure-Python reference")
    headline = rows[0]
    assert headline["kernel"] == "random_rank" and headline["n"] == 1024
    failures = _gate_failures(rows, quick=False)
    assert not failures, "acceptance: " + "; ".join(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes, single repeat (CI smoke); skips the n=1024 "
        "kernel gates but still enforces the greedy n=128, batched and "
        "n=1024 scheduler ones",
    )
    parser.add_argument(
        "--obs-gate",
        action="store_true",
        help="gate the obs-disabled headline wall clock against the "
        "BENCH_PERF.json written by a previous run on this machine "
        "(<5%% regression, with a 10 ms absolute noise floor)",
    )
    args = parser.parse_args(argv)
    baseline = None
    if args.obs_gate and RESULTS_PATH.exists():
        # read the previous headline before run_bench overwrites the file
        prev = json.loads(RESULTS_PATH.read_text())
        if prev.get("quick") == args.quick and prev.get("results"):
            baseline = prev["results"][0]
    rows = run_bench(quick=args.quick)
    from repro.analysis import format_table

    print(format_table(rows, title="PERF — vectorised kernels vs reference"))
    overhead = json.loads(RESULTS_PATH.read_text())["obs_overhead"]
    print(
        f"obs overhead ({overhead['case']}): disabled {overhead['disabled_s']}s, "
        f"enabled {overhead['enabled_s']}s "
        f"({overhead['enabled_over_disabled']}x, informational)"
    )
    print(f"wrote {RESULTS_PATH}")
    failures = _gate_failures(rows, quick=args.quick)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    if args.obs_gate:
        if baseline is None:
            print(
                "obs gate: no comparable baseline in BENCH_PERF.json "
                "(run the bench once first on this machine)"
            )
            return 1
        fresh = rows[0]["vectorised_s"]
        old = baseline["vectorised_s"]
        # 5% relative, with an absolute floor so millisecond-scale quick
        # headlines don't flap on scheduler jitter
        limit = max(1.05 * old, old + 0.010)
        verdict = "OK" if fresh <= limit else "FAIL"
        print(
            f"obs gate: headline {baseline['case']} — baseline {old}s, "
            f"fresh {fresh}s, limit {round(limit, 6)}s: {verdict}"
        )
        if verdict == "FAIL":
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
