"""The benchmark: one command for every workload of the routing stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-light --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``serve-light`` (the ``repro serve`` daemon over its stdin/stdout),
``offline-paper`` (Theorem 1 / Corollary 2 schedulers)
and ``online-chaos`` (the delivery loops and ``repro.chaos``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then again with span-recording wrappers around
the program's layers, and prints the per-layer metrics (including the
tracing overhead), writing the spans to ``.perfbench/``.  Every metric
is printed by name with its unit; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit status is 1 when any output check failed, 2 on bad usage or a
checkout without the program, 3 when an open-loop run is void.
"""

from __future__ import annotations

import argparse
import json
import sys

import common


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [w["name"] for w in common.spec()["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_program()
    sys.path.insert(0, str(common.SRC))
    print("env " + json.dumps(common.environment()), flush=True)
    if args.workload.startswith("serve"):
        import serve_load

        correct = serve_load.run(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        import inproc

        correct = inproc.run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
