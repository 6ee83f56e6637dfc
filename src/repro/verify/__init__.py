"""Differential fuzzing and schedule conformance checking.

The repo delivers the same message set seven independent ways, one row
each of :data:`repro.core.registry.STACKS` (Theorem 1, Corollary 2,
random-rank, greedy first-fit, online-retry, the buffered design and
the switch simulator — healthy or fault-degraded).  This package makes
their agreement a one-command machine check:

* :mod:`~repro.verify.generators` — seeded adversarial case generators
  (:func:`generate_case` is a pure function of ``(seed, index)``);
* :mod:`~repro.verify.oracle` — the :class:`DifferentialOracle` that
  runs one case through every stack and cross-checks validity, bounds,
  kernel parity, delivered multisets and observability accounting;
* :mod:`~repro.verify.shrink` — a delta-debugging shrinker reducing any
  failing case to a minimal reproducer;
* :mod:`~repro.verify.corpus` — the JSONL regression corpus under
  ``tests/corpus/`` with deterministic replay.

The ``repro fuzz`` CLI subcommand wires these together; see the README's
*Verification & fuzzing* section.
"""

from .corpus import (
    DEFAULT_CORPUS_PATH,
    append_case,
    load_corpus,
    replay_corpus,
    write_corpus,
)
from .generators import (
    GENERATOR_NAMES,
    FuzzCase,
    case_from_messages,
    generate_case,
)
from .oracle import (
    SCHEDULE_STACKS,
    ConformanceError,
    DifferentialOracle,
    OracleReport,
)
from .shrink import shrink_case

__all__ = [
    "DEFAULT_CORPUS_PATH",
    "append_case",
    "load_corpus",
    "replay_corpus",
    "write_corpus",
    "GENERATOR_NAMES",
    "FuzzCase",
    "case_from_messages",
    "generate_case",
    "SCHEDULE_STACKS",
    "ConformanceError",
    "DifferentialOracle",
    "OracleReport",
    "shrink_case",
]
