"""The stack registry is the one table every caller reads: each row runs
and labels its obs events as declared, and the CLI, fuzz oracle, chaos
executor, batch kernels and serve protocol all take their names from it."""

import argparse

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core import ConstantCapacity, FatTree, MessageSet, capacity_ratio
from repro.core.registry import BATCH_KERNELS, STACKS
from repro.obs import Obs
from repro.serve import protocol
from repro.verify import SCHEDULE_STACKS


def _choices(command, option):
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    action = next(
        a for a in sub.choices[command]._actions if option in a.option_strings
    )
    return list(action.choices)


@pytest.mark.parametrize("name", list(STACKS))
def test_every_stack_emits_events_under_its_label(name):
    ft = FatTree(16, ConstantCapacity(4, 5))
    assert capacity_ratio(ft) > 1  # Corollary 2's hypothesis holds
    rng = np.random.default_rng(3)
    m = MessageSet(rng.integers(0, 16, 40), rng.integers(0, 16, 40), 16)
    stack = STACKS[name]
    obs = Obs(enabled=True)
    stack.run(ft, m, seed=1, max_cycles=10_000, obs=obs)
    events = obs.tracer.select("cycle") or obs.tracer.select("step")
    assert events
    assert {e["scheduler"] for e in events} == {stack.label}


def test_every_caller_reads_the_table():
    assert _choices("trace", "--scheduler") == list(STACKS)
    assert _choices("batch", "--kernel") == list(BATCH_KERNELS)
    assert protocol.KERNELS == BATCH_KERNELS
    assert BATCH_KERNELS == ("greedy", "random_rank")  # the serve wire spelling
    assert SCHEDULE_STACKS == tuple(
        n for n, s in STACKS.items() if s.kind != "hardware"
    )
