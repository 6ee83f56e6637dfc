"""The shared delivery driver (``repro.core.delivery``).

* every stack raises :class:`DeliveryTimeout` at its cycle budget;
* every per-cycle record — on-line loops, batch kernels, off-line
  schedulers, the chaos replay — is one ``CycleStats`` partition whose
  ``in_flight`` chains from cycle to cycle;
* the chaos hooks have exactly one caller, so copies of the loop cannot
  grow back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import (
    ChaosController,
    ChaosEvent,
    ChaosSchedule,
    random_timeline,
    run_chaos,
)
from repro.core import (
    ConstantCapacity,
    DeliveryTimeout,
    FatTree,
    MessageSet,
    schedule_corollary2,
    schedule_greedy_first_fit,
    schedule_random_rank,
    schedule_theorem1,
    simulate_online_retry,
)
from repro.core.delivery import NO_ROWS, Attempt, DeliveryLoop
from repro.hardware.buffered import run_store_and_forward
from repro.hardware.switchsim import run_schedule, run_until_delivered
from repro.obs import NULL_OBS, Obs
from repro.perf import PathIndex
from repro.perf.batch import batch_schedule
from repro.workloads import uniform_random

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _hotspot():
    """20 messages 0 → 7 over unit-capacity channels: one per cycle."""
    return FatTree(8, ConstantCapacity(3, 1)), MessageSet([0] * 20, [7] * 20, 8)


class TestBudgetRaisesDeliveryTimeout:
    def test_online_retry_at_max_cycles(self):
        ft, m = _hotspot()
        with pytest.raises(DeliveryTimeout) as exc:
            simulate_online_retry(ft, m, max_cycles=3)
        assert exc.value.cycles == 3
        assert exc.value.undelivered == [(0, 7)] * 17
        assert exc.value.attempts == {3: 17}

    def test_store_and_forward_at_max_steps(self):
        ft, m = _hotspot()
        with pytest.raises(DeliveryTimeout) as exc:
            run_store_and_forward(ft, m, max_steps=3)
        assert exc.value.cycles == 3
        assert exc.value.undelivered == [(0, 7)] * 20
        # a store-and-forward attempt is one hop crossed
        assert exc.value.attempts == {0: 17, 1: 1, 2: 1, 3: 1}

    def test_switchsim_no_progress(self):
        """A loss-free cycle that delivers nothing can never make
        progress.  The switch simulator reads its capacities from the
        path index that also answers routability, so no tree reaches
        this; a cycle that injects nothing (every row deferred) does."""

        class NeverInjects(DeliveryLoop):
            def attempt(self, rows, t):
                return Attempt(NO_ROWS, NO_ROWS, NO_ROWS)

        ft = FatTree(8, ConstantCapacity(3, 1))
        m = MessageSet([0, 1], [7, 6], 8)
        loop = NeverInjects(
            ft, m, PathIndex(ft, m), scheduler="switchsim", max_cycles=10_000, obs=NULL_OBS
        )
        with pytest.raises(DeliveryTimeout) as exc:
            loop.run()
        assert exc.value.cycles == 0
        assert exc.value.undelivered == [(0, 7), (1, 6)]
        assert exc.value.attempts == {0: 2}  # never injected: no attempt



def test_chaos_runs_one_set():
    """The set axis carries no chaos: a controller with two sets is
    rejected up front."""
    ft, m = _hotspot()
    with pytest.raises(ValueError, match="one message set"):
        DeliveryLoop(
            ft, m, PathIndex(ft, m), scheduler="random_rank", max_cycles=10,
            obs=NULL_OBS, chaos=ChaosController(ft, ChaosSchedule(())),
            offsets=np.array([0, 10, 20]),
        )


KILL = ChaosSchedule(
    (
        ChaosEvent(at=1, kind="switch-kill", level=1, index=0),
        ChaosEvent(at=2, kind="wire-drop", level=2, index=3, direction="up", count=1),
        ChaosEvent(at=4, kind="switch-repair", level=1, index=0),
    )
)


def _tree_traffic(n=32):
    return FatTree(n), uniform_random(n, 4 * n, seed=7)


def _batch(kernel):
    def run(obs):
        ft = FatTree(32)
        sets = [uniform_random(32, k, seed=k) for k in (16, 64, 128)]
        return batch_schedule(ft, sets, kernel=kernel, seed=3, loss_rate=0.1, obs=obs)

    return run


EMITTERS = {
    "random_rank": lambda obs: schedule_random_rank(
        *_tree_traffic(), seed=1, loss_rate=0.2, obs=obs
    ),
    "online_retry": lambda obs: simulate_online_retry(
        *_tree_traffic(), seed=1, obs=obs
    ),
    "switchsim": lambda obs: run_until_delivered(
        *_tree_traffic(), concentrators="pippenger", obs=obs
    ),
    "store_and_forward": lambda obs: run_store_and_forward(
        *_tree_traffic(), obs=obs
    ),
    "greedy_first_fit": lambda obs: schedule_greedy_first_fit(
        *_tree_traffic(), obs=obs
    ),
    "theorem1": lambda obs: schedule_theorem1(*_tree_traffic(), obs=obs),
    "corollary2": lambda obs: schedule_corollary2(
        FatTree(32, ConstantCapacity(5, 8)), uniform_random(32, 256, seed=2), obs=obs
    ),
    "batch_greedy_first_fit": _batch("greedy"),
    "batch_random_rank": _batch("random_rank"),
}

CHAOS_EMITTERS = {
    "random_rank": lambda ft, m, tl, obs: run_chaos(
        "random-rank", ft, m, tl, seed=2, loss_rate=0.1, obs=obs
    ),
    "online_retry": lambda ft, m, tl, obs: run_chaos(
        "online-retry", ft, m, tl, seed=2, obs=obs
    ),
    "switchsim": lambda ft, m, tl, obs: run_chaos("switchsim", ft, m, tl, seed=2, obs=obs),
    "store_and_forward": lambda ft, m, tl, obs: run_chaos("buffered", ft, m, tl, obs=obs),
    "chaos_theorem1": lambda ft, m, tl, obs: run_chaos("theorem1", ft, m, tl, obs=obs),
    "chaos_greedy": lambda ft, m, tl, obs: run_chaos("greedy", ft, m, tl, obs=obs),
}

PARTS = ("delivered", "congested", "retried", "deferred", "dropped")


def _assert_partitions(obs, scheduler, split=None):
    events = [
        e
        for e in obs.tracer.events
        if e["type"] in ("cycle", "step") and e["scheduler"] == scheduler
    ]
    assert events, f"no records from {scheduler}"
    runs: dict = {}
    for e in events:
        runs.setdefault(e.get(split), []).append(e)
    for run in runs.values():
        for t, e in enumerate(run):
            assert e["t"] == t
            assert sum(e[k] for k in PARTS) == e["in_flight"], e
            if t + 1 < len(run):
                left = e["in_flight"] - e["delivered"] - e["dropped"]
                assert run[t + 1]["in_flight"] == left, (e, run[t + 1])
        last = run[-1]
        assert last["in_flight"] == last["delivered"] + last["dropped"]
    return events


@pytest.mark.parametrize("scheduler", sorted(EMITTERS))
def test_every_cycle_record_is_a_partition(scheduler):
    obs = Obs(enabled=True)
    EMITTERS[scheduler](obs)
    # batch records of different message sets are independent runs
    _assert_partitions(obs, scheduler, "set" if scheduler.startswith("batch") else None)


@pytest.mark.parametrize("scheduler", sorted(CHAOS_EMITTERS))
@pytest.mark.parametrize("timeline", ["kill", "random"])
def test_chaos_cycle_records_are_partitions(scheduler, timeline):
    ft, m = _tree_traffic()
    tl = KILL if timeline == "kill" else random_timeline(ft, seed=4)
    obs = Obs(enabled=True)
    out = CHAOS_EMITTERS[scheduler](ft, m, tl, obs)
    events = _assert_partitions(obs, scheduler)
    # the obs record and the chaos record are the same record
    assert [tuple(e[k] for k in ("in_flight",) + PARTS) for e in events] == [
        (s.in_flight, s.delivered, s.congested, s.retried, s.deferred, s.dropped)
        for s in out.cycle_stats
    ]


def test_switchsim_schedule_replay_records():
    ft, m = _tree_traffic()
    obs = Obs(enabled=True)
    run_schedule(ft, schedule_theorem1(ft, m), obs=obs)
    _assert_partitions(obs, "switchsim")


HOOKS = {
    "begin_cycle",
    "severed_rows",
    "resolve_severed",
    "record",
}


def _hook_calls(path: Path) -> list[str]:
    """``file:line hook`` for every hook call outside ChaosController."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "ChaosController":
            inside.update(id(n) for n in ast.walk(node))
    return [
        f"{path.relative_to(SRC.parent)}:{node.lineno} {node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in HOOKS
        and id(node) not in inside
    ]


def test_chaos_hooks_have_one_caller():
    """Only the delivery driver drives a ChaosController per cycle."""
    driver = SRC / "core" / "delivery.py"
    assert _hook_calls(driver)  # the guard sees the driver's own calls
    strays = [
        call
        for path in sorted(SRC.rglob("*.py"))
        if path != driver
        for call in _hook_calls(path)
    ]
    assert strays == []
