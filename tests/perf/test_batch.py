"""Property tests: ``batch_schedule`` is bit-identical to the serial
per-set loop (``_reference_batch_schedule``) on healthy, degraded and
wide trees — the equality guarantee the batched throughput bench rests
on.  The CI smoke job fails if these tests are skipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstantCapacity,
    DeliveryTimeout,
    FatTree,
    MessageSet,
    UniversalCapacity,
)
from repro.core.errors import UnroutableError
from repro.faults import DegradedFatTree, FaultModel
from repro.perf import batch_schedule
from repro.perf.batch import _reference_batch_schedule
from repro.workloads import uniform_random


def _exact_cycles(schedule):
    """Cycles as ordered pair lists: *bit*-identity, not just multisets."""
    return [cycle.as_pairs() for cycle in schedule.cycles]


def assert_batches_identical(batched, serial):
    assert len(batched) == len(serial)
    for got, want in zip(batched, serial):
        assert got.n_self_messages == want.n_self_messages
        assert _exact_cycles(got) == _exact_cycles(want)


def _run_both(ft, sets, **kw):
    assert_batches_identical(
        batch_schedule(ft, sets, **kw),
        _reference_batch_schedule(ft, sets, **kw),
    )


_pair_lists = st.lists(
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40),
    min_size=1,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(_pair_lists, st.sampled_from(["given", "random", "longest-first"]))
def test_batch_greedy_matches_loop_healthy(pair_lists, order):
    ft = FatTree(16, UniversalCapacity(16, 8, strict=False))
    sets = [MessageSet.from_pairs(pairs, 16) for pairs in pair_lists]
    _run_both(ft, sets, kernel="greedy", order=order)


@settings(max_examples=25, deadline=None)
@given(_pair_lists, st.integers(0, 1000))
def test_batch_random_rank_matches_loop_healthy(pair_lists, seed):
    ft = FatTree(16, UniversalCapacity(16, 8, strict=False))
    sets = [MessageSet.from_pairs(pairs, 16) for pairs in pair_lists]
    _run_both(ft, sets, kernel="random_rank", seed=seed)


@settings(max_examples=15, deadline=None)
@given(_pair_lists, st.integers(0, 500), st.floats(0.05, 0.5))
def test_batch_random_rank_matches_loop_lossy(pair_lists, seed, loss_rate):
    """The lossy path draws per-set corruption and backoff-jitter
    streams, which must be consumed exactly as the solo kernel does."""
    ft = FatTree(16, ConstantCapacity(4, 2))
    sets = [MessageSet.from_pairs(pairs, 16) for pairs in pair_lists]
    _run_both(ft, sets, kernel="random_rank", seed=seed, loss_rate=loss_rate)


def _degraded_tree():
    base = FatTree(16, UniversalCapacity(16, 8, strict=False))
    model = FaultModel(seed=3)
    model.kill_wire_fraction(base, 0.25)
    return DegradedFatTree(base, model)


@settings(max_examples=15, deadline=None)
@given(_pair_lists, st.sampled_from(["greedy", "random_rank"]))
def test_batch_matches_loop_degraded(pair_lists, kernel):
    """Degraded trees: per-set routability filtering and the fault-model
    loss rate must flow through the batched pass unchanged."""
    dft = _degraded_tree()
    sets = []
    for pairs in pair_lists:
        ms = MessageSet.from_pairs(pairs, 16)
        sets.append(ms.take(dft.routable_mask(ms)))
    _run_both(dft, sets, kernel=kernel, seed=11)


@settings(max_examples=15, deadline=None)
@given(_pair_lists, st.sampled_from(["greedy", "random_rank"]))
def test_batch_matches_loop_wide(pair_lists, kernel):
    """Constant-capacity (wide) trees hit the light-set fast path for
    nearly every set; parity must survive the dispatch differences."""
    ft = FatTree(16, ConstantCapacity(4, 6))
    sets = [MessageSet.from_pairs(pairs, 16) for pairs in pair_lists]
    _run_both(ft, sets, kernel=kernel, seed=5)


class TestBatchEdges:
    def test_empty_batch(self):
        ft = FatTree(8)
        assert batch_schedule(ft, []) == []

    def test_empty_and_self_only_sets(self):
        ft = FatTree(8)
        sets = [
            MessageSet.empty(8),
            MessageSet.from_pairs([(3, 3), (5, 5)], 8),
            uniform_random(8, 20, seed=1),
        ]
        for kernel in ("greedy", "random_rank"):
            _run_both(ft, sets, kernel=kernel)

    def test_mismatched_n_rejected(self):
        ft = FatTree(8)
        with pytest.raises(ValueError, match="n"):
            batch_schedule(ft, [MessageSet.empty(16)])

    def test_unknown_kernel_rejected(self):
        ft = FatTree(8)
        with pytest.raises(ValueError, match="kernel"):
            batch_schedule(ft, [MessageSet.empty(8)], kernel="nope")

    def test_unroutable_error_parity(self):
        """A severed set must raise the same UnroutableError the serial
        loop would, for the lowest-index bad set."""
        base = FatTree(16, UniversalCapacity(16, 8, strict=False))
        model = FaultModel(seed=0)
        model.kill_switch(1, 0)
        dft = DegradedFatTree(base, model)
        ms = uniform_random(16, 40, seed=2)
        assert not dft.routable_mask(ms).all()
        for kernel in ("greedy", "random_rank"):
            with pytest.raises(UnroutableError) as batched:
                batch_schedule(dft, [ms, ms], kernel=kernel)
            with pytest.raises(UnroutableError) as serial:
                _reference_batch_schedule(dft, [ms, ms], kernel=kernel)
            assert str(batched.value) == str(serial.value)

    def test_delivery_timeout_parity(self):
        """Exhausting max_cycles must surface the serial loop's error:
        the lowest-index failing set's DeliveryTimeout, verbatim."""
        ft = FatTree(16, UniversalCapacity(16, 2, strict=False))
        sets = [uniform_random(16, 60, seed=s) for s in range(3)]
        with pytest.raises(DeliveryTimeout) as batched:
            batch_schedule(ft, sets, kernel="random_rank", max_cycles=1)
        with pytest.raises(DeliveryTimeout) as serial:
            _reference_batch_schedule(
                ft, sets, kernel="random_rank", max_cycles=1
            )
        assert str(batched.value) == str(serial.value)

    def test_delivery_timeout_lowest_index_wins(self):
        """A higher-index set that times out *earlier* must not win: the
        batch raises the serial loop's error, the lowest-index set's."""
        ft = FatTree(8, ConstantCapacity(3, 1))
        sets = [
            MessageSet.from_pairs([(0, 7)] * 12, 8),
            MessageSet.from_pairs([(1, 6)] * 3, 8),
        ]
        kw = dict(
            kernel="random_rank", seed=5, loss_rate=0.9, max_backoff=4096,
            max_cycles=30,
        )
        with pytest.raises(DeliveryTimeout) as serial:
            _reference_batch_schedule(ft, sets, **kw)
        with pytest.raises(DeliveryTimeout) as alone:
            _reference_batch_schedule(ft, sets[1:], **kw)
        assert alone.value.cycles < serial.value.cycles
        with pytest.raises(DeliveryTimeout) as batched:
            batch_schedule(ft, sets, **kw)
        assert str(batched.value) == str(serial.value)
        assert batched.value.attempts == serial.value.attempts

    def test_tracing_does_not_perturb(self):
        """An enabled Obs must leave every schedule bit-identical (the
        instrumentation is RNG-neutral)."""
        from repro.obs import Obs

        ft = FatTree(16)
        sets = [uniform_random(16, 30, seed=s) for s in range(3)]
        for kernel in ("greedy", "random_rank"):
            plain = batch_schedule(ft, sets, kernel=kernel, seed=4)
            traced = batch_schedule(
                ft, sets, kernel=kernel, seed=4, obs=Obs(enabled=True)
            )
            assert_batches_identical(traced, plain)

    def test_batch_schedules_match_solo_calls(self):
        """Each per-set output equals the stand-alone scheduler run —
        the user-facing form of the bit-parity contract."""
        from repro.core import schedule_greedy_first_fit, schedule_random_rank

        ft = FatTree(16)
        sets = [uniform_random(16, 25, seed=s) for s in range(4)]
        for got, ms in zip(batch_schedule(ft, sets, kernel="greedy"), sets):
            solo = schedule_greedy_first_fit(ft, ms)
            assert _exact_cycles(got) == _exact_cycles(solo)
        for got, ms in zip(
            batch_schedule(ft, sets, kernel="random_rank", seed=9), sets
        ):
            solo = schedule_random_rank(ft, ms, seed=9)
            assert _exact_cycles(got) == _exact_cycles(solo)

    def test_batch_random_rank_matches_solo_past_16_bit_gids(self):
        """17 sets at n=1024 shift gids up to 17·(4n − 2) > 2^16, so the
        batched grant sorts on more than one 16-bit digit."""
        from repro.core import schedule_random_rank

        ft = FatTree(1024)
        sets = [uniform_random(1024, 16, seed=s) for s in range(17)]
        assert len(sets) * (4 * ft.n - 2) > 1 << 16
        for got, ms in zip(
            batch_schedule(ft, sets, kernel="random_rank", seed=9), sets
        ):
            solo = schedule_random_rank(ft, ms, seed=9)
            assert _exact_cycles(got) == _exact_cycles(solo)


_RECORD_FIELDS = (
    "t", "in_flight", "delivered", "congested", "retried", "deferred", "dropped"
)


def _cycle_records(obs, **match):
    return [
        tuple(e[f] for f in _RECORD_FIELDS)
        for e in obs.tracer.events
        if e["type"] == "cycle" and all(e.get(k) == v for k, v in match.items())
    ]


@pytest.mark.parametrize("loss_rate", [0.0, 0.2])
@pytest.mark.parametrize(
    "capacity",
    [UniversalCapacity(16, 8), ConstantCapacity(4, 1)],
    ids=["universal", "constant"],
)
def test_batch_random_rank_records_match_solo(capacity, loss_rate):
    """Set ``b``'s cycle records in a batched run are the records of
    its solo run, field for field and cycle for cycle."""
    from repro.core import schedule_random_rank
    from repro.obs import Obs

    ft = FatTree(16, capacity)
    sets = [uniform_random(16, m, seed=m) for m in (0, 7, 30, 45)]
    obs = Obs(enabled=True)
    batch_schedule(
        ft, sets, kernel="random_rank", seed=3, loss_rate=loss_rate, obs=obs
    )
    for b, ms in enumerate(sets):
        solo = Obs(enabled=True)
        schedule_random_rank(ft, ms, seed=3, loss_rate=loss_rate, obs=solo)
        assert _cycle_records(obs, set=b) == _cycle_records(solo)
        assert all(
            e["scheduler"] == "batch_random_rank"
            for e in obs.tracer.events
            if e["type"] == "cycle" and e.get("set") == b
        )


def test_int64_dtype_everywhere():
    """Batched schedules must come from int64 packed-gid arithmetic —
    spot-check a batch on the widest tree in the suite."""
    ft = FatTree(32)
    sets = [uniform_random(32, 50, seed=s) for s in range(3)]
    scheds = batch_schedule(ft, sets, kernel="greedy")
    for sched, ms in zip(scheds, sets):
        delivered = sum(len(c) for c in sched.cycles)
        nonself = int((ms.src != ms.dst).sum())
        assert delivered == nonself
        assert sched.n_self_messages == len(ms) - nonself
        assert all(
            np.asarray(c.src, dtype=np.int64).dtype == np.int64
            for c in sched.cycles
        )
