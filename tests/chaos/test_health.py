"""Circuit breakers (repro.chaos.health) and the retry backoff policy
(repro.faults.BackoffPolicy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import BreakerConfig, ChannelHealth
from repro.chaos.health import CLOSED, HALF_OPEN, OPEN
from repro.faults import BackoffPolicy
from repro.obs import Obs

GID = 10
#: tally vector length: the gid slots of an n=256 tree's path index
SLOTS = 1022


def _counts(by_gid=None):
    vec = np.zeros(SLOTS, dtype=np.int64)
    for gid, count in (by_gid or {}).items():
        vec[gid] = count
    return vec


def _fail(health, t, gid=GID):
    health.on_cycle(t, _counts({gid: 2}), _counts())


def _succeed(health, t, gid=GID):
    health.on_cycle(t, _counts(), _counts({gid: 1}))


def _advance_to_half_open(health, t, gid=GID):
    """Tick blocked_gids forward until the breaker stops blocking."""
    assert health.state_of(gid) == OPEN
    for _ in range(2 * health.config.max_cooldown + 4):
        if gid not in health.blocked_gids(t):
            return t
        t += 1
    raise AssertionError("breaker never re-probed within the capped cooldown")


class TestBreakerConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            BreakerConfig(cooldown=0)
        with pytest.raises(ValueError, match="max_cooldown"):
            BreakerConfig(cooldown=8, max_cooldown=4)


class TestBreakerStateMachine:
    def test_trips_after_threshold_consecutive_failures(self):
        health = ChannelHealth(BreakerConfig(failure_threshold=3, cooldown=2,
                                             max_cooldown=8))
        _fail(health, 0)
        _fail(health, 1)
        assert health.state_of(GID) == CLOSED
        _fail(health, 2)
        assert health.state_of(GID) == OPEN
        assert health.open_count() == 1
        assert GID in health.blocked_gids(3)

    def test_success_resets_the_failure_streak(self):
        health = ChannelHealth(BreakerConfig(failure_threshold=3))
        _fail(health, 0)
        _fail(health, 1)
        _succeed(health, 2)
        _fail(health, 3)
        _fail(health, 4)
        assert health.state_of(GID) == CLOSED

    def test_mixed_cycle_is_not_a_failure(self):
        health = ChannelHealth(BreakerConfig(failure_threshold=1))
        # the channel carried attempts and some succeeded: healthy
        health.on_cycle(0, _counts({GID: 3}), _counts({GID: 1}))
        assert health.state_of(GID) == CLOSED
        assert health.transitions == 0

    def test_half_open_success_closes(self):
        health = ChannelHealth(BreakerConfig(failure_threshold=1, cooldown=2,
                                             max_cooldown=8))
        _fail(health, 0)
        t = _advance_to_half_open(health, 1)
        assert health.state_of(GID) == HALF_OPEN
        _succeed(health, t)
        assert health.state_of(GID) == CLOSED

    def test_half_open_failure_reopens_immediately(self):
        health = ChannelHealth(BreakerConfig(failure_threshold=3, cooldown=2,
                                             max_cooldown=8))
        for t in range(3):
            _fail(health, t)
        t = _advance_to_half_open(health, 3)
        # one failed probe suffices, no need for a fresh streak of 3
        _fail(health, t)
        assert health.state_of(GID) == OPEN

    def test_cooldown_is_capped_forever(self):
        config = BreakerConfig(failure_threshold=1, cooldown=2, max_cooldown=4)
        health = ChannelHealth(config)
        t = 0
        for _ in range(8):  # trips double the window, the cap must hold
            _fail(health, t)
            assert health.state_of(GID) == OPEN
            reopened = _advance_to_half_open(health, t + 1)
            assert reopened - (t + 1) <= config.max_cooldown + 1
            t = reopened

    def test_jitter_is_deterministic_per_seed(self):
        def run():
            health = ChannelHealth(
                BreakerConfig(failure_threshold=1, cooldown=4,
                              max_cooldown=32, jitter_seed=7)
            )
            blocked = []
            _fail(health, 0)
            for t in range(1, 48):
                blocked.append(GID in health.blocked_gids(t))
            return blocked

        assert run() == run()

    def test_unknown_channel_is_closed(self):
        health = ChannelHealth()
        assert health.state_of(999) == CLOSED
        assert health.open_count() == 0
        assert health.blocked_gids(0).size == 0

    def test_transitions_are_observable(self):
        obs = Obs(enabled=True)
        health = ChannelHealth(BreakerConfig(failure_threshold=1), obs=obs)
        _fail(health, 0)
        assert health.transitions == 1
        assert obs.metrics.counter_value(
            "breaker.transition", from_state=CLOSED, to_state=OPEN
        ) == 1
        events = obs.tracer.select("breaker")
        assert events and events[0]["to_state"] == OPEN


# -- the dict state machine, as the oracle for ChannelHealth -----------------


class _RefBreaker:
    __slots__ = ("state", "consecutive_failures", "trips", "reopen_at")

    def __init__(self) -> None:
        self.state = CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self.reopen_at = 0


class _ReferenceHealth:
    """One lazily created breaker object per gid, walked in the
    iteration order of ``set(failures) | set(successes)``; transitions
    are logged as ``(gid, from_state, to_state)``."""

    def __init__(self, config: BreakerConfig):
        self.config = config
        self.breakers: dict[int, _RefBreaker] = {}
        self.rng = np.random.default_rng(config.jitter_seed)
        self.log: list[tuple[int, str, str]] = []

    def _transition(self, gid, breaker, new_state):
        self.log.append((gid, breaker.state, new_state))
        breaker.state = new_state

    def blocked_gids(self, t):
        blocked = set()
        for gid, breaker in self.breakers.items():
            if breaker.state != OPEN:
                continue
            if t >= breaker.reopen_at:
                self._transition(gid, breaker, HALF_OPEN)
            else:
                blocked.add(gid)
        return blocked

    def on_cycle(self, t, failures, successes):
        config = self.config
        for gid in set(failures) | set(successes):
            failed = failures.get(gid, 0) > 0 and successes.get(gid, 0) == 0
            succeeded = successes.get(gid, 0) > 0
            breaker = self.breakers.get(gid)
            if breaker is None:
                if not failed:
                    continue
                breaker = self.breakers[gid] = _RefBreaker()
            if succeeded:
                breaker.consecutive_failures = 0
                if breaker.state == HALF_OPEN:
                    breaker.trips = 0
                    self._transition(gid, breaker, CLOSED)
                continue
            if not failed:
                continue
            breaker.consecutive_failures += 1
            trip_now = (
                breaker.state == HALF_OPEN
                or breaker.consecutive_failures >= config.failure_threshold
            )
            if breaker.state != OPEN and trip_now:
                breaker.trips += 1
                window = min(
                    config.max_cooldown,
                    config.cooldown << min(breaker.trips - 1, 30),
                )
                jitter = int(self.rng.integers(0, config.cooldown + 1))
                breaker.reopen_at = t + 1 + min(config.max_cooldown, window + jitter)
                breaker.consecutive_failures = 0
                self._transition(gid, breaker, OPEN)

    def state_of(self, gid):
        breaker = self.breakers.get(gid)
        return CLOSED if breaker is None else breaker.state

    def open_count(self):
        return sum(1 for b in self.breakers.values() if b.state == OPEN)


def _tally_dict(counts):
    """A count vector as the ascending-key dict the engine used to build."""
    return {int(g): int(counts[g]) for g in np.flatnonzero(counts)}


def _replay_against_reference(config, channels, cycles, rng, respect_blocked):
    """Drive ChannelHealth and the reference with the same random
    per-cycle tallies over ``channels``; assert they agree every cycle.
    Returns the most breakers that tripped in one cycle."""
    obs = Obs(enabled=True)
    health = ChannelHealth(config, obs=obs)
    ref = _ReferenceHealth(config)
    most_trips = 0
    for t in range(cycles):
        blocked = sorted(int(g) for g in health.blocked_gids(t))
        assert blocked == sorted(ref.blocked_gids(t)), t
        failures = np.zeros(SLOTS, dtype=np.int64)
        successes = np.zeros(SLOTS, dtype=np.int64)
        roll = rng.random(channels.size)
        fail_p = rng.uniform(0.2, 0.9)
        failing = channels[roll < fail_p]
        winning = channels[roll > 1 - rng.uniform(0.0, 0.5)]
        failures[failing] = rng.integers(1, 4, failing.size)
        successes[winning] = rng.integers(1, 3, winning.size)
        if respect_blocked:
            failures[blocked] = successes[blocked] = 0
        health.on_cycle(t, failures, successes)
        logged = len(ref.log)
        ref.on_cycle(t, _tally_dict(failures), _tally_dict(successes))
        trips = sum(to == OPEN for _, _, to in ref.log[logged:])
        most_trips = max(most_trips, trips)
        assert health.transitions == len(ref.log), t
        assert health.open_count() == ref.open_count(), t
    for gid in range(SLOTS + 8):
        assert health.state_of(gid) == ref.state_of(gid), gid
    events = [
        (e["gid"], e["from_state"], e["to_state"])
        for e in obs.tracer.select("breaker")
    ]
    assert events == ref.log
    assert health._rng.integers(0, 1 << 30) == ref.rng.integers(0, 1 << 30)
    return most_trips


@settings(max_examples=60, deadline=None)
@given(
    threshold=st.integers(1, 4),
    cooldown=st.integers(1, 4),
    extra_cap=st.integers(0, 8),
    jitter_seed=st.integers(0, 2**16),
    n_channels=st.integers(1, 48),
    cycles=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    respect_blocked=st.booleans(),
)
def test_breakers_match_the_dict_state_machine(
    threshold, cooldown, extra_cap, jitter_seed, n_channels, cycles, seed,
    respect_blocked,
):
    """Several breakers trip per cycle, half-open probes succeed or
    fail, cooldowns hit their cap: states, blocked gids, transitions
    (and their event order) and the jitter stream all match the dict
    state machine."""
    config = BreakerConfig(
        failure_threshold=threshold,
        cooldown=cooldown,
        max_cooldown=cooldown + extra_cap,
        jitter_seed=jitter_seed,
    )
    rng = np.random.default_rng(seed)
    # sparse gids up to the top slot: the walk order of a set of large
    # ints is not ascending, so a draw in gid order would diverge
    channels = np.sort(rng.choice(np.arange(1, SLOTS), n_channels, replace=False))
    _replay_against_reference(config, channels, cycles, rng, respect_blocked)


def test_simultaneous_trips_draw_jitter_in_walk_order():
    """A cycle where many breakers trip at once: the draw order is the
    set walk, which for these gids differs from ascending order."""
    channels = np.arange(1, SLOTS, 37)
    walk = list(set(dict.fromkeys(channels.tolist())))
    assert walk != sorted(walk)
    config = BreakerConfig(failure_threshold=1, cooldown=4, max_cooldown=12)
    most_trips = _replay_against_reference(
        config, channels, 40, np.random.default_rng(3), respect_blocked=True
    )
    assert most_trips >= 5


class TestBackoffPolicy:
    def test_window_matches_capped_binary_exponential(self):
        policy = BackoffPolicy(base=1, cap=16)
        assert [policy.window(k) for k in range(1, 7)] == [1, 2, 4, 8, 16, 16]

    def test_huge_attempt_counts_do_not_overflow(self):
        assert BackoffPolicy(base=3, cap=50).window(10_000) == 50

    def test_validation(self):
        with pytest.raises(ValueError, match="base"):
            BackoffPolicy(base=0)
        with pytest.raises(ValueError, match="cap"):
            BackoffPolicy(base=8, cap=4)
        with pytest.raises(ValueError, match="attempts"):
            BackoffPolicy().window(0)

    def test_jitter_rng_defaults_to_the_callers_stream(self):
        fallback = np.random.default_rng(1)
        assert BackoffPolicy().jitter_rng(fallback) is fallback

    def test_seeded_jitter_is_its_own_reproducible_stream(self):
        fallback = np.random.default_rng(1)
        a = BackoffPolicy(jitter_seed=5).jitter_rng(fallback)
        b = BackoffPolicy(jitter_seed=5).jitter_rng(fallback)
        assert a is not fallback
        assert a.integers(0, 100, 8).tolist() == b.integers(0, 100, 8).tolist()
