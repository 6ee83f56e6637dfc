"""Per-channel health tracking: the circuit breaker.

Transient fault storms (a high ``loss-rate`` window in the timeline)
make every delivery attempt across an afflicted channel a coin flip.
Retrying blindly wastes attempts and — worse — can synchronise retries
into livelock.  :class:`ChannelHealth` runs one classic circuit breaker
per channel gid:

* **closed** — traffic flows; ``failure_threshold`` *consecutive*
  fully-failed cycles (the channel carried attempts, none succeeded)
  trip it;
* **open** — messages crossing the channel are deferred without
  spending an attempt, for a cooldown that doubles per consecutive trip
  but is **capped** at ``max_cooldown`` and jittered by a dedicated
  seeded RNG (desynchronising probes without touching the run's own
  RNG stream);
* **half-open** — after the cooldown, traffic probes the channel: one
  successful cycle closes it, another full failure re-opens it with a
  doubled (capped) cooldown.

Livelock is impossible by construction: cooldowns are capped, so every
open breaker re-probes within ``max_cooldown + jitter`` cycles; retry
backoff windows are capped by :class:`~repro.faults.BackoffPolicy`; and
the run's ``max_cycles`` budget converts any residual stall into a
structured :class:`~repro.core.errors.DeliveryTimeout`.

Every transition is observable: a ``breaker.transition`` counter and
trace event per state change, labelled with the old and new state.

**Layout.**  The breakers are four arrays over channel gids — state,
consecutive failures, trips and ``reopen_at`` — sized from the first
tally vector :meth:`ChannelHealth.on_cycle` receives (a gid that never
failed reads as a closed breaker).  Each cycle's transitions are masked
array updates over the two ``np.bincount`` tally vectors.

**Jitter order.**  A breaker that trips draws one scalar
``rng.integers(0, cooldown + 1)``, and the breakers tripping in one
cycle draw in the iteration order of ``set(f) | set(s)``, where ``f``
and ``s`` are dicts of that cycle's nonzero failure and success tallies
with ascending keys.  That is CPython's hash-table layout, not
ascending gid order: the per-gid dict walk this module replaced drew in
it, and the golden delivery corpus and every seeded chaos run pin it,
so the set is rebuilt whenever two or more breakers trip at once.  The
draws stay one scalar call per trip: on numpy 2.4 one ``size=k`` call
happens to return the same values, but only because PCG64 buffers the
unused 32-bit half of each word in its own state.  With observability
on, transition events are emitted in that same walk order, and
half-open moves in breaker-creation order, as the dict walk did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BreakerConfig", "ChannelHealth"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True, slots=True)
class BreakerConfig:
    """Tuning knobs for the per-channel circuit breakers."""

    failure_threshold: int = 3
    cooldown: int = 2
    max_cooldown: int = 32
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {self.cooldown}")
        if self.max_cooldown < self.cooldown:
            raise ValueError(
                f"max_cooldown must be >= cooldown ({self.cooldown}), "
                f"got {self.max_cooldown}"
            )


_STATES = (CLOSED, OPEN, HALF_OPEN)
_CLOSED, _OPEN, _HALF_OPEN = range(3)


def _walk_order(gids: np.ndarray, failures: np.ndarray, successes: np.ndarray) -> list[int]:
    """``gids`` in the order of ``set(f) | set(s)``, where ``f`` and ``s``
    are dicts of the nonzero tallies with ascending keys (see the
    module docstring for why this order is kept)."""
    if gids.size < 2:
        return gids.tolist()
    walk = set(dict.fromkeys(np.flatnonzero(failures).tolist())) | set(
        dict.fromkeys(np.flatnonzero(successes).tolist())
    )
    keep = set(gids.tolist())
    return [g for g in walk if g in keep]


class ChannelHealth:
    """One circuit breaker per channel gid, held in arrays over gids."""

    def __init__(self, config: BreakerConfig | None = None, *, obs=None):
        from ..obs import resolve_obs

        self.config = config if config is not None else BreakerConfig()
        self.obs = resolve_obs(obs)
        self._rng = np.random.default_rng(self.config.jitter_seed)
        self.transitions = 0
        self._allocate(0)

    def _allocate(self, size: int) -> None:
        """Fresh breaker arrays over ``size`` gids, every breaker closed."""
        self._state = np.zeros(size, dtype=np.int8)
        self._failures, self._trips, self._reopen_at = np.zeros((3, size), dtype=np.int64)
        # creation rank of each breaker (-1: none yet), kept only to emit
        # transition events in the order the per-gid dict walked them
        self._born = np.full(size, -1, dtype=np.int64)
        self._n_born = 0

    def _emit(self, gid: int, old: int, new: int) -> None:
        self.obs.metrics.inc(
            "breaker.transition", from_state=_STATES[old], to_state=_STATES[new]
        )
        self.obs.tracer.emit(
            "breaker", gid=gid, from_state=_STATES[old], to_state=_STATES[new]
        )

    def blocked_gids(self, t: int) -> np.ndarray:
        """Gids whose breaker holds traffic back at cycle ``t``, ascending.

        An open breaker whose cooldown has elapsed moves to half-open
        here (and stops blocking): the next cycle's traffic is the
        probe.
        """
        is_open = self._state == _OPEN
        due = np.flatnonzero(is_open & (self._reopen_at <= t))
        if due.size:
            self._state[due] = _HALF_OPEN
            is_open[due] = False
            self.transitions += due.size
            if self.obs.enabled:
                for gid in due[np.argsort(self._born[due], kind="stable")].tolist():
                    self._emit(gid, _OPEN, _HALF_OPEN)
        return np.flatnonzero(is_open)

    def on_cycle(self, t: int, failures: np.ndarray, successes: np.ndarray) -> None:
        """Feed one cycle's per-channel outcome tallies.

        ``failures[gid]`` / ``successes[gid]`` count messages crossing
        the channel that failed / delivered this cycle (one vector
        entry per gid, as :func:`numpy.bincount` builds them).  A
        channel "fails" the cycle iff it carried attempts and none
        succeeded.
        """
        if not self._state.size:
            self._allocate(len(failures))
        config = self.config
        state = self._state
        succeeded = successes > 0
        failed = (failures > 0) & ~succeeded
        if self.obs.enabled:
            before = state.copy()
            born = _walk_order(np.flatnonzero(failed & (self._born < 0)), failures, successes)
            self._born[born] = np.arange(self._n_born, self._n_born + len(born))
            self._n_born += len(born)
        # a success clears the streak; a half-open probe that got through closes
        self._failures[succeeded] = 0
        closing = np.flatnonzero(succeeded & (state == _HALF_OPEN))
        self._trips[closing] = 0
        state[closing] = _CLOSED
        # a full failure lengthens the streak; a half-open probe that failed,
        # or a closed breaker at the threshold, trips
        self._failures[failed] += 1
        tripping = np.flatnonzero(
            failed
            & (state != _OPEN)
            & ((state == _HALF_OPEN) | (self._failures >= config.failure_threshold))
        )
        if tripping.size:
            self._trips[tripping] += 1
            for gid in _walk_order(tripping, failures, successes):
                window = min(
                    config.max_cooldown,
                    config.cooldown << min(int(self._trips[gid]) - 1, 30),
                )
                jitter = int(self._rng.integers(0, config.cooldown + 1))
                self._reopen_at[gid] = t + 1 + min(config.max_cooldown, window + jitter)
            self._failures[tripping] = 0
            state[tripping] = _OPEN
        self.transitions += closing.size + tripping.size
        if self.obs.enabled:
            changed = np.flatnonzero(state != before)
            for gid in _walk_order(changed, failures, successes):
                self._emit(gid, int(before[gid]), int(state[gid]))

    def state_of(self, gid: int) -> str:
        """The breaker state of one channel (closed if never tripped)."""
        if not 0 <= gid < self._state.size:
            return CLOSED
        return _STATES[self._state[gid]]

    def open_count(self) -> int:
        """How many breakers are currently open."""
        return int(np.count_nonzero(self._state == _OPEN))
