"""Configurable capped-exponential retry backoff.

Both retry loops in the stack — the on-line random-rank scheduler
(:func:`repro.core.online.schedule_random_rank`) and the switch-level
retry harness (:func:`repro.hardware.switchsim.run_until_delivered`) —
back a failed message off for a uniformly-jittered number of cycles
drawn from a capped binary-exponential window.  Historically each loop
hard-coded its own ``max_backoff`` constant; :class:`BackoffPolicy`
lifts the whole policy (base window, cap, and the jitter RNG stream)
into one frozen dataclass that callers can pass explicitly — the chaos
recovery path tunes it per scenario, and a *seeded* jitter stream keeps
runs bit-reproducible even when the caller's own RNG consumption
changes around the retry loop.

Determinism contract: with ``jitter_seed=None`` (the default) jitter
draws come from the caller's own generator, in exactly the positions
the pre-policy code drew them — existing seeded runs are bit-identical.
With a seed set, draws come from a dedicated ``default_rng(jitter_seed)``
stream, making the backoff sequence a pure function of the policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..core._types import IntArray

__all__ = ["BackoffPolicy"]


@dataclass(frozen=True, slots=True)
class BackoffPolicy:
    """Capped binary-exponential backoff with optional seeded jitter.

    Parameters
    ----------
    base:
        Window after the first failed attempt (doubles per attempt).
    cap:
        Upper bound on the window — the livelock guard: waits can never
        grow past ``cap`` cycles, so a healed channel is re-probed
        within a bounded horizon.
    jitter_seed:
        ``None`` (default) draws jitter from the RNG the caller passes
        to :meth:`jitter_rng`; an int dedicates a seeded generator to
        jitter, decoupling it from the caller's stream.
    """

    base: int = 1
    cap: int = 16
    jitter_seed: int | None = None

    def __post_init__(self) -> None:
        if self.base < 1:
            raise ValueError(f"base must be >= 1, got {self.base}")
        if self.cap < self.base:
            raise ValueError(
                f"cap must be >= base ({self.base}), got {self.cap}"
            )

    def window(self, attempts: int | IntArray) -> int | IntArray:
        """The backoff window after ``attempts`` (>= 1) failed tries:
        ``min(cap, base << min(attempts - 1, 30))``, elementwise when
        ``attempts`` is an int array."""
        tries = np.asarray(attempts, dtype=np.int64)
        if tries.size and int(tries.min()) < 1:
            raise ValueError(f"attempts must be >= 1, got {int(tries.min())}")
        # past the largest shift that keeps base << shift within cap the
        # window is cap, so no shift overflows int64
        fits = (self.cap // self.base).bit_length() - 1
        shift = np.minimum(tries - 1, 30)
        windows = np.where(
            shift > fits, self.cap, self.base << np.minimum(shift, fits)
        )
        return windows if isinstance(attempts, np.ndarray) else int(windows)

    def jitter_rng(self, fallback: np.random.Generator) -> np.random.Generator:
        """The generator jitter is drawn from.

        Returns ``fallback`` itself when :attr:`jitter_seed` is None —
        the legacy interleaving, bit-identical to the pre-policy code —
        or a dedicated seeded generator otherwise.
        """
        if self.jitter_seed is None:
            return fallback
        return np.random.default_rng(self.jitter_seed)
