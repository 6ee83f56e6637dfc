"""The retry backoff policy (repro.faults.BackoffPolicy)."""

import numpy as np
import pytest

from repro.faults import BackoffPolicy


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
