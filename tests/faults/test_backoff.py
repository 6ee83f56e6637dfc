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

    @pytest.mark.parametrize(
        "base, cap",
        [(1, 16), (3, 50), (1, 2**40), (5, 5 << 40), (2**40, 2**62), (2**61, 2**62)],
    )
    def test_window_on_an_array_is_the_scalar_window_elementwise(self, base, cap):
        """The cap, the 30-bit shift clamp and a base whose shifted
        value would overflow int64 all agree with the scalar rule."""
        policy = BackoffPolicy(base=base, cap=cap)
        attempts = np.array([1, 2, 3, 5, 17, 30, 31, 32, 40, 10_000], dtype=np.int64)
        windows = policy.window(attempts)
        assert windows.dtype == np.int64
        assert windows.tolist() == [policy.window(int(k)) for k in attempts]
        assert policy.window(np.zeros(0, dtype=np.int64)).size == 0
        with pytest.raises(ValueError, match="attempts"):
            policy.window(np.array([3, 0]))

    def test_array_draw_equals_the_scalar_draws_in_order(self):
        """The numpy contract the delivery loop's one draw per set rests
        on: ``integers(0, windows)`` gives the scalar draws' values, in
        order, and leaves the stream where they would."""
        windows = np.array([1, 2**32 + 5, 2**62, 7, 2**62, 1, 2**32 + 5, 3])
        for seed in range(20):
            array, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = array.integers(0, windows).tolist()
            assert drawn == [int(scalar.integers(0, int(w))) for w in windows]
            assert array.random() == scalar.random()
