"""The shared retry policy: one backoff law for actuation and RPC."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, RetryExhaustedError
from repro.util.retry import RetryPolicy


class TestValidation:
    def test_defaults_valid(self):
        RetryPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_ticks": 0},
            {"max_backoff_ticks": 0},
            {"max_attempts": 0},
            {"jitter_ticks": -1},
        ],
    )
    def test_bad_fields_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestBackoff:
    def test_exponential_then_capped(self):
        policy = RetryPolicy(base_ticks=1, max_backoff_ticks=8, max_attempts=10)
        delays = [policy.backoff_ticks(a) for a in range(1, 7)]
        assert delays == [1, 2, 4, 8, 8, 8]

    def test_attempt_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_ticks(0)

    def test_jitter_requires_rng(self):
        policy = RetryPolicy(jitter_ticks=2)
        with pytest.raises(ConfigurationError):
            policy.backoff_ticks(1)

    def test_jitter_bounded_and_seeded(self):
        policy = RetryPolicy(base_ticks=2, max_backoff_ticks=16, jitter_ticks=3)
        draws = [
            policy.backoff_ticks(2, np.random.default_rng(s)) for s in range(50)
        ]
        assert all(4 <= d <= 7 for d in draws)
        assert len(set(draws)) > 1  # jitter actually varies
        # Same seed, same delay: the policy never hides nondeterminism.
        assert policy.backoff_ticks(2, np.random.default_rng(7)) == policy.backoff_ticks(
            2, np.random.default_rng(7)
        )

    def test_zero_jitter_never_draws(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state["state"]["state"]
        RetryPolicy(jitter_ticks=0).backoff_ticks(3, rng)
        # The rng stream is untouched: deterministic call sites can share
        # their generator with the policy without perturbing replays.
        assert rng.bit_generator.state["state"]["state"] == before


class TestExhaustion:
    def test_exhausted_at_max_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        policy.require(2, what="write")
        for attempts in (3, 4):
            with pytest.raises(RetryExhaustedError, match="retry attempts exhausted"):
                policy.require(attempts, what="write")
