"""One retry policy, two call sites.

The mediator's actuation retrier (PR 1) and the cluster control plane's RPC
layer both need the same discipline: retry a failed operation after a
capped, exponentially growing number of ticks, give up after a bounded
number of attempts, and - when many independent retriers share a medium -
decorrelate them with seeded jitter. :class:`RetryPolicy` is that policy as
dumb data; the callers own the clocks and the pending-work bookkeeping.

Backoff is the classic ``base * 2^(attempt-1)`` capped at
``max_backoff_ticks``. Jitter, when enabled, adds a uniform integer draw
from ``[0, jitter_ticks]`` taken from the *caller's* generator, so a run's
retry timing is a pure function of its seed (the determinism contract every
subsystem in this package honours). With ``jitter_ticks=0`` the schedule is
exactly the pre-refactor actuation sequence: 1, 2, 4, 8, ... ticks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, RetryExhaustedError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with optional seeded jitter.

    Attributes:
        base_ticks: Delay before the first retry (attempt 1).
        max_backoff_ticks: Ceiling on the exponential component.
        max_attempts: Attempts (initial try included) before
            :meth:`require` tells the caller to escalate or park.
        jitter_ticks: Upper bound (inclusive) of the uniform jitter added
            to every delay; 0 disables jitter entirely (no RNG draw, so
            enabling jitter never perturbs an unrelated RNG stream).
    """

    base_ticks: int = 1
    max_backoff_ticks: int = 64
    max_attempts: int = 4
    jitter_ticks: int = 0

    def __post_init__(self) -> None:
        if self.base_ticks < 1:
            raise ConfigurationError("retry base_ticks must be >= 1")
        if self.max_backoff_ticks < self.base_ticks:
            raise ConfigurationError(
                "retry max_backoff_ticks must be >= base_ticks"
            )
        if self.max_attempts < 1:
            raise ConfigurationError("retry max_attempts must be >= 1")
        if self.jitter_ticks < 0:
            raise ConfigurationError("retry jitter_ticks must be non-negative")

    def backoff_ticks(
        self, attempt: int, rng: np.random.Generator | None = None
    ) -> int:
        """Delay before the retry following failed attempt ``attempt`` (>= 1).

        Args:
            attempt: How many attempts have completed (1 = the initial try).
            rng: Generator for the jitter draw; required when
                ``jitter_ticks > 0`` so the caller controls determinism.
        """
        if attempt < 1:
            raise ConfigurationError(f"retry attempt must be >= 1, got {attempt}")
        delay = min(self.max_backoff_ticks, self.base_ticks * 2 ** (attempt - 1))
        if self.jitter_ticks > 0:
            if rng is None:
                raise ConfigurationError(
                    "a jittered RetryPolicy needs the caller's rng"
                )
            delay += int(rng.integers(0, self.jitter_ticks + 1))
        return delay

    def require(self, attempts: int, *, what: str) -> None:
        """Raise :class:`RetryExhaustedError` when the attempts are spent.

        The single-line message names the operation (``what``), so
        degrade-gracefully callers can count/log it before parking the work.
        """
        if attempts >= self.max_attempts:
            raise RetryExhaustedError(
                f"{what}: retry attempts exhausted "
                f"({attempts}/{self.max_attempts})"
            )
