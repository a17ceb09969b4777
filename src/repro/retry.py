"""Bounded, deterministic retry with exponential backoff and jitter.

The policy object drives :class:`~repro.server.client.GatewayClient`'s
retry loop: retry *transient* faults only, a bounded number of times,
with exponential backoff, deterministic seeded jitter, and — where the
fault carries load information, like the gateway's ``busy`` reply —
backoff scaled by how loaded the gateway actually is.

Determinism matters here for the same reason it does in the chaos plane:
the differential harness replays a faulty run and expects the identical
report, so sleeping "random" amounts must come from a seeded RNG.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to wait between attempts.

    ``delay(attempt)`` for attempt 0, 1, 2, ... is
    ``base_delay_s * 2**attempt``, capped at ``max_delay_s``, then
    scaled up by ``occupancy`` (a 0..1 load fraction, e.g. the gateway's
    ``queue_depth / queue_limit``) and jittered multiplicatively in
    ``[1 - jitter, 1 + jitter]`` from a seeded RNG.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ValueError("max_attempts must be >= 0")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delays(self) -> "RetrySchedule":
        """A fresh, independently seeded schedule for one operation."""
        return RetrySchedule(self)


class RetrySchedule:
    """The per-operation state of a :class:`RetryPolicy`: which attempt
    we are on, and a private RNG stream for jitter."""

    def __init__(self, policy: RetryPolicy):
        self.policy = policy
        self.attempts = 0
        self._rng = random.Random(policy.seed)

    def give_up(self) -> bool:
        """True once the bounded retry budget is spent."""
        return self.attempts >= self.policy.max_attempts

    def next_delay(self, occupancy: float = 0.0) -> float:
        """Consume one attempt and return the backoff before the next.

        ``occupancy`` in [0, 1] stretches the wait up to 2x — the more
        loaded the gateway reports itself, the longer we stay away.
        """
        policy = self.policy
        delay = min(policy.max_delay_s,
                    policy.base_delay_s * (2.0 ** self.attempts))
        self.attempts += 1
        occupancy = min(1.0, max(0.0, occupancy))
        delay *= 1.0 + occupancy
        if policy.jitter:
            delay *= 1.0 + policy.jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    def backoff(self, occupancy: float = 0.0,
                sleep=time.sleep) -> None:
        """Sleep for the next attempt's delay."""
        sleep(self.next_delay(occupancy))


#: Retry discipline for gateway submissions: jobs are content-addressed
#: and deterministic, so re-submitting after an ambiguous failure is
#: idempotent — the worst case is wasted work, never a wrong result.
DEFAULT_REMOTE_POLICY = RetryPolicy(max_attempts=4, base_delay_s=0.05,
                                    max_delay_s=2.0, jitter=0.25)
