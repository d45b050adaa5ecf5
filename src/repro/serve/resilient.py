"""Client-side resilience: the envelope that lets a drive survive a
hostile network.

:func:`repro.serve.driver.drive` takes a :class:`ClientResilience`
(``resilience=``) and then composes three mechanisms:

* **timeout + bounded exponential backoff** — every submit must be
  acked within ``ack_timeout``; a timeout, dropped connection, or
  corrupt frame tears the connection down and the driver reconnects
  after a deterministic backoff (:class:`repro.campaigns.runner.
  RetryPolicy` — the campaign tier's retry schedule, reused verbatim);
* **idempotent submits** — every submit carries a ``dedupe`` key
  (``"{prefix}:{tid}"``); on reconnect the driver resends everything
  sent-but-unacked *in tid order* before resuming fresh sends, and the
  service answers repeats from its decision cache without dispatching,
  so at-least-once delivery never becomes more-than-once dispatch, and
  the assignment digest of a chaos run equals the clean run's;
* **a per-connection circuit breaker** (:class:`CircuitBreaker`) —
  ``breaker_threshold`` consecutive failed connection epochs open the
  breaker and hold reconnection attempts off for ``breaker_cooldown``
  seconds (on top of backoff), then probe half-open.

Release-order is preserved across reconnects: within every connection
frames are sequential and sent in tid order, and resends always carry
tids below the next fresh tid, so the *first* time the service sees
each submit is in tid (= release) order — exactly the stream an
uninterrupted drive delivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..campaigns.runner import RetryPolicy

__all__ = ["CircuitBreaker", "ClientResilience", "ResilienceExhausted"]


class ResilienceExhausted(RuntimeError):
    """The retry budget ran out with submits still unacknowledged."""


class CircuitBreaker:
    """Consecutive-failure breaker over connection epochs.

    ``threshold`` consecutive failures open the breaker; while open,
    :meth:`holdoff` returns the remaining cooldown.  After the cooldown
    the breaker is half-open — one attempt may probe; a further failure
    re-opens (restarting the cooldown), a success closes it.  Clocks
    are passed in (``loop.time()`` values) so the breaker itself stays
    deterministic and testable.
    """

    def __init__(self, threshold: int = 5, cooldown: float = 1.0) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.opened_at: float | None = None
        self.n_opens = 0

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.failures >= self.threshold:
            if self.opened_at is None:
                self.n_opens += 1
            self.opened_at = now

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None

    def holdoff(self, now: float) -> float:
        """Seconds the caller must wait before the next attempt."""
        if self.opened_at is None:
            return 0.0
        return max(0.0, self.opened_at + self.cooldown - now)

    def state(self, now: float) -> str:
        if self.opened_at is None:
            return "closed"
        return "open" if self.holdoff(now) > 0 else "half-open"


@dataclass(frozen=True)
class ClientResilience:
    """The retry/timeout/breaker envelope of a resilient drive."""

    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(retries=10, backoff=0.05, max_backoff=2.0)
    )
    ack_timeout: float = 2.0
    breaker_threshold: int = 5
    breaker_cooldown: float = 0.5

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be > 0, got {self.ack_timeout}")
        # breaker params validated by CircuitBreaker at build time
        CircuitBreaker(self.breaker_threshold, self.breaker_cooldown)

    def make_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(self.breaker_threshold, self.breaker_cooldown)
