"""Capped exponential backoff, shared by every retrying subsystem.

Kept free of any ``repro`` imports (like :mod:`repro.fsutil`) so the data
layer, the orchestrator and serving can all import it without pulling in
each other.  :func:`capped_delay` is the one formula; the schedules
below only add jitter on top of it:

* :func:`backoff_delays` / :func:`retry_with_backoff` — equal jitter:
  delay ``i`` is the capped exponential scaled by a uniform factor in
  ``[1 - jitter, 1 + jitter]``, so the expected delay equals the
  deterministic schedule (``jitter=0.0`` gives exactly that schedule).
  Checkpoint reads during rollout and ingest line reads retry
  transient ``OSError``s with it.
* :class:`RestartBackoff` — full jitter (AWS style): delay ``i`` is
  uniform in ``[0, cap_i]``.  Spreads a thundering herd hardest; the
  replica pool uses it for quarantined restarts so several replicas
  restarting after a shared fault do not stampede.

The sleeper and the RNG are injectable, so tests run instantly and
deterministically.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple, Type, TypeVar

import numpy as np

T = TypeVar("T")


def capped_delay(base_delay: float, attempt: int, max_delay: float,
                 factor: float = 2.0) -> float:
    """``min(base_delay * factor**attempt, max_delay)``: the un-jittered
    delay before retry ``attempt`` (counted from 0)."""
    return min(base_delay * factor ** attempt, max_delay)


def backoff_delays(retries: int, base_delay: float = 0.05,
                   factor: float = 2.0, max_delay: float = 2.0,
                   jitter: float = 0.5,
                   rng: Optional[np.random.Generator] = None):
    """Yield ``retries`` delays: capped exponential, equal-jittered.

    Delay ``i`` is :func:`capped_delay` scaled by a uniform factor in
    ``[1 - jitter, 1 + jitter]``; ``jitter=0.0`` draws nothing.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if not 0.0 <= jitter < 1.0:
        raise ValueError(f"jitter must be in [0, 1), got {jitter}")
    rng = rng or np.random.default_rng()
    for attempt in range(retries):
        delay = capped_delay(base_delay, attempt, max_delay, factor)
        if jitter:
            delay *= 1.0 + jitter * (2.0 * float(rng.random()) - 1.0)
        yield delay


def retry_with_backoff(fn: Callable[[], T], *,
                       retries: int = 4,
                       base_delay: float = 0.05,
                       factor: float = 2.0,
                       max_delay: float = 2.0,
                       jitter: float = 0.5,
                       retry_on: Tuple[Type[BaseException], ...] = (OSError,),
                       sleep: Callable[[float], None] = time.sleep,
                       rng: Optional[np.random.Generator] = None,
                       on_retry: Optional[Callable[[int, BaseException], None]]
                       = None) -> T:
    """Call ``fn`` with up to ``retries`` retries on ``retry_on`` errors.

    The first call is free; each retry sleeps one backoff delay first.
    ``on_retry(attempt, error)`` fires before each sleep — checkpoint
    rollout uses it to emit a ``rollout`` event per transient failure.
    The last error re-raises unchanged once the budget is spent, so
    callers keep the original typed exception.
    """
    delays = backoff_delays(retries, base_delay=base_delay, factor=factor,
                            max_delay=max_delay, jitter=jitter, rng=rng)
    attempt = 0
    while True:
        try:
            return fn()
        except retry_on as exc:
            delay = next(delays, None)
            if delay is None:
                raise
            attempt += 1
            if on_retry is not None:
                on_retry(attempt, exc)
            sleep(delay)


class RestartBackoff:
    """Stateful full-jitter backoff schedule for replica restarts.

    Each :meth:`next_delay` call advances the attempt counter and
    returns the next jittered delay; :meth:`reset` (called after a
    successful restart) starts the schedule over.  Thread-compatible by
    being trivially small — callers serialize access themselves.
    """

    def __init__(self, base_delay: float = 0.2, factor: float = 2.0,
                 max_delay: float = 10.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if base_delay <= 0:
            raise ValueError(f"base_delay must be > 0, got {base_delay}")
        if max_delay < base_delay:
            raise ValueError("max_delay must be >= base_delay")
        self.base_delay = base_delay
        self.factor = factor
        self.max_delay = max_delay
        self._rng = rng or np.random.default_rng()
        self.attempt = 0

    def next_delay(self) -> float:
        """The next full-jitter delay; advances the attempt counter."""
        cap = capped_delay(self.base_delay, self.attempt, self.max_delay,
                           self.factor)
        self.attempt += 1
        return cap * float(self._rng.random())

    def reset(self) -> None:
        self.attempt = 0
