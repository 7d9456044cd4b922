"""Micro-batching: drain the request queue into coalesced scoring batches.

Every model in the repo is vectorized over a
:class:`~repro.data.dataset.Batch`, so scoring requests one at a time
pays the full Python/graph dispatch cost per request.  The
:class:`MicroBatcher` is the only way the transports take work off
their queue: it sits between a
:class:`~repro.serving.queue.BoundedRequestQueue` and
:meth:`~repro.serving.service.PredictionService.predict_batch`, pulling
requests off the queue and coalescing them under a two-knob policy:

``max_batch_size``
    Hard cap per batch.  A batch is flushed the moment it reaches this
    size; it never waits for more.
``max_wait_ms``
    How long the *first* request in a forming batch may wait for
    company.  The deadline starts when the first request is taken off
    the queue, so a request is never held past ``max_wait_ms`` by the
    batcher (per-request scoring deadlines are still enforced downstream
    by the service).  ``0`` coalesces only what is already queued —
    zero added latency.

``max_batch_size=1`` (the transports' default) hands over each request
as a batch of one, without waiting; the service's scoring is
bit-for-bit identical at every size (see ``docs/serving.md``).  The
clock is injectable so the flush policy is testable without sleeping.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional

from .queue import BoundedRequestQueue


class MicroBatcher:
    """Coalesce queue entries into batches of at most ``max_batch_size``.

    Parameters
    ----------
    queue:
        The bounded queue the transport feeds.  Entries come back in the
        queue's own order (highest priority first, FIFO within a
        priority) — the batcher never reorders what it drains.
    max_batch_size:
        Upper bound on entries per batch (>= 1).
    max_wait_ms:
        Wait budget for a partially-filled batch, measured from the
        moment its first entry is taken.  ``0`` means flush immediately
        after draining whatever is already available.
    clock:
        Monotonic-seconds callable, injectable for tests.
    """

    def __init__(self, queue: BoundedRequestQueue, *,
                 max_batch_size: int = 1,
                 max_wait_ms: float = 0.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.queue = queue
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self._clock = clock

    def next_batch(self, timeout: Optional[float] = None
                   ) -> Optional[List[Any]]:
        """Block for the next batch; ``None`` on timeout or drained close.

        Blocks up to ``timeout`` seconds for the *first* entry (``None``
        = wait forever).  Once one arrives, keeps draining until the
        batch is full or the first entry has waited ``max_wait_ms``.
        After :meth:`BoundedRequestQueue.close`, remaining entries are
        still drained into final batches — zero requests are dropped —
        and only then does this return ``None``.
        """
        first = self.queue.get(timeout=timeout)
        if first is None:
            return None
        batch: List[Any] = [first]
        if self.max_batch_size == 1:
            return batch
        deadline = self._clock() + self.max_wait_ms / 1e3
        while len(batch) < self.max_batch_size:
            remaining = deadline - self._clock()
            if remaining <= 0:
                # Flush-on-deadline: the first request has waited its
                # budget.  Still sweep up anything already queued — that
                # costs no waiting, only a non-blocking get.
                item = self.queue.get(timeout=0)
                if item is None:
                    break
                batch.append(item)
                continue
            item = self.queue.get(timeout=remaining)
            if item is None:
                break
            batch.append(item)
        return batch
