"""The daemon loop every background watcher polls on.

Kept free of any ``repro`` imports (like :mod:`repro.fsutil`) so serving
and the orchestrator's workers can share it.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional


class Poller:
    """Calls ``step`` every ``interval()`` seconds on a daemon thread.

    ``interval`` is re-read on every tick, so an owner may change it after
    construction.  An exception from ``step`` goes to ``on_error`` and the
    loop carries on: a watcher must never die.
    """

    def __init__(self, step: Callable[[], object],
                 interval: Callable[[], float],
                 on_error: Callable[[Exception], None], name: str) -> None:
        self.step = step
        self._interval = interval
        self._on_error = on_error
        self._name = name
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._thread is not None

    def _loop(self) -> None:
        while not self._stop.wait(self._interval()):
            try:
                self.step()
            except Exception as exc:  # noqa: BLE001 — see class docstring
                self._on_error(exc)

    def start(self) -> None:
        """Begin polling (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, name=self._name,
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop polling and join the thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
