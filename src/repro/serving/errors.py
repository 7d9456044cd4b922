"""Typed serving errors: every failure a caller can see has a class.

The serving layer never lets a raw traceback reach a client.  Each error
carries a machine-readable ``code`` plus enough structure to act on —
the per-field report of :class:`InvalidRequestError` tells the caller
*which* fields to fix, the queue stats of :class:`OverloadedError` tell
a load balancer to back off — and :meth:`ServingError.as_payload`
renders all of them into the JSON shape the server returns.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional


class ServingError(RuntimeError):
    """Base class for every error the prediction service raises."""

    code = "serving_error"

    def as_payload(self) -> Dict[str, Any]:
        """JSON-ready description (the ``error`` field of a response)."""
        return {"code": self.code, "message": str(self)}


class InvalidRequestError(ServingError):
    """A request failed validation; carries a per-field error report.

    ``field_errors`` maps field names to one-line reasons; the pseudo
    field ``"__request__"`` reports problems with the request envelope
    itself (not a dict, unparseable, ...).
    """

    code = "invalid_request"

    def __init__(self, field_errors: Mapping[str, str],
                 message: Optional[str] = None) -> None:
        self.field_errors = dict(field_errors)
        if message is None:
            parts = [f"{name}: {reason}"
                     for name, reason in sorted(self.field_errors.items())]
            message = "invalid request — " + "; ".join(parts)
        super().__init__(message)

    def as_payload(self) -> Dict[str, Any]:
        payload = super().as_payload()
        payload["field_errors"] = self.field_errors
        return payload


class DeadlineExceededError(ServingError):
    """The request's deadline budget ran out before an answer existed."""

    code = "deadline_exceeded"

    def __init__(self, deadline_s: float, elapsed_s: float) -> None:
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s
        super().__init__(
            f"deadline of {deadline_s * 1e3:.1f} ms exceeded "
            f"after {elapsed_s * 1e3:.1f} ms")


class OverloadedError(ServingError):
    """The request was shed by the bounded queue (503-style answer)."""

    code = "overloaded"

    def __init__(self, reason: str, depth: int,
                 estimated_wait_s: Optional[float] = None) -> None:
        self.reason = reason
        self.depth = depth
        self.estimated_wait_s = estimated_wait_s
        detail = f"queue depth {depth}"
        if estimated_wait_s is not None:
            detail += f", estimated wait {estimated_wait_s * 1e3:.1f} ms"
        super().__init__(f"overloaded ({reason}): {detail}")

    def as_payload(self) -> Dict[str, Any]:
        payload = super().as_payload()
        payload["reason"] = self.reason
        payload["depth"] = self.depth
        if self.estimated_wait_s is not None:
            payload["estimated_wait_ms"] = self.estimated_wait_s * 1e3
        return payload


class ModelUnavailableError(ServingError):
    """No scorable model is loaded (startup before readiness, or a
    reload left the service without a valid model — which checkpoint
    admission is designed to prevent)."""

    code = "model_unavailable"
