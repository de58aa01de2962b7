"""Structured errors of the simulation service.

Every failure a client can cause maps to one :class:`ServiceError`
subclass with a stable machine-readable ``code``, an HTTP status, and
an optional ``detail`` payload (e.g. the lint diagnostics that rejected
a request).  Handlers raise; the HTTP layer renders ``to_payload()``
uniformly, so error bodies always look like::

    {"error": {"code": "queue-full", "message": "...", "detail": {...}}}

Unexpected exceptions never reach the wire verbatim — the dispatcher
wraps them in a generic 500 and logs the traceback server-side.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "InternalError",
    "LintRejected",
    "NotFound",
    "QueueFull",
    "ServiceError",
    "ShuttingDown",
    "ValidationError",
]


class ServiceError(Exception):
    """Base class: an error with an HTTP status and a stable code."""

    status = 500
    code = "internal"

    def __init__(self, message: str, detail: dict[str, Any] | None = None):
        super().__init__(message)
        self.message = message
        self.detail = detail or {}

    def headers(self) -> dict[str, str]:
        """Extra response headers (e.g. ``Retry-After``)."""
        return {}

    def to_payload(self) -> dict[str, Any]:
        error: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.detail:
            error["detail"] = self.detail
        return {"error": error}


class ValidationError(ServiceError):
    """Malformed request: bad JSON, unknown field, bad value."""

    status = 400
    code = "invalid-request"


class LintRejected(ServiceError):
    """The diagnostics engine rejected the requested configuration."""

    status = 400
    code = "lint-rejected"

    def __init__(self, diagnostics: list[Any]):
        detail = {
            "diagnostics": [
                {
                    "code": d.code,
                    "severity": str(d.severity),
                    "domain": d.domain,
                    "subject": d.subject,
                    "message": d.message,
                    **({"fix": d.fix} if d.fix else {}),
                }
                for d in diagnostics
            ]
        }
        codes = ", ".join(sorted({d.code for d in diagnostics}))
        super().__init__(
            f"request rejected by static analysis ({codes}); "
            "see detail.diagnostics",
            detail,
        )


class NotFound(ServiceError):
    status = 404
    code = "not-found"


class QueueFull(ServiceError):
    """Admission control: the bounded job queue is at capacity."""

    status = 429
    code = "queue-full"

    def __init__(self, retry_after: int, depth: int, limit: int):
        super().__init__(
            f"job queue is full ({depth}/{limit}); retry after "
            f"{retry_after}s",
            {"retry_after": retry_after, "depth": depth, "limit": limit},
        )
        self.retry_after = retry_after

    def headers(self) -> dict[str, str]:
        return {"Retry-After": str(self.retry_after)}


class ShuttingDown(ServiceError):
    """The server is draining and no longer admits new work."""

    status = 503
    code = "shutting-down"

    def __init__(self) -> None:
        super().__init__("server is draining; retry against another replica")

    def headers(self) -> dict[str, str]:
        return {"Retry-After": "1"}


class InternalError(ServiceError):
    """A worker crashed or an unexpected exception surfaced."""

    status = 500
    code = "internal"
