"""Concrete service failures and their HTTP mapping.

The *base* classes (:class:`~repro.resilience.errors.ServiceError`,
:class:`~repro.resilience.errors.DeadlineExceededError`) live in the
resilience taxonomy so the CLI exit-code mapping and ``repro.api`` can
import them without touching this package; the subclasses here are the
ones the scheduler and the HTTP adapter actually raise.  Each carries an
``http_status`` and a stable ``code`` string, so the HTTP adapter maps
failures to distinct statuses and the client re-raises the same typed
error from a response body (:func:`error_for_code`).
"""

from __future__ import annotations

from typing import Dict, Type

from ..resilience.errors import DeadlineExceededError, ServiceError

__all__ = [
    "InvalidRequestError",
    "JobNotFoundError",
    "ResultNotReadyError",
    "ServiceUnavailableError",
    "error_for_code",
    "http_status_for",
]


class ServiceUnavailableError(ServiceError):
    """The service is draining (or not yet ready) and takes no new work."""

    http_status = 503
    code = "unavailable"


class InvalidRequestError(ServiceError):
    """The request's body cannot be framed, or does not describe a valid
    experiment request."""

    http_status = 400
    code = "invalid_request"


class JobNotFoundError(ServiceError):
    """No journaled job has this id."""

    http_status = 404
    code = "job_not_found"


class ResultNotReadyError(ServiceError):
    """The job exists but has not produced a result (yet, or ever)."""

    http_status = 409
    code = "result_not_ready"


_ERROR_BY_CODE: Dict[str, Type[ServiceError]] = {
    cls.code: cls
    for cls in (
        ServiceError,
        ServiceUnavailableError,
        InvalidRequestError,
        JobNotFoundError,
        ResultNotReadyError,
        DeadlineExceededError,
    )
}


def error_for_code(code: str, message: str = "") -> ServiceError:
    """Rebuild the typed error a response body's ``code`` names.

    Unknown codes (a client against a newer or older server) degrade to
    the :class:`ServiceError` base rather than failing the decode.
    """
    cls = _ERROR_BY_CODE.get(code)
    if cls is None:
        err = ServiceError(message)
        err.code = code  # preserve what the server actually said
        return err
    return cls(message)


def http_status_for(exc: BaseException) -> int:
    """HTTP response status for *exc*.

    Typed service errors carry their own mapping; any other failure is
    an internal error (the job machinery normally absorbs simulator
    failures into job state instead of letting them escape to transport).
    """
    return exc.http_status if isinstance(exc, ServiceError) else 500
