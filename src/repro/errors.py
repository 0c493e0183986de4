"""Exception hierarchy for :mod:`repro`.

All library errors derive from :class:`ReproError` so callers can catch one
base class. Errors raised inside SPMD worker ranks are wrapped in
:class:`WorkerError` (carrying the failing rank) by the runtime; sibling ranks
that were parked in a barrier when the failure happened receive
:class:`WorkerAborted`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid machine, cost-model, or algorithm configuration."""


class CommunicationError(ReproError, RuntimeError):
    """A collective communication misuse.

    Examples: mismatched collective participation, a rank waiting at a
    collective that a rank which already returned can never join, or a
    payload that cannot cross the process boundary.
    """


class WorkerAborted(ReproError, RuntimeError):
    """Raised *inside* surviving ranks when a sibling rank failed.

    The runtime converts the first real failure into :class:`WorkerError` for
    the caller; ``WorkerAborted`` instances from other ranks are suppressed.
    """


class WorkerError(ReproError, RuntimeError):
    """Raised by the runtime when one or more SPMD ranks raised.

    Attributes
    ----------
    rank:
        The lowest-numbered rank that failed.
    cause:
        The original exception raised on that rank (also chained via
        ``__cause__``).
    """

    def __init__(self, rank: int, cause: BaseException):
        self.rank = rank
        self.cause = cause
        super().__init__(f"rank {rank} failed: {cause!r}")


class RankMismatchError(CommunicationError):
    """Collective called with inconsistent arguments across ranks."""


class AdmissionError(ReproError, RuntimeError):
    """A serving-tier query was rejected by admission control.

    Raised *pre-launch* by :class:`repro.serve.SelectionService` when the
    bounded in-flight queue (or the submitting tenant's fair share of it)
    is full. The query consumed no SPMD launch; retrying after in-flight
    work drains is always safe.
    """


class ServiceClosed(ReproError, RuntimeError):
    """A query was submitted to (or cancelled by) a closed
    :class:`repro.serve.SelectionService`."""


class ConvergenceError(ReproError, RuntimeError):
    """A selection algorithm failed to converge within its iteration guard.

    This should never fire for the paper's algorithms on valid inputs; it
    exists as a safety net so a logic regression surfaces as a clean error
    instead of a hung run.
    """
