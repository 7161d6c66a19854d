"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so downstream users can catch a single base class.  More
specific subclasses are provided for the main failure domains: invalid
configuration, sampling-theory violations (e.g. a delay ``D`` that makes the
Kohlenberg reconstruction filter unstable), calibration failures and BIST
measurement problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ValidationError",
    "SamplingError",
    "AliasingError",
    "DelayConstraintError",
    "ReconstructionError",
    "CalibrationError",
    "ConvergenceError",
    "MeasurementError",
    "MeasurementWarning",
    "MaskError",
    "BudgetExhaustedError",
    "ServiceError",
    "JobNotFoundError",
]


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or incomplete."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation.

    Inherits from :class:`ValueError` so call sites that expect standard
    Python semantics (``except ValueError``) keep working.
    """


class SamplingError(ReproError):
    """Base class for errors related to bandpass sampling theory."""


class AliasingError(SamplingError):
    """A requested uniform bandpass sampling rate causes spectral aliasing."""


class DelayConstraintError(SamplingError):
    """The inter-channel delay ``D`` violates the Kohlenberg constraints.

    The second-order nonuniform reconstruction kernel contains terms divided
    by ``sin(k * pi * B * D)`` and ``sin((k + 1) * pi * B * D)``; delays that
    zero either denominator (Eq. 3 of the paper) make the filter unstable.
    """


class ReconstructionError(SamplingError):
    """Signal reconstruction from nonuniform samples failed."""


class CalibrationError(ReproError):
    """Base class for calibration (time-skew / gain / offset) failures."""


class ConvergenceError(CalibrationError):
    """An iterative estimator failed to converge within its iteration budget."""


class MeasurementError(ReproError):
    """A BIST measurement could not be computed from the acquired data."""


class MeasurementWarning(UserWarning):
    """A measurement silently degraded instead of failing.

    Emitted (via :mod:`warnings`) when a DSP primitive adapts its parameters
    to keep producing a result — e.g. :func:`repro.dsp.welch_psd` clamping
    an oversized segment length to the record length, which degrades the
    estimate to a single periodogram with no variance reduction.  Warnings
    rather than errors: the degraded result is still numerically valid, but
    long-running monitors accumulating such estimates should know.
    """


class MaskError(ReproError):
    """A spectral mask definition is invalid (e.g. unsorted breakpoints)."""


class BudgetExhaustedError(ReproError):
    """An execution budget ran out before the campaign step could run.

    Raised by :class:`~repro.bist.runner.ExecutionBudget` *before* the
    over-budget batch executes, so everything already completed has been
    flushed to the campaign store and the interrupted run can be resumed
    (cache hits are free and do not consume budget)."""


class ServiceError(ReproError):
    """Base class for BIST-service failures (queue, coordinator, protocol).

    Raised for requests the service cannot honour — submitting to a
    draining queue, fetching the result of a job that has not finished —
    as opposed to scenario-level failures, which are reported as error
    outcomes inside a job's merged campaign result."""


class JobNotFoundError(ServiceError):
    """A job id does not exist in the service's queue."""
