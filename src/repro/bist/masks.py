"""Spectral emission masks and compliance checking.

Spectral-mask verification is the paper's stated target application: "Our
initial efforts are focused to the characterization of the transmitter (Tx)
chain with respect to compliance to the spectral mask."  A mask is a
piecewise-linear limit on the transmitted PSD versus frequency offset from
the channel centre, normalised to the in-band peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.spectrum import SpectrumEstimate
from ..errors import MaskError, ValidationError
from ..signals.standards import WaveformProfile
from ..utils.validation import check_1d_array

__all__ = ["SpectralMask", "MaskViolation", "MaskCheckResult"]


@dataclass(frozen=True)
class MaskViolation:
    """One frequency bin that exceeds the mask.

    Attributes
    ----------
    frequency_offset_hz:
        Offset of the offending bin from the channel centre.
    measured_db:
        Measured PSD relative to the in-band peak (dB).
    limit_db:
        Mask limit at that offset (dB).
    """

    frequency_offset_hz: float
    measured_db: float
    limit_db: float

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (see :meth:`from_dict`)."""
        return {
            "frequency_offset_hz": self.frequency_offset_hz,
            "measured_db": self.measured_db,
            "limit_db": self.limit_db,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MaskViolation":
        """Rebuild a violation serialized with :meth:`to_dict`."""
        return cls(
            frequency_offset_hz=data["frequency_offset_hz"],
            measured_db=data["measured_db"],
            limit_db=data["limit_db"],
        )


@dataclass(frozen=True)
class MaskCheckResult:
    """Outcome of checking one spectrum against a mask.

    Attributes
    ----------
    passed:
        True when no bin exceeds the mask.
    worst_margin_db:
        The smallest margin observed (negative when failing).
    worst_offset_hz:
        Frequency offset at which the worst margin occurs.
    violations:
        All violating bins (empty when passing).
    """

    passed: bool
    worst_margin_db: float
    worst_offset_hz: float
    violations: tuple

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (see :meth:`from_dict`)."""
        return {
            "passed": self.passed,
            "worst_margin_db": self.worst_margin_db,
            "worst_offset_hz": self.worst_offset_hz,
            "violations": [violation.to_dict() for violation in self.violations],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MaskCheckResult":
        """Rebuild a result serialized with :meth:`to_dict`."""
        return cls(
            passed=bool(data["passed"]),
            worst_margin_db=data["worst_margin_db"],
            worst_offset_hz=data["worst_offset_hz"],
            violations=tuple(MaskViolation.from_dict(v) for v in data["violations"]),
        )


@dataclass(frozen=True)
class SpectralMask:
    """A symmetric piecewise-linear spectral emission mask.

    The mask is defined by breakpoints ``(offset_hz, limit_db)`` with the
    limit expressed relative to the in-band peak PSD; between breakpoints the
    limit is linearly interpolated, beyond the last breakpoint it stays at
    the final value.  The mask applies symmetrically on both sides of the
    channel centre.

    Parameters
    ----------
    name:
        Identifier used in reports.
    offsets_hz:
        Monotonically increasing non-negative frequency offsets.
    limits_db:
        Relative PSD limits at the breakpoints (same length as the offsets).
    """

    name: str
    offsets_hz: np.ndarray
    limits_db: np.ndarray

    def __post_init__(self) -> None:
        offsets = check_1d_array(self.offsets_hz, "offsets_hz", min_length=2, dtype=float)
        limits = check_1d_array(self.limits_db, "limits_db", min_length=2, dtype=float)
        if offsets.size != limits.size:
            raise MaskError("offsets_hz and limits_db must have the same length")
        if offsets[0] < 0.0:
            raise MaskError("mask offsets must be non-negative")
        if np.any(np.diff(offsets) <= 0.0):
            raise MaskError("mask offsets must be strictly increasing")
        object.__setattr__(self, "offsets_hz", offsets)
        object.__setattr__(self, "limits_db", limits)

    @classmethod
    def from_profile(cls, profile: WaveformProfile) -> "SpectralMask":
        """Build the mask declared by a multistandard waveform profile."""
        if not isinstance(profile, WaveformProfile):
            raise ValidationError("profile must be a WaveformProfile")
        if not profile.mask_points_db:
            raise MaskError(f"profile {profile.name!r} declares no spectral mask")
        offsets, limits = zip(*profile.mask_points_db)
        return cls(name=f"{profile.name}-mask", offsets_hz=np.array(offsets), limits_db=np.array(limits))

    def limit_at(self, frequency_offsets_hz) -> np.ndarray:
        """Mask limit (dB relative to in-band peak) at the given offsets."""
        offsets = np.abs(np.asarray(frequency_offsets_hz, dtype=float))
        return np.interp(offsets, self.offsets_hz, self.limits_db)

    @property
    def span_hz(self) -> float:
        """Largest offset covered by an explicit breakpoint."""
        return float(self.offsets_hz[-1])

    def check(self, estimate: SpectrumEstimate, channel_centre_hz: float) -> MaskCheckResult:
        """Check a PSD estimate against the mask.

        The region around the centre that holds the wanted signal itself is
        exempt from checking: its half-width is the first mask breakpoint
        with a negative limit, or the first offset otherwise.

        Parameters
        ----------
        estimate:
            PSD of the transmitter output (absolute frequencies).
        channel_centre_hz:
            Centre frequency of the wanted channel.

        Returns
        -------
        MaskCheckResult
        """
        offsets = estimate.frequencies_hz - float(channel_centre_hz)
        relative_db = estimate.normalised_db()
        limits = self.limit_at(offsets)

        below_zero = self.limits_db < 0.0
        if np.any(below_zero):
            exclude_in_band_hz = float(self.offsets_hz[np.argmax(below_zero)])
        else:
            exclude_in_band_hz = float(self.offsets_hz[0])

        considered = (np.abs(offsets) >= exclude_in_band_hz) & (np.abs(offsets) <= self.span_hz)
        if not np.any(considered):
            raise MaskError(
                "the PSD estimate does not cover any frequency where the mask applies; "
                "acquire a wider spectrum"
            )

        margins = limits - relative_db
        margins = np.where(considered, margins, np.inf)
        worst_index = int(np.argmin(margins))
        violating = considered & (margins < 0.0)
        violations = tuple(
            MaskViolation(
                frequency_offset_hz=float(offsets[index]),
                measured_db=float(relative_db[index]),
                limit_db=float(limits[index]),
            )
            for index in np.flatnonzero(violating)
        )
        return MaskCheckResult(
            passed=not violations,
            worst_margin_db=float(margins[worst_index]),
            worst_offset_hz=float(offsets[worst_index]),
            violations=violations,
        )
