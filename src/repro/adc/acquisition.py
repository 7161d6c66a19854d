"""Acquisition sources: the hardware seam under the BIST engine.

The engine historically drove a :class:`~repro.adc.tiadc.BpTiadc` directly,
which welded the whole measurement/coverage stack to the *simulated*
converter.  Real 2T2R platforms (AD9361/AD9363-class) expose captured IQ
through a driver instead; this module extracts the exact protocol the engine
needs — program a delay, acquire a :class:`NonuniformSampleSet`, re-run at a
different per-channel rate — into :class:`AcquisitionSource` so either side
of the seam can be swapped:

* :class:`~repro.adc.tiadc.BpTiadc` — the simulated converter is itself a
  source (registered as a virtual subclass), so the default path has no
  wrapper at all.
* :class:`RecordingSource` — a transparent wrapper that records every
  acquisition of an inner source into an :class:`AcquisitionCapture`.
* :class:`CapturedSamplesSource` — replays a capture in call order; the
  engine, measurements, store fingerprinting and fault coverage run
  unmodified against it, and a replayed run is bit-identical to the recorded
  one.  Replay checks every request against the recording (delay request,
  band centre, rate, sample count, start time), so configuration drift
  between the two runs raises instead of measuring the wrong thing.

Captures persist as NumPy ``.npz`` archives at full float64 precision.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ValidationError
from ..sampling.bandpass import BandpassBand
from ..sampling.reconstruction import NonuniformSampleSet
from .tiadc import BpTiadc

__all__ = [
    "AcquisitionSource",
    "RecordingSource",
    "CaptureRecord",
    "AcquisitionCapture",
    "CapturedSamplesSource",
]


class AcquisitionSource(abc.ABC):
    """The protocol the BIST engine drives at the acquisition boundary.

    Concrete sources must behave like the BP-TIADC front end: a programmable
    inter-channel delay, an :meth:`acquire` returning a
    :class:`NonuniformSampleSet`, and a :meth:`with_sample_rate` clone used
    for the second (``B/2``-rate) acquisition of the LMS calibration scheme.
    """

    @property
    @abc.abstractmethod
    def sample_rate(self) -> float:
        """Per-channel conversion rate of this source."""

    @abc.abstractmethod
    def program_delay(self, target_delay_seconds: float) -> float:
        """Program the inter-channel delay; returns the nominal (programmed) value."""

    @abc.abstractmethod
    def acquire(
        self,
        signal,
        band: BandpassBand,
        num_samples: int,
        start_time: float = 0.0,
    ) -> NonuniformSampleSet:
        """Digitise one burst into a nonuniform sample set."""

    @abc.abstractmethod
    def with_sample_rate(self, sample_rate: float) -> "AcquisitionSource":
        """A view of the same source reconfigured to a different per-channel rate."""

    @property
    @abc.abstractmethod
    def true_delay(self) -> float | None:
        """The physically realised delay, when the source knows it (simulation only)."""


# The simulated converter implements the protocol as it stands; a dataclass
# cannot subclass the ABC (its ``sample_rate`` field does not override the
# abstract property), so it registers as a virtual subclass instead.
AcquisitionSource.register(BpTiadc)


@dataclass(frozen=True)
class CaptureRecord:
    """One recorded acquisition: the request parameters plus the sample set."""

    sample_rate_hz: float
    num_samples: int
    start_time: float
    on_grid: np.ndarray
    delayed: np.ndarray
    sample_period: float
    delay: float
    band_f_low: float
    band_f_high: float

    def to_sample_set(self) -> NonuniformSampleSet:
        """Reconstruct the sample set this record captured."""
        return NonuniformSampleSet(
            on_grid=np.asarray(self.on_grid, dtype=float),
            delayed=np.asarray(self.delayed, dtype=float),
            sample_period=self.sample_period,
            delay=self.delay,
            start_time=self.start_time,
            band=BandpassBand(self.band_f_low, self.band_f_high),
        )

    @classmethod
    def from_sample_set(
        cls,
        samples: NonuniformSampleSet,
        sample_rate_hz: float,
        num_samples: int,
        start_time: float,
    ) -> "CaptureRecord":
        """Capture one acquisition result together with its request parameters."""
        return cls(
            sample_rate_hz=float(sample_rate_hz),
            num_samples=int(num_samples),
            start_time=float(start_time),
            on_grid=np.asarray(samples.on_grid, dtype=float),
            delayed=np.asarray(samples.delayed, dtype=float),
            sample_period=float(samples.sample_period),
            delay=float(samples.delay),
            band_f_low=float(samples.band.f_low),
            band_f_high=float(samples.band.f_high),
        )


@dataclass(frozen=True)
class AcquisitionCapture:
    """A full recorded acquisition session, replayable in call order.

    ``programmed_delay_seconds`` is the value ``program_delay`` returned
    during recording; ``true_delay_seconds`` is the simulated physical delay
    when the recorded source exposed one (a real device never does);
    ``requested_delay_seconds`` is the target ``program_delay`` was asked
    for, which replay requires to match.
    """

    records: tuple = ()
    programmed_delay_seconds: float | None = None
    true_delay_seconds: float | None = None
    requested_delay_seconds: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        for record in self.records:
            if not isinstance(record, CaptureRecord):
                raise ValidationError("records must be CaptureRecord instances")

    def __len__(self) -> int:
        return len(self.records)

    def save(self, path) -> None:
        """Persist the capture to a NumPy ``.npz`` archive (full float64 precision)."""
        arrays: dict = {}
        meta = {
            "programmed_delay_seconds": self.programmed_delay_seconds,
            "true_delay_seconds": self.true_delay_seconds,
            "requested_delay_seconds": self.requested_delay_seconds,
            "records": [],
        }
        for index, record in enumerate(self.records):
            arrays[f"on_grid_{index}"] = record.on_grid
            arrays[f"delayed_{index}"] = record.delayed
            meta["records"].append(
                {
                    "sample_rate_hz": record.sample_rate_hz,
                    "num_samples": record.num_samples,
                    "start_time": record.start_time,
                    "sample_period": record.sample_period,
                    "delay": record.delay,
                    "band_f_low": record.band_f_low,
                    "band_f_high": record.band_f_high,
                }
            )
        arrays["metadata_json"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "AcquisitionCapture":
        """Load a capture persisted with :meth:`save`."""
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["metadata_json"]))
            records = []
            for index, entry in enumerate(meta["records"]):
                records.append(
                    CaptureRecord(
                        sample_rate_hz=float(entry["sample_rate_hz"]),
                        num_samples=int(entry["num_samples"]),
                        start_time=float(entry["start_time"]),
                        on_grid=np.asarray(archive[f"on_grid_{index}"], dtype=float),
                        delayed=np.asarray(archive[f"delayed_{index}"], dtype=float),
                        sample_period=float(entry["sample_period"]),
                        delay=float(entry["delay"]),
                        band_f_low=float(entry["band_f_low"]),
                        band_f_high=float(entry["band_f_high"]),
                    )
                )
        return cls(
            records=tuple(records),
            programmed_delay_seconds=meta["programmed_delay_seconds"],
            true_delay_seconds=meta["true_delay_seconds"],
            requested_delay_seconds=meta["requested_delay_seconds"],
        )


class RecordingSource(AcquisitionSource):
    """Transparent wrapper that records every acquisition of an inner source.

    Clones created by :meth:`with_sample_rate` share the recording, so the
    fast and slow acquisitions of one BIST run land in a single capture in
    call order — exactly what :class:`CapturedSamplesSource` replays.
    """

    def __init__(self, inner: AcquisitionSource, _shared: dict | None = None) -> None:
        if not isinstance(inner, AcquisitionSource):
            raise ValidationError("inner must be an AcquisitionSource")
        self._inner = inner
        self._shared = (
            _shared
            if _shared is not None
            else {
                "records": [],
                "programmed_delay_seconds": None,
                "true_delay_seconds": None,
                "requested_delay_seconds": None,
            }
        )

    @property
    def sample_rate(self) -> float:
        return self._inner.sample_rate

    def program_delay(self, target_delay_seconds: float) -> float:
        programmed = self._inner.program_delay(target_delay_seconds)
        self._shared["requested_delay_seconds"] = float(target_delay_seconds)
        self._shared["programmed_delay_seconds"] = float(programmed)
        return programmed

    def acquire(self, signal, band, num_samples, start_time=0.0) -> NonuniformSampleSet:
        samples = self._inner.acquire(signal, band, num_samples, start_time=start_time)
        self._shared["records"].append(
            CaptureRecord.from_sample_set(
                samples, self._inner.sample_rate, num_samples, start_time
            )
        )
        true_delay = self._inner.true_delay
        if true_delay is not None:
            self._shared["true_delay_seconds"] = float(true_delay)
        return samples

    def with_sample_rate(self, sample_rate: float) -> "RecordingSource":
        return RecordingSource(self._inner.with_sample_rate(sample_rate), _shared=self._shared)

    @property
    def true_delay(self) -> float | None:
        return self._inner.true_delay

    def capture(self) -> AcquisitionCapture:
        """The acquisitions recorded so far, as a replayable capture."""
        return AcquisitionCapture(
            records=tuple(self._shared["records"]),
            programmed_delay_seconds=self._shared["programmed_delay_seconds"],
            true_delay_seconds=self._shared["true_delay_seconds"],
            requested_delay_seconds=self._shared["requested_delay_seconds"],
        )


class CapturedSamplesSource(AcquisitionSource):
    """Replays a recorded :class:`AcquisitionCapture` in call order.

    :meth:`program_delay` must be asked for the delay requested at recording
    time, and each :meth:`acquire` consumes the next record, whose request
    must match what was recorded (band centre, rate, sample count, start
    time); together these catch configuration drift between the recording
    run and the replay run.  Clones from :meth:`with_sample_rate` share the
    replay cursor, mirroring how the engine re-rates the converter for the
    slow acquisition.
    """

    def __init__(
        self,
        capture: AcquisitionCapture,
        sample_rate: float | None = None,
        _cursor: list | None = None,
    ) -> None:
        if not isinstance(capture, AcquisitionCapture):
            raise ValidationError("capture must be an AcquisitionCapture")
        if len(capture) == 0:
            raise ValidationError("a captured-samples source needs at least one record")
        self._capture = capture
        self._sample_rate = float(
            sample_rate if sample_rate is not None else capture.records[0].sample_rate_hz
        )
        self._cursor = _cursor if _cursor is not None else [0]

    @property
    def sample_rate(self) -> float:
        return self._sample_rate

    def program_delay(self, target_delay_seconds: float) -> float:
        if self._capture.programmed_delay_seconds is None:
            raise ConfigurationError("the capture recorded no programmed delay")
        if float(target_delay_seconds) != self._capture.requested_delay_seconds:
            raise ConfigurationError(
                f"replay mismatch: the capture was recorded for a delay request of "
                f"{self._capture.requested_delay_seconds} s, requested "
                f"{float(target_delay_seconds)} s"
            )
        return self._capture.programmed_delay_seconds

    def acquire(self, signal, band, num_samples, start_time=0.0) -> NonuniformSampleSet:
        index = self._cursor[0]
        if index >= len(self._capture):
            raise ConfigurationError(
                f"capture exhausted: {len(self._capture)} recorded acquisition(s), "
                f"acquisition #{index + 1} requested"
            )
        record = self._capture.records[index]
        if not isinstance(band, BandpassBand):
            raise ValidationError("band must be a BandpassBand")
        # Both acquisitions of a run are centred on the requested band (the
        # slow one narrows it to its own rate), so the centre is comparable.
        recorded_centre = BandpassBand(record.band_f_low, record.band_f_high).centre
        if not np.isclose(band.centre, recorded_centre, rtol=1e-9, atol=0.0):
            raise ConfigurationError(
                f"replay mismatch at acquisition #{index}: recorded around "
                f"{recorded_centre} Hz, requested {band.centre} Hz"
            )
        if not np.isclose(record.sample_rate_hz, self._sample_rate):
            raise ConfigurationError(
                f"replay mismatch at acquisition #{index}: recorded at "
                f"{record.sample_rate_hz} Hz, requested {self._sample_rate} Hz"
            )
        if int(num_samples) != record.num_samples:
            raise ConfigurationError(
                f"replay mismatch at acquisition #{index}: recorded {record.num_samples} "
                f"samples, requested {int(num_samples)}"
            )
        if not np.isclose(float(start_time), record.start_time):
            raise ConfigurationError(
                f"replay mismatch at acquisition #{index}: recorded start time "
                f"{record.start_time}, requested {float(start_time)}"
            )
        self._cursor[0] = index + 1
        return record.to_sample_set()

    def with_sample_rate(self, sample_rate: float) -> "CapturedSamplesSource":
        return CapturedSamplesSource(
            self._capture, sample_rate=sample_rate, _cursor=self._cursor
        )

    @property
    def true_delay(self) -> float | None:
        return self._capture.true_delay_seconds
