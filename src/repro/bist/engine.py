"""The complete transmitter BIST loop.

:class:`TransmitterBist` glues every piece of the paper's strategy together:

1. the transmitter emits its operational modulated signal;
2. the (idle) receiver ADCs, reconfigured as a BP-TIADC with the DCDE delay,
   acquire the PA output twice — once at the full per-channel rate ``B`` and
   once at ``B1 = B/2``;
3. the inter-channel delay is estimated with the LMS algorithm (Section IV,
   Algorithm 1), starting from the programmed DCDE delay with a 1 ps step;
   like the paper's experiments, the engine assumes gain/offset-matched
   converters (:mod:`repro.calibration.gain_offset` holds the §III
   correction as a reference the engine does not call);
4. the output waveform is reconstructed from the nonuniform samples with the
   estimated delay (Section II);
5. the spectrum, ACPR, occupied bandwidth and EVM are measured and compared
   against the active waveform profile's limits, producing a pass/fail
   :class:`~repro.bist.report.BistReport`.

Everything runs on the platform's existing converters plus the DCDE; no RF
instrumentation is involved, which is the paper's cost argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..adc.acquisition import AcquisitionSource
from ..calibration.cost import SkewCostFunction, select_slow_sample_rate
from ..calibration.lms import LmsSkewEstimator
from ..errors import ConfigurationError, MeasurementError, ValidationError
from ..sampling.bandpass import BandpassBand
from ..sampling.reconstruction import NonuniformReconstructor, PlanStructureCache
from ..signals.standards import WaveformProfile, get_profile
from ..transmitter.chain import HomodyneTransmitter, TransmissionResult
from ..utils.serialization import field_dict, known_field_kwargs
from ..utils.validation import check_integer, check_positive
from .masks import SpectralMask
from .measurements import (
    OBW_MIN_BINS,
    OFDM_DENSE_OVERSAMPLING,
    TxMeasurements,
    measure_acpr,
    measure_evm,
    measure_occupied_bandwidth,
    measure_ofdm_evm,
    measure_spectrum_from_samples,
    reconstructed_envelope,
    render_uniform,
)
from .report import BistReport, CheckResult, SkewCalibrationReport, Verdict

__all__ = ["BistConfig", "BistStage", "TransmitterBist"]


@dataclass(frozen=True)
class BistConfig:
    """Tuning knobs of the BIST engine.

    Attributes
    ----------
    acquisition_bandwidth_hz:
        Per-channel rate ``B`` of the fast acquisition (and width of the
        reconstructed band); the paper uses 90 MHz.
    num_samples_fast:
        Sample pairs acquired at rate ``B``.
    num_samples_slow:
        Sample pairs acquired at rate ``B1 = B/2``.
    programmed_delay_seconds:
        Delay programmed into the DCDE; the paper uses 180 ps (and the
        magnitude-optimal value would be ``1/(4 fc)``).
    lms_max_iterations:
        LMS iteration budget.  The LMS starts at the programmed delay with
        :class:`~repro.calibration.lms.LmsSkewEstimator`'s 1 ps step, as
        Algorithm 1 does.
    num_cost_points:
        Number of random evaluation instants of the cost function.
    measure_evm_enabled:
        Whether to demodulate and compute EVM (slightly slower).
    seed:
        Randomness control for the cost-function evaluation instants.
    """

    acquisition_bandwidth_hz: float = 90.0e6
    num_samples_fast: int = 400
    num_samples_slow: int = 200
    programmed_delay_seconds: float = 180.0e-12
    lms_max_iterations: int = 50
    num_cost_points: int = 300
    measure_evm_enabled: bool = True
    seed: int | None = 20140324

    #: Reconstruction kernel truncation ``nw`` (even: Eq. (6) places nw/2
    #: sample pairs on each side of the evaluation instant).
    num_taps: ClassVar[int] = 60

    def __post_init__(self) -> None:
        check_positive(self.acquisition_bandwidth_hz, "acquisition_bandwidth_hz")
        check_integer(self.num_samples_fast, "num_samples_fast", minimum=64)
        check_integer(self.num_samples_slow, "num_samples_slow", minimum=64)
        check_positive(self.programmed_delay_seconds, "programmed_delay_seconds")
        check_integer(self.lms_max_iterations, "lms_max_iterations", minimum=1)
        check_integer(self.num_cost_points, "num_cost_points", minimum=10)

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (exact round trip via :meth:`from_dict`).

        Every field is a scalar, so the dictionary doubles as the
        configuration's canonical form for campaign-store fingerprinting
        (see :mod:`repro.store.fingerprint`).
        """
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BistConfig":
        """Rebuild a configuration serialized with :meth:`to_dict`.

        Unknown keys are ignored; a configuration archived with a kernel
        truncation, an LMS start, an LMS step or a static-mismatch correction
        other than the fixed one raises ``ValidationError``.
        """
        return cls(**known_field_kwargs(cls, data, fixed=_FIXED_SETTINGS))


#: Settings earlier :class:`BistConfig` archives stored, at their fixed values:
#: the LMS starts at the programmed delay with a 1 ps step, and no gain/offset
#: correction runs.
_FIXED_SETTINGS = {
    "lms_initial_delay_seconds": None,
    "lms_initial_step_seconds": 1.0e-12,
    "correct_static_mismatch": False,
}


@dataclass(frozen=True)
class BistStage:
    """Intermediate state of a BIST run, split at the reconstruction boundary.

    :meth:`TransmitterBist.prepare` runs everything up to and including the
    skew calibration and reconstructor construction; :meth:`TransmitterBist.finish`
    performs the measurement and evaluation.  ``TransmitterBist.run`` is
    exactly ``finish(prepare(burst))``, and :meth:`TransmitterBist.stream`
    accepts a stage so one acquisition can be streamed more than once.
    """

    burst: TransmissionResult
    fast_set: object
    slow_set: object
    calibration: SkewCalibrationReport
    estimate: float
    reconstructor: NonuniformReconstructor


class TransmitterBist:
    """End-to-end BIST of a homodyne SDR transmitter.

    Parameters
    ----------
    transmitter:
        The behavioural transmitter under test.
    converter:
        The acquisition front end: any
        :class:`~repro.adc.acquisition.AcquisitionSource` — the BP-TIADC
        built from the receiver's I/Q ADCs is one itself — e.g. a
        :class:`~repro.adc.acquisition.CapturedSamplesSource` replaying
        recorded IQ from real hardware.  Its per-channel rate must equal
        the BIST configuration's acquisition bandwidth.
    profile:
        The waveform profile whose limits the measurements are checked
        against; defaults to the profile matching the paper's setup.
    config:
        Engine tuning knobs.
    plan_structure_cache:
        Optional :class:`~repro.sampling.reconstruction.PlanStructureCache`
        threaded into the two LMS cost plans this engine builds (the
        measurement renders keep no structure).  Campaign-compiled groups
        share one cache across scenarios, so scenarios with the same cost
        instants build each cost-plan structure once; results are
        bit-identical with and without a cache.
    """

    def __init__(
        self,
        transmitter: HomodyneTransmitter,
        converter: AcquisitionSource,
        profile: WaveformProfile | str | None = None,
        config: BistConfig | None = None,
        plan_structure_cache: PlanStructureCache | None = None,
    ) -> None:
        if not isinstance(transmitter, HomodyneTransmitter):
            raise ValidationError("transmitter must be a HomodyneTransmitter")
        if not isinstance(converter, AcquisitionSource):
            raise ValidationError("converter must be a BpTiadc or an AcquisitionSource")
        self._config = config if config is not None else BistConfig()
        if not np.isclose(converter.sample_rate, self._config.acquisition_bandwidth_hz):
            raise ConfigurationError(
                "the converter's per-channel rate must equal the BIST acquisition bandwidth"
            )
        if isinstance(profile, str):
            profile = get_profile(profile)
        if profile is None:
            profile = get_profile("paper-qpsk-1ghz")
        if plan_structure_cache is not None and not isinstance(
            plan_structure_cache, PlanStructureCache
        ):
            raise ValidationError("plan_structure_cache must be a PlanStructureCache")
        self._transmitter = transmitter
        self._converter = converter
        self._profile = profile
        self._structure_cache = plan_structure_cache
        self._band = BandpassBand.from_centre(
            transmitter.carrier_frequency, self._config.acquisition_bandwidth_hz
        )

    # ------------------------------------------------------------------ #
    # Public attributes
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> BistConfig:
        """The engine configuration."""
        return self._config

    @property
    def profile(self) -> WaveformProfile:
        """The waveform profile whose limits are enforced."""
        return self._profile

    @property
    def band(self) -> BandpassBand:
        """The acquisition band around the transmitter carrier."""
        return self._band

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def required_burst_duration(self) -> float:
        """Transmission duration needed to cover both acquisitions with margin."""
        config = self._config
        fast_duration = config.num_samples_fast / config.acquisition_bandwidth_hz
        # The reduced rate is nominally B/2 but may be picked as low as 0.4 B
        # by the uniqueness-condition fallback; budget for the worst case.
        slow_duration = config.num_samples_slow / (0.4 * config.acquisition_bandwidth_hz)
        return 1.15 * max(fast_duration, slow_duration)

    def run(self, burst: TransmissionResult | None = None) -> BistReport:
        """Execute the full BIST and return its report."""
        return self.finish(self.prepare(burst))

    def prepare(self, burst: TransmissionResult | None = None) -> BistStage:
        """Run the BIST up to the calibrated reconstructor (no measurements).

        Performs transmission, both acquisitions and the LMS skew
        estimation, returning a
        :class:`BistStage` for :meth:`finish` or :meth:`stream`.
        """
        config = self._config
        if burst is None:
            burst = self._transmitter.transmit_for_duration(self.required_burst_duration())

        fast_set, slow_set = self._acquire(burst)
        calibration, estimate = self._estimate_skew(fast_set, slow_set)
        reconstructor = NonuniformReconstructor(
            fast_set, assumed_delay=estimate, num_taps=config.num_taps
        )
        return BistStage(
            burst=burst,
            fast_set=fast_set,
            slow_set=slow_set,
            calibration=calibration,
            estimate=estimate,
            reconstructor=reconstructor,
        )

    def finish(self, stage: BistStage) -> BistReport:
        """Measure and evaluate a prepared stage into the final report."""
        if not isinstance(stage, BistStage):
            raise ValidationError("stage must be a BistStage from prepare()")
        measurements = self._measure(stage.reconstructor, stage.burst)
        checks, mask_result = self._evaluate(measurements)
        return BistReport(
            profile_name=self._profile.name,
            calibration=stage.calibration,
            measurements=measurements,
            checks=tuple(checks),
            mask_result=mask_result,
        )

    def stream(
        self,
        burst: TransmissionResult | None = None,
        block_samples: int = 256,
        window_samples: int | None = None,
        segment_length: int | None = None,
        detector=None,
        baseline: dict | None = None,
        stage: BistStage | None = None,
    ):
        """Run a monitored streaming session over the calibrated reconstruction.

        The continuous counterpart of :meth:`run`: the engine prepares the
        calibrated reconstructor exactly as the batch path does, extracts the
        reconstructed complex envelope around the carrier, and feeds it block
        by block through a :class:`repro.monitor.StreamingMonitor` — per-window
        output power / ACPR / occupied bandwidth / EVM with sequential drift
        charting — instead of one whole-record measurement.  Returns the
        :class:`repro.monitor.MonitorReport` of the session.

        Parameters
        ----------
        burst:
            Transmission to monitor; a fresh burst covering the acquisition
            window is transmitted when ``None`` (same as :meth:`run`).
        block_samples:
            Ingest block size; the monitor's results are invariant to it.
        window_samples / segment_length:
            Measurement window and Welch segment sizes in envelope samples;
            by default both adapt to the reconstructed record (eight windows
            of four segments each) since the paper's acquisitions are short.
            The default window widens towards the span a window EVM needs,
            as far as the record still holds the detector's warm-up windows
            plus one charted window, and the default segment towards the
            resolution the occupied bandwidth needs, as far as the window.
        detector:
            Optional :class:`repro.monitor.DriftDetectorConfig`.
        baseline:
            Optional explicit per-metric baseline for the drift detector
            (e.g. from a stored golden campaign); learned during warm-up
            when ``None``.
        stage:
            Optional pre-computed :class:`BistStage` from :meth:`prepare`
            (``burst`` is then ignored).  Acquisition noise makes every
            :meth:`prepare` a fresh realisation, so re-streaming the *same*
            acquisition — e.g. to compare block sizes — requires passing
            the stage explicitly.
        """
        # Imported lazily: repro.monitor reaches back into repro.store (whose
        # baseline module imports repro.bist.report), so a module-level import
        # here would cycle through the package initialisers.
        from ..monitor import (
            ChannelSpec,
            DriftDetectorConfig,
            MonitorConfig,
            OfdmSymbolReference,
            StreamingMonitor,
            SymbolReference,
            iter_blocks,
        )
        from ..monitor.evm import _narrowest_evm_window

        if stage is None:
            stage = self.prepare(burst)
        elif not isinstance(stage, BistStage):
            raise ValidationError("stage must be a BistStage from prepare()")
        config = self._config
        envelope_rate = stage.burst.config.envelope_sample_rate
        valid_low, valid_high = stage.reconstructor.valid_time_range()
        times, envelope = reconstructed_envelope(
            stage.reconstructor,
            carrier_frequency_hz=self._transmitter.carrier_frequency,
            start_time=valid_low,
            stop_time=valid_high,
            envelope_rate=envelope_rate,
        )
        reference = None
        if config.measure_evm_enabled:
            if stage.burst.config.ofdm is None:
                reference = SymbolReference.from_transmission(stage.burst)
            else:
                reference = OfdmSymbolReference.from_transmission(stage.burst)
        if detector is None:
            detector = DriftDetectorConfig()
        if window_samples is None:
            window_samples = max(64, envelope.size // 8)
            # A window only yields an EVM when it holds enough symbols inside
            # the demodulator's edge guards: whole OFDM symbols plus the
            # interpolation guards, or min_evm_symbols single-carrier instants
            # at any symbol phase.  Widen the default towards that, but only
            # while the record still holds warmup_windows + 1 windows: a
            # detector that never leaves warm-up charts nothing, whereas a
            # window too short for EVM reports why in evm_skipped_reason.
            widest = max(window_samples, envelope.size // (detector.warmup_windows + 1))
            needed = None
            if isinstance(reference, OfdmSymbolReference):
                span = (
                    stage.burst.config.ofdm.symbol_length
                    * stage.burst.config.samples_per_symbol
                )
                needed = 3 * span + 64
            elif reference is not None:
                needed = _narrowest_evm_window(
                    reference, envelope_rate, MonitorConfig.min_evm_symbols
                )
            if needed is not None:
                window_samples = max(window_samples, min(widest, needed))
        profile = self._profile
        if segment_length is None:
            # Four segments per window, but long enough that the channel's
            # occupied-bandwidth search (+-channel bandwidth) spans
            # OBW_MIN_BINS bins.
            resolving = int(OBW_MIN_BINS // 2 * envelope_rate / profile.channel_bandwidth_hz) + 1
            segment_length = min(
                int(window_samples), max(8, min(int(window_samples) // 4, 256), resolving)
            )
        monitor_config = MonitorConfig(
            sample_rate=envelope_rate,
            window_samples=int(window_samples),
            segment_length=int(segment_length),
            channel=ChannelSpec(
                centre_hz=0.0,
                bandwidth_hz=profile.channel_bandwidth_hz,
                spacing_hz=profile.channel_spacing_hz,
            ),
            detector=detector,
            start_time=float(times[0]),
        )
        monitor = StreamingMonitor(monitor_config, reference=reference, baseline=baseline)
        monitor.ingest_stream(iter_blocks(envelope, block_samples))
        return monitor.report()

    def _dense_rate(self, burst: TransmissionResult) -> float | None:
        """The dense measurement rate for ``burst``.

        Single-carrier bursts return ``None``, :func:`render_uniform`'s
        default of ``4 x f_high``.  OFDM bursts render at
        :data:`~repro.bist.measurements.OFDM_DENSE_OVERSAMPLING` times the
        band's upper edge, snapped *up* to an integer multiple of the
        envelope rate, so the same render feeds both the spectrum and the
        EVM demodulation without decimation drift.
        """
        if burst.config.ofdm is None:
            return None
        envelope_rate = burst.config.envelope_sample_rate
        return float(
            np.ceil(OFDM_DENSE_OVERSAMPLING * self._band.f_high / envelope_rate) * envelope_rate
        )

    # ------------------------------------------------------------------ #
    # Steps
    # ------------------------------------------------------------------ #
    def _acquire(self, burst: TransmissionResult):
        """Run the two acquisitions (rates ``B`` and ``B/2``) on the burst."""
        config = self._config
        self._converter.program_delay(config.programmed_delay_seconds)
        fast_set = self._converter.acquire(
            burst.rf_output,
            self._band,
            num_samples=config.num_samples_fast,
            start_time=burst.output_envelope.start_time,
        )
        # The paper reruns the same converters at B1 = B/2; when that exact
        # ratio violates the uniqueness conditions (Eq. 9) for the current
        # carrier, the nearest valid ratio is used instead.
        slow_rate = select_slow_sample_rate(
            self._transmitter.carrier_frequency, config.acquisition_bandwidth_hz
        )
        slow_converter = self._converter.with_sample_rate(slow_rate)
        slow_set = slow_converter.acquire(
            burst.rf_output,
            self._band,
            num_samples=config.num_samples_slow,
            start_time=burst.output_envelope.start_time,
        )
        return fast_set, slow_set

    def _estimate_skew(self, fast_set, slow_set):
        """Run the LMS time-skew estimation; returns (report, estimate)."""
        config = self._config
        cost = SkewCostFunction(
            fast_set,
            slow_set,
            num_taps=config.num_taps,
            num_evaluation_points=config.num_cost_points,
            seed=config.seed,
            structure_cache=self._structure_cache,
        )
        estimator = LmsSkewEstimator(cost, max_iterations=config.lms_max_iterations)
        result = estimator.estimate(config.programmed_delay_seconds)
        report = SkewCalibrationReport(
            estimated_delay_seconds=result.estimate,
            programmed_delay_seconds=config.programmed_delay_seconds,
            true_delay_seconds=self._converter.true_delay,
            iterations=result.iterations,
            converged=result.converged,
            final_cost=result.final_cost,
            method="lms",
        )
        return report, result.estimate

    def _measure(
        self, reconstructor: NonuniformReconstructor, burst: TransmissionResult
    ) -> TxMeasurements:
        """Derive the transmitter measurements from the calibrated reconstruction.

        The reconstruction is rendered onto the dense measurement grid once;
        the output power, the Welch spectrum and the OFDM EVM are all
        computed from that single render.  The single-carrier EVM path needs
        a different grid rate and renders it separately, through its own
        plan.
        """
        config = self._config
        profile = self._profile
        valid_low, valid_high = reconstructor.valid_time_range()
        render = render_uniform(
            reconstructor, valid_low, valid_high, sample_rate=self._dense_rate(burst)
        )
        _, samples, rate = render
        output_power = float(np.mean(samples**2))
        spectrum = measure_spectrum_from_samples(
            samples, rate, bandwidth_hz=reconstructor.kernel.band.bandwidth
        )
        acpr = measure_acpr(
            spectrum,
            channel_centre_hz=self._transmitter.carrier_frequency,
            channel_bandwidth_hz=profile.channel_bandwidth_hz,
            channel_spacing_hz=profile.channel_spacing_hz,
        )
        obw = measure_occupied_bandwidth(
            spectrum,
            channel_centre_hz=self._transmitter.carrier_frequency,
            search_half_width_hz=config.acquisition_bandwidth_hz / 2.0,
        )
        evm = None
        per_subcarrier = None
        subcarrier_indices = None
        flatness = None
        if config.measure_evm_enabled:
            try:
                if burst.config.ofdm is not None:
                    # OFDM family: synchronized demodulation yields the
                    # aggregate EVM plus the per-subcarrier structure; it
                    # reuses the dense render from above.
                    ofdm_metrics = measure_ofdm_evm(burst, render)
                    evm = ofdm_metrics.evm_percent
                    per_subcarrier = ofdm_metrics.per_subcarrier_evm_percent
                    subcarrier_indices = ofdm_metrics.subcarrier_indices
                    flatness = ofdm_metrics.spectral_flatness_db
                else:
                    evm = measure_evm(reconstructor, burst)
            except MeasurementError:
                evm = None
        return TxMeasurements(
            output_power=output_power,
            acpr_db=acpr,
            occupied_bandwidth_hz=obw,
            evm_percent=evm,
            spectrum=spectrum,
            per_subcarrier_evm_percent=per_subcarrier,
            subcarrier_indices=subcarrier_indices,
            spectral_flatness_db=flatness,
        )

    def _evaluate(self, measurements: TxMeasurements):
        """Compare the measurements against the profile limits."""
        profile = self._profile
        checks: list[CheckResult] = []

        worst_acpr = measurements.acpr_db["worst_db"]
        checks.append(
            CheckResult(
                name="acpr",
                verdict=Verdict.PASS if worst_acpr <= profile.acpr_limit_db else Verdict.FAIL,
                measured=worst_acpr,
                limit=profile.acpr_limit_db,
                details="worst of lower/upper adjacent channels, dB",
            )
        )

        obw_limit = profile.channel_bandwidth_hz
        checks.append(
            CheckResult(
                name="occupied_bandwidth",
                verdict=(
                    Verdict.PASS if measurements.occupied_bandwidth_hz <= obw_limit else Verdict.FAIL
                ),
                measured=measurements.occupied_bandwidth_hz,
                limit=obw_limit,
                details="99% occupied bandwidth, Hz",
            )
        )

        if measurements.evm_percent is None:
            checks.append(CheckResult(name="evm", verdict=Verdict.SKIPPED))
        else:
            checks.append(
                CheckResult(
                    name="evm",
                    verdict=(
                        Verdict.PASS
                        if measurements.evm_percent <= profile.evm_limit_percent
                        else Verdict.FAIL
                    ),
                    measured=measurements.evm_percent,
                    limit=profile.evm_limit_percent,
                    details="RMS EVM, percent",
                )
            )

        if profile.family == "ofdm" and profile.flatness_limit_db is not None:
            if measurements.spectral_flatness_db is None:
                checks.append(CheckResult(name="spectral_flatness", verdict=Verdict.SKIPPED))
            else:
                checks.append(
                    CheckResult(
                        name="spectral_flatness",
                        verdict=(
                            Verdict.PASS
                            if measurements.spectral_flatness_db <= profile.flatness_limit_db
                            else Verdict.FAIL
                        ),
                        measured=measurements.spectral_flatness_db,
                        limit=profile.flatness_limit_db,
                        details="per-subcarrier power spread (max/min), dB",
                    )
                )

        mask_result = None
        if profile.mask_points_db:
            mask = SpectralMask.from_profile(profile)
            mask_result = mask.check(
                measurements.spectrum, channel_centre_hz=self._transmitter.carrier_frequency
            )
            checks.append(
                CheckResult(
                    name="spectral_mask",
                    verdict=Verdict.PASS if mask_result.passed else Verdict.FAIL,
                    measured=mask_result.worst_margin_db,
                    limit=0.0,
                    details=(
                        f"worst margin at {mask_result.worst_offset_hz / 1e6:+.1f} MHz offset, dB"
                    ),
                )
            )
        return checks, mask_result
