"""Property tests of the OFDM modulator/demodulator pair.

The BIST's closed-loop OFDM measurement relies on two exact properties of
the multicarrier round trip:

* modulate -> demodulate recovers every transmitted grid cell to machine
  precision, for any FFT size / CP length / oversampling combination;
* moving the FFT window to any integer critical-sample offset inside the
  cyclic prefix changes nothing (after the deterministic phase
  compensation) — this is what makes the measurement robust to residual
  timing error.
"""

import numpy as np
import pytest

from repro.errors import MeasurementError, ValidationError
from repro.signals.ofdm import (
    OfdmDemodulator,
    OfdmModulator,
    OfdmParams,
    _whole_symbol_metrics,
    build_used_grid,
    ofdm_grid_metrics,
)

#: (fft_size, num_subcarriers, cp_length) corners exercised by the suite.
LAYOUTS = [(16, 12, 4), (32, 26, 8), (64, 52, 16), (128, 100, 12)]


def random_grid_data(params: OfdmParams, num_symbols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    size = num_symbols * params.num_data_subcarriers
    # Random 16QAM-like points (any complex values round-trip; QAM keeps the
    # magnitudes representative).
    levels = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)
    return rng.choice(levels, size=size) + 1j * rng.choice(levels, size=size)


class TestParams:
    def test_layout_counts_are_consistent(self):
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8, pilot_spacing=7)
        assert params.num_data_subcarriers + params.num_pilot_subcarriers == 26
        assert params.symbol_length == 40
        indices = params.subcarrier_indices
        assert indices.size == 26
        assert 0 not in indices  # DC null
        assert np.array_equal(indices, np.sort(indices))
        assert indices.min() == -13 and indices.max() == 13

    def test_pilot_pattern_is_deterministic_comb(self):
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8, pilot_spacing=7)
        assert np.array_equal(params.pilot_positions, [0, 7, 14, 21])
        assert np.array_equal(params.pilot_values, [1.0, -1.0, 1.0, -1.0])

    def test_rate_descriptors(self):
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8)
        assert params.subcarrier_spacing_hz(10e6) == pytest.approx(312.5e3)
        assert params.symbol_duration_seconds(10e6) == pytest.approx(4.0e-6)
        assert params.occupied_bandwidth_hz(10e6) == pytest.approx(27 * 312.5e3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fft_size": 12},  # not a power of two
            {"fft_size": 4},  # too small
            {"num_subcarriers": 25},  # odd
            {"num_subcarriers": 32},  # no guard/DC room in a 32-FFT
            {"cp_length": 0},
            {"cp_length": 32},
            {"pilot_spacing": 1},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        base = dict(fft_size=32, num_subcarriers=26, cp_length=8)
        base.update(kwargs)
        with pytest.raises(ValidationError):
            OfdmParams(**base)

    def test_round_trip_serialization(self):
        params = OfdmParams(fft_size=64, num_subcarriers=48, cp_length=12, pilot_spacing=5)
        assert OfdmParams.from_dict(params.to_dict()) == params
        assert OfdmParams.from_dict({**params.to_dict(), "future_key": 1}) == params


class TestModulatorStructure:
    def test_guard_bands_and_dc_are_empty(self):
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8)
        modulator = OfdmModulator(params)
        data = random_grid_data(params, 4, seed=1)
        samples = modulator.modulate(data)
        # Strip CPs, FFT each symbol: unused bins must be numerically zero.
        frames = samples.reshape(4, params.symbol_length)[:, params.cp_length :]
        bins = np.fft.fft(frames, axis=1)
        used = set(int(k) % params.fft_size for k in params.subcarrier_indices)
        unused = [k for k in range(params.fft_size) if k not in used]
        peak = np.max(np.abs(bins))
        assert np.max(np.abs(bins[:, unused])) < 1e-12 * max(peak, 1.0)
        assert np.max(np.abs(bins[:, 0])) < 1e-12 * max(peak, 1.0)

    def test_cyclic_prefix_copies_symbol_tail(self):
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8)
        modulator = OfdmModulator(params, oversampling=2)
        samples = modulator.modulate(random_grid_data(params, 3, seed=2))
        per_symbol = modulator.samples_per_symbol
        cp = params.cp_length * 2
        for m in range(3):
            frame = samples[m * per_symbol : (m + 1) * per_symbol]
            np.testing.assert_allclose(frame[:cp], frame[-cp:], rtol=0, atol=1e-15)

    def test_oversampling_preserves_envelope_power(self):
        # Parseval makes the FFT-window power exactly oversampling-invariant;
        # the cyclic prefix is a partial window, so the whole-stream power
        # only agrees to the sub-percent level.
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8)
        data = random_grid_data(params, 8, seed=3)
        p1 = np.mean(np.abs(OfdmModulator(params, 1).modulate(data)) ** 2)
        p4 = np.mean(np.abs(OfdmModulator(params, 4).modulate(data)) ** 2)
        assert p4 == pytest.approx(p1, rel=0.02)
        frames1 = OfdmModulator(params, 1).modulate(data).reshape(8, -1)[:, params.cp_length :]
        frames4 = OfdmModulator(params, 4).modulate(data).reshape(8, -1)[:, 4 * params.cp_length :]
        assert np.mean(np.abs(frames4) ** 2) == pytest.approx(
            np.mean(np.abs(frames1) ** 2), rel=1e-12
        )

    def test_partial_grid_is_rejected(self):
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8)
        with pytest.raises(ValidationError):
            OfdmModulator(params).modulate(np.ones(params.num_data_subcarriers + 1, complex))

    def test_round_up_data_symbols(self):
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8, pilot_spacing=7)
        modulator = OfdmModulator(params)
        per = params.num_data_subcarriers
        assert modulator.round_up_data_symbols(1) == per
        assert modulator.round_up_data_symbols(per) == per
        assert modulator.round_up_data_symbols(per + 1) == 2 * per


@pytest.mark.parametrize("fft_size,num_subcarriers,cp_length", LAYOUTS)
@pytest.mark.parametrize("oversampling", [1, 4])
class TestRoundTrip:
    def test_mod_demod_recovers_grid_to_machine_precision(
        self, fft_size, num_subcarriers, cp_length, oversampling
    ):
        params = OfdmParams(
            fft_size=fft_size, num_subcarriers=num_subcarriers, cp_length=cp_length
        )
        data = random_grid_data(params, 6, seed=fft_size + oversampling)
        samples = OfdmModulator(params, oversampling).modulate(data)
        grid = OfdmDemodulator(params, oversampling).demodulate(samples)
        np.testing.assert_allclose(grid, build_used_grid(params, data), rtol=0, atol=1e-12)

    def test_window_offset_inside_cp_is_exactly_compensated(
        self, fft_size, num_subcarriers, cp_length, oversampling
    ):
        params = OfdmParams(
            fft_size=fft_size, num_subcarriers=num_subcarriers, cp_length=cp_length
        )
        data = random_grid_data(params, 5, seed=99 + fft_size)
        samples = OfdmModulator(params, oversampling).modulate(data)
        demodulator = OfdmDemodulator(params, oversampling)
        reference = build_used_grid(params, data)
        for backoff in {0, 1, cp_length // 2, cp_length}:
            grid = demodulator.demodulate(samples, timing_backoff=backoff)
            np.testing.assert_allclose(grid, reference, rtol=0, atol=1e-12)


class TestDemodulatorEdges:
    def test_backoff_outside_cp_is_rejected(self):
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8)
        samples = OfdmModulator(params).modulate(random_grid_data(params, 2, seed=4))
        with pytest.raises(ValidationError):
            OfdmDemodulator(params).demodulate(samples, timing_backoff=9)

    def test_requesting_more_symbols_than_available_raises(self):
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8)
        samples = OfdmModulator(params).modulate(random_grid_data(params, 2, seed=5))
        with pytest.raises(MeasurementError):
            OfdmDemodulator(params).demodulate(samples, num_symbols=3)

    def test_data_and_pilot_split(self):
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8, pilot_spacing=7)
        data = random_grid_data(params, 3, seed=6)
        samples = OfdmModulator(params).modulate(data)
        grid = OfdmDemodulator(params).demodulate(samples)
        np.testing.assert_allclose(
            grid[:, params.data_positions],
            data.reshape(3, params.num_data_subcarriers),
            rtol=0,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            grid[:, params.pilot_positions],
            np.tile(params.pilot_values, (3, 1)),
            rtol=0,
            atol=1e-12,
        )


class TestGridMetrics:
    def test_perfect_grid_has_zero_evm_and_flat_channel(self):
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8)
        reference = build_used_grid(params, random_grid_data(params, 10, seed=7))
        metrics = ofdm_grid_metrics(params, reference, reference)
        assert metrics.evm_percent < 1e-10
        assert max(metrics.per_subcarrier_evm_percent) < 1e-10
        assert abs(metrics.spectral_flatness_db) < 1e-10
        assert metrics.num_symbols == 10
        assert metrics.subcarrier_indices == tuple(int(k) for k in params.subcarrier_indices)

    def test_single_subcarrier_distortion_is_localised(self):
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8)
        reference = build_used_grid(params, random_grid_data(params, 50, seed=8))
        received = reference.copy()
        received[:, 5] *= 0.5  # one subcarrier loses half its amplitude
        metrics = ofdm_grid_metrics(params, reference, received)
        per_subcarrier = np.asarray(metrics.per_subcarrier_evm_percent)
        assert int(np.argmax(per_subcarrier)) == 5
        # Every other subcarrier only sees the small common-gain shift.
        others = np.delete(per_subcarrier, 5)
        assert per_subcarrier[5] > 10.0 * np.max(others)
        assert metrics.spectral_flatness_db > 3.0

    def test_shape_mismatch_raises(self):
        params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8)
        reference = build_used_grid(params, random_grid_data(params, 4, seed=9))
        with pytest.raises(ValidationError):
            ofdm_grid_metrics(params, reference, reference[:, :-1])
        with pytest.raises(ValidationError):
            ofdm_grid_metrics(params, reference[:, :-1], reference[:, :-1])


class TestWholeSymbolMetrics:
    """The whole-symbol demodulator shared by batch OFDM EVM and the monitor."""

    params = OfdmParams(fft_size=32, num_subcarriers=26, cp_length=8)
    oversampling = 2
    #: One critical sample per second, so a symbol lasts ``symbol_length`` seconds.
    rate = 2.0
    duration = 40.0

    def stream(self, num_symbols, seed):
        data = random_grid_data(self.params, num_symbols, seed=seed)
        envelope = OfdmModulator(self.params, self.oversampling).modulate(data)
        return build_used_grid(self.params, data), envelope

    def metrics(self, reference, envelope, usable, **kwargs):
        return _whole_symbol_metrics(
            self.params,
            self.oversampling,
            reference,
            envelope,
            self.rate,
            0.0,
            usable,
            self.duration,
            **kwargs,
        )

    def test_keeps_the_symbols_whole_inside_the_usable_interval(self):
        reference, envelope = self.stream(10, seed=21)
        # Symbols 3 to 6 lie whole inside [2.5 d, 7.2 d); the straddling 2 and 7 are dropped.
        metrics = self.metrics(reference, envelope, (2.5 * self.duration, 7.2 * self.duration))
        assert metrics.num_symbols == 4
        assert metrics.evm_percent < 1e-9

    def test_symbol_grid_may_start_inside_the_envelope(self):
        reference, envelope = self.stream(10, seed=22)
        padded = np.concatenate([np.zeros(13, dtype=complex), envelope])
        end = (padded.size - 1) / self.rate
        metrics = self.metrics(reference, padded, (0.0, end), symbol_start=13 / self.rate)
        # Symbol 9 ends after the last sample, so 0 to 8 are kept.
        assert metrics.num_symbols == 9
        assert metrics.evm_percent < 1e-9

    def test_symbols_past_the_reference_grid_are_not_kept(self):
        reference, envelope = self.stream(6, seed=23)
        tail = np.zeros(3 * self.params.symbol_length * self.oversampling, dtype=complex)
        padded = np.concatenate([envelope, tail])
        metrics = self.metrics(reference, padded, (0.0, (padded.size - 1) / self.rate))
        assert metrics.num_symbols == 6
        assert metrics.evm_percent < 1e-9

    def test_fewer_than_two_whole_symbols_raise(self):
        reference, envelope = self.stream(4, seed=24)
        with pytest.raises(MeasurementError, match="covers 1 whole OFDM symbol"):
            self.metrics(reference, envelope, (0.5 * self.duration, 2.5 * self.duration))

    def test_min_symbols_is_honoured(self):
        reference, envelope = self.stream(6, seed=25)
        usable = (0.0, 4.5 * self.duration)
        assert self.metrics(reference, envelope, usable, min_symbols=4).num_symbols == 4
        with pytest.raises(MeasurementError, match="at least 5 needed"):
            self.metrics(reference, envelope, usable, min_symbols=5)
