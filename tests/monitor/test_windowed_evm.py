"""Windowed EVM through the per-session kernel table, against the per-window route.

``oracle_evm`` is the route ``windowed_evm`` took before
:class:`~repro.monitor.SymbolKernelTable`: matched-filter the whole window
with the conjugate pulse, then ``sinc_interpolate`` the output at the chosen
symbol instants.  The one change from that route is the matched filter's
trim: ``N // 2`` samples of an ``N``-tap pulse, which with the transmitter's
``(N - 1) // 2`` removes the cascade's ``N - 1`` delay for either parity of
``N``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist import BistConfig, ConverterSpec, TransmitterBist, Verdict
from repro.dsp import sinc_interpolate
from repro.dsp.metrics import error_vector_magnitude
from repro.errors import ValidationError
from repro.monitor import StreamingMonitor, SymbolKernelTable, SymbolReference, windowed_evm
from repro.monitor.evm import _narrowest_evm_window
from repro.signals import root_raised_cosine_taps
from repro.signals.standards import get_profile
from repro.transmitter import HomodyneTransmitter, TransmitterConfig

INTERPOLATION_TAPS = 32
RELATIVE_TOLERANCE = 1e-9
SYMBOL_RATE = 10.0e6
#: Sample phases of the stream clock against the symbol clock, in samples;
#: 53 1/3 is where ``TransmitterBist.stream()`` starts the paper's stream.
PHASES = (0.0, 1 / 3, 0.5, 0.77, -0.25, 53 + 1 / 3)


def oracle_symbols(num_samples, sample_rate, window_start_time, reference):
    """``(first, last)`` symbol indices the window's guard margins keep, or ``None``."""
    margin = ((reference.pulse_taps.size - 1) // 2 + INTERPOLATION_TAPS) / sample_rate
    usable_low = window_start_time + margin
    usable_high = window_start_time + (num_samples - 1) / sample_rate - margin
    if usable_high <= usable_low:
        return None
    symbol_period = 1.0 / reference.symbol_rate_hz
    first = max(int(np.ceil((usable_low - reference.start_time) / symbol_period)), 0)
    last = min(
        int(np.floor((usable_high - reference.start_time) / symbol_period)),
        reference.symbols.size - 1,
    )
    return first, last


def oracle_evm(envelope, sample_rate, window_start_time, reference, first, last):
    """EVM of symbols ``first..last`` by full-window matched filter + ``sinc_interpolate``."""
    taps = reference.pulse_taps
    matched = np.convolve(envelope, np.conj(taps[::-1].astype(complex)))
    trim = taps.size // 2
    matched = matched[trim : trim + envelope.size]
    indices = np.arange(first, last + 1)
    symbol_times = reference.start_time + indices * (1.0 / reference.symbol_rate_hz)
    received = sinc_interpolate(
        matched,
        sample_rate,
        symbol_times,
        start_time=window_start_time,
        num_taps=INTERPOLATION_TAPS,
    )
    sent = reference.symbols[indices]
    gain = np.vdot(received, sent) / np.vdot(received, received)
    return float(error_vector_magnitude(sent, received * gain, as_percent=True))


def assert_matches_oracle(envelope, start_sample, table, min_symbols):
    """Same ``None`` decision, same symbols and EVM within 1e-9 of the oracle."""
    sample_rate = table.sample_rate
    window_start_time = table.start_time + start_sample / sample_rate
    chosen = oracle_symbols(envelope.size, sample_rate, window_start_time, table.reference)
    count = 0 if chosen is None else max(chosen[1] - chosen[0] + 1, 0)
    # Asking for exactly `count` symbols must succeed and one more must not:
    # the window demodulates as many symbols as the oracle keeps.
    for wanted in sorted({min_symbols, max(count, 1), count + 1}):
        got = windowed_evm(envelope, start_sample, table, min_symbols=wanted)
        if count < wanted:
            assert got is None
            continue
        want = oracle_evm(envelope, sample_rate, window_start_time, table.reference, *chosen)
        assert got is not None
        # One symbol fits its gain exactly: that EVM is rounding noise, so
        # the tolerance is relative to no less than 0.001 %.
        assert abs(got - want) <= RELATIVE_TOLERANCE * max(want, 1e-3)


@st.composite
def monitored_windows(draw):
    """A reference, its session table, and one window of the stream."""
    kind = draw(st.sampled_from(["integer", "rational", "irregular"]))
    if kind == "integer":
        step = float(draw(st.integers(min_value=2, max_value=20)))
    elif kind == "rational":
        denominator = draw(st.integers(min_value=2, max_value=5))
        step = draw(st.integers(min_value=2 * denominator + 1, max_value=20 * denominator))
        step /= denominator
    else:
        step = draw(st.floats(min_value=2.0, max_value=20.0))
    sample_rate = step * SYMBOL_RATE
    # Odd and even tap counts both occur.
    taps = root_raised_cosine_taps(
        draw(st.integers(min_value=2, max_value=8)),
        draw(st.integers(min_value=2, max_value=8)),
        0.5,
    )
    if draw(st.booleans()):
        # A frequency-shifted pulse: complex taps, whose conjugate matters.
        taps = taps * np.exp(0.3j * np.linspace(-1.0, 1.0, taps.size))
    num_symbols = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    symbols = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, num_symbols)))
    offsets = st.sampled_from(PHASES) | st.floats(min_value=-80.0, max_value=80.0)
    reference = SymbolReference(
        symbols=symbols,
        symbol_rate_hz=SYMBOL_RATE,
        pulse_taps=taps,
        start_time=draw(offsets) / sample_rate,
    )
    table = SymbolKernelTable(reference, sample_rate, start_time=draw(offsets) / sample_rate)
    window_samples = draw(st.integers(min_value=16, max_value=4000))
    start_sample = draw(st.integers(min_value=0, max_value=int(num_symbols * step) + 100))
    envelope = rng.standard_normal(window_samples) + 1j * rng.standard_normal(window_samples)
    min_symbols = draw(st.integers(min_value=1, max_value=40))
    return envelope, start_sample, table, min_symbols


def kernel_rows(table) -> int:
    """Kernel rows a table built for its session; 0 when each window builds its own."""
    return 0 if table._rows is None else len(table._rows)


class TestMatchesThePerWindowRoute:
    @given(window=monitored_windows())
    @settings(max_examples=150, deadline=None)
    def test_generated_windows(self, window):
        assert_matches_oracle(*window)

    @pytest.mark.parametrize("phase", PHASES)
    def test_transmitted_burst_at_every_phase(self, phase):
        # A real burst demodulates to a small EVM, where a timing or kernel
        # error shows most; integer oversampling keeps one kernel row.
        config = TransmitterConfig.from_profile(get_profile("paper-qpsk-1ghz"), seed=2014)
        burst = HomodyneTransmitter(config).transmit(num_symbols=1024)
        samples = burst.output_envelope.samples
        sample_rate = burst.output_envelope.sample_rate
        table = SymbolKernelTable(
            SymbolReference.from_transmission(burst),
            sample_rate,
            start_time=burst.output_envelope.start_time + phase / sample_rate,
        )
        assert kernel_rows(table) == 1
        window_samples = 2048
        for start in range(0, samples.size - window_samples + 1, window_samples):
            assert_matches_oracle(samples[start : start + window_samples], start, table, 16)


class TestKernelRows:
    @staticmethod
    def table(step, num_symbols=300, offset=0.0):
        sample_rate = step * SYMBOL_RATE
        reference = SymbolReference(
            symbols=np.ones(num_symbols, dtype=complex),
            symbol_rate_hz=SYMBOL_RATE,
            pulse_taps=root_raised_cosine_taps(4, 6, 0.5),
        )
        return SymbolKernelTable(reference, sample_rate, start_time=offset / sample_rate)

    @pytest.mark.parametrize("offset", PHASES)
    def test_whole_samples_per_symbol_share_one_row(self, offset):
        assert kernel_rows(self.table(16.0, offset=offset)) == 1

    @pytest.mark.parametrize("step, rows", [(16 / 3, 3), (5 / 2, 2), (37 / 5, 5)])
    def test_a_p_over_q_step_gives_q_rows(self, step, rows):
        assert kernel_rows(self.table(step)) == rows

    def test_unrepeated_phases_get_per_window_rows(self):
        assert kernel_rows(self.table(5.123456789123)) == 0

    def test_single_symbol_reference(self):
        assert kernel_rows(self.table(16.0, num_symbols=1)) == 0

    def test_windowed_evm_needs_a_table(self):
        reference = self.table(16.0).reference
        with pytest.raises(ValidationError):
            windowed_evm(np.ones(4096, dtype=complex), 0, reference)


class TestNarrowestWindow:
    @pytest.mark.parametrize("offset", PHASES)
    def test_every_start_measures_and_one_sample_less_does_not(self, offset):
        # The width TransmitterBist.stream() widens its default window to,
        # for the paper's 161-tap SRRC at 16 samples per symbol.  With the
        # instants on whole samples one sample less still holds 16 of them
        # in exact arithmetic, but not at a fractional phase.
        sample_rate = 16 * SYMBOL_RATE
        reference = SymbolReference(
            symbols=np.ones(300, dtype=complex),
            symbol_rate_hz=SYMBOL_RATE,
            pulse_taps=root_raised_cosine_taps(16, 10, 0.5),
        )
        table = SymbolKernelTable(reference, sample_rate, start_time=offset / sample_rate)
        width = _narrowest_evm_window(reference, sample_rate, 16)
        assert width == 2 * (80 + INTERPOLATION_TAPS) + 16 * 16 + 1
        rng = np.random.default_rng(3)
        envelope = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        starts = range(1000, 1016)
        assert all(windowed_evm(envelope, start, table) is not None for start in starts)
        if offset % 1:
            assert any(windowed_evm(envelope[:-1], start, table) is None for start in starts)


class TestEvenTapCountPulses:
    """``samples_per_symbol * pulse_span_symbols`` odd gives an even-tap SRRC.

    The receiver used to trim ``(N - 1) // 2`` samples like the transmitter,
    one short of the cascade's ``N - 1`` delay, and read every symbol one
    envelope sample off its peak: a clean transmitter read 17-25 % EVM.
    """

    @pytest.mark.parametrize("samples_per_symbol, span_symbols", [(5, 5), (7, 3)])
    def test_clean_transmitter_reads_a_small_evm(self, samples_per_symbol, span_symbols):
        config = dataclasses.replace(
            TransmitterConfig.paper_default(seed=21),
            samples_per_symbol=samples_per_symbol,
            pulse_span_symbols=span_symbols,
        )
        assert (samples_per_symbol * span_symbols + 1) % 2 == 0

        bist_config = BistConfig()
        converter = ConverterSpec(
            dcde_static_error_seconds=5e-12,
            channel1_skew_seconds=2e-12,
            seed=5,
        )(bist_config.acquisition_bandwidth_hz)
        report = TransmitterBist(HomodyneTransmitter(config), converter, config=bist_config).run()
        evm_check = next(check for check in report.checks if check.name == "evm")
        assert evm_check.verdict is Verdict.PASS
        assert report.measurements.evm_percent < 5.0

        burst = HomodyneTransmitter(config).transmit(num_symbols=512)
        monitor = StreamingMonitor.from_transmission(burst, window_samples=1024)
        monitor.ingest(burst.output_envelope.samples)
        evms = [window.evm_percent for window in monitor.report().windows]
        assert evms and all(evm is not None and evm < 5.0 for evm in evms)
