"""Shared fixtures and helpers for the benchmark / experiment harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(or one of our ablations) and *prints* the corresponding rows/series so that
``pytest benchmarks/ --benchmark-only -s`` reproduces the paper's artefacts.
The pytest-benchmark timing numbers are a by-product (they document the
computational cost of each experiment); the scientific content is the printed
output plus the assertions on the expected qualitative shape.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adc import AdcChannel, BpTiadc, DigitallyControlledDelayElement, UniformQuantizer
from repro.sampling import BandpassBand
from repro.transmitter import HomodyneTransmitter, TransmitterConfig

#: The paper's Section V operating point.
CARRIER_HZ = 1.0e9
BANDWIDTH_HZ = 90.0e6
SLOW_BANDWIDTH_HZ = 45.0e6
TRUE_DELAY_S = 180.0e-12
NUM_TAPS = 60
NUM_COST_POINTS = 300


def paper_band() -> BandpassBand:
    """The 90 MHz acquisition band centred on the 1 GHz carrier."""
    return BandpassBand.from_centre(CARRIER_HZ, BANDWIDTH_HZ)


def paper_converter(sample_rate: float = BANDWIDTH_HZ, seed: int = 2014) -> BpTiadc:
    """The paper's BP-TIADC: two 10-bit ADCs, 3 ps rms time-skew jitter."""
    return BpTiadc(
        sample_rate=sample_rate,
        dcde=DigitallyControlledDelayElement(resolution_seconds=1e-13),
        channel0=AdcChannel(quantizer=UniformQuantizer(10, 3.0)),
        channel1=AdcChannel(quantizer=UniformQuantizer(10, 3.0)),
        skew_jitter_rms_seconds=3.0e-12,
        seed=seed,
    )


@pytest.fixture(scope="session")
def paper_transmitter() -> HomodyneTransmitter:
    """The paper's transmitter: 10 MHz QPSK, SRRC 0.5, 1 GHz carrier."""
    return HomodyneTransmitter(TransmitterConfig.paper_default(seed=2014))


@pytest.fixture(scope="session")
def paper_acquisitions(paper_transmitter):
    """One burst acquired at B = 90 MHz and B1 = 45 MHz with D = 180 ps."""
    burst = paper_transmitter.transmit_for_duration(5.5e-6)
    fast_adc = paper_converter(BANDWIDTH_HZ)
    fast_adc.program_delay(TRUE_DELAY_S)
    slow_adc = fast_adc.with_sample_rate(SLOW_BANDWIDTH_HZ)
    fast = fast_adc.acquire(burst.rf_output, paper_band(), num_samples=400)
    slow = slow_adc.acquire(burst.rf_output, paper_band(), num_samples=200)
    return burst, fast, slow


def print_header(title: str) -> None:
    """Banner used by every benchmark's printed report."""
    bar = "=" * len(title)
    print(f"\n{bar}\n{title}\n{bar}")


def format_series(x, y, x_label: str, y_label: str, x_scale: float = 1.0, y_scale: float = 1.0) -> str:
    """Small fixed-width table for a printed (x, y) series."""
    lines = [f"{x_label:>16} {y_label:>16}", "-" * 34]
    for xi, yi in zip(np.asarray(x), np.asarray(y)):
        lines.append(f"{xi * x_scale:>16.4g} {yi * y_scale:>16.4g}")
    return "\n".join(lines)
