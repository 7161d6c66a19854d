"""Generated block partitions of monitored bursts leave the report unchanged.

The monitor's "streaming = batch under any block partition" contract, over
generated partitions of transmitted bursts with EVM measured: a
single-carrier ``paper-qpsk-1ghz`` burst (512 symbols) and an OFDM
``ofdm-uhf-qpsk-400mhz`` burst (1,024 constellation symbols, 7,520
samples).  Each is monitored with a window that is a whole number of Welch
steps (1,024 samples; 256-sample segments step by 128) and one that is not
(1,000 samples).  Every partition must give the report of a one-block
ingest, bit for bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import StreamingMonitor
from repro.signals.standards import get_profile
from repro.transmitter import HomodyneTransmitter, TransmitterConfig

SEGMENT_LENGTH = 256
WINDOW_SIZES = (1024, 1000)
#: profile -> (transmitter seed, num_symbols)
BURSTS = {
    "paper-qpsk-1ghz": (2014, 512),
    "ofdm-uhf-qpsk-400mhz": (3, 1024),
}


def monitored_report(burst, window_samples, blocks):
    monitor = StreamingMonitor.from_transmission(
        burst, window_samples=window_samples, segment_length=SEGMENT_LENGTH
    )
    for block in blocks:
        monitor.ingest(block)
    return monitor.report().to_dict()


@pytest.fixture(scope="module")
def sessions():
    """Per profile: the burst and its one-block report for each window size."""
    built = {}
    for profile, (seed, num_symbols) in BURSTS.items():
        config = TransmitterConfig.from_profile(get_profile(profile), seed=seed)
        burst = HomodyneTransmitter(config).transmit(num_symbols=num_symbols)
        samples = burst.output_envelope.samples
        whole = {size: monitored_report(burst, size, [samples]) for size in WINDOW_SIZES}
        built[profile] = (burst, whole)
    return built


@pytest.mark.parametrize("profile", sorted(BURSTS))
def test_bursts_measure_evm_in_every_window(sessions, profile):
    _, whole = sessions[profile]
    for report in whole.values():
        assert report["windows"]
        assert all(window["evm_percent"] is not None for window in report["windows"])


@pytest.mark.parametrize("profile", sorted(BURSTS))
@given(data=st.data(), window_samples=st.sampled_from(WINDOW_SIZES))
@settings(max_examples=25, deadline=None)
def test_any_block_partition_reproduces_the_one_block_report(
    sessions, profile, data, window_samples
):
    burst, whole = sessions[profile]
    samples = burst.output_envelope.samples
    # Cut points anywhere in the stream, repeats allowed: blocks of one
    # sample and empty blocks are both reachable.
    cuts = sorted(
        data.draw(st.lists(st.integers(min_value=0, max_value=samples.size), max_size=30))
    )
    edges = [0, *cuts, samples.size]
    blocks = [samples[start:stop] for start, stop in zip(edges, edges[1:])]
    assert monitored_report(burst, window_samples, blocks) == whole[window_samples]
