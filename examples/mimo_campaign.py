"""2T2R channel-matrix BIST: the full loop per TX x RX combination.

Hardware bring-up guides for 2T2R front ends (PlutoSDR/AD9363-class)
qualify every transmit chain against every receive path and tabulate the
verdicts — TX1/RX1 ... TX2/RX2.  This example mirrors that procedure in
simulation on three layers of ``repro.mimo``:

1. a :class:`~repro.mimo.MimoTransmitter` transmits one simultaneous burst
   on both chains, with a saturating power amplifier injected into chain 1
   (TX2) *only* via a per-chain configuration override;
2. every combination runs the complete BIST loop — acquisition through its
   own :class:`~repro.adc.acquisition.AcquisitionSource`, LMS skew
   calibration, nonuniform reconstruction, spectrum measurements, limit
   checks — and the verdicts land in a
   :class:`~repro.mimo.ChannelMatrixReport`;
3. the recorded acquisitions are saved to ``.npz`` captures in a temporary
   directory, loaded back and replayed through
   :class:`~repro.adc.acquisition.CapturedSamplesSource` to demonstrate the
   hardware seam: the replayed matrix is bit-identical to the simulated one.

The expected outcome: TX1 passes on every receive path, TX2 fails on every
receive path (the PA fault travels with the chain, not the receiver).

Run with:  PYTHONPATH=src python examples/mimo_campaign.py [--fast] [--output matrix.json]
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.adc.acquisition import AcquisitionCapture, CapturedSamplesSource, RecordingSource
from repro.bist import BistConfig, ConverterSpec
from repro.mimo import MimoSpec, MimoTransmitter, run_channel_matrix
from repro.rf import RappAmplifier
from repro.transmitter import ImpairmentConfig, TransmitterConfig


def build_transmitter() -> MimoTransmitter:
    """A 2T2R array: chain 0 nominal, chain 1 (TX2) driven into saturation."""
    impaired = ImpairmentConfig().with_amplifier(
        RappAmplifier(gain_db=0.0, saturation_amplitude=0.75, smoothness=1.2)
    )
    return MimoTransmitter(
        base_config=TransmitterConfig.paper_default(),
        spec=MimoSpec(num_chains=2),
        chain_overrides=[None, {"impairments": impaired}],
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true", help="smaller captures for a quick smoke run"
    )
    parser.add_argument(
        "--output", type=str, default=None, help="write the channel-matrix JSON here"
    )
    args = parser.parse_args()

    config = BistConfig(
        num_samples_fast=512,
        num_samples_slow=256,
        lms_max_iterations=40 if args.fast else 60,
        num_cost_points=120 if args.fast else 200,
        measure_evm_enabled=False,
    )
    rx_spec = ConverterSpec(skew_jitter_rms_seconds=1.0e-12)

    # ---------------------------------------------------------------- #
    # Simulated run, recorded at the acquisition seam
    # ---------------------------------------------------------------- #
    recorders = {}

    def recording_factory(tx_index, rx_index, spec, bandwidth):
        source = RecordingSource(spec.build(bandwidth))
        recorders[(tx_index, rx_index)] = source
        return source

    started = time.perf_counter()
    report = run_channel_matrix(
        build_transmitter(),
        config=config,
        rx_specs=rx_spec,
        seed=7,
        source_factory=recording_factory,
    )
    elapsed = time.perf_counter() - started

    print(report.to_table())
    print()
    print(f"matrix of {len(report.entries)} full BIST runs in {elapsed:.1f} s")
    failures = report.failures()
    assert set(failures) == {"TX2/RX1", "TX2/RX2"}, (
        f"expected the TX2-only fault to fail exactly the TX2 row, got {failures}"
    )
    print(f"TX2-only fault isolated: {', '.join(failures)} FAIL, TX1 row PASS")

    # ---------------------------------------------------------------- #
    # Replay from disk through the hardware seam: bit-identical verdicts
    # ---------------------------------------------------------------- #
    with tempfile.TemporaryDirectory() as capture_dir:
        paths = {}
        for (tx_index, rx_index), source in recorders.items():
            path = Path(capture_dir) / f"tx{tx_index + 1}-rx{rx_index + 1}.npz"
            source.capture().save(path)
            paths[(tx_index, rx_index)] = path

        def replay_factory(tx_index, rx_index, spec, bandwidth):
            return CapturedSamplesSource(AcquisitionCapture.load(paths[(tx_index, rx_index)]))

        replayed = run_channel_matrix(
            build_transmitter(),
            config=config,
            rx_specs=rx_spec,
            seed=7,
            source_factory=replay_factory,
        )
    assert replayed.to_dict() == report.to_dict(), (
        "replaying the recorded captures must reproduce the matrix bit-for-bit"
    )
    print(
        f"replay of {len(paths)} .npz captures through CapturedSamplesSource is "
        "bit-identical to the simulated run"
    )

    if args.output:
        payload = {
            "summary": report.summary(),
            "matrix": report.to_dict(),
            "elapsed_seconds": elapsed,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
