"""Quickstart: run the paper's RF BIST end to end on one transmitter.

This script builds the behavioural platform of the paper (Section V):

* a homodyne transmitter sending 10 MHz QPSK shaped by an SRRC filter
  (roll-off 0.5) on a 1 GHz carrier;
* the receiver's two 10-bit ADCs reconfigured as a bandpass time-interleaved
  converter (BP-TIADC) running at B = 90 MHz per channel with a programmable
  inter-channel delay of nominally 180 ps and 3 ps rms time-skew jitter;

and then runs the complete BIST: acquisition at B and B/2, LMS time-skew
estimation, nonuniform reconstruction, and spectral-mask / ACPR / occupied
bandwidth / EVM checks against the built-in "paper-qpsk-1ghz" profile.

Run with:  python examples/quickstart.py
"""

from repro.bist import BistConfig, ConverterSpec, TransmitterBist
from repro.transmitter import HomodyneTransmitter, TransmitterConfig


def main() -> None:
    # 1. The device under test: the paper's transmitter, impairment-free.
    transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=1))

    # 2. The acquisition hardware: the receiver ADCs plus the DCDE.  The DCDE
    #    static error and the channel-1 skew model the (unknown to the DSP)
    #    difference between the programmed and the physical delay.
    config = BistConfig()  # the paper's defaults: B = 90 MHz, D = 180 ps, 61 taps
    converter = ConverterSpec(
        dcde_static_error_seconds=6e-12,
        channel1_skew_seconds=2e-12,
        seed=42,
    )(config.acquisition_bandwidth_hz)

    # 3. Run the BIST.
    engine = TransmitterBist(transmitter, converter, profile="paper-qpsk-1ghz", config=config)
    report = engine.run()

    # 4. Inspect the outcome.
    print(report.to_text())
    print()
    calibration = report.calibration
    print(
        "time-skew calibration: programmed "
        f"{calibration.programmed_delay_seconds * 1e12:.1f} ps, physically realised "
        f"{calibration.true_delay_seconds * 1e12:.1f} ps, estimated "
        f"{calibration.estimated_delay_seconds * 1e12:.2f} ps "
        f"(error {calibration.estimation_error_seconds * 1e12:.3f} ps)"
    )
    print(f"overall verdict: {report.verdict.value.upper()}")


if __name__ == "__main__":
    main()
