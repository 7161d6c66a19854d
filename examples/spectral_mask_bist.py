"""Spectral-mask BIST: catching a compressing power amplifier.

The paper motivates the whole architecture with spectral-mask compliance:
"the most vexing post-manufacture test issue for tactical radio units".  This
example tests two units of the same transmitter design - one healthy, one
with a power amplifier that compresses (a realistic manufacturing/thermal
fault) - and shows how the BIST separates them via the reconstructed output
spectrum.

Run with:  python examples/spectral_mask_bist.py
"""

import numpy as np

from repro.bist import BistConfig, ConverterSpec, SpectralMask, TransmitterBist
from repro.rf import RappAmplifier
from repro.signals import get_profile
from repro.transmitter import HomodyneTransmitter, ImpairmentConfig, TransmitterConfig


def run_unit(label: str, impairments: ImpairmentConfig, config: BistConfig):
    """Run the BIST on one unit and return its report."""
    transmitter = HomodyneTransmitter(
        TransmitterConfig.paper_default(impairments=impairments, seed=10)
    )
    converter = ConverterSpec(
        dcde_static_error_seconds=5e-12,
        channel1_skew_seconds=2e-12,
        seed=77,
    )(config.acquisition_bandwidth_hz)
    engine = TransmitterBist(transmitter, converter, profile="paper-qpsk-1ghz", config=config)
    report = engine.run()
    print(f"\n--- {label} ---")
    print(report.to_text())
    return report


def print_mask_table(report, profile) -> None:
    """Print measured PSD vs mask limit at a few representative offsets."""
    mask = SpectralMask.from_profile(profile)
    spectrum = report.measurements.spectrum
    relative_db = spectrum.normalised_db()
    print(f"{'offset [MHz]':>14} {'measured [dB]':>15} {'mask limit [dB]':>16}")
    for offset_mhz in (8.0, 10.0, 15.0, 20.0, 30.0, 40.0):
        frequency = profile.carrier_frequency_hz + offset_mhz * 1e6
        index = int(np.argmin(np.abs(spectrum.frequencies_hz - frequency)))
        print(
            f"{offset_mhz:>14.1f} {relative_db[index]:>15.1f} "
            f"{mask.limit_at(offset_mhz * 1e6):>16.1f}"
        )


def main() -> None:
    profile = get_profile("paper-qpsk-1ghz")
    config = BistConfig(measure_evm_enabled=True)

    healthy = run_unit("healthy unit", ImpairmentConfig.ideal(), config)
    faulty = run_unit(
        "unit with compressing PA",
        ImpairmentConfig.ideal().with_amplifier(
            RappAmplifier(gain_db=0.0, saturation_amplitude=0.75, smoothness=1.2)
        ),
        config,
    )

    print("\nspectral detail of the faulty unit (regrowth visible beyond +/-10 MHz):")
    print_mask_table(faulty, profile)

    print("\nsummary:")
    print(f"  healthy unit: {healthy.verdict.value.upper()}")
    print(f"  faulty unit : {faulty.verdict.value.upper()}")
    print(
        "  faulty-unit worst mask margin: "
        f"{faulty.check('spectral_mask').measured:.1f} dB at the reported offset; "
        f"ACPR {faulty.check('acpr').measured:.1f} dB vs limit {faulty.check('acpr').limit:.1f} dB"
    )


if __name__ == "__main__":
    main()
