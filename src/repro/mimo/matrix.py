"""Channel-matrix BIST: the full loop per TX×RX combination.

Real 2T2R bring-up procedures (the PlutoSDR/AD9363 recovery guide's
TX1/RX1…TX2/RX2 table) qualify every transmit chain against every receive
path and render a per-combination pass/fail grid.  :func:`run_channel_matrix`
mirrors that: every chain of a :class:`~repro.mimo.transmitter.MimoTransmitter`
transmits one simultaneous burst, every (TX, RX) pair runs the *complete*
BIST loop — acquisition, LMS skew calibration, reconstruction, measurement,
limit checks — through its own acquisition source, and the verdicts are
collected into a serialisable :class:`ChannelMatrixReport` that renders the
pass/fail table and a compact JSON summary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..bist.campaign import ConverterSpec
from ..bist.engine import BistConfig, TransmitterBist
from ..bist.report import BistReport, check_margin
from ..errors import ValidationError
from .transmitter import MimoTransmitter

__all__ = [
    "ChannelMatrixEntry",
    "ChannelMatrixReport",
    "run_channel_matrix",
    "derive_matrix_seed",
]

#: Checks whose margins feed the per-combination worst-margin metric, with
#: the unit each margin carries (for display).
_MARGIN_CHECKS = (
    ("acpr", "dB"),
    ("occupied_bandwidth", "Hz"),
    ("evm", "%"),
    ("spectral_mask", "dB"),
)


def derive_matrix_seed(base_seed: int | None, tx: int, rx: int) -> int | None:
    """Deterministic per-combination converter seed (distinct per TX×RX cell)."""
    if base_seed is None:
        return None
    return (int(base_seed) * 0x9E3779B1 + 0x85EBCA6B * (tx * 257 + rx + 1)) % (2**32)


@dataclass(frozen=True)
class ChannelMatrixEntry:
    """One TX×RX combination's full BIST outcome.

    ``tx`` and ``rx`` are 1-based, matching the TX1/RX1 convention of
    hardware bring-up tables.
    """

    tx: int
    rx: int
    report: BistReport

    def __post_init__(self) -> None:
        if self.tx < 1 or self.rx < 1:
            raise ValidationError("tx and rx are 1-based combination indices")
        if not isinstance(self.report, BistReport):
            raise ValidationError("report must be a BistReport")

    @property
    def label(self) -> str:
        """The combination label (``"TX1/RX2"``)."""
        return f"TX{self.tx}/RX{self.rx}"

    @property
    def passed(self) -> bool:
        """Whether this combination passed every check."""
        return self.report.passed

    @property
    def output_power(self) -> float:
        """Measured output power of the combination (the table's RSSI analog)."""
        return self.report.measurements.output_power

    def margins(self) -> dict:
        """Absolute per-check margins (positive = headroom), skipped checks omitted."""
        return {
            name: margin
            for name, _ in _MARGIN_CHECKS
            if (margin := check_margin(self.report, name)) is not None
        }

    @property
    def worst_margin(self) -> tuple | None:
        """``(check_name, relative_margin)`` of the tightest check.

        Margins carry mixed units (dB, Hz, percent), so the comparison is on
        the margin *relative to its limit magnitude* — the fraction of the
        budget left.  ``None`` when every margin-bearing check was skipped.
        """
        worst = None
        for name, _ in _MARGIN_CHECKS:
            margin = check_margin(self.report, name)
            if margin is None:
                continue
            if name == "spectral_mask":
                # The mask check has no single limit; its margin is already
                # a dB headroom, normalised against a 3 dB reference budget.
                relative = margin / 3.0
            else:
                limit = self.report.check(name).limit
                if not limit:
                    continue
                relative = margin / abs(limit)
            if worst is None or relative < worst[1]:
                worst = (name, float(relative))
        return worst

    def to_dict(self) -> dict:
        """Complete JSON-friendly form (exact round trip via :meth:`from_dict`)."""
        worst = self.worst_margin
        return {
            "tx": self.tx,
            "rx": self.rx,
            "label": self.label,
            "passed": self.passed,
            "output_power": self.output_power,
            "margins": self.margins(),
            "worst_margin_check": None if worst is None else worst[0],
            "worst_margin_relative": None if worst is None else worst[1],
            "report": self.report.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelMatrixEntry":
        """Rebuild an entry serialized with :meth:`to_dict`."""
        return cls(
            tx=int(data["tx"]),
            rx=int(data["rx"]),
            report=BistReport.from_dict(data["report"]),
        )


@dataclass(frozen=True)
class ChannelMatrixReport:
    """The full TX×RX verdict grid of one MIMO BIST campaign."""

    num_tx: int
    num_rx: int
    entries: tuple

    def __post_init__(self) -> None:
        if self.num_tx < 1 or self.num_rx < 1:
            raise ValidationError("a channel matrix needs at least one TX and one RX")
        if len(self.entries) != self.num_tx * self.num_rx:
            raise ValidationError(
                f"a {self.num_tx}x{self.num_rx} matrix needs "
                f"{self.num_tx * self.num_rx} entries, got {len(self.entries)}"
            )
        for entry in self.entries:
            if not isinstance(entry, ChannelMatrixEntry):
                raise ValidationError("entries must be ChannelMatrixEntry instances")

    def entry(self, tx: int, rx: int) -> ChannelMatrixEntry:
        """Look up one combination (1-based indices)."""
        for entry in self.entries:
            if entry.tx == tx and entry.rx == rx:
                return entry
        raise ValidationError(f"no TX{tx}/RX{rx} entry in this matrix")

    @property
    def all_passed(self) -> bool:
        """Whether every combination passed."""
        return all(entry.passed for entry in self.entries)

    def failures(self) -> list:
        """Labels of the failing combinations."""
        return [entry.label for entry in self.entries if not entry.passed]

    def to_table(self) -> str:
        """Render the TX1/RX1…TXn/RXm pass/fail grid as fixed-width text."""
        cell_width = 26
        lines = [f"channel matrix ({self.num_tx} TX x {self.num_rx} RX)"]
        lines.append(
            f"{'':<8}" + "".join(f"{f'RX{rx}':<{cell_width}}" for rx in range(1, self.num_rx + 1))
        )
        for tx in range(1, self.num_tx + 1):
            cells = []
            for rx in range(1, self.num_rx + 1):
                entry = self.entry(tx, rx)
                worst = entry.worst_margin
                margin = "margin n/a" if worst is None else f"{worst[1] * 100.0:+.0f}% {worst[0]}"
                verdict = "PASS" if entry.passed else "FAIL"
                cells.append(f"{verdict} P={entry.output_power:.3f} {margin}"[: cell_width - 1])
            lines.append(f"{f'TX{tx}':<8}" + "".join(f"{cell:<{cell_width}}" for cell in cells))
        lines.append("(P = output power; margin = tightest check's relative headroom)")
        return "\n".join(lines)

    def summary(self) -> dict:
        """Compact JSON statistics: shape, verdict and per-combination margins.

        ``examples/mimo_campaign.py`` writes it next to the full matrix.
        """
        return {
            "num_tx": self.num_tx,
            "num_rx": self.num_rx,
            "all_passed": self.all_passed,
            "combinations": [
                {
                    "label": entry.label,
                    "passed": entry.passed,
                    "output_power": entry.output_power,
                    "worst_margin_check": None if entry.worst_margin is None else entry.worst_margin[0],
                    "worst_margin_relative": None if entry.worst_margin is None else entry.worst_margin[1],
                }
                for entry in self.entries
            ],
        }

    def to_dict(self) -> dict:
        """Complete JSON-friendly form (exact round trip via :meth:`from_dict`)."""
        return {
            "num_tx": self.num_tx,
            "num_rx": self.num_rx,
            "all_passed": self.all_passed,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelMatrixReport":
        """Rebuild a report serialized with :meth:`to_dict`."""
        return cls(
            num_tx=int(data["num_tx"]),
            num_rx=int(data["num_rx"]),
            entries=tuple(ChannelMatrixEntry.from_dict(entry) for entry in data["entries"]),
        )


def run_channel_matrix(
    transmitter: MimoTransmitter,
    config: BistConfig | None = None,
    rx_specs=None,
    seed: int | None = 0,
    source_factory=None,
) -> ChannelMatrixReport:
    """Run the complete BIST for every TX×RX combination.

    Every chain transmits once (simultaneously, through the MIMO coupling)
    for the engine's required burst duration, then each combination acquires
    that burst through its own acquisition source and runs the full
    calibration/measurement/verdict loop against the engine's default
    limits (no waveform profile).

    Parameters
    ----------
    transmitter:
        The multi-chain transmitter under test; its chain count is the
        matrix's TX dimension.
    config:
        BIST engine configuration shared by every combination.
    rx_specs:
        Converter specification(s) of the receive paths: one
        :class:`~repro.bist.campaign.ConverterSpec` shared by as many RX
        paths as there are TX chains (a square, 2T2R-style matrix), or a
        sequence with one spec per RX.
    seed:
        Base seed; each combination's converter jitter is reseeded on a
        deterministically derived stream (``None`` keeps the specs as-is).
    source_factory:
        Optional ``(tx_index, rx_index, spec, bandwidth_hz) -> AcquisitionSource``
        hook replacing the default simulated converter — the seam for
        recording captures or replaying them through a
        :class:`~repro.adc.acquisition.CapturedSamplesSource` (indices
        0-based).
    """
    if not isinstance(transmitter, MimoTransmitter):
        raise ValidationError("transmitter must be a MimoTransmitter")
    config = config if config is not None else BistConfig()

    if rx_specs is None or isinstance(rx_specs, ConverterSpec):
        shared = rx_specs if isinstance(rx_specs, ConverterSpec) else ConverterSpec()
        specs = [shared] * transmitter.num_chains
    else:
        specs = list(rx_specs)
    for spec in specs:
        if not isinstance(spec, ConverterSpec):
            raise ValidationError("rx_specs entries must be ConverterSpec instances")
    resolved_num_rx = len(specs)
    if resolved_num_rx < 1:
        raise ValidationError("the matrix needs at least one receive path")

    bandwidth = config.acquisition_bandwidth_hz
    engines = {}
    for tx_index in range(transmitter.num_chains):
        for rx_index in range(resolved_num_rx):
            spec = specs[rx_index]
            if seed is not None:
                spec = replace(spec, seed=derive_matrix_seed(seed, tx_index, rx_index))
            if source_factory is not None:
                source = source_factory(tx_index, rx_index, spec, bandwidth)
            else:
                source = spec.build(bandwidth)
            engines[(tx_index, rx_index)] = TransmitterBist(
                transmitter.chain(tx_index), source, config=config
            )

    transmission = transmitter.transmit_for_duration(
        engines[(0, 0)].required_burst_duration()
    )

    entries = []
    for tx_index in range(transmitter.num_chains):
        for rx_index in range(resolved_num_rx):
            report = engines[(tx_index, rx_index)].run(transmission.chain(tx_index))
            entries.append(
                ChannelMatrixEntry(tx=tx_index + 1, rx=rx_index + 1, report=report)
            )
    return ChannelMatrixReport(
        num_tx=transmitter.num_chains,
        num_rx=resolved_num_rx,
        entries=tuple(entries),
    )
