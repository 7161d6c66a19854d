"""Multi-chain (MIMO) transmitter with cross-channel impairments.

Modern SDR front ends (AD9361/AD9363-class) are 2T2R: two transmit chains
sharing a local oscillator and a die.  :class:`MimoTransmitter` wraps N
:class:`~repro.transmitter.chain.HomodyneTransmitter` chains — each with its
own per-chain :class:`~repro.transmitter.config.TransmitterConfig` override —
and applies the cross-channel effects that only exist because the chains
share hardware:

* **TX-to-TX leakage** — a complex coupling coefficient mixes every other
  chain's envelope into each output (finite isolation between on-die paths).
* **Shared-LO phase-noise correlation** — one random-walk oscillator phase
  realisation is mixed into every chain, scaled by a correlation knob
  (1.0 = fully common LO jitter, 0.0 = independent chains).
* **Per-channel gain/skew spread** — deterministic gain and timing offsets
  spread symmetrically across the chains (process/layout mismatch).

All three are applied at the complex-envelope level after each chain's own
(single-channel) impairments, so every existing fault model and measurement
works unchanged per chain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigurationError, ValidationError
from ..signals.passband import ModulatedPassbandSignal
from ..transmitter.chain import HomodyneTransmitter, TransmissionResult
from ..transmitter.config import TransmitterConfig
from ..utils.rng import ensure_generator
from ..utils.serialization import field_dict, known_field_kwargs
from ..utils.validation import check_integer, check_non_negative

__all__ = ["MimoSpec", "MimoTransmission", "MimoTransmitter", "derive_chain_seed"]


#: Per-chain seed stride (golden-ratio constant, matching the campaign
#: runner's seed-derivation idiom) so chains draw independent symbol streams.
_CHAIN_SEED_STRIDE = 0x9E3779B9


def derive_chain_seed(base_seed: int | None, chain_index: int) -> int | None:
    """Deterministic per-chain transmitter seed (chain 0 keeps the base seed)."""
    if base_seed is None:
        return None
    return (int(base_seed) + _CHAIN_SEED_STRIDE * int(chain_index)) % (2**32)


@dataclass(frozen=True)
class MimoSpec:
    """Declarative description of the cross-channel coupling of a MIMO array.

    Every field is a scalar, so the spec fingerprints and round-trips exactly
    (see :meth:`to_dict`); fault models patch it via
    :meth:`~repro.faults.models.FaultModel.apply_mimo`.

    Attributes
    ----------
    num_chains:
        Number of transmit chains (2 for a 2T2R front end).
    tx_leakage_db:
        TX-to-TX coupling magnitude in dB (e.g. ``-30.0`` for 30 dB of
        isolation); ``None`` disables leakage entirely.  The coupling
        coefficient is real.
    shared_lo_correlation:
        Fraction (``[0, 1]``) of one common LO phase-noise realisation mixed
        into every chain; 0 keeps the chains' oscillators independent.
    shared_lo_linewidth_hz:
        Lorentzian linewidth of the shared oscillator realisation.
    gain_spread_db:
        Peak-to-peak deterministic gain spread across the chains.
    skew_spread_seconds:
        Peak-to-peak deterministic timing spread across the chains.
    seed:
        Randomness control for the shared-LO realisation.
    """

    num_chains: int = 2
    tx_leakage_db: float | None = None
    shared_lo_correlation: float = 0.0
    shared_lo_linewidth_hz: float = 0.0
    gain_spread_db: float = 0.0
    skew_spread_seconds: float = 0.0
    seed: int | None = 77

    def __post_init__(self) -> None:
        check_integer(self.num_chains, "num_chains", minimum=1)
        if self.tx_leakage_db is not None and not np.isfinite(self.tx_leakage_db):
            raise ConfigurationError("tx_leakage_db must be finite (or None to disable)")
        if not 0.0 <= self.shared_lo_correlation <= 1.0:
            raise ConfigurationError("shared_lo_correlation must lie in [0, 1]")
        check_non_negative(self.shared_lo_linewidth_hz, "shared_lo_linewidth_hz")
        check_non_negative(self.gain_spread_db, "gain_spread_db")
        check_non_negative(self.skew_spread_seconds, "skew_spread_seconds")

    @property
    def leakage_coefficient(self) -> complex:
        """The complex TX-to-TX coupling coefficient (0 when leakage is off)."""
        if self.tx_leakage_db is None:
            return 0.0 + 0.0j
        return complex(10.0 ** (self.tx_leakage_db / 20.0), 0.0)

    def chain_gain_offsets_db(self) -> np.ndarray:
        """Per-chain deterministic gain offsets spanning the configured spread."""
        return _spread_offsets(self.gain_spread_db, self.num_chains)

    def chain_skew_offsets_seconds(self) -> np.ndarray:
        """Per-chain deterministic timing offsets spanning the configured spread."""
        return _spread_offsets(self.skew_spread_seconds, self.num_chains)

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (exact round trip via :meth:`from_dict`)."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MimoSpec":
        """Rebuild a spec serialized with :meth:`to_dict`.

        Unknown keys are ignored; a spec archived with a non-zero coupling
        phase raises ``ValidationError``.
        """
        return cls(**known_field_kwargs(cls, data, fixed={"tx_leakage_phase_deg": 0.0}))


def _spread_offsets(spread: float, num_chains: int) -> np.ndarray:
    """Symmetric offsets covering ``[-spread/2, +spread/2]`` across the chains."""
    if num_chains == 1 or spread == 0.0:
        return np.zeros(num_chains)
    return -spread / 2.0 + spread * np.arange(num_chains) / (num_chains - 1)


@dataclass(frozen=True)
class MimoTransmission:
    """One simultaneous burst of every chain, after cross-channel coupling."""

    results: tuple
    spec: MimoSpec

    def __post_init__(self) -> None:
        if len(self.results) != self.spec.num_chains:
            raise ValidationError("one TransmissionResult per chain is required")
        for result in self.results:
            if not isinstance(result, TransmissionResult):
                raise ValidationError("results must be TransmissionResult instances")

    def __len__(self) -> int:
        return len(self.results)

    def chain(self, index: int) -> TransmissionResult:
        """The burst of one chain (0-based)."""
        return self.results[index]


class MimoTransmitter:
    """N homodyne transmit chains coupled through a :class:`MimoSpec`.

    Parameters
    ----------
    base_config:
        Configuration shared by every chain (defaults to the paper setup).
        Chain ``i``'s seed is derived deterministically from the base seed
        (chain 0 keeps it) so the chains transmit independent symbol streams.
    spec:
        Cross-channel coupling description.
    chain_overrides:
        Optional per-chain configuration overrides, one entry per chain:
        ``None`` (keep the base), a ``dict`` of field overrides applied with
        :func:`dataclasses.replace`, or a complete
        :class:`~repro.transmitter.config.TransmitterConfig`.  This is how a
        campaign injects a *TX2-only* fault: override chain 1's
        ``impairments`` and leave chain 0 nominal.
    """

    def __init__(
        self,
        base_config: TransmitterConfig | None = None,
        spec: MimoSpec | None = None,
        chain_overrides=None,
    ) -> None:
        base = base_config if base_config is not None else TransmitterConfig.paper_default()
        if not isinstance(base, TransmitterConfig):
            raise ValidationError("base_config must be a TransmitterConfig")
        self._spec = spec if spec is not None else MimoSpec()
        if not isinstance(self._spec, MimoSpec):
            raise ValidationError("spec must be a MimoSpec")
        overrides = list(chain_overrides) if chain_overrides is not None else []
        if len(overrides) > self._spec.num_chains:
            raise ConfigurationError(
                f"{len(overrides)} chain override(s) for {self._spec.num_chains} chain(s)"
            )
        overrides += [None] * (self._spec.num_chains - len(overrides))
        configs = []
        for index, override in enumerate(overrides):
            if override is None:
                config = replace(base, seed=derive_chain_seed(base.seed, index))
            elif isinstance(override, TransmitterConfig):
                config = override
            elif isinstance(override, dict):
                fields = dict(override)
                if "seed" not in fields:
                    fields["seed"] = derive_chain_seed(base.seed, index)
                config = replace(base, **fields)
            else:
                raise ValidationError(
                    "chain overrides must be None, a dict of field overrides, "
                    "or a TransmitterConfig"
                )
            configs.append(config)
        self._chains = tuple(HomodyneTransmitter(config) for config in configs)
        # Persistent stream: successive bursts see fresh (but deterministic,
        # in call order) shared-LO realisations.
        self._lo_rng = ensure_generator(self._spec.seed)

    # ------------------------------------------------------------------ #
    # Public attributes
    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> MimoSpec:
        """The cross-channel coupling description."""
        return self._spec

    @property
    def num_chains(self) -> int:
        """Number of transmit chains."""
        return self._spec.num_chains

    def chain(self, index: int) -> HomodyneTransmitter:
        """One underlying chain (0-based)."""
        return self._chains[index]

    # ------------------------------------------------------------------ #
    # Transmission
    # ------------------------------------------------------------------ #
    def transmit(self, num_symbols: int = 512) -> MimoTransmission:
        """Transmit one simultaneous burst on every chain and couple them."""
        results = [chain.transmit(num_symbols=num_symbols) for chain in self._chains]
        return self._couple(results)

    def transmit_for_duration(self, duration_seconds: float) -> MimoTransmission:
        """Transmit simultaneous bursts covering ``duration_seconds`` on every chain."""
        results = [chain.transmit_for_duration(duration_seconds) for chain in self._chains]
        return self._couple(results)

    # ------------------------------------------------------------------ #
    # Cross-channel effects
    # ------------------------------------------------------------------ #
    def _couple(self, results: list) -> MimoTransmission:
        """Apply skew/gain spread, shared-LO phase and TX-to-TX leakage."""
        spec = self._spec
        envelopes = [result.output_envelope for result in results]

        skews = spec.chain_skew_offsets_seconds()
        if np.any(skews != 0.0):
            envelopes = [
                env
                if skew == 0.0
                else env.with_samples(env.evaluate(env.times() - skew))
                for env, skew in zip(envelopes, skews)
            ]

        gains = spec.chain_gain_offsets_db()
        if np.any(gains != 0.0):
            envelopes = [
                env.scaled(10.0 ** (gain / 20.0)) for env, gain in zip(envelopes, gains)
            ]

        if spec.shared_lo_correlation > 0.0 and spec.shared_lo_linewidth_hz > 0.0:
            self._require_common_grid(envelopes, "shared-LO phase noise")
            phase = self._shared_lo_phase(envelopes[0])
            rotation = np.exp(1j * spec.shared_lo_correlation * phase)
            envelopes = [env.with_samples(env.samples * rotation) for env in envelopes]

        coupling = spec.leakage_coefficient
        if coupling != 0.0 and spec.num_chains > 1:
            self._require_common_grid(envelopes, "TX-to-TX leakage")
            total = np.sum([env.samples for env in envelopes], axis=0)
            envelopes = [
                env.with_samples(env.samples + coupling * (total - env.samples))
                for env in envelopes
            ]

        coupled = []
        for result, envelope in zip(results, envelopes):
            if envelope is result.output_envelope:
                coupled.append(result)
                continue
            config = result.config
            coupled.append(
                replace(
                    result,
                    rf_output=ModulatedPassbandSignal(
                        envelope=envelope,
                        carrier_frequency=config.carrier_frequency_hz,
                        occupied_bandwidth=config.envelope_sample_rate,
                    ),
                    output_envelope=envelope,
                )
            )
        return MimoTransmission(results=tuple(coupled), spec=spec)

    def _shared_lo_phase(self, envelope) -> np.ndarray:
        """One Wiener (random-walk) phase realisation on the envelope grid."""
        spec = self._spec
        increment_std = np.sqrt(
            2.0 * np.pi * spec.shared_lo_linewidth_hz / envelope.sample_rate
        )
        return np.cumsum(self._lo_rng.normal(0.0, increment_std, size=len(envelope)))

    @staticmethod
    def _require_common_grid(envelopes: list, effect: str) -> None:
        reference = envelopes[0]
        for env in envelopes[1:]:
            if (
                len(env) != len(reference)
                or not np.isclose(env.sample_rate, reference.sample_rate)
                or not np.isclose(env.start_time, reference.start_time)
            ):
                raise ConfigurationError(
                    f"{effect} requires every chain's envelope on a common grid; "
                    "give the chains identical symbol rates and burst lengths"
                )
