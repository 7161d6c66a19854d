"""Content-addressed scenario fingerprints.

The campaign store keys every archived outcome by a *scenario fingerprint*:
a stable SHA-256 over the canonical JSON form of everything that determines
the BIST result — the resolved per-scenario
:class:`~repro.bist.engine.BistConfig`, the effective
:class:`~repro.transmitter.config.TransmitterConfig` (impairments included),
the effective :class:`~repro.bist.campaign.ConverterSpec`, the full
:class:`~repro.signals.standards.WaveformProfile` (its limits decide the
verdicts) and the burst length — plus a schema version.

The inputs come from :func:`repro.bist.campaign.resolve_scenario`, the same
resolution :func:`repro.bist.campaign.execute_scenario` runs (per-scenario
seed derivation included), so two scenarios share a fingerprint if and only
if executing them produces bit-identical reports (for the same library
version).  That property is what makes the store a safe cache: a hit can be
substituted for execution without changing the campaign result.

Bump :data:`SCHEMA_VERSION` whenever the engine's numerical behaviour or the
archive layout changes incompatibly; old fingerprints then simply miss and
the campaign re-executes instead of serving stale records.
"""

from __future__ import annotations

import hashlib
import json

from ..bist.campaign import CampaignScenario, ConverterSpec, resolve_scenario
from ..bist.engine import BistConfig
from ..errors import ConfigurationError, ValidationError
from ..signals.standards import WaveformProfile

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "profile_dict",
    "scenario_fingerprint",
    "fingerprint_payload",
]

#: Version tag mixed into every fingerprint and stamped on every store
#: record.  Bump on any change that invalidates archived outcomes.
#: v2: waveform-family fields (family / ofdm / flatness limit) joined the
#: profile payload and reports grew per-subcarrier OFDM metrics.
#: v3: dense uniform renders evaluate the Eq. (6) kernel once per distinct
#: grid offset, which moves report metrics in their last bits.
#: v4: dense uniform renders evaluate Eq. (6) as a polyphase filter bank
#: (kernel rows contracted against strided windows of the zero-padded
#: record), which moves report metrics in their last bits.
#: v5: Eq. (2) kernel tables are built by angle addition along the tap axis
#: and the delayed channel divides four delay-free tables per term by one
#: ``v + D`` table, which moves report metrics in their last bits.
#: v6: the Kaiser taper is evaluated as its power series and dense renders
#: build their kernels at the estimated delay directly, which moves report
#: metrics in their last bits.
#: v7: the LMS cost plans factor the Eq. (2) kernel into a tap basis and
#: per-point row tables (one matmul per candidate delay), which moves the
#: reported final cost in its last bits.
#: v8: dense renders build their kernels from the cost plans' factored
#: Eq. (2) (row coefficients against the tap basis, one matmul per window
#: group) and the envelope filter computes only its decimated outputs, which
#: moves spectra, ACPR and EVM in their last bits.
#: v9: the settings only tests set became constants or went (the LMS start and
#: step, the static-mismatch switch, the kernel truncation, the Saleh and
#: polynomial PA coefficients, the DAC's full scale, droop, low-pass and INL,
#: the Q-branch DC offset, the output power, the converter's resolution and
#: full scale, the OFDM pilot amplitude), which drops their keys from every
#: fingerprint payload; reports are unchanged.
#: v10: the LMS skew search stops once its step falls below 0.1 ps instead
#: of 1 fs, and the cost plans evaluate in product form wherever ``1 / sin
#: phi`` widens the quotient's rounding error, which moves skew estimates by
#: up to ~0.06 ps and every metric rendered at them.
SCHEMA_VERSION = 10


def canonical_json(payload) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace.

    The encoding is the hashing contract — two payloads fingerprint equal
    exactly when their canonical JSON strings are equal.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def profile_dict(profile: WaveformProfile) -> dict:
    """Canonical dictionary of a waveform profile (limits included).

    The profile's limits take part in the fingerprint because they decide
    the report's verdicts: retuning a mask must miss the cache.  This is
    the profile's own archive form, so family discriminator and OFDM
    parameters are covered too.
    """
    if not isinstance(profile, WaveformProfile):
        raise ValidationError("profile must be a WaveformProfile")
    return profile.to_dict()


def _unsigned_zeros(value):
    """``value`` with every float zero spelled ``0.0``.

    The configuration dataclasses compare ``-0.0`` equal to ``0.0``, while
    JSON spells the two apart; archives keep the sign, fingerprints drop it.
    """
    if isinstance(value, dict):
        return {key: _unsigned_zeros(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_unsigned_zeros(item) for item in value]
    if isinstance(value, float) and value == 0.0:
        return 0.0
    return value


def fingerprint_payload(
    scenario: CampaignScenario,
    bist_config: BistConfig | None = None,
    converter_factory=None,
    seed: int | None | type(...) = ...,
) -> dict:
    """The canonical payload a scenario fingerprint hashes over.

    Parameters mirror :func:`repro.bist.campaign.execute_scenario`: the
    payload captures the *effective* inputs of the execution — per-scenario
    engine configuration (bandwidth adaptation and delay clamping applied),
    transmitter configuration with the derived transmitter seed, converter
    specification with the derived jitter seed — so the fingerprint is
    invariant to how the scenario was described and sensitive to everything
    that changes the result.  Float zeros are spelled ``0.0`` whatever
    their sign, as the dataclasses compare them.

    Raises :class:`~repro.errors.ConfigurationError` when the effective
    converter factory is an arbitrary callable: only declarative
    :class:`~repro.bist.campaign.ConverterSpec` factories serialize, and a
    non-serializable factory cannot be fingerprinted safely.
    """
    profile, config, transmitter_config, factory = resolve_scenario(
        scenario, bist_config=bist_config, converter_factory=converter_factory, seed=seed
    )
    if not isinstance(factory, ConverterSpec):
        label = scenario.label if scenario.label is not None else profile.name
        raise ConfigurationError(
            f"cannot fingerprint scenario {label!r}: the converter factory "
            f"({type(factory).__name__}) is not a ConverterSpec; the campaign store "
            "needs declarative converter specifications to address outcomes by content"
        )
    return _unsigned_zeros(
        {
            "schema_version": SCHEMA_VERSION,
            "profile": profile_dict(profile),
            "transmitter": transmitter_config.to_dict(),
            "converter": factory.to_dict(),
            "bist": config.to_dict(),
            "num_symbols": scenario.num_symbols,
        }
    )


def scenario_fingerprint(
    scenario: CampaignScenario,
    bist_config: BistConfig | None = None,
    converter_factory=None,
    seed: int | None | type(...) = ...,
) -> str:
    """Stable SHA-256 fingerprint (hex) of a scenario's effective inputs."""
    payload = fingerprint_payload(
        scenario, bist_config=bist_config, converter_factory=converter_factory, seed=seed
    )
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
