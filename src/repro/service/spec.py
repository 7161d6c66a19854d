"""Declarative, JSON-portable campaign specifications for the service.

A :class:`CampaignSpec` is the unit clients submit to the BIST service: a
complete, serializable description of a campaign — waveform profiles,
optional transmitter-impairment and converter-fault axes, the engine
configuration and the seed policy.  It is deliberately a *value*: the
submission front end ships it over HTTP as JSON, the job queue stores it,
and the coordinator expands it into the same
:class:`~repro.bist.runner.ScenarioGrid` cartesian product a local
:class:`~repro.bist.runner.CampaignRunner` would run, so a service job and
an in-process campaign describe — and fingerprint — identical scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bist.campaign import ConverterSpec
from ..bist.engine import BistConfig
from ..bist.runner import ScenarioGrid
from ..errors import ValidationError
from ..transmitter.config import ImpairmentConfig

__all__ = ["CampaignSpec"]

#: Seed policies a spec may request (mirrors the runner's).
_SEED_POLICIES = ("shared", "per-scenario")


def _pairs(entries, axis: str) -> tuple:
    """``entries`` as ``(label, value)`` pairs, or :class:`ValidationError`."""
    if not isinstance(entries, (list, tuple)):
        raise ValidationError(f"{axis} must be a list of [label, value] pairs, got {entries!r}")
    for entry in entries:
        pair = isinstance(entry, (list, tuple)) and len(entry) == 2
        if not (pair and isinstance(entry[0], str)):
            raise ValidationError(
                f"{axis} entries must be [label, value] pairs with a string label, got {entry!r}"
            )
    return tuple(tuple(entry) for entry in entries)


def _decoded(entries, axis: str, kind) -> tuple:
    """The ``[label, payload]`` pairs of one axis with each payload rebuilt as ``kind``."""
    pairs = _pairs(entries, axis)
    for label, payload in pairs:
        if not isinstance(payload, dict):
            raise ValidationError(f"{axis} entry {label!r} must carry a JSON object")
    return tuple((label, kind.from_dict(payload)) for label, payload in pairs)


@dataclass(frozen=True)
class CampaignSpec:
    """One submittable campaign: profiles × impairments × converters.

    Attributes
    ----------
    profiles:
        Waveform profile names (see :mod:`repro.signals.standards`), as a
        list or tuple.
    impairments:
        Optional labelled transmitter-impairment axis:
        ``(label, ImpairmentConfig)`` pairs.
    converters:
        Optional labelled converter-fault axis: ``(label, ConverterSpec)``
        pairs.
    num_symbols:
        Optional explicit burst length for every scenario (an integer >= 1).
    bist_config:
        Engine configuration shared by every scenario.
    seed_policy:
        ``"shared"`` or ``"per-scenario"`` (see
        :class:`~repro.bist.runner.CampaignRunner`).
    compile_groups:
        Whether workers execute their partitions through the campaign
        compiler (``compile=True`` on the worker-side runner).
    """

    profiles: tuple
    impairments: tuple = ()
    converters: tuple = ()
    num_symbols: int | None = None
    bist_config: BistConfig = field(default_factory=BistConfig)
    seed_policy: str = "shared"
    compile_groups: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.profiles, (list, tuple)):
            raise ValidationError(
                f"spec profiles must be a list of profile names, got {self.profiles!r}"
            )
        object.__setattr__(self, "profiles", tuple(self.profiles))
        object.__setattr__(self, "impairments", _pairs(self.impairments, "impairments"))
        object.__setattr__(self, "converters", _pairs(self.converters, "converters"))
        if not self.profiles:
            raise ValidationError("a campaign spec needs at least one profile")
        for name in self.profiles:
            if not isinstance(name, str) or not name:
                raise ValidationError(
                    f"spec profiles must be profile names, got {name!r}"
                )
        for label, impairment in self.impairments:
            if not isinstance(impairment, ImpairmentConfig):
                raise ValidationError(
                    f"impairment axis entry {label!r} must carry an ImpairmentConfig"
                )
        for label, converter in self.converters:
            if not isinstance(converter, ConverterSpec):
                raise ValidationError(
                    f"converter axis entry {label!r} must carry a ConverterSpec"
                )
        num_symbols = self.num_symbols
        if num_symbols is not None and (
            isinstance(num_symbols, bool) or not isinstance(num_symbols, int) or num_symbols < 1
        ):
            raise ValidationError(
                f"num_symbols must be None or an integer >= 1, got {num_symbols!r}"
            )
        if not isinstance(self.bist_config, BistConfig):
            raise ValidationError("bist_config must be a BistConfig")
        if self.seed_policy not in _SEED_POLICIES:
            raise ValidationError(
                f"seed_policy must be one of {_SEED_POLICIES}, got {self.seed_policy!r}"
            )
        if not isinstance(self.compile_groups, bool):
            raise ValidationError(f"compile_groups must be a boolean, got {self.compile_groups!r}")

    def build_grid(self) -> ScenarioGrid:
        """The spec's :class:`ScenarioGrid` (profiles × impairments × converters)."""
        grid = ScenarioGrid(num_symbols=self.num_symbols)
        grid.add_profiles(*self.profiles)
        if self.impairments:
            grid.add_impairments(self.impairments)
        if self.converters:
            grid.add_converters(self.converters)
        return grid

    def scenarios(self) -> tuple:
        """The expanded scenario tuple (deterministic submission order)."""
        return self.build_grid().build()

    def __len__(self) -> int:
        return len(self.build_grid())

    def describe(self) -> str:
        """One-line human-readable description for job listings."""
        parts = [f"{len(self.profiles)} profile(s)"]
        if self.impairments:
            parts.append(f"{len(self.impairments)} impairment(s)")
        if self.converters:
            parts.append(f"{len(self.converters)} converter(s)")
        return f"{len(self)} scenario(s): " + " x ".join(parts)

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (exact round trip via :meth:`from_dict`)."""
        return {
            "profiles": list(self.profiles),
            "impairments": [
                [label, impairment.to_dict()] for label, impairment in self.impairments
            ],
            "converters": [
                [label, converter.to_dict()] for label, converter in self.converters
            ],
            "num_symbols": self.num_symbols,
            "bist_config": self.bist_config.to_dict(),
            "seed_policy": self.seed_policy,
            "compile_groups": self.compile_groups,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Rebuild a spec serialized with :meth:`to_dict`."""
        if not isinstance(data, dict):
            raise ValidationError("a campaign spec payload must be a JSON object")
        try:
            profiles = data["profiles"]
        except KeyError as exc:
            raise ValidationError("campaign spec payload is missing 'profiles'") from exc
        return cls(
            profiles=profiles,
            impairments=_decoded(data.get("impairments", []), "impairments", ImpairmentConfig),
            converters=_decoded(data.get("converters", []), "converters", ConverterSpec),
            num_symbols=data.get("num_symbols"),
            bist_config=BistConfig.from_dict(data.get("bist_config", BistConfig().to_dict())),
            seed_policy=data.get("seed_policy", "shared"),
            compile_groups=data.get("compile_groups", False),
        )
