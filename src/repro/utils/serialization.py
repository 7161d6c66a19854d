"""Shared dataclass ↔ dict helpers for the JSON archive format.

Every serializable dataclass in the archive graph follows the same two
conventions, kept in one place here:

* ``to_dict`` for flat dataclasses is just the field mapping
  (:func:`field_dict`);
* ``from_dict`` ignores unknown keys so archives written by *newer* library
  versions still load on older ones, and loads a key that *earlier* versions
  wrote for a setting that is now fixed only at the fixed value
  (:func:`known_field_kwargs`).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import fields

from ..errors import ValidationError

__all__ = ["field_dict", "known_field_kwargs"]


def field_dict(obj) -> dict:
    """Shallow ``{field name: value}`` mapping of a dataclass instance."""
    return {spec.name: getattr(obj, spec.name) for spec in fields(obj)}


def known_field_kwargs(cls: type, data: dict, fixed: dict | None = None) -> dict:
    """``data`` filtered to the dataclass's own fields (unknown keys dropped).

    The forward-compatibility contract of every archive ``from_dict``: keys
    introduced by newer library versions are ignored rather than raising
    ``TypeError`` in the constructor.

    A key that earlier versions wrote for a setting this version fixes — a
    ``ClassVar`` constant of ``cls``, or a key of ``fixed`` mapped to its
    fixed value — is dropped only at that value.  Any other value raises
    :class:`~repro.errors.ValidationError`: loading it as the constant would
    misreport what the archive describes.
    """
    known = {spec.name for spec in fields(cls)}
    retired = {**_class_constants(cls), **(fixed or {})}
    for key, value in data.items():
        if key in retired and key not in known and value != retired[key]:
            raise ValidationError(
                f"{cls.__name__}.{key} is fixed at {retired[key]!r}, "
                f"so an archive with {value!r} cannot load"
            )
    return {key: value for key, value in data.items() if key in known}


@functools.lru_cache(maxsize=None)
def _class_constants(cls: type) -> dict:
    """``{name: value}`` of the ``ClassVar`` constants of ``cls`` and its bases."""
    constants = {}
    for klass in reversed(cls.__mro__):
        for name, annotation in inspect.get_annotations(klass).items():
            if "ClassVar" in str(annotation) and hasattr(cls, name):
                constants[name] = getattr(cls, name)
    return constants
