"""Shard lifecycle: compaction, age/baseline retention, schema tombstones.

A long-lived service store accretes one shard per worker per job; left
alone it grows without bound and keeps serving bytes that can never be
cache hits (records from superseded schema eras are skipped by
:meth:`~repro.store.store.CampaignStore._parse_line` on every scan but
still occupy disk).  This module is the janitor:

* **compaction** delegates to :meth:`CampaignStore.compact` — all shards
  collapse into one fingerprint-sorted file, preserving exactly the
  first-record-wins winners a plain ``load()`` would have served;
* **garbage collection** (:func:`run_gc`) rewrites each shard in place
  (atomic replace via :meth:`CampaignStore.replace_shard`), dropping

  - records whose ``schema_version`` is not the current
    :data:`~repro.store.fingerprint.SCHEMA_VERSION` (these are
    **tombstoned**: their fingerprints and eras are appended to
    ``tombstones.json`` in the store root, a durable record that the era
    was collected so operators can tell "never ran" from "expired"),
  - records older than ``max_age_seconds``; each record ages by its own
    ``stored_at`` stamp (written at :meth:`~repro.store.store.CampaignStore.put`
    time and preserved through compaction), falling back to the shard
    file's mtime for legacy records without one — the stamp matters
    because compaction rewrites shards and resets their mtime, which
    would otherwise rejuvenate (and effectively immortalise) every
    record it touches,
  - unless the fingerprint is **protected** by the policy's keep-set
    (typically the fingerprints of a baseline store, see
    :meth:`GcPolicy.protecting`).

Ages that come out negative (clock steps, NFS mtime skew, records stamped
by a machine with a faster clock) are clamped to zero with a warning —
mirroring the service-stats duration clamps — so skew never expires a
freshly-written record.

GC never touches records it cannot parse (corrupt lines are the store
reader's recovery domain, not the janitor's) and supports ``dry_run`` for
auditing what would be collected.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..errors import ValidationError
from ..store import CampaignStore, CampaignStoreWarning
from ..store.fingerprint import SCHEMA_VERSION, canonical_json

__all__ = ["GcPolicy", "GcReport", "run_gc", "compact_store", "load_tombstones"]

#: Name of the tombstone ledger kept in the store root.
TOMBSTONES_FILE = "tombstones.json"


@dataclass(frozen=True)
class GcPolicy:
    """What garbage collection is allowed to drop.

    Attributes
    ----------
    max_age_seconds:
        Drop records stored more than this many seconds ago (``None``
        disables age-based retention).  Records age by their ``stored_at``
        stamp; legacy records without one age by their shard file's mtime.
    keep_fingerprints:
        Protected fingerprints (e.g. a baseline set) that survive
        regardless of age or schema era.
    drop_superseded_schema:
        Whether to collect (and tombstone) records whose schema version is
        not the current one.  These are dead weight for cache lookups
        either way; disabling keeps them on disk for manual archaeology.
    """

    max_age_seconds: float | None = None
    keep_fingerprints: frozenset = field(default_factory=frozenset)
    drop_superseded_schema: bool = True

    def __post_init__(self) -> None:
        if self.max_age_seconds is not None and self.max_age_seconds < 0:
            raise ValidationError(
                f"max_age_seconds must be non-negative, got {self.max_age_seconds!r}"
            )
        object.__setattr__(self, "keep_fingerprints", frozenset(self.keep_fingerprints))

    def protecting(self, source) -> "GcPolicy":
        """A copy of this policy that also protects a baseline set.

        ``source`` may be a :class:`CampaignStore`, a store directory, or a
        JSON file holding a list of fingerprints.
        """
        path = Path(source) if not isinstance(source, CampaignStore) else None
        if isinstance(source, CampaignStore):
            extra = set(source.fingerprints())
        elif path is not None and path.is_dir():
            extra = set(CampaignStore(path).fingerprints())
        elif path is not None and path.is_file():
            payload = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(payload, list):
                raise ValidationError(
                    f"fingerprint file {path} must hold a JSON list of fingerprints"
                )
            extra = set(payload)
        else:
            raise ValidationError(f"no baseline store or fingerprint file at {source!r}")
        return replace(self, keep_fingerprints=self.keep_fingerprints | extra)


@dataclass(frozen=True)
class GcReport:
    """What one garbage-collection pass did (or would do, when ``dry_run``)."""

    shards_scanned: int = 0
    records_scanned: int = 0
    records_kept: int = 0
    expired: int = 0
    tombstoned: int = 0
    protected: int = 0
    shards_rewritten: int = 0
    shards_removed: int = 0
    dry_run: bool = False

    @property
    def records_dropped(self) -> int:
        """Total records collected (expired plus tombstoned)."""
        return self.expired + self.tombstoned

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary."""
        return {
            "shards_scanned": self.shards_scanned,
            "records_scanned": self.records_scanned,
            "records_kept": self.records_kept,
            "records_dropped": self.records_dropped,
            "expired": self.expired,
            "tombstoned": self.tombstoned,
            "protected": self.protected,
            "shards_rewritten": self.shards_rewritten,
            "shards_removed": self.shards_removed,
            "dry_run": self.dry_run,
        }

    def to_text(self) -> str:
        """One-paragraph human-readable report."""
        verb = "would drop" if self.dry_run else "dropped"
        return (
            f"gc: scanned {self.records_scanned} record(s) in "
            f"{self.shards_scanned} shard(s); {verb} {self.records_dropped} "
            f"({self.expired} expired, {self.tombstoned} tombstoned), "
            f"kept {self.records_kept} ({self.protected} protected); "
            f"rewrote {self.shards_rewritten}, removed {self.shards_removed} shard(s)"
        )


def load_tombstones(store: CampaignStore) -> dict:
    """The store's tombstone ledger (fingerprint → collection metadata).

    A ledger that does not parse as a JSON object (a torn or foreign file)
    warns with :class:`~repro.store.CampaignStoreWarning` and reads as empty,
    so the next collection starts a fresh ledger instead of failing.
    """
    path = store.root / TOMBSTONES_FILE
    if not path.is_file():
        return {}
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        warnings.warn(
            f"tombstone ledger {path} is not a JSON object; starting an empty ledger",
            CampaignStoreWarning,
            stacklevel=2,
        )
        return {}
    return payload


def _write_tombstones(store: CampaignStore, tombstones: dict) -> None:
    """Replace the ledger through the store's fsync'd atomic write."""
    store.replace_shard(store.root / TOMBSTONES_FILE, [canonical_json(tombstones)])


def _clamped_age(age_seconds: float, what: str) -> float:
    """Clamp a negative age to zero with a warning (clock steps, NFS skew)."""
    if age_seconds < 0.0:
        warnings.warn(
            f"negative age {age_seconds:.3f}s for {what} (clock skew?); "
            "clamping to 0 so it is treated as freshly stored",
            RuntimeWarning,
            stacklevel=3,
        )
        return 0.0
    return age_seconds


def compact_store(store_root, shard: str = "campaign") -> int:
    """Collapse every shard of a store into one (see :meth:`CampaignStore.compact`)."""
    return CampaignStore(store_root, shard=shard).compact()


def run_gc(store_root, policy: GcPolicy, dry_run: bool = False, now: float | None = None) -> GcReport:
    """Apply a retention policy to every shard of a store.

    Each shard is rewritten atomically with only its surviving lines (and
    removed entirely when nothing survives); collected superseded-schema
    fingerprints are appended to the ``tombstones.json`` ledger.  ``now``
    overrides the reference time for age comparisons (tests).
    """
    if not isinstance(policy, GcPolicy):
        raise ValidationError("policy must be a GcPolicy")
    store = CampaignStore(store_root)
    reference = time.time() if now is None else float(now)
    tombstones = load_tombstones(store)
    new_tombstones: dict = {}

    shards_scanned = records_scanned = records_kept = 0
    expired = tombstoned = protected = 0
    shards_rewritten = shards_removed = 0

    for path in store.shard_paths():
        shards_scanned += 1
        try:
            raw_shard_age = reference - path.stat().st_mtime
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        shard_age_seconds = (
            _clamped_age(raw_shard_age, f"shard {path.name}")
            if policy.max_age_seconds is not None
            else 0.0
        )
        survivors: list[str] = []
        changed = False
        for line in text.splitlines():
            stripped = line.strip()
            if not stripped:
                changed = True  # normalise blank lines away on rewrite
                continue
            try:
                record = json.loads(stripped)
                fingerprint = record["fingerprint"]
                version = record["schema_version"]
            except Exception:  # noqa: BLE001 - corrupt lines are not GC's domain
                survivors.append(stripped)
                continue
            records_scanned += 1
            if fingerprint in policy.keep_fingerprints:
                protected += 1
                records_kept += 1
                survivors.append(stripped)
                continue
            if policy.drop_superseded_schema and version != SCHEMA_VERSION:
                tombstoned += 1
                changed = True
                new_tombstones[str(fingerprint)] = {
                    "schema_version": version,
                    "collected_at": reference,
                    "reason": "superseded-schema",
                }
                continue
            if policy.max_age_seconds is not None:
                # Age by the record's own storage stamp when it has one;
                # compaction rewrites the shard (fresh mtime) but preserves
                # the stamps, so stamped records keep expiring on schedule.
                # Legacy records (no stamp) can only age by the shard mtime.
                stored_at = record.get("stored_at")
                if isinstance(stored_at, (int, float)):
                    age_seconds = _clamped_age(
                        reference - float(stored_at), f"record {fingerprint!r}"
                    )
                else:
                    age_seconds = shard_age_seconds
                if age_seconds > policy.max_age_seconds:
                    expired += 1
                    changed = True
                    continue
            records_kept += 1
            survivors.append(stripped)
        if not changed:
            continue
        if survivors:
            shards_rewritten += 1
        else:
            shards_removed += 1
        if not dry_run:
            store.replace_shard(path, survivors)

    if new_tombstones and not dry_run:
        tombstones.update(new_tombstones)
        _write_tombstones(store, tombstones)

    return GcReport(
        shards_scanned=shards_scanned,
        records_scanned=records_scanned,
        records_kept=records_kept,
        expired=expired,
        tombstoned=tombstoned,
        protected=protected,
        shards_rewritten=shards_rewritten,
        shards_removed=shards_removed,
        dry_run=dry_run,
    )
