"""The persistent, content-addressed campaign store.

A :class:`CampaignStore` is a directory of append-only JSONL shards.  Each
line is one record::

    {"fingerprint": "<sha256>", "schema_version": 1, "stored_at": ..., "outcome": {...}}

where ``outcome`` is the full :class:`~repro.bist.runner.ScenarioOutcome`
archive and ``stored_at`` is the wall clock at :meth:`~CampaignStore.put`
time (absent on records written by older library versions).  The report's
spectrum (frequency axis and PSD) is archived as base64 strings of its
little-endian float64 bytes (:meth:`~repro.dsp.SpectrumEstimate.to_dict`),
exact to the bit; records whose spectrum is a JSON list of floats, as
earlier versions wrote it, load too, and :meth:`compact` and :meth:`merge`
rewrite them as base64.  The stamp rides along through :meth:`compact`
and :meth:`merge` so age-based retention (:mod:`repro.service.lifecycle`)
ages each record by *when it was stored*, not by the shard file's mtime —
which every rewrite would reset.  Records are keyed by the scenario
fingerprint (:mod:`repro.store.fingerprint`), which makes the store:

* a **cache** — a campaign run with ``store=`` skips every scenario whose
  fingerprint is already present and substitutes the archived report;
* **resumable** — outcomes are flushed line-by-line as scenarios complete,
  so an interrupted campaign loses at most the in-flight scenarios and a
  re-run serves the finished ones from disk;
* **shardable** — distributed workers each append to their own shard file
  (or their own store directory) and :meth:`CampaignStore.merge` combines
  them afterwards, keeping the first record per fingerprint.

Durability model: incremental puts *append* to the shard file and flush, so
a crash can tear at most the final line; :meth:`load` (and every read path)
skips lines that fail to parse and emits a :class:`CampaignStoreWarning`
instead of failing the whole shard.  Before an instance first appends to a
shard whose last line is torn it ends that line, so a resumed run loses only
the torn record and never glues its own first record onto it.  Whole-file
writes — :meth:`compact` and :meth:`replace_shard` — go through a temporary
file and an atomic ``os.replace`` so readers never observe a half-written
shard.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from pathlib import Path

from ..bist.runner import ScenarioOutcome
from ..errors import ValidationError
from .fingerprint import SCHEMA_VERSION, canonical_json

__all__ = ["CampaignStore", "CampaignStoreWarning"]


class CampaignStoreWarning(UserWarning):
    """A store shard contained lines that could not be parsed."""


def _shard_sort_key(path: Path) -> str:
    """Deterministic shard ordering (lexicographic by file name)."""
    return path.name


def _skip_corrupt(path: Path, number: int, exc: Exception) -> None:
    """Warn that a shard line does not parse; the caller skips it."""
    warnings.warn(
        f"skipping corrupt record at {path.name}:{number} ({type(exc).__name__}: {exc})",
        CampaignStoreWarning,
        stacklevel=4,
    )


class CampaignStore:
    """Append-only JSONL store of campaign outcomes, keyed by fingerprint.

    Parameters
    ----------
    root:
        Directory holding the shard files (created on first write).
    shard:
        Name of the shard this instance appends to.  Reads always cover
        *every* ``*.jsonl`` shard in the directory, so concurrent writers
        can each use their own shard name and still share one cache.

    The in-memory index maps fingerprints to parsed outcomes; it is built
    lazily on first read and kept consistent with this instance's own
    writes.  When several records carry the same fingerprint (e.g. merged
    shards that overlapped), the first one in shard order wins —
    deterministically, because shards are scanned in sorted name order and
    lines in file order.
    """

    def __init__(self, root, shard: str = "campaign") -> None:
        self._root = Path(root)
        if not shard or "/" in shard or "\\" in shard:
            raise ValidationError(f"shard must be a plain file stem, got {shard!r}")
        self._shard = shard
        self._index: dict[str, ScenarioOutcome] | None = None
        self._stored_at: dict[str, float] = {}
        self._tail_checked = False

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    @property
    def shard_path(self) -> Path:
        """The shard file this instance appends to."""
        return self._root / f"{self._shard}.jsonl"

    def shard_paths(self) -> list[Path]:
        """Every shard file of the store, in deterministic order."""
        if not self._root.is_dir():
            return []
        return sorted(self._root.glob("*.jsonl"), key=_shard_sort_key)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def _parse_line(self, line: str, path: Path, number: int) -> tuple | None:
        """``(fingerprint, outcome, stored_at)`` of one shard line, or ``None``."""
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
            fingerprint = record["fingerprint"]
            version = record["schema_version"]
        except Exception as exc:  # noqa: BLE001 - recovery is the contract
            return _skip_corrupt(path, number, exc)
        if version != SCHEMA_VERSION:
            # A schema mismatch is not corruption: the record is simply from
            # another library era and must not be served as a cache hit.  Its
            # outcome is never decoded, since that era's layout may not parse.
            return None
        if not isinstance(fingerprint, str):
            warnings.warn(
                f"skipping record with non-string fingerprint at {path.name}:{number}",
                CampaignStoreWarning,
                stacklevel=3,
            )
            return None
        try:
            outcome = ScenarioOutcome.from_dict(record["outcome"])
        except Exception as exc:  # noqa: BLE001 - recovery is the contract
            return _skip_corrupt(path, number, exc)
        stored_at = record.get("stored_at")
        stored_at = float(stored_at) if isinstance(stored_at, (int, float)) else None
        return fingerprint, outcome, stored_at

    def _scan(self, paths) -> dict:
        """Fingerprint → ``(outcome, stored_at)`` over exactly the given shards.

        Corrupt lines (torn appends, truncation, garbage) are skipped with a
        :class:`CampaignStoreWarning`; duplicate fingerprints keep the first
        record in the order the paths are given (callers pass them in
        deterministic shard order).
        """
        index: dict[str, tuple] = {}
        for path in paths:
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:
                warnings.warn(
                    f"skipping unreadable shard {path.name} ({exc})",
                    CampaignStoreWarning,
                    stacklevel=2,
                )
                continue
            for number, line in enumerate(text.splitlines(), start=1):
                parsed = self._parse_line(line, path, number)
                if parsed is None:
                    continue
                fingerprint, outcome, stored_at = parsed
                index.setdefault(fingerprint, (outcome, stored_at))
        return index

    def _adopt_scan(self, scanned: dict) -> None:
        """Split a :meth:`_scan` result into the outcome index and stamp map."""
        self._index = {fp: outcome for fp, (outcome, _) in scanned.items()}
        self._stored_at = {
            fp: stamp for fp, (_, stamp) in scanned.items() if stamp is not None
        }

    def load(self) -> dict:
        """Scan every shard into the fingerprint → outcome index.

        Corrupt lines (torn appends, truncation, garbage) are skipped with a
        :class:`CampaignStoreWarning`; duplicate fingerprints keep the first
        record in deterministic shard order.
        """
        self._adopt_scan(self._scan(self.shard_paths()))
        return dict(self._index)

    def _ensure_index(self) -> dict:
        if self._index is None:
            self.load()
        return self._index

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._ensure_index()

    def __len__(self) -> int:
        return len(self._ensure_index())

    def fingerprints(self) -> list[str]:
        """Every fingerprint in the store (deterministic order)."""
        return sorted(self._ensure_index())

    def get(self, fingerprint: str) -> ScenarioOutcome | None:
        """The archived outcome for a fingerprint, or ``None`` on a miss."""
        return self._ensure_index().get(fingerprint)

    def stored_at(self, fingerprint: str) -> float | None:
        """When a record was first stored (wall clock), or ``None``.

        ``None`` means either a store miss or a legacy record written before
        timestamps existed; age-based retention falls back to the shard
        file's mtime for those.
        """
        self._ensure_index()
        return self._stored_at.get(fingerprint)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _record_line(
        fingerprint: str, outcome: ScenarioOutcome, stored_at: float | None = None
    ) -> str:
        record = {
            "fingerprint": fingerprint,
            "schema_version": SCHEMA_VERSION,
            "outcome": outcome.to_dict(),
        }
        if stored_at is not None:
            record["stored_at"] = stored_at
        return canonical_json(record)

    def put(
        self,
        fingerprint: str,
        outcome: ScenarioOutcome,
        stored_at: float | None = None,
    ) -> bool:
        """Append one outcome under its fingerprint; flushes immediately.

        Returns ``True`` when the record was written, ``False`` when the
        fingerprint was already present (the store is append-only and
        first-record-wins, so re-putting is a no-op).  Only successful
        outcomes are archived: errored scenarios must re-execute on resume
        rather than replay a possibly-environmental failure forever.

        ``stored_at`` overrides the storage stamp (wall clock seconds) that
        age-based retention later ages the record by; it defaults to now.
        """
        if not isinstance(outcome, ScenarioOutcome):
            raise ValidationError("outcome must be a ScenarioOutcome")
        if not outcome.ok:
            raise ValidationError(
                f"refusing to archive errored scenario {outcome.label!r}; the store "
                "only caches successful outcomes so failures re-execute on resume"
            )
        index = self._ensure_index()
        if fingerprint in index:
            return False
        stamp = time.time() if stored_at is None else float(stored_at)
        self._append([self._record_line(fingerprint, outcome, stamp)])
        index[fingerprint] = outcome
        self._stored_at[fingerprint] = stamp
        return True

    def _append(self, lines: list[str]) -> None:
        """Append whole lines to this instance's shard and fsync them.

        On the instance's first append, a shard that does not end in a
        newline (a crash tore its last line) gets one first, so the torn
        bytes stay a line of their own that :meth:`load` skips.
        """
        self._root.mkdir(parents=True, exist_ok=True)
        with open(self.shard_path, "ab+") as handle:
            if not self._tail_checked:
                size = handle.seek(0, os.SEEK_END)
                if size:
                    handle.seek(size - 1)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
                self._tail_checked = True
            handle.write("".join(line + "\n" for line in lines).encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())

    def _write_shard_atomic(self, path: Path, lines: list[str]) -> None:
        """Replace a shard file atomically (tmp file + ``os.replace``)."""
        self._root.mkdir(parents=True, exist_ok=True)
        descriptor, tmp_name = tempfile.mkstemp(
            prefix=f".{path.stem}-", suffix=".jsonl.tmp", dir=str(self._root)
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write("".join(line + "\n" for line in lines))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

    def compact(self) -> int:
        """Rewrite the store as a single deduplicated, sorted shard.

        Collapses every shard into this instance's shard file (atomic
        replace), drops corrupt lines for good and removes the other shard
        files.  Returns the number of surviving records.

        Determinism contract: the surviving record per fingerprint is
        exactly the one :meth:`load` would have served — first record in
        sorted shard order, lines in file order — and the output lines are
        sorted by fingerprint.  Each record keeps its original ``stored_at``
        stamp, so compaction does not rejuvenate records in the eyes of
        age-based retention (the rewritten file's mtime is fresh, but GC
        ages by the per-record stamp).  The set of shards is snapshotted
        *before* scanning and only those files are removed afterwards, so a
        shard created by a concurrent writer between the scan and the
        cleanup is left untouched instead of being deleted unread.  (Records
        appended to an already-scanned shard during compaction are still
        lost — quiesce writers, as the service coordinator's drain does,
        before compacting a live store.)
        """
        paths = self.shard_paths()
        scanned = self._scan(paths)
        lines = [
            self._record_line(fingerprint, *scanned[fingerprint])
            for fingerprint in sorted(scanned)
        ]
        self._write_shard_atomic(self.shard_path, lines)
        for path in paths:
            if path != self.shard_path:
                path.unlink(missing_ok=True)
        self._adopt_scan(scanned)
        return len(scanned)

    def replace_shard(self, path: Path, lines: list[str]) -> None:
        """Atomically replace one file of this store with the given lines.

        The shard-lifecycle layer (:mod:`repro.service.lifecycle`) rewrites
        shards record-by-record during garbage collection, and its tombstone
        ledger as one line; routing the write through the store keeps the
        tmp-file + ``fsync`` + ``os.replace`` durability model in one place.
        An empty ``lines`` list removes the file.  Invalidates the in-memory
        index (next read rescans).
        """
        path = Path(path)
        if path.parent != self._root:
            raise ValidationError(
                f"shard {path} is not inside the store directory {self._root}"
            )
        if lines:
            self._write_shard_atomic(path, lines)
        else:
            path.unlink(missing_ok=True)
        self._index = None
        self._stored_at = {}

    def merge(self, *others) -> int:
        """Fold other stores (or store directories) into this one.

        Records new to this store are appended to the current shard in
        deterministic order (source order, then shard order, then line
        order); on duplicate fingerprints the *first* record — this store's
        own, or the earliest source's — wins, so merging distributed shards
        is idempotent and order-stable.  Returns the number of records
        actually added.
        """
        index = self._ensure_index()
        added = []
        for other in others:
            if not isinstance(other, CampaignStore):
                other = CampaignStore(other)
            for fingerprint, outcome in other.load().items():
                if fingerprint not in index:
                    index[fingerprint] = outcome
                    stamp = other.stored_at(fingerprint)
                    if stamp is not None:
                        self._stored_at[fingerprint] = stamp
                    added.append((fingerprint, outcome, stamp))
        if added:
            self._append([self._record_line(*record) for record in added])
        return len(added)
