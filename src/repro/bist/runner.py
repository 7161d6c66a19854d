"""Parallel campaign orchestration: runner, scenario grids, outcomes.

The paper's BIST is valuable because the *same* hardware and DSP verify the
transmitter under every waveform the SDR supports — which in practice means
campaigns with dozens to hundreds of profile × fault scenarios.  Scenarios
are embarrassingly parallel (each one builds its own transmitter, converter
and engine), so this module provides:

* :class:`CampaignRunner` — executes scenarios concurrently on a
  ``concurrent.futures`` process pool (serially in-process for
  ``max_workers=1``) with deterministic per-scenario seeding and structured
  error capture, so a single failing scenario no longer aborts the campaign;
* :class:`ScenarioGrid` — expands cartesian products of waveform profiles ×
  transmitter impairments × converter faults into scenario lists;
* :class:`ScenarioOutcome` / :class:`CampaignExecution` — structured results
  (report or error per scenario, wall-clock, worker identity) that aggregate
  into the statistical :class:`~repro.bist.report.CampaignSummary` and a
  fixed-width summary table.

Determinism contract: the worker rebuilds everything from the picklable
scenario description, so serial and parallel execution produce bit-identical
reports for the same scenarios, configuration and seed policy.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import time
import traceback
import zlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..errors import BudgetExhaustedError, ConfigurationError, ValidationError
from ..signals.standards import WaveformProfile
from ..transmitter.config import ImpairmentConfig
from .campaign import CampaignScenario, ConverterSpec, execute_scenario
from .engine import BistConfig
from .report import BistReport, CampaignSummary

__all__ = [
    "CampaignRunner",
    "CampaignExecution",
    "ExecutionBudget",
    "ScenarioOutcome",
    "ScenarioGrid",
    "derive_scenario_seed",
    "pa_saturation_sweep",
    "iq_imbalance_sweep",
    "skew_sweep",
]

#: Seed policies understood by :class:`CampaignRunner`.
_SEED_POLICIES = ("shared", "per-scenario")


def derive_scenario_seed(base_seed: int | None, index: int, label: str) -> int | None:
    """Deterministic, decorrelated seed for scenario ``index`` / ``label``.

    Stable across processes and Python invocations (it avoids the salted
    built-in ``hash``), so parallel workers and the serial path derive the
    same value.  ``None`` base seeds stay ``None`` (fully random scenarios).
    """
    if base_seed is None:
        return None
    digest = zlib.crc32(f"{index}:{label}".encode("utf-8"))
    return (int(base_seed) * 0x9E3779B1 + digest) % (2**32)


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of executing one scenario: a report, or a captured error.

    Attributes
    ----------
    index:
        Position of the scenario in the submitted sequence (outcomes are
        always returned in submission order regardless of completion order).
    label:
        The scenario's resolved label.
    report:
        The BIST report, or ``None`` when the scenario raised.
    error:
        ``"ExceptionType: message"`` when the scenario raised, else ``None``.
    traceback_text:
        Full formatted traceback of the failure (``""`` on success).
    duration_seconds:
        Wall-clock execution time of this scenario.
    worker:
        Identifier of the process that executed the scenario (``"store"``
        for cache hits, ``"dedup"`` for fingerprint-duplicate fan-outs,
        ``"compiled-pid-..."`` for compiled group execution).
    cached:
        Whether the outcome was served from a campaign store instead of
        being executed.
    deduplicated:
        Whether the outcome was fanned out from another scenario in the
        same run that shares its fingerprint (identical fingerprints imply
        bit-identical reports, so duplicates execute once).
    """

    index: int
    label: str
    report: BistReport | None = None
    error: str | None = None
    traceback_text: str = ""
    duration_seconds: float = 0.0
    worker: str = ""
    cached: bool = False
    deduplicated: bool = False

    @classmethod
    def from_exception(
        cls, index: int, label: str, exc: BaseException, start: float | None, worker: str = ""
    ) -> "ScenarioOutcome":
        """Error outcome of a scenario that raised ``exc``.

        ``start`` is the scenario's ``time.perf_counter()`` start (``None``
        records a zero duration).
        """
        return cls(
            index=index,
            label=label,
            error=f"{type(exc).__name__}: {exc}",
            traceback_text="".join(traceback.format_exception(exc)),
            duration_seconds=0.0 if start is None else time.perf_counter() - start,
            worker=worker,
        )

    @property
    def ok(self) -> bool:
        """Whether the scenario produced a report."""
        return self.report is not None

    def summary(self) -> str:
        """One-line textual summary of the outcome."""
        if self.ok:
            return (
                f"{self.label}: {self.report.verdict.value.upper()} "
                f"({self.duration_seconds:.2f} s)"
            )
        return f"{self.label}: ERROR ({self.error})"

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (exact round trip via :meth:`from_dict`)."""
        return {
            "index": self.index,
            "label": self.label,
            "report": None if self.report is None else self.report.to_dict(),
            "error": self.error,
            "traceback_text": self.traceback_text,
            "duration_seconds": self.duration_seconds,
            "worker": self.worker,
            "cached": self.cached,
            "deduplicated": self.deduplicated,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioOutcome":
        """Rebuild an outcome serialized with :meth:`to_dict`."""
        report_data = data.get("report")
        return cls(
            index=data["index"],
            label=data["label"],
            report=None if report_data is None else BistReport.from_dict(report_data),
            error=data.get("error"),
            traceback_text=data.get("traceback_text", ""),
            duration_seconds=data.get("duration_seconds", 0.0),
            worker=data.get("worker", ""),
            cached=data.get("cached", False),
            deduplicated=data.get("deduplicated", False),
        )


@dataclass(frozen=True)
class CampaignExecution:
    """Structured result of a :class:`CampaignRunner` run.

    Scenarios that raised are kept as error outcomes alongside the
    successful reports.  ``compiler_stats`` carries the
    :class:`~repro.bist.compiler.CompilerStats` of a ``compile=True`` run
    (``None`` for uncompiled runs and archives written before the compiler
    existed).
    """

    outcomes: tuple
    compiler_stats: object | None = None

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValidationError("a campaign execution needs at least one outcome")

    @property
    def entries(self) -> list[tuple]:
        """``(label, report)`` pairs of the successful scenarios, in order."""
        return [(outcome.label, outcome.report) for outcome in self.outcomes if outcome.ok]

    @property
    def reports(self) -> list[BistReport]:
        """Reports of the successful scenarios, in submission order."""
        return [outcome.report for outcome in self.outcomes if outcome.ok]

    @property
    def errors(self) -> list[tuple]:
        """``(label, error)`` pairs of the scenarios that raised."""
        return [
            (outcome.label, outcome.error) for outcome in self.outcomes if not outcome.ok
        ]

    @property
    def all_passed(self) -> bool:
        """Whether every scenario produced a passing report."""
        return not self.errors and all(report.passed for report in self.reports)

    @property
    def total_duration_seconds(self) -> float:
        """Sum of the per-scenario wall clocks (the serial-equivalent cost)."""
        return float(sum(outcome.duration_seconds for outcome in self.outcomes))

    @property
    def cache_hits(self) -> int:
        """Scenarios served from the campaign store instead of executing."""
        return sum(outcome.cached for outcome in self.outcomes)

    @property
    def dedup_hits(self) -> int:
        """Scenarios served by fanning out an identical-fingerprint result."""
        return sum(outcome.deduplicated for outcome in self.outcomes)

    @property
    def cache_misses(self) -> int:
        """Scenarios that actually executed (neither cached nor deduplicated)."""
        return len(self.outcomes) - self.cache_hits - self.dedup_hits

    def failures(self) -> list[str]:
        """Labels of the scenarios whose report failed (raised ones: :attr:`errors`)."""
        return [label for label, report in self.entries if not report.passed]

    def summary_table(self) -> str:
        """A fixed-width text table of the campaign outcome."""
        header = f"{'scenario':<32} {'verdict':<8} {'ACPR dB':>9} {'OBW MHz':>9} {'EVM %':>7}"
        lines = [header, "-" * len(header)]
        for outcome in self.outcomes:
            if not outcome.ok:
                lines.append(f"{outcome.label:<32} {'error':<8}")
                continue
            measurements = outcome.report.measurements
            evm = measurements.evm_percent
            lines.append(
                f"{outcome.label:<32} {outcome.report.verdict.value:<8} "
                f"{measurements.acpr_db['worst_db']:>9.1f} "
                f"{measurements.occupied_bandwidth_hz / 1e6:>9.2f} "
                f"{'  n/a' if evm is None else f'{evm:>7.2f}'}"
            )
        return "\n".join(lines)

    def summary(self, sections: dict | None = None) -> CampaignSummary:
        """Aggregate statistics over reports, captured errors and cache counters.

        ``sections`` adds subsystem payloads (``{"service": ...}``,
        ``{"adaptive": ...}``) to the ``"compiler"`` section a compiled
        execution carries.
        """
        if self.compiler_stats is not None:
            sections = {"compiler": self.compiler_stats.to_dict(), **(sections or {})}
        return CampaignSummary.from_entries(
            self.entries,
            errors=self.errors,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            deduplicated=self.dedup_hits,
            sections=sections,
        )

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (exact round trip via :meth:`from_dict`).

        This is the campaign archive format: every outcome — including the
        complete per-scenario reports with their PSD arrays — survives a
        ``json.dumps`` / ``json.loads`` cycle, so fault-campaign results can
        be stored as artifacts and re-analysed without re-running the BIST.
        """
        payload = {"outcomes": [outcome.to_dict() for outcome in self.outcomes]}
        if self.compiler_stats is not None:
            payload["compiler_stats"] = self.compiler_stats.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignExecution":
        """Rebuild an execution serialized with :meth:`to_dict`."""
        stats_data = data.get("compiler_stats")
        if stats_data is not None:
            from .compiler import CompilerStats

            stats = CompilerStats.from_dict(stats_data)
        else:
            stats = None
        return cls(
            outcomes=tuple(ScenarioOutcome.from_dict(outcome) for outcome in data["outcomes"]),
            compiler_stats=stats,
        )


class ExecutionBudget:
    """Mutable cap on *fresh* scenario executions across runner calls.

    Incremental campaigns — adaptive threshold searches in particular —
    issue many small :meth:`CampaignRunner.run` calls; one budget object
    threaded through them bounds the total simulation cost.  Only scenarios
    that actually execute are charged: store cache hits are free, so a
    resumed campaign replays its archived prefix without consuming budget
    and spends it on new work only.

    The charge happens *before* a batch executes and is all-or-nothing:
    when the remaining budget cannot cover the whole batch,
    :class:`~repro.errors.BudgetExhaustedError` is raised first, leaving the
    store without partially-executed batches.
    """

    def __init__(self, max_scenarios: int) -> None:
        if not isinstance(max_scenarios, int) or isinstance(max_scenarios, bool) or max_scenarios < 1:
            raise ValidationError(
                f"max_scenarios must be a positive integer, got {max_scenarios!r}"
            )
        self._max_scenarios = max_scenarios
        self._spent = 0

    def charge(self, count: int) -> None:
        """Consume ``count`` executions or raise :class:`BudgetExhaustedError`."""
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ValidationError(f"count must be a non-negative integer, got {count!r}")
        if self._spent + count > self._max_scenarios:
            raise BudgetExhaustedError(
                f"execution budget exhausted: {self._spent} of "
                f"{self._max_scenarios} scenario(s) spent, cannot charge {count} more"
            )
        self._spent += count


@dataclass(frozen=True)
class _ScenarioTask:
    """Picklable unit of work shipped to pool workers."""

    index: int
    label: str
    scenario: CampaignScenario
    bist_config: BistConfig
    converter_factory: object
    seed: int | None | type(...) = ...


def _execute_task(task: _ScenarioTask, plan_structure_cache=None) -> ScenarioOutcome:
    """Run one scenario, never raise.

    Serial runs and pool workers call it without a cache; the campaign
    compiler calls it in-process with its group's shared
    ``plan_structure_cache``, and those outcomes name their worker
    ``compiled-pid-<pid>``.
    """
    start = time.perf_counter()
    prefix = "pid" if plan_structure_cache is None else "compiled-pid"
    worker = f"{prefix}-{os.getpid()}"
    try:
        report = execute_scenario(
            task.scenario,
            bist_config=task.bist_config,
            converter_factory=task.converter_factory,
            seed=task.seed,
            plan_structure_cache=plan_structure_cache,
        )
        return ScenarioOutcome(
            index=task.index,
            label=task.label,
            report=report,
            duration_seconds=time.perf_counter() - start,
            worker=worker,
        )
    except Exception as exc:  # noqa: BLE001 - error isolation is the contract
        return ScenarioOutcome.from_exception(task.index, task.label, exc, start, worker)


def _execute_tasks(tasks) -> list[ScenarioOutcome]:
    """Worker entry point: run a chunk of scenarios, never raise.

    Chunked submission amortises the per-future pickle/IPC overhead over
    several scenarios; each scenario still executes through
    :func:`_execute_task`, so chunking cannot change any individual result.
    """
    return [_execute_task(task) for task in tasks]


class CampaignRunner:
    """Execute campaign scenarios, optionally on a process pool.

    Parameters
    ----------
    bist_config:
        Campaign-level engine configuration (defaults to ``BistConfig()``).
    converter_factory:
        Callable ``(acquisition_bandwidth_hz) -> BpTiadc`` used for scenarios
        without their own :class:`~repro.bist.campaign.ConverterSpec`.
        Must be picklable for ``max_workers > 1`` — prefer a
        ``ConverterSpec`` over a lambda.
    max_workers:
        1 (default) executes serially in-process; larger values distribute
        scenarios over a ``ProcessPoolExecutor`` with that many workers.
    seed_policy:
        ``"shared"`` (default) runs every scenario with the configuration's
        own seed — the historical behaviour; ``"per-scenario"`` derives a
        deterministic, decorrelated seed per scenario with
        :func:`derive_scenario_seed` and reseeds the cost-function instants,
        the transmitter realisation and (for :class:`ConverterSpec`
        factories) the converter jitter from it, so fault statistics are not
        correlated through a common noise realisation.  An arbitrary factory
        callable keeps its own internal seeding either way.  Both policies
        are deterministic and produce identical results for serial and
        parallel execution.
    progress_callback:
        Optional ``callable(ScenarioOutcome)`` invoked as each scenario
        completes (completion order, which differs from submission order
        under parallel execution).  Cache hits are reported through the
        callback too, before any pending scenario executes.
    store:
        Optional :class:`~repro.store.CampaignStore`.  When set, every
        scenario is fingerprinted (see
        :func:`repro.store.scenario_fingerprint`); scenarios whose
        fingerprint is already archived are served from the store without
        executing (``cached=True`` outcomes), and every freshly executed
        successful outcome is flushed to the store as it completes — so an
        interrupted campaign resumes from where it stopped and re-runs are
        incremental.  Requires declarative :class:`ConverterSpec` converter
        factories (arbitrary callables cannot be fingerprinted).

    Scenarios sharing a fingerprint within one :meth:`run` execute once and
    the result fans out to every duplicate label (``deduplicated=True``
    outcomes).  Identical fingerprints guarantee bit-identical reports, so
    dedup never changes results; it stands down silently when the converter
    factory is not a declarative :class:`ConverterSpec` (nothing can be
    fingerprinted).  Pool submission ships scenarios in about
    :attr:`_CHUNKS_PER_WORKER` chunks per worker, which amortises the
    per-future pickle/IPC overhead on large grids while keeping the pool
    load-balanced; serial==parallel bit-identity is unaffected.
    """

    #: Pool chunks per worker (see :meth:`_effective_chunk_size`).
    _CHUNKS_PER_WORKER = 4

    def __init__(
        self,
        bist_config: BistConfig | None = None,
        converter_factory=None,
        max_workers: int = 1,
        seed_policy: str = "shared",
        progress_callback=None,
        store=None,
    ) -> None:
        if not isinstance(max_workers, int) or max_workers < 1:
            raise ValidationError("max_workers must be a positive integer")
        if seed_policy not in _SEED_POLICIES:
            raise ValidationError(
                f"seed_policy must be one of {_SEED_POLICIES}, got {seed_policy!r}"
            )
        self._bist_config = bist_config if bist_config is not None else BistConfig()
        # The nominal ConverterSpec builds the paper converter and stays
        # reseedable under "per-scenario".
        self._converter_factory = (
            converter_factory if converter_factory is not None else ConverterSpec()
        )
        self._max_workers = max_workers
        self._seed_policy = seed_policy
        self._progress_callback = progress_callback
        self._store = store

    def _effective_chunk_size(self, num_tasks: int) -> int:
        """Scenarios per pool future: about ``_CHUNKS_PER_WORKER`` per worker."""
        return max(1, -(-num_tasks // (self._max_workers * self._CHUNKS_PER_WORKER)))

    def _build_tasks(self, scenarios, indices=None) -> list[_ScenarioTask]:
        scenarios = tuple(scenarios)
        if not scenarios:
            raise ValidationError("a campaign needs at least one scenario")
        if indices is None:
            indices = range(len(scenarios))
        else:
            indices = tuple(indices)
            if len(indices) != len(scenarios):
                raise ValidationError(
                    f"indices must match the scenario count: got {len(indices)} "
                    f"indices for {len(scenarios)} scenario(s)"
                )
            if any(not isinstance(index, int) or isinstance(index, bool) or index < 0
                   for index in indices):
                raise ValidationError("indices must be non-negative integers")
            if len(set(indices)) != len(indices):
                raise ValidationError("indices must be unique")
        tasks = []
        for index, scenario in zip(indices, scenarios):
            if not isinstance(scenario, CampaignScenario):
                raise ValidationError("all scenarios must be CampaignScenario instances")
            try:
                label = scenario.resolved_label()
            except ValidationError:
                # An unresolvable profile name must surface as a per-scenario
                # error outcome, not abort the whole campaign during set-up.
                label = scenario.label if scenario.label is not None else str(scenario.profile)
            if self._seed_policy == "per-scenario":
                seed = derive_scenario_seed(self._bist_config.seed, index, label)
            else:
                seed = ...
            tasks.append(
                _ScenarioTask(
                    index=index,
                    label=label,
                    scenario=scenario,
                    bist_config=self._bist_config,
                    converter_factory=self._converter_factory,
                    seed=seed,
                )
            )
        return tasks

    def run(
        self,
        scenarios,
        budget: ExecutionBudget | None = None,
        compile: bool = False,
        indices=None,
    ) -> CampaignExecution:
        """Execute every scenario; errors are captured, not raised.

        Returns a :class:`CampaignExecution` whose outcomes are in submission
        order regardless of the order in which workers finished them.  With a
        campaign store attached, archived scenarios are served as cache hits
        (no execution) and fresh outcomes are flushed to the store as they
        complete, so an interrupted run resumes incrementally.  Scenarios
        sharing a fingerprint within the batch execute once and fan out.

        ``budget`` charges an :class:`ExecutionBudget` for the scenarios that
        will actually execute (cache hits and fingerprint duplicates are
        free), raising :class:`~repro.errors.BudgetExhaustedError` before any
        of them runs when the batch would overrun the cap.  Its type is
        checked up front, even when nothing ends up executing.

        ``compile=True`` routes the batch through the
        :class:`~repro.bist.compiler.CampaignCompiler`: fingerprint-adjacent
        scenarios (same effective profile/configuration geometry) execute
        in-process through the same per-scenario path, sharing one
        reconstruction-plan structure cache, while heterogeneous remainders
        fall back to this runner's normal serial/pool path.  Results are
        bit-identical either way; the returned execution carries the
        compiler's statistics.

        ``indices`` (when given) assigns each scenario its position in a
        larger submission — outcomes carry those indices and the
        ``per-scenario`` seed policy derives seeds from them, so a
        *partition* of a grid executed remotely (see
        :mod:`repro.service`) produces outcomes bit-identical to the same
        scenarios executed inside the full grid.  Defaults to
        ``0..len(scenarios)-1`` (the historical behaviour).
        """
        if budget is not None and not isinstance(budget, ExecutionBudget):
            raise ValidationError("budget must be an ExecutionBudget")
        try:
            cached, pending, fingerprints = self.plan(scenarios, indices=indices)
        except ConfigurationError:
            if self._store is not None:
                raise
            # An arbitrary converter factory: nothing can be fingerprinted,
            # so every task executes and dedup stands down.
            cached, pending, fingerprints = [], self._build_tasks(scenarios, indices), {}
        for outcome in cached:
            self._notify(outcome)
        pending, duplicates = self._dedup_pending(pending, fingerprints)
        if budget is not None and pending:
            budget.charge(len(pending))
        compiler_stats = None
        executed: list[ScenarioOutcome] = []
        if compile and len(pending) >= 2:
            from .compiler import CampaignCompiler

            compiler = CampaignCompiler()
            groups, pending = compiler.group(pending)
            for group in groups:
                executed.extend(
                    compiler.execute_group(
                        group, on_outcome=lambda o: self._complete(o, fingerprints)
                    )
                )
            compiler_stats = compiler.stats
        if self._max_workers == 1 or len(pending) <= 1:
            executed.extend(self._run_serial(pending, fingerprints))
        else:
            executed.extend(self._run_parallel(pending, fingerprints))
        executed += self._fan_out_duplicates(executed, duplicates)
        outcomes = sorted(cached + executed, key=lambda outcome: outcome.index)
        return CampaignExecution(outcomes=tuple(outcomes), compiler_stats=compiler_stats)

    def plan(self, scenarios, indices=None) -> tuple[list, list, dict]:
        """Build the tasks, fingerprint each once and serve store hits.

        ``scenarios`` and ``indices`` are those of :meth:`run`.  Returns
        ``(cached, pending, fingerprints)``: the store hits as
        ``cached=True`` outcomes (``worker="store"``, zero duration)
        re-homed under the current index and label, the tasks still to
        execute in submission order, and each fingerprinted task's
        fingerprint by index.  A task whose scenario content does not
        resolve (:class:`~repro.errors.ValidationError`) stays
        unfingerprinted and executes, surfacing its own error.  A converter
        factory that is not a declarative :class:`ConverterSpec` cannot be
        fingerprinted and raises :class:`~repro.errors.ConfigurationError`.
        """
        from ..store.fingerprint import scenario_fingerprint

        cached, pending, fingerprints = [], [], {}
        for task in self._build_tasks(scenarios, indices=indices):
            try:
                fingerprints[task.index] = scenario_fingerprint(
                    task.scenario,
                    bist_config=task.bist_config,
                    converter_factory=task.converter_factory,
                    seed=task.seed,
                )
            except ValidationError:
                pending.append(task)
                continue
            hit = None if self._store is None else self._store.get(fingerprints[task.index])
            if hit is not None and hit.ok:
                cached.append(
                    ScenarioOutcome(
                        index=task.index,
                        label=task.label,
                        report=hit.report,
                        worker="store",
                        cached=True,
                    )
                )
            else:
                pending.append(task)
        return cached, pending, fingerprints

    @staticmethod
    def _dedup_pending(pending, fingerprints) -> tuple[list, dict]:
        """Collapse identical-fingerprint pending tasks onto one execution.

        Returns ``(primaries, duplicates)`` where ``duplicates`` maps a
        primary task's index to the duplicate tasks whose outcomes will be
        fanned out from it.  Unfingerprinted tasks always execute.
        """
        primaries: list[_ScenarioTask] = []
        primary_of: dict[str, int] = {}
        duplicates: dict[int, list[_ScenarioTask]] = {}
        for task in pending:
            fingerprint = fingerprints.get(task.index)
            if fingerprint in primary_of:
                duplicates.setdefault(primary_of[fingerprint], []).append(task)
                continue
            if fingerprint is not None:
                primary_of[fingerprint] = task.index
            primaries.append(task)
        return primaries, duplicates

    def _fan_out_duplicates(self, executed, duplicates) -> list[ScenarioOutcome]:
        """Clone each primary outcome onto its duplicate labels.

        Identical fingerprints imply bit-identical execution, so the report
        (or the error) is shared verbatim; the fan-out costs no wall clock
        and is not re-archived (the store already holds the fingerprint from
        the primary's flush).
        """
        by_index = {outcome.index: outcome for outcome in executed}
        fanned = []
        for primary_index, tasks in duplicates.items():
            source = by_index.get(primary_index)
            if source is None:
                continue
            for task in tasks:
                outcome = ScenarioOutcome(
                    index=task.index,
                    label=task.label,
                    report=source.report,
                    error=source.error,
                    traceback_text=source.traceback_text,
                    duration_seconds=0.0,
                    worker="dedup",
                    deduplicated=True,
                )
                self._notify(outcome)
                fanned.append(outcome)
        return fanned

    def _notify(self, outcome: ScenarioOutcome) -> None:
        if self._progress_callback is not None:
            self._progress_callback(outcome)

    def _complete(self, outcome: ScenarioOutcome, fingerprints: dict) -> None:
        """Archive a fresh outcome (incremental flush), then notify."""
        if self._store is not None and outcome.ok and outcome.index in fingerprints:
            self._store.put(fingerprints[outcome.index], outcome)
        self._notify(outcome)

    def _run_serial(self, tasks, fingerprints) -> list[ScenarioOutcome]:
        outcomes = []
        for task in tasks:
            outcome = _execute_task(task)
            self._complete(outcome, fingerprints)
            outcomes.append(outcome)
        return outcomes

    def _check_picklable(self, tasks) -> None:
        for task in tasks:
            try:
                pickle.dumps(task)
            except Exception as exc:
                raise ConfigurationError(
                    f"scenario {task.label!r} cannot be shipped to a worker process "
                    f"({type(exc).__name__}: {exc}); use a picklable converter factory "
                    "such as ConverterSpec instead of a lambda, or run with "
                    "max_workers=1"
                ) from exc

    #: Pool rounds attempted when worker processes die (a dead worker fails
    #: every outstanding future, so innocent scenarios deserve a fresh pool).
    _MAX_POOL_ROUNDS = 2

    def _run_parallel(self, tasks, fingerprints) -> list[ScenarioOutcome]:
        self._check_picklable(tasks)
        outcomes: dict[int, ScenarioOutcome] = {}
        pending = list(tasks)
        for _ in range(self._MAX_POOL_ROUNDS):
            if not pending:
                break
            pending = self._pool_round(pending, outcomes, fingerprints)
        for task in pending:
            # Scenarios still unplaced after the retry rounds: the pool kept
            # breaking around them (e.g. a scenario that OOM-kills its
            # worker), so record them as errored rather than rerun forever.
            outcome = ScenarioOutcome(
                index=task.index,
                label=task.label,
                error=(
                    "BrokenProcessPool: a worker process died while this scenario "
                    f"was outstanding (after {self._MAX_POOL_ROUNDS} pool rounds)"
                ),
            )
            self._notify(outcome)
            outcomes[outcome.index] = outcome
        return [outcomes[index] for index in sorted(outcomes)]

    def _pool_round(self, tasks, outcomes, fingerprints) -> list:
        """One process-pool pass; returns tasks lost to worker deaths.

        Tasks are shipped in chunks (see :meth:`_effective_chunk_size`) so
        the pickle/IPC cost of a future is amortised over several scenarios;
        each chunk's outcomes are completed as the chunk finishes, so
        progress callbacks and store flushes still fire incrementally.
        """
        workers = min(self._max_workers, len(tasks))
        chunk_size = self._effective_chunk_size(len(tasks))
        chunks = [tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)]
        broken = []
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_execute_tasks, chunk): chunk for chunk in chunks}
            for future in concurrent.futures.as_completed(futures):
                chunk = futures[future]
                error = future.exception()
                if error is None:
                    chunk_outcomes = future.result()
                elif isinstance(error, BrokenProcessPool):
                    # A worker died and the executor failed every outstanding
                    # future; most of these scenarios never ran, so they get
                    # another pool round instead of a spurious error.
                    broken.extend(chunk)
                    continue
                else:
                    # The chunk itself could not be executed (e.g. it failed
                    # to unpickle in the worker); synthesise error outcomes.
                    chunk_outcomes = [
                        ScenarioOutcome.from_exception(task.index, task.label, error, None)
                        for task in chunk
                    ]
                for outcome in chunk_outcomes:
                    self._complete(outcome, fingerprints)
                    outcomes[outcome.index] = outcome
        return broken


# --------------------------------------------------------------------------- #
# Scenario grids
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Axis:
    """One labelled grid axis value."""

    label: str | None
    value: object


class ScenarioGrid:
    """Cartesian scenario-list builder: profiles × impairments × converters.

    A grid always has a profile axis; the impairment and converter axes are
    optional (an empty axis contributes a single nominal point and no label
    segment).  Scenario labels are ``profile[/impairment][/converter]``.

    Example
    -------
    >>> grid = (
    ...     ScenarioGrid()
    ...     .add_profiles("paper-qpsk-1ghz", "uhf-8psk-400mhz")
    ...     .add_impairment("nominal", ImpairmentConfig())
    ...     .add_impairments(pa_saturation_sweep([0.75, 1.5]))
    ...     .add_converters(skew_sweep([0.0, 2e-12]))
    ... )
    >>> len(grid)
    12
    """

    def __init__(self, num_symbols: int | None = None) -> None:
        self._profiles: list[_Axis] = []
        self._impairments: list[_Axis] = []
        self._converters: list[_Axis] = []
        self._num_symbols = num_symbols

    # -- profile axis ------------------------------------------------------ #
    def add_profile(self, profile: WaveformProfile | str) -> "ScenarioGrid":
        """Append one waveform profile (name or object), labelled by its name."""
        if not isinstance(profile, (str, WaveformProfile)):
            raise ValidationError("profile must be a WaveformProfile or a profile name")
        label = profile if isinstance(profile, str) else profile.name
        self._profiles.append(_Axis(label=label, value=profile))
        return self

    def add_profiles(self, *profiles) -> "ScenarioGrid":
        """Append several profiles at once."""
        for profile in profiles:
            self.add_profile(profile)
        return self

    # -- impairment axis --------------------------------------------------- #
    def add_impairment(self, label: str, impairments: ImpairmentConfig) -> "ScenarioGrid":
        """Append one labelled transmitter-impairment point."""
        if not isinstance(impairments, ImpairmentConfig):
            raise ValidationError("impairments must be an ImpairmentConfig")
        self._impairments.append(_Axis(label=str(label), value=impairments))
        return self

    def add_impairments(self, items) -> "ScenarioGrid":
        """Append several ``(label, ImpairmentConfig)`` pairs (or a mapping)."""
        pairs = items.items() if hasattr(items, "items") else items
        for label, impairments in pairs:
            self.add_impairment(label, impairments)
        return self

    # -- converter axis ---------------------------------------------------- #
    def add_converter(self, label: str, spec: ConverterSpec) -> "ScenarioGrid":
        """Append one labelled converter-fault point."""
        if not isinstance(spec, ConverterSpec):
            raise ValidationError("spec must be a ConverterSpec")
        self._converters.append(_Axis(label=str(label), value=spec))
        return self

    def add_converters(self, items) -> "ScenarioGrid":
        """Append several ``(label, ConverterSpec)`` pairs (or a mapping)."""
        pairs = items.items() if hasattr(items, "items") else items
        for label, spec in pairs:
            self.add_converter(label, spec)
        return self

    # -- expansion --------------------------------------------------------- #
    def __len__(self) -> int:
        return (
            len(self._profiles)
            * max(1, len(self._impairments))
            * max(1, len(self._converters))
        )

    def build(self) -> tuple:
        """Expand the grid into a tuple of :class:`CampaignScenario`."""
        if not self._profiles:
            raise ValidationError("a scenario grid needs at least one profile")
        impairment_axis = self._impairments or [_Axis(label=None, value=ImpairmentConfig())]
        converter_axis = self._converters or [_Axis(label=None, value=None)]
        scenarios = []
        labels = set()
        duplicates = []
        for profile_point in self._profiles:
            for impairment_point in impairment_axis:
                for converter_point in converter_axis:
                    parts = [profile_point.label]
                    if impairment_point.label is not None:
                        parts.append(impairment_point.label)
                    if converter_point.label is not None:
                        parts.append(converter_point.label)
                    label = "/".join(parts)
                    if label in labels:
                        duplicates.append(label)
                        continue
                    labels.add(label)
                    scenarios.append(
                        CampaignScenario(
                            profile=profile_point.value,
                            impairments=impairment_point.value,
                            label=label,
                            num_symbols=self._num_symbols,
                            converter=converter_point.value,
                        )
                    )
        if duplicates:
            # Ambiguous campaign rows would make outcome labels (and hence
            # fault-dictionary keys) collide silently; refuse loudly instead.
            shown = ", ".join(repr(label) for label in sorted(set(duplicates)))
            raise ConfigurationError(
                f"scenario grid produced {len(duplicates)} duplicate label(s): {shown}; "
                "every (profile, impairment, converter) axis point needs a unique label "
                "— rename the colliding axis entries (e.g. include the parameter value "
                "in the label) so each campaign row stays addressable"
            )
        return tuple(scenarios)


# --------------------------------------------------------------------------- #
# Sweep helpers: labelled axis values for the common fault dimensions
#
# These are thin wrappers over the first-class fault models of
# :mod:`repro.faults.models`: each helper parameterises the matching family
# at its exact physical value (severity 1 with nominal == worst) and lets the
# model inject itself, so grids and fault campaigns share one injection path.
# The fault-model imports are deferred to the function bodies because
# ``repro.faults`` itself builds on this module's :class:`CampaignRunner`.
# --------------------------------------------------------------------------- #
def pa_saturation_sweep(saturation_amplitudes) -> list[tuple]:
    """PA-compression fault axis: Rapp amplifiers at decreasing headroom."""
    from ..faults.models import PaCompressionFault

    return [
        (
            f"pa-sat-{amplitude:g}",
            PaCompressionFault(
                nominal_saturation=amplitude, worst_saturation=amplitude
            ).apply_transmitter(ImpairmentConfig()),
        )
        for amplitude in saturation_amplitudes
    ]


def iq_imbalance_sweep(points) -> list[tuple]:
    """IQ-imbalance fault axis from ``(gain_db, phase_deg)`` pairs."""
    from ..faults.models import IqImbalanceFault

    return [
        (
            f"iq-{gain_db:g}dB-{phase_deg:g}deg",
            IqImbalanceFault(
                max_gain_imbalance_db=gain_db, max_phase_imbalance_deg=phase_deg
            ).apply_transmitter(ImpairmentConfig()),
        )
        for gain_db, phase_deg in points
    ]


def skew_sweep(skews_seconds) -> list[tuple]:
    """Converter fault axis: channel-1 static skew values on the paper converter."""
    from ..faults.models import TiadcSkewFault

    return [
        (
            f"skew-{skew * 1e12:g}ps",
            TiadcSkewFault(max_skew_seconds=skew).apply_converter(ConverterSpec()),
        )
        for skew in skews_seconds
    ]
