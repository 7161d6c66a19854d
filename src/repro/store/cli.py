"""Command-line front end of the campaign store: ``python -m repro.store``.

Subcommands
-----------
``run``
    Execute a profile campaign against a store directory.  Scenarios whose
    fingerprints are already archived are served from the store; fresh
    outcomes are flushed as they complete, so the command is safe to
    interrupt.  Optionally writes the full campaign archive to a JSON file
    (the golden-baseline format).
``resume``
    Identical execution semantics to ``run`` but requires the store to
    exist already — the explicit "pick up the interrupted campaign" verb.
``adaptive``
    Run an adaptive threshold-finding campaign: per fault family, locate the
    minimal detectable severity by (probabilistic) bisection with CI-based
    early stopping instead of sweeping the exhaustive severity grid.  Every
    adaptive step is an ordinary fingerprinted scenario, so interrupting and
    re-running the command (or hitting ``--budget``) resumes from the store.
``merge``
    Fold one or more source stores (e.g. shards produced by distributed
    workers) into a destination store, first record per fingerprint wins.
``compare``
    Diff a candidate campaign archive against a golden-baseline archive
    with per-metric tolerances; exits non-zero when any metric drifted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..bist.engine import BistConfig
from ..bist.runner import CampaignRunner, ScenarioGrid
from ..errors import ReproError
from .baseline import BaselineComparator, BaselineTolerances
from .store import CampaignStore

__all__ = ["main", "build_parser"]

#: Reduced engine configuration of ``--fast`` smoke runs (matches the CI
#: preset); the service CLI's ``--fast`` uses it too.
_FAST_CONFIG = dict(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)


def _load_archive(path: str):
    """Load a ``CampaignExecution`` archive from a JSON file."""
    from ..bist.runner import CampaignExecution

    with open(path, "r", encoding="utf-8") as handle:
        return CampaignExecution.from_dict(json.load(handle))


def _save_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def _build_config(args) -> BistConfig:
    overrides = dict(_FAST_CONFIG) if args.fast else {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    return BistConfig(**overrides)


def _cmd_run(args, resume: bool = False) -> int:
    store_root = Path(args.store)
    if resume and not store_root.is_dir():
        print(f"error: store directory {store_root} does not exist; nothing to resume",
              file=sys.stderr)
        return 2
    store = CampaignStore(store_root, shard=args.shard)
    grid = ScenarioGrid(num_symbols=args.num_symbols)
    grid.add_profiles(*[name.strip() for name in args.profiles.split(",") if name.strip()])
    runner = CampaignRunner(
        bist_config=_build_config(args),
        max_workers=args.workers,
        seed_policy=args.seed_policy,
        store=store,
        progress_callback=(
            None if args.quiet else lambda outcome: print("  " + outcome.summary())
        ),
    )
    execution = runner.run(grid.build())
    summary = execution.summary()
    print(summary.to_text())
    if args.output:
        _save_json(args.output, execution.to_dict())
        print(f"archive written to {args.output}")
    return 0 if not execution.errors else 1


def _cmd_adaptive(args) -> int:
    from ..bist.runner import ExecutionBudget
    from ..faults import AdaptiveConfig, AdaptivePlanner, CampaignProbeBackend, TestLimits

    store = CampaignStore(Path(args.store), shard=args.shard)
    families = [name.strip() for name in args.families.split(",") if name.strip()]
    limits = TestLimits(
        use_bist_verdict=not args.no_bist_verdict,
        max_skew_deviation_ps=args.max_skew_deviation_ps,
    )
    backend = CampaignProbeBackend(
        [name.strip() for name in args.profiles.split(",") if name.strip()],
        bist_config=_build_config(args),
        limits=limits,
        num_symbols=args.num_symbols,
        max_workers=args.workers,
        store=store,
        progress_callback=(
            None if args.quiet else lambda outcome: print("  " + outcome.summary())
        ),
    )
    config = AdaptiveConfig(
        num_steps=args.num_steps,
        repeats_per_round=args.repeats,
        strategy=args.strategy,
    )
    planner = AdaptivePlanner(backend, config)
    budget = None if args.budget is None else ExecutionBudget(args.budget)
    result = planner.run(families, budget=budget)
    summary = result.summary()
    print(result.report.to_text())
    print(summary.to_text())
    if args.output:
        _save_json(
            args.output,
            {"report": result.report.to_dict(), "summary": summary.to_dict()},
        )
        print(f"threshold report written to {args.output}")
    return 0 if summary.num_errors == 0 else 1


def _cmd_merge(args) -> int:
    destination = CampaignStore(args.into, shard=args.shard)
    added = destination.merge(*args.sources)
    print(
        f"merged {len(args.sources)} store(s) into {args.into}: "
        f"{added} new record(s), {len(destination)} total"
    )
    return 0


def _tolerances(args) -> BaselineTolerances:
    overrides = {}
    for name in (
        "output_power_rel",
        "acpr_db",
        "occupied_bandwidth_hz",
        "evm_percent",
        "mask_margin_db",
        "skew_estimate_ps",
    ):
        value = getattr(args, f"tol_{name}")
        if value is not None:
            overrides[name] = value
    return BaselineTolerances(**overrides)


def _cmd_compare(args) -> int:
    baseline = _load_archive(args.baseline)
    candidate = _load_archive(args.candidate)
    comparator = BaselineComparator(tolerances=_tolerances(args))
    report = comparator.compare(baseline, candidate)
    print(report.to_text())
    if args.output:
        _save_json(args.output, report.to_dict())
        print(f"drift report written to {args.output}")
    return 0 if report.passed else 1


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", required=True, help="store directory (JSONL shards)")
    parser.add_argument("--shard", default="campaign", help="shard file stem to append to")
    parser.add_argument(
        "--profiles",
        required=True,
        help="comma-separated waveform profile names (see repro.signals.standards)",
    )
    parser.add_argument("--workers", type=int, default=1, help="process-pool size")
    parser.add_argument(
        "--seed-policy",
        choices=("shared", "per-scenario"),
        default="shared",
        help="campaign seed policy (see CampaignRunner)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the engine seed")
    parser.add_argument("--num-symbols", type=int, default=None, help="burst length override")
    parser.add_argument("--fast", action="store_true", help="reduced engine settings (smoke)")
    parser.add_argument("--output", default=None, help="write the campaign archive JSON here")
    parser.add_argument("--quiet", action="store_true", help="suppress per-scenario progress")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.store`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Persistent campaign store: resumable runs, shard merging, "
        "golden-baseline regression gating.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a profile campaign against a store")
    _add_run_arguments(run)

    resume = commands.add_parser(
        "resume", help="resume an interrupted campaign from an existing store"
    )
    _add_run_arguments(resume)

    adaptive = commands.add_parser(
        "adaptive", help="adaptive per-family threshold search against a store"
    )
    _add_run_arguments(adaptive)
    adaptive.add_argument(
        "--families",
        required=True,
        help="comma-separated fault family names (see repro.faults.models)",
    )
    adaptive.add_argument(
        "--num-steps", type=int, default=16, help="severity-grid resolution"
    )
    adaptive.add_argument(
        "--repeats", type=int, default=3, help="BIST repeats per early-stopping round"
    )
    adaptive.add_argument(
        "--strategy",
        choices=("bisection", "probabilistic"),
        default="bisection",
        help="threshold-search strategy",
    )
    adaptive.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on fresh scenario executions (cache hits are free); "
        "re-run the command to resume once exhausted",
    )
    adaptive.add_argument(
        "--max-skew-deviation-ps",
        type=float,
        default=None,
        help="explicit skew-deviation limit added to the screen",
    )
    adaptive.add_argument(
        "--no-bist-verdict",
        action="store_true",
        help="ignore the BIST's own per-profile verdict in the screen",
    )

    merge = commands.add_parser("merge", help="merge source stores into a destination")
    merge.add_argument("--into", required=True, help="destination store directory")
    merge.add_argument("--shard", default="campaign", help="destination shard stem")
    merge.add_argument("sources", nargs="+", help="source store directories")

    compare = commands.add_parser(
        "compare", help="diff a campaign archive against a golden baseline"
    )
    compare.add_argument("--baseline", required=True, help="golden baseline archive JSON")
    compare.add_argument("--candidate", required=True, help="candidate archive JSON")
    compare.add_argument("--output", default=None, help="write the drift report JSON here")
    for name, kind in (
        ("output_power_rel", float),
        ("acpr_db", float),
        ("occupied_bandwidth_hz", float),
        ("evm_percent", float),
        ("mask_margin_db", float),
        ("skew_estimate_ps", float),
    ):
        compare.add_argument(
            f"--tol-{name.replace('_', '-')}",
            dest=f"tol_{name}",
            type=kind,
            default=None,
            help=f"override the {name} tolerance",
        )
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "resume":
            return _cmd_run(args, resume=True)
        if args.command == "adaptive":
            return _cmd_adaptive(args)
        if args.command == "merge":
            return _cmd_merge(args)
        if args.command == "compare":
            return _cmd_compare(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")
