"""Command-line front end of the BIST service: ``python -m repro.service``.

Subcommands
-----------
``serve``
    Start the service: a JSON-over-HTTP endpoint in front of an async job
    queue whose coordinator fans each job out across worker processes, all
    sharing one campaign store.  Runs until ``POST /drain``.
``run``
    Execute one campaign through the coordinator *without* the HTTP layer —
    the distributed equivalent of ``python -m repro.store run``, useful for
    CI and benchmarking.
``submit`` / ``status`` / ``result`` / ``jobs`` / ``drain``
    Thin HTTP-client verbs against a running service: enqueue a spec (from
    flags or a JSON file), poll one job, fetch a finished job's merged
    summary, list every job, or begin a graceful shutdown.
``compact``
    Collapse every store shard into one fingerprint-sorted shard.
``gc``
    Apply a retention policy to the store: expire shards by age, tombstone
    superseded-schema records, protect a baseline fingerprint set.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from ..bist.engine import BistConfig
from ..bist.runner import ExecutionBudget
from ..errors import ReproError
from ..store.cli import _FAST_CONFIG
from .client import ServiceClient
from .coordinator import Coordinator
from .lifecycle import GcPolicy, compact_store, run_gc
from .spec import CampaignSpec

__all__ = ["main", "build_parser"]


def _save_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def _build_spec(args) -> CampaignSpec:
    """A CampaignSpec from ``--spec FILE`` or from the profile flags."""
    if getattr(args, "spec", None):
        with open(args.spec, "r", encoding="utf-8") as handle:
            return CampaignSpec.from_dict(json.load(handle))
    overrides = dict(_FAST_CONFIG) if args.fast else {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    return CampaignSpec(
        profiles=tuple(name.strip() for name in args.profiles.split(",") if name.strip()),
        num_symbols=args.num_symbols,
        bist_config=BistConfig(**overrides),
        seed_policy=args.seed_policy,
        compile_groups=args.compile,
    )


def _client(args) -> ServiceClient:
    return ServiceClient(args.url, timeout_seconds=args.timeout)


# ---------------------------------------------------------------------- #
# Commands
# ---------------------------------------------------------------------- #
def _cmd_serve(args) -> int:
    from .server import serve

    print(f"bist service: store {args.store}, {args.workers} worker(s), "
          f"listening on {args.host}:{args.port}")
    asyncio.run(
        serve(
            args.store,
            host=args.host,
            port=args.port,
            num_workers=args.workers,
            ready_callback=lambda port: print(f"ready on port {port}", flush=True),
        )
    )
    print("bist service: drained")
    return 0


def _cmd_run(args) -> int:
    spec = _build_spec(args)
    coordinator = Coordinator.for_spec(
        spec,
        args.store,
        num_workers=args.workers,
        partitions_per_worker=args.partitions_per_worker,
        max_retries=args.max_retries,
        progress_callback=(
            None if args.quiet else lambda outcome: print("  " + outcome.summary())
        ),
    )
    budget = None if args.budget is None else ExecutionBudget(args.budget)
    execution = coordinator.run(spec.scenarios(), budget=budget)
    summary = execution.summary()
    print(summary.to_text())
    print(execution.stats.to_text())
    if args.output:
        _save_json(
            args.output,
            {"summary": summary.to_dict(), "stats": execution.stats.to_dict()},
        )
        print(f"service report written to {args.output}")
    return 0 if not execution.execution.errors else 1


def _cmd_submit(args) -> int:
    spec = _build_spec(args)
    client = _client(args)
    job_id = client.submit(spec)
    print(f"submitted {job_id}: {spec.describe()}")
    if args.wait:
        status = client.wait(job_id, timeout_seconds=args.timeout_job)
        print(f"{job_id}: {status['state']}")
        return 0 if status["state"] == "done" else 1
    return 0


def _cmd_status(args) -> int:
    status = _client(args).status(args.job_id)
    print(json.dumps(status, indent=2))
    return 0


def _cmd_result(args) -> int:
    result = _client(args).result(args.job_id)
    print(result["summary_text"])
    if args.output:
        _save_json(args.output, result)
        print(f"result written to {args.output}")
    return 0 if result["state"] == "done" else 1


def _cmd_jobs(args) -> int:
    for status in _client(args).jobs():
        print(
            f"{status['job_id']}: {status['state']:<8} "
            f"{status['completed_scenarios']}/{status['scenarios_total']} "
            f"{status['description']}"
        )
    return 0


def _cmd_drain(args) -> int:
    response = _client(args).drain()
    print(f"drain requested: {response['status']}")
    return 0


def _cmd_compact(args) -> int:
    survivors = compact_store(args.store, shard=args.shard)
    print(f"compacted {args.store}: {survivors} record(s) in one shard")
    return 0


def _cmd_gc(args) -> int:
    policy = GcPolicy(
        max_age_seconds=args.max_age_seconds,
        drop_superseded_schema=not args.keep_superseded_schema,
    )
    if args.protect:
        policy = policy.protecting(args.protect)
    report = run_gc(args.store, policy, dry_run=args.dry_run)
    print(report.to_text())
    if args.output:
        _save_json(args.output, report.to_dict())
    return 0


# ---------------------------------------------------------------------- #
# Parser
# ---------------------------------------------------------------------- #
def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", default=None, help="campaign spec JSON file")
    parser.add_argument(
        "--profiles",
        default="",
        help="comma-separated waveform profile names (ignored with --spec)",
    )
    parser.add_argument("--num-symbols", type=int, default=None, help="burst length override")
    parser.add_argument(
        "--seed-policy",
        choices=("shared", "per-scenario"),
        default="shared",
        help="campaign seed policy (see CampaignRunner)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the engine seed")
    parser.add_argument("--fast", action="store_true", help="reduced engine settings (smoke)")
    parser.add_argument(
        "--compile", action="store_true", help="batch fingerprint-adjacent scenarios in workers"
    )


def _add_client_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url", default="http://127.0.0.1:8321", help="service endpoint base URL"
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0, help="per-request timeout in seconds"
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.service`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Distributed BIST-as-a-service: coordinator fan-out over a "
        "shared campaign store, async job queue, JSON-over-HTTP API, shard lifecycle.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="start the HTTP service")
    serve.add_argument("--store", required=True, help="shared store directory")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8321, help="bind port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=4, help="worker processes per job")

    run = commands.add_parser("run", help="run one campaign through the coordinator")
    run.add_argument("--store", required=True, help="shared store directory")
    run.add_argument("--workers", type=int, default=4, help="worker processes")
    run.add_argument(
        "--partitions-per-worker", type=int, default=1, help="partitions per worker slot"
    )
    run.add_argument("--max-retries", type=int, default=2, help="re-dispatches per partition")
    run.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on fresh scenario executions (cache hits are free)",
    )
    run.add_argument("--output", default=None, help="write summary + service stats JSON here")
    run.add_argument("--quiet", action="store_true", help="suppress per-scenario progress")
    _add_spec_arguments(run)

    submit = commands.add_parser("submit", help="submit a campaign to a running service")
    _add_client_arguments(submit)
    _add_spec_arguments(submit)
    submit.add_argument("--wait", action="store_true", help="block until the job finishes")
    submit.add_argument(
        "--timeout-job", type=float, default=300.0, help="seconds to wait with --wait"
    )

    status = commands.add_parser("status", help="show one job's status")
    _add_client_arguments(status)
    status.add_argument("job_id", help="job id returned by submit")

    result = commands.add_parser("result", help="fetch a finished job's merged summary")
    _add_client_arguments(result)
    result.add_argument("job_id", help="job id returned by submit")
    result.add_argument("--output", default=None, help="write the result JSON here")

    jobs = commands.add_parser("jobs", help="list every job on the service")
    _add_client_arguments(jobs)

    drain = commands.add_parser("drain", help="gracefully shut the service down")
    _add_client_arguments(drain)

    compact = commands.add_parser("compact", help="collapse store shards into one")
    compact.add_argument("--store", required=True, help="store directory")
    compact.add_argument("--shard", default="campaign", help="surviving shard stem")

    gc = commands.add_parser("gc", help="apply a retention policy to the store")
    gc.add_argument("--store", required=True, help="store directory")
    gc.add_argument(
        "--max-age-seconds",
        type=float,
        default=None,
        help="expire records in shards older than this (mtime-based)",
    )
    gc.add_argument(
        "--protect",
        default=None,
        help="baseline store directory or JSON fingerprint list to keep",
    )
    gc.add_argument(
        "--keep-superseded-schema",
        action="store_true",
        help="do not tombstone records from older schema eras",
    )
    gc.add_argument("--dry-run", action="store_true", help="report only, change nothing")
    gc.add_argument("--output", default=None, help="write the GC report JSON here")
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "serve": _cmd_serve,
        "run": _cmd_run,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "result": _cmd_result,
        "jobs": _cmd_jobs,
        "drain": _cmd_drain,
        "compact": _cmd_compact,
        "gc": _cmd_gc,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
