"""Generated-input properties of the campaign bookkeeping contracts.

Small random grids (two resolvable profiles, one unknown profile name,
optional skew converters, repeated content under distinct labels, both
seed policies) run through every execution path: serial, compiled, serial
against a store pre-seeded with a random subset of the grid, and the
service planner with each partition run in-process the way a worker runs
it.  Every path must agree index by index, fingerprint-equal scenarios
must carry identical reports, a store hit must happen exactly where the
fingerprint was archived beforehand, and every outcome is exactly one of
cache hit, dedup fan-out or execution.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bist import BistConfig, CampaignRunner, CampaignScenario, ConverterSpec
from repro.bist.runner import CampaignExecution
from repro.service import plan_partitions
from repro.store import CampaignStore

#: About 0.1 s per scenario: big enough to run the whole loop, small
#: enough for several generated grids per test.
CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=5,
    num_cost_points=10,
    measure_evm_enabled=False,
)
PROFILES = ("paper-qpsk-1ghz", "wideband-16qam-2ghz", "no-such-profile")
CONVERTERS = (None, ConverterSpec(channel1_skew_seconds=2e-12))


@st.composite
def campaigns(draw):
    """``(scenarios, seed_policy, pre-seeded indices)``."""
    contents = draw(
        st.lists(
            st.tuples(st.sampled_from(PROFILES), st.sampled_from(CONVERTERS)),
            min_size=2,
            max_size=4,
        )
    )
    scenarios = tuple(
        CampaignScenario(profile=profile, converter=converter, label=f"s{index}")
        for index, (profile, converter) in enumerate(contents)
    )
    seed_policy = draw(st.sampled_from(("shared", "per-scenario")))
    flags = draw(st.lists(st.booleans(), min_size=len(scenarios), max_size=len(scenarios)))
    return scenarios, seed_policy, [index for index, flag in enumerate(flags) if flag]


def result_of(outcome):
    """What an outcome says about its scenario: a report, or an error text."""
    return ("report", outcome.report.to_dict()) if outcome.ok else ("error", outcome.error)


def check_counters(execution: CampaignExecution) -> None:
    executed = sum(
        outcome.worker.startswith(("pid-", "compiled-pid-")) for outcome in execution.outcomes
    )
    assert execution.cache_misses == executed
    assert execution.cache_hits + execution.dedup_hits + execution.cache_misses == len(
        execution.outcomes
    )
    summary = execution.summary()
    assert summary.cache_hits + summary.deduplicated + summary.cache_misses == (
        summary.num_scenarios
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(campaigns())
def test_every_path_keeps_the_bookkeeping_contracts(campaign):
    scenarios, seed_policy, preseed = campaign

    def runner(store=None) -> CampaignRunner:
        return CampaignRunner(bist_config=CONFIG, seed_policy=seed_policy, store=store)

    _, _, fingerprints = runner().plan(scenarios)
    # Each scenario run on its own: no duplicate to fan out from.
    alone = [
        runner().run([scenario], indices=[index]).outcomes[0]
        for index, scenario in enumerate(scenarios)
    ]
    serial = runner().run(scenarios)
    compiled = runner().run(scenarios, compile=True)

    with tempfile.TemporaryDirectory() as root:
        store_root = Path(root) / "store"
        store_root.mkdir()
        archived = set()
        if preseed:
            seeded = runner(CampaignStore(store_root)).run(
                [scenarios[index] for index in preseed], indices=preseed
            )
            archived = {fingerprints[outcome.index] for outcome in seeded.outcomes if outcome.ok}
        shutil.copytree(store_root, Path(root) / "service")
        resumed = runner(CampaignStore(store_root)).run(scenarios)

        plan = plan_partitions(
            scenarios,
            num_partitions=2,
            bist_config=CONFIG,
            seed_policy=seed_policy,
            store=CampaignStore(Path(root) / "service"),
        )
        merged = {outcome.index: outcome for outcome in plan.cached}
        for partition in plan.partitions:
            shard = f"worker-{partition.partition_id}"
            worker = runner(CampaignStore(Path(root) / "service", shard=shard))
            execution = worker.run(partition.scenarios, indices=partition.indices)
            merged.update((outcome.index, outcome) for outcome in execution.outcomes)
        service = CampaignExecution(outcomes=tuple(merged[index] for index in sorted(merged)))

    # Alone == serial == compiled == resumed == service, index by index.
    expected = [(outcome.index, outcome.label, result_of(outcome)) for outcome in alone]
    assert [outcome.index for outcome in alone] == list(range(len(scenarios)))
    for execution in (serial, compiled, resumed, service):
        assert [
            (outcome.index, outcome.label, result_of(outcome)) for outcome in execution.outcomes
        ] == expected
        check_counters(execution)

    # Fingerprint-equal scenarios produce identical reports even when they
    # execute separately, and within one run duplicates execute once.
    by_fingerprint = {}
    for index, fingerprint in fingerprints.items():
        by_fingerprint.setdefault(fingerprint, set()).add(repr(result_of(alone[index])))
    assert all(len(results) == 1 for results in by_fingerprint.values())
    assert serial.dedup_hits == len(fingerprints) - len(by_fingerprint)

    # A store hit happens exactly where the fingerprint was archived before.
    for execution in (resumed, service):
        for outcome in execution.outcomes:
            assert outcome.cached == (fingerprints.get(outcome.index) in archived)
