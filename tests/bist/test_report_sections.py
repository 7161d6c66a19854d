"""Tests for the optional lines of ``CampaignSummary.to_text``.

The store line renders from the cache counters every execution carries;
each subsystem payload in ``CampaignSummary.sections`` (compiler, adaptive
planner, service queue) renders through its entry in the
``_SECTION_RENDERERS`` table, keyed by section name.  The contract under
test: a line appears only when its data is present, in table order, right
after the headline, and adding a source never requires editing ``to_text``
itself.
"""

from repro.bist.report import _SECTION_RENDERERS, CampaignSummary

SERVICE_PAYLOAD = {
    "num_workers": 4,
    "num_partitions": 3,
    "retries": 1,
    "queue_latency_seconds": 0.125,
    "execution_seconds": 2.5,
    "warm_hit_rate": 0.75,
}

COMPILER_PAYLOAD = {
    "groups_formed": 2,
    "scenarios_batched": 5,
    "scenarios_pooled": 3,
    "structure_cache": {"hits": 4, "misses": 1},
}


def make_summary(**kwargs) -> CampaignSummary:
    """Smallest valid summary: one errored scenario, no reports needed."""
    return CampaignSummary.from_entries(
        [], errors=[("scenario-0", "synthetic")], **kwargs
    )


def optional_lines(summary: CampaignSummary) -> list:
    """The lines between the headline and the per-profile table header."""
    lines = summary.to_text().splitlines()
    header = next(index for index, line in enumerate(lines) if line.startswith("profile "))
    return lines[1:header]


class TestSectionTable:
    def test_table_covers_every_metric_source_in_order(self):
        assert list(_SECTION_RENDERERS) == ["compiler", "adaptive", "service"]

    def test_bare_summary_renders_no_optional_sections(self):
        summary = make_summary()
        assert summary.sections == {}
        assert optional_lines(summary) == []

    def test_every_section_renders_when_its_source_is_present(self):
        summary = make_summary(
            cache_hits=3,
            cache_misses=1,
            deduplicated=2,
            sections={
                "service": SERVICE_PAYLOAD,
                "adaptive": {"scenarios_saved_vs_grid": 4.0},
                "compiler": COMPILER_PAYLOAD,
            },
        )
        # Table order, whatever the order of the mapping.
        assert [line.split(":")[0] for line in optional_lines(summary)] == [
            "campaign store",
            "campaign compiler",
            "adaptive efficiency",
            "campaign service",
        ]

    def test_a_section_without_renderer_is_kept_but_not_rendered(self):
        summary = make_summary(sections={"custom": {"value": 1}})
        assert optional_lines(summary) == []
        assert summary.to_dict()["sections"] == {"custom": {"value": 1}}


class TestStoreSection:
    def test_hits_and_dedup(self):
        summary = make_summary(cache_hits=3, cache_misses=1, deduplicated=2)
        assert optional_lines(summary) == [
            "campaign store: 3 cache hit(s), 2 deduplicated, 1 executed"
        ]

    def test_dedup_clause_is_omitted_when_zero(self):
        summary = make_summary(cache_hits=3, cache_misses=1)
        assert optional_lines(summary) == ["campaign store: 3 cache hit(s), 1 executed"]

    def test_cold_run_renders_nothing(self):
        assert optional_lines(make_summary(cache_misses=1)) == []


class TestCompilerSection:
    def test_renders_counts_and_structure_cache(self):
        summary = make_summary(sections={"compiler": COMPILER_PAYLOAD})
        assert optional_lines(summary) == [
            "campaign compiler: 2 group(s), 5 batched, 3 pooled "
            "(structure cache: 4 hit(s), 1 miss(es))"
        ]


class TestAdaptiveSection:
    def test_renders_grid_equivalent_efficiency(self):
        summary = make_summary(sections={"adaptive": {"scenarios_saved_vs_grid": 4.25}})
        assert optional_lines(summary) == [
            "adaptive efficiency: 4.2x fewer scenarios than the exhaustive grid"
        ]


class TestServiceSection:
    def test_renders_queue_and_cache_metrics(self):
        summary = make_summary(sections={"service": SERVICE_PAYLOAD})
        assert optional_lines(summary) == [
            "campaign service: 4 worker(s), 3 partition(s), 1 retry(ies); "
            "queue latency 0.125 s, execution 2.50 s; "
            "warm-cache hit rate 75.0%"
        ]

    def test_missing_keys_default_to_zero(self):
        (line,) = optional_lines(make_summary(sections={"service": {}}))
        assert "0 worker(s)" in line
        assert "warm-cache hit rate 0.0%" in line

    def test_service_dict_round_trips_through_to_dict(self):
        summary = make_summary(sections={"service": SERVICE_PAYLOAD})
        assert summary.to_dict()["sections"] == {"service": SERVICE_PAYLOAD}
        # from_entries defensively copies: mutating the input doesn't leak.
        payload = dict(SERVICE_PAYLOAD)
        summary = make_summary(sections={"service": payload})
        payload["num_workers"] = 99
        assert summary.sections["service"]["num_workers"] == 4
