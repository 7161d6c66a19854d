"""Generated interleavings of store writers sharing one directory.

Two or three :class:`CampaignStore` instances append to their own shards of
one root: fingerprints of their own and a few shared ones.  Between puts a
drawn step may crash a writer in the middle of an append (the shard keeps a
torn tail and the writer restarts), reopen a writer, compact the store
through one writer, or merge a separate source store into one.  After every
step a fresh ``load()`` must not raise and must serve, bit for bit, exactly
what a model of the shards serves: the first complete record per
fingerprint in sorted shard order.  Only torn records may be lost.

Every record is a relabelled copy of one real fast-config outcome, so the
test runs in-process in a few seconds.
"""

import itertools
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist import BistConfig, CampaignRunner, ScenarioGrid
from repro.store import CampaignStore, CampaignStoreWarning, canonical_json

FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)

WRITERS = ("writer-a", "writer-b", "writer-c")
SHARED = ("shared-0", "shared-1")
#: The source store a merge folds in: ``(fingerprint, label)`` in shard order.
SOURCE = (("shared-1", "source-0"), ("writer-a-0", "source-1"), ("source-only", "source-2"))

STEPS = st.tuples(
    st.sampled_from(["put", "put", "put", "crash", "reopen", "compact", "merge"]),
    st.integers(0, len(WRITERS) - 1),
    # Which fingerprint a put or crash writes: a shared one, or the writer's own next.
    st.integers(0, len(SHARED)),
    # Where a crash cuts its record, as a fraction of the record's bytes.
    st.floats(0.0, 1.0),
)


@pytest.fixture(scope="module")
def real_outcome():
    grid = ScenarioGrid().add_profiles("paper-qpsk-1ghz").build()
    outcome = CampaignRunner(bist_config=FAST_CONFIG).run(grid).outcomes[0]
    assert outcome.ok
    return outcome


class ShardModel:
    """The complete records of every shard, and what each writer's index holds."""

    def __init__(self, writers):
        self.shards = {name: [] for name in writers}
        self.known = {name: None for name in writers}

    def served(self) -> dict:
        """Fingerprint -> label of the first complete record in sorted shard order."""
        served = {}
        for name in sorted(self.shards):
            for fingerprint, label in self.shards[name]:
                served.setdefault(fingerprint, label)
        return served

    def index(self, writer) -> set:
        """The writer's fingerprint index, loaded from the shards on first use."""
        if self.known[writer] is None:
            self.known[writer] = set(self.served())
        return self.known[writer]


def quietly(call):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CampaignStoreWarning)
        return call()


@settings(max_examples=60, deadline=None)
@given(num_writers=st.integers(2, 3), steps=st.lists(STEPS, min_size=1, max_size=12))
def test_fresh_load_serves_the_model(real_outcome, num_writers, steps):
    labels = itertools.count()
    expected = {}

    def outcome(label):
        record = replace(real_outcome, index=len(expected), label=label)
        expected[label] = canonical_json(record.to_dict())
        return record

    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory) / "store"
        source = CampaignStore(Path(directory) / "source")
        for fingerprint, label in SOURCE:
            source.put(fingerprint, outcome(label))
        writers = WRITERS[:num_writers]
        stores = {name: CampaignStore(root, shard=name) for name in writers}
        model = ShardModel(writers)
        # The first writers index the empty store up front, so a shared
        # fingerprint two of them put lands in both shards; a reopened
        # writer indexes lazily, on its first put or merge.
        for name, store in stores.items():
            assert len(store) == len(model.index(name)) == 0
        own = dict.fromkeys(writers, 0)
        written = set()

        for action, who, which, cut in steps:
            name = writers[who % num_writers]
            store = stores[name]
            if action in ("put", "crash"):
                own_fingerprint = which == len(SHARED)
                fingerprint = f"{name}-{own[name]}" if own_fingerprint else SHARED[which]
                label = f"record-{next(labels)}"
                index = model.index(name)
                fresh = fingerprint not in index
                path = store.shard_path
                assert quietly(lambda: store.put(fingerprint, outcome(label))) == fresh
                if action == "crash":
                    if fresh:
                        # The append tore inside its record: keep a strict
                        # prefix of the record's JSON and no newline.
                        data = path.read_bytes()
                        start = data.rstrip(b"\n").rfind(b"\n") + 1
                        size = len(data) - 1 - start
                        path.write_bytes(data[: start + 1 + int(cut * (size - 2))])
                    stores[name] = CampaignStore(root, shard=name)
                    model.known[name] = None
                else:
                    if fresh:
                        model.shards[name].append((fingerprint, label))
                        index.add(fingerprint)
                        written.add(fingerprint)
                    if own_fingerprint:
                        own[name] += 1
            elif action == "reopen":
                stores[name] = CampaignStore(root, shard=name)
                model.known[name] = None
            elif action == "compact":
                served = model.served()
                assert quietly(store.compact) == len(served)
                model.shards = {shard: [] for shard in model.shards}
                model.shards[name] = sorted(served.items())
                model.known[name] = set(served)
            else:
                index = model.index(name)
                added = [(fp, label) for fp, label in SOURCE if fp not in index]
                assert quietly(lambda: store.merge(source.root)) == len(added)
                model.shards[name] += added
                index.update(fp for fp, _ in added)
                written.update(fp for fp, _ in added)

            loaded = quietly(CampaignStore(root).load)
            served = model.served()
            assert sorted(loaded) == sorted(served)
            for fingerprint, label in served.items():
                assert canonical_json(loaded[fingerprint].to_dict()) == expected[label]
            assert written <= set(loaded)
