"""Byte-identity of every registry scenario against seed-commit traces.

The golden streams under ``tests/data/seed_traces/`` were recorded at
the pre-optimization seed state of the simulator (before heap
compaction, the tuple heap, the field-wise token snapshot, the deduped
trace dispatch, the MQ pending index, and the transport timer rework).
Every optimization of the hot paths must keep each scenario's canonical
JSONL stream **byte-identical**: ``first_divergence`` over the full
stream is the proof that ordering, membership, and timing behaviour did
not move at all.

Regenerating goldens (only after an *intentional* behaviour change —
never to make an optimization "pass"):

    PYTHONPATH=src python tests/regen_seed_traces.py
"""

import gzip
import os

import pytest

from repro.experiments import registry
from repro.validation.record import first_divergence, record_spec, replay
from repro.validation.suite import standard_suite

TRACE_DIR = os.path.join(os.path.dirname(__file__), "data", "seed_traces")

#: Shortened recording horizons (ms).  Durations are trimmed for suite
#: speed but always cover every scheduled failure event of the scenario
#: (failure_drill crashes at 3000/6000, correlated_ap_failures at 5000).
#: Every fault-plan scenario (split_brain & co.) activates all of its
#: actions inside the default horizon — asserted by
#: tests/test_faults_scenarios.py — so the sharded-identity runs below
#: exercise partitions, degradation, flapping, and burst loss too.
DURATIONS = {
    "failure_drill": 7000.0,
    "correlated_ap_failures": 6000.0,
}
DEFAULT_DURATION = 2500.0


def record(name: str):
    """Record ``name`` exactly the way the goldens were recorded."""
    duration = DURATIONS.get(name, DEFAULT_DURATION)
    spec = registry.get(name)
    overrides = {"duration_ms": duration}
    if spec.warmup_ms >= duration:
        overrides["warmup_ms"] = duration / 2
    return record_spec(spec.with_overrides(overrides))


def golden_lines(name: str):
    path = os.path.join(TRACE_DIR, f"{name}.jsonl.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def test_all_registry_scenarios_have_goldens():
    missing = [n for n in registry.names()
               if not os.path.exists(os.path.join(TRACE_DIR,
                                                  f"{n}.jsonl.gz"))]
    assert missing == [], f"no seed trace recorded for {missing}"


@pytest.mark.parametrize("name", registry.names())
def test_trace_byte_identical_to_seed(name):
    rec = record(name)
    div = first_divergence(golden_lines(name), rec.lines)
    assert div is None, (
        f"{name} diverged from its seed-commit trace at "
        f"{div.describe()}")


@pytest.mark.parametrize("name", registry.names())
def test_streamed_trace_byte_identical_to_seed(name, tmp_path):
    """The streaming sink writes exactly the lines the recorder keeps.

    Same run as above but through ``record_spec(stream_path=...)`` — the
    windowed gzip sink — then read back from disk.  A small window
    forces many flush boundaries inside every scenario.
    """
    from repro.sim.trace import read_trace_lines

    duration = DURATIONS.get(name, DEFAULT_DURATION)
    spec = registry.get(name)
    overrides = {"duration_ms": duration}
    if spec.warmup_ms >= duration:
        overrides["warmup_ms"] = duration / 2
    path = str(tmp_path / f"{name}.jsonl.gz")
    sink = record_spec(spec.with_overrides(overrides), stream_path=path,
                       window=256)
    div = first_divergence(golden_lines(name), read_trace_lines(path))
    assert div is None, (
        f"{name} streamed trace diverged from its seed-commit trace at "
        f"{div.describe()}")
    assert sink.count == len(golden_lines(name))


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_streamed_trace_byte_identical(shards, tmp_path):
    """Sharded runs stream their merged lines byte-identically too.

    The sharded stream writes the same merged-lines object the stream-off
    sharded identity test (below, full 18-scenario matrix) already
    compares, so one scenario per shard count suffices to cover the
    write-and-read-back path.
    """
    from repro.shard import record_sharded
    from repro.sim.trace import read_trace_lines

    spec = registry.get("quickstart").with_overrides(
        {"duration_ms": DEFAULT_DURATION})
    path = str(tmp_path / "quickstart.jsonl.gz")
    lines = record_sharded(spec, shards, stream_path=path)
    assert read_trace_lines(path) == lines
    div = first_divergence(golden_lines("quickstart"), lines)
    assert div is None, div and div.describe()


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name", registry.names())
def test_sharded_trace_byte_identical_to_sequential(name, shards):
    """The space-parallel backend's determinism guarantee, in full.

    Re-record each scenario with K worker shards and compare the merged
    canonical stream against the sequential golden byte for byte.  The
    goldens equal a fresh sequential recording (asserted above), so
    this transitively proves sharded == sequential for every registry
    scenario — crossing the window protocol, the replicated control
    plane, churn/token-holder synchronization probes, cross-shard
    handoffs, and the deterministic merge.
    """
    from repro.shard import record_sharded

    duration = DURATIONS.get(name, DEFAULT_DURATION)
    spec = registry.get(name)
    overrides = {"duration_ms": duration}
    if spec.warmup_ms >= duration:
        overrides["warmup_ms"] = duration / 2
    lines = record_sharded(spec.with_overrides(overrides), shards)
    div = first_divergence(golden_lines(name), lines)
    assert div is None, (
        f"{name} with {shards} shards diverged from the sequential "
        f"engine at {div.describe()}")


#: Representative subset for the deeper 8-way decomposition: the
#: smoke scenario, the two mobility-heavy ones (cross-shard handoffs,
#: open-world churn — the most cross-shard wireless traffic), and one
#: fault-plan scenario (partitions + probe-synchronized activations).
SHARDS8_SUBSET = ["quickstart", "handoff_storm", "open_world_mobile",
                  "split_brain"]


@pytest.mark.parametrize("name", SHARDS8_SUBSET)
def test_sharded_trace_byte_identical_at_eight_shards(name):
    """Identity survives the 8-way split, where BR units must be split
    below subtree granularity and roaming MHs reach the most shards."""
    from repro.shard import record_sharded

    duration = DURATIONS.get(name, DEFAULT_DURATION)
    spec = registry.get(name)
    overrides = {"duration_ms": duration}
    if spec.warmup_ms >= duration:
        overrides["warmup_ms"] = duration / 2
    lines = record_sharded(spec.with_overrides(overrides), 8)
    div = first_divergence(golden_lines(name), lines)
    assert div is None, (
        f"{name} with 8 shards diverged from the sequential engine at "
        f"{div.describe()}")


def test_recorded_stream_replays_through_monitor_suite():
    """The golden streams stay consumable by the offline monitor path."""
    from repro.validation.record import line_to_record

    records = [line_to_record(line) for line in golden_lines("quickstart")]
    suite = standard_suite("ringnet")
    replay(records, suite)
    assert suite.all_violations() == []
