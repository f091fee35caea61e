"""Sharded execution: engine keys, window stepping, trace identity.

The exhaustive all-scenario identity matrix lives in
``test_trace_identity.py`` (the sharded re-record pass); these tests
cover the mechanisms it rests on plus targeted end-to-end runs for the
synchronization-probe paths (churn, token-holder crash).
"""

import pytest

from repro.experiments import registry
from repro.shard import record_sharded, run_sharded
from repro.shard.record import merge_streams
from repro.sim.engine import Simulator, mix_key
from repro.validation.record import first_divergence, record_spec


def short(name, duration, **extra):
    overrides = {"duration_ms": duration, "warmup_ms": 0.0}
    overrides.update(extra)
    return registry.get(name, **overrides)


# ----------------------------------------------------------------------
# Engine: causal keys and ownership contexts
# ----------------------------------------------------------------------
def test_causal_keys_are_decomposition_invariant():
    """An event's key depends only on its causal ancestry, not on what
    other events exist — the property sharding rests on."""
    def chain_keys(extra_noise):
        sim = Simulator(seed=0)
        keys = []

        def hop(depth):
            keys.append(sim._ctx_key)
            if depth:
                sim.schedule(1.0, hop, depth - 1)

        sim.schedule(1.0, hop, 3)
        if extra_noise:
            # Unrelated events; under the old global counter these
            # would have shifted every subsequent seq.
            for _ in range(50):
                sim.schedule(0.5, lambda: None)
        sim.run()
        return keys

    assert chain_keys(False) == chain_keys(True)


def test_mix_key_is_stable_and_nonzero():
    assert mix_key(0, 0) == mix_key(0, 0)
    assert mix_key(0, 0) != mix_key(0, 2)
    for salt in range(100):
        assert mix_key(12345, salt) >= 1


def test_gate_drops_foreign_events_but_keys_stay_aligned():
    def run(gated):
        sim = Simulator(seed=0)
        if gated:
            sim.gate = lambda owner: owner == "mine"
        fired = []
        keys = {}
        sim.schedule(1.0, lambda: fired.append("a"), owner="mine")
        keys["theirs"] = sim.schedule(1.0, lambda: fired.append("b"),
                                      owner="theirs")
        keys["mine2"] = sim.schedule(2.0, lambda: fired.append("c"),
                                     owner="mine")
        sim.run()
        return fired, keys

    fired_all, keys_all = run(gated=False)
    fired_gated, keys_gated = run(gated=True)
    assert sorted(fired_all) == ["a", "b", "c"]
    assert fired_gated == [f for f in fired_all if f != "b"]
    # The foreign event came back dead, and key alignment held.
    assert keys_gated["theirs"].cancelled
    assert not keys_gated["theirs"].in_heap
    assert keys_gated["mine2"].key == keys_all["mine2"].key


def test_call_owned_skips_foreign_sections_and_stays_aligned():
    def run(local_owner):
        sim = Simulator(seed=0)
        sim.gate = lambda owner: owner == local_owner
        ran = []
        sim.call_owned("x", ran.append, "x-section")
        sim.call_owned("y", ran.append, "y-section")
        after = sim.schedule(1.0, lambda: None, owner=local_owner)
        return ran, after.key

    ran_x, key_x = run("x")
    ran_y, key_y = run("y")
    assert ran_x == ["x-section"]
    assert ran_y == ["y-section"]
    # Both shards minted the same key for the event after the sections.
    assert key_x == key_y


def test_run_window_is_exclusive_and_inclusive_tail():
    sim = Simulator(seed=0)
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    sim.schedule(3.0, fired.append, 3)
    assert sim.run_window(2.0) == 1          # strictly below t=2
    assert fired == [1]
    assert sim.run_window(3.0) == 1          # [2, 3): picks up t=2
    assert fired == [1, 2]
    assert sim.run_window(3.0, inclusive=True) == 1   # the horizon tail
    assert fired == [1, 2, 3]


def test_run_window_stops_exactly_before_a_key():
    sim = Simulator(seed=0)
    fired = []
    evs = [sim.schedule(1.0, fired.append, i) for i in range(5)]
    order = sorted(evs, key=lambda e: e.key)
    stop = order[2]
    sim.run_window(1.0, stop.key)
    assert fired == [evs.index(order[0]), evs.index(order[1])]
    assert sim.peek_entry() == (1.0, stop.key)


# ----------------------------------------------------------------------
# K=1 is the exact sequential path
# ----------------------------------------------------------------------
def test_one_shard_is_exactly_sequential():
    spec = short("quickstart", 600.0)
    seq = record_spec(spec)
    lines = record_sharded(spec, 1)
    assert first_divergence(seq.lines, lines) is None


# ----------------------------------------------------------------------
# End-to-end identity on the probe paths
# ----------------------------------------------------------------------
def test_churn_probe_path_byte_identical():
    spec = short("churn_heavy", 1500.0)
    seq = record_spec(spec)
    result = run_sharded(spec, 2, record=True)
    assert result.probe_syncs > 0, "churn run must exercise probes"
    div = first_divergence(seq.lines, result.merged_lines)
    assert div is None, div.describe() if div else None


def test_token_holder_probe_path_byte_identical():
    spec = short("failure_drill", 3500.0)
    seq = record_spec(spec)
    result = run_sharded(spec, 2, record=True)
    assert result.probe_syncs >= 1  # the crash_token_holder at 3000ms
    div = first_divergence(seq.lines, result.merged_lines)
    assert div is None, div.describe() if div else None


# ----------------------------------------------------------------------
# Runtime statistics and results
# ----------------------------------------------------------------------
def test_shard_result_statistics_are_consistent():
    spec = short("quickstart", 800.0)
    seq = record_spec(spec)
    result = run_sharded(spec, 2, record=True)
    assert result.n_shards == 2
    assert len(result.shard_events) == 2
    assert result.events == sum(result.shard_events)
    assert result.exported > 0
    assert result.windows > 0
    assert result.lookahead == 2.0  # the WIRED cut latency
    assert result.peak_heap > 0
    stats = result.stats_dict()
    assert stats["window_stalls"] == sum(result.stalled_windows)
    assert stats["events_per_sec"] >= 0
    # Per-kind trace counts aggregate to the sequential run's counts.
    assert sum(result.trace_counts.values()) == len(seq.lines)


def test_merge_streams_orders_by_key():
    streams = [
        [((1.0, 5, 0), "b"), ((2.0, 1, 0), "d")],
        [((1.0, 2, 0), "a"), ((1.0, 7, 0), "c")],
    ]
    assert merge_streams(streams) == ["a", "b", "c", "d"]


def test_bad_shard_count():
    with pytest.raises(ValueError):
        run_sharded(short("quickstart", 100.0), 0)


# ----------------------------------------------------------------------
# Stall attribution and the stats the benchmark reads
# ----------------------------------------------------------------------
def test_stall_causes_partition_the_stall_count():
    """Every empty window is attributed to exactly one cause, and the
    probe cause appears where replicated probe rounds park a shard short
    of its grant (the churn_heavy stall regression)."""
    spec = short("churn_heavy", 1500.0)
    result = run_sharded(spec, 2, record=True)
    assert result.probe_syncs > 0
    assert len(result.stall_causes) == 2
    for i, causes in enumerate(result.stall_causes):
        assert set(causes) <= {"lookahead", "probe", "idle"}
        assert sum(causes.values()) == result.stalled_windows[i]
    all_causes = set()
    for causes in result.stall_causes:
        all_causes.update(k for k, v in causes.items() if v > 0)
    assert "probe" in all_causes, (
        "probe-parked windows must be attributed to the probe cause, "
        f"not folded into {sorted(all_causes)}")


def test_stats_dict_reports_adaptive_runtime_fields():
    """Pin every result field the benchmark (perfbench/run.py) reads,
    so a shard edit cannot silently break its traced pass."""
    spec = short("handoff_storm", 2000.0)
    result = run_sharded(spec, 2, record=True)
    stats = result.stats_dict()
    assert len(stats["shard_events"]) == 2
    assert stats["shard_events"] == result.shard_events
    assert stats["windows"] == result.windows > 0
    assert stats["exported"] == result.exported > 0
    assert len(stats["barrier_wait_s"]) == len(stats["shard_wall_s"]) == 2
    assert stats["window_stalls"] == sum(result.stalled_windows)
    assert stats["rebalance_moves"] == 0  # ownership is static
    assert result.deliveries > 0 and result.sent > 0 and result.members > 0
    assert result.merged_lines
    assert sum(result.trace_counts.values()) == len(result.merged_lines)
    assert result.wall_s > 0
    matrix = stats["lookahead_matrix_ms"]
    assert len(matrix) == 2 and all(len(row) == 2 for row in matrix)
    assert matrix[0][0] == 0.0 and matrix[0][1] > 0.0
    assert stats["windows_per_shard"] and len(stats["shard_wall_s"]) == 2
    assert stats["stall_causes"] == list(result.stall_causes)
