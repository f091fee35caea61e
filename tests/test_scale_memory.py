"""Scale-rung memory regression: idle catchment MHs must cost ~nothing.

The xxl/metro rungs only fit in this container because a registered-but-
never-materialized catchment member is a *count*, not an object (see
``RingNet.register_catchment``).  These tests pin that invariant with
``tracemalloc`` at the real xxl shape, and prove a streaming trace
recorder is a lossless stand-in for in-memory recording (record -> stream ->
replay round trip).
"""

import gc
import tracemalloc

import pytest

from repro.bench.ladder import get_rung, node_counts, rung_spec
from repro.experiments import registry
from repro.experiments.runner import build_scenario
from repro.sim.trace import line_to_record, read_lines, record_to_line
from repro.validation.record import record_spec

#: Allowed resident bytes per *idle* (never-materialized) catchment MH.
#: The true cost is a share of one ``{ap_id: count}`` dict entry per AP
#: (well under one byte per member at xxl's 195/AP); 64 bytes leaves
#: room for allocator noise while still catching any accidental
#: per-member object.
IDLE_MH_BYTE_BOUND = 64


def _traced_build_bytes(spec):
    """Traced heap bytes retained after building ``spec``'s scenario."""
    gc.collect()
    tracemalloc.start()
    try:
        scenario = build_scenario(spec)
        gc.collect()
        size, _peak = tracemalloc.get_traced_memory()
        # Keep the scenario alive through the measurement, then drop it.
        del scenario
    finally:
        tracemalloc.stop()
    gc.collect()
    return size


# ---------------------------------------------------------------------------
# Idle-MH memory at the xxl shape
# ---------------------------------------------------------------------------
def test_xxl_idle_mhs_are_counts_not_objects():
    spec = rung_spec(get_rung("xxl"))
    scenario = build_scenario(spec)
    net = scenario.net
    counts = node_counts(spec)
    # ~100k declared MHs, but only mhs_per_ap of them exist as objects.
    assert counts["mhs"] > 100_000
    assert net.catchment_total == counts["mhs"] - len(net.mobile_hosts)
    assert net.catchment_materialized == 0  # nothing ran yet
    assert net.catchment_idle == net.catchment_total


def test_xxl_per_idle_mh_bytes_stay_bounded():
    """Registering the full xxl catchment (~100k idle MHs) must cost
    O(APs), not O(MHs): the per-idle-MH byte delta vs a zero-idle build
    stays under a fixed small bound."""
    xxl = rung_spec(get_rung("xxl"))
    dense = xxl.with_overrides({"hierarchy.idle_per_ap": 0,
                                "openworld.enabled": False})
    idle_count = node_counts(xxl)["mhs"] - node_counts(dense)["mhs"]
    assert idle_count >= 90_000

    size_dense = _traced_build_bytes(dense)
    size_idle = _traced_build_bytes(xxl)
    per_idle = max(0, size_idle - size_dense) / idle_count
    assert per_idle < IDLE_MH_BYTE_BOUND, (
        f"{per_idle:.1f} B per idle MH (bound {IDLE_MH_BYTE_BOUND} B); "
        "did someone materialize catchment members eagerly?")


# ---------------------------------------------------------------------------
# Streaming recorder round trip
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def roundtrip_spec():
    return registry.get("quickstart", **{"duration_ms": 600.0,
                                         "warmup_ms": 0.0, "seed": 11})


def test_stream_round_trip_equals_in_memory(tmp_path, roundtrip_spec):
    """record -> stream -> replay: the windowed JSONL.gz writer must be a
    byte-level stand-in for the in-memory recorder."""
    in_memory = record_spec(roundtrip_spec).lines
    assert in_memory, "spec produced no trace records"

    path = str(tmp_path / "trace.jsonl.gz")
    rec = record_spec(roundtrip_spec, stream_path=path)
    assert rec.count == len(in_memory)
    assert rec.lines == []  # streamed to disk, not held

    streamed = read_lines(path)
    assert streamed == in_memory

    # Replay: parse every streamed line back into a TraceRecord and
    # re-serialize; canonical form must survive the round trip.
    replayed = [record_to_line(line_to_record(line)) for line in streamed]
    assert replayed == in_memory


def test_stream_uses_small_windows(tmp_path, roundtrip_spec):
    """Neither the window (flush frequency) nor plain-vs-gzip framing
    changes content: every combination reads back the in-memory lines."""
    in_memory = record_spec(roundtrip_spec).lines
    for suffix in (".jsonl", ".jsonl.gz"):
        for window in (1, 7, 4096):
            path = str(tmp_path / f"w{window}{suffix}")
            record_spec(roundtrip_spec, stream_path=path, window=window)
            with open(path, "rb") as fh:
                assert (fh.read(2) == b"\x1f\x8b") == suffix.endswith(".gz")
            assert read_lines(path) == in_memory, (suffix, window)
