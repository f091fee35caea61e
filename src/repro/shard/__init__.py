"""repro.shard — space-parallel simulation with deterministic sync.

Partitions a built RingNet topology into K shards (BR-subtree units,
split one ring level down when the coarse plan is lopsided; each MH
rides with its initial AP and keeps that shard for the whole run), runs
one event loop per worker process, and synchronizes conservatively
behind per-shard grants derived from the cut-latency matrix
``L[j][i]`` — shard *i* only waits on links that can actually reach
it.  The merge order ``(time, causal key, emission index)`` makes a
K-shard run produce **byte-identical** canonical traces to the
sequential engine; ``shards=1`` is the exact sequential engine path.

Public API::

    from repro.shard import partition_spec, run_sharded

    plan = partition_spec(spec, 4)
    result = run_sharded(spec, 4, record=True)
    assert result.merged_lines == sequential_lines
"""

from repro.shard.partition import (PartitionError, PartitionPlan, cut_edges,
                                   latency_matrix, lookahead_of,
                                   min_lookahead, partition_hierarchy,
                                   partition_spec)
from repro.shard.record import KeyedRecorder, merge_streams
from repro.shard.runtime import ShardRunResult, record_sharded, run_sharded

__all__ = [
    "PartitionError",
    "PartitionPlan",
    "KeyedRecorder",
    "ShardRunResult",
    "cut_edges",
    "latency_matrix",
    "lookahead_of",
    "merge_streams",
    "min_lookahead",
    "partition_hierarchy",
    "partition_spec",
    "record_sharded",
    "run_sharded",
]
