"""Partitioner invariants: cut edges, balance, MH co-location.

These pin the properties the conservative runtime's correctness rests
on: every cross-shard edge has finite positive latency (the lookahead
exists), shards are as balanced as indivisible BR subtrees allow, and
every MH lands on its AP's shard.
"""

import pytest

from repro.experiments import registry
from repro.experiments.runner import build_scenario
from repro.shard.partition import (PartitionError, cut_edges,
                                   latency_matrix, lookahead_of,
                                   min_lookahead, partition_hierarchy,
                                   partition_spec)
from repro.topology.builder import (HierarchySpec, build_deep_hierarchy,
                                    build_hierarchy,
                                    deep_initial_attachments,
                                    initial_attachments)

ALL_SCENARIOS = registry.names()


def _build_topology(spec):
    """The hierarchy + initial attachments a spec's build would use."""
    shape = spec.hierarchy
    if shape.depth > 1:
        h = build_deep_hierarchy(n_br=shape.n_br, ring_size=shape.ring_size,
                                 depth=shape.depth,
                                 aps_per_ag=shape.aps_per_ag,
                                 mhs_per_ap=shape.mhs_per_ap)
        return h, deep_initial_attachments(h)
    hs = HierarchySpec(n_br=shape.n_br, ags_per_br=shape.ags_per_br,
                       aps_per_ag=shape.aps_per_ag,
                       mhs_per_ap=shape.mhs_per_ap)
    return build_hierarchy(hs), initial_attachments(hs)


# ----------------------------------------------------------------------
# Cut-edge invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_SCENARIOS)
@pytest.mark.parametrize("k", [2, 4])
def test_cut_edges_have_finite_positive_latency(name, k):
    spec = registry.get(name)
    plan = partition_spec(spec, k)
    scenario = build_scenario(spec)
    cut = cut_edges(scenario.net.fabric, plan)
    for a, b, latency in cut:
        assert latency > 0.0, f"cut edge {a}<->{b} has latency {latency}"
        assert latency != float("inf")
    # With >= 2 BR subtrees spread over >= 2 shards the top ring itself
    # is cut, so a lookahead must exist and bound every cut edge.
    if len({plan.shard_of[br] for br in plan.subtree_shard}) > 1:
        lookahead = lookahead_of(cut)
        assert 0.0 < lookahead < float("inf")
        assert all(lat >= lookahead for _, _, lat in cut)


def test_lookahead_rejects_zero_latency_cut():
    with pytest.raises(PartitionError):
        lookahead_of([("a", "b", 0.0)])


def test_empty_cut_means_unbounded_lookahead():
    assert lookahead_of([]) == float("inf")


# ----------------------------------------------------------------------
# Balance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_SCENARIOS)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_balanced_shards_within_one_subtree(name, k):
    """LPT property: no shard exceeds the lightest by more than the
    heaviest indivisible unit (a full BR subtree with its MHs).

    A greedy assignment never places a subtree on a shard that is not
    currently lightest, so max_load - min_load <= heaviest subtree —
    the classic LPT imbalance bound, checked against the real subtree
    weights recovered from the plan.
    """
    spec = registry.get(name)
    plan = partition_spec(spec, k)
    assert len(plan.weights) == k
    assert sum(plan.weights) == len(plan.shard_of)

    # Recompute each subtree's true weight from the topology: its NEs
    # plus the MHs initially attached under it.
    from repro.shard.partition import _subtree_nodes

    h, attach = _build_topology(spec)
    subtree_weight = {}
    for br in h.top_ring.members:
        nodes = set(_subtree_nodes(h, br))
        mhs = sum(1 for mh, ap in attach.items() if ap in nodes)
        subtree_weight[br] = len(nodes) + mhs
    assert sum(subtree_weight.values()) == sum(plan.weights)
    loads = list(plan.weights)
    assert max(loads) - min(loads) <= max(subtree_weight.values())


def test_deterministic_assignment():
    spec = registry.get("quickstart")
    plans = [partition_spec(spec, 3).to_dict() for _ in range(3)]
    assert plans[0] == plans[1] == plans[2]


# ----------------------------------------------------------------------
# MH -> AP co-location
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_mh_colocated_with_initial_ap(name):
    spec = registry.get(name)
    plan = partition_spec(spec, 4)
    h, attach = _build_topology(spec)
    assert attach, f"{name}: expected initial attachments"
    for mh, ap in attach.items():
        assert plan.shard_of[mh] == plan.shard_of[ap], \
            f"{mh} not co-located with its AP {ap}"
    # Every NE and every MH is covered by the plan.
    for node, tier in h.tier_of.items():
        assert node in plan.shard_of


# ----------------------------------------------------------------------
# Subtree splitting and the latency matrix
# ----------------------------------------------------------------------
def test_balanced_partitioner_splits_skewed_plans():
    """Where the coarse BR-subtree plan leaves a 2x event skew
    (quickstart: 3 BR subtrees on 4 shards), partition_spec splits
    subtrees one ring level down and fills every shard."""
    spec = registry.get("quickstart")
    h, attach = _build_topology(spec)
    lpt = partition_hierarchy(h, 4, attach)
    bal = partition_spec(spec, 4)
    assert min(lpt.weights) == 0          # one empty shard under LPT
    assert min(bal.weights) > 0
    assert (max(bal.weights) - min(bal.weights)
            < max(lpt.weights) - min(lpt.weights))
    assert sorted(bal.shard_of) == sorted(lpt.shard_of)  # same universe


def test_latency_matrix_bounds_every_cut_edge():
    spec = registry.get("quickstart")
    plan = partition_spec(spec, 4)
    scenario = build_scenario(spec)
    wireless = scenario.net.wireless
    matrix = latency_matrix(scenario.net.fabric, plan,
                            wireless_floor=wireless.latency)
    assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
    assert all(matrix[i][i] == 0.0 for i in range(4))
    # Every provisioned cut edge is bounded by its pair's entry, and the
    # wireless floor caps every off-diagonal pair (mid-run MH links).
    for a, b, lat in cut_edges(scenario.net.fabric, plan):
        i, j = plan.shard_of[a], plan.shard_of[b]
        assert matrix[i][j] <= lat
        assert matrix[j][i] <= lat
    for i in range(4):
        for j in range(4):
            if i != j:
                assert 0.0 < matrix[i][j] <= wireless.latency
    assert min_lookahead(matrix) == min(
        matrix[i][j] for i in range(4) for j in range(4) if i != j)


def test_nodes_of_matches_shard_map():
    spec = registry.get("quickstart")
    plan = partition_spec(spec, 3)
    seen = set()
    for shard in range(3):
        nodes = plan.nodes_of(shard)
        assert len(nodes) == plan.weights[shard]
        assert all(plan.shard_of[n] == shard for n in nodes)
        seen.update(nodes)
    assert seen == set(plan.shard_of)


# ----------------------------------------------------------------------
# Error cases
# ----------------------------------------------------------------------
def test_baseline_systems_are_rejected():
    spec = registry.get("ring_vs_baselines", system="single_ring")
    with pytest.raises(PartitionError):
        partition_spec(spec, 2)


def test_bad_shard_count_rejected():
    h = build_hierarchy(HierarchySpec())
    with pytest.raises(PartitionError):
        partition_hierarchy(h, 0, {})


def test_unplaced_mh_rejected():
    hs = HierarchySpec(mhs_per_ap=1)
    h = build_hierarchy(hs)
    with pytest.raises(PartitionError):
        partition_hierarchy(h, 2, {})  # MHs exist but no attachments
