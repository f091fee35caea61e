"""Topology partitioning for sharded runs.

The partition unit is a **subtree** of the RingNet hierarchy — the
paper's self-similarity ("if we consider each logical ring as one node,
the RingNet hierarchy becomes a tree") means any closed subtree keeps
the chatty tree traffic (parent→child delivery, membership relay, path
reservations) shard-local, while cross-shard traffic rides provisioned
fabric links with positive latency — exactly what gives the
conservative runtime its lookahead.

:func:`partition_spec` starts from a greedy LPT over whole BR subtrees
(heaviest first onto the lightest shard; :func:`partition_hierarchy`
returns that coarse plan on its own).  When the coarse plan's load
imbalance exceeds :data:`MAX_IMBALANCE` (or shards would sit empty),
every BR subtree is split one ring level down into the BR core plus
one unit per child-ring member, and LPT re-runs over the finer units.
On the symmetric topologies this turns a 2.0x max/min event split into
~1.0x without giving up co-location of any subtree's traffic.

Each MH rides with its initial AP and keeps that shard for the whole
run.  Planning is deterministic: every worker and the coordinator
derive identical plans from identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.net.address import NodeId
from repro.topology.hierarchy import Hierarchy
from repro.topology.tiers import Tier


class PartitionError(ValueError):
    """Raised when a topology cannot be partitioned as requested."""


@dataclass(frozen=True)
class PartitionPlan:
    """A complete shard assignment for one built topology.

    Attributes
    ----------
    n_shards:
        Requested shard count.  Shards may be empty when the topology
        has fewer partition units than shards (they simply idle).
    shard_of:
        Node id → shard index, covering every NE and every initially
        attached MH.  Entities created during the run (sources, churn
        MHs) are adopted into the map by the runtime via
        :meth:`repro.shard.context.ShardContext.adopt`.
    subtree_shard:
        Unit root id → shard index (the assignment's coarse form).
        Roots are BRs for coarse plans; a split plan adds the child
        subtree roots the balancer carved out.
    weights:
        Node count per shard (NEs + MHs), the balance the LPT greedy
        optimized.
    """

    n_shards: int
    shard_of: Dict[NodeId, int] = field(default_factory=dict)
    subtree_shard: Dict[NodeId, int] = field(default_factory=dict)
    weights: Tuple[int, ...] = ()

    def shard(self, node: NodeId) -> int:
        """Shard index of ``node`` (KeyError for unknown nodes)."""
        return self.shard_of[node]

    def nodes_of(self, shard: int) -> List[NodeId]:
        """All assigned nodes of one shard (sorted, for stable output).

        The per-shard lists are built once on first use — a single pass
        over ``shard_of`` — instead of rescanning the full map per
        shard (O(N·S) across the partition CLI and tests).
        """
        cache = self.__dict__.get("_nodes_cache")
        if cache is None:
            buckets: List[List[NodeId]] = [[] for _ in range(self.n_shards)]
            for node, s in self.shard_of.items():
                buckets[s].append(node)
            cache = tuple(tuple(sorted(b)) for b in buckets)
            object.__setattr__(self, "_nodes_cache", cache)
        return list(cache[shard])

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_shards": self.n_shards,
            "shard_of": dict(self.shard_of),
            "subtree_shard": dict(self.subtree_shard),
            "weights": list(self.weights),
        }


# ----------------------------------------------------------------------
# Partition units
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Unit:
    """One indivisible assignment unit: a subtree root, its NEs, its MHs."""

    root: NodeId
    nodes: Tuple[NodeId, ...]
    mhs: Tuple[NodeId, ...]

    @property
    def weight(self) -> int:
        return len(self.nodes) + len(self.mhs)


def _subtree_nodes(
    h: Hierarchy,
    root: NodeId,
    skip_rings: Optional[AbstractSet[object]] = None,
) -> List[NodeId]:
    """``root`` plus every descendant NE.

    Descent follows parent→child tree links *and* ring membership: only
    a ring's leader carries the tree link to its parent, so reaching a
    leader pulls in its whole ring, and every ring member's children in
    turn.  Rings in ``skip_rings`` are not expanded — the top ring when
    cutting at BRs, plus the root's own ring when carving one member's
    subtree out of a child ring (its siblings are separate units).  The
    default skips exactly the root's own ring: the closed subtree.
    """
    if skip_rings is None:
        skip_rings = {h.ring_of.get(root)}
    out: List[NodeId] = []
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        ring_id = h.ring_of.get(node)
        if ring_id is not None and ring_id not in skip_rings:
            for member in h.rings[ring_id].members:
                if member not in seen:
                    seen.add(member)
                    stack.append(member)
        for child in reversed(h.children.get(node, ())):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return out


def _attach_mhs(
    units: Sequence[Tuple[NodeId, List[NodeId]]],
    h: Hierarchy,
    attachments: Mapping[NodeId, NodeId],
) -> List[_Unit]:
    """Weigh every initially attached MH into the unit owning its AP."""
    unit_of_ap: Dict[NodeId, int] = {}
    for idx, (_, nodes) in enumerate(units):
        for node in nodes:
            unit_of_ap[node] = idx
    mhs: List[List[NodeId]] = [[] for _ in units]
    for mh, ap in attachments.items():
        idx = unit_of_ap.get(ap)
        if idx is None:
            raise PartitionError(f"MH {mh!r} attaches to unknown AP {ap!r}")
        mhs[idx].append(mh)
    unplaced = [mh for mh in h.nodes_of_tier(Tier.MH) if mh not in attachments]
    if unplaced:
        raise PartitionError(
            f"MHs without an initial attachment cannot be placed: {unplaced}")
    return [_Unit(root, tuple(nodes), tuple(sorted(ms)))
            for (root, nodes), ms in zip(units, mhs)]


def _br_units(
    h: Hierarchy,
    attachments: Mapping[NodeId, NodeId],
) -> List[_Unit]:
    """One unit per top-ring member: the whole BR subtree."""
    skip = {h.top_ring_id}
    pairs = [(br, _subtree_nodes(h, br, skip)) for br in h.top_ring.members]
    return _attach_mhs(pairs, h, attachments)


def _split_unit(h: Hierarchy, unit: _Unit,
                attachments: Mapping[NodeId, NodeId]) -> List[_Unit]:
    """Split one BR unit one ring level down.

    Yields the BR core (the root plus anything not below a child ring)
    and one unit per child-ring member's closed subtree.  A root with
    no child ring is returned unchanged — there is nothing to split.
    """
    top = h.top_ring_id
    child_roots: List[NodeId] = []
    for child in h.children.get(unit.root, ()):
        ring_id = h.ring_of.get(child)
        if ring_id is None or ring_id == top:
            continue
        for member in h.rings[ring_id].members:
            if member not in child_roots:
                child_roots.append(member)
    if not child_roots:
        return [unit]
    pairs = []
    covered = set()
    for root in child_roots:
        skip = {top, h.ring_of.get(root)}
        nodes = _subtree_nodes(h, root, skip)
        covered.update(nodes)
        pairs.append((root, nodes))
    core = [n for n in unit.nodes if n not in covered]
    pairs.insert(0, (unit.root, core))
    sub_attach = {mh: ap for mh, ap in attachments.items()
                  if mh in set(unit.mhs)}
    unit_of_ap: Dict[NodeId, int] = {}
    for idx, (_, nodes) in enumerate(pairs):
        for node in nodes:
            unit_of_ap[node] = idx
    mhs: List[List[NodeId]] = [[] for _ in pairs]
    for mh, ap in sub_attach.items():
        mhs[unit_of_ap[ap]].append(mh)
    return [_Unit(root, tuple(nodes), tuple(sorted(ms)))
            for (root, nodes), ms in zip(pairs, mhs)]


def _lpt_assign(units: Sequence[_Unit], n_shards: int) -> PartitionPlan:
    """Greedy LPT: heaviest unit first onto the lightest shard.

    Deterministic: ties break on unit root id, then on shard index.
    """
    order = sorted(units, key=lambda u: (-u.weight, u.root))
    loads = [0] * n_shards
    shard_of: Dict[NodeId, int] = {}
    subtree_shard: Dict[NodeId, int] = {}
    for unit in order:
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        loads[target] += unit.weight
        subtree_shard[unit.root] = target
        for node in unit.nodes:
            shard_of[node] = target
        for mh in unit.mhs:
            shard_of[mh] = target
    return PartitionPlan(
        n_shards=n_shards,
        shard_of=shard_of,
        subtree_shard=subtree_shard,
        weights=tuple(loads),
    )


#: Max/min shard weight a coarse plan may reach before the BR subtrees
#: are split one ring level down.
MAX_IMBALANCE = 1.25


def _check(h: Hierarchy, n_shards: int) -> None:
    if n_shards < 1:
        raise PartitionError(f"n_shards must be >= 1, got {n_shards}")
    if h.top_ring_id is None:
        raise PartitionError("hierarchy has no top ring to partition")


def partition_hierarchy(
    h: Hierarchy,
    n_shards: int,
    attachments: Optional[Mapping[NodeId, NodeId]] = None,
) -> PartitionPlan:
    """Partition a hierarchy into ``n_shards`` BR-subtree groups.

    The coarse plan: greedy LPT over whole BR subtrees, so no tree link
    is ever cut.  :func:`partition_spec` starts from it and splits
    subtrees when it is lopsided.

    ``attachments`` maps each initial MH to its AP; every MH is placed
    on its AP's shard (the co-location invariant the partition tests
    pin).  MHs present in the hierarchy but absent from ``attachments``
    are rejected — an unplaced MH would make ownership ambiguous.
    """
    _check(h, n_shards)
    return _lpt_assign(_br_units(h, dict(attachments or {})), n_shards)


def _balanced_plan(
    h: Hierarchy,
    n_shards: int,
    attachments: Mapping[NodeId, NodeId],
) -> PartitionPlan:
    """The coarse plan, re-cut one ring level down when it is lopsided.

    A BR-granular plan is kept when its max/min shard weight stays
    within :data:`MAX_IMBALANCE` — it has the best locality.  Otherwise,
    or when it leaves shards empty, every BR unit is split (BR core +
    one unit per child-ring member) and LPT re-runs over the finer
    units.  New cut edges are provisioned WIRED tree/ring links with
    positive latency, so the lookahead bound survives.
    """
    _check(h, n_shards)
    units = _br_units(h, attachments)
    coarse = _lpt_assign(units, n_shards)
    lo, hi = min(coarse.weights), max(coarse.weights)
    if n_shards == 1 or (lo > 0 and hi <= MAX_IMBALANCE * lo):
        return coarse
    fine_units: List[_Unit] = []
    for unit in units:
        fine_units.extend(_split_unit(h, unit, attachments))
    return _lpt_assign(fine_units, n_shards)


def partition_spec(spec, n_shards: int) -> PartitionPlan:
    """Build the topology a spec describes and partition it.

    Only the full RingNet system is shardable — the baselines have no
    hierarchy to cut.
    """
    from repro.topology.builder import (HierarchySpec, build_deep_hierarchy,
                                        build_hierarchy,
                                        deep_initial_attachments,
                                        initial_attachments)

    if spec.system != "ringnet":
        raise PartitionError(
            f"sharded execution supports the ringnet system, "
            f"not {spec.system!r}")
    shape = spec.hierarchy
    if shape.depth > 1:
        h = build_deep_hierarchy(n_br=shape.n_br, ring_size=shape.ring_size,
                                 depth=shape.depth,
                                 aps_per_ag=shape.aps_per_ag,
                                 mhs_per_ap=shape.mhs_per_ap)
        attach = deep_initial_attachments(h)
    else:
        hs = HierarchySpec(n_br=shape.n_br, ags_per_br=shape.ags_per_br,
                           aps_per_ag=shape.aps_per_ag,
                           mhs_per_ap=shape.mhs_per_ap)
        h = build_hierarchy(hs)
        attach = initial_attachments(hs)
    return _balanced_plan(h, n_shards, attach)


# ----------------------------------------------------------------------
# Cut analysis (computed against the *built* fabric)
# ----------------------------------------------------------------------
def cut_edges(fabric, plan: PartitionPlan) -> List[Tuple[NodeId, NodeId, float]]:
    """``(a, b, latency)`` for every fabric link crossing shards.

    Endpoints the plan does not cover (sources adopted later, churn
    MHs) are resolved through the fabric's shard context when present;
    at plan time only provisioned NE/MH links exist, which is exactly
    the set the lookahead must bound.
    """
    out: List[Tuple[NodeId, NodeId, float]] = []
    for link in fabric.links:
        sa = plan.shard_of.get(link.a)
        sb = plan.shard_of.get(link.b)
        if sa is None or sb is None or sa == sb:
            continue
        out.append((link.a, link.b, link.spec.latency))
    return out


def lookahead_of(cut: Sequence[Tuple[NodeId, NodeId, float]]) -> float:
    """Conservative window width: the minimum cut-link latency.

    Every cross-shard effect rides a message over a cut link, so
    nothing sent at time ``t`` can matter to another shard before
    ``t + lookahead`` — the bounded-lag guarantee the window protocol
    rests on.  A cut link with non-positive latency would break it, so
    that is a hard error, not a warning.  An empty cut (everything on
    one shard) has unbounded lookahead.
    """
    if not cut:
        return float("inf")
    lookahead = min(lat for _, _, lat in cut)
    if not lookahead > 0.0:
        offenders = [(a, b) for a, b, lat in cut if not lat > 0.0]
        raise PartitionError(
            f"cut links with non-positive latency break the lookahead "
            f"bound: {offenders}")
    return lookahead


def latency_matrix(
    fabric,
    plan: PartitionPlan,
    wireless_floor: Optional[float] = None,
) -> List[List[float]]:
    """Per-shard-pair lookahead: ``L[j][i]`` bounds influence j → i.

    Nothing shard *j* does at time ``t`` can affect shard *i* before
    ``t + L[j][i]``: every direct cross-shard effect rides a fabric
    link, so the bound for a pair is the minimum latency over links
    crossing it.  Two terms contribute:

    * provisioned links crossing the cut right now, and
    * ``wireless_floor`` — the facade's wireless spec latency — on
      *every* pair, because the one kind of link minted mid-run is an
      MH↔AP attachment at exactly that spec (``handoff`` /
      ``add_mobile_host``), and a roaming MH can wire any shard pair
      together.  With the floor in place the matrix is invariant for
      the whole run and every worker derives it identically at build
      time — no recompute protocol needed.

    Pairs with no link and no floor are ``inf`` (never constrain); the
    diagonal is 0.  Non-positive entries would break the bounded-lag
    guarantee and raise :class:`PartitionError`.
    """
    n = plan.n_shards
    inf = float("inf")
    mat = [[0.0 if i == j else inf for i in range(n)] for j in range(n)]
    for a, b, lat in cut_edges(fabric, plan):
        if not lat > 0.0:
            raise PartitionError(
                f"cut link ({a!r}, {b!r}) with non-positive latency {lat} "
                f"breaks the lookahead bound")
        sa, sb = plan.shard_of[a], plan.shard_of[b]
        if lat < mat[sa][sb]:
            mat[sa][sb] = lat
            mat[sb][sa] = lat
    if wireless_floor is not None:
        if not wireless_floor > 0.0:
            raise PartitionError(
                f"wireless floor latency must be positive, "
                f"got {wireless_floor}")
        for j in range(n):
            for i in range(n):
                if i != j and wireless_floor < mat[j][i]:
                    mat[j][i] = wireless_floor
    return mat


def min_lookahead(matrix: Sequence[Sequence[float]]) -> float:
    """Smallest finite off-diagonal entry (the old scalar lookahead)."""
    best = float("inf")
    for j, row in enumerate(matrix):
        for i, lat in enumerate(row):
            if i != j and lat < best:
                best = lat
    return best
