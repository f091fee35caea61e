"""The benchmark's workloads, pinned as complete experiment specs.

Every spec is written out here in full rather than derived from the
scenario registry or the bench ladder, so that editing either of those
cannot move the benchmark.  Only the seed comes from the command line.

Traffic is constant-bit-rate sources on simulated time: an open loop in
simulated time, run as a batch on the host (work completed per wall
second at the stated input size).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict

#: The ``xl`` ladder shape: 8 BR x 5 AG x 8 AP x 6 MH = 368 NEs and
#: 1,920 MHs (2,288 nodes), two 20 msg/s CBR sources, default links
#: (2% wireless loss), no injected faults, static audience, 500 ms
#: simulated.
STEADY_XL: Dict[str, Any] = {
    "name": "steady_xl",
    "description": "xl ladder shape: delivery fan-out hot path",
    "system": "ringnet",
    "hierarchy": {"n_br": 8, "ags_per_br": 5, "aps_per_ag": 8,
                  "mhs_per_ap": 6, "depth": 1, "ring_size": 3,
                  "idle_per_ap": 0},
    "protocol": {},
    "workload": {"s": 2, "rate_per_sec": 20.0, "pattern": "cbr",
                 "rates": None, "stagger_ms": 3.0, "curve": None,
                 "flows": None},
    "mobility": {"enabled": False, "model": "random_walk",
                 "mean_dwell_ms": 2000.0, "persistence": 0.8,
                 "stay_prob": 0.0},
    "churn": {"enabled": False, "mean_interval_ms": 500.0,
              "min_members": 1},
    "failures": [],
    "faults": {"actions": []},
    "duration_ms": 500.0,
    "warmup_ms": 0.0,
    "bound_retention": False,
}

#: The ``m`` shape with 2 MHs per AP (4 BR x 3 AG x 4 AP x 2 MH = 64
#: NEs, 96 MHs), two 20 msg/s CBR sources, 8 s simulated after a 1 s
#: warmup, with random-walk roaming over dynamic AP paths, join/leave
#: churn, a token-holder crash at 3 s, an AG crash at 6 s, and every
#: AP-MH link degraded (5% loss, 1.5x latency) from 2 s to 5 s.
ROAMING_FAULTS: Dict[str, Any] = {
    "name": "roaming_faults",
    "description": "roaming, churn, crashes and lossy access links",
    "system": "ringnet",
    "hierarchy": {"n_br": 4, "ags_per_br": 3, "aps_per_ag": 4,
                  "mhs_per_ap": 2, "depth": 1, "ring_size": 3,
                  "idle_per_ap": 0},
    "protocol": {"static_ap_paths": False, "smooth_handoff": True},
    "workload": {"s": 2, "rate_per_sec": 20.0, "pattern": "cbr",
                 "rates": None, "stagger_ms": 3.0, "curve": None,
                 "flows": None},
    "mobility": {"enabled": True, "model": "random_walk",
                 "mean_dwell_ms": 1500.0, "persistence": 0.8,
                 "stay_prob": 0.0},
    "churn": {"enabled": True, "mean_interval_ms": 400.0,
              "min_members": 8},
    "failures": [
        {"at_ms": 3000.0, "kind": "crash_token_holder", "target": None,
         "target2": None},
        {"at_ms": 6000.0, "kind": "crash", "target": "ag:1.0",
         "target2": None},
    ],
    "faults": {"actions": [
        {"kind": "degrade", "at_ms": 2000.0, "until_ms": 5000.0,
         "links": [["ap:*", "mh:*"]], "loss": 0.05,
         "latency_factor": 1.5},
    ]},
    "duration_ms": 8000.0,
    "warmup_ms": 1000.0,
    "bound_retention": False,
}


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    spec: Dict[str, Any]
    #: Worker processes of the space-parallel backend's per-layer runs
    #: (0: the workload has none).
    shards: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("steady_xl", STEADY_XL, shards=2),
        Workload("roaming_faults", ROAMING_FAULTS),
    )
}


def build_spec(workload: Workload, seed: int):
    """The workload's :class:`ExperimentSpec` with ``seed`` applied."""
    from repro.experiments.spec import ExperimentSpec

    data = copy.deepcopy(workload.spec)
    data["seed"] = int(seed)
    return ExperimentSpec.from_dict(data)
