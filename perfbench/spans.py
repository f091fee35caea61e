"""Layer spans recorded from outside the program.

The benchmark wraps each layer's entry points on their classes before a
scenario is built.  Every call through a wrapped method records one span
(name, start, end, parent) in flat in-memory arrays; nothing is written
until the run is over.  A span's self time is its duration minus the
time its child spans cover, and a layer's self time is the sum over its
spans.  Wrappers pass arguments, return values and exceptions through
untouched, so a traced run executes exactly the events an untraced run
does; the benchmark checks that.

Layers are named after the modules they wrap (see :data:`LAYERS`).
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

#: layer -> [(module, class, method)].  The ``sim`` layer is the engine:
#: ``Simulator.run`` is the root span of a traced run loop.
LAYERS: Dict[str, List[Tuple[str, str, str]]] = {
    "sim": [
        ("repro.sim.engine", "Simulator", "run"),
        ("repro.sim.engine", "Simulator", "_execute"),
        ("repro.sim.engine", "Simulator", "schedule_at"),
        ("repro.sim.engine", "Simulator", "cancel"),
        ("repro.runtime.timers", "Timer", "_fire"),
        ("repro.runtime.timers", "PeriodicTimer", "_fire"),
    ],
    "trace": [
        ("repro.sim.trace", "TraceBus", "emit"),
    ],
    "fabric": [
        ("repro.net.fabric", "Fabric", "send"),
        ("repro.net.fabric", "Fabric", "_arrive"),
    ],
    "transport": [
        ("repro.net.transport", "ReliableChannel", "send"),
        ("repro.net.transport", "ReliableChannel", "accept"),
        ("repro.net.transport", "ReliableChannel", "_on_timeout"),
    ],
    "ne": [
        ("repro.core.ne", "NetworkEntity", "on_message"),
        ("repro.core.ne", "NetworkEntity", "_handle_deliver_down"),
        ("repro.core.ne", "NetworkEntity", "_tau_tick"),
        ("repro.core.ne", "NetworkEntity", "_maintenance_tick"),
    ],
    "ordering": [
        ("repro.core.ordering", "OrderingMixin", "handle_token"),
        ("repro.core.ordering", "OrderingMixin", "handle_source_data"),
        ("repro.core.ordering", "OrderingMixin", "order_assignment"),
        ("repro.core.token", "OrderingToken", "assign"),
        ("repro.core.token", "OrderingToken", "snapshot"),
    ],
    "delivering": [
        ("repro.core.forwarding", "ForwardingMixin", "forward_raw"),
        ("repro.core.forwarding", "ForwardingMixin", "handle_ring_raw"),
        ("repro.core.forwarding", "ForwardingMixin", "forward_ordered"),
        ("repro.core.forwarding", "ForwardingMixin", "handle_ring_ordered"),
        ("repro.core.delivering", "DeliveringMixin", "try_deliver"),
        ("repro.core.delivering", "DeliveringMixin", "register_child"),
        ("repro.core.delivering", "DeliveringMixin", "unregister_child"),
    ],
    "mh": [
        ("repro.core.mobile_host", "MobileHost", "on_message"),
        ("repro.core.mobile_host", "MobileHost", "_gap_tick"),
    ],
    "source": [
        ("repro.core.source", "MulticastSource", "_emit"),
        ("repro.core.source", "MulticastSource", "on_message"),
    ],
    "gap": [
        ("repro.core.retransmission", "GapRecoveryMixin", "gap_check"),
        ("repro.core.retransmission", "GapRecoveryMixin",
         "handle_gap_request"),
        ("repro.core.retransmission", "GapRecoveryMixin",
         "handle_gap_unavailable"),
        ("repro.core.mobile_host", "MobileHost", "_handle_gap_unavailable"),
    ],
    "token_recovery": [
        ("repro.core.token_recovery", "TokenRecoveryMixin",
         "signal_token_loss"),
        ("repro.core.token_recovery", "TokenRecoveryMixin",
         "handle_token_regen"),
        ("repro.core.token_recovery", "TokenRecoveryMixin",
         "announce_token"),
        ("repro.core.token_recovery", "TokenRecoveryMixin",
         "handle_token_announce"),
        ("repro.core.token_recovery", "TokenRecoveryMixin",
         "signal_multiple_token"),
    ],
    "mobility": [
        ("repro.core.protocol", "RingNet", "handoff"),
        ("repro.mobility.handoff", "HandoffDriver", "_move"),
        ("repro.core.mobile_host", "MobileHost", "handoff_to"),
        ("repro.core.ne", "NetworkEntity", "_ag_handle_path_reserve"),
        ("repro.core.ne", "NetworkEntity", "ap_ensure_path"),
        ("repro.core.ne", "NetworkEntity", "_ap_handle_neighbor_notify"),
    ],
    "membership": [
        ("repro.workloads.churn", "ChurnDriver", "_tick"),
        ("repro.core.mobile_host", "MobileHost", "join"),
        ("repro.core.mobile_host", "MobileHost", "leave"),
        ("repro.core.ne", "NetworkEntity", "_relay_membership"),
        ("repro.core.ne", "NetworkEntity", "_ap_handle_register"),
        ("repro.core.ne", "NetworkEntity", "_ap_handle_detach"),
    ],
    "faults": [
        ("repro.core.protocol", "RingNet", "crash_ne"),
        ("repro.faults.driver", "FaultDriver", "_activate"),
        ("repro.faults.driver", "FaultDriver", "_restore"),
    ],
}


class SpanRecorder:
    """Flat in-memory span store: one array slot per field."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        #: Index of the innermost open span (-1: none).
        self.current = -1

    def clear(self) -> None:
        """Drop recorded spans (names and wrappers stay valid)."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.current = -1

    def __len__(self) -> int:
        return len(self.name_id)

    def wrap(self, fn: Callable[..., Any], name: str,
             layer: str) -> Callable[..., Any]:
        """``fn`` wrapped so every call records one span."""
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        name_id, parent = self.name_id, self.parent
        start, end = self.start, self.end
        clock = time.perf_counter
        rec = self

        def span(*args: Any, **kwargs: Any) -> Any:
            i = len(name_id)
            name_id.append(nid)
            parent.append(rec.current)
            start.append(0.0)
            end.append(0.0)
            outer = rec.current
            rec.current = i
            start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                rec.current = outer

        return span

    def self_times(self) -> Tuple[List[float], List[int]]:
        """Per-name self seconds and per-name span counts."""
        n = len(self.name_id)
        start, end, parent, name_id = (self.start, self.end, self.parent,
                                       self.name_id)
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = [0.0] * len(self.names)
        count = [0] * len(self.names)
        for i in range(n):
            k = name_id[i]
            self_s[k] += dur[i] - child[i]
            count[k] += 1
        return self_s, count

    def write(self, path: str) -> None:
        """Write every span to a gzip file: one JSON header line naming
        the fields (with their ``array`` type codes), span names and
        layers, then the four arrays' raw native-endian bytes in header
        order; a parent of -1 marks a top-level span."""
        header = {"fields": [["name_id", "i"], ["start_s", "d"],
                             ["end_s", "d"], ["parent", "i"]],
                  "spans": len(self), "names": self.names,
                  "layers": self.layer_of}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent):
                fh.write(arr.tobytes())


class Instrumentation:
    """Install span wrappers (and call counters) on the layer classes.

    Use as a context manager around building *and* running a scenario;
    the original methods are restored on exit.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.counts: Dict[str, int] = {"schedules": 0, "cancels": 0}
        self._saved: List[Tuple[type, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        import importlib

        for layer, targets in LAYERS.items():
            for module, cls_name, meth in targets:
                cls = getattr(importlib.import_module(module), cls_name)
                orig = cls.__dict__.get(meth)
                if orig is None:
                    self.__exit__()
                    raise LookupError(
                        f"{module}.{cls_name} defines no {meth!r}; update "
                        f"the {layer!r} entry of perfbench/spans.py LAYERS")
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self.recorder.wrap(
                    orig, f"{cls_name}.{meth}", layer))
        self._count_heap_traffic()
        return self

    def _count_heap_traffic(self) -> None:
        from repro.sim.engine import Simulator

        counts = self.counts
        push = Simulator.__dict__["_push"]
        cancel = Simulator.__dict__["cancel"]  # already span-wrapped

        def counted_push(sim, time_, key, ev):
            counts["schedules"] += 1
            return push(sim, time_, key, ev)

        def counted_cancel(sim, event):
            if event.in_heap and not event.cancelled:
                counts["cancels"] += 1
            return cancel(sim, event)

        self._saved.append((Simulator, "_push", push))
        self._saved.append((Simulator, "cancel", cancel))
        Simulator._push = counted_push
        Simulator.cancel = counted_cancel

    def __exit__(self, *exc: Any) -> None:
        for cls, meth, orig in reversed(self._saved):
            setattr(cls, meth, orig)
        self._saved.clear()
