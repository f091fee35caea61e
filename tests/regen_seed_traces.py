"""Regenerate the golden traces under ``tests/data/seed_traces/``.

Run only after an *intentional* behaviour change (a protocol fix, a new
trace field) — never to make an optimization "pass".  Usage::

    PYTHONPATH=src python tests/regen_seed_traces.py

Recording parameters live in ``tests/test_trace_identity.py`` so the
regenerator and the checker can never drift apart.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from test_trace_identity import TRACE_DIR, record  # noqa: E402

from repro.experiments import registry  # noqa: E402
from repro.sim.trace import write_lines  # noqa: E402


def main() -> int:
    os.makedirs(TRACE_DIR, exist_ok=True)
    for name in registry.names():
        rec = record(name)
        path = os.path.join(TRACE_DIR, f"{name}.jsonl.gz")
        # The codec gzips with mtime=0: byte-stable across regenerations.
        write_lines(path, rec.lines)
        print(f"{name}: {rec.count} records -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
