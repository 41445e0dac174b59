"""Record the output digests the benchmark checks ops against.

Runs every catalog entry of the digest-checked workloads once and
writes ``digests.json`` beside this file.  Run it from the repository
root only at a commit whose outputs are the reference::

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/record_digests.py

A later commit whose outputs differ fails the benchmark's checks;
re-recording is a deliberate change of the reference.
"""

from __future__ import annotations

import json
import sys

import ops
from spans import NullTracer
from worker import DIGESTS


def main() -> int:
    tracer = NullTracer()
    digests = {}
    for workload, pattern in ops.PATTERNS.items():
        kinds = sorted(set(pattern) & set(ops.CATALOGS))
        if not kinds:
            continue
        digests[workload] = {
            ops.entry_key(entry): ops.OP_BODIES[kind](entry, tracer)
            for kind in kinds for entry in ops.CATALOGS[kind]}
        print(f"{workload}: {len(digests[workload])} entries",
              file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
