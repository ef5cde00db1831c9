"""Rewrite ``digests.json``: one pass of every workload at the default seed.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run it only when a change is meant to alter outcomes, and say so.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from gate import DEFAULT_SEED, DIGESTS_PATH, Gate
from workloads import WORKLOADS


def main() -> None:
    digests = {}
    for name, cls in sorted(WORKLOADS.items()):
        workload, gate = cls(), Gate()
        with tempfile.TemporaryDirectory() as scratch:
            for item in workload.setup(DEFAULT_SEED, Path(scratch)):
                done = workload.run(item)
                gate.record(item.key, workload.check(item, done.result, gate, None))
        if gate.failed:
            raise SystemExit(f"{name}: {gate.problems}")
        digests[name] = dict(sorted(gate.expected.items()))
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
