"""Fresh-interpreter probes for the benchmark; prints one JSON line.

``child.py setup WORKLOAD SEED DIR`` imports the program, writes the
workload's inputs under DIR and reports when each step finished, on the
system-wide monotonic clock, so the parent can time set-up from spawn.

``child.py batch WORKLOAD SEED DIR [OP ...]`` also runs one batch (or only
the named ops) at ``--threads 1`` and reports its peak RSS and the digest
and problems of every op.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from harness import import_program, run_batch
from workloads import make_inputs


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    mode, workload, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    cli = import_program()
    import_done = _now()
    inputs = make_inputs(workload, seed, work / "inputs")
    report: dict = {"import_done": import_done, "inputs_done": _now()}
    if mode == "batch":
        batch = run_batch(cli, inputs, 1, work / "out", only=set(argv[4:]) or None)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["ops"] = [[r.name, r.digest, r.problems] for r in batch.results]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
