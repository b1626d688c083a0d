"""Smoke runs of the benchmark's Monte Carlo workloads at the pinned seed.

At seed 0 the benchmark checks every table of the ``clt`` and
``permute-clt`` commands (lacunary-mc), of the ``exchangeable``,
``framework-check`` and ``strong-law`` commands (exchangeable-mc) and of
the ``prohorov``, ``lil`` and ``dio-count`` commands plus the 250 mixture
verdicts (exact-serial) against the sha256 digests in
``bench/pinned.json``, at ``--threads`` 1 and 2, so this test fails when any
of those tables changes by a single byte.  It never asserts a timing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["lacunary-mc", "exchangeable-mc", "exact-serial"])
def test_workload_correct_at_pinned_seed(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
