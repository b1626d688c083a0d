"""Measure the benchmark's run-to-run spread and record it in steadiness.json.

    python3 bench/steadiness.py

Runs ``run.py --trace 0`` once per workload in ``BENCHMARK.json`` and per
seed 1 to 10, and all of that twice over.  For each end-to-end metric it
reports, per set, the median and the distance between the first and third
quartile as a share of the median (``statistics.quantiles(values, n=4)``).
A metric is within its bound in ``BENCHMARK.json`` when every set's spread
is within it and the second set's median is within it of the first's, in
either direction.  Every run must also report ``correct`` with zero failed
operations.  Exits 1 unless everything is steady.  The unscaled batch-wall
medians of each run (``raw.*``) and the probe-scaled ones (``scaled.*``,
which only ``lacunary-mc`` reports as its walls) are recorded with their
spreads beside the metrics, but not judged.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)
SETS = 2


def _spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def _git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _run(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; its result line, echoed to standard output."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result, repeats = json.loads(lines[-1]), json.loads(lines[-2])
    result["raw"] = {"raw.wall_s": statistics.median(repeats["wall_s_repeats"]),
                     "raw.wall_t2_s": statistics.median(repeats["wall_t2_s_repeats"]),
                     "scaled.wall_s": repeats["scaled"][0],
                     "scaled.wall_t2_s": repeats["scaled"][1]}
    print(workload, seed, json.dumps(result), flush=True)
    return result


def _judge(workload: str, name: str, m: dict, bound: float) -> bool:
    """Add spreads, medians and the verdict to one metric's recorded values."""
    medians = [statistics.median(v) for v in m["values"]]
    spreads = [_spread(v) for v in m["values"]]
    drift = max(abs(x / medians[0] - 1.0) for x in medians)
    ok = drift <= bound and max(spreads) <= bound
    m.update(bound=bound, iqr_over_median=spreads, set_medians=medians,
             worst_median_drift=drift, within_bound=ok)
    print(f"{workload:16s} {name:12s} medians {[round(x, 4) for x in medians]} "
          f"spreads {[round(x, 3) for x in spreads]} drift {drift:.3f} "
          f"bound {bound} {'ok' if ok else 'NOT STEADY'}", flush=True)
    return ok


def _measure(spec: dict) -> dict:
    import numpy

    record = {
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "git_revision": _git_revision(),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "sets": SETS,
        "workloads": {},
    }
    runs = {w["name"]: [] for w in spec["workloads"]}
    for _ in range(SETS):
        for workload, per_set in runs.items():
            per_set.append([_run(workload, s, spec["run_seconds"]) for s in SEEDS])
    for workload, per_set in runs.items():
        flat = [r for one in per_set for r in one]
        record["workloads"][workload] = {
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in flat),
            "attempted": sum(r["attempted"] for r in flat),
            "failed": sum(r["failed"] for r in flat),
            "metrics": {
                m["name"]: {"values": [[r["metrics"][m["name"]]["value"] for r in one]
                                       for one in per_set]}
                for m in spec["end_to_end"]
            },
            "raw": {
                name: {"values": [[r["raw"][name] for r in one] for one in per_set]}
                for name in flat[0]["raw"]
            },
        }
    return record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = _measure(spec)
    steady = True
    for workload, entry in record["workloads"].items():
        steady &= entry["all_correct"]
        for m in spec["end_to_end"]:
            steady &= _judge(workload, m["name"], entry["metrics"][m["name"]], m["bound"])
        for name, m in entry["raw"].items():
            m["iqr_over_median"] = [_spread(v) for v in m["values"]]
            m["set_medians"] = [statistics.median(v) for v in m["values"]]
            print(f"{workload:16s} {name:12s} medians {[round(x, 4) for x in m['set_medians']]} "
                  f"spreads {[round(x, 3) for x in m['iqr_over_median']]} (not judged)")
    record["steady"] = steady
    (BENCH_DIR / "steadiness.json").write_text(json.dumps(record, indent=1) + "\n",
                                                encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
