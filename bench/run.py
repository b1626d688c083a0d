"""Benchmark of the permutalab CLI: end-to-end times, or per-layer spans.

    python3 bench/run.py --workload lacunary-mc --seed 0 --seconds 34 --trace 0

Every workload's batch of operations runs in this one process through
``permutalab.cli.main`` (see ``workloads.py``), alternating ``--threads 1``
and ``--threads 2`` until ``--seconds`` have passed, after one warm-up
batch of each.  Every output is checked (``harness.py``); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: the median batch wall time at
each thread count (on ``lacunary-mc`` and ``exact-serial`` each batch
scaled by the reference probe that brackets it, ``probe.py``), the median
set-up time of fresh
interpreters (spawn to inputs written) and the peak RSS of a fresh
interpreter that runs one batch.
``--trace 1`` reports the per-layer metrics instead, from batches run with
every public function of the program wrapped in a span (``spans.py``),
plus the unscaled batch walls and the probe's own times.

``--pin`` records the digests of the seed's outputs in ``pinned.json``;
use it at the default seed when a change to the program's tables is meant.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from harness import (
    DEFAULT_SEED,
    PINNED,
    ROOT,
    Batch,
    Ledger,
    OpResult,
    Probe,
    import_program,
    load_pins,
    run_batch,
    spawn_child,
)
import spans
from workloads import NAMES, make_inputs

# Fresh-interpreter set-up starts per run, at least.  One follows every step
# of the timed loop, so they spread over the run like the batches.
SETUP_STARTS = 10
THREADS = (1, 2)
# The probe's median time at each thread count on the machine the bounds
# were set on (2 vCPUs of a shared x86-64 host, Python 3.11, numpy 2.4).
# A batch wall is scaled by this over the probe time that brackets it, so
# wall_s and wall_t2_s read as seconds on that machine at its usual speed.
PROBE_REF_S = {1: 0.055, 2: 0.090}
# Workloads whose walls are scaled, with the probe's thread count for each
# batch thread count: the threads the batch keeps busy.  Both spend their
# time in the interpreter loop, as the probe's loop does; lacunary-mc runs
# two threads at --threads 2, exact-serial is serial at either count.
# exchangeable-mc (numpy work on arrays of hundreds of MB) reports raw
# medians: no probe steadied it (README).
PROBE_SCALED = {"lacunary-mc": {1: 1, 2: 2}, "exact-serial": {1: 1, 2: 1}}

# Predicted dominant layers, by workload: their self time over the batch.
DOMINANT = {
    "lacunary-mc": ("lacunary.",),
    "exchangeable-mc": ("rng.", "measures."),
    "exact-serial": ("metrics.", "lacunary.lil_trajectory"),
}

END_TO_END = {"wall_s": "s", "wall_t2_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SPANNED = (
    "rng.mix64_vec", "rng.uniform_columns", "lacunary.clt_sample",
    "lacunary.lil_trajectory", "measures.quantile_many", "measures.empirical_measure",
    "measures.mixed_normal_cdf", "metrics.prohorov_distance", "metrics.mixture_bound_check",
    "metrics.ks_distance", "framework.simulate_fk", "framework.limit_convergence_check",
    "exchangeable.permuted_statistic", "exchangeable.permutation_invariance_check",
    "exchangeable.strong_law_trajectory", "sequences.gen_hadamard",
    "sequences.check_hadamard", "sequences.count_diophantine",
    "sequences.random_permutation", "svg.render_cdf_overlay",
)
COUNTED = (
    "rng.words", "lacunary.lil_trajectory.terms", "parallel.chunks",
    "metrics.prohorov_distance.calls", "metrics.prohorov_distance.atom_pairs",
    "metrics.ks_distance.points", "cli.bytes_written",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SPANNED}
    units.update({f"{layer}.self_s": "s" for layer in spans.LAYERS})
    units.update({name: ("B" if name == "cli.bytes_written" else "count") for name in COUNTED})
    units.update({
        "lacunary.clt_sample.terms_per_s": "1/s",
        "parallel.map_chunks.s": "s",
        "parallel.busy_ratio": "ratio",
        "metrics.prohorov_distance.peak_rss_mb": "MB",
        "setup.import_s": "s",
        "setup.inputs_s": "s",
        "raw.wall_s": "s",
        "raw.wall_t2_s": "s",
        "probe.t1_s": "s",
        "probe.t2_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.dominant_share": "ratio",
    })
    return units


def _setup_start(workload: str, seed: int, work: Path) -> tuple[float, float]:
    """(import seconds, inputs seconds) of one fresh interpreter, from spawn."""
    shutil.rmtree(work / "setup", ignore_errors=True)
    t_spawn, rep = spawn_child("setup", workload, str(seed), str(work / "setup"))
    return rep["import_done"] - t_spawn, rep["inputs_done"] - rep["import_done"]


def _child_batch(ledger: Ledger, workload: str, seed: int, work: Path, *only: str) -> float:
    """Run a batch in a fresh interpreter, check its outputs; return peak RSS (MB)."""
    _, rep = spawn_child("batch", workload, str(seed), str(work), *only)
    results = [OpResult(name, digest, problems) for name, digest, problems in rep["ops"]]
    ledger.record(Batch(1, 0.0, results), "child")
    return rep["peak_rss_mb"]


class Walls:
    """Untraced batches at each thread count, each bracketed by the probe."""

    def __init__(self, cli, inputs, work: Path, ledger: Ledger, probe: Probe):
        self.cli, self.inputs, self.work, self.ledger, self.probe = cli, inputs, work, ledger, probe
        self.probe_threads = PROBE_SCALED.get(inputs.workload, {t: t for t in THREADS})
        self.raw: dict[int, list[float]] = {t: [] for t in THREADS}
        self.probe_s: dict[int, list[float]] = {t: [] for t in THREADS}

    def run(self, threads: int, label: str) -> None:
        before = self.probe.time(self.probe_threads[threads])
        batch = run_batch(self.cli, self.inputs, threads, self.work / f"t{threads}")
        after = self.probe.time(self.probe_threads[threads])
        self.ledger.record(batch, label)
        self.raw[threads].append(batch.wall_s)
        self.probe_s[threads].append((before + after) / 2)

    def median(self, threads: int) -> float:
        return statistics.median(self.raw[threads])

    def scaled(self, threads: int) -> float:
        """Median of batch wall x reference probe time / bracketing probe time."""
        ref = PROBE_REF_S[self.probe_threads[threads]]
        return statistics.median(
            wall * ref / p for wall, p in zip(self.raw[threads], self.probe_s[threads])
        )


def _timed_loop(seconds: float, step) -> None:
    """Call step(i) until ``seconds`` have passed, at least twice."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        step(i)
        i += 1


def end_to_end(cli, workload: str, seed: int, seconds: float, work: Path, ledger: Ledger):
    inputs = make_inputs(workload, seed, work / "inputs")
    for threads in THREADS:
        ledger.record(run_batch(cli, inputs, threads, work / f"t{threads}"), "warm-up")
    rss = _child_batch(ledger, workload, seed, work / "rss")
    setup: list[float] = []

    def start() -> None:
        setup.append(sum(_setup_start(workload, seed, work)))

    with Probe() as probe:
        walls = Walls(cli, inputs, work, ledger, probe)

        def step(i: int) -> None:
            for threads in THREADS if i % 2 == 0 else THREADS[::-1]:
                walls.run(threads, f"repeat {i}")
            start()

        _timed_loop(seconds, step)
    while len(setup) < SETUP_STARTS:
        start()
    print(json.dumps({"wall_s_repeats": walls.raw[1], "wall_t2_s_repeats": walls.raw[2],
                      "probe_t1_s": walls.probe_s[1], "probe_t2_s": walls.probe_s[2],
                      "scaled": [walls.scaled(t) for t in THREADS],
                      "setup_s_starts": setup}))
    wall = walls.scaled if workload in PROBE_SCALED else walls.median
    return {
        "wall_s": wall(1),
        "wall_t2_s": wall(2),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }


def _layer_metrics(tracer: spans.Tracer, batch: Batch, dominant: tuple[str, ...]):
    selfs = spans.self_times(tracer.spans)
    out = {f"{name}.self_s": selfs.get(name, 0.0) for name in SPANNED}
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in selfs.items() if k.split(".")[0] == layer)
    clt_self = selfs.get("lacunary.clt_sample", 0.0)
    terms = tracer.counts.get("lacunary.clt_sample.terms", 0)
    out["lacunary.clt_sample.terms_per_s"] = terms / clt_self if clt_self else 0.0
    out["trace.wall_s"] = batch.wall_s
    share = sum(v for k, v in selfs.items() if k.startswith(dominant))
    out["trace.dominant_share"] = share / batch.wall_s
    return out


def _write_spans(path: Path, by_threads: dict[int, list]) -> None:
    """One JSON line per span of the last traced batches, times from batch start."""
    with path.open("w", encoding="utf-8") as f:
        for threads, spans in sorted(by_threads.items()):
            t0 = min(span[3] for span in spans)
            for sid, name, parent, start, end in spans:
                f.write(json.dumps({"threads": threads, "id": sid, "name": name, "parent": parent,
                                    "start": start - t0, "end": end - t0}) + "\n")
    print(f"spans of the last traced batches: {path}")


def per_layer(cli, workload: str, seed: int, seconds: float, work: Path, ledger: Ledger):
    inputs = make_inputs(workload, seed, work / "inputs")
    for threads in THREADS:
        ledger.record(run_batch(cli, inputs, threads, work / f"t{threads}"), "warm-up")
    tracer = spans.Tracer()
    rows: list[dict[str, float]] = []
    counts: list[dict[str, int]] = []
    last_spans: dict[int, list] = {}
    setup: list[tuple[float, float]] = []

    def start() -> None:
        setup.append(_setup_start(workload, seed, work))

    def traced(threads: int) -> Batch:
        tracer.reset()
        batch = run_batch(cli, inputs, threads, work / f"t{threads}")
        ledger.record(batch, "traced")
        counts.append({k: tracer.counts.get(k, 0) for k in COUNTED})
        last_spans[threads] = tracer.spans
        return batch

    with Probe() as probe:
        walls = Walls(cli, inputs, work, ledger, probe)

        def step(i: int) -> None:
            for threads in THREADS if i % 2 == 0 else THREADS[::-1]:
                walls.run(threads, f"untraced {i}")
            tracer.install()
            try:
                row = _layer_metrics(tracer, traced(1), DOMINANT[workload])
                traced(2)
                row["parallel.map_chunks.s"], row["parallel.busy_ratio"] = spans.map_stats(tracer)
            finally:
                tracer.uninstall()
            rows.append(row)
            start()

        _timed_loop(seconds, step)
    while len(setup) < SETUP_STARTS:
        start()
    _write_spans(ROOT / ".bench_work" / f"spans-{workload}-{seed}.jsonl", last_spans)
    repeatable = all(c == counts[0] for c in counts)
    if not repeatable:
        ledger.notes.append(f"counts differ between traced batches: {counts}")
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics.update(counts[0])
    metrics["metrics.prohorov_distance.peak_rss_mb"] = (
        _child_batch(ledger, workload, seed, work / "rss", "prohorov")
        if "prohorov" in ledger.reference else 0.0
    )
    metrics["setup.import_s"] = statistics.median(imp for imp, _ in setup)
    metrics["setup.inputs_s"] = statistics.median(inp for _, inp in setup)
    metrics["raw.wall_s"] = walls.median(1)
    metrics["raw.wall_t2_s"] = walls.median(2)
    metrics["probe.t1_s"] = statistics.median(walls.probe_s[1])
    metrics["probe.t2_s"] = statistics.median(walls.probe_s[2])
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / walls.median(1) - 1.0
    print(f"traced repeats: {len(rows)}; dominant {DOMINANT[workload]} share "
          f"{metrics['trace.dominant_share']:.3f}")
    return metrics, repeatable


def _write_pins(workload: str, digests: dict[str, str]) -> None:
    pins = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}
    pins[workload] = digests
    PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write this seed's output digests to pinned.json")
    args = parser.parse_args(argv)
    if args.pin and args.seed != DEFAULT_SEED:
        parser.error(f"--pin needs the default seed {DEFAULT_SEED}")

    cli = import_program()
    import numpy

    print(json.dumps({"env": {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }}))
    ledger = Ledger(None if args.pin else load_pins(args.workload, args.seed))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        if args.trace:
            values, ok = per_layer(cli, args.workload, args.seed, args.seconds, work, ledger)
            units = per_layer_units()
        else:
            values, ok = end_to_end(cli, args.workload, args.seed, args.seconds, work, ledger), True
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in ledger.notes:
        print(f"FAILED {note}")
    if args.pin and ledger.failed == 0:
        _write_pins(args.workload, ledger.reference)
    result = {
        "correct": ok and ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
