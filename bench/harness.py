"""Run one batch of operations in-process and check every output.

An operation fails when its exit code is not 0, when it raises or prints a
traceback, when a CLI command leaves no readable ``summary.json``, when a
verdict in it is false, when its table differs from the input file it
must reproduce, when its digest differs from the first batch of the run
(so ``--threads 1`` and ``--threads 2`` must agree), or, at the default
seed, when its digest differs from the one pinned in ``pinned.json``.  Digests cover the tables and
``summary.json``, never ``manifest.json``, which records wall time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Inputs, Op, batch_ops

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINNED = BENCH_DIR / "pinned.json"
DEFAULT_SEED = 0


def import_program():
    """Import ``permutalab`` from this checkout's ``src``; exit 2 if absent."""
    src = ROOT / "src"
    if not (src / "permutalab" / "cli.py").is_file():
        print(f"benchmark: no program source under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import permutalab.cli

    if Path(permutalab.cli.__file__).resolve().parent != src / "permutalab":
        print("benchmark: permutalab was imported from outside src", file=sys.stderr)
        sys.exit(2)
    return permutalab.cli


@dataclass
class OpResult:
    name: str
    digest: str
    problems: list[str]


@dataclass
class Batch:
    threads: int
    wall_s: float
    results: list[OpResult]


def _execute(cli, op: Op) -> tuple[object, str]:
    """Run one op; return (exit code or check result, captured output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            outcome = op.check() if op.check is not None else cli.main(list(op.argv))
        except Exception:  # an escaped exception is a failed op, not a crash
            traceback.print_exc()
            outcome = None
    return outcome, buf.getvalue()


def _table_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name != "manifest.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _verdict(op: Op, summary: dict) -> bool:
    if op.verdict == "doubling_counts":
        return all(int(n) - 1 == c for n, c in summary["counts"].items())
    return summary.get(op.verdict) is True


def _check(op: Op, outcome, output: str, out_dir: Path) -> OpResult:
    problems = []
    if "Traceback" in output:
        problems.append("traceback")
    if op.check is not None:
        if outcome is None:
            return OpResult(op.name, "", problems or ["raised"])
        value, holds = outcome
        if not holds:
            problems.append("verdict false")
        return OpResult(op.name, hashlib.sha256(value.encode()).hexdigest(), problems)
    if outcome != 0:
        problems.append(f"exit code {outcome}")
        return OpResult(op.name, "", problems)
    if not out_dir.is_dir():
        return OpResult(op.name, "", problems + ["no output directory"])
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        if op.verdict is not None and not _verdict(op, summary):
            problems.append(f"verdict {op.verdict} false")
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"no readable summary.json with its verdict: {exc!r}")
    if op.same_as is not None:
        tables = [p for p in out_dir.iterdir() if p.suffix == ".csv"]
        if len(tables) != 1 or tables[0].read_bytes() != op.same_as.read_bytes():
            problems.append(f"table differs from {op.same_as.name}")
    return OpResult(op.name, _table_digest(out_dir), problems)


def run_batch(cli, inputs: Inputs, threads: int, out: Path, only=None) -> Batch:
    """Time one batch; ``out`` is emptied first and the checks run after the
    timed region, so no op is judged on, or fed, an earlier batch's files."""
    ops = batch_ops(inputs, threads, out)
    if only is not None:
        ops = [op for op in ops if op.name in only]
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    raw = [_execute(cli, op) for op in ops]
    wall = time.perf_counter() - t0
    results = [
        _check(op, outcome, output, out / op.name) for op, (outcome, output) in zip(ops, raw)
    ]
    return Batch(threads, wall, results)


def load_pins(workload: str, seed: int) -> dict[str, str] | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(PINNED.read_text(encoding="utf-8"))[workload]


@dataclass
class Ledger:
    """Operations attempted and failed, judged against a reference digest set."""

    pins: dict[str, str] | None
    reference: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, batch: Batch, label: str) -> None:
        for r in batch.results:
            problems = list(r.problems)
            if r.digest:
                ref = self.reference.setdefault(r.name, r.digest)
                if r.digest != ref:
                    problems.append("digest differs from the run's first batch")
                if self.pins is not None and self.pins.get(r.name) != r.digest:
                    problems.append("digest differs from pinned.json")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.notes.append(f"{label} t{batch.threads} {r.name}: {'; '.join(problems)}")


class Probe:
    """The reference probe process (``probe.py``), kept open for a whole run."""

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        return self

    def time(self, threads: int) -> float:
        """Seconds the probe's work takes now at ``threads`` threads."""
        self.proc.stdin.write(f"{threads}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe process exited {self.proc.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def spawn_child(*args: str, timeout: float = 120.0) -> tuple[float, dict]:
    """Run ``child.py`` in a fresh interpreter; return (spawn time, its JSON)."""
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])
