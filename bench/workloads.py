"""Workload inputs and command batches for the benchmark.

A workload is a function of the seed only: ``make_inputs`` writes every
input file the program reads (and builds the in-memory instances of the
library batch), and ``batch_ops`` lists the operations one batch runs.
Each operation is either one ``permutalab`` CLI command, run in-process
through ``permutalab.cli.main``, or one library check.

Sizes are scaled from the README's acceptance sizes so that one batch at
``--threads 1`` takes about one to two seconds on a 2-core machine, which
leaves several warm repeats per run.  Monte Carlo sizes stay at 8192 = two
``parallel.CHUNK`` chunks, so ``--threads 2`` has two chunks to share.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NAMES = ("lacunary-mc", "exchangeable-mc", "exact-serial")

MC_SAMPLES = 8192
CLT_TERMS = 128
LACUNARY_SEQ_LEN = 512
SERIAL_SEQ_LEN = 4096
LIL_POINTS = 10
PROHOROV_ATOMS = 2000
MIXTURE_INSTANCES = 250


@dataclass(frozen=True)
class Op:
    """One operation: a CLI command (``argv``) or a library check (``check``).

    ``verdict`` names the check applied to the op's ``summary.json``;
    ``same_as`` names an input file the op's single table must equal.
    """

    name: str
    argv: tuple[str, ...] = ()
    check: Callable[[], tuple[str, bool]] | None = None
    verdict: str | None = None
    same_as: Path | None = None


@dataclass
class Inputs:
    workload: str
    root: Path
    mixtures: list | None = None


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _sequence(root: Path, name: str, q: float, count: int) -> None:
    from permutalab.sequences import check_hadamard, gen_hadamard

    seq = gen_hadamard(q, 1, count)
    if not check_hadamard(seq, q):
        raise RuntimeError(f"generated sequence {name} fails its gap check")
    _write(root / name, seq.to_csv())


def _empirical_law_csv(rnd: random.Random, n: int, shift: float, scale: float) -> str:
    """n distinct normal draws, mass 1/n each, one ``position,mass`` per line."""
    positions: set[float] = set()
    while len(positions) < n:
        positions.add(shift + scale * rnd.gauss(0.0, 1.0))
    mass = repr(1.0 / n)
    return "".join(f"{p!r},{mass}\n" for p in sorted(positions))


def _random_measure(rnd: random.Random, max_atoms: int, lo: float = 0.0, hi: float = 1.0):
    from permutalab.measures import DiscreteMeasure

    n = 1 + rnd.randrange(max_atoms)
    positions: set[float] = set()
    while len(positions) < n:
        positions.add(lo + (hi - lo) * rnd.random())
    raw = [rnd.random() + 1e-3 for _ in range(n)]
    total = sum(raw)
    return DiscreteMeasure(tuple(zip(sorted(positions), (m / total for m in raw))))


def _mixture_instances(rnd: random.Random, count: int) -> list:
    """Instances built like acceptance criterion 7(B): <= 4 atoms, <= 5 pairs.

    A pair is either a small shift of its first measure (Prohorov distance
    below eps/2) or, within a total weight budget of eps, a far measure on
    [3, 4]; so the bound's precondition holds and the check must hold.
    """
    from permutalab.measures import DiscreteMeasure

    out = []
    for _ in range(count):
        eps = 0.05 + 0.3 * rnd.random()
        raw = [rnd.random() + 0.05 for _ in range(1 + rnd.randrange(5))]
        total = sum(raw)
        pairs = []
        wild_budget = eps
        for w in (r / total for r in raw):
            mu = _random_measure(rnd, 4)
            if w <= wild_budget and rnd.random() < 0.3:
                nu = _random_measure(rnd, 4, 3.0, 4.0)
                wild_budget -= w
            else:
                delta = (eps / 2) * (2.0 * rnd.random() - 1.0)
                nu = DiscreteMeasure(tuple((p + delta, m) for p, m in mu.atoms))
            pairs.append((w, mu, nu))
        out.append((eps, pairs))
    return out


def make_inputs(workload: str, seed: int, root: Path) -> Inputs:
    """Write the workload's input files under ``root``; deterministic in seed."""
    rnd = random.Random(f"{workload}:{seed}")
    inputs = Inputs(workload, root)
    if workload == "lacunary-mc":
        _sequence(root, "seq_q2.csv", 2, LACUNARY_SEQ_LEN)
        _sequence(root, "seq_q15.csv", 1.5, LACUNARY_SEQ_LEN)
    elif workload == "exchangeable-mc":
        two_atom = {
            "atoms": [
                {"prob": 0.5, "law_csv": "-1.0,0.5\n1.0,0.5\n"},
                {"prob": 0.5, "law_csv": "-2.0,0.5\n2.0,0.5\n"},
            ]
        }
        _write(root / "model.json", json.dumps(two_atom, indent=2) + "\n")
        _write(root / "rademacher.csv", "-1.0,0.5\n1.0,0.5\n")
    elif workload == "exact-serial":
        _sequence(root, "seq_q2.csv", 2, SERIAL_SEQ_LEN)
        _write(root / "mu.csv", _empirical_law_csv(rnd, PROHOROV_ATOMS, 0.0, 1.0))
        _write(root / "nu.csv", _empirical_law_csv(rnd, PROHOROV_ATOMS, 0.05, 1.1))
        inputs.mixtures = _mixture_instances(rnd, MIXTURE_INSTANCES)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write(root / "seeds.json", json.dumps(_cli_seeds(workload, seed)) + "\n")
    return inputs


def _cli_seeds(workload: str, seed: int) -> dict[str, int]:
    rnd = random.Random(f"{workload}:cli:{seed}")
    return {k: rnd.getrandbits(32) for k in ("a", "b", "c", "perm")}


def _mixture_check(pairs, eps) -> Callable[[], tuple[str, bool]]:
    def check() -> tuple[str, bool]:
        from permutalab import metrics

        lhs, holds = metrics.mixture_bound_check(pairs, eps)
        return repr(lhs), bool(holds)

    return check


def batch_ops(inputs: Inputs, threads: int, out: Path) -> list[Op]:
    """The operations of one batch, writing under ``out``."""
    root = inputs.root
    s = json.loads((root / "seeds.json").read_text(encoding="utf-8"))
    th = ("--threads", str(threads))

    def cli(name: str, *argv: str, **kw) -> Op:
        return Op(name, (*argv, *th, "--out-dir", str(out / name)), **kw)

    if inputs.workload == "lacunary-mc":
        n, m = str(CLT_TERMS), str(MC_SAMPLES)
        return [
            cli("gen-seq-q2", "gen-seq", "--kind", "hadamard", "--q", "2",
                "--N", str(LACUNARY_SEQ_LEN), "--out", "seq.csv",
                verdict="gap_check", same_as=root / "seq_q2.csv"),
            cli("gen-seq-q15", "gen-seq", "--kind", "hadamard", "--q", "1.5",
                "--N", str(LACUNARY_SEQ_LEN), "--out", "seq.csv",
                verdict="gap_check", same_as=root / "seq_q15.csv"),
            cli("clt", "clt", "--seq", str(root / "seq_q2.csv"), "--N", n, "--M", m,
                "--seed", str(s["a"])),
            cli("permute-clt", "permute-clt", "--seq", str(root / "seq_q15.csv"),
                "--N", n, "--M", m, "--perm", "block:32",
                "--perm-n", str(LACUNARY_SEQ_LEN), "--seed", str(s["b"])),
            cli("plot", "plot", "--in", str(out / "clt" / "dist.csv"),
                "--kind", "cdf-overlay", "--out", "dist.svg"),
        ]
    if inputs.workload == "exchangeable-mc":
        m = str(MC_SAMPLES)
        return [
            cli("exchangeable", "exchangeable", "--model", str(root / "model.json"),
                "--theorem", "trimmed-clt", "--k", "400",
                "--perms", f"identity,reverse,random:{s['perm'] % 1000}",
                "--M", m, "--seed", str(s["a"]), verdict="holds"),
            cli("framework-check", "framework-check", "--theorem", "clt",
                "--mu", str(root / "rademacher.csv"), "--k-list", "1,16,400",
                "--M", m, "--seed", str(s["b"])),
            cli("strong-law", "strong-law", "--model", str(root / "model.json"),
                "--p", "1.5", "--N", "100000", "--seed", str(s["c"])),
        ]
    if inputs.workload == "exact-serial":
        seq = str(root / "seq_q2.csv")
        ops = [
            cli("gen-seq-q2", "gen-seq", "--kind", "hadamard", "--q", "2",
                "--N", str(SERIAL_SEQ_LEN), "--out", "seq.csv",
                verdict="gap_check", same_as=root / "seq_q2.csv"),
            cli("prohorov", "prohorov", "--mu", str(root / "mu.csv"),
                "--nu", str(root / "nu.csv")),
            cli("lil", "lil", "--seq", seq, "--Nmax", str(SERIAL_SEQ_LEN),
                "--xs", str(LIL_POINTS), "--seed", str(s["a"])),
            cli("dio-count", "dio-count", "--seq", seq, "--a", "1", "--b", "-2",
                "--c", "0", "--N-list", f"10,100,1000,{SERIAL_SEQ_LEN}",
                verdict="doubling_counts"),
        ]
        ops += [
            Op(f"mixture-{i}", check=_mixture_check(pairs, eps))
            for i, (eps, pairs) in enumerate(inputs.mixtures)
        ]
        return ops
    raise ValueError(f"unknown workload {inputs.workload!r}")
