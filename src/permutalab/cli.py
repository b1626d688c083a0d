"""Experiment runner: one subcommand per laboratory operation.

Every run resolves its configuration, executes the module operation, and
writes results into ``--out-dir``: a ``manifest.json`` echoing the full
resolved config (plus artifact version and wall time), the named CSV/JSON
tables, and optional SVG plots.  All files are written atomically (temp
file + rename).  Reals are serialized with ``repr``, which round-trips
doubles exactly; rerunning a manifest reproduces every table byte for
byte, for any ``--threads`` value.

Exit codes: 0 ok, 2 configuration problem, malformed or unreadable input
file, or unwritable ``--out-dir`` (one-line reason on stderr), 3 runtime
error (module error token on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import LabError
from .exchangeable import model_from_json, strong_law_trajectory, permutation_invariance_check
from .framework import THEOREMS, limit_convergence_check, make_theorem
from .lacunary import FixedPointX, clt_sample, lil_trajectory, required_bits
from .measures import MixedNormal, empirical_measure, measure_from_csv
from .metrics import (
    ORACLE_MAX_ATOMS,
    ks_distance,
    prohorov_distance,
    prohorov_oracle,
    strassen_coupling,
)
from .rng import Stream, derive_seed
from .sequences import (
    IndexSequence,
    block_interleave_permutation,
    check_erdos,
    check_hadamard,
    diophantine_growth_scan,
    gap_report,
    gen_erdos,
    gen_hadamard,
    identity_permutation,
    random_permutation,
    reverse_permutation,
)
from .svg import render_cdf_overlay, render_trajectory


class ConfigError(Exception):
    """Invalid command-line configuration (exit code 2)."""


# module error tokens that mean a bad input file, reported as exit code 2
_INPUT_TOKENS = frozenset({"empty-table", "malformed-input"})


def _csv(rows) -> str:
    """A table: one line per row (a tuple), its fields written with ``repr``.

    Fields must be Python ints and floats; convert numpy values with
    ``tolist()`` first, because numpy 2 writes ``repr(np.float64(x))`` as
    ``np.float64(x)``.  A table without rows is one newline.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return "\n"
    fmt = ",".join(["%r"] * len(first)) + "\n"
    return fmt % first + "".join([fmt % row for row in rows])


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def _atomic_write(path: Path, text: str) -> None:
    """Write through a fresh temp file in the target directory, then rename.

    The file gets the mode a plain ``open`` would give it (0o666 less the
    umask), not the 0o600 of ``mkstemp``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file; an unreadable file is a ``ConfigError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"input file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input file {path}: {exc}") from None


def _parse_ints(text: str) -> list[int]:
    try:
        ints = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc
    if not ints:
        raise ConfigError(f"empty integer list {text!r}")
    return ints


def _make_permutation(pattern: str, n: int):
    if pattern == "identity":
        return identity_permutation(n)
    if pattern == "reverse":
        return reverse_permutation(n)
    kind, _, arg = pattern.partition(":")
    if kind not in ("block", "random"):
        raise ConfigError(f"unknown permutation pattern {pattern!r}")
    try:
        value = int(arg)
    except ValueError:
        raise ConfigError(f"permutation pattern {pattern!r} needs an integer after ':'") from None
    if kind == "block":
        return block_interleave_permutation(n, value)
    return random_permutation(n, value)


# -- subcommand handlers ------------------------------------------------
# each returns (tables: {filename: text}, summary: dict)


def _cmd_gen_seq(args) -> tuple[dict, dict]:
    if args.kind == "hadamard":
        if args.q is None:
            raise ConfigError("--q is required for kind=hadamard")
        seq = gen_hadamard(args.q, args.n1, args.N)
        check = check_hadamard(seq, args.q) if len(seq) >= 2 else True
    elif args.kind == "erdos":
        if args.c is None or args.alpha is None:
            raise ConfigError("--c and --alpha are required for kind=erdos")
        seq = gen_erdos(args.c, args.alpha, args.n1, args.N)
        check = check_erdos(seq, args.c, args.alpha) if len(seq) >= 2 else True
    else:
        raise ConfigError(f"unknown kind {args.kind!r}")
    summary = {
        "kind": args.kind,
        "n_terms": len(seq),
        "last_bits": seq.values[-1].bit_length(),
        "gap_check": check,
    }
    if len(seq) >= 2:
        summary["min_ratio"] = gap_report(seq)
    return {args.out: seq.to_csv()}, summary


def _cmd_dio_count(args) -> tuple[dict, dict]:
    seq = IndexSequence.from_csv(_read_text(args.seq))
    rows = diophantine_growth_scan(seq, args.a, args.b, args.c, _parse_ints(args.N_list))
    return {args.out: _csv(rows)}, {"counts": {str(n): cnt for n, cnt, _ in rows}}


def _cmd_clt(args) -> tuple[dict, dict]:
    seq = IndexSequence.from_csv(_read_text(args.seq))
    perm_n = args.perm_n if args.perm_n is not None else args.N
    perm = None if args.perm == "identity" else _make_permutation(args.perm, perm_n)
    sample = clt_sample(
        seq, args.N, args.M, norm=args.norm, perm=perm, seed=args.seed, threads=args.threads
    )
    arr = sample.values
    ks = ks_distance(empirical_measure(sample), MixedNormal.standard())
    summary = {
        "ks_to_normal": ks,
        "mean": float(arr.mean()),
        "var": float(arr.var()),
        "N": args.N,
        "M": args.M,
        "perm": args.perm,
    }
    return {args.out: _csv(zip(arr.tolist()))}, summary


def _cmd_lil(args) -> tuple[dict, dict]:
    seq = IndexSequence.from_csv(_read_text(args.seq))
    if args.xs < 1:
        raise ConfigError("--xs must be >= 1")
    if args.Nmax > len(seq):
        raise ConfigError("--Nmax exceeds sequence length")
    if args.Nmax < 3:  # before values[Nmax - 1] below reads past the start
        raise LabError("bad-count", "need N_max >= 3 for log log N")
    bits = required_bits(seq.values[args.Nmax - 1])
    maxes = []
    first_points = None
    for i in range(args.xs):
        x = FixedPointX.random(Stream(derive_seed(args.seed, "lil-x", i)), bits)
        traj = lil_trajectory(seq, x, args.Nmax)
        maxes.append(traj.max_value)
        if first_points is None:
            first_points = traj.points
    summary = {
        "median_max": float(np.median(maxes)),
        "xs": args.xs,
        "Nmax": args.Nmax,
        "bits": bits,
    }
    return {args.out: _csv(first_points), "lil_max.csv": _csv(enumerate(maxes))}, summary


def _cmd_prohorov(args) -> tuple[dict, dict]:
    mu = measure_from_csv(_read_text(args.mu))
    nu = measure_from_csv(_read_text(args.nu))
    dist = prohorov_distance(mu, nu)
    summary: dict = {"distance": dist}
    tables: dict = {}
    if args.oracle:
        if len(mu.atoms) + len(nu.atoms) <= ORACLE_MAX_ATOMS:
            oracle = prohorov_oracle(mu, nu)
            summary["oracle"] = oracle
            summary["agrees"] = bool(abs(oracle - dist) <= 1e-9)
        else:
            summary["oracle"] = None
            summary["agrees"] = None
    if args.coupling:
        coupling = strassen_coupling(mu, nu, dist + 1e-9)
        tables[args.coupling] = _csv(map(tuple, coupling.matrix.tolist()))
    print(repr(float(dist)))
    return tables, summary


def _cmd_framework_check(args) -> tuple[dict, dict]:
    T = make_theorem(args.theorem)
    mu = measure_from_csv(_read_text(args.mu))
    rows = limit_convergence_check(
        T, mu, _parse_ints(args.k_list), args.M, args.seed, threads=args.threads
    )
    summary = {"theorem": args.theorem, "ks": {str(k): ks for k, ks in rows}}
    return {args.out: _csv(rows)}, summary


def _cmd_exchangeable(args) -> tuple[dict, dict]:
    model = model_from_json(_read_text(args.model))
    T = make_theorem(args.theorem)
    _, q = T.window(args.k)
    perm_n = args.perm_n if args.perm_n is not None else q
    perms = [_make_permutation(s.strip(), perm_n) for s in args.perms.split(",") if s.strip()]
    report = permutation_invariance_check(
        model, T, args.k, perms, args.M, args.seed, threads=args.threads
    )
    payload = {
        "ks_to_limit": list(report.ks_to_limit),
        "max_pairwise_ks": report.max_pairwise_ks,
        "tol_limit": report.tol_limit,
        "tol_pairwise": report.tol_pairwise,
        "holds": report.holds,
        "perms": args.perms,
        "k": args.k,
        "M": args.M,
    }
    return {args.out: json.dumps(payload, indent=2) + "\n"}, payload


def _cmd_strong_law(args) -> tuple[dict, dict]:
    model = model_from_json(_read_text(args.model))
    traj = strong_law_trajectory(model, args.p, args.N, args.seed)
    return {args.out: _csv(traj)}, {"p": args.p, "N": args.N, "final": traj[-1][1]}


def _cmd_plot(args) -> tuple[dict, dict]:
    need = 2 if args.kind == "trajectory" else 1
    rows = []
    for number, line in enumerate(_read_text(getattr(args, "in")).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(t) for t in line.split(",")]
        except ValueError:
            row = []
        if len(row) < need or not all(map(math.isfinite, row)):
            raise LabError(
                "malformed-input",
                f"table line {number}: expected comma-separated finite numbers (at least {need}),"
                f" got {line!r}",
            )
        rows.append(row)
    if not rows:
        raise ConfigError("empty table")
    if args.kind == "cdf-overlay":
        svg = render_cdf_overlay([r[0] for r in rows])
    elif args.kind == "trajectory":
        svg = render_trajectory([(r[-2], r[-1]) for r in rows])
    else:
        raise ConfigError(f"unknown plot kind {args.kind!r}")
    return {args.out: svg}, {"kind": args.kind, "points": len(rows)}


_HANDLERS = {
    "gen-seq": _cmd_gen_seq,
    "dio-count": _cmd_dio_count,
    "clt": _cmd_clt,
    "permute-clt": _cmd_clt,
    "lil": _cmd_lil,
    "prohorov": _cmd_prohorov,
    "framework-check": _cmd_framework_check,
    "exchangeable": _cmd_exchangeable,
    "strong-law": _cmd_strong_law,
    "plot": _cmd_plot,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed")
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--threads", type=int, default=1, help="worker threads")

    parser = argparse.ArgumentParser(
        prog="permutalab",
        description="laboratory for permutation-invariant limit theorems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-seq", parents=[common], help="generate an index sequence")
    p.add_argument("--kind", required=True, choices=["hadamard", "erdos"])
    p.add_argument("--q", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n1", type=int, default=1)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", default="seq.csv")

    p = sub.add_parser("dio-count", parents=[common], help="count pair equation solutions")
    p.add_argument("--seq", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--N-list", dest="N_list", required=True)
    p.add_argument("--out", default="counts.csv")

    for name in ("clt", "permute-clt"):
        p = sub.add_parser(name, parents=[common], help="sine-sum distribution sample")
        p.add_argument("--seq", required=True)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--M", type=int, required=True)
        p.add_argument("--perm", default="identity", help="identity|reverse|block:k|random:seed")
        p.add_argument("--perm-n", dest="perm_n", type=int, default=None,
                       help="permutation domain size (default N)")
        p.add_argument("--norm", default="sqrtN_over_2", choices=["sqrtN_over_2", "sqrtN"])
        p.add_argument("--out", default="dist.csv")

    p = sub.add_parser("lil", parents=[common], help="iterated-logarithm trajectories")
    p.add_argument("--seq", required=True)
    p.add_argument("--Nmax", type=int, required=True)
    p.add_argument("--xs", type=int, required=True, help="number of sample points")
    p.add_argument("--out", default="lil.csv")

    p = sub.add_parser("prohorov", parents=[common], help="distance of two CSV measures")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check against the subset oracle")
    p.add_argument("--coupling", default=None, help="write the coupling matrix CSV")

    p = sub.add_parser("framework-check", parents=[common], help="limit-theorem convergence table")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--mu", required=True)
    p.add_argument("--k-list", dest="k_list", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--out", default="table.csv")

    p = sub.add_parser("exchangeable", parents=[common], help="permuted-statistic report")
    p.add_argument("--model", required=True)
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--perms", required=True)
    p.add_argument("--perm-n", dest="perm_n", type=int, default=None)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--out", default="report.json")

    p = sub.add_parser("strong-law", parents=[common], help="strong-law trajectory")
    p.add_argument("--model", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", default="traj.csv")

    p = sub.add_parser("plot", parents=[common], help="emit an SVG from a table")
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--kind", required=True, choices=["cdf-overlay", "trajectory"])
    p.add_argument("--out", default="plot.svg")

    return parser


def run(args: argparse.Namespace) -> None:
    """Execute one resolved command; write tables, summary and manifest."""
    out_dir = Path(args.out_dir)
    t0 = time.monotonic()
    tables, summary = _HANDLERS[args.command](args)
    wall = time.monotonic() - t0
    params = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("command",)
    }
    manifest = {
        "command": args.command,
        "params": params,
        "artifact_version": __version__,
        "wall_time_s": wall,
    }
    files = [
        *tables.items(),
        ("manifest.json", json.dumps(manifest, indent=2) + "\n"),
        ("summary.json", json.dumps(summary, indent=2) + "\n"),
    ]
    for name, text in files:
        try:
            _atomic_write(out_dir / name, text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_dir / name}: {exc}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.threads < 1:
        print("config error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        run(args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        if exc.token in _INPUT_TOKENS:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc.token}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
