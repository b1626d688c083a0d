"""Experiment runner: one subcommand per laboratory operation.

Every run resolves its configuration, executes the module operation, and
writes results into ``--out-dir``: a ``manifest.json`` echoing the full
resolved config (plus artifact version and wall time), the named CSV/JSON
tables, and optional SVG plots.  All files are written atomically (temp
file + rename); ``errors.table_text`` writes every table and
``errors.json_text`` every JSON file, so rerunning a manifest reproduces
every table byte for byte, for any ``--threads`` value.  Every input
table (a sequence, a measure, a table to plot) is read by
``errors.table_values``.

``main`` builds the parser of the one subcommand named by ``argv[0]``:
all ten names are registered, so the top-level usage and messages do not
change, but only that subcommand gets its arguments and ``-h``.  Any other
``argv`` (empty, ``-h``, ``--version``, an unknown name) gets the full
build.

Exit codes: 0 ok; 2 for ``bad-config`` (a bad flag, an unreadable input
file or an unwritable ``--out-dir``), ``malformed-input`` or ``empty-table``
(one ``config error:`` line on stderr); 3 for any other ``LabError`` token.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import LabError, json_text, table_text, table_values
from .exchangeable import model_from_json, strong_law_trajectory, permutation_invariance_check
from .framework import THEOREMS, RegularLimitTheorem, limit_convergence_check
from .lacunary import clt_sample, lil_trajectory
from .measures import MixedNormal, empirical_measure, measure_from_csv
from .metrics import (
    ORACLE_MAX_ATOMS,
    ks_distance,
    prohorov_distance,
    prohorov_oracle,
    strassen_coupling,
)
from .sequences import (
    IndexSequence,
    check_erdos,
    check_hadamard,
    diophantine_growth_scan,
    gap_report,
    gen_erdos,
    gen_hadamard,
    permutation,
)
from .svg import render_cdf_overlay, render_trajectory


# error tokens of a bad configuration or input file, reported as exit code 2
_INPUT_TOKENS = frozenset({"bad-config", "empty-table", "malformed-input"})


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
    """The UTF-8 text of an input file; an unreadable file raises ``bad-config``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise LabError("bad-config", f"input file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise LabError("bad-config", f"cannot read input file {path}: {exc}") from None


def _parse_ints(text: str) -> list[int]:
    try:
        ints = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise LabError("bad-config", f"bad integer list {text!r}") from exc
    if not ints:
        raise LabError("bad-config", f"empty integer list {text!r}")
    return ints


# -- subcommand handlers ------------------------------------------------
# each returns (tables: {filename: text}, summary: dict)


def _cmd_gen_seq(args) -> tuple[dict, dict]:
    if args.kind == "hadamard":
        if args.q is None:
            raise LabError("bad-config", "--q is required for kind=hadamard")
        seq = gen_hadamard(args.q, args.n1, args.N)
        check = check_hadamard(seq, args.q) if len(seq) >= 2 else True
    else:
        if args.c is None or args.alpha is None:
            raise LabError("bad-config", "--c and --alpha are required for kind=erdos")
        seq = gen_erdos(args.c, args.alpha, args.n1, args.N)
        check = check_erdos(seq, args.c, args.alpha) if len(seq) >= 2 else True
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
    return {args.out: table_text(*zip(*rows))}, {"counts": {str(n): cnt for n, cnt, _ in rows}}


def _cmd_clt(args) -> tuple[dict, dict]:
    seq = IndexSequence.from_csv(_read_text(args.seq))
    # the default domain stops at the sequence: a larger N is bad-count in clt_sample
    perm_n = args.perm_n if args.perm_n is not None else min(args.N, len(seq))
    perm = permutation(args.perm, perm_n)
    arr = clt_sample(
        seq, args.N, args.M, norm=args.norm, perm=perm, seed=args.seed, threads=args.threads
    )
    ks = ks_distance(empirical_measure(arr), MixedNormal.standard())
    summary = {
        "ks_to_normal": ks,
        "mean": float(arr.mean()),
        "var": float(arr.var()),
        "N": args.N,
        "M": args.M,
        "perm": args.perm,
    }
    return {args.out: table_text(arr)}, summary


def _cmd_lil(args) -> tuple[dict, dict]:
    seq = IndexSequence.from_csv(_read_text(args.seq))
    traj = lil_trajectory(seq, args.xs, args.Nmax, args.seed)
    summary = {
        "median_max": float(np.median(traj.max_values)),
        "xs": args.xs,
        "Nmax": args.Nmax,
        "bits": traj.bits,
    }
    tables = {
        args.out: table_text(range(3, args.Nmax + 1), traj.first),
        "lil_max.csv": table_text(range(len(traj.max_values)), traj.max_values),
    }
    return tables, summary


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
        tables[args.coupling] = table_text(*coupling.T)
    print(repr(float(dist)))
    return tables, summary


def _cmd_framework_check(args) -> tuple[dict, dict]:
    T = RegularLimitTheorem(args.theorem)
    mu = measure_from_csv(_read_text(args.mu))
    rows = limit_convergence_check(
        T, mu, _parse_ints(args.k_list), args.M, args.seed, threads=args.threads
    )
    summary = {"theorem": args.theorem, "ks": {str(k): ks for k, ks in rows}}
    return {args.out: table_text(*zip(*rows))}, summary


def _cmd_exchangeable(args) -> tuple[dict, dict]:
    model = model_from_json(_read_text(args.model))
    T = RegularLimitTheorem(args.theorem)
    _, q = T.window(args.k)
    perm_n = args.perm_n if args.perm_n is not None else q
    perms = [permutation(s.strip(), perm_n) for s in args.perms.split(",") if s.strip()]
    report = permutation_invariance_check(
        model, T, args.k, perms, args.M, args.seed, threads=args.threads
    )
    payload = {**dataclasses.asdict(report), "perms": args.perms, "k": args.k, "M": args.M}
    return {args.out: json_text(payload)}, payload


def _cmd_strong_law(args) -> tuple[dict, dict]:
    model = model_from_json(_read_text(args.model))
    traj = strong_law_trajectory(model, args.p, args.N, args.seed)
    table = table_text(range(1, args.N + 1), traj)
    return {args.out: table}, {"p": args.p, "N": args.N, "final": float(traj[-1])}


def _cmd_plot(args) -> tuple[dict, dict]:
    trajectory = args.kind == "trajectory"
    need = 2 if trajectory else 1
    expected = f"comma-separated finite numbers (at least {need})"
    text = _read_text(getattr(args, "in"))
    values, ends = table_values(text, "table", expected, fields=(need, math.inf), finite=True)
    if trajectory:
        svg = render_trajectory(values[ends - 2], values[ends - 1])
    else:
        svg = render_cdf_overlay(values[np.concatenate(([0], ends[:-1]))])
    return {args.out: svg}, {"kind": args.kind, "points": len(ends)}


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


def _gen_seq_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=["hadamard", "erdos"])
    p.add_argument("--q", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n1", type=int, default=1)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", default="seq.csv")


def _dio_count_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seq", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--N-list", dest="N_list", required=True)
    p.add_argument("--out", default="counts.csv")


def _clt_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seq", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--perm", default="identity", help="identity|reverse|block:k|random:seed")
    p.add_argument("--perm-n", dest="perm_n", type=int, default=None,
                   help="permutation domain size (default N)")
    p.add_argument("--norm", default="sqrtN_over_2", choices=["sqrtN_over_2", "sqrtN"])
    p.add_argument("--out", default="dist.csv")


def _lil_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seq", required=True)
    p.add_argument("--Nmax", type=int, required=True)
    p.add_argument("--xs", type=int, required=True, help="number of sample points")
    p.add_argument("--out", default="lil.csv")


def _prohorov_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check against the subset oracle")
    p.add_argument("--coupling", default=None, help="write the coupling matrix CSV")


def _framework_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--mu", required=True)
    p.add_argument("--k-list", dest="k_list", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--out", default="table.csv")


def _exchangeable_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--perms", required=True)
    p.add_argument("--perm-n", dest="perm_n", type=int, default=None)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--out", default="report.json")


def _strong_law_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", default="traj.csv")


def _plot_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--kind", required=True, choices=["cdf-overlay", "trajectory"])
    p.add_argument("--out", default="plot.svg")


# each subcommand, in help order: its help line and the builder of its own arguments
_SUBCOMMANDS = {
    "gen-seq": ("generate an index sequence", _gen_seq_args),
    "dio-count": ("count pair equation solutions", _dio_count_args),
    "clt": ("sine-sum distribution sample", _clt_args),
    "permute-clt": ("sine-sum distribution sample", _clt_args),
    "lil": ("iterated-logarithm trajectories", _lil_args),
    "prohorov": ("distance of two CSV measures", _prohorov_args),
    "framework-check": ("limit-theorem convergence table", _framework_check_args),
    "exchangeable": ("permuted-statistic report", _exchangeable_args),
    "strong-law": ("strong-law trajectory", _strong_law_args),
    "plot": ("emit an SVG from a table", _plot_args),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; with ``command``, the parser of that one subcommand.

    Every subcommand name is registered either way, so the top-level usage
    and an invalid-choice message do not change.  With ``command`` only that
    subcommand gets its arguments and ``-h``: each ``add_argument`` builds an
    argparse ``HelpFormatter``, which asks for the terminal size, and the
    other subcommands' arguments cost about 1.3 ms per command.
    """
    parser = argparse.ArgumentParser(
        prog="permutalab",
        description="laboratory for permutation-invariant limit theorems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed")
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--threads", type=int, default=1, help="worker threads")
    for name, (text, add_arguments) in _SUBCOMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, parents=[common], help=text))
        else:
            sub.add_parser(name, add_help=False, help=text)
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
        ("manifest.json", json_text(manifest)),
        ("summary.json", json_text(summary)),
    ]
    for name, text in files:
        try:
            _atomic_write(out_dir / name, text)
        except OSError as exc:
            raise LabError("bad-config", f"cannot write {out_dir / name}: {exc}") from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.threads < 1:
            raise LabError("bad-config", "--threads must be >= 1")
        run(args)
        return 0
    except LabError as exc:
        if exc.token in _INPUT_TOKENS:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc.token}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
