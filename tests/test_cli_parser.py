"""The per-command parser against the full parser it replaced.

``cli.main`` builds the arguments of the one subcommand named by
``argv[0]`` and registers the other nine by name only; any other ``argv``
gets the full build.  ``full_parser`` is the former builder, verbatim: every
call of ``main`` must print what it printed, exit as it exited, and hand
``run`` the namespace it parsed.
"""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from permutalab import __version__, cli
from permutalab.framework import THEOREMS

README = Path(__file__).resolve().parent.parent / "README.md"


def full_parser() -> argparse.ArgumentParser:
    """The former ``cli._build_parser``, verbatim: every subcommand with its arguments."""
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


def readme_commands() -> list[list[str]]:
    """The arguments of every ``permutalab`` command in the README's code blocks."""
    text = re.sub(r"\\\n\s*", " ", README.read_text(encoding="utf-8"))
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("permutalab ")]


COMMANDS = list(cli._SUBCOMMANDS)
README_COMMANDS = readme_commands()

ARGVS = [
    [],
    ["--help"],
    ["-h"],
    ["--version"],
    ["--version", "clt"],
    ["frobnicate"],
    ["frobnicate", "--help"],
    ["--seed", "1", "clt"],
    *([name, "--help"] for name in COMMANDS),
    *([name, "-h", "--bogus"] for name in COMMANDS),
    *([name] for name in COMMANDS),
    *([*argv, "--bogus", "1"] for argv in README_COMMANDS),
    *([*argv, "--version"] for argv in README_COMMANDS[:2]),
    ["clt", "--seq", "s.csv", "--N", "many", "--M", "4"],
    ["clt", "--seq", "s.csv", "--N", "4", "--M", "4", "--norm", "sqrt"],
    ["gen-seq", "--kind", "cubic", "--N", "5"],
    ["exchangeable", "--model", "m.json", "--theorem", "none", "--k", "4", "--perms", "identity",
     "--M", "4"],
    ["plot", "--in"],
    ["lil", "--seq", "s.csv", "--Nmax", "5", "--xs", "1", "clt"],
]


def test_the_readme_has_every_command():
    assert len(README_COMMANDS) >= 10
    assert {argv[0] for argv in README_COMMANDS} == set(COMMANDS)


@pytest.mark.parametrize("columns", ["80", "40"])
@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_output_and_exit_code_match_the_full_parser(argv, columns, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.setattr(cli, "run", lambda args: pytest.fail(f"ran {args}"))
    try:
        full_parser().parse_args(argv)
        expected_code = None
    except SystemExit as exc:
        expected_code = exc.code
    expected = capsys.readouterr()
    assert expected_code is not None, "every case exits in the parser"
    code = cli.main(argv)
    got = capsys.readouterr()
    assert (code, got.out, got.err) == (int(expected_code or 0), expected.out, expected.err)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_namespaces_match_the_full_parser(argv, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run", ran.append)
    assert cli.main(argv) == 0
    assert ran == [full_parser().parse_args(argv)]


@pytest.mark.parametrize("name", COMMANDS)
def test_one_command_builds_only_its_own_arguments(name):
    parser = cli._build_parser(name)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == COMMANDS
    for other, subparser in sub.choices.items():
        flags = [s for a in subparser._actions for s in a.option_strings]
        assert (len(flags) > 0) == (other == name), other
