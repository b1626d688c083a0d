"""CLI runner: files, determinism, exit codes, SVG structure."""

from __future__ import annotations

import json
import math
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from permutalab import cli as cli_module
from permutalab import metrics, parallel, sequences
from permutalab.cli import main
from permutalab.errors import LabError
from permutalab.exchangeable import ExchangeableModel, model_to_json
from permutalab.measures import DiscreteMeasure, measure_to_csv
from permutalab.metrics import COUPLING_MAX_PAIRS
from permutalab.parallel import MAX_TOTAL
from permutalab.sequences import PERM_MAX_TERMS, permutation


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def seq_file(tmp_path) -> Path:
    rc = run_cli(
        "gen-seq", "--kind", "hadamard", "--q", "2", "--n1", "1", "--N", "5",
        "--out", "seq.csv", "--out-dir", str(tmp_path),
    )
    assert rc == 0
    return tmp_path / "seq.csv"


class TestGenSeq:
    def test_doubling_bytes(self, seq_file):
        assert seq_file.read_text() == "1\n2\n4\n8\n16\n"

    def test_manifest_written(self, seq_file):
        manifest = json.loads((seq_file.parent / "manifest.json").read_text())
        assert manifest["command"] == "gen-seq"
        assert manifest["params"]["q"] == 2.0
        assert manifest["params"]["N"] == 5
        assert "artifact_version" in manifest

    def test_rerun_identical(self, tmp_path, seq_file):
        rc = run_cli(
            "gen-seq", "--kind", "hadamard", "--q", "2", "--n1", "1", "--N", "5",
            "--out", "seq2.csv", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        assert (tmp_path / "seq2.csv").read_bytes() == seq_file.read_bytes()

    def test_missing_q_is_config_error(self, tmp_path):
        rc = run_cli("gen-seq", "--kind", "hadamard", "--N", "5", "--out-dir", str(tmp_path))
        assert rc == 2


class TestDioCount:
    def test_expected_row(self, tmp_path, seq_file):
        rc = run_cli(
            "dio-count", "--seq", str(seq_file), "--a", "1", "--b", "-2", "--c", "0",
            "--N-list", "5", "--out", "counts.csv", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        assert (tmp_path / "counts.csv").read_text() == "5,4,0.8\n"

    def test_degenerate_coefficient_exit_3(self, tmp_path, seq_file):
        rc = run_cli(
            "dio-count", "--seq", str(seq_file), "--a", "0", "--b", "1", "--c", "0",
            "--N-list", "5", "--out-dir", str(tmp_path),
        )
        assert rc == 3


class TestClt:
    def test_rerun_and_threads_byte_identical(self, tmp_path, seq_file):
        outs = []
        for sub, threads in (("a", "1"), ("b", "1"), ("c", "8")):
            rc = run_cli(
                "clt", "--seq", str(seq_file), "--N", "4", "--M", "400",
                "--seed", "7", "--threads", threads,
                "--out", "dist.csv", "--out-dir", str(tmp_path / sub),
            )
            assert rc == 0
            outs.append((tmp_path / sub / "dist.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_permute_alias_changes_values(self, tmp_path, seq_file):
        rc = run_cli(
            "permute-clt", "--seq", str(seq_file), "--N", "3", "--M", "50",
            "--perm", "reverse", "--perm-n", "5", "--seed", "7",
            "--out", "dist.csv", "--out-dir", str(tmp_path / "p"),
        )
        assert rc == 0
        rc = run_cli(
            "clt", "--seq", str(seq_file), "--N", "3", "--M", "50", "--seed", "7",
            "--out", "dist.csv", "--out-dir", str(tmp_path / "i"),
        )
        assert rc == 0
        assert (tmp_path / "p" / "dist.csv").read_bytes() != (
            tmp_path / "i" / "dist.csv"
        ).read_bytes()

    def test_identity_is_an_ordinary_pattern(self, tmp_path):
        # an identity permutation longer than N gives the sample of no --perm
        assert run_cli("gen-seq", "--kind", "hadamard", "--q", "2", "--N", "16",
                       "--out-dir", str(tmp_path)) == 0
        outs = []
        for sub, perm in (("plain", ()), ("identity", ("--perm", "identity", "--perm-n", "16"))):
            rc = run_cli("clt", "--seq", str(tmp_path / "seq.csv"), "--N", "8", "--M", "50",
                         *perm, "--out-dir", str(tmp_path / sub))
            assert rc == 0
            outs.append((tmp_path / sub / "dist.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_summary_fields(self, tmp_path, seq_file):
        rc = run_cli(
            "clt", "--seq", str(seq_file), "--N", "4", "--M", "100", "--seed", "1",
            "--out-dir", str(tmp_path),
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) >= {"ks_to_normal", "mean", "var"}


class TestLil:
    def test_tables(self, tmp_path):
        rc = run_cli(
            "gen-seq", "--kind", "hadamard", "--q", "2", "--n1", "1", "--N", "64",
            "--out", "seq.csv", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        rc = run_cli(
            "lil", "--seq", str(tmp_path / "seq.csv"), "--Nmax", "64", "--xs", "5",
            "--seed", "3", "--out", "lil.csv", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        lines = (tmp_path / "lil.csv").read_text().strip().splitlines()
        assert lines[0].startswith("3,")
        assert len(lines) == 62
        maxes = (tmp_path / "lil_max.csv").read_text().strip().splitlines()
        assert len(maxes) == 5
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "median_max" in summary


PINNED_COUPLING = (
    b"0.1,0.0,0.0,0.0,0.0,0.0\n"
    b"0.15,0.05,0.0,0.0,0.0,0.0\n"
    b"0.0,0.05,0.1,0.0,0.0,0.0\n"
    b"0.0,0.0,0.05,0.0,0.0,0.0\n"
    b"0.0,0.0,0.05,0.15,0.1,0.0\n"
    b"0.0,0.0,0.0,0.0,0.0,0.2\n"
)
PINNED_SUMMARY = b'{\n  "distance": 0.375,\n  "oracle": 0.375,\n  "agrees": true\n}\n'


class TestProhorov:
    def test_distance_and_oracle(self, tmp_path, capsys):
        mu = tmp_path / "mu.csv"
        nu = tmp_path / "nu.csv"
        mu.write_text(measure_to_csv(DiscreteMeasure(((0.0, 0.5), (1.0, 0.5)))))
        nu.write_text(measure_to_csv(DiscreteMeasure.point(0.0)))
        rc = run_cli(
            "prohorov", "--mu", str(mu), "--nu", str(nu), "--oracle",
            "--coupling", "coupling.csv", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.5"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["distance"] == 0.5
        assert summary["agrees"] is True
        rows = (tmp_path / "coupling.csv").read_text().strip().splitlines()
        assert len(rows) == 2

    def test_oracle_coupling_bytes(self, tmp_path):
        # a fixed 6-atom pair: the coupling and summary bytes are pinned
        mu = DiscreteMeasure(
            ((-1.0, 0.1), (-0.5, 0.2), (0.0, 0.15), (0.25, 0.05), (0.5, 0.3), (1.5, 0.2))
        )
        nu = DiscreteMeasure(
            ((-0.875, 0.25), (-0.25, 0.1), (0.125, 0.2), (0.375, 0.15), (1.0, 0.1), (2.0, 0.2))
        )
        (tmp_path / "mu.csv").write_text(measure_to_csv(mu))
        (tmp_path / "nu.csv").write_text(measure_to_csv(nu))
        rc = run_cli(
            "prohorov", "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"),
            "--oracle", "--coupling", "coupling.csv", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        assert (tmp_path / "coupling.csv").read_bytes() == PINNED_COUPLING
        assert (tmp_path / "summary.json").read_bytes() == PINNED_SUMMARY


class TestExchangeableCli:
    def test_report(self, tmp_path):
        model = ExchangeableModel(
            ((0.5, DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))),
             (0.5, DiscreteMeasure(((-2.0, 0.5), (2.0, 0.5))))),
            grid=0.0,
        )
        model_path = tmp_path / "model.json"
        model_path.write_text(model_to_json(model))
        rc = run_cli(
            "exchangeable", "--model", str(model_path), "--theorem", "trimmed-clt",
            "--k", "16", "--perms", "identity,reverse,random:3", "--M", "500",
            "--seed", "5", "--out", "report.json", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["ks_to_limit"]) == 3
        assert "max_pairwise_ks" in report


class TestStrongLawCli:
    def test_rows(self, tmp_path):
        model = ExchangeableModel(((1.0, DiscreteMeasure.point(1.5)),), grid=0.0)
        model_path = tmp_path / "model.json"
        model_path.write_text(model_to_json(model))
        rc = run_cli(
            "strong-law", "--model", str(model_path), "--p", "1.0", "--N", "10",
            "--out", "traj.csv", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        lines = (tmp_path / "traj.csv").read_text().strip().splitlines()
        assert len(lines) == 10
        assert lines[-1] == "10,1.5"


class TestPlot:
    def test_cdf_overlay_structure(self, tmp_path):
        data = tmp_path / "dist.csv"
        data.write_text("\n".join(str(v / 10 - 0.5) for v in range(11)) + "\n")
        rc = run_cli(
            "plot", "--in", str(data), "--kind", "cdf-overlay",
            "--out", "dist.svg", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        svg = (tmp_path / "dist.svg").read_text()
        assert svg.count("<path") == 2
        assert svg.count("<line") == 2

    def test_trajectory_structure(self, tmp_path):
        data = tmp_path / "traj.csv"
        data.write_text("1,0.5\n2,0.7\n3,0.6\n")
        rc = run_cli(
            "plot", "--in", str(data), "--kind", "trajectory",
            "--out", "traj.svg", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        svg = (tmp_path / "traj.svg").read_text()
        assert svg.count("<path") == 1
        assert svg.count("<line") == 2

    def test_byte_identical_rerun(self, tmp_path):
        data = tmp_path / "traj.csv"
        data.write_text("1,0.5\n2,0.7\n")
        for sub in ("a", "b"):
            rc = run_cli(
                "plot", "--in", str(data), "--kind", "trajectory",
                "--out", "t.svg", "--out-dir", str(tmp_path / sub),
            )
            assert rc == 0
        assert (tmp_path / "a" / "t.svg").read_bytes() == (tmp_path / "b" / "t.svg").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ("plot", "--kind", "cdf-overlay", "--in", "{empty}"),
            ("prohorov", "--mu", "{empty}", "--nu", "{empty}"),
            ("dio-count", "--a", "1", "--b", "-2", "--c", "0", "--N-list", "5",
             "--seq", "{empty}"),
            ("strong-law", "--p", "1.5", "--N", "10", "--model", "{model}"),
        ],
        ids=["plot-table", "measure-csv", "sequence-csv", "model-law-csv"],
    )
    def test_empty_table_exit_2(self, tmp_path, capsys, argv):
        # an input file of blank lines, or a model whose law_csv is empty
        empty, model = tmp_path / "empty.csv", tmp_path / "model.json"
        empty.write_text("\n  \n")
        model.write_text(json.dumps({"atoms": [{"prob": 1.0, "law_csv": ""}]}))
        argv = [a.format(empty=empty, model=model) for a in argv]
        rc = run_cli(*argv, "--out-dir", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: empty ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 2

    def test_unknown_flag_rejected(self, tmp_path, seq_file):
        rc = run_cli(
            "dio-count", "--seq", str(seq_file), "--a", "1", "--b", "1", "--c", "0",
            "--N-list", "5", "--bogus", "1", "--out-dir", str(tmp_path),
        )
        assert rc == 2

    def test_missing_input_file(self, tmp_path):
        rc = run_cli(
            "dio-count", "--seq", str(tmp_path / "nope.csv"), "--a", "1", "--b", "1",
            "--c", "0", "--N-list", "5", "--out-dir", str(tmp_path),
        )
        assert rc == 2

    def _assert_config_error(self, rc, capsys, *needles):
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: ")
        assert "Traceback" not in err
        for needle in needles:
            assert needle in err

    def _assert_runtime_error(self, rc, capsys, token):
        err = capsys.readouterr().err
        assert rc == 3
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {token}: ")
        assert "Traceback" not in err

    def _argv(self, tmp_path, seq_file, command, **flags):
        """A small valid command line for ``command``, with ``flags`` overridden."""
        rademacher = DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
        model = tmp_path / "model.json"
        model.write_text(model_to_json(ExchangeableModel(((1.0, rademacher),))))
        mu = tmp_path / "mu.csv"
        mu.write_text(measure_to_csv(rademacher))
        argv = {
            "exchangeable": {"--model": model, "--theorem": "trimmed-clt", "--k": "16",
                             "--perms": "identity,reverse", "--M": "100"},
            "framework-check": {"--theorem": "clt", "--mu": mu, "--k-list": "1", "--M": "100"},
            "dio-count": {"--seq": seq_file, "--a": "1", "--b": "-2", "--c": "0",
                          "--N-list": "5"},
            "lil": {"--seq": seq_file, "--Nmax": "5", "--xs": "1"},
            "clt": {"--seq": seq_file, "--N": "5", "--M": "100"},
            "permute-clt": {"--seq": seq_file, "--N": "5", "--M": "100", "--perm": "reverse"},
            "strong-law": {"--model": model, "--p": "1.5", "--N": "10"},
        }[command]
        argv.update(flags)
        return [command, *(str(t) for kv in argv.items() for t in kv),
                "--out-dir", str(tmp_path / "out")]

    def test_unknown_permutation_pattern_is_bad_config(self):
        with pytest.raises(LabError) as err:
            permutation("bogus", 4)
        assert err.value.token == "bad-config"

    @pytest.mark.parametrize("pattern", ["block:x", "random:y", "block:"])
    def test_perm_pattern_without_integer(self, tmp_path, seq_file, capsys, pattern):
        rc = run_cli(
            "permute-clt", "--seq", str(seq_file), "--N", "4", "--M", "10",
            "--perm", pattern, "--out-dir", str(tmp_path / "out"),
        )
        self._assert_config_error(rc, capsys, repr(pattern))

    @pytest.mark.parametrize("pattern", ["block:0", "block:-3"])
    def test_perm_block_below_one_is_bad_block(self, tmp_path, seq_file, capsys, pattern):
        rc = run_cli(
            "permute-clt", "--seq", str(seq_file), "--N", "4", "--M", "10",
            "--perm", pattern, "--out-dir", str(tmp_path / "out"),
        )
        err = capsys.readouterr().err
        assert rc == 3
        assert err.splitlines() == [f"error: bad-block: block must be >= 1, got {pattern[6:]}"]

    @pytest.mark.parametrize("bad_line", ["0.5", "0.5,0.25,0.25", "0.5,half"])
    def test_measure_csv_line_without_one_comma(self, tmp_path, capsys, bad_line):
        mu = tmp_path / "mu.csv"
        mu.write_text(f"0.0,0.5\n\n{bad_line}\n")
        rc = run_cli("prohorov", "--mu", str(mu), "--nu", str(mu), "--out-dir", str(tmp_path))
        self._assert_config_error(rc, capsys, "line 3", repr(bad_line))

    def test_model_json_without_atoms(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"bad_mass": 0.0, "grid": 0.0}))
        rc = run_cli(
            "strong-law", "--model", str(model), "--p", "1.0", "--N", "10",
            "--out-dir", str(tmp_path),
        )
        self._assert_config_error(rc, capsys, "'atoms'")

    @pytest.mark.parametrize("command", ["strong-law", "exchangeable"])
    def test_model_json_nested_too_deeply_is_malformed_input(self, tmp_path, seq_file, capsys,
                                                              command):
        # the JSON parser recurses once per level: 100,000 levels used to end
        # in a RecursionError traceback
        argv = self._argv(tmp_path, seq_file, command)
        (tmp_path / "model.json").write_text("[" * 100_000 + "]" * 100_000)
        rc = run_cli(*argv)
        self._assert_config_error(rc, capsys, "model JSON")
        assert not (tmp_path / "out").exists()

    def test_sequence_csv_line_not_an_integer(self, tmp_path, capsys):
        seq = tmp_path / "s.csv"
        seq.write_text("1\n2\n\nabc\n8\n")
        rc = run_cli(
            "clt", "--seq", str(seq), "--N", "2", "--M", "10", "--out-dir", str(tmp_path / "out"),
        )
        self._assert_config_error(rc, capsys, "line 4", "'abc'")

    @pytest.mark.parametrize(
        "kind, bad_line",
        [("cdf-overlay", "1,x"), ("trajectory", "1,x"), ("trajectory", "0.5"),
         ("cdf-overlay", "nan"), ("trajectory", "2,inf")],
    )
    def test_plot_table_cell_not_a_number(self, tmp_path, capsys, kind, bad_line):
        table = tmp_path / "dist.csv"
        table.write_text(f"0.5,1\n\n{bad_line}\n")
        rc = run_cli(
            "plot", "--in", str(table), "--kind", kind, "--out", "t.svg",
            "--out-dir", str(tmp_path / "out"),
        )
        self._assert_config_error(rc, capsys, "line 3", repr(bad_line))

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("exchangeable", "--M", "0"),
            ("exchangeable", "--k", "0"),
            ("clt", "--M", "0"),
            ("permute-clt", "--M", "-1"),
            ("framework-check", "--M", "0"),
            ("framework-check", "--k-list", "0"),
            ("framework-check", "--k-list", "-3"),
            ("dio-count", "--N-list", "0"),
            ("dio-count", "--N-list", "-2"),
            ("lil", "--Nmax", "-5"),
            ("lil", "--Nmax", "0"),
            ("lil", "--Nmax", "2"),  # lil needs N_max >= 3
            ("lil", "--Nmax", "6"),  # one past the 5-term sequence
            ("lil", "--xs", "0"),
        ],
    )
    def test_count_below_one_is_bad_count(self, tmp_path, seq_file, capsys, command, flag, value):
        rc = run_cli(*self._argv(tmp_path, seq_file, command, **{flag: value}))
        self._assert_runtime_error(rc, capsys, "bad-count")

    def test_n_past_the_sequence_builds_no_n_term_permutation(
        self, tmp_path, seq_file, capsys, monkeypatch
    ):
        sizes = []
        # the spy builds at most 5 terms, so a default domain of N allocates nothing here
        monkeypatch.setattr(cli_module, "permutation",
                            lambda pattern, n: sizes.append(n) or permutation(pattern, min(n, 5)))
        rc = run_cli(*self._argv(tmp_path, seq_file, "clt", **{"--N": str(10**9)}))
        self._assert_runtime_error(rc, capsys, "bad-count")
        assert sizes == [5]  # the 5-term sequence, not N

    @pytest.mark.parametrize(
        "command, perm_n", [("clt", "4"), ("clt", "0"), ("permute-clt", "7")]
    )
    def test_identity_shorter_than_n_is_perm_size(self, tmp_path, capsys, command, perm_n):
        # identity is built at --perm-n terms like every other pattern
        assert run_cli("gen-seq", "--kind", "hadamard", "--q", "2", "--N", "16",
                       "--out-dir", str(tmp_path)) == 0
        capsys.readouterr()
        rc = run_cli(command, "--seq", str(tmp_path / "seq.csv"), "--N", "8", "--M", "10",
                     "--perm", "identity", "--perm-n", perm_n, "--out-dir", str(tmp_path / "out"))
        self._assert_runtime_error(rc, capsys, "perm-size")

    @pytest.mark.parametrize("command", ["clt", "exchangeable"])
    def test_perm_n_past_the_budget_builds_nothing(self, tmp_path, seq_file, capsys, command):
        argv = self._argv(tmp_path, seq_file, command, **{"--perm-n": "1000000000"})
        t0 = time.monotonic()
        tracemalloc.start()
        try:
            rc = run_cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.monotonic() - t0 < 1.0
        assert peak < 4 * 2**20
        self._assert_runtime_error(rc, capsys, "perm-size")
        assert PERM_MAX_TERMS == 2**20

    @pytest.mark.parametrize(
        "command, flag", [("framework-check", "--k-list"), ("exchangeable", "--k")]
    )
    def test_window_past_the_budget_draws_nothing(self, tmp_path, seq_file, capsys, command, flag):
        # a window of 10**9 terms would ask numpy for a 7.45 GiB arange of
        # draw columns; it is refused before the first draw
        argv = self._argv(tmp_path, seq_file, command, **{flag: "1000000000", "--M": "1"})
        t0 = time.monotonic()
        tracemalloc.start()
        try:
            rc = run_cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.monotonic() - t0 < 1.0
        assert peak < 4 * 2**20
        self._assert_runtime_error(rc, capsys, "too-large")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [("clt", "--M", MAX_TOTAL + 1), ("lil", "--xs", MAX_TOTAL + 1),
         ("strong-law", "--N", PERM_MAX_TERMS + 1)],
    )
    def test_count_past_its_cap_draws_nothing(self, tmp_path, seq_file, capsys, command, flag,
                                              value):
        # each would draw one value per sample, point or term: refused before
        # the first draw
        argv = self._argv(tmp_path, seq_file, command, **{flag: str(value)})
        t0 = time.monotonic()
        tracemalloc.start()
        try:
            rc = run_cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.monotonic() - t0 < 1.0
        assert peak < 4 * 2**20
        self._assert_runtime_error(rc, capsys, "too-large")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["clt", "permute-clt", "framework-check", "exchangeable"])
    def test_threads_past_the_cap_start_no_thread(self, tmp_path, seq_file, capsys, monkeypatch,
                                                   command):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
        argv = self._argv(tmp_path, seq_file, command, **{"--threads": parallel.MAX_THREADS + 1})
        self._assert_runtime_error(run_cli(*argv), capsys, "too-large")
        assert not (tmp_path / "out").exists()

    def test_coupling_one_pair_past_the_limit_is_too_large(self, tmp_path, capsys, monkeypatch):
        # 4 x 5 atom pairs: refused one pair past the limit, written at it
        (tmp_path / "mu.csv").write_text("".join(f"{i}.0,0.25\n" for i in range(4)))
        (tmp_path / "nu.csv").write_text("".join(f"{i}.5,0.2\n" for i in range(5)))
        argv = ["prohorov", "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"),
                "--coupling", "c.csv", "--out-dir"]
        monkeypatch.setattr(metrics, "COUPLING_MAX_PAIRS", 4 * 5 - 1)
        rc = run_cli(*argv, str(tmp_path / "past"))
        self._assert_runtime_error(rc, capsys, "too-large")
        assert not (tmp_path / "past").exists()
        monkeypatch.setattr(metrics, "COUPLING_MAX_PAIRS", 4 * 5)
        assert run_cli(*argv, str(tmp_path / "at")) == 0
        assert (tmp_path / "at" / "c.csv").is_file()
        assert COUPLING_MAX_PAIRS == 2 * 10**7

    @pytest.mark.skipif(sys.get_int_max_str_digits() != 4300, reason="not the default limit")
    def test_gen_seq_past_the_digit_limit_is_too_large(self, tmp_path, capsys):
        # 2**14999 has 4,516 digits, more than Python's default 4,300
        rc = run_cli("gen-seq", "--kind", "hadamard", "--q", "2", "--N", "15000",
                     "--out-dir", str(tmp_path))
        self._assert_runtime_error(rc, capsys, "too-large")
        assert not list(tmp_path.iterdir())

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int digit limit")
    @pytest.mark.parametrize("n", [200_000, PERM_MAX_TERMS + 1, 10**9])
    def test_gen_seq_stops_before_its_terms_outgrow_memory(self, tmp_path, capsys, n):
        # past the term cap nothing is built; below it, doubling stops at the
        # first term past the digit limit (near term 14,285 at 4,300 digits),
        # where 200,000 terms used to end in a MemoryError traceback
        t0 = time.monotonic()
        tracemalloc.start()
        try:
            rc = run_cli("gen-seq", "--kind", "hadamard", "--q", "2", "--N", str(n),
                         "--out-dir", str(tmp_path / "out"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.monotonic() - t0 < 2.0
        assert peak < 24 * 2**20
        self._assert_runtime_error(rc, capsys, "too-large")
        assert not (tmp_path / "out").exists()

    def test_gen_seq_past_the_table_character_cap_is_too_large(self, tmp_path, capsys,
                                                                monkeypatch):
        # slowly growing terms stay below the digit limit, but 2**20 of them
        # used to end in a MemoryError traceback while the table was formatted;
        # a cap of 20,000 characters stops at term 1,061
        monkeypatch.setattr(sequences, "TABLE_MAX_CHARS", 20_000)
        rc = run_cli("gen-seq", "--kind", "erdos", "--c", "1", "--alpha", "0.5",
                     "--N", str(PERM_MAX_TERMS), "--out-dir", str(tmp_path / "out"))
        self._assert_runtime_error(rc, capsys, "too-large")
        assert not (tmp_path / "out").exists()
        rc = run_cli("gen-seq", "--kind", "erdos", "--c", "1", "--alpha", "0.5",
                     "--N", "500", "--out-dir", str(tmp_path / "out"))
        assert rc == 0
        assert len((tmp_path / "out" / "seq.csv").read_text()) <= 20_000

    @pytest.mark.parametrize(
        "command, flag", [("dio-count", "--N-list"), ("framework-check", "--k-list")]
    )
    @pytest.mark.parametrize("value", [",", " , ,"])
    def test_empty_integer_list_is_config_error(
        self, tmp_path, seq_file, capsys, command, flag, value
    ):
        rc = run_cli(*self._argv(tmp_path, seq_file, command, **{flag: value}))
        self._assert_config_error(rc, capsys, "empty integer list", repr(value))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["--kind", "hadamard", "--q", "inf"], "bad-q"),
            (["--kind", "hadamard", "--q", "nan"], "bad-q"),
            (["--kind", "erdos", "--c", "inf", "--alpha", "0.5"], "bad-c"),
            (["--kind", "erdos", "--c", "nan", "--alpha", "0.5"], "bad-c"),
        ],
    )
    def test_gen_seq_non_finite_gap_parameter(self, tmp_path, capsys, argv, token):
        rc = run_cli("gen-seq", *argv, "--N", "5", "--out-dir", str(tmp_path / "out"))
        self._assert_runtime_error(rc, capsys, token)

    @pytest.mark.parametrize("field", ["prob", "bad_mass", "grid"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_model_field_is_bad_model(self, tmp_path, capsys, field, value):
        law = DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
        obj = json.loads(model_to_json(ExchangeableModel(((1.0, law),))))
        if field == "prob":
            obj["atoms"][0]["prob"] = value
        else:
            obj[field] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(obj))  # writes NaN / Infinity, which json reads back
        rc = run_cli("strong-law", "--model", str(model), "--p", "1.0", "--N", "10",
                     "--out-dir", str(tmp_path / "out"))
        self._assert_runtime_error(rc, capsys, "bad-model")

    def test_grid_too_fine_for_the_values_is_bad_model(self, tmp_path, capsys):
        # value / grid overflows at grid 1e-320: the run used to write NaN
        obj = json.loads(model_to_json(ExchangeableModel(((1.0, DiscreteMeasure.point(1.0)),))))
        obj["grid"] = 1e-320
        model = tmp_path / "model.json"
        model.write_text(json.dumps(obj))
        rc = run_cli("strong-law", "--model", str(model), "--p", "1.0", "--N", "10",
                     "--out-dir", str(tmp_path / "out"))
        self._assert_runtime_error(rc, capsys, "bad-model")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _edge_law_inputs(tmp_path, grid):
        """A law with atoms at -1e308 and 1e308 as a CSV and as a one-atom model."""
        law = measure_to_csv(DiscreteMeasure(((-1e308, 0.5), (1e308, 0.5))))
        (tmp_path / "edge.csv").write_text(law)
        obj: dict = {"atoms": [{"prob": 1.0, "law_csv": law}]}
        if grid is not None:
            obj["grid"] = grid
        (tmp_path / "edge.json").write_text(json.dumps(obj))

    @pytest.mark.parametrize(
        "argv, grid, token",
        [
            (("framework-check", "--theorem", "clt", "--mu", "edge.csv", "--k-list", "1",
              "--M", "100"), None, "bad-measure"),
            (("exchangeable", "--model", "edge.json", "--theorem", "trimmed-clt", "--k", "16",
              "--perms", "identity,reverse", "--M", "100"), 0.0, "bad-measure"),
            (("exchangeable", "--model", "edge.json", "--theorem", "trimmed-clt", "--k", "16",
              "--perms", "identity,reverse", "--M", "100"), None, "bad-model"),
            (("strong-law", "--model", "edge.json", "--p", "1.5", "--N", "5"), 0.0, "bad-measure"),
            (("strong-law", "--model", "edge.json", "--p", "1.5", "--N", "5"), None, "bad-model"),
        ],
        ids=["framework-check", "exchangeable-grid0", "exchangeable", "strong-law-grid0",
             "strong-law"],
    )
    def test_atoms_at_the_ends_of_the_double_range(self, tmp_path, capsys, argv, grid, token):
        # the variance of such a law overflows: these runs used to print
        # overflow warnings, then stop on a token that blamed the mixed
        # normal or write inf and nan
        self._edge_law_inputs(tmp_path, grid)
        argv = [str(tmp_path / a) if a.startswith("edge.") else a for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(*argv, "--out-dir", str(tmp_path / "out"))
        assert [str(w.message) for w in caught] == []
        self._assert_runtime_error(rc, capsys, token)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, table",
        [("cdf-overlay", "-1e308\n1e308\n"), ("trajectory", "1,-1e308\n2,1e308\n")],
    )
    def test_plot_of_a_range_that_overflows(self, tmp_path, capsys, kind, table):
        # the table is finite but its width is not: the plot used to exit 0
        # with nan coordinates in the SVG
        data = tmp_path / "wide.csv"
        data.write_text(table)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli("plot", "--in", str(data), "--kind", kind, "--out", "wide.svg",
                         "--out-dir", str(tmp_path / "out"))
        assert [str(w.message) for w in caught] == []
        self._assert_runtime_error(rc, capsys, "non-finite")
        assert not (tmp_path / "out").exists()

    def test_prohorov_of_atoms_at_the_ends_of_the_double_range(self, tmp_path, capsys):
        self._edge_law_inputs(tmp_path, None)
        rademacher = tmp_path / "rademacher.csv"
        rademacher.write_text(measure_to_csv(DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli("prohorov", "--mu", str(tmp_path / "edge.csv"), "--nu", str(rademacher),
                         "--out-dir", str(tmp_path / "out"))
        assert [str(w.message) for w in caught] == []
        assert rc == 0 and capsys.readouterr().err == ""
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["distance"] == 1.0

    def test_non_finite_summary_writes_no_file(self, tmp_path, capsys, monkeypatch):
        def nan_summary(args):
            return {"table.csv": "1\n"}, {"final": math.nan}

        text, add_arguments, _ = cli_module._SUBCOMMANDS["strong-law"]
        monkeypatch.setitem(cli_module._SUBCOMMANDS, "strong-law", (text, add_arguments, nan_summary))
        out = tmp_path / "out"
        out.mkdir()
        rc = run_cli("strong-law", "--model", "unused.json", "--p", "1.0", "--N", "10",
                     "--out-dir", str(out))
        self._assert_runtime_error(rc, capsys, "non-finite")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [("clt", "--N", "2", "--M", "10", "--seq"), ("plot", "--kind", "cdf-overlay", "--in")],
    )
    def test_input_path_is_a_directory(self, tmp_path, capsys, argv):
        rc = run_cli(*argv, str(tmp_path), "--out-dir", str(tmp_path / "out"))
        self._assert_config_error(rc, capsys, "cannot read input file", str(tmp_path))

    def test_input_file_not_utf8(self, tmp_path, capsys):
        mu = tmp_path / "mu.csv"
        mu.write_text("0.0,1.0\n")
        nu = tmp_path / "f.csv"
        nu.write_bytes(b"0.0,1.0\n\xff\n")
        rc = run_cli("prohorov", "--mu", str(mu), "--nu", str(nu), "--out-dir", str(tmp_path))
        self._assert_config_error(rc, capsys, "cannot read input file", str(nu))

    def test_out_dir_is_a_file(self, tmp_path, seq_file, capsys):
        rc = run_cli("clt", "--seq", str(seq_file), "--N", "2", "--M", "10",
                     "--out-dir", str(seq_file))
        self._assert_config_error(rc, capsys, "cannot write", str(seq_file))
        assert seq_file.read_text() == "1\n2\n4\n8\n16\n"


class TestAtomicWrite:
    GEN = ("gen-seq", "--kind", "hadamard", "--q", "2", "--N", "5")

    def test_stale_tmp_directory_does_not_break_write(self, tmp_path):
        (tmp_path / "summary.json.tmp").mkdir()
        assert run_cli(*self.GEN, "--out-dir", str(tmp_path)) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["n_terms"] == 5

    def test_no_temp_file_left_after_success(self, tmp_path):
        assert run_cli(*self.GEN, "--out-dir", str(tmp_path)) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "seq.csv", "summary.json",
        ]

    def test_temp_file_removed_on_failure(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(cli_module.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            cli_module._atomic_write(tmp_path / "table.csv", "1\n")
        assert list(tmp_path.iterdir()) == []
