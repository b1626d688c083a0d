"""The benchmark tracer still finds, wraps and restores what it patches.

``bench/spans.py`` wraps the layers' public functions and the measure
methods it names in ``METHODS`` (looked up with ``vars(cls)``), so a
refactor that renames or merges one of them would break ``--trace 1``.
Small ``clt``, ``framework-check`` and ``prohorov`` runs under the tracer
must record the measure spans, and uninstalling it must put back every
module and class attribute it replaced.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from permutalab import cli
from permutalab.measures import DiscreteMeasure, MixedNormal

ROOT = Path(__file__).resolve().parent.parent


def _attributes() -> dict:
    """Every attribute of the package's modules and of the two law classes."""
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "permutalab" or name.startswith("permutalab."))]
    owners += [DiscreteMeasure, MixedNormal]
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans as module

    return module


def test_tracer_records_measure_spans_and_restores_attributes(spans, tmp_path):
    (tmp_path / "seq.csv").write_text("".join(f"{2**k}\n" for k in range(16)))
    (tmp_path / "mu.csv").write_text("-1.0,0.5\n1.0,0.5\n")
    (tmp_path / "nu.csv").write_text("-0.5,0.25\n0.0,0.25\n2.0,0.5\n")
    before = _attributes()
    tracer = spans.Tracer()
    try:
        tracer.install()
        rcs = [
            cli.main(["clt", "--seq", str(tmp_path / "seq.csv"), "--N", "8", "--M", "200",
                      "--out-dir", str(tmp_path / "clt")]),
            cli.main(["framework-check", "--theorem", "clt", "--mu", str(tmp_path / "mu.csv"),
                      "--k-list", "1,4", "--M", "200", "--out-dir", str(tmp_path / "fw")]),
            cli.main(["prohorov", "--mu", str(tmp_path / "mu.csv"),
                      "--nu", str(tmp_path / "nu.csv"), "--out-dir", str(tmp_path / "pr")]),
        ]
    finally:
        tracer.uninstall()
    assert rcs == [0, 0, 0]
    names = {name for _, name, _, _, _ in tracer.spans}
    assert {"measures.mixed_normal_cdf", "measures.discrete_cdf", "measures.quantile_many",
            "metrics.ks_distance", "metrics.prohorov_distance", "cli"} <= names
    after = _attributes()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
