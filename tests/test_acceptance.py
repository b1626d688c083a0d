"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  All Monte Carlo is
seeded; tolerances are fixed here and nowhere else.  The asymptotic
claims behind criteria 3-11 are checked at desk scale: exact oracles
where exact values exist, fixed seeded tolerance bands elsewhere.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import permutalab as pl
from permutalab.cli import main as cli_main

from conftest import perturbed_measure, random_discrete_measure
from stream import Stream
from test_metrics import max_marginal_error, violation
from thinning import mixture_approximation_check, plan_thinning, statistic_stability_check, tail_bound

RADEMACHER = pl.DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
WIDE = pl.DiscreteMeasure(((-2.0, 0.5), (2.0, 0.5)))


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def pair_batch():
    """200 random measure pairs (<= 6 atoms, positions in [0,1]) with distances."""
    stream = Stream(11)
    batch = []
    t0 = time.monotonic()
    for _ in range(200):
        mu = random_discrete_measure(stream, max_atoms=6)
        nu = random_discrete_measure(stream, max_atoms=6)
        batch.append((mu, nu, pl.prohorov_distance(mu, nu), pl.prohorov_oracle(mu, nu)))
    return batch, time.monotonic() - t0


@pytest.fixture(scope="session")
def doubling_512():
    return pl.gen_hadamard(2, 1, 512)


@pytest.fixture(scope="session")
def clt_sample_256(doubling_512):
    """Criterion 3 sample, reused by criteria 4 and 12."""
    t0 = time.monotonic()
    sample = pl.clt_sample(doubling_512, 256, 100_000, seed=1003, threads=1)
    return sample, time.monotonic() - t0


def test_01_prohorov_oracle_equivalence(pair_batch):
    batch, elapsed = pair_batch
    worst = max(abs(d - o) for _, _, d, o in batch)
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(1, ok, f"oracle equivalence on 200 pairs: max|diff|={worst:.2e} <= 1e-9, "
                    f"runtime {elapsed:.2f}s < 10s")


def test_02_strassen_consistency(pair_batch):
    batch, _ = pair_batch
    worst_marginal = 0.0
    worst_violation = -1.0
    for mu, nu, d, _ in batch:
        eps = d + 1e-9
        c = pl.strassen_coupling(mu, nu, eps)
        assert c is not None, "coupling infeasible at distance + 1e-9"
        worst_marginal = max(worst_marginal, max_marginal_error(c, mu, nu))
        worst_violation = max(worst_violation, violation(c, mu, nu, eps) - eps)
    ok = worst_marginal <= 1e-12 and worst_violation <= 1e-12
    _verdict(2, ok, f"couplings feasible at d+1e-9: max marginal err={worst_marginal:.2e} "
                    f"<= 1e-12, max violation excess={worst_violation:.2e}")


def test_03_hadamard_clt(clt_sample_256):
    sample, elapsed = clt_sample_256
    ks = pl.ks_distance(pl.empirical_measure(sample), pl.MixedNormal.standard())
    var = float(sample.var())
    ok = ks <= 0.03 and abs(var - 1.0) <= 0.05 and elapsed < 60.0
    _verdict(3, ok, f"doubling-sequence CLT N=256 M=1e5: ks={ks:.4f} <= 0.03, "
                    f"var={var:.4f} within 1+-0.05, runtime {elapsed:.1f}s < 60s")


def test_04_permutation_invariance(doubling_512, clt_sample_256):
    base, _ = clt_sample_256
    perm = pl.block_interleave_permutation(512, 32)
    sample = pl.clt_sample(doubling_512, 256, 100_000, perm=perm, seed=1004)
    emp = pl.empirical_measure(sample)
    ks = pl.ks_distance(emp, pl.MixedNormal.standard())
    two = pl.ks_distance(emp, pl.empirical_measure(base))
    ok = ks <= 0.03 and two <= 0.02
    _verdict(4, ok, f"block-interleaved first 512: ks={ks:.4f} <= 0.03, "
                    f"two-sample ks={two:.4f} <= 0.02")


def test_05_diophantine_exact_counts():
    seq1 = pl.gen_hadamard(2, 1, 1000)
    ok = all(
        pl.count_diophantine(seq1, 1, -2, 0, n) == n - 1 for n in (10, 100, 1000)
    )
    seq2 = pl.gen_hadamard(2, 2, 1000)
    zero = pl.count_diophantine(seq2, 1, 1, 3, 1000)
    ok = ok and zero == 0
    _verdict(5, ok, "doubling counts: (1,-2,0) -> N-1 at N in {10,100,1000}; "
                    f"(1,1,3) from n1=2 -> {zero} == 0")


def test_06_framework_clt():
    T = pl.RegularLimitTheorem("clt")
    s1 = pl.simulate_fk(T, 1, RADEMACHER, 100_000, seed=1006)
    ks1 = pl.ks_distance(pl.empirical_measure(s1), T.limit(RADEMACHER))
    want = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0))) - 0.5
    s400 = pl.simulate_fk(T, 400, RADEMACHER, 100_000, seed=1007)
    ks400 = pl.ks_distance(pl.empirical_measure(s400), T.limit(RADEMACHER))
    ok = abs(ks1 - want) <= 0.01 and ks400 <= 0.05
    _verdict(6, ok, f"windowed CLT: ks(k=1)={ks1:.5f} within 0.34134+-0.01, "
                    f"ks(k=400)={ks400:.4f} <= 0.05")


def test_07_stability_property_suites():
    # (A): 100 random atomic pairs through the statistic map
    T = pl.RegularLimitTheorem("clt")
    stream = Stream(2027)
    viol_a = 0
    for _ in range(100):
        mu = random_discrete_measure(stream, max_atoms=4)
        nu = random_discrete_measure(stream, max_atoms=4)
        k = (1, 2, 4, 8, 16)[stream.below(5)]
        _, _, holds = statistic_stability_check(T, k, mu, nu, 4000, seed=stream.u64())
        viol_a += 0 if holds else 1

    # (B): 500 mixture instances (<= 4 atoms, <= 5 pairs)
    stream = Stream(5150)
    viol_b = 0
    for _ in range(500):
        eps = 0.05 + 0.3 * stream.uniform()
        n_pairs = 1 + stream.below(5)
        weights = np.array([stream.uniform() + 0.05 for _ in range(n_pairs)])
        weights /= weights.sum()
        pairs = []
        wild_budget = eps
        for w in weights:
            mu = random_discrete_measure(stream, max_atoms=4)
            if w <= wild_budget and stream.uniform() < 0.3:
                nu = random_discrete_measure(stream, max_atoms=4, lo=3.0, hi=4.0)
                wild_budget -= w
            else:
                nu = perturbed_measure(stream, mu, eps / 2)
            pairs.append((float(w), mu, nu))
        _, holds = pl.mixture_bound_check(pairs, eps)
        viol_b += 0 if holds else 1

    # (C): 500 coupled random-measure instances
    stream = Stream(606)
    viol_c = 0
    for _ in range(500):
        eps = 0.05 + 0.3 * stream.uniform()
        n_comp = 1 + stream.below(4)
        weights = np.array([stream.uniform() + 0.05 for _ in range(n_comp)])
        weights /= weights.sum()
        triples = []  # (P(A_i), law_i, law'_i) of two coupled random measures
        wild_budget = eps
        for w in weights:
            base = random_discrete_measure(stream, max_atoms=4)
            if w <= wild_budget and stream.uniform() < 0.3:
                other = random_discrete_measure(stream, max_atoms=4, lo=3.0, hi=4.0)
                wild_budget -= w
            else:
                other = perturbed_measure(stream, base, eps / 2)
            triples.append((float(w), base, other))
        _, holds = pl.mixture_bound_check(triples, eps)
        viol_c += 0 if holds else 1

    ok = viol_a == 0 and viol_b == 0 and viol_c == 0
    _verdict(7, ok, f"stability bounds: statistic-map 0/{100} violations ({viol_a}), "
                    f"mixture 0/500 ({viol_b}), random-measure 0/500 ({viol_c})")


def test_08_exchangeable_permutation_check():
    model = pl.ExchangeableModel(((0.5, RADEMACHER), (0.5, WIDE)))
    T = pl.RegularLimitTheorem("trimmed-clt")
    perms = [
        pl.permutation("identity", 400),
        pl.permutation("reverse", 400),
        pl.random_permutation(400, 3),
    ]
    rep = pl.permutation_invariance_check(model, T, 400, perms, 100_000, seed=1008)
    ok = max(rep.ks_to_limit) <= 0.05 and rep.max_pairwise_ks <= 0.015
    detail = (f"two-atom mixture k=400: ks_to_limit={[f'{v:.4f}' for v in rep.ks_to_limit]} "
              f"<= 0.05, pairwise={rep.max_pairwise_ks:.4f} <= 0.015")
    _verdict(8, ok, detail)


def test_09_mixture_approximation_bound():
    T = pl.RegularLimitTheorem("trimmed-clt")
    stream = Stream(909)
    violations = 0
    for _ in range(50):
        n_atoms = 1 + stream.below(3)
        ws = np.array([stream.uniform() + 0.1 for _ in range(n_atoms)])
        ws /= ws.sum()
        atoms = tuple(
            (float(w), random_discrete_measure(stream, max_atoms=3, lo=-0.6, hi=0.6))
            for w in ws
        )
        model = pl.ExchangeableModel(atoms, grid=0.0)
        k = 16 + stream.below(17)
        plan = plan_thinning(T, tail_bound(model), k)
        _, _, holds = mixture_approximation_check(model, T, k, plan, 2500, seed=stream.u64())
        violations += 0 if holds else 1
    _verdict(9, violations == 0,
             f"mixture-approximation bound: {violations}/50 violations on random models")


def test_10_lil_band():
    seq = pl.gen_hadamard(2, 1, 4096)
    med = float(np.median(pl.lil_trajectory(seq, 200, 4096, seed=77).max_values))
    ok = 0.5 <= med <= 1.8
    _verdict(10, ok, f"iterated-logarithm band (band check, not the constant): "
                     f"median max L_N = {med:.3f} in [0.5, 1.8]")


def test_11_strong_laws():
    model = pl.ExchangeableModel(((1.0, RADEMACHER),))
    mean_final = pl.strong_law_trajectory(model, 1.0, 100_000, seed=2)[-1]
    stat_final = pl.strong_law_trajectory(model, 1.5, 100_000, seed=2)[-1]
    ok = abs(mean_final) <= 0.02 and abs(stat_final) <= 0.05
    _verdict(11, ok, f"strong laws at N=1e5: |mean|={abs(mean_final):.5f} <= 0.02, "
                     f"|p=1.5 statistic|={abs(stat_final):.5f} <= 0.05")


def test_12_determinism(doubling_512, clt_sample_256, tmp_path):
    # kernel level: the criterion-3 run repeated with 8 workers is bit-identical
    base, _ = clt_sample_256
    redo = pl.clt_sample(doubling_512, 256, 100_000, seed=1003, threads=8)
    kernel_ok = redo.tobytes() == base.tobytes()

    # CLI level: a pipeline rerun twice and under both thread counts gives
    # byte-identical CSV outputs
    def run_pipeline(sub: str, threads: str) -> dict[str, bytes]:
        out = tmp_path / sub
        assert cli_main(["gen-seq", "--kind", "hadamard", "--q", "2", "--n1", "1",
                         "--N", "64", "--out", "seq.csv", "--out-dir", str(out)]) == 0
        assert cli_main(["dio-count", "--seq", str(out / "seq.csv"), "--a", "1",
                         "--b", "-2", "--c", "0", "--N-list", "10,64",
                         "--out", "counts.csv", "--out-dir", str(out)]) == 0
        assert cli_main(["clt", "--seq", str(out / "seq.csv"), "--N", "64",
                         "--M", "4000", "--seed", "5", "--threads", threads,
                         "--out", "dist.csv", "--out-dir", str(out)]) == 0
        assert cli_main(["lil", "--seq", str(out / "seq.csv"), "--Nmax", "64",
                         "--xs", "5", "--seed", "5", "--out", "lil.csv",
                         "--out-dir", str(out)]) == 0
        return {
            name: (out / name).read_bytes()
            for name in ("seq.csv", "counts.csv", "dist.csv", "lil.csv", "lil_max.csv")
        }

    run_a = run_pipeline("a", "1")
    run_b = run_pipeline("b", "1")
    run_c = run_pipeline("c", "8")
    cli_ok = run_a == run_b == run_c
    _verdict(12, kernel_ok and cli_ok,
             f"determinism: M=1e5 kernel rerun with 8 threads bit-identical "
             f"({kernel_ok}); CLI pipeline bytes identical across reruns and "
             f"thread counts ({cli_ok})")
