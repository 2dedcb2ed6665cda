"""Acceptance gate: every criterion at its stated tolerance.

Heavy Monte Carlo runs go through the command-line harness so each criterion
leaves CSV artifacts; the final test replays every recorded configuration at
a different parallelism degree and byte-compares the data files.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line per
criterion.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import binomtest

from abperc import (
    BoundInputs,
    asymptotic_constant,
    delta_count,
    implication_holds,
    is_connected_g1,
    mu_bound_optimized,
    q_coupling,
    rho_threshold,
    sample_coupled_fields,
)
from abperc.cli import main as cli_main
from conftest import build_g1, graph_components, random_pattern, rho_oracle

SEED = 20260811
LAMBDA_BAND = (0.287, 0.431)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def registry():
    """Recorded harness runs: (argv, out prefix, jobs, csv suffixes)."""
    return []


def run_harness(registry, outdir, tag, argv, jobs, csv_suffixes=(".csv",)):
    prefix = str(outdir / tag)
    code = cli_main(argv + ["--jobs", str(jobs), "--out", prefix])
    assert code == 0, f"harness run {tag} failed"
    registry.append((list(argv), prefix, jobs, tuple(csv_suffixes)))
    with open(prefix + ".summary.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def lambda_run(registry, outdir):
    argv = ["percolate", "--r", "1", "--L", "30", "--d", "2", "--trials", "400",
            "--tol", "0.02", "--seed", str(SEED)]
    return run_harness(registry, outdir, "lambda_c_r1", argv, jobs=1)["estimate"]


@pytest.fixture(scope="session")
def lambda_run_r2(registry, outdir):
    argv = ["percolate", "--r", "2", "--L", "60", "--d", "2", "--trials", "400",
            "--tol", "0.005", "--seed", str(SEED + 1)]
    return run_harness(registry, outdir, "lambda_c_r2", argv, jobs=1)["estimate"]


@pytest.fixture(scope="session")
def mu_run_super(registry, outdir, lambda_run):
    lam = 2.0 * lambda_run["estimate"]
    argv = ["mu-c", "--lambda", repr(lam), "--r", "1", "--L", "30", "--trials",
            "200", "--tol", "0.5", "--seed", str(SEED + 2)]
    return run_harness(registry, outdir, "mu_c_super", argv, jobs=1)["estimate"]


@pytest.fixture(scope="session")
def mu_run_sub(registry, outdir, lambda_run):
    lam = 0.5 * lambda_run["estimate"]
    argv = ["mu-c", "--lambda", repr(lam), "--r", "1", "--L", "30", "--trials",
            "200", "--tol", "0.5", "--seed", str(SEED + 2)]
    return run_harness(registry, outdir, "mu_c_sub", argv, jobs=1)["estimate"]


@pytest.fixture(scope="session")
def lln_tau4(registry, outdir):
    argv = ["lln", "--n", "1e3,1e4,1e5", "--tau", "4", "--trials", "30",
            "--seed", str(SEED + 3)]
    return run_harness(registry, outdir, "lln_tau4", argv, jobs=2,
                       csv_suffixes=(".csv", ".medians.csv"))["cells"]


@pytest.fixture(scope="session")
def lln_tau_compare(registry, outdir):
    argv = ["lln", "--n", "1e4", "--tau", "1,16", "--trials", "30",
            "--seed", str(SEED + 4)]
    return run_harness(registry, outdir, "lln_tau_1_16", argv, jobs=2,
                       csv_suffixes=(".csv", ".medians.csv"))["cells"]


@pytest.fixture(scope="session")
def mindeg_run(registry, outdir):
    argv = ["mindeg", "--n", "1e5", "--tau", "1", "--alpha", "0.5,3.0",
            "--trials", "30", "--seed", str(SEED + 5)]
    return run_harness(registry, outdir, "mindeg", argv, jobs=2)["fraction_zero"]


@pytest.fixture(scope="session")
def couple_run(registry, outdir):
    argv = ["couple-test", "--window", "128,128", "--epsilon", "1", "--t", "1",
            "--p-lambda", "0.6", "--p-nu", "0.3", "--fields", "8",
            "--seed", str(SEED + 6)]
    return run_harness(registry, outdir, "couple", argv, jobs=1)


def test_01_rho_threshold_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        X = random_pattern(rng, int(rng.integers(2, 41)))
        Y = random_pattern(rng, int(rng.integers(0, 41)))
        if rho_threshold(X, Y) != rho_oracle(X, Y):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    report(1, "threshold equals candidate-scan oracle", ok,
           f"{mismatches} mismatches on 100 instances, {elapsed:.2f}s")
    assert ok


def test_02_shared_neighbor_connectivity_equivalence():
    rng = np.random.default_rng(SEED + 10)
    started = time.perf_counter()
    disagreements = 0
    for _ in range(200):
        nx, ny = int(rng.integers(0, 31)), int(rng.integers(0, 31))
        X, Y = random_pattern(rng, nx), random_pattern(rng, ny)
        r = float(rng.uniform(0.05, 0.7))
        fast = is_connected_g1(X, Y, r)
        if nx <= 1:
            explicit = True
        else:
            _, count = graph_components(build_g1(X, Y, r))
            explicit = count == 1
        disagreements += fast != explicit
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and elapsed < 10.0
    report(2, "component criterion equals explicit graph", ok,
           f"{disagreements} disagreements on 200 instances, {elapsed:.2f}s")
    assert ok


def test_03_one_type_critical_intensity(lambda_run):
    est = lambda_run["estimate"]
    ok = LAMBDA_BAND[0] <= est <= LAMBDA_BAND[1]
    report(3, "one-type critical intensity", ok,
           f"lambda_hat={est:.5f}, band {LAMBDA_BAND}")
    assert ok


def test_04_scaling_law(lambda_run, lambda_run_r2):
    lo1, hi1 = (b / 4.0 for b in lambda_run["bracket"])
    lo2, hi2 = lambda_run_r2["bracket"]
    ok = max(lo1, lo2) <= min(hi1, hi2)
    report(4, "quarter scaling of the critical intensity", ok,
           f"r=1 bracket/4 = [{lo1:.5f}, {hi1:.5f}], r=2 bracket = [{lo2:.5f}, {hi2:.5f}]")
    assert ok


def test_05_mu_c_finite_above_and_absent_below(mu_run_super, mu_run_sub):
    finite = (not mu_run_super["no_percolation"]) and math.isfinite(mu_run_super["estimate"])
    absent = mu_run_sub["no_percolation"]
    ok = finite and absent
    report(5, "B criticality finite above / absent below", ok,
           f"mu_hat={mu_run_super['estimate']:.3g} at 2*lambda_hat, "
           f"no_percolation={absent} at lambda_hat/2")
    assert ok


def test_06_bound_dominates_simulation(registry, outdir, lambda_run, mu_run_super):
    lam_hat = lambda_run["estimate"]
    argv = ["bound", "--d", "2", "--r", "1", "--lambda", repr(2.0 * lam_hat),
            "--lambda-c", repr(lam_hat), "--seed", str(SEED)]
    summary = run_harness(registry, outdir, "bound_2lc", argv, jobs=1)
    ok = summary["mu_hat"] > mu_run_super["estimate"]
    report(6, "analytic bound dominates finite-size estimate", ok,
           f"bound={summary['mu_hat']:.4g} > mu_hat={mu_run_super['estimate']:.3g}")
    assert ok


def test_07_small_excess_divergence_rate():
    lc = 0.35911
    constant = asymptotic_constant(1.0, lc, 2)
    started = time.perf_counter()
    rates = []
    for delta in (1e-2, 1e-3, 1e-4):
        rep = mu_bound_optimized(BoundInputs(d=2, r=1.0, lam=lc + delta, lambda_c=lc))
        rates.append(rep.mu_hat * delta**4 / abs(math.log(delta)))
    elapsed = time.perf_counter() - started
    ok = (all(a >= b for a, b in zip(rates, rates[1:]))
          and rates[-1] <= 1.5 * constant and elapsed < 1.0)
    report(7, "divergence rate of the optimized bound", ok,
           f"rates={[f'{r:.1f}' for r in rates]}, cap={1.5 * constant:.1f}, "
           f"{elapsed:.2f}s")
    assert ok


def test_08_threshold_statistic_trend(lln_tau4, lln_tau_compare):
    by_n = {cell["n"]: cell["median_statistic"] for cell in lln_tau4}
    medians = [by_n[n] for n in (1e3, 1e4, 1e5)]
    trend_ok = all(a >= b for a, b in zip(medians, medians[1:]))
    floor_ok = all(m >= 0.25 for m in medians)
    top_ok = by_n[1e5] <= 0.6
    by_tau = {cell["tau"]: cell["median_statistic"] for cell in lln_tau_compare}
    tau_ok = by_tau[1.0] > by_tau[16.0]
    ok = trend_ok and floor_ok and top_ok and tau_ok
    report(8, "threshold statistic trend", ok,
           f"tau=4 medians={[f'{m:.3f}' for m in medians]}, "
           f"tau=1 vs 16 at 1e4: {by_tau[1.0]:.3f} > {by_tau[16.0]:.3f}")
    assert ok


def test_09_minimum_degree_fractions(mindeg_run):
    sparse = mindeg_run["0.5"]
    dense = mindeg_run["3.0"]
    ok = sparse >= 0.9 and dense <= 0.1
    report(9, "minimum-degree-zero fractions", ok,
           f"alpha=0.5: {sparse:.2f} >= 0.9, alpha=3.0: {dense:.2f} <= 0.1")
    assert ok


def test_10_coupled_field_laws(couple_run):
    pooled = couple_run["pooled_counts"]
    pvals = couple_run["binomial_pvalues"]
    marginals_ok = all(p >= 1e-3 for p in pvals.values())
    implication_csv_ok = couple_run["implication_holds"]

    # independent re-draws at a second parameter point, checked directly
    p_lambda, p_nu, t = 0.05, 0.03, 2.5
    Delta = delta_count(t, 1.0, 2)
    q = q_coupling(p_nu, p_lambda, Delta)
    counts = {"T": [0, 0], "V": [0, 0], "W": [0, 0]}
    implication_ok = True
    for k in range(10):
        fld = sample_coupled_fields((128, 128), 1.0, t, p_lambda, p_nu,
                                    SEED + 7, path=(k,))
        implication_ok &= implication_holds(fld)
        counts["T"][0] += int(fld.T.sum())
        counts["T"][1] += fld.T.size
        counts["V"][0] += int(fld.V.sum())
        counts["V"][1] += fld.V.size
        counts["W"][0] += int(fld.W[fld.interior].sum())
        counts["W"][1] += int(fld.interior.sum())
    second_ok = (binomtest(*counts["T"], p_lambda).pvalue >= 1e-3
                 and binomtest(*counts["V"], p_nu).pvalue >= 1e-3
                 and binomtest(*counts["W"], q).pvalue >= 1e-3)
    ok = marginals_ok and implication_csv_ok and implication_ok and second_ok
    report(10, "coupled field marginals and implication", ok,
           f"pvalues={ {k: f'{v:.3f}' for k, v in pvals.items()} }, "
           f"interior sites={pooled['W'][1]}, second set ok={second_ok}")
    assert ok


def test_11_reproducibility_across_parallelism(registry, outdir):
    assert registry, "no harness runs were recorded"
    failures = []
    for k, (argv, prefix, jobs, suffixes) in enumerate(list(registry)):
        other_jobs = 2 if jobs == 1 else 1
        replay_prefix = f"{prefix}_replay"
        code = cli_main(argv + ["--jobs", str(other_jobs), "--out", replay_prefix])
        if code != 0:
            failures.append(f"{prefix}: replay exit {code}")
            continue
        for suffix in suffixes:
            original = open(prefix + suffix, "rb").read()
            replayed = open(replay_prefix + suffix, "rb").read()
            if original != replayed:
                failures.append(f"{prefix}{suffix}: bytes differ")
    ok = not failures
    report(11, "byte-identical replays under different parallelism", ok,
           f"{len(registry)} configs replayed" + (f"; {failures}" if failures else ""))
    assert ok
