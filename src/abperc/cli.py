"""Command-line harness: seeded experiment runs with CSV/JSON emission.

Every subcommand writes ``<out>.csv`` (pure data, no timestamp, so reruns are
byte-identical) and ``<out>.summary.json`` (settings echo, results, and a
wall-clock stamp under the key excluded from reproducibility comparisons).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass

from . import bounds, connectivity, latticecoupling, percolation
from .errors import EstimationError, ResourceLimitError
from .pointprocess import Region, sample_poisson
from .reporting import write_csv, write_summary


@dataclass
class ExperimentConfig:
    """A fully reproducible run: subcommand, its parameters, seed, output."""

    subcommand: str
    params: dict
    seed: int
    out: str
    jobs: int


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abperc",
        description="Simulation and analytic bounds for continuum AB percolation")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", default="abperc-out", help="output path prefix")
        p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
        p.add_argument("--config", default=None,
                       help="key=value file supplying defaults; flags override")

    p = sub.add_parser("sample", help="sample one Poisson pattern to CSV")
    p.add_argument("--kind", choices=["box", "torus"], default="box")
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--intensity", type=float, required=True)
    common(p)

    p = sub.add_parser("percolate", help="one-type crossing probabilities / critical intensity")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--L", type=float, default=30.0)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--tol", type=float, default=0.02)
    p.add_argument("--target", type=float, default=0.5)
    p.add_argument("--bracket", default=None, help="lo,hi initial bisection bracket")
    p.add_argument("--intensities", default=None,
                   help="probe-only mode: comma-separated intensities, no bisection")
    common(p)

    p = sub.add_parser("mu-c", help="critical B intensity at fixed A intensity")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--L", type=float, default=30.0)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--tol", type=float, default=1.0)
    p.add_argument("--target", type=float, default=0.5)
    p.add_argument("--mu-max", type=float, default=percolation.DEFAULT_MU_MAX)
    common(p)

    p = sub.add_parser("bound", help="closed-form bound report over the alpha grid")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--lambda-c", dest="lambda_c", type=float, required=True)
    p.add_argument("--grid-size", type=int, default=bounds.DEFAULT_GRID_SIZE)
    common(p)

    p = sub.add_parser("lln", help="connectivity-threshold statistic sweep")
    p.add_argument("--n", default="1000,10000", help="comma-separated intensities")
    p.add_argument("--tau", default="4", help="comma-separated B/A intensity ratios")
    p.add_argument("--trials", type=int, default=30)
    common(p)

    p = sub.add_parser("mindeg", help="minimum-degree-zero diagnostic")
    p.add_argument("--n", type=float, default=1e5)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--alpha", default="0.5", help="comma-separated radius exponents")
    p.add_argument("--trials", type=int, default=30)
    common(p)

    p = sub.add_parser("couple-test", help="sample coupled bit fields and dump sites")
    p.add_argument("--window", default="128,128")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--p-lambda", dest="p_lambda", type=float, required=True)
    p.add_argument("--p-nu", dest="p_nu", type=float, required=True)
    p.add_argument("--fields", type=int, default=1)
    common(p)

    return parser


def _load_config_file(path: str) -> list[str]:
    """Turn key = value lines into argv tokens (placed before explicit flags)."""
    tokens = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            tokens.extend([f"--{key.replace('_', '-')}", value])
    return tokens


def _expand_config(argv: list[str]) -> list[str]:
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2:]
    sub = next((i for i, tok in enumerate(rest) if tok in _HANDLERS), None)
    if sub is None:
        return argv
    # defaults from the file go right after the subcommand so that explicit
    # flags, parsed later, win; --config itself is a subcommand option
    return rest[:sub + 1] + _load_config_file(path) + ["--config", path] + rest[sub + 1:]


def _probe_rows(probes):
    header = ["probe", "trials", "successes", "p_hat", "ci_low", "ci_high"]
    rows = [[p.value, p.trials, p.successes, p.p_hat, p.ci_low, p.ci_high]
            for p in probes]
    return header, rows


def run(config: ExperimentConfig) -> int:
    """Dispatch one experiment; writes the CSV/JSON outputs."""
    handler = _HANDLERS.get(config.subcommand)
    if handler is None:
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    if config.jobs < 1:
        raise ValueError("jobs must be at least 1")
    handler(config)
    return 0


def _run_sample(config: ExperimentConfig):
    p = config.params
    region = Region(p["kind"], p["L"], p["d"])
    pattern = sample_poisson(region, p["intensity"], config.seed)
    pattern.to_csv(f"{config.out}.csv")
    write_summary(f"{config.out}.summary.json",
                  {"config": asdict(config), "count": len(pattern)})


def _run_percolate(config: ExperimentConfig):
    p = config.params
    if p.get("intensities"):
        values = _parse_floats(p["intensities"])
        probes = percolation.crossing_probability(
            "one-type", values, p["r"], p["L"], p["trials"], config.seed,
            d=p["d"], jobs=config.jobs)
        write_csv(f"{config.out}.csv", *_probe_rows(probes))
        write_summary(f"{config.out}.summary.json",
                      {"config": asdict(config), "mode": "probe-only"})
        return
    bracket = tuple(_parse_floats(p["bracket"])) if p.get("bracket") else None
    est = percolation.estimate_lambda_c(
        p["r"], p["L"], p["trials"], p["tol"], config.seed, d=p["d"],
        bracket=bracket, target=p["target"], jobs=config.jobs)
    write_csv(f"{config.out}.csv", *_probe_rows(est.probes))
    write_summary(f"{config.out}.summary.json",
                  {"config": asdict(config), "estimate": _estimate_payload(est)})


def _run_mu_c(config: ExperimentConfig):
    p = config.params
    est = percolation.estimate_mu_c(
        p["r"], p["lam"], p["L"], p["trials"], p["tol"], config.seed, d=p["d"],
        mu_max=p["mu_max"], target=p["target"], jobs=config.jobs)
    write_csv(f"{config.out}.csv", *_probe_rows(est.probes))
    write_summary(f"{config.out}.summary.json",
                  {"config": asdict(config), "estimate": _estimate_payload(est)})


def _estimate_payload(est: percolation.CriticalEstimate) -> dict:
    payload = asdict(est)
    payload.pop("probes")
    return payload


def _run_bound(config: ExperimentConfig):
    p = config.params
    inputs = bounds.BoundInputs(
        d=p["d"], r=p["r"], lam=p["lam"], lambda_c=p["lambda_c"],
        alphas=bounds.default_alpha_grid(p["grid_size"]))
    report = bounds.mu_bound_optimized(inputs)
    write_csv(f"{config.out}.csv", *report.to_csv_rows())
    write_summary(f"{config.out}.summary.json", {
        "config": asdict(config),
        "mu_hat": report.mu_hat,
        "mu_hat_exact_delta": report.mu_hat_exact,
        "alpha_opt": report.alpha_opt,
        "asymptotic_constant": report.constant,
    })


def _run_lln(config: ExperimentConfig):
    p = config.params
    n_values = _parse_floats(p["n"])
    tau_values = _parse_floats(p["tau"])
    samples, summary = connectivity.lln_sweep(
        n_values, tau_values, p["trials"], config.seed, jobs=config.jobs)
    rows = [[s.n, s.tau, s.trial, s.rho, s.statistic] for s in samples]
    write_csv(f"{config.out}.csv", ["n", "tau", "trial", "rho", "statistic"], rows)
    med_header = ["n", "tau", "trials", "median_statistic", "q25_statistic",
                  "q75_statistic", "median_rho"]
    write_csv(f"{config.out}.medians.csv", med_header,
              [[row[k] for k in med_header] for row in summary])
    write_summary(f"{config.out}.summary.json",
                  {"config": asdict(config), "cells": summary})


def _run_mindeg(config: ExperimentConfig):
    p = config.params
    alphas = _parse_floats(p["alpha"])
    rows, fractions = [], {}
    for ai, alpha in enumerate(alphas):
        fraction, indicators = connectivity.min_degree_diagnostic(
            p["n"], p["tau"], alpha, p["trials"], config.seed,
            jobs=config.jobs, alpha_index=ai)
        fractions[str(alpha)] = fraction
        rows.extend([alpha, trial, int(flag)] for trial, flag in enumerate(indicators))
    write_csv(f"{config.out}.csv", ["alpha", "trial", "min_degree_zero"], rows)
    write_summary(f"{config.out}.summary.json",
                  {"config": asdict(config), "fraction_zero": fractions})


def _run_couple_test(config: ExperimentConfig):
    from scipy.stats import binomtest

    p = config.params
    window = tuple(_parse_ints(p["window"]))
    rows = []
    header = None
    pooled = {"T": [0, 0], "V": [0, 0], "W": [0, 0]}
    implication_ok = True
    for k in range(p["fields"]):
        fld = latticecoupling.sample_coupled_fields(
            window, p["epsilon"], p["t"], p["p_lambda"], p["p_nu"],
            config.seed, path=(k,))
        header, field_rows = latticecoupling.field_csv_rows(fld, k)
        rows.extend(field_rows)
        implication_ok &= latticecoupling.implication_holds(fld)
        for key, bits in (("T", fld.T), ("V", fld.V), ("W", fld.W[fld.interior])):
            pooled[key][0] += int(bits.sum())
            pooled[key][1] += bits.size
    Delta = bounds.delta_count(p["t"], p["epsilon"], 2)
    expected = {"T": p["p_lambda"], "V": p["p_nu"],
                "W": bounds.q_coupling(p["p_nu"], p["p_lambda"], Delta)}
    pvalues = {key: binomtest(pooled[key][0], pooled[key][1], expected[key]).pvalue
               for key in pooled}
    write_csv(f"{config.out}.csv", header, rows)
    write_summary(f"{config.out}.summary.json", {
        "config": asdict(config),
        "delta_sites": Delta,
        "expected_marginals": expected,
        "pooled_counts": pooled,
        "binomial_pvalues": pvalues,
        "implication_holds": implication_ok,
    })


_HANDLERS = {
    "sample": _run_sample,
    "percolate": _run_percolate,
    "mu-c": _run_mu_c,
    "bound": _run_bound,
    "lln": _run_lln,
    "mindeg": _run_mindeg,
    "couple-test": _run_couple_test,
}

_GLOBAL_KEYS = {"seed", "out", "jobs", "config", "subcommand"}


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    params = {k: v for k, v in vars(args).items() if k not in _GLOBAL_KEYS}
    return ExperimentConfig(subcommand=args.subcommand, params=params,
                            seed=args.seed, out=args.out, jobs=args.jobs)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if argv:
        try:
            argv = _expand_config(argv)
        except (OSError, ValueError) as exc:
            print(f"abperc: config error: {exc}", file=sys.stderr)
            return 2
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        return run(config)
    except (ValueError, EstimationError, ResourceLimitError) as exc:
        print(f"abperc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
