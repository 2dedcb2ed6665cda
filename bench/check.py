"""Correctness checks on the data CSVs of one abperc CLI run.

At a workload's acceptance seed every data CSV must match the SHA-256 digest
recorded from a plain ``abperc`` run at the seed commit. At any seed the
seed-independent invariants of the output must hold. Each check returns a
list of problems; an empty list means the run is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_digests(prefix, expected: dict) -> list[str]:
    """``expected`` maps a file suffix (".csv") to its recorded digest."""
    return [f"{prefix}{suffix}: sha256 {sha256(prefix + suffix)[:12]} != recorded {digest[:12]}"
            for suffix, digest in expected.items() if sha256(prefix + suffix) != digest]


def check_bisection(prefix, tol: float, target: float, trials: int) -> list[str]:
    """Probe log of a bisection (percolate or mu-c) and its final bracket.

    Successes never decrease along sorted probe values, because the coupled
    crossing indicators are monotone per seed; the final bracket is at most
    ``tol`` wide and its ends sit below and at-or-above the target.
    """
    problems = []
    rows = read_rows(prefix + ".csv")
    p_at = {}
    for row in rows:
        value, succ, n = float(row["probe"]), int(row["successes"]), int(row["trials"])
        p_hat, lo, hi = float(row["p_hat"]), float(row["ci_low"]), float(row["ci_high"])
        if n != trials or not 0 <= succ <= n or p_hat != succ / n or not lo <= p_hat <= hi:
            problems.append(f"inconsistent probe row {row}")
        p_at[value] = p_hat
    ordered = sorted((float(r["probe"]), int(r["successes"])) for r in rows)
    for (v1, s1), (v2, s2) in zip(ordered, ordered[1:]):
        if s2 < s1:
            problems.append(f"successes fall from {s1} at {v1} to {s2} at {v2}")
    with open(prefix + ".summary.json") as fh:
        low, high = json.load(fh)["estimate"]["bracket"]
    if not 0 <= high - low <= tol:
        problems.append(f"bracket [{low}, {high}] wider than tol {tol}")
    # a bracket end that was never probed is mu = 0, where nothing crosses
    if not (p_at.get(low, 0.0) < target <= p_at.get(high, -1.0)):
        problems.append(f"bracket [{low}, {high}] does not straddle target {target}")
    return problems


def lln_statistic(n: float, rho: float) -> float:
    """n*pi*rho^2/log n, evaluated in the same order as the program."""
    return n * math.pi * rho * rho / math.log(n)


def check_lln(prefix, trials: int) -> list[str]:
    """Per-trial threshold rows and the per-cell medians of an lln sweep."""
    problems = []
    cells = {}
    for row in read_rows(prefix + ".csv"):
        n, rho, stat = float(row["n"]), float(row["rho"]), float(row["statistic"])
        if not (math.isfinite(rho) and rho > 0):
            problems.append(f"threshold {rho} is not finite and positive")
        elif stat != lln_statistic(n, rho):
            problems.append(f"statistic {stat!r} != n*pi*rho^2/log n for n={n}, rho={rho!r}")
        cells.setdefault((n, float(row["tau"])), []).append(stat)
    for row in read_rows(prefix + ".medians.csv"):
        stats = cells.pop((float(row["n"]), float(row["tau"])), [])
        q25, q50, q75 = (float(row[k]) for k in ("q25_statistic", "median_statistic",
                                                  "q75_statistic"))
        if int(row["trials"]) != trials or len(stats) != trials:
            problems.append(f"cell n={row['n']} tau={row['tau']} has {len(stats)} rows, "
                            f"expected {trials}")
        elif not min(stats) <= q25 <= q50 <= q75 <= max(stats):
            problems.append(f"cell n={row['n']} tau={row['tau']} quartiles out of order")
    if cells:
        problems.append(f"cells without a medians row: {sorted(cells)}")
    return problems
