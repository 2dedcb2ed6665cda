"""Connectivity threshold of the shared-neighbor graph and its scaling law.

``rho_threshold`` returns the exact minimum radius making the shared-neighbor
graph on the A points connected; the normalized statistic n*pi*rho^2/log n is
the quantity whose large-n limit is max(1/tau, 1/4) in two dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geomgraph import bipartite_edges, radius_for_sqdist
from .parallel import parallel_starmap
from .pointprocess import CoupledSampler, PointPattern, Region

_CHUNK = 1 << 18


@dataclass(frozen=True)
class ThresholdSample:
    """One measured connectivity threshold with its normalized statistic."""

    n: float
    tau: float
    trial: int
    rho: float
    statistic: float
    seed: int


def rho_threshold(X: PointPattern, Y: PointPattern, initial_cap: float | None = None) -> float:
    """Exact minimum r such that the shared-neighbor graph on X is connected.

    Kruskal-style sweep: A-B pairs are inserted in order of increasing
    distance into a union-find over X and Y until every X vertex shares one
    root. Pair generation is pruned to an adaptive radius cap that doubles
    until connectivity is reached, so the full quadratic pair set is never
    materialized at scale. Returns 0 for at most one X point and +inf when Y
    is empty but X has two or more points.
    """
    if X.region != Y.region:
        raise ValueError("patterns must share a region")
    nx, ny = len(X), len(Y)
    if nx <= 1:
        return 0.0
    if ny == 0:
        return math.inf
    region = X.region
    cap = initial_cap if initial_cap is not None else _default_cap(region, nx, ny)
    cap = min(max(cap, 1e-9), region.max_distance)
    while True:
        rho = _sweep_to_connectivity(X, Y, cap)
        if rho is not None:
            return rho
        if cap >= region.max_distance:
            raise AssertionError("sweep exhausted all pairs without connecting")
        cap = min(cap * 2.0, region.max_distance)


def _default_cap(region: Region, nx: int, ny: int) -> float:
    # ~2x the expected threshold scale so the first pass usually suffices
    scale = region.volume * math.log(nx + 2.0) * max(1.0 / ny, 0.25 / nx) / math.pi
    return 2.0 * math.sqrt(scale)


def _sweep_to_connectivity(X, Y, cap):
    nx, ny = len(X), len(Y)
    xi, yi, sqd = bipartite_edges(X, Y, cap)
    if xi.size == 0:
        return None
    order = np.argsort(sqd)
    xi, yi, sqd = xi[order], yi[order], sqd[order]

    parent = list(range(nx + ny))
    size = [1] * (nx + ny)
    xcount = [1] * nx + [0] * ny
    for lo in range(0, xi.size, _CHUNK):
        ax = xi[lo:lo + _CHUNK].tolist()
        by = (yi[lo:lo + _CHUNK] + nx).tolist()
        for k in range(len(ax)):
            a = ax[k]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            b = by[k]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a == b:
                continue
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            xcount[a] += xcount[b]
            if xcount[a] == nx:
                return radius_for_sqdist(sqd[lo + k])
    return None


def lln_statistic(n: float, rho: float) -> float:
    """Normalized threshold statistic n*pi*rho^2/log(n); requires n >= 2."""
    if n < 2:
        raise ValueError("n must be at least 2 so that log n > 0")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return n * math.pi * rho * rho / math.log(n)


def threshold_trial(master_seed: int, tau_index: int, tau: float, trial: int,
                    n_values) -> list[ThresholdSample]:
    """Thresholds for one realization across an n sweep (coupled prefixes)."""
    region = Region("box", 1.0, 2)
    sampler_a = CoupledSampler(region, master_seed, "A", path=(tau_index, trial))
    sampler_b = CoupledSampler(region, master_seed, "B", path=(tau_index, trial))
    rows = []
    for n in n_values:
        X = sampler_a.prefix(n)
        Y = sampler_b.prefix(tau * n)
        rho = rho_threshold(X, Y)
        rows.append(ThresholdSample(n, tau, trial, rho, lln_statistic(n, rho), master_seed))
    return rows


def lln_sweep(n_values, tau_values, trials: int, seed: int, jobs: int = 1):
    """Threshold statistics over an (n, tau) grid.

    Returns (samples, summary) where samples is a flat list of
    ThresholdSample and summary holds one row per (n, tau) cell with the
    median and interquartile range of the statistic.
    """
    n_values = [float(n) for n in n_values]
    tau_values = [float(t) for t in tau_values]
    if any(n < 2 for n in n_values):
        raise ValueError("all n values must be at least 2")
    tasks = [(seed, ti, tau, trial, n_values)
             for ti, tau in enumerate(tau_values) for trial in range(trials)]
    results = parallel_starmap(threshold_trial, tasks, jobs)
    samples = [row for rows in results for row in rows]
    summary = summarize_thresholds(samples)
    return samples, summary


def summarize_thresholds(samples) -> list[dict]:
    cells = {}
    for s in samples:
        cells.setdefault((s.n, s.tau), []).append(s)
    rows = []
    for (n, tau) in sorted(cells):
        stats = np.array([s.statistic for s in cells[(n, tau)]])
        rhos = np.array([s.rho for s in cells[(n, tau)]])
        q25, q50, q75 = np.percentile(stats, [25, 50, 75])
        rows.append({
            "n": n, "tau": tau, "trials": len(stats),
            "median_statistic": float(q50), "q25_statistic": float(q25),
            "q75_statistic": float(q75), "median_rho": float(np.median(rhos)),
        })
    return rows


def g1_min_degree_is_zero(X: PointPattern, Y: PointPattern, r: float) -> bool:
    """Whether the shared-neighbor graph on X has an isolated vertex.

    A vertex is isolated exactly when it has no Y neighbor within r or every
    such Y neighbor has no other X neighbor, so no shared-neighbor edge
    materializes. Evaluated from bipartite degrees without building the graph.
    """
    nx = len(X)
    if nx == 0:
        raise ValueError("minimum degree undefined for an empty vertex set")
    if nx == 1:
        return True
    if len(Y) == 0:
        return True
    xi, yi, _ = bipartite_edges(X, Y, r)
    ydeg = np.bincount(yi, minlength=len(Y))
    linked = np.zeros(nx, dtype=bool)
    shared = ydeg[yi] >= 2
    linked[xi[shared]] = True
    return bool(np.any(~linked))


def min_degree_trial(master_seed: int, alpha_index: int, trial: int, n: float,
                     tau: float, alpha: float) -> bool:
    region = Region("box", 1.0, 2)
    sampler_a = CoupledSampler(region, master_seed, "A", path=(alpha_index, trial))
    sampler_b = CoupledSampler(region, master_seed, "B", path=(alpha_index, trial))
    X = sampler_a.prefix(n)
    Y = sampler_b.prefix(tau * n)
    r_n = radius_for_alpha(n, alpha)
    if len(X) == 0:
        return False
    return g1_min_degree_is_zero(X, Y, r_n)


def radius_for_alpha(n: float, alpha: float) -> float:
    """Radius r_n solving n*pi*r_n^2/log(n) = alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    return math.sqrt(alpha * math.log(n) / (n * math.pi))


def min_degree_diagnostic(n: float, tau: float, alpha: float, trials: int, seed: int,
                          jobs: int = 1, alpha_index: int = 0):
    """Fraction of trials in which the shared-neighbor graph has min degree 0.

    Returns (fraction, indicators); trials == 0 yields (nan, []).
    """
    if trials == 0:
        return math.nan, []
    tasks = [(seed, alpha_index, trial, float(n), float(tau), float(alpha))
             for trial in range(trials)]
    indicators = parallel_starmap(min_degree_trial, tasks, jobs)
    return float(np.mean(indicators)), [bool(b) for b in indicators]
