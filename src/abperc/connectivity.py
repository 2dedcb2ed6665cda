"""Connectivity threshold of the shared-neighbor graph and its scaling law.

``rho_threshold`` returns the exact minimum radius making the shared-neighbor
graph on the A points connected; the normalized statistic n*pi*rho^2/log n is
the quantity whose large-n limit is max(1/tau, 1/4) in two dimensions. No
radius below the minimum-degree one (every A point has a shared neighbor)
connects, and w.h.p. it does (Penrose, Ann. Appl. Probab. 7:340, 1997).

The threshold is read off the bipartite A-B graph, whose paths x-y-x' are
the shared-neighbor edges: one connected-components pass at the minimum-
degree radius and, when that leaves A disconnected, one bottleneck over its
components.

The pairs are streamed: B points are queried against one k-d tree over the A
points in blocks of ``_BLOCK`` points, in the order of their cells in a coarse
grid. The minimum-degree radius needs only each B point's two nearest A
distances, which a block has in full, so it folds across blocks. Beyond one
block's query, a pass holds only the pairs within the cap in compact form (16
bytes each) until it knows that radius; then it keeps those within it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geomgraph import Graph, NeighborGrid, bottleneck, components, radius_for_sqdist
from .parallel import parallel_starmap
from .pointprocess import CoupledSampler, PointPattern, Region

# Y points queried per block in a cap pass: one block's pairs and coordinates
# are the pass's working set beside the compact pairs it keeps
_BLOCK = 1 << 14


@dataclass(frozen=True)
class ThresholdSample:
    """One measured connectivity threshold with its normalized statistic."""

    n: float
    tau: float
    trial: int
    rho: float
    statistic: float


def rho_threshold(X: PointPattern, Y: PointPattern, initial_cap: float | None = None) -> float:
    """Exact minimum r such that the shared-neighbor graph on X is connected.

    Only the X-Y pairs within a radius cap, doubled until they connect X, are
    generated, one block of Y points at a time. Their minimum-degree radius
    rho_deg is exact; if one connected-components pass finds the graph at
    rho_deg connected, that is the answer, else a second pass over the blocks
    finds the :func:`~abperc.geomgraph.bottleneck` that joins the components
    holding X points along the longer pairs between components.
    Returns 0 for at most one X point and +inf when Y is empty but X has two
    or more points.
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
    """One cap pass: the exact threshold if the pairs within ``cap`` connect X, else None."""
    nx = len(X)
    blocks = _pair_blocks(X, Y)
    # only compact pairs outlive their block: X index, global Y index, sqdist
    link, kept = np.full(nx, np.inf), []
    for xi, yi, sqd, block in blocks(cap):
        _fold_min_degree(link, xi, yi, sqd, len(block))
        kept.append((xi.astype(np.int32), block[yi].astype(np.int32), sqd))
    deg2 = float(link.max())
    if deg2 == math.inf:
        return None
    # no smaller threshold connects, since every X point needs a shared neighbor
    rho_deg = radius_for_sqdist(deg2)
    for i, (xi, yi, sqd) in enumerate(kept):
        within = sqd <= deg2
        kept[i] = xi[within], yi[within]
    xi, yi = (np.concatenate(side) for side in zip(*kept))
    del kept
    points = np.concatenate([X.points, Y.points])
    labels, count = components(Graph(X.region, points, rho_deg, xi, yi + nx))
    if np.all(labels[:nx] == labels[0]):
        return rho_deg
    # pairs within deg2 are merged already: join the components that hold X
    # points along the longer pairs between components, the lightest per two
    joins = []
    for xi, yi, sqd, block in blocks(cap):
        lx, ly = labels[xi], labels[nx + block[yi]]
        rest = lx != ly
        joins.append(_lightest(lx[rest], ly[rest], sqd[rest], count))
    a, b, w = _lightest(*(np.concatenate(part) for part in zip(*joins)), count)
    w = bottleneck(count, a, b, w, [np.unique(labels[:nx])])[0]
    return None if w == math.inf else radius_for_sqdist(w)


def _pair_blocks(X, Y):
    """A function of r yielding (xi, yi, sqd, block): the X-Y pairs within r, one
    block of ``_BLOCK`` Y points at a time.

    ``block`` holds the Y indices of the block and ``yi`` indexes it. A block
    lists every X neighbour of its Y points, and the Y points go in the order of
    their cells in a grid of about one block per cell, so each block is compact.
    """
    grid = NeighborGrid(X.points, X.region)
    per_axis = max(1, round((len(Y) / _BLOCK) ** (1 / Y.region.dim)))
    # a coordinate just below side may scale up to per_axis itself
    cells = np.minimum((Y.points * (per_axis / Y.region.side)).astype(np.int64), per_axis - 1)
    order = np.argsort(cells @ per_axis ** np.arange(Y.region.dim), kind="stable")

    def blocks(r):
        for lo in range(0, len(order), _BLOCK):
            block = order[lo:lo + _BLOCK]
            yi, xi, sqd = grid.pairs_against(Y.points[block], r)
            yield xi, yi, sqd, block

    return blocks


def _fold_min_degree(link, xi, yi, sqd, ny):
    """Lower each link[x] to the smallest squared radius at which one of the
    given pairs gives x a shared neighbor.

    The pairs must list every X neighbour of the Y points 0..ny-1 they name.
    Pair (x, y) serves x from the larger of its own squared distance and y's
    smallest to another X point. Folded over blocks that cover every Y point,
    link.max() is the minimum-degree squared radius (+inf if some X point
    never has a shared neighbor).
    """
    m1 = np.full(ny, np.inf)
    np.minimum.at(m1, yi, sqd)
    nearest = sqd == m1[yi]
    # y's smallest to an X point not attaining m1; m1 itself if two attain it
    m2 = np.where(np.bincount(yi[nearest], minlength=ny) >= 2, m1, np.inf)
    np.minimum.at(m2, yi[~nearest], sqd[~nearest])
    np.minimum.at(link, xi, np.where(nearest, m2[yi], sqd))


def _lightest(a, b, w, count):
    """The lightest (a, b, w) for each distinct pair (a, b) of labels below count."""
    order = np.argsort(w)
    a, b, w = a[order].astype(np.int64), b[order].astype(np.int64), w[order]
    _, first = np.unique(a * count + b, return_index=True)
    return a[first], b[first], w[first]


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
        rows.append(ThresholdSample(n, tau, trial, rho, lln_statistic(n, rho)))
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
    if not all(0 < tau < math.inf for tau in tau_values):
        raise ValueError(f"tau must be finite and positive, got {tau_values}")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
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
        q25, q50, q75 = _quartiles(stats)
        rows.append({
            "n": n, "tau": tau, "trials": len(stats),
            "median_statistic": float(q50), "q25_statistic": float(q25),
            "q75_statistic": float(q75), "median_rho": float(np.median(rhos)),
        })
    return rows


def _quartiles(values) -> np.ndarray:
    """25th, 50th and 75th percentiles by numpy's linear interpolation, with
    +inf (where numpy gives nan) wherever a +inf value gets positive weight."""
    xs = np.sort(values)
    finite = int(np.isfinite(xs).sum())  # +inf values sort last
    q = np.percentile(np.minimum(xs, xs[finite - 1] if finite else 0.0), [25, 50, 75])
    # the interpolation at position h = (n - 1) * p weighs values 0..ceil(h)
    reach = np.ceil((len(xs) - 1) * np.array([0.25, 0.5, 0.75]))
    return np.where(reach >= finite, math.inf, q)


def g1_min_degree_is_zero(X: PointPattern, Y: PointPattern, r: float) -> bool:
    """Whether the shared-neighbor graph on X has an isolated vertex.

    That is, some X point has no shared neighbor among the pairs within r:
    the minimum-degree radius of those pairs is infinite.
    """
    nx = len(X)
    if nx == 0:
        raise ValueError("minimum degree undefined for an empty vertex set")
    if X.region != Y.region:
        raise ValueError("patterns must share a region")
    if not (0 < r < math.inf):
        raise ValueError("radius must be positive and finite")
    link = np.full(nx, np.inf)
    for xi, yi, sqd, block in _pair_blocks(X, Y)(r):
        _fold_min_degree(link, xi, yi, sqd, len(block))
    return float(link.max()) == math.inf


def min_degree_trial(master_seed: int, alpha_index: int, trial: int, n: float,
                     tau: float, r_n: float) -> bool:
    region = Region("box", 1.0, 2)
    sampler_a = CoupledSampler(region, master_seed, "A", path=(alpha_index, trial))
    sampler_b = CoupledSampler(region, master_seed, "B", path=(alpha_index, trial))
    X = sampler_a.prefix(n)
    Y = sampler_b.prefix(tau * n)
    if len(X) == 0:
        return False
    return g1_min_degree_is_zero(X, Y, r_n)


def radius_for_alpha(n: float, alpha: float) -> float:
    """Radius r_n solving n*pi*r_n^2/log(n) = alpha."""
    if not (0 < alpha < math.inf):
        raise ValueError("alpha must be positive and finite")
    if n < 2:
        raise ValueError("n must be at least 2")
    return math.sqrt(alpha * math.log(n) / (n * math.pi))


def min_degree_diagnostic(n: float, tau: float, alpha: float, trials: int, seed: int,
                          jobs: int = 1, alpha_index: int = 0):
    """Fraction of trials in which the shared-neighbor graph has min degree 0.

    Returns (fraction, indicators); trials == 0 yields (nan, []).
    """
    r_n = radius_for_alpha(n, alpha)
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if trials == 0:
        return math.nan, []
    tasks = [(seed, alpha_index, trial, float(n), float(tau), r_n)
             for trial in range(trials)]
    indicators = parallel_starmap(min_degree_trial, tasks, jobs)
    return float(np.mean(indicators)), [bool(b) for b in indicators]
