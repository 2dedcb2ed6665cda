"""Connectivity threshold of the shared-neighbor graph and its scaling law.

``rho_threshold`` returns the exact minimum radius making the shared-neighbor
graph on the A points connected; the normalized statistic n*pi*rho^2/log n is
the quantity whose large-n limit is max(1/tau, 1/4) in two dimensions. No
radius below the minimum-degree one (every A point has a shared neighbor)
connects, and w.h.p. it does (Penrose, Ann. Appl. Probab. 7:340, 1997).

The threshold is read off star edges on the A points, whose components are
those of the A points in the bipartite A-B graph at every radius: one
components pass at the minimum-degree radius and, when that leaves A
disconnected, one bottleneck over its components.

The pairs are streamed: B points are queried against one k-d tree over the A
points in blocks of ``_BLOCK`` points, in the order of their cells in a coarse
grid. A block makes the star edges of its B points in full. Once every B point
near an A point has been streamed, that point's lightest star edge is final,
and the largest such is a lower bound of the minimum-degree squared radius.
Beyond one block's query, a pass within a radius cap folds the star edges
below that bound into component labels as it goes, and holds only the heavier
ones (16 bytes each) until it knows the minimum-degree radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import unit_ball_volume
from .errors import ResourceLimitError
from .geomgraph import NeighborGrid, _wide, bottleneck, components, radius_for_sqdist
from .parallel import parallel_starmap
from .pointprocess import MAX_EXPECTED_POINTS, CoupledSampler, PointPattern, Region

# Y points queried per block in a cap pass: one block's pairs and coordinates
# are the pass's working set beside the star edges it keeps
_BLOCK = 1 << 13

# the first cap and each retry's factor over the last: the first pass fails in
# 48% (tau=4), 17% (16) and 4% (1) of box trials at n=1e3, 23% (4) and 5% (16)
# at n=1e4, while a cap sqrt(2) wider would hold twice the pairs in every pass
_CAP_STEP = math.sqrt(2.0)

# star edges streamed per X point between a pass's folds of those within its
# lower bound of deg2 into the component labels, each one components call
# over len(X) label ids
_FOLD = 2

# the region of every lln and mindeg trial
_UNIT_SQUARE = Region("box", 1.0, 2)


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

    Only the X-Y pairs within a radius cap, grown by sqrt(2) until they
    connect X, are generated, one block of Y points at a time, and turned into
    star edges on X. Their minimum-degree radius rho_deg is exact; if the
    star graph at rho_deg is connected, that is the answer, else a second pass
    over the blocks finds the :func:`~abperc.geomgraph.bottleneck` that joins
    its components along the heavier star edges between them.
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
    region, cap = X.region, initial_cap
    if cap is None:  # sqrt(2) times the expected threshold
        cap = _CAP_STEP * math.sqrt(region.volume * math.log(nx + 2.0)
                                    * max(1.0 / ny, 0.25 / nx) / math.pi)
    cap = min(max(cap, 1e-9), region.max_distance)
    blocks = _pair_blocks(X, Y)
    while True:
        rho = _sweep_to_connectivity(X, blocks, cap)
        if rho is not None:
            return rho
        if cap >= region.max_distance:
            raise AssertionError("sweep exhausted all pairs without connecting")
        cap = min(cap * _CAP_STEP, region.max_distance)


def _sweep_to_connectivity(X, blocks, cap):
    """One cap pass over ``blocks`` (see :func:`_pair_blocks`): the exact
    threshold if the pairs within ``cap`` connect X, else None.

    Every few blocks, the star edges streamed so far that are no heavier than
    the lower bound of deg2 from :func:`_linked` are folded into the component
    labels of X; they are in the graph at rho_deg. The heavier ones keep their
    weights until deg2 is known, and those within it are folded then.
    """
    nx = len(X)
    link, labels = np.full(nx, np.inf), np.arange(nx, dtype=np.int32)
    parts, pending = [], 0
    for u, v, w, low in _linked(blocks(cap), link):
        parts.append((u, v, w))
        pending += len(w)
        if pending > _FOLD * nx:
            labels, pending = _fold_within(labels, parts, low), 0
    deg2 = float(link.max())
    if deg2 == math.inf:
        return None
    # no smaller threshold connects, since every X point needs a shared neighbor
    rho_deg = radius_for_sqdist(deg2)
    labels = _fold_within(labels, parts, deg2)
    del parts
    if np.all(labels == labels[0]):
        return rho_deg
    # the label ids run to len(X): number the components in use 0..count-1
    ids, labels = np.unique(labels, return_inverse=True)
    count = len(ids)
    # edges within deg2 are merged already: join the components along the
    # heavier star edges, the lightest per two components
    joins = []
    for yi, xi, sqd, block, _ in blocks(cap):
        u, v, w = _star_edges(yi, xi, sqd, block)
        lu, lv = labels[u], labels[v]
        rest = lu != lv
        joins.append(_lightest(lu[rest], lv[rest], w[rest], count))
    a, b, w = _lightest(*(np.concatenate(part) for part in zip(*joins)), count)
    w = bottleneck(count, a, b, w, [np.arange(count)])[0]
    return None if w == math.inf else radius_for_sqdist(w)


def _fold_within(labels, parts, bound):
    """``labels`` (ids below their length) merged along the star edges of
    ``parts`` no heavier than ``bound``, by one components call over the label
    ids; each part keeps only its heavier edges, replaced one part at a time."""
    light = []
    for i, (u, v, w) in enumerate(parts):
        # indices and take: faster than boolean masks that split at random
        within = w <= bound
        if (fold := np.flatnonzero(within)).size:
            light.append((labels.take(u.take(fold)), labels.take(v.take(fold))))
            keep = np.flatnonzero(~within)
            parts[i] = u.take(keep), v.take(keep), w.take(keep)
    if not light:
        return labels
    merged, _ = components(len(labels), *(np.concatenate(side) for side in zip(*light)))
    return merged[labels]


def _pair_blocks(X, Y):
    """A function of r yielding (yi, xi, sqd, block, done): the X-Y pairs within
    r, one block of ``_BLOCK`` Y points at a time, and the X points ``done``
    once the block is streamed.

    ``block`` holds the Y indices of the block and ``yi`` indexes it. A block
    lists every X neighbour of its Y points, and the Y points go in the order of
    their cells in a grid of about one block per cell, so each block is compact.
    Each X point is in the ``done`` of the first block after which every Y
    point within r of it has been streamed (see :func:`_done_per_block`).
    """
    region = Y.region
    per_axis = max(1, round((len(Y) / _BLOCK) ** (1 / region.dim)))
    keys = _cell_keys(Y.points, region, per_axis)
    # cast to the smallest unsigned type (at most 16 bits in the budget), radix-sorted;
    # int32 indices (the budget keeps Y far below 2**31), held for the whole call
    order = np.argsort(keys.astype(np.min_scalar_type(per_axis**region.dim - 1)),
                       kind="stable").astype(np.int32)
    # the Y points in the cells of key <= k are the first through[k] of the order
    through = np.cumsum(np.bincount(keys, minlength=per_axis**region.dim))
    del keys
    grid = NeighborGrid(X.points, region)

    def blocks(r):
        _require_pair_budget(len(X), len(Y), r, region, f"cap {r!r}")
        done = _done_per_block(X, r, through, per_axis)
        for lo, finished in zip(range(0, len(order), _BLOCK), done):
            block = order[lo:lo + _BLOCK]
            # unnamed: no frame holds these pairs while the next block is queried
            yield (*grid.pairs_against(Y.points[block], r), block, finished)

    return blocks


def _done_per_block(X, r, through, per_axis):
    """For each block of the cell order, the X points all of whose Y points
    within r have been streamed once it is.

    Such a Y point is no farther than r from x along any axis, so its cell key
    is at most that of the cell of x's far corner, widened as the pair query is;
    on a torus an axis along which the ball wraps bounds nothing. The last Y
    point of the cells up to that key is the first ``through[key]`` of the order.
    """
    region = X.region
    reach = _wide(r, region)
    corner = X.points + reach
    if region.kind == "torus":
        corner[(X.points < reach) | (corner >= region.side)] = region.side
    finish = (np.maximum(through[_cell_keys(corner, region, per_axis)], 1) - 1) // _BLOCK
    n_blocks = -(-int(through[-1]) // _BLOCK)
    return np.split(np.argsort(finish, kind="stable"),
                    np.cumsum(np.bincount(finish, minlength=n_blocks))[:-1])


def _cell_keys(points, region: Region, per_axis: int) -> np.ndarray:
    """Row-major key (first axis fastest) of each point's cell in a grid of
    ``per_axis`` cells along each axis, one coordinate column at a time."""
    keys = np.zeros(len(points), dtype=np.int64)
    for k in reversed(range(region.dim)):
        # a coordinate just below side may scale up to per_axis itself
        cell = (points[:, k] * (per_axis / region.side)).astype(np.int64)
        keys *= per_axis
        keys += np.minimum(cell, per_axis - 1, out=cell)
    return keys


def _require_pair_budget(nx: float, ny: float, r: float, region: Region, what: str) -> None:
    """ResourceLimitError naming ``what`` if one block of min(``_BLOCK``, ny) Y
    points is expected to meet more X points within r than the sampling budget."""
    ball = unit_ball_volume(region.dim) * r**region.dim
    expected = min(_BLOCK, ny) * nx * min(1.0, ball / region.volume)
    if expected > MAX_EXPECTED_POINTS:
        raise ResourceLimitError(
            f"{what} gives {expected:.3g} expected pairs in a block of {min(_BLOCK, ny):.0f} "
            f"B points, beyond the pair budget of {MAX_EXPECTED_POINTS:.3g}")


def _star_edges(yi, xi, sqd, block):
    """Star edges (u, v, w) of one block's pairs: each Y point links a nearest X
    neighbor u to each other X neighbor v at w = sqdist(v, y); u, v are int32.

    The X points within any t of y are a prefix of its neighbors by distance
    that holds u, so the edges of weight <= t join exactly them. x's lightest
    edge is where it first has a shared neighbor (at u, y's second-smallest
    distance, elsewhere its own); their largest is the minimum-degree squared
    radius, +inf if some X point never has one."""
    m1 = np.full(len(block), np.inf)
    np.minimum.at(m1, yi, sqd)
    nearest = np.empty(len(block), dtype=np.int32)
    hit = sqd == m1[yi]
    nearest[yi[hit]] = xi[hit]
    star = xi != nearest[yi]
    return nearest[yi[star]], xi[star].astype(np.int32), sqd[star]


def _linked(blocks, link):
    """Each block's star edges (u, v, w), folded into ``link`` (each X point's
    lightest edge so far), with ``low``: the largest link of the X points done
    so far. Their links are final, so ``low`` never exceeds the final
    link.max(). Stops early once that is +inf."""
    low = -math.inf
    for yi, xi, sqd, block, done in blocks:
        u, v, w = _star_edges(yi, xi, sqd, block)
        np.minimum.at(link, u, w)
        np.minimum.at(link, v, w)
        low = float(link[done].max(initial=low))
        yield u, v, w, low
        if low == math.inf:
            return


def min_degree_sqradius(X: PointPattern, Y: PointPattern, cap: float) -> float:
    """Largest over X of each point's lightest star edge within ``cap`` (+inf if
    one has none, 0 for no X points), the edges made one block at a time.

    The star edges of weight <= r*r are the same at any cap >= r, so the
    shared-neighbor graph at r <= cap has an isolated vertex iff this exceeds r*r.
    """
    if X.region != Y.region:
        raise ValueError("patterns must share a region")
    link = np.full(len(X), np.inf)
    for _ in _linked(_pair_blocks(X, Y)(cap), link):
        pass
    return float(link.max(initial=0.0))


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


def threshold_trial(master_seed: int, trial: int, n_values, tau_values) -> list[ThresholdSample]:
    """Thresholds across the (n, tau) grid of one realization: n and tau*n take
    prefixes of one A and one B pattern."""
    sampler_a, sampler_b = (CoupledSampler(_UNIT_SQUARE, master_seed, stream, path=(0, trial))
                            for stream in "AB")
    rows = []
    for tau in tau_values:
        for n in n_values:
            rho = rho_threshold(sampler_a.prefix(n), sampler_b.prefix(tau * n))
            rows.append(ThresholdSample(n, tau, trial, rho, lln_statistic(n, rho)))
    return rows


def lln_sweep(n_values, tau_values, trials: int, seed: int, jobs: int = 1):
    """Threshold statistics over an (n, tau) grid, every value checked before
    any trial. One realization per trial: more B points only add shared
    neighbors, so a trial's rho is non-increasing in tau.

    Returns (samples, summary): the ThresholdSample of each tau, trial and n in
    that order, and one row per (n, tau) cell with the median and interquartile
    range of the statistic.
    """
    n_values = _distinct("n", n_values, lambda n: 2 <= n < math.inf, "finite, at least 2")
    tau_values = _distinct("tau", tau_values, lambda t: 0 < t < math.inf, "finite, positive")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    tasks = [(seed, trial, n_values, tau_values) for trial in range(trials)]
    flat = [row for rows in parallel_starmap(threshold_trial, tasks, jobs) for row in rows]
    # stable: the rows of one tau stay in trial order, then n order
    samples = sorted(flat, key=lambda s: tau_values.index(s.tau))
    return samples, summarize_thresholds(samples)


def _distinct(name: str, values, valid, requirement: str) -> list[float]:
    """``values`` as floats, or a ValueError naming ``name`` unless there are some,
    each valid and none repeated."""
    values = [float(v) for v in values]
    if not values or not all(map(valid, values)) or len(set(values)) < len(values):
        raise ValueError(f"{name} must be {requirement} and distinct, got {values}")
    return values


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


def min_degree_trial(master_seed: int, trial: int, n: float, tau: float, cap: float) -> float:
    """:func:`min_degree_sqradius` within ``cap`` of one realization."""
    X, Y = (CoupledSampler(_UNIT_SQUARE, master_seed, stream, path=(0, trial)).prefix(lam)
            for stream, lam in (("A", n), ("B", tau * n)))
    return min_degree_sqradius(X, Y, cap)


def radius_for_alpha(n: float, alpha: float) -> float:
    """Radius r_n solving n*pi*r_n^2/log(n) = alpha."""
    if not (0 < alpha < math.inf):
        raise ValueError("alpha must be positive and finite")
    if not 2 <= n < math.inf:
        raise ValueError(f"n must be finite and at least 2, got {n!r}")
    return math.sqrt(alpha * math.log(n) / (n * math.pi))


def min_degree_diagnostic(n: float, tau: float, alphas, trials: int, seed: int, jobs: int = 1):
    """For each alpha, the fraction of trials and the trials in which the
    shared-neighbor graph at r_n(alpha) has min degree 0: (fractions, indicators).

    One fold per trial, at the largest radius, answers every alpha. With no
    trials each fraction is nan.
    """
    alphas = _distinct("alpha", alphas, lambda a: 0 < a < math.inf, "positive, finite")
    radii = [radius_for_alpha(n, alpha) for alpha in alphas]
    (tau,) = _distinct("tau", [tau], lambda t: 0 < t < math.inf, "finite, positive")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    cap = max(radii)
    _require_pair_budget(n, tau * n, cap, _UNIT_SQUARE, f"alpha {max(alphas)!r}")
    tasks = [(seed, trial, float(n), tau, cap) for trial in range(trials)]
    deg2 = parallel_starmap(min_degree_trial, tasks, jobs)
    indicators = [[d > r * r for d in deg2] for r in radii]
    return [float(np.mean(flags)) if flags else math.nan for flags in indicators], indicators
