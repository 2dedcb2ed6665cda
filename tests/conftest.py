import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import settings

from abperc import Graph, PointPattern, Region, build_bipartite, radius_for_sqdist
from abperc.percolation import _levels, ab_crossing_times, one_type_crossing_times

# property tests draw the same examples on every run, and a slow example on a
# loaded machine is not reported as a deadline error
settings.register_profile("abperc", derandomize=True, deadline=None)
settings.load_profile("abperc")

UNIT_SQUARE = Region("box", 1.0, 2)


@pytest.fixture
def unit_square():
    return UNIT_SQUARE


def random_pattern(rng, n, region=UNIT_SQUARE):
    return PointPattern(region, rng.random((n, region.dim)) * region.side)


def brute_force_pairs(region, pts_a, pts_b, radius):
    """All (i, j) cross pairs within radius under the region metric."""
    out = []
    for i, a in enumerate(pts_a):
        for j, b in enumerate(pts_b):
            if region.sqdist(a, b) <= radius * radius:
                out.append((i, j))
    return sorted(out)


def brute_force_self_pairs(region, pts, radius):
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if region.sqdist(pts[i], pts[j]) <= radius * radius:
                out.append((i, j))
    return sorted(out)


def bfs_components(n_vertices, adjacency):
    """Component labels by breadth-first search over adjacency lists."""
    labels = [-1] * n_vertices
    current = 0
    for start in range(n_vertices):
        if labels[start] != -1:
            continue
        queue = [start]
        labels[start] = current
        while queue:
            v = queue.pop()
            for w in adjacency[v]:
                if labels[w] == -1:
                    labels[w] = current
                    queue.append(w)
        current += 1
    return labels, current


def bipartite_adjacency(region, pts_a, pts_b, radius):
    """Adjacency lists over A then B vertices from the all-pairs rule."""
    na, nb = len(pts_a), len(pts_b)
    adj = [[] for _ in range(na + nb)]
    for i, j in brute_force_pairs(region, pts_a, pts_b, radius):
        adj[i].append(na + j)
        adj[na + j].append(i)
    return adj


def build_g1(X, Y, r):
    """Graph on X joining the pairs that share at least one Y neighbor at radius r.

    Swap the arguments to obtain the companion graph on Y.
    """
    bip = build_bipartite(X, Y, r)
    edges = set()
    for y in range(len(Y)):
        edges.update(combinations(sorted(bip.edges_u[bip.edges_v == len(X) + y].tolist()), 2))
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return Graph(X.region, X.points, float(r), pairs[:, 0], pairs[:, 1])


def min_degree(graph):
    """Minimum vertex degree. Raises on an empty vertex set."""
    nv = graph.n_vertices
    if nv == 0:
        raise ValueError("minimum degree undefined for an empty vertex set")
    return int((np.bincount(graph.edges_u, minlength=nv)
                + np.bincount(graph.edges_v, minlength=nv)).min())


def bottleneck_oracle(n, u, v, weights, terminals):
    """Union-find over the edges in order of weight: the weight of the edge
    after which every terminal shares a root; 0 when they already do (fewer
    than two distinct terminals), None when they never do."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def joined():
        return len({find(t) for t in terminals}) <= 1

    if joined():
        return 0
    for w, a, b in sorted(zip(weights, u, v)):
        parent[find(a)] = find(b)
        if joined():
            return w
    return None


def rho_oracle(X, Y, connectivity_check=None):
    """Candidate-scan threshold: smallest candidate radius at which the
    shared-neighbor graph on X is connected.

    Candidates are the per-pair switch-on radii; connectivity is monotone in
    the radius (a tested invariant), so the scan over the sorted candidates
    runs as a binary search whose bracketing answers are both verified
    directly.
    """
    nx, ny = len(X), len(Y)
    if nx <= 1:
        return 0.0
    if ny == 0:
        return math.inf
    d2 = X.region.sqdist(X.points[:, None, :], Y.points[None, :, :])
    candidates = sorted({radius_for_sqdist(v) for v in d2.ravel()})
    connected = connectivity_check or (lambda r: _dense_g1_connected(d2, r))
    lo, hi = 0, len(candidates) - 1
    if not connected(candidates[hi]):
        return math.inf
    while lo < hi:
        mid = (lo + hi) // 2
        if connected(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    assert connected(candidates[lo])
    assert lo == 0 or not connected(candidates[lo - 1])
    return candidates[lo]


def _dense_g1_connected(d2, r):
    nx = d2.shape[0]
    M = d2 <= r * r
    A = (M @ M.T) > 0
    seen = np.zeros(nx, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(A[i] & ~seen):
            seen[j] = True
            stack.append(j)
    return bool(seen.all())


def one_type_crossing_time(seed, trial, start, top, r, L, d):
    """Crossing time of one trial, swept as a block of one seed at the levels
    the driver doubles from ``start`` to ``top``."""
    *_, (_, (T,)) = _levels(one_type_crossing_times, seed, [trial], 1, start, top, r, L, d)
    return float(T)


def ab_crossing_time(seed, trial, lam, start, top, r, L, d):
    """B crossing time of one trial, swept as a block of one seed at the levels
    the driver doubles from ``start`` to ``top``."""
    *_, (_, (T,)) = _levels(ab_crossing_times, seed, [trial], 1, start, top, lam, r, L, d)
    return float(T)


def site_related(u, v, t: float, epsilon: float) -> bool:
    """Whether some lattice site lies within t of both u and v.

    u and v are integer site coordinates; the search scans the full t-ball
    of u, so the relation holds exactly when the balls intersect on the
    lattice (in particular always when u == v, never when ||u-v|| > 2t).
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    rho2 = (t / epsilon) ** 2
    m = math.isqrt(math.floor(rho2))
    span = np.arange(-m, m + 1)
    grids = np.meshgrid(*([span] * u.size), indexing="ij")
    w = np.stack([g.ravel() for g in grids], axis=1) + u
    near_u = np.sum((w - u) ** 2, axis=1) <= rho2
    near_v = np.sum((w - v) ** 2, axis=1) <= rho2
    return bool(np.any(near_u & near_v))
