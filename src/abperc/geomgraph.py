"""One-type and bipartite geometric graphs on point patterns, in one edge-list
type; a bipartite graph numbers its A points before its B points.

Adjacency uses the closed-ball rule: an edge is present iff the (region
metric) distance is <= the connection radius, compared on squared distances
with no epsilon. Every graph is one fixed-radius pair query on k-d trees
(``scipy.spatial.cKDTree``, periodic on a torus) whose candidates are
re-checked with that predicate on ``Region.sqdist``, one coordinate column at
a time. Every threshold question (the step at which a box is crossed, the
radius at which the shared-neighbor graph connects) is answered by one
spanning-forest kernel, :func:`bottleneck`, for many independent terminal
groups at once, such as a block of graphs numbered into one disjoint union.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
# csgraph loads scipy's OpenBLAS, whose idle worker threads spin for about 0.25 s
# of CPU; nothing here calls BLAS, so one thread unless the caller chose a number
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree

from .pointprocess import PointPattern, Region

# candidate pairs re-checked per chunk in _within
_CHUNK = 1 << 20


def radius_for_sqdist(sq: float) -> float:
    """Smallest float r >= 0 whose float square covers ``sq`` (r*r >= sq).

    This is the exact radius at which an edge with squared distance ``sq``
    switches on under the ``d2 <= r*r`` predicate.
    """
    sq = float(sq)
    if sq <= 0.0:
        return 0.0
    r = math.sqrt(sq)
    while r * r < sq:
        r = math.nextafter(r, math.inf)
    while True:
        down = math.nextafter(r, 0.0)
        if down * down >= sq:
            r = down
        else:
            return r


class NeighborGrid:
    """k-d tree index over one point set for fixed-radius pair queries.

    The benchmark's tracer wraps this class's ``__init__`` and
    ``pairs_against`` by name, so both keep their names.
    """

    def __init__(self, points: np.ndarray, region: Region):
        self.region = region
        self.points = np.asarray(points, dtype=float).reshape(-1, region.dim)
        self.tree = _kdtree(self.points, region)

    def pairs_against(self, query_points: np.ndarray, radius: float):
        """All (query index, own index, sqdist) with distance <= radius."""
        query_points = np.asarray(query_points, dtype=float).reshape(-1, self.region.dim)
        found = _kdtree(query_points, self.region).sparse_distance_matrix(
            self.tree, _wide(radius, self.region), output_type="ndarray")
        return _within(self.region, query_points, self.points, found["i"], found["j"], radius)


def _wide(radius: float, region: Region) -> float:
    # cKDTree does not document how it rounds distances, so it is queried a
    # little wider and the closed-ball predicate is applied by _within
    return radius * (1 + 1e-9) + region.side * 1e-12


def _within(region: Region, a: np.ndarray, b: np.ndarray, i, j, radius: float):
    """The candidate pairs (i, j, sqdist) with ``region.sqdist(a[i], b[j]) <= radius**2``,
    checked in chunks, so that the candidates' coordinates are never all held at once."""
    sqd = np.empty(len(i))
    for lo in range(0, len(i), _CHUNK):
        sqd[lo:lo + _CHUNK] = region.sqdist(a, b, i[lo:lo + _CHUNK], j[lo:lo + _CHUNK])
    keep = sqd <= radius * radius
    return i[keep], j[keep], sqd[keep]


def _kdtree(points: np.ndarray, region: Region):
    # imported here: scipy.spatial adds ~0.1 s to every CLI start, and the
    # subcommands that never query neighbours should not pay it
    from scipy.spatial import cKDTree

    # sliding-midpoint splits build faster than median ones; queries no slower
    return cKDTree(points, boxsize=region.side if region.kind == "torus" else None,
                   balanced_tree=False)


@dataclass
class Graph:
    """Geometric graph as an edge list over ``points`` (vertex i = point i).

    A bipartite graph lists its A points first, so B point j is vertex
    ``len(A) + j``.
    """

    region: Region
    points: np.ndarray
    radius: float
    edges_u: np.ndarray
    edges_v: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.points)


def bipartite_edges(X: PointPattern, Y: PointPattern, r: float):
    """Edge arrays (xi, yi, sqdist) of the bipartite graph at radius r."""
    if X.region != Y.region:
        raise ValueError("patterns must share a region")
    if not (0 < r < math.inf):
        raise ValueError("radius must be positive and finite")
    return NeighborGrid(Y.points, X.region).pairs_against(X.points, r)


def build_bipartite(X: PointPattern, Y: PointPattern, r: float) -> Graph:
    """Bipartite graph with an edge for every cross pair at distance <= r."""
    xi, yi, _ = bipartite_edges(X, Y, r)
    return Graph(X.region, np.concatenate([X.points, Y.points]), float(r), xi, yi + len(X))


def build_unigraph(X: PointPattern, s: float) -> Graph:
    """One-type graph with an edge for every pair i < j at distance <= s."""
    if not (0 < s < math.inf):
        raise ValueError("threshold must be positive and finite")
    pairs = _kdtree(X.points, X.region).query_pairs(_wide(s, X.region), output_type="ndarray")
    i, j, _ = _within(X.region, X.points, X.points, pairs[:, 0], pairs[:, 1], s)
    return Graph(X.region, X.points, float(s), i, j)


def components(graph: Graph):
    """Connected-component labels, one per vertex, and the component count."""
    nv = graph.n_vertices
    data = np.ones(len(graph.edges_u), dtype=np.int8)
    adj = coo_matrix((data, (graph.edges_u, graph.edges_v)), shape=(nv, nv))
    count, labels = connected_components(adj, directed=False)
    return labels, int(count)


def is_connected_g1(X: PointPattern, Y: PointPattern, r: float) -> bool:
    """Connectivity of the shared-neighbor graph on X at radius r.

    Equivalent to one bipartite component containing every X vertex (isolated
    Y vertices ignored): a bipartite path x-y-x' is exactly a shared-neighbor
    edge. Graphs with at most one X vertex count as connected.
    """
    nx = len(X)
    if nx <= 1:
        return True
    if len(Y) == 0:
        return False
    labels, _ = components(build_bipartite(X, Y, r))
    left = labels[:nx]
    return bool(np.all(left == left[0]))


def _margin_vertices(graph: Graph):
    """Indices of the vertices within the connection radius of the low and of
    the high face of the first axis."""
    if graph.region.kind != "box":
        raise ValueError("crossing is undefined on a torus")
    coords, margin = graph.points[:, 0], graph.radius
    return np.flatnonzero(coords <= margin), np.flatnonzero(coords >= graph.region.side - margin)


def crossing_exists(graph: Graph) -> bool:
    """Whether some component spans the box along the first axis.

    A component spans when it holds a vertex with coordinate <= margin and
    one with coordinate >= side - margin, the margin being the graph's
    connection radius. Undefined (and rejected) on a torus.
    """
    low, high = _margin_vertices(graph)
    if low.size == 0 or high.size == 0:
        return False
    labels, _ = components(graph)
    return bool(np.intersect1d(labels[low], labels[high]).size > 0)


def bottleneck(n: int, u, v, weights, groups) -> np.ndarray:
    """For each group of terminals, the smallest weight w at which the edges
    (u, v) of weight <= w join the group into one component; inf when the
    whole graph does not.

    The graph has vertices 0..n-1. Every weight must be > 0 (scipy's spanning
    tree drops zero weights) and each (u, v) must be listed once (building
    the sparse matrix sums repeated entries). Groups are nonempty, and no
    component holds terminals of two groups. w is the heaviest edge on the
    minimum spanning forest paths from each terminal of the group to its
    first; with one distinct terminal it is 0.
    """
    starts = np.cumsum([0, *map(len, groups[:-1])])
    terminals = np.concatenate(groups).astype(np.int64)
    firsts = terminals[starts]
    # a super-root n joined to each group's first terminal by a bridge, which
    # every spanning forest keeps: one search from n walks every group's tree
    tree = minimum_spanning_tree(coo_matrix(
        (np.concatenate([weights, np.ones(len(groups))]),
         (np.concatenate([u, np.full(len(groups), n)]), np.concatenate([v, firsts]))),
        shape=(n + 1, n + 1)))
    _, pred = breadth_first_order(tree, n, directed=False, return_predecessors=True)
    # up[x] is the heaviest edge on the tree path from x to anc[x], at first
    # its parent; the root and the vertices not reached are their own parents,
    # and the bridges to the root weigh 0 here
    anc = np.where(pred < 0, np.arange(n + 1), pred)
    edges = tree.tocoo()
    up = np.zeros(n + 1)
    up[np.where(pred[edges.col] == edges.row, edges.col, edges.row)] = edges.data
    up[firsts] = 0.0
    # pointer jumping: each round doubles the path that up[x] covers
    while not np.array_equal(anc[anc[terminals]], anc[terminals]):
        up = np.maximum(up, up[anc])
        anc = anc[anc]
    w = np.maximum.reduceat(up[terminals], starts)
    w[~np.logical_and.reduceat(pred[terminals] >= 0, starts)] = np.inf
    return w


def crossing_steps(graphs_and_steps) -> list:
    """Smallest step k at which the vertices of each graph arrived by then
    span the box, or None if it does not span at all.

    Takes (graph, steps) pairs: vertex v arrives at step ``steps[v]`` (an
    integer array, values >= 1). Spanning at step k is the event of
    :func:`crossing_exists` on the subgraph of the vertices
    with ``steps <= k``, so it is monotone in k. An edge, and the link of a
    margin vertex to a super source (low face) or super sink (high face), is
    present from the later arrival of its ends; k is the bottleneck between
    source and sink, one :func:`bottleneck` call on the graphs' disjoint union.

    Each edge and link has its later-arriving end as its row, so its weight
    is that row's step: when vertices are numbered in arrival order, as in the
    sweeps, the matrix the spanning forest sorts is already in weight order
    within each graph. k is exact for any numbering, since the bottleneck does
    not depend on which minimum spanning forest breaks the ties.
    """
    parts, groups = [], []
    offset = 0
    for graph, arrive in graphs_and_steps:
        low, high = _margin_vertices(graph)
        nv, u, v = graph.n_vertices, graph.edges_u, graph.edges_v
        later = arrive[u] >= arrive[v]
        rows, cols = np.where(later, u, v), np.where(later, v, u)
        # the graph's edges, then the links of its source nv and sink nv + 1,
        # numbered into the union as int32, which keeps the kernel's copies small
        ends = (np.concatenate([rows, low, high]),
                np.concatenate([cols, np.full(low.size, nv), np.full(high.size, nv + 1)]))
        parts.append([end.astype(np.int32) + np.int32(offset) for end in ends] + [
            np.concatenate([arrive[rows], arrive[low], arrive[high]])])
        groups.append((offset + nv, offset + nv + 1))
        offset += nv + 2
    # dropped before the kernel runs, so that the union is never held twice
    union = [np.concatenate(part) for part in zip(*parts)]
    del parts
    k = bottleneck(offset, *union, groups)
    return [None if w == np.inf else int(w) for w in k]
