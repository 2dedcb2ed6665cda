"""One-type and bipartite geometric graphs on point patterns.

Adjacency uses the closed-ball rule: an edge is present iff the (region
metric) distance is <= the connection radius, compared on squared distances
with no epsilon. Every graph is one fixed-radius pair query between two k-d
trees (``scipy.spatial.cKDTree``, periodic on a torus); the tree's candidates
are re-checked with that exact predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree

from .pointprocess import PointPattern, Region

# candidate pairs re-checked per block in NeighborGrid.pairs_against
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
        # cKDTree does not document how it rounds distances, so it is queried
        # a little wider and the closed-ball predicate is applied here, on the
        # region's squared distances
        wide = radius * (1 + 1e-9) + self.region.side * 1e-12
        found = _kdtree(query_points, self.region).sparse_distance_matrix(
            self.tree, wide, output_type="ndarray")
        sqd = np.empty(found.size)
        # chunked so that the candidates' coordinates are never all held at once
        for lo in range(0, found.size, _CHUNK):
            block = found[lo:lo + _CHUNK]
            sqd[lo:lo + _CHUNK] = self.region.sqdist(query_points[block["i"]],
                                                      self.points[block["j"]])
        keep = sqd <= radius * radius
        return found["i"][keep], found["j"][keep], sqd[keep]


def _kdtree(points: np.ndarray, region: Region):
    # imported here: scipy.spatial adds ~0.1 s to every CLI start, and the
    # subcommands that never query neighbours should not pay it
    from scipy.spatial import cKDTree

    return cKDTree(points, boxsize=region.side if region.kind == "torus" else None)


@dataclass
class Graph:
    """Geometric graph on one point pattern (vertex i = pattern point i)."""

    pattern: PointPattern
    radius: float
    edges_u: np.ndarray
    edges_v: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.pattern)

    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edges_u, minlength=self.n_vertices)
        deg += np.bincount(self.edges_v, minlength=self.n_vertices)
        return deg

    def vertex_coords(self) -> np.ndarray:
        return self.pattern.points


@dataclass
class BipartiteGraph:
    """Bipartite geometric graph; vertices are left points then right points."""

    left: PointPattern
    right: PointPattern
    radius: float
    edges_left: np.ndarray
    edges_right: np.ndarray

    @property
    def n_left(self) -> int:
        return len(self.left)

    @property
    def n_right(self) -> int:
        return len(self.right)

    @property
    def n_vertices(self) -> int:
        return self.n_left + self.n_right

    def degrees(self) -> np.ndarray:
        dl = np.bincount(self.edges_left, minlength=self.n_left)
        dr = np.bincount(self.edges_right, minlength=self.n_right)
        return np.concatenate([dl, dr])

    def vertex_coords(self) -> np.ndarray:
        return np.concatenate([self.left.points, self.right.points])


def bipartite_edges(X: PointPattern, Y: PointPattern, r: float):
    """Edge arrays (xi, yi, sqdist) of the bipartite graph at radius r."""
    if X.region != Y.region:
        raise ValueError("patterns must share a region")
    if r <= 0:
        raise ValueError("radius must be positive")
    return NeighborGrid(Y.points, X.region).pairs_against(X.points, r)


def unigraph_edges(X: PointPattern, s: float):
    """Edge arrays (i, j, sqdist), i < j, of the one-type graph at threshold s."""
    if s <= 0:
        raise ValueError("threshold must be positive")
    qi, pj, sqd = NeighborGrid(X.points, X.region).pairs_against(X.points, s)
    keep = qi < pj
    return qi[keep], pj[keep], sqd[keep]


def build_bipartite(X: PointPattern, Y: PointPattern, r: float) -> BipartiteGraph:
    """Bipartite graph with an edge for every cross pair at distance <= r."""
    xi, yi, _ = bipartite_edges(X, Y, r)
    return BipartiteGraph(X, Y, float(r), xi, yi)


def build_unigraph(X: PointPattern, s: float) -> Graph:
    """One-type graph with an edge for every pair at distance <= s."""
    ui, vi, _ = unigraph_edges(X, s)
    return Graph(X, float(s), ui, vi)


def _edge_arrays(graph):
    """Vertex count and edge end arrays; bipartite right vertices follow the left ones."""
    if isinstance(graph, BipartiteGraph):
        return graph.n_vertices, graph.edges_left, graph.edges_right + graph.n_left
    return graph.n_vertices, graph.edges_u, graph.edges_v


def components(graph):
    """Connected-component labels and component count.

    For a bipartite graph, labels cover left vertices then right vertices.
    """
    nv, src, dst = _edge_arrays(graph)
    if nv == 0:
        return np.empty(0, dtype=np.int32), 0
    data = np.ones(len(src), dtype=np.int8)
    adj = coo_matrix((data, (src, dst)), shape=(nv, nv))
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


def _margin_vertices(graph, axis: int, margin: float | None):
    """Indices of the vertices within ``margin`` of the low and of the high face."""
    region = graph.left.region if isinstance(graph, BipartiteGraph) else graph.pattern.region
    if region.kind != "box":
        raise ValueError("crossing is undefined on a torus")
    if margin is None:
        margin = graph.radius
    coords = graph.vertex_coords()[:, axis]
    return np.flatnonzero(coords <= margin), np.flatnonzero(coords >= region.side - margin)


def crossing_exists(graph, axis: int = 0, margin: float | None = None) -> bool:
    """Whether some component spans the box along ``axis``.

    A component spans when it holds a vertex with coordinate <= margin and
    one with coordinate >= side - margin; the margin defaults to the graph's
    connection radius. Undefined (and rejected) on a torus.
    """
    low, high = _margin_vertices(graph, axis, margin)
    if low.size == 0 or high.size == 0:
        return False
    labels, _ = components(graph)
    return bool(np.intersect1d(labels[low], labels[high]).size > 0)


def gap_blocks_crossing(coords, side: float, s: float) -> bool:
    """Whether no graph with hops <= s can span the box, by its axis coordinates.

    ``coords`` are the vertices' first coordinates and the margin is s. A
    spanning path needs a vertex in each margin and hops across every empty
    gap of the sorted coordinates that separates the margins, and no pair
    across a gap whose float square exceeds s*s passes the ``d2 <= s*s``
    predicate. This needs no edges.
    """
    xs = np.sort(coords)
    if xs.size == 0 or xs[0] > s or xs[-1] < side - s:
        return True
    gaps = np.diff(xs)
    return bool(np.any((gaps * gaps > s * s) & (xs[1:] > s) & (xs[:-1] < side - s)))


def crossing_step(graph, steps) -> int | None:
    """Smallest step k at which the vertices arrived by then span the box.

    Vertex v arrives at step ``steps[v]``, an integer >= 1 (scipy's spanning
    tree drops zero weights). Spanning at step k is the event of
    :func:`crossing_exists` (first axis, default margin) on the subgraph of
    the vertices with ``steps <= k``, so it is monotone in k. An edge, and
    the link of a margin vertex to a super source (low face) or super sink
    (high face), is present from the later arrival of its ends; k is the
    bottleneck of the minimax source-sink path, read off a minimum spanning
    tree. None when the whole graph does not span.
    """
    low, high = _margin_vertices(graph, 0, None)
    if low.size == 0 or high.size == 0:
        return None
    steps = np.asarray(steps, dtype=np.int64)
    nv, src, dst = _edge_arrays(graph)
    source, sink = nv, nv + 1
    rows = np.concatenate([src, np.full(low.size, source), np.full(high.size, sink)])
    cols = np.concatenate([dst, low, high])
    weights = np.concatenate([np.maximum(steps[src], steps[dst]), steps[low], steps[high]])
    tree = minimum_spanning_tree(coo_matrix((weights, (rows, cols)), shape=(nv + 2, nv + 2)))
    _, pred = breadth_first_order(tree, source, directed=False, return_predecessors=True)
    if pred[sink] < 0:
        return None
    # the path's bottleneck is the latest arrival among its vertices, since
    # every tree edge weighs the later arrival of its ends
    latest, v = 0, int(pred[sink])
    while v != source:
        latest = max(latest, int(steps[v]))
        v = int(pred[v])
    return latest
