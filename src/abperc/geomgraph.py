"""One-type and bipartite geometric graphs on point patterns, in one edge-list
type; a bipartite graph numbers its A points before its B points.

Adjacency uses the closed-ball rule: an edge is present iff the (region
metric) distance is <= the connection radius, compared on squared distances
with no epsilon. Every graph is one fixed-radius pair query between two k-d
trees (``scipy.spatial.cKDTree``, periodic on a torus); the tree's candidates
are re-checked with that exact predicate. Every threshold question (the step
at which a box is crossed, the radius at which the shared-neighbor graph
connects) is answered by one minimum-spanning-tree kernel, :func:`bottleneck`.
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
    qi, pj, _ = NeighborGrid(X.points, X.region).pairs_against(X.points, s)
    keep = qi < pj
    return Graph(X.region, X.points, float(s), qi[keep], pj[keep])


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


def _margin_vertices(graph: Graph, margin: float | None):
    """Indices of the vertices within ``margin`` of the low and of the high face
    of the first axis."""
    if graph.region.kind != "box":
        raise ValueError("crossing is undefined on a torus")
    if margin is None:
        margin = graph.radius
    coords = graph.points[:, 0]
    return np.flatnonzero(coords <= margin), np.flatnonzero(coords >= graph.region.side - margin)


def crossing_exists(graph: Graph, margin: float | None = None) -> bool:
    """Whether some component spans the box along the first axis.

    A component spans when it holds a vertex with coordinate <= margin and
    one with coordinate >= side - margin; the margin defaults to the graph's
    connection radius. Undefined (and rejected) on a torus.
    """
    low, high = _margin_vertices(graph, margin)
    if low.size == 0 or high.size == 0:
        return False
    labels, _ = components(graph)
    return bool(np.intersect1d(labels[low], labels[high]).size > 0)


def bottleneck(n: int, u, v, weights, terminals):
    """Smallest weight w at which the edges (u, v) of weight <= w join every
    terminal into one component; None when the whole graph does not.

    The graph has vertices 0..n-1. Every weight must be > 0 (scipy's spanning
    tree drops zero weights) and each (u, v) must be listed once (building
    the sparse matrix sums repeated entries). w is the heaviest edge on the
    minimum spanning tree paths from each terminal to the first; with one
    distinct terminal it is 0. ``terminals`` is nonempty.
    """
    terminals = np.asarray(terminals, dtype=np.int64).tolist()
    tree = minimum_spanning_tree(coo_matrix((weights, (u, v)), shape=(n, n)))
    root = terminals[0]
    _, pred = breadth_first_order(tree, root, directed=False, return_predecessors=True)
    # the paths to the root meet where they first reach a vertex already walked
    seen, path = {root}, []
    for x in terminals:
        if pred[x] < 0 and x != root:
            return None
        while x not in seen:
            seen.add(x)
            path.append(x)
            x = int(pred[x])
    if not path:
        return tree.dtype.type(0)
    # the edge from x to its parent is stored once, in row x or in row pred[x]:
    # scan both rows of each walked x for the other end, at positions ``at``
    path = np.array(path)
    rows, ends = np.concatenate([path, pred[path]]), np.concatenate([pred[path], path])
    start = tree.indptr[rows]
    width = tree.indptr[rows + 1] - start
    at = np.arange(width.sum()) + np.repeat(start - np.cumsum(width) + width, width)
    return tree.data[at[tree.indices[at] == np.repeat(ends, width)]].max()


def crossing_step(graph: Graph, steps) -> int | None:
    """Smallest step k at which the vertices arrived by then span the box.

    Vertex v arrives at step ``steps[v]``, an integer >= 1. Spanning at step
    k is the event of :func:`crossing_exists` (default margin) on the
    subgraph of the vertices with ``steps <= k``, so it is monotone in k. An
    edge, and the link of a margin vertex to a super source (low face) or
    super sink (high face), is present from the later arrival of its ends;
    k is the :func:`bottleneck` between source and sink. None when the whole
    graph does not span.
    """
    low, high = _margin_vertices(graph, None)
    if low.size == 0 or high.size == 0:
        return None
    steps = np.asarray(steps, dtype=np.int64)
    nv, u, v = graph.n_vertices, graph.edges_u, graph.edges_v
    source, sink = nv, nv + 1
    k = bottleneck(nv + 2,
                   np.concatenate([u, np.full(low.size, source), np.full(high.size, sink)]),
                   np.concatenate([v, low, high]),
                   np.concatenate([np.maximum(steps[u], steps[v]), steps[low], steps[high]]),
                   [source, sink])
    return None if k is None else int(k)
