"""One-type and bipartite geometric graphs on point patterns.

Adjacency uses the closed-ball rule: an edge is present iff the (region
metric) distance is <= the connection radius, compared on squared distances
with no epsilon. Neighbor enumeration goes through a cell-list grid whose
cell side is at least the query radius, so only the 3^d adjacent cells are
scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree

from .errors import ResourceLimitError
from .pointprocess import PointPattern, Region


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
    """Cell-list index over one point set for fixed-radius pair queries."""

    def __init__(self, points: np.ndarray, cell_size: float, region: Region):
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        points = np.asarray(points, dtype=float).reshape(-1, region.dim)
        self.region = region
        self.points = points
        if region.kind == "torus":
            # cells must tile the side exactly so cell indices wrap
            n_cells = max(1, int(math.floor(region.side / cell_size)))
            self.cell_size = region.side / n_cells
        else:
            n_cells = max(1, int(math.ceil(region.side / cell_size)))
            self.cell_size = float(cell_size)
        self.n_cells = n_cells
        cells = self.cell_coords(points)
        keys = self._encode(cells)
        self.order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[self.order]

    def cell_coords(self, points: np.ndarray) -> np.ndarray:
        c = np.floor(np.asarray(points, float) / self.cell_size).astype(np.int64)
        return np.clip(c, 0, self.n_cells - 1)

    def _encode(self, cells: np.ndarray) -> np.ndarray:
        keys = np.zeros(cells.shape[0], dtype=np.int64)
        for axis in range(self.region.dim):
            keys = keys * self.n_cells + cells[:, axis]
        return keys

    def _offset_range(self) -> list:
        # distinct cell-offset residues per axis; collapses when the torus
        # wraps in fewer than 3 cells so no candidate pair is produced twice
        if self.region.kind == "torus" and self.n_cells < 3:
            per_axis = [0] if self.n_cells == 1 else [0, 1]
        else:
            per_axis = [-1, 0, 1]
        return list(product(per_axis, repeat=self.region.dim))

    def bucket_counts(self) -> dict:
        keys, counts = np.unique(self.sorted_keys, return_counts=True)
        return dict(zip(keys.tolist(), counts.tolist()))

    def pairs_against(self, query_points: np.ndarray, radius: float):
        """All (query index, own index, sqdist) with distance <= radius."""
        # with a single cell per axis every point is a candidate anyway
        if radius > self.cell_size * (1 + 1e-12) and self.n_cells > 1:
            raise ValueError("query radius exceeds the grid cell side")
        query_points = np.asarray(query_points, dtype=float).reshape(-1, self.region.dim)
        nq = query_points.shape[0]
        if nq == 0 or self.points.shape[0] == 0:
            empty = np.empty(0, np.int64)
            return empty, empty, np.empty(0, float)
        qcells = self.cell_coords(query_points)
        out_q, out_p, out_d = [], [], []
        r2 = radius * radius
        wrap = self.region.kind == "torus"
        for offset in self._offset_range():
            shifted = qcells + np.asarray(offset, dtype=np.int64)
            if wrap:
                shifted %= self.n_cells
                valid = np.ones(nq, dtype=bool)
            else:
                valid = np.all((shifted >= 0) & (shifted < self.n_cells), axis=1)
            if not valid.any():
                continue
            keys = self._encode(shifted[valid])
            starts = np.searchsorted(self.sorted_keys, keys, side="left")
            ends = np.searchsorted(self.sorted_keys, keys, side="right")
            counts = ends - starts
            total = int(counts.sum())
            if total == 0:
                continue
            out_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            members = np.repeat(starts, counts) + (np.arange(total) - np.repeat(out_starts, counts))
            pi = self.order[members]
            qi = np.repeat(np.flatnonzero(valid), counts)
            sqd = self.region.sqdist(query_points[qi], self.points[pi])
            keep = sqd <= r2
            out_q.append(qi[keep])
            out_p.append(pi[keep])
            out_d.append(sqd[keep])
        if not out_q:
            empty = np.empty(0, np.int64)
            return empty, empty, np.empty(0, float)
        return np.concatenate(out_q), np.concatenate(out_p), np.concatenate(out_d)

    def self_pairs(self, radius: float):
        """All unordered own pairs (i < j, sqdist) with distance <= radius."""
        qi, pj, sqd = self.pairs_against(self.points, radius)
        keep = qi < pj
        return qi[keep], pj[keep], sqd[keep]


class DisjointSets:
    """Union-find over vertex indices with component counting."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i: int, j: int) -> bool:
        """Merge the sets of i and j; True iff two components became one."""
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]
        self.count -= 1
        return True


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

    @cached_property
    def adjacency(self) -> list:
        return _adjacency_lists(self.n_vertices, np.concatenate([self.edges_u, self.edges_v]),
                                np.concatenate([self.edges_v, self.edges_u]))

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

    @cached_property
    def adjacency_left(self) -> list:
        """Per-left-vertex arrays of right-vertex indices."""
        return _adjacency_lists(self.n_left, self.edges_left, self.edges_right)

    @cached_property
    def adjacency_right(self) -> list:
        return _adjacency_lists(self.n_right, self.edges_right, self.edges_left)

    def degrees(self) -> np.ndarray:
        dl = np.bincount(self.edges_left, minlength=self.n_left)
        dr = np.bincount(self.edges_right, minlength=self.n_right)
        return np.concatenate([dl, dr])

    def vertex_coords(self) -> np.ndarray:
        return np.concatenate([self.left.points, self.right.points])

    def to_edge_csv(self, path) -> None:
        from .reporting import write_csv

        rows = list(zip(self.edges_left.tolist(), self.edges_right.tolist()))
        write_csv(path, ["left_index", "right_index"], rows)


def _adjacency_lists(n: int, src: np.ndarray, dst: np.ndarray) -> list:
    if n == 0:
        return []
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=n)
    splits = np.cumsum(counts)[:-1]
    parts = np.split(dst, splits)
    return [np.sort(p) for p in parts]


def bipartite_edges(X: PointPattern, Y: PointPattern, r: float):
    """Edge arrays (xi, yi, sqdist) of the bipartite graph at radius r."""
    if X.region != Y.region:
        raise ValueError("patterns must share a region")
    if r <= 0:
        raise ValueError("radius must be positive")
    if len(X) == 0 or len(Y) == 0:
        empty = np.empty(0, np.int64)
        return empty, empty, np.empty(0, float)
    grid = NeighborGrid(Y.points, r, X.region)
    return grid.pairs_against(X.points, r)


def unigraph_edges(X: PointPattern, s: float):
    """Edge arrays (i, j, sqdist), i < j, of the one-type graph at threshold s."""
    if s <= 0:
        raise ValueError("threshold must be positive")
    if len(X) < 2:
        empty = np.empty(0, np.int64)
        return empty, empty, np.empty(0, float)
    grid = NeighborGrid(X.points, s, X.region)
    return grid.self_pairs(s)


def build_bipartite(X: PointPattern, Y: PointPattern, r: float) -> BipartiteGraph:
    """Bipartite graph with an edge for every cross pair at distance <= r."""
    xi, yi, _ = bipartite_edges(X, Y, r)
    return BipartiteGraph(X, Y, float(r), xi, yi)


def build_unigraph(X: PointPattern, s: float) -> Graph:
    """One-type graph with an edge for every pair at distance <= s."""
    ui, vi, _ = unigraph_edges(X, s)
    return Graph(X, float(s), ui, vi)


def components(graph):
    """Connected-component labels and component count.

    For a bipartite graph, labels cover left vertices then right vertices.
    """
    if isinstance(graph, BipartiteGraph):
        nv = graph.n_vertices
        src = graph.edges_left
        dst = graph.edges_right + graph.n_left
    else:
        nv = graph.n_vertices
        src, dst = graph.edges_u, graph.edges_v
    if nv == 0:
        return np.empty(0, dtype=np.int32), 0
    data = np.ones(len(src), dtype=np.int8)
    adj = coo_matrix((data, (src, dst)), shape=(nv, nv))
    count, labels = connected_components(adj, directed=False)
    return labels, int(count)


def build_g1(X: PointPattern, Y: PointPattern, r: float, max_work: int = 20_000_000) -> Graph:
    """Graph on X joining pairs that share at least one Y neighbor at radius r.

    Swap the arguments to obtain the companion graph on Y. Intended for
    moderate sizes; connectivity queries at scale should use
    :func:`is_connected_g1`, which avoids materializing these edges.
    """
    bip = build_bipartite(X, Y, r)
    work = sum(len(a) ** 2 for a in bip.adjacency_right)
    if work > max_work:
        raise ResourceLimitError("shared-neighbor edge construction too large")
    edges = set()
    for nbrs in bip.adjacency_right:
        nbrs = nbrs.tolist()
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                edges.add((nbrs[i], nbrs[j]))
    if edges:
        eu, ev = map(np.asarray, zip(*sorted(edges)))
    else:
        eu = ev = np.empty(0, np.int64)
    return Graph(X, float(r), eu, ev)


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


def min_degree(graph) -> int:
    """Minimum vertex degree. Raises on an empty vertex set."""
    if graph.n_vertices == 0:
        raise ValueError("minimum degree undefined for an empty vertex set")
    return int(graph.degrees().min())


def crossing_prefix_length(pattern: PointPattern, s: float) -> int | None:
    """Smallest k whose first k points span the box in the graph at distance s.

    Spanning is the event of :func:`crossing_exists` (first axis, margin s)
    on the one-type graph of ``pattern.points[:k]``; it is monotone in k.
    Point i arrives at step i + 1; a pair, and the link of a margin point to
    a super source (low face) or super sink (high face), is present from the
    later arrival of its ends. The answer is the bottleneck of the minimax
    source-sink path, read off a minimum spanning tree. None when the whole
    pattern does not span.
    """
    region = pattern.region
    if region.kind != "box":
        raise ValueError("crossing is undefined on a torus")
    n = len(pattern)
    coords = pattern.points[:, 0]
    low = np.flatnonzero(coords <= s)
    high = np.flatnonzero(coords >= region.side - s)
    if low.size == 0 or high.size == 0:
        return None
    # a spanning path has a hop across every empty gap of the axis
    # coordinates that separates its ends, and no pair across a gap whose
    # float square exceeds s*s passes the d2 <= s*s predicate
    xs = np.sort(coords)
    gaps = np.diff(xs)
    if np.any((gaps * gaps > s * s) & (xs[1:] > s) & (xs[:-1] < region.side - s)):
        return None
    ui, vi, _ = unigraph_edges(pattern, s)
    source, sink = n, n + 1
    rows = np.concatenate([ui, np.full(low.size, source), np.full(high.size, sink)])
    cols = np.concatenate([vi, low, high])
    steps = np.concatenate([np.maximum(ui, vi), low, high]) + 1
    tree = minimum_spanning_tree(coo_matrix((steps, (rows, cols)), shape=(n + 2, n + 2)))
    _, pred = breadth_first_order(tree, source, directed=False, return_predecessors=True)
    if pred[sink] < 0:
        return None
    # every tree edge weighs the later arrival of its ends, so the bottleneck
    # is the latest point on the path
    latest, v = -1, int(pred[sink])
    while v != source:
        latest = max(latest, v)
        v = int(pred[v])
    return latest + 1


def crossing_exists(graph, axis: int = 0, margin: float | None = None) -> bool:
    """Whether some component spans the box along ``axis``.

    A component spans when it holds a vertex with coordinate <= margin and
    one with coordinate >= side - margin; the margin defaults to the graph's
    connection radius. Undefined (and rejected) on a torus.
    """
    if isinstance(graph, BipartiteGraph):
        region = graph.left.region
    else:
        region = graph.pattern.region
    if region.kind != "box":
        raise ValueError("crossing is undefined on a torus")
    if margin is None:
        margin = graph.radius
    if graph.n_vertices == 0:
        return False
    coords = graph.vertex_coords()[:, axis]
    labels, _ = components(graph)
    low = labels[coords <= margin]
    high = labels[coords >= region.side - margin]
    if low.size == 0 or high.size == 0:
        return False
    return bool(np.intersect1d(low, high).size > 0)
