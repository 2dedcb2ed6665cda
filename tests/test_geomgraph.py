import math

import numpy as np
import pytest

from abperc import (
    DisjointSets,
    NeighborGrid,
    PointPattern,
    Region,
    build_bipartite,
    build_g1,
    build_unigraph,
    components,
    crossing_exists,
    crossing_prefix_length,
    is_connected_g1,
    min_degree,
    radius_for_sqdist,
)
from conftest import (
    bfs_components,
    bipartite_adjacency,
    brute_force_pairs,
    brute_force_self_pairs,
    random_pattern,
)


class TestRadiusForSqdist:
    def test_minimal_covering_float(self):
        rng = np.random.default_rng(0)
        for sq in np.concatenate([rng.random(200) * 4, rng.random(200) * 1e-8]):
            r = radius_for_sqdist(sq)
            assert r * r >= sq
            down = math.nextafter(r, 0.0)
            assert down * down < sq

    def test_zero(self):
        assert radius_for_sqdist(0.0) == 0.0


class TestNeighborGrid:
    def test_every_point_in_exactly_one_bucket(self, unit_square):
        rng = np.random.default_rng(1)
        pts = rng.random((200, 2))
        grid = NeighborGrid(pts, 0.13, unit_square)
        assert sum(grid.bucket_counts().values()) == 200

    def test_pairs_match_brute_force(self, unit_square):
        rng = np.random.default_rng(2)
        for trial in range(20):
            na, nb = rng.integers(0, 60, size=2)
            a, b = rng.random((na, 2)), rng.random((nb, 2))
            radius = float(rng.uniform(0.02, 0.6))
            grid = NeighborGrid(b, radius, unit_square)
            qi, pj, sqd = grid.pairs_against(a, radius)
            got = sorted(zip(qi.tolist(), pj.tolist()))
            assert got == brute_force_pairs(unit_square, a, b, radius)
            assert np.all(sqd <= radius * radius)

    def test_pairs_match_brute_force_on_torus(self):
        region = Region("torus", 1.0, 2)
        rng = np.random.default_rng(3)
        for radius in (0.05, 0.2, 0.45, 0.9):
            a, b = rng.random((40, 2)), rng.random((40, 2))
            grid = NeighborGrid(b, radius, region)
            qi, pj, _ = grid.pairs_against(a, radius)
            got = sorted(zip(qi.tolist(), pj.tolist()))
            assert got == brute_force_pairs(region, a, b, radius)

    def test_distance_ties_included(self, unit_square):
        # points exactly at the query radius share an edge (closed ball)
        pts = np.array([[0.25, 0.5]])
        grid = NeighborGrid(pts, 0.25, unit_square)
        qi, pj, sqd = grid.pairs_against(np.array([[0.5, 0.5]]), 0.25)
        assert len(qi) == 1 and sqd[0] == 0.0625

    def test_radius_above_cell_side_rejected(self, unit_square):
        grid = NeighborGrid(np.zeros((1, 2)), 0.1, unit_square)
        with pytest.raises(ValueError):
            grid.pairs_against(np.zeros((1, 2)), 0.2)

    def test_single_cell_grid_accepts_any_radius(self, unit_square):
        # one cell per axis scans every pair, so no radius cap applies
        rng = np.random.default_rng(21)
        pts = rng.random((12, 2))
        grid = NeighborGrid(pts, 1.0, unit_square)
        qi, pj, _ = grid.pairs_against(pts, 2.0)
        assert len(qi) == 144  # complete bipartite with itself, self included

    def test_torus_large_radius_full_scan(self):
        region = Region("torus", 1.0, 2)
        rng = np.random.default_rng(22)
        pts = rng.random((15, 2))
        radius = region.max_distance
        grid = NeighborGrid(pts, radius, region)
        qi, pj, _ = grid.pairs_against(pts, radius)
        assert len(qi) == 225  # every pair is within the torus diameter


class TestDisjointSets:
    def test_union_find_invariants(self):
        ds = DisjointSets(6)
        assert ds.count == 6
        assert ds.union(0, 1)
        assert ds.count == 5
        assert not ds.union(0, 1)
        assert ds.count == 5
        assert ds.find(1) == ds.find(0)
        root = ds.find(1)
        assert ds.find(root) == root


class TestBipartite:
    def test_boundary_distance_counts(self, unit_square):
        X = PointPattern(unit_square, np.array([[0.0, 0.0]]), 1.0, 0)
        Y = PointPattern(unit_square, np.array([[0.5, 0.0]]), 1.0, 0)
        graph = build_bipartite(X, Y, 0.5)
        assert len(graph.edges_left) == 1

    def test_empty_side_no_edges(self, unit_square):
        X = random_pattern(np.random.default_rng(4), 10)
        Y = PointPattern(unit_square, np.empty((0, 2)), 0.0, 0)
        graph = build_bipartite(X, Y, 0.3)
        assert len(graph.edges_left) == 0

    def test_matches_brute_force(self, unit_square):
        rng = np.random.default_rng(5)
        X = random_pattern(rng, 50)
        Y = random_pattern(rng, 50)
        graph = build_bipartite(X, Y, 0.17)
        got = sorted(zip(graph.edges_left.tolist(), graph.edges_right.tolist()))
        assert got == brute_force_pairs(unit_square, X.points, Y.points, 0.17)

    def test_adjacency_symmetric(self, unit_square):
        rng = np.random.default_rng(6)
        X, Y = random_pattern(rng, 30), random_pattern(rng, 30)
        graph = build_bipartite(X, Y, 0.25)
        for i, nbrs in enumerate(graph.adjacency_left):
            for j in nbrs:
                assert i in graph.adjacency_right[j]

    def test_mismatched_regions_rejected(self, unit_square):
        X = random_pattern(np.random.default_rng(7), 5)
        other = Region("box", 2.0, 2)
        Y = PointPattern(other, np.random.default_rng(8).random((5, 2)), 5.0, 0)
        with pytest.raises(ValueError):
            build_bipartite(X, Y, 0.2)


class TestUnigraph:
    def test_two_points_at_threshold(self, unit_square):
        X = PointPattern(unit_square, np.array([[0.1, 0.1], [0.6, 0.1]]), 2.0, 0)
        graph = build_unigraph(X, 0.5)
        assert len(graph.edges_u) == 1

    def test_singleton_no_edges(self, unit_square):
        X = PointPattern(unit_square, np.array([[0.5, 0.5]]), 1.0, 0)
        assert len(build_unigraph(X, 0.5).edges_u) == 0

    def test_matches_brute_force(self, unit_square):
        rng = np.random.default_rng(9)
        X = random_pattern(rng, 50)
        graph = build_unigraph(X, 0.21)
        got = sorted(zip(graph.edges_u.tolist(), graph.edges_v.tolist()))
        assert got == brute_force_self_pairs(unit_square, X.points, 0.21)

    def test_edges_nondecreasing_in_radius(self, unit_square):
        rng = np.random.default_rng(10)
        X = random_pattern(rng, 40)
        previous = set()
        counts = []
        for radius in (0.05, 0.1, 0.2, 0.4, 0.8):
            graph = build_unigraph(X, radius)
            edges = set(zip(graph.edges_u.tolist(), graph.edges_v.tolist()))
            assert previous <= edges
            previous = edges
            _, count = components(graph)
            counts.append(count)
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestComponents:
    def test_edgeless_graph(self, unit_square):
        X = random_pattern(np.random.default_rng(11), 5)
        labels, count = components(build_unigraph(X, 1e-9))
        assert count == 5 and len(set(labels.tolist())) == 5

    def test_path_graph(self, unit_square):
        # exact binary spacing so consecutive distances equal the threshold
        pts = np.array([[0.125 * k, 0.0] for k in range(6)])
        X = PointPattern(unit_square, pts, 6.0, 0)
        _, count = components(build_unigraph(X, 0.125))
        assert count == 1

    def test_matches_bfs_oracle(self, unit_square):
        rng = np.random.default_rng(12)
        for _ in range(10):
            X = random_pattern(rng, int(rng.integers(1, 40)))
            Y = random_pattern(rng, int(rng.integers(1, 40)))
            graph = build_bipartite(X, Y, float(rng.uniform(0.05, 0.4)))
            labels, count = components(graph)
            adj = bipartite_adjacency(unit_square, X.points, Y.points, graph.radius)
            want_labels, want_count = bfs_components(len(X) + len(Y), adj)
            assert count == want_count
            # same partition, possibly different label names
            mapping = {}
            for got, want in zip(labels.tolist(), want_labels):
                assert mapping.setdefault(got, want) == want


class TestSharedNeighborGraph:
    def test_shared_point_makes_edge(self, unit_square):
        X = PointPattern(unit_square, np.array([[0.0, 0.0], [0.99, 0.0]]), 2.0, 0)
        Y = PointPattern(unit_square, np.array([[0.5, 0.0]]), 1.0, 0)
        graph = build_g1(X, Y, 0.5)
        assert len(graph.edges_u) == 1

    def test_empty_helper_side_gives_edgeless(self, unit_square):
        X = random_pattern(np.random.default_rng(13), 8)
        Y = PointPattern(unit_square, np.empty((0, 2)), 0.0, 0)
        assert len(build_g1(X, Y, 0.3).edges_u) == 0

    def test_matches_cubic_brute_force(self, unit_square):
        rng = np.random.default_rng(14)
        X, Y = random_pattern(rng, 30), random_pattern(rng, 30)
        r = 0.18
        graph = build_g1(X, Y, r)
        want = set()
        for i in range(30):
            for j in range(i + 1, 30):
                for y in Y.points:
                    if (unit_square.sqdist(X.points[i], y) <= r * r
                            and unit_square.sqdist(X.points[j], y) <= r * r):
                        want.add((i, j))
                        break
        assert set(zip(graph.edges_u.tolist(), graph.edges_v.tolist())) == want

    def test_connectivity_shortcut_matches_explicit_graph(self, unit_square):
        rng = np.random.default_rng(15)
        for _ in range(40):
            nx, ny = int(rng.integers(0, 25)), int(rng.integers(0, 25))
            X, Y = random_pattern(rng, nx), random_pattern(rng, ny)
            r = float(rng.uniform(0.05, 0.7))
            via_graph = True
            if nx > 1:
                labels, count = components(build_g1(X, Y, r))
                via_graph = count == 1
            assert is_connected_g1(X, Y, r) == via_graph

    def test_trivial_sizes(self, unit_square):
        single = random_pattern(np.random.default_rng(16), 1)
        empty = PointPattern(unit_square, np.empty((0, 2)), 0.0, 0)
        two = random_pattern(np.random.default_rng(17), 2)
        assert is_connected_g1(single, empty, 0.1)
        assert is_connected_g1(empty, empty, 0.1)
        assert not is_connected_g1(two, empty, 0.1)


class TestMinDegree:
    def test_edgeless_and_complete(self, unit_square):
        X = random_pattern(np.random.default_rng(18), 5)
        assert min_degree(build_unigraph(X, 1e-9)) == 0
        pts = np.array([[0.5, 0.5], [0.51, 0.5], [0.5, 0.51], [0.51, 0.51]])
        K4 = PointPattern(unit_square, pts, 4.0, 0)
        assert min_degree(build_unigraph(K4, 0.1)) == 3

    def test_empty_vertex_set_rejected(self, unit_square):
        empty = PointPattern(unit_square, np.empty((0, 2)), 0.0, 0)
        with pytest.raises(ValueError):
            min_degree(build_unigraph(empty, 0.1))

    def test_matches_brute_force_count(self, unit_square):
        rng = np.random.default_rng(19)
        X, Y = random_pattern(rng, 20), random_pattern(rng, 20)
        graph = build_g1(X, Y, 0.2)
        degs = [0] * 20
        for u, v in zip(graph.edges_u.tolist(), graph.edges_v.tolist()):
            degs[u] += 1
            degs[v] += 1
        assert min_degree(graph) == min(degs)

    def test_zero_when_some_vertex_uncovered(self, unit_square):
        X = PointPattern(unit_square, np.array([[0.1, 0.1], [0.9, 0.9]]), 2.0, 0)
        Y = PointPattern(unit_square, np.array([[0.12, 0.1]]), 1.0, 0)
        assert min_degree(build_g1(X, Y, 0.05)) == 0


class TestCrossing:
    def test_single_midbox_point(self):
        region = Region("box", 10.0, 2)
        X = PointPattern(region, np.array([[5.0, 5.0]]), 1.0, 0)
        assert not crossing_exists(build_unigraph(X, 1.0))

    def test_constructed_spanning_chain(self):
        region = Region("box", 10.0, 2)
        xs = np.arange(0.25, 10.0, 0.5)
        pts = np.column_stack([xs, np.full_like(xs, 5.0)])
        X = PointPattern(region, pts, 1.0, 0)
        assert crossing_exists(build_unigraph(X, 1.0))

    def test_torus_rejected(self):
        region = Region("torus", 10.0, 2)
        X = PointPattern(region, np.array([[5.0, 5.0]]), 1.0, 0)
        with pytest.raises(ValueError):
            crossing_exists(build_unigraph(X, 1.0))

    def test_matches_bfs_from_left_face(self):
        region = Region("box", 8.0, 2)
        rng = np.random.default_rng(20)
        hits = 0
        for _ in range(25):
            n = int(rng.integers(30, 120))
            X = PointPattern(region, rng.random((n, 2)) * 8.0, float(n), 0)
            graph = build_unigraph(X, 1.0)
            got = crossing_exists(graph)
            adj = [a.tolist() for a in graph.adjacency]
            seen = set()
            stack = [i for i in range(n) if X.points[i, 0] <= 1.0]
            seen.update(stack)
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            want = any(X.points[i, 0] >= 7.0 for i in seen)
            assert got == want
            hits += got
        assert 0 < hits < 25  # instances straddle both outcomes

    def test_prefix_length_is_first_crossing_prefix(self):
        region = Region("box", 8.0, 2)
        rng = np.random.default_rng(21)
        hits = 0
        for _ in range(30):
            n = int(rng.integers(20, 90))
            X = PointPattern(region, rng.random((n, 2)) * 8.0, float(n), 0)
            want = next((k for k in range(1, n + 1) if crossing_exists(
                build_unigraph(PointPattern(region, X.points[:k], 1.0, 0), 1.0))), None)
            assert crossing_prefix_length(X, 1.0) == want
            hits += want is not None
        assert 0 < hits < 30

    def test_prefix_length_of_chain_and_edge_cases(self):
        region = Region("box", 10.0, 2)
        xs = 0.5 + 0.9 * np.arange(11)
        chain = np.column_stack([xs, np.full_like(xs, 5.0)])
        # a far point first, then a chain with no skippable link: crossing
        # needs every chain point
        pts = np.vstack([[[5.0, 9.5]], chain])
        X = PointPattern(region, pts, 1.0, 0)
        assert crossing_prefix_length(X, 1.0) == len(pts)
        assert crossing_prefix_length(PointPattern(region, chain[::-1], 1.0, 0), 1.0) == len(chain)
        assert crossing_prefix_length(PointPattern(region, np.empty((0, 2)), 0.0, 0), 1.0) is None
        # neighbours exactly s apart along the axis connect; one float wider
        # and the chain breaks
        xs = np.arange(0.5, 10.0, 1.0)
        tight = np.column_stack([xs, np.full_like(xs, 5.0)])
        assert crossing_prefix_length(PointPattern(region, tight, 1.0, 0), 1.0) == len(xs)
        tight[5, 0] = np.nextafter(tight[5, 0], 10.0)
        broken = PointPattern(region, tight, 1.0, 0)
        assert crossing_prefix_length(broken, 1.0) is None
        assert not crossing_exists(build_unigraph(broken, 1.0))
        # one point in both margins spans on its own
        narrow = Region("box", 4.0, 2)
        assert crossing_prefix_length(PointPattern(narrow, [[3.0, 1.0], [2.0, 1.0]], 1.0, 0),
                                      2.0) == 2
        with pytest.raises(ValueError):
            crossing_prefix_length(PointPattern(Region("torus", 10.0, 2), chain, 1.0, 0), 1.0)

    def test_bipartite_crossing_uses_both_sides(self):
        region = Region("box", 8.0, 2)
        xa = np.arange(0.5, 8.0, 1.5)
        A = PointPattern(region, np.column_stack([xa, np.full_like(xa, 4.0)]), 1.0, 0)
        xb = np.arange(1.25, 8.0, 1.5)
        B = PointPattern(region, np.column_stack([xb, np.full_like(xb, 4.0)]), 1.0, 0)
        graph = build_bipartite(A, B, 0.8)
        assert crossing_exists(graph)
        assert not crossing_exists(build_bipartite(A, B, 0.7), margin=0.7)
