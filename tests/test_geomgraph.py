import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abperc import (
    Graph,
    NeighborGrid,
    PointPattern,
    Region,
    build_bipartite,
    build_unigraph,
    crossing_exists,
    crossing_steps,
    geomgraph,
    is_connected_g1,
    radius_for_sqdist,
)
from abperc.geomgraph import _within, bottleneck
from conftest import (
    bfs_components,
    bipartite_adjacency,
    bottleneck_oracle,
    brute_force_pairs,
    brute_force_self_pairs,
    build_g1,
    graph_components,
    min_degree,
    random_pattern,
)


def prefix_length(X, s):
    """Smallest k whose first k points span the box at distance s."""
    (k,) = crossing_steps([(build_unigraph(X, s), np.arange(1, len(X) + 1))])
    return k


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


def adversarial_points(data, region, max_size=30):
    """Draw points on a lattice of spacing side/8, so that many pairs lie exactly
    a lattice multiple apart and many points coincide, mixed with points whose
    coordinates may also lie just below the far face (next to the torus wrap)
    or anywhere."""
    side = region.side
    lattice = st.integers(0, 7).map(lambda c: c * side / 8)
    coord = st.one_of(lattice, st.sampled_from([math.nextafter(side, 0.0), side * (1 - 1e-15)]),
                      st.floats(0.0, side, exclude_max=True))
    point = st.tuples(*[lattice] * region.dim) | st.tuples(*[coord] * region.dim)
    points = data.draw(st.lists(point, max_size=max_size))
    return np.array(points, dtype=float).reshape(-1, region.dim)


class TestNeighborGrid:
    def test_pairs_match_brute_force(self, unit_square):
        rng = np.random.default_rng(2)
        for trial in range(20):
            na, nb = rng.integers(0, 60, size=2)
            a, b = rng.random((na, 2)), rng.random((nb, 2))
            radius = float(rng.uniform(0.02, 0.6))
            grid = NeighborGrid(b, unit_square)
            qi, pj, sqd = grid.pairs_against(a, radius)
            got = sorted(zip(qi.tolist(), pj.tolist()))
            assert got == brute_force_pairs(unit_square, a, b, radius)
            assert np.all(sqd <= radius * radius)

    def test_pairs_match_brute_force_on_torus(self):
        region = Region("torus", 1.0, 2)
        rng = np.random.default_rng(3)
        for radius in (0.05, 0.2, 0.45, 0.9):
            a, b = rng.random((40, 2)), rng.random((40, 2))
            grid = NeighborGrid(b, region)
            qi, pj, _ = grid.pairs_against(a, radius)
            got = sorted(zip(qi.tolist(), pj.tolist()))
            assert got == brute_force_pairs(region, a, b, radius)

    def test_distance_ties_included(self, unit_square):
        # points exactly at the query radius share an edge (closed ball)
        pts = np.array([[0.25, 0.5]])
        grid = NeighborGrid(pts, unit_square)
        qi, pj, sqd = grid.pairs_against(np.array([[0.5, 0.5]]), 0.25)
        assert len(qi) == 1 and sqd[0] == 0.0625

    def test_single_cell_grid_accepts_any_radius(self, unit_square):
        # no radius cap applies: beyond the diagonal every pair is found
        rng = np.random.default_rng(21)
        pts = rng.random((12, 2))
        grid = NeighborGrid(pts, unit_square)
        qi, pj, _ = grid.pairs_against(pts, 2.0)
        assert len(qi) == 144  # complete bipartite with itself, self included

    def test_torus_large_radius_full_scan(self):
        region = Region("torus", 1.0, 2)
        rng = np.random.default_rng(22)
        pts = rng.random((15, 2))
        radius = region.max_distance
        grid = NeighborGrid(pts, region)
        qi, pj, _ = grid.pairs_against(pts, radius)
        assert len(qi) == 225  # every pair is within the torus diameter

    # each drawn point also gets a copy moved one radius along an axis (and
    # wrapped): exactly r apart for lattice radii, near-ties otherwise, across
    # the wrap on a torus. The powers of ten reach 1e-15*side, where only
    # coinciding points and points across the wrap pair up.
    @given(data=st.data(), kind=st.sampled_from(["box", "torus"]), d=st.sampled_from([2, 3]),
           side=st.sampled_from([1.0, 4.0, 6.5]))
    @settings(max_examples=300)
    def test_pairs_match_brute_force_on_adversarial_patterns(self, data, kind, d, side):
        region = Region(kind, side, d)
        h = side / 8
        radius = data.draw(st.sampled_from([h, 2 * h, 3 * h, math.sqrt(2) * h, side])
                           | st.integers(1, 15).map(lambda k: side * 10.0**-k))
        a = adversarial_points(data, region)
        moved = a.copy()
        axis = data.draw(st.integers(0, d - 1))
        moved[:, axis] = (moved[:, axis] + radius) % side
        a, b = np.vstack([a, moved]), np.vstack([adversarial_points(data, region), moved])
        qi, pj, sqd = NeighborGrid(b, region).pairs_against(a, radius)
        assert sorted(zip(qi.tolist(), pj.tolist())) == brute_force_pairs(region, a, b, radius)
        assert np.array_equal(sqd, region.sqdist(a[qi], b[pj]))
        graph = build_unigraph(PointPattern(region, a), radius)
        got = sorted(zip(graph.edges_u.tolist(), graph.edges_v.tolist()))
        assert got == brute_force_self_pairs(region, a, radius)


class TestWithin:
    # b holds copies of a's points moved along an axis, across the wrap on a
    # torus, beside points at 0 and just below side; chunks of 7 candidates
    # split every check
    @given(data=st.data(), kind=st.sampled_from(["box", "torus"]), d=st.sampled_from([1, 2, 3]),
           side=st.sampled_from([1.0, 4.0, 6.5]))
    @settings(max_examples=300)
    def test_sqdist_is_region_sqdist_bit_for_bit(self, data, kind, d, side):
        region = Region(kind, side, d)
        a = adversarial_points(data, region)
        shift = data.draw(st.sampled_from([side / 8, side / 2, side * (1 - 1e-15)])
                          | st.floats(0.0, side, exclude_max=True))
        moved, axis = a.copy(), data.draw(st.integers(0, d - 1))
        moved[:, axis] = (moved[:, axis] + shift) % side
        b = np.vstack([adversarial_points(data, region), moved])
        i, j = (k.ravel() for k in np.meshgrid(np.arange(len(a)), np.arange(len(b)),
                                               indexing="ij"))
        radius = data.draw(st.sampled_from([side / 8, side / 4, math.sqrt(2) * side / 8, side])
                           | st.floats(0.0, side))
        with mock.patch.object(geomgraph, "_CHUNK", 7):
            ki, kj, sqd = _within(region, a, b, i, j, radius)
        full = region.sqdist(a[i], b[j])
        # the whole-row formula sums the per-axis squares in the same order
        delta = np.abs(a[i] - b[j])
        if kind == "torus":
            delta = np.minimum(delta, side - delta)
        assert np.array_equal(full, np.sum(delta * delta, axis=-1))
        keep = full <= radius * radius
        assert np.array_equal(ki, i[keep]) and np.array_equal(kj, j[keep])
        assert np.array_equal(sqd, full[keep])
        assert np.array_equal(sqd, region.sqdist(a, b, ki, kj))


class TestBipartite:
    def test_boundary_distance_counts(self, unit_square):
        X = PointPattern(unit_square, np.array([[0.0, 0.0]]))
        Y = PointPattern(unit_square, np.array([[0.5, 0.0]]))
        graph = build_bipartite(X, Y, 0.5)
        assert len(graph.edges_u) == 1

    def test_empty_side_no_edges(self, unit_square):
        X = random_pattern(np.random.default_rng(4), 10)
        Y = PointPattern(unit_square, np.empty((0, 2)))
        graph = build_bipartite(X, Y, 0.3)
        assert len(graph.edges_u) == 0

    def test_matches_brute_force(self, unit_square):
        rng = np.random.default_rng(5)
        X = random_pattern(rng, 50)
        Y = random_pattern(rng, 50)
        graph = build_bipartite(X, Y, 0.17)
        got = sorted(zip(graph.edges_u.tolist(), (graph.edges_v - len(X)).tolist()))
        assert got == brute_force_pairs(unit_square, X.points, Y.points, 0.17)

    def test_mismatched_regions_rejected(self, unit_square):
        X = random_pattern(np.random.default_rng(7), 5)
        other = Region("box", 2.0, 2)
        Y = PointPattern(other, np.random.default_rng(8).random((5, 2)))
        with pytest.raises(ValueError):
            build_bipartite(X, Y, 0.2)


    @pytest.mark.parametrize("r", [0.0, -0.1, math.nan, math.inf])
    def test_non_positive_or_non_finite_radius_rejected(self, unit_square, r):
        # an infinite radius would ask the tree for every pair at any size
        X = random_pattern(np.random.default_rng(9), 5)
        with pytest.raises(ValueError, match="radius"):
            build_bipartite(X, X, r)
        with pytest.raises(ValueError, match="threshold"):
            build_unigraph(X, r)


class TestUnigraph:
    def test_two_points_at_threshold(self, unit_square):
        X = PointPattern(unit_square, np.array([[0.1, 0.1], [0.6, 0.1]]))
        graph = build_unigraph(X, 0.5)
        assert len(graph.edges_u) == 1

    def test_singleton_no_edges(self, unit_square):
        X = PointPattern(unit_square, np.array([[0.5, 0.5]]))
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
            _, count = graph_components(graph)
            counts.append(count)
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestComponents:
    def test_edgeless_graph(self, unit_square):
        X = random_pattern(np.random.default_rng(11), 5)
        labels, count = graph_components(build_unigraph(X, 1e-9))
        assert count == 5 and len(set(labels.tolist())) == 5

    def test_path_graph(self, unit_square):
        # exact binary spacing so consecutive distances equal the threshold
        pts = np.array([[0.125 * k, 0.0] for k in range(6)])
        X = PointPattern(unit_square, pts)
        _, count = graph_components(build_unigraph(X, 0.125))
        assert count == 1

    def test_matches_bfs_oracle(self, unit_square):
        rng = np.random.default_rng(12)
        for _ in range(10):
            X = random_pattern(rng, int(rng.integers(1, 40)))
            Y = random_pattern(rng, int(rng.integers(1, 40)))
            graph = build_bipartite(X, Y, float(rng.uniform(0.05, 0.4)))
            labels, count = graph_components(graph)
            adj = bipartite_adjacency(unit_square, X.points, Y.points, graph.radius)
            want_labels, want_count = bfs_components(len(X) + len(Y), adj)
            assert count == want_count
            # same partition, possibly different label names
            mapping = {}
            for got, want in zip(labels.tolist(), want_labels):
                assert mapping.setdefault(got, want) == want


class TestSharedNeighborGraph:
    def test_shared_point_makes_edge(self, unit_square):
        X = PointPattern(unit_square, np.array([[0.0, 0.0], [0.99, 0.0]]))
        Y = PointPattern(unit_square, np.array([[0.5, 0.0]]))
        graph = build_g1(X, Y, 0.5)
        assert len(graph.edges_u) == 1

    def test_empty_helper_side_gives_edgeless(self, unit_square):
        X = random_pattern(np.random.default_rng(13), 8)
        Y = PointPattern(unit_square, np.empty((0, 2)))
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
                labels, count = graph_components(build_g1(X, Y, r))
                via_graph = count == 1
            assert is_connected_g1(X, Y, r) == via_graph

    def test_trivial_sizes(self, unit_square):
        single = random_pattern(np.random.default_rng(16), 1)
        empty = PointPattern(unit_square, np.empty((0, 2)))
        two = random_pattern(np.random.default_rng(17), 2)
        assert is_connected_g1(single, empty, 0.1)
        assert is_connected_g1(empty, empty, 0.1)
        assert not is_connected_g1(two, empty, 0.1)


class TestMinDegree:
    def test_edgeless_and_complete(self, unit_square):
        X = random_pattern(np.random.default_rng(18), 5)
        assert min_degree(build_unigraph(X, 1e-9)) == 0
        pts = np.array([[0.5, 0.5], [0.51, 0.5], [0.5, 0.51], [0.51, 0.51]])
        K4 = PointPattern(unit_square, pts)
        assert min_degree(build_unigraph(K4, 0.1)) == 3

    def test_empty_vertex_set_rejected(self, unit_square):
        empty = PointPattern(unit_square, np.empty((0, 2)))
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
        X = PointPattern(unit_square, np.array([[0.1, 0.1], [0.9, 0.9]]))
        Y = PointPattern(unit_square, np.array([[0.12, 0.1]]))
        assert min_degree(build_g1(X, Y, 0.05)) == 0


class TestBottleneck:
    # few distinct weights make ties common; few edges on up to 12 vertices
    # leave some terminals unreachable; each (u, v) is drawn at most once
    @given(data=st.data(), n=st.integers(1, 12), real=st.booleans())
    @settings(max_examples=300)
    def test_matches_sorted_union_find(self, data, n, real):
        u, v, weights, terminals = random_weighted_graph(data, n, real)
        want = bottleneck_oracle(n, u.tolist(), v.tolist(), weights, terminals)
        got = bottleneck(n, u, v, np.array(weights, dtype=float), [terminals])
        assert got.tolist() == [math.inf if want is None else want]

    def test_empty_and_single_edge_graphs(self):
        none = np.empty(0, dtype=np.int64)
        assert bottleneck(3, none, none, np.empty(0), [[0, 2]]).tolist() == [math.inf]
        assert bottleneck(3, none, none, np.empty(0), [[1]]).tolist() == [0]
        one = np.array([2], dtype=np.int64)
        assert bottleneck(3, np.array([0]), one, np.array([0.5]), [[0, 2]]).tolist() == [0.5]
        assert bottleneck(3, np.array([0]), one, np.array([0.5]), [[0, 1]]).tolist() == [math.inf]
        assert bottleneck(3, np.array([0]), one, np.array([0.5]), [[0, 2], [1]]).tolist() == \
            [0.5, 0]

    # one call on the disjoint union answers each graph's group as if alone
    @given(data=st.data(), sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
           real=st.booleans())
    @settings(max_examples=200)
    def test_disjoint_union_matches_each_graph(self, data, sizes, real):
        us, vs, ws, groups, want = [], [], [], [], []
        offset = 0
        for n in sizes:
            u, v, weights, terminals = random_weighted_graph(data, n, real)
            answer = bottleneck_oracle(n, u.tolist(), v.tolist(), weights, terminals)
            want.append(math.inf if answer is None else answer)
            us.append(u + offset)
            vs.append(v + offset)
            ws += weights
            groups.append([t + offset for t in terminals])
            offset += n
        got = bottleneck(offset, np.concatenate(us), np.concatenate(vs),
                         np.array(ws, dtype=float), groups)
        assert got.tolist() == want


def random_weighted_graph(data, n, real):
    """(u, v, weights, terminals) on vertices 0..n-1, each (u, v) drawn at most once."""
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=20, unique=True))
    weight = st.floats(1e-300, 1e300) if real else st.integers(1, 4)
    weights = data.draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    terminals = data.draw(st.lists(vertex, min_size=1, max_size=5))
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    return u, v, weights, terminals


class TestCrossing:
    def test_single_midbox_point(self):
        region = Region("box", 10.0, 2)
        X = PointPattern(region, np.array([[5.0, 5.0]]))
        assert not crossing_exists(build_unigraph(X, 1.0))

    def test_constructed_spanning_chain(self):
        region = Region("box", 10.0, 2)
        xs = np.arange(0.25, 10.0, 0.5)
        pts = np.column_stack([xs, np.full_like(xs, 5.0)])
        X = PointPattern(region, pts)
        assert crossing_exists(build_unigraph(X, 1.0))

    def test_torus_rejected(self):
        region = Region("torus", 10.0, 2)
        X = PointPattern(region, np.array([[5.0, 5.0]]))
        with pytest.raises(ValueError):
            crossing_exists(build_unigraph(X, 1.0))

    def test_matches_bfs_from_left_face(self):
        region = Region("box", 8.0, 2)
        rng = np.random.default_rng(20)
        hits = 0
        for _ in range(25):
            n = int(rng.integers(30, 120))
            X = PointPattern(region, rng.random((n, 2)) * 8.0)
            graph = build_unigraph(X, 1.0)
            got = crossing_exists(graph)
            adj = [[] for _ in range(n)]
            for u, v in zip(graph.edges_u.tolist(), graph.edges_v.tolist()):
                adj[u].append(v)
                adj[v].append(u)
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
            X = PointPattern(region, rng.random((n, 2)) * 8.0)
            want = next((k for k in range(1, n + 1) if crossing_exists(
                build_unigraph(PointPattern(region, X.points[:k]), 1.0))), None)
            assert prefix_length(X, 1.0) == want
            hits += want is not None
        assert 0 < hits < 30

    def test_prefix_length_of_chain_and_edge_cases(self):
        region = Region("box", 10.0, 2)
        xs = 0.5 + 0.9 * np.arange(11)
        chain = np.column_stack([xs, np.full_like(xs, 5.0)])
        # a far point first, then a chain with no skippable link: crossing
        # needs every chain point
        pts = np.vstack([[[5.0, 9.5]], chain])
        X = PointPattern(region, pts)
        assert prefix_length(X, 1.0) == len(pts)
        assert prefix_length(PointPattern(region, chain[::-1]), 1.0) == len(chain)
        assert prefix_length(PointPattern(region, np.empty((0, 2))), 1.0) is None
        # neighbours exactly s apart along the axis connect; one float wider
        # and the chain breaks
        xs = np.arange(0.5, 10.0, 1.0)
        tight = np.column_stack([xs, np.full_like(xs, 5.0)])
        assert prefix_length(PointPattern(region, tight), 1.0) == len(xs)
        tight[5, 0] = np.nextafter(tight[5, 0], 10.0)
        broken = PointPattern(region, tight)
        assert prefix_length(broken, 1.0) is None
        assert not crossing_exists(build_unigraph(broken, 1.0))
        # one point in both margins spans on its own
        narrow = Region("box", 4.0, 2)
        assert prefix_length(PointPattern(narrow, [[3.0, 1.0], [2.0, 1.0]]), 2.0) == 2
        with pytest.raises(ValueError):
            prefix_length(PointPattern(Region("torus", 10.0, 2), chain), 1.0)

    # coordinates on a half-unit lattice put many pairs exactly at distance
    # 1.0 or at the margins, where the closed-ball predicate decides
    @given(data=st.data(), bipartite=st.booleans(), side=st.sampled_from([4.0, 5.0, 6.5]))
    def test_step_is_first_crossing_step(self, data, bipartite, side):
        region = Region("box", side, 2)
        cells = int(side * 2)
        coord = st.integers(0, cells - 1).map(lambda c: c * 0.5)
        points = st.lists(st.tuples(coord, coord), max_size=40)
        left = np.array(data.draw(points), dtype=float).reshape(-1, 2)
        right = np.array(data.draw(points) if bipartite else [], dtype=float).reshape(-1, 2)
        n = len(left) + len(right)
        steps = np.array(data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)),
                         dtype=np.int64)

        def graph_of(keep_left, keep_right):
            X = PointPattern(region, left[keep_left])
            if bipartite:
                return build_bipartite(X, PointPattern(region, right[keep_right]), 1.0)
            return build_unigraph(X, 1.0)

        everything = np.ones(n, dtype=bool)
        want = next((k for k in sorted(set(steps.tolist())) if crossing_exists(graph_of(
            (steps <= k)[:len(left)], (steps <= k)[len(left):]))), None)
        assert crossing_steps([(graph_of(everything[:len(left)], everything[len(left):]),
                                steps)]) == [want]

    # the kernel lists each edge with its later-arriving end as the row; the
    # answer must not depend on how a caller lists or numbers its edges
    @given(data=st.data(), bipartite=st.booleans())
    def test_step_ignores_edge_order_and_direction(self, data, bipartite):
        region = Region("box", 5.0, 2)
        coord = st.integers(0, 9).map(lambda c: c * 0.5)
        points = st.lists(st.tuples(coord, coord), max_size=40)
        X, Y = (PointPattern(region, np.array(data.draw(points), dtype=float).reshape(-1, 2))
                for _ in range(2))
        graph = build_bipartite(X, Y, 1.0) if bipartite else build_unigraph(X, 1.0)
        n = graph.n_vertices
        steps = np.array(data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)),
                         dtype=np.int64)
        order = np.array(data.draw(st.permutations(range(len(graph.edges_u)))), dtype=np.int64)
        flipped = Graph(region, graph.points, graph.radius, graph.edges_v[order],
                        graph.edges_u[order])
        assert crossing_steps([(flipped, steps)]) == crossing_steps([(graph, steps)])

    def test_one_call_matches_each_graph_alone(self):
        region = Region("box", 8.0, 2)
        rng = np.random.default_rng(22)
        pairs = []
        for n in (0, 1, 40, 60, 80, 100):
            X = PointPattern(region, rng.random((n, 2)) * 8.0)
            pairs.append((build_unigraph(X, 1.0), rng.integers(1, 30, size=n)))
        alone = [crossing_steps([pair])[0] for pair in pairs]
        assert crossing_steps(pairs) == alone
        assert crossing_steps(pairs[::-1]) == alone[::-1]
        assert any(k is None for k in alone) and any(k is not None for k in alone)

    def test_bipartite_crossing_uses_both_sides(self):
        region = Region("box", 8.0, 2)
        xa = np.arange(0.5, 8.0, 1.5)
        A = PointPattern(region, np.column_stack([xa, np.full_like(xa, 4.0)]))
        xb = np.arange(1.25, 8.0, 1.5)
        B = PointPattern(region, np.column_stack([xb, np.full_like(xb, 4.0)]))
        graph = build_bipartite(A, B, 0.8)
        assert crossing_exists(graph)
        assert not crossing_exists(build_bipartite(A, B, 0.7))
