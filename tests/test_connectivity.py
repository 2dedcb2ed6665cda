import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abperc import (
    PointPattern,
    Region,
    ResourceLimitError,
    CoupledSampler,
    connectivity,
    is_connected_g1,
    lln_statistic,
    lln_sweep,
    min_degree_diagnostic,
    min_degree_sqradius,
    radius_for_sqdist,
    rho_threshold,
)
from abperc.connectivity import (ThresholdSample, radius_for_alpha, summarize_thresholds,
                                 threshold_trial)
from abperc.geomgraph import NeighborGrid, _kdtree, bipartite_edges, build_bipartite, components
from conftest import (brute_force_pairs, build_g1, graph_components, min_degree, random_pattern,
                      rho_oracle)


def one_block(X, Y, r):
    """All X-Y pairs within r as one block (yi, xi, sqd, block), the first four
    of what each block of ``connectivity._pair_blocks`` holds."""
    xi, yi, sqd = bipartite_edges(X, Y, r)
    return yi, xi, sqd, np.arange(len(Y))


def min_degree_sqdist(X, Y):
    """Minimum-degree squared radius of all X-Y pairs: the largest over X of
    each point's lightest star edge, the star edges made as one block."""
    link = np.full(len(X), np.inf)
    u, v, w = connectivity._star_edges(*one_block(X, Y, X.region.max_distance))
    np.minimum.at(link, u, w)
    np.minimum.at(link, v, w)
    return float(link.max())


def isolated_vertex(X, Y, r, cap=None):
    """Whether the shared-neighbor graph on X at r has an isolated vertex, read
    off the minimum-degree squared radius within ``cap`` >= r (default r)."""
    return min_degree_sqradius(X, Y, r if cap is None else cap) > r * r


LATTICE = st.integers(0, 7).map(lambda c: c / 8)
COORD = LATTICE | st.just(math.nextafter(1.0, 0.0)) | st.floats(0.0, 1.0, exclude_max=True)
POINT = st.tuples(LATTICE, LATTICE) | st.tuples(COORD, COORD)


@st.composite
def threshold_instances(draw):
    """(X, Y, initial_cap) on the unit box or torus.

    Two X points lie exactly symmetric about one Y point, so they tie at its
    smallest distance; alone, they are the nx = 2, ny = 1 instance. Otherwise
    more points follow, on a side/8 lattice (exact-distance ties) or anywhere,
    with duplicate X and Y points and X points placed on Y points.
    """
    region = Region(draw(st.sampled_from(["box", "torus"])), 1.0, 2)
    c = draw(st.tuples(st.integers(2, 5), st.integers(2, 5)))
    v = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
    xs = [((c[0] + v[0]) / 8, (c[1] + v[1]) / 8), ((c[0] - v[0]) / 8, (c[1] - v[1]) / 8)]
    ys = [(c[0] / 8, c[1] / 8)]
    if draw(st.booleans()):
        xs += draw(st.lists(POINT, max_size=12))
        ys += draw(st.lists(POINT, max_size=12))
        xs += draw(st.lists(st.sampled_from(xs + ys), max_size=3))
        ys += draw(st.lists(st.sampled_from(ys), max_size=3))
        xs, ys = draw(st.permutations(xs)), draw(st.permutations(ys))
    cap = draw(st.none() | st.floats(1e-6, 0.05))
    X = PointPattern(region, np.array(xs))
    return X, PointPattern(region, np.array(ys)), cap


class TestRhoThreshold:
    def test_two_points_one_helper(self, unit_square):
        X = PointPattern(unit_square, np.array([[0.0, 0.0], [1.0 - 1e-12, 0.0]]))
        Y = PointPattern(unit_square, np.array([[0.5, 0.0]]))
        rho = rho_threshold(X, Y)
        # the farther of the two A-B distances
        assert rho == pytest.approx(0.5, abs=1e-9)

    def test_trivial_sizes(self, unit_square):
        empty = PointPattern(unit_square, np.empty((0, 2)))
        single = random_pattern(np.random.default_rng(0), 1)
        two = random_pattern(np.random.default_rng(1), 2)
        assert rho_threshold(single, empty) == 0.0
        assert rho_threshold(empty, empty) == 0.0
        assert rho_threshold(two, empty) == math.inf

    def test_matches_candidate_scan_oracle(self, unit_square):
        rng = np.random.default_rng(2)
        for k in range(30):
            X = random_pattern(rng, int(rng.integers(2, 41)))
            Y = random_pattern(rng, int(rng.integers(1, 41)))
            assert rho_threshold(X, Y) == rho_oracle(X, Y)

    def test_matches_full_linear_scan_on_small_instances(self, unit_square):
        # exhaustive ascending scan over every candidate, no monotonicity used
        rng = np.random.default_rng(3)
        for _ in range(10):
            X = random_pattern(rng, int(rng.integers(2, 13)))
            Y = random_pattern(rng, int(rng.integers(1, 13)))
            from abperc import radius_for_sqdist

            d2 = unit_square.sqdist(X.points[:, None, :], Y.points[None, :, :])
            candidates = sorted({radius_for_sqdist(v) for v in d2.ravel()})
            want = math.inf
            for r in candidates:
                if is_connected_g1(X, Y, r):
                    want = r
                    break
            assert rho_threshold(X, Y) == want

    def test_connectivity_consistency(self, unit_square):
        rng = np.random.default_rng(4)
        for _ in range(20):
            X = random_pattern(rng, int(rng.integers(2, 30)))
            Y = random_pattern(rng, int(rng.integers(1, 30)))
            rho = rho_threshold(X, Y)
            assert is_connected_g1(X, Y, rho)
            assert not is_connected_g1(X, Y, math.nextafter(rho, 0.0))

    def test_monotone_in_patterns(self, unit_square):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = random_pattern(rng, 12)
            Y = random_pattern(rng, 12)
            rho = rho_threshold(X, Y)
            extra = PointPattern(unit_square, np.vstack([Y.points, rng.random((1, 2))]))
            assert rho_threshold(X, extra) <= rho
            fewer = PointPattern(unit_square, X.points[:-1])
            assert rho_threshold(fewer, Y) <= rho

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        base = Region("box", 1.0, 2)
        for c in (0.5, 3.0, 17.0):
            scaled = Region("box", c, 2)
            xs, ys = rng.random((15, 2)), rng.random((15, 2))
            X = PointPattern(base, xs)
            Y = PointPattern(base, ys)
            Xc = PointPattern(scaled, xs * c)
            Yc = PointPattern(scaled, ys * c)
            rho, rho_c = rho_threshold(X, Y), rho_threshold(Xc, Yc)
            assert rho_c == pytest.approx(c * rho, rel=1e-12)

    def test_small_initial_cap_still_exact(self, unit_square):
        rng = np.random.default_rng(7)
        X, Y = random_pattern(rng, 20), random_pattern(rng, 20)
        assert rho_threshold(X, Y, initial_cap=1e-6) == rho_threshold(X, Y)

    # a cap from 1e-6 forces cap doublings before the pairs connect X; blocks
    # of 1-3 Y points make every instance span several blocks
    @given(instance=threshold_instances(), block=st.integers(1, 3))
    @settings(max_examples=300)
    def test_matches_oracle_on_adversarial_patterns(self, instance, block):
        X, Y, cap = instance
        want = rho_oracle(X, Y)
        with mock.patch.object(connectivity, "_BLOCK", block):
            assert rho_threshold(X, Y, initial_cap=cap) == want
            # the min-degree radius is exact: the minimal float with no isolated X point
            rho_deg = radius_for_sqdist(min_degree_sqdist(X, Y))
            assert rho_deg <= want
            if rho_deg > 0:
                assert not isolated_vertex(X, Y, rho_deg)
                assert min_degree(build_g1(X, Y, rho_deg)) > 0
                below = math.nextafter(rho_deg, 0.0)
                assert below == 0 or isolated_vertex(X, Y, below)

    # a fold after every block of 1-3 Y points, so that each pass folds its
    # star edges in many batches against the running lower bound of deg2
    @given(instance=threshold_instances(), block=st.integers(1, 3))
    @settings(max_examples=200)
    def test_folded_in_small_batches_matches_oracle(self, instance, block):
        X, Y, cap = instance
        with mock.patch.multiple(connectivity, _BLOCK=block, _FOLD=0):
            assert rho_threshold(X, Y, initial_cap=cap) == rho_oracle(X, Y)

    def test_one_grid_per_call_across_cap_retries(self, unit_square, monkeypatch):
        rng = np.random.default_rng(14)
        X, Y = random_pattern(rng, 60), random_pattern(rng, 240)
        grids, caps = [], []
        sweep = connectivity._sweep_to_connectivity

        def grid(*args):
            grids.append(args)
            return NeighborGrid(*args)

        def spy(X, blocks, cap):
            caps.append(cap)
            return sweep(X, blocks, cap)

        monkeypatch.setattr(connectivity, "NeighborGrid", grid)
        monkeypatch.setattr(connectivity, "_sweep_to_connectivity", spy)
        monkeypatch.setattr(connectivity, "_BLOCK", 16)
        assert rho_threshold(X, Y, initial_cap=1e-3) == rho_oracle(X, Y)
        assert len(caps) > 2 and len(grids) == 1

    def test_cap_beyond_the_pair_budget_refused_before_any_query(self, unit_square,
                                                                 monkeypatch):
        def query(*args):
            raise AssertionError("a block was queried")

        rng = np.random.default_rng(15)
        X, Y = random_pattern(rng, 40), random_pattern(rng, 40)
        monkeypatch.setattr(NeighborGrid, "pairs_against", query)
        # 40 Y points meet 40 * 40 * pi * 0.3**2 = 452 X points within 0.3
        monkeypatch.setattr(connectivity, "MAX_EXPECTED_POINTS", 400)
        with pytest.raises(ResourceLimitError, match="^cap 0.3 gives 452 expected pairs"):
            min_degree_sqradius(X, Y, 0.3)
        with pytest.raises(ResourceLimitError, match="^cap 0.3 "):
            rho_threshold(X, Y, initial_cap=0.3)

    def test_fallback_joins_components_beyond_min_degree_radius(self, unit_square,
                                                                monkeypatch):
        # two clusters, each with its own Y points, joined only by a far Y bridge
        rng = np.random.default_rng(12)
        corners = ([0.1, 0.1], [0.8, 0.8])
        xs = np.vstack([np.add(c, 0.1 * rng.random((6, 2))) for c in corners])
        ys = np.vstack([np.add(c, 0.1 * rng.random((6, 2))) for c in corners] + [[0.5, 0.5]])
        X, Y = PointPattern(unit_square, xs), PointPattern(unit_square, ys)
        kernel, swept = connectivity.bottleneck, []

        def spy(n, u, v, weights, terminals):
            swept.append((u, v))
            return kernel(n, u, v, weights, terminals)

        monkeypatch.setattr(connectivity, "bottleneck", spy)
        rho_deg = radius_for_sqdist(min_degree_sqdist(X, Y))
        assert not is_connected_g1(X, Y, rho_deg)
        # blocks of 2 and 5 Y points split each cluster's Y points over several
        # blocks, so the same two components meet in more than one block
        for block in (connectivity._BLOCK, 2, 5):
            swept.clear()
            monkeypatch.setattr(connectivity, "_BLOCK", block)
            rho = rho_threshold(X, Y)
            assert rho == rho_oracle(X, Y) and rho_deg < rho
            # only pairs between two components at rho_deg are passed, each pair once
            assert swept
            for u, v in swept:
                assert np.all(u != v)
                assert len(set(zip(u.tolist(), v.tolist()))) == len(u)

    @pytest.mark.parametrize("repeats", [256, 300])
    def test_one_star_edge_repeated_beyond_int8(self, unit_square, repeats):
        # every Y point is nearer x0 than x1 and links them by the same star
        # edge, which the components pass meets once per Y point
        X = PointPattern(unit_square, np.array([[0.30, 0.5], [0.70, 0.5]]))
        ys = np.column_stack([np.linspace(0.40, 0.49, repeats), np.full(repeats, 0.5)])
        Y = PointPattern(unit_square, ys)
        u, v, w = connectivity._star_edges(*one_block(X, Y, unit_square.max_distance))
        assert u.tolist() == [0] * repeats and v.tolist() == [1] * repeats
        assert rho_threshold(X, Y) == rho_oracle(X, Y) == radius_for_sqdist(w.min())

    def test_mismatched_regions_rejected(self, unit_square):
        X = random_pattern(np.random.default_rng(8), 5)
        other = Region("box", 2.0, 2)
        Y = PointPattern(other, np.random.default_rng(9).random((5, 2)) * 2)
        with pytest.raises(ValueError):
            rho_threshold(X, Y)

    def test_torus_region_supported(self):
        region = Region("torus", 1.0, 2)
        rng = np.random.default_rng(10)
        X = PointPattern(region, rng.random((10, 2)))
        Y = PointPattern(region, rng.random((10, 2)))
        rho = rho_threshold(X, Y)
        assert 0 < rho <= region.max_distance
        assert is_connected_g1(X, Y, rho)


def pair_blocks_in(order_of):
    """``connectivity._pair_blocks`` with the Y points in the order ``order_of(Y)``.
    It knows no X point done before the last block, so each pass folds its
    star edges at the end; at the last block every X point is done."""
    def pair_blocks(X, Y):
        grid, order = NeighborGrid(X.points, X.region), order_of(Y)

        def blocks(r):
            for lo in range(0, len(order), connectivity._BLOCK):
                block = order[lo:lo + connectivity._BLOCK]
                last = lo + connectivity._BLOCK >= len(order)
                done = np.arange(len(X) if last else 0)
                yield (*grid.pairs_against(Y.points[block], r), block, done)

        return blocks

    return pair_blocks


def leaf_order(Y):
    return _kdtree(Y.points, Y.region).indices


def min_degree_sqdist_brute(X, Y):
    """The minimum-degree squared radius from the definition: x first has a
    shared neighbor at the smallest max(sqdist(x, y), sqdist(x', y)), x' != x."""
    d2 = X.region.sqdist(X.points[:, None, :], Y.points[None, :, :])
    link = np.full(len(X), np.inf)
    for x in range(len(X)):
        others = np.delete(d2, x, axis=0).min(axis=0)
        link[x] = np.maximum(d2[x], others).min()
    return float(link.max())


def same_partition(a, b):
    return np.array_equal(a[:, None] == a[None, :], b[:, None] == b[None, :])


class TestStarEdges:
    """Each Y point's star joins its X neighbors within any radius, so the
    star graph on X stands in for the bipartite graph at every radius."""

    @given(instance=threshold_instances(), block=st.integers(1, 3))
    @settings(max_examples=150)
    def test_fold_and_components_match_bipartite_graph(self, instance, block):
        X, Y, _ = instance
        region = X.region
        with mock.patch.object(connectivity, "_BLOCK", block):
            blocks = connectivity._pair_blocks(X, Y)(region.max_distance)
            edges = [connectivity._star_edges(*block[:4]) for block in blocks]
        u, v, w = (np.concatenate(side) for side in zip(*edges))
        assert u.dtype == v.dtype == np.int32 and np.all(u != v)
        assert min_degree_sqdist(X, Y) == min_degree_sqdist_brute(X, Y)
        link = np.full(len(X), np.inf)
        np.minimum.at(link, u, w)
        np.minimum.at(link, v, w)
        assert float(link.max()) == min_degree_sqdist_brute(X, Y)
        d2 = region.sqdist(X.points[:, None, :], Y.points[None, :, :])
        for r in sorted({radius_for_sqdist(sq) for sq in d2.ravel()} - {0.0}):
            on = w <= r * r
            star, _ = components(len(X), u[on], v[on])
            bipartite, _ = graph_components(build_bipartite(X, Y, r))
            assert same_partition(star, bipartite[:len(X)])


def tapped_linked(passes):
    """``connectivity._linked`` that appends to ``passes``, for each pass, its
    link array (final once the pass ends) and, for each block, its low, its
    done X points and their links then."""
    linked = connectivity._linked

    def spy(blocks, link):
        seen, record = [], []
        passes.append((link, record))

        def tap():
            for block in blocks:
                seen.append(block[4])
                yield block

        for u, v, w, low in linked(tap(), link):
            record.append((low, seen[-1], link[seen[-1]].copy(), w))
            yield u, v, w, low

    return spy


class TestStreamedFold:
    """An X point is done once every Y point of a cell that may hold one of its
    neighbours is streamed: its lightest star edge is then final, so the largest
    such is a lower bound ``low`` of the pass's deg2."""

    @given(instance=threshold_instances(), block=st.integers(1, 3))
    @settings(max_examples=150)
    def test_done_links_are_final_and_low_bounds_deg2(self, instance, block):
        X, Y, cap = instance
        passes = []
        with mock.patch.multiple(connectivity, _BLOCK=block, _linked=tapped_linked(passes)):
            assert rho_threshold(X, Y, initial_cap=cap) == rho_oracle(X, Y)
        for link, record in passes:
            lows = [low for low, *_ in record]
            assert lows == sorted(lows) and lows[-1] <= link.max()
            for low, done, at_done, _ in record:
                assert np.array_equal(at_done, link[done])
            # a pass stops early only once a done point has no star edge
            if lows[-1] < math.inf:
                assert sorted(np.concatenate([d for _, d, *_ in record]).tolist()) == \
                    list(range(len(X)))

    @pytest.mark.parametrize("kind", ["box", "torus"])
    def test_edges_fold_before_the_pass_ends(self, monkeypatch, kind):
        region = Region(kind, 1.0, 2)
        rng = np.random.default_rng(17)
        X = PointPattern(region, rng.random((400, 2)))
        Y = PointPattern(region, rng.random((1600, 2)))
        passes, folds = [], []
        fold = connectivity._fold_within

        def spy(labels, parts, bound):
            before = sum(len(w) for *_, w in parts)
            labels = fold(labels, parts, bound)
            folds.append((bound, before - sum(len(w) for *_, w in parts)))
            return labels

        # 32 blocks of 50 Y points in a grid of 6 x 6 cells
        monkeypatch.setattr(connectivity, "_BLOCK", 50)
        with mock.patch.object(connectivity, "_pair_blocks", pair_blocks_in(leaf_order)):
            want = rho_threshold(X, Y)  # every star edge folded at the end
        monkeypatch.setattr(connectivity, "_linked", tapped_linked(passes))
        monkeypatch.setattr(connectivity, "_fold_within", spy)
        # one pass at the first cap
        assert rho_threshold(X, Y) == want
        (link, record), = passes
        deg2 = link.max()
        assert len(record) == 32 and all(low <= deg2 for low, *_ in record)
        # most star edges are within the bound of their block, and several
        # folds merge edges before the last one, at deg2
        edges = sum(len(w) for *_, w in record)
        assert sum(int((w <= low).sum()) for low, _, _, w in record) > 0.5 * edges
        assert folds[-1][0] == deg2 and all(bound <= deg2 for bound, _ in folds)
        assert sum(1 for _, folded in folds[:-1] if folded) >= 2


class TestMinDegreeSqradius:
    """The star edges of weight <= r*r are the same at any cap >= r, so one
    fold at a cap answers the isolated-vertex question at every radius below."""

    @given(instance=threshold_instances(), block=st.integers(1, 3), data=st.data())
    @settings(max_examples=100)
    def test_isolated_vertex_at_every_radius_up_to_the_cap(self, instance, block, data):
        X, Y, _ = instance
        d2 = X.region.sqdist(X.points[:, None, :], Y.points[None, :, :])
        radii = sorted({radius_for_sqdist(sq) for sq in d2.ravel()} - {0.0})
        cap = data.draw(st.sampled_from([*radii, X.region.max_distance]))
        with mock.patch.object(connectivity, "_BLOCK", block):
            deg2 = min_degree_sqradius(X, Y, cap)
        # each candidate radius, and the float just below it
        for r in {s for r in radii if r <= cap for s in (r, math.nextafter(r, 0.0)) if s > 0}:
            assert (deg2 > r * r) == (min_degree(build_g1(X, Y, r)) == 0)


class TestNestedPrefixes:
    """More Y points only add shared neighbors, so the threshold cannot rise."""

    @given(instance=threshold_instances(), block=st.integers(1, 3))
    @settings(max_examples=100)
    def test_threshold_non_increasing_as_y_grows(self, instance, block):
        X, Y, cap = instance
        with mock.patch.object(connectivity, "_BLOCK", block):
            rhos = [rho_threshold(X, PointPattern(X.region, Y.points[:k]), initial_cap=cap)
                    for k in range(len(Y) + 1)]
        assert rhos[0] == math.inf
        assert all(a >= b for a, b in zip(rhos, rhos[1:]))

    @pytest.mark.parametrize("kind", ["box", "torus"])
    def test_coupled_b_prefixes(self, kind):
        region = Region(kind, 1.0, 2)
        for trial in range(5):
            sampler_a, sampler_b = (CoupledSampler(region, 8, stream, path=(0, trial))
                                    for stream in "AB")
            X = sampler_a.prefix(200.0)
            rhos = [rho_threshold(X, sampler_b.prefix(mu)) for mu in (50.0, 200.0, 800.0, 3200.0)]
            assert rhos == sorted(rhos, reverse=True) and rhos[-1] < rhos[0]


def assert_stable_cell_order(region, ys, block):
    X, Y = PointPattern(region, ys[:1]), PointPattern(region, ys)
    with mock.patch.object(connectivity, "_BLOCK", block):
        blocks = connectivity._pair_blocks(X, Y)(region.side * 1e-3)
        order = np.concatenate([ids for *_, ids, _ in blocks])
    per_axis = max(1, round((len(Y) / block) ** (1 / region.dim)))
    cells = np.minimum((ys * (per_axis / region.side)).astype(np.int64), per_axis - 1)
    want = np.argsort(cells @ per_axis ** np.arange(region.dim), kind="stable")
    assert np.array_equal(order, want)


class TestPairBlocks:
    # blocks of one point and 5**d Y points, one per cell, make a grid of 5
    # cells per axis, in which nextafter(6.5, 0) * (5 / 6.5) rounds up to 5,
    # past the top cell; the points of each outer layer sit on its outer face
    @pytest.mark.parametrize("kind", ["box", "torus"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_y_point_once_in_cell_order(self, monkeypatch, kind, d):
        side, r = 6.5, 2.0
        region, top = Region(kind, side, d), math.nextafter(side, 0.0)
        assert int(top * (5 / side)) == 5
        rng = np.random.default_rng(d)
        cell = np.indices((5,) * d).reshape(d, -1).T
        ys = (cell + rng.uniform(0.1, 0.9, cell.shape)) * (side / 5)
        ys[cell == 0], ys[cell == 4] = 0.0, top
        X, Y = PointPattern(region, rng.random((8, d)) * side), PointPattern(region, ys)
        monkeypatch.setattr(connectivity, "_BLOCK", 1)
        blocks = list(connectivity._pair_blocks(X, Y)(r))
        order = np.concatenate([block for *_, block, _ in blocks])
        assert sorted(order.tolist()) == list(range(len(Y)))
        cells = np.minimum((ys[order] * (5 / side)).astype(int), 4)
        assert np.all(np.diff(cells @ 5 ** np.arange(d)) >= 0)
        for yi, xi, sqd, block, _ in blocks:
            want = brute_force_pairs(region, Y.points[block], X.points, r)
            assert sorted(zip(yi.tolist(), xi.tolist())) == want
            assert np.array_equal(sqd, region.sqdist(Y.points[block][yi], X.points[xi]))

    # the cell keys are sorted in the smallest unsigned type that holds them;
    # the order must be the stable int64 one, ties in Y index order. Lattice
    # coordinates tie, and coordinates just below side clamp to the top cell
    @given(data=st.data(), kind=st.sampled_from(["box", "torus"]), d=st.integers(1, 3),
           side=st.sampled_from([1.0, 6.5]), block=st.integers(1, 3))
    @settings(max_examples=150)
    def test_block_order_is_stable_int64_cell_order(self, data, kind, d, side, block):
        coord = (st.integers(0, 7).map(lambda c: c * side / 8)
                 | st.just(math.nextafter(side, 0.0)) | st.floats(0.0, side, exclude_max=True))
        ys = data.draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=40))
        assert_stable_cell_order(Region(kind, side, d), np.array(ys), block)

    # blocks of one point: 700 cells on a line and 17**2 in the square, whose
    # keys no longer fit in 8 bits
    @pytest.mark.parametrize("d, count", [(1, 700), (2, 300)])
    def test_block_order_with_16_bit_keys(self, d, count):
        side = 6.5
        rng = np.random.default_rng(d)
        ys = rng.integers(0, 40, (count, d)) * (side / 40)
        ys[::7] = math.nextafter(side, 0.0)
        assert_stable_cell_order(Region("box", side, d), ys, 1)

    # the min-degree fold takes minima and component labels ignore edge order,
    # so the threshold is the same float whatever order the blocks come in
    @given(instance=threshold_instances(), block=st.integers(1, 3), seed=st.integers(0, 2**32))
    @settings(max_examples=100)
    def test_threshold_does_not_depend_on_block_order(self, instance, block, seed):
        X, Y, cap = instance
        with mock.patch.object(connectivity, "_BLOCK", block):
            want = rho_threshold(X, Y, initial_cap=cap)
            for order_of in (lambda Y: np.random.default_rng(seed).permutation(len(Y)),
                             leaf_order):
                with mock.patch.object(connectivity, "_pair_blocks", pair_blocks_in(order_of)):
                    assert rho_threshold(X, Y, initial_cap=cap) == want

    @pytest.mark.parametrize("kind", ["box", "torus"])
    def test_threshold_does_not_depend_on_block_order_at_scale(self, monkeypatch, kind):
        region = Region(kind, 1.0, 2)
        rng = np.random.default_rng(13)
        X = PointPattern(region, rng.random((300, 2)))
        Y = PointPattern(region, rng.random((1200, 2)))
        monkeypatch.setattr(connectivity, "_BLOCK", 50)
        want = rho_threshold(X, Y)
        for order_of in (lambda Y: rng.permutation(len(Y)), leaf_order):
            monkeypatch.setattr(connectivity, "_pair_blocks", pair_blocks_in(order_of))
            assert rho_threshold(X, Y) == want


class TestLlnStatistic:
    def test_zero_rho(self):
        assert lln_statistic(100.0, 0.0) == 0.0

    def test_direct_arithmetic(self):
        assert lln_statistic(100.0, 0.1) == pytest.approx(0.6822, abs=2e-4)

    def test_limit_targets(self):
        # the large-n limits the sweep is compared against
        assert max(1.0 / 4.0, 1.0 / 4.0) == 0.25
        assert max(1.0 / 1.0, 1.0 / 4.0) == 1.0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            lln_statistic(1.5, 0.1)

    def test_infinite_rho_gives_infinite_statistic(self):
        assert math.isinf(lln_statistic(10.0, math.inf))


def realization(seed, trial):
    """The A and B samplers of one trial of ``lln`` and ``mindeg``."""
    return (CoupledSampler(Region("box", 1.0, 2), seed, stream, path=(0, trial))
            for stream in "AB")


def no_trial(*args):
    raise AssertionError("a trial ran before every value was checked")


class TestLlnSweep:
    def test_zero_trials_empty(self):
        samples, summary = lln_sweep([100.0], [1.0], 0, seed=0)
        assert samples == [] and summary == []

    def test_rows_and_medians(self):
        samples, summary = lln_sweep([50.0, 200.0], [2.0], 4, seed=1)
        assert len(samples) == 8
        assert {(s.n, s.tau) for s in samples} == {(50.0, 2.0), (200.0, 2.0)}
        assert len(summary) == 2
        cell = summary[0]
        stats = sorted(s.statistic for s in samples if s.n == cell["n"])
        assert cell["median_statistic"] == pytest.approx(np.median(stats))
        assert cell["q25_statistic"] <= cell["median_statistic"] <= cell["q75_statistic"]

    def test_parallelism_does_not_change_results(self):
        a = lln_sweep([100.0], [1.0, 3.0], 6, seed=2, jobs=1)
        b = lln_sweep([100.0], [1.0, 3.0], 6, seed=2, jobs=2)
        assert a == b

    def test_trial_rows_consistent(self):
        rows = threshold_trial(3, 0, [100.0, 400.0], [2.0, 5.0])
        assert [(r.tau, r.n) for r in rows] == [(2.0, 100.0), (2.0, 400.0),
                                                (5.0, 100.0), (5.0, 400.0)]
        sampler_a, sampler_b = realization(3, 0)
        for row in rows:
            assert row.statistic == lln_statistic(row.n, row.rho)
            assert row.trial == 0
            X, Y = sampler_a.prefix(row.n), sampler_b.prefix(row.tau * row.n)
            assert row.rho == rho_threshold(X, Y)

    def test_rows_are_tau_major_and_first_tau_matches_single_tau_run(self):
        samples, _ = lln_sweep([60.0, 120.0], [4.0, 1.0], 3, seed=4)
        assert [(s.tau, s.trial, s.n) for s in samples] == [
            (tau, trial, n) for tau in (4.0, 1.0) for trial in range(3) for n in (60.0, 120.0)]
        single, _ = lln_sweep([60.0, 120.0], [4.0], 3, seed=4)
        assert samples[:len(single)] == single

    def test_each_trial_rho_non_increasing_in_tau(self):
        # one B pattern per trial: a larger tau only adds B points
        taus = [1.0, 2.0, 4.0, 16.0]
        samples, _ = lln_sweep([150.0], taus, 8, seed=6)
        for trial in range(8):
            rhos = [s.rho for tau in taus for s in samples if s.trial == trial and s.tau == tau]
            assert rhos == sorted(rhos, reverse=True)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            lln_sweep([1.0], [1.0], 2, seed=0)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            lln_sweep([100.0], [1.0], -3, seed=0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_tau_rejected(self, tau):
        # before any trial: even a run of no trials is refused
        for trials in (0, 1):
            with pytest.raises(ValueError, match="tau"):
                lln_sweep([100.0], [1.0, tau], trials, seed=0)

    @pytest.mark.parametrize("n_values, tau_values, name", [
        ([300.0, 300.0], [4.0], "n"), ([1e3, 1000], [4.0], "n"), ([300.0], [4.0, 4], "tau"),
    ])
    def test_repeated_value_rejected_before_any_trial(self, monkeypatch, n_values,
                                                      tau_values, name):
        monkeypatch.setattr(connectivity, "threshold_trial", no_trial)
        with pytest.raises(ValueError, match=f"^{name} must be .* and distinct"):
            lln_sweep(n_values, tau_values, 2, seed=0)


class TestMinDegreeDiagnostic:
    def test_radius_solves_statistic(self):
        n, alpha = 1e4, 0.7
        r = radius_for_alpha(n, alpha)
        assert n * math.pi * r * r / math.log(n) == pytest.approx(alpha, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_radius_rejects_non_positive_or_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            radius_for_alpha(1e4, alpha)
        with pytest.raises(ValueError, match="alpha"):
            min_degree_diagnostic(100.0, 1.0, [alpha], 0, seed=0)

    @pytest.mark.parametrize("alphas", [[0.5, math.nan], [0.5, 0.5], [2, 2.0], []])
    def test_bad_alpha_list_rejected_before_any_trial(self, monkeypatch, alphas):
        monkeypatch.setattr(connectivity, "min_degree_trial", no_trial)
        with pytest.raises(ValueError, match="^alpha"):
            min_degree_diagnostic(100.0, 1.0, alphas, 3, seed=0)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            min_degree_diagnostic(100.0, 1.0, [0.5], -3, seed=0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_tau_rejected(self, tau):
        for trials in (0, 1):
            with pytest.raises(ValueError, match="tau"):
                min_degree_diagnostic(100.0, tau, [0.5], trials, seed=0)

    def test_fast_indicator_matches_graph_min_degree(self, unit_square, monkeypatch):
        # the default block, and blocks of 1 and 3 Y points that split every pattern
        for block in (connectivity._BLOCK, 1, 3):
            monkeypatch.setattr(connectivity, "_BLOCK", block)
            rng = np.random.default_rng(11)
            agree = 0
            for _ in range(40):
                X = random_pattern(rng, int(rng.integers(1, 25)))
                Y = random_pattern(rng, int(rng.integers(0, 25)))
                r = float(rng.uniform(0.05, 0.5))
                want = min_degree(build_g1(X, Y, r)) == 0
                for cap in (r, 1.7 * r, unit_square.max_distance):
                    assert isolated_vertex(X, Y, r, cap) == want
                agree += want
            assert 0 < agree < 40

    def test_empty_a_side_has_no_isolated_vertex(self, unit_square):
        empty = PointPattern(unit_square, np.empty((0, 2)))
        Y = random_pattern(np.random.default_rng(2), 5)
        for B in (empty, Y):
            assert min_degree_sqradius(empty, B, 0.1) == 0.0
            assert not isolated_vertex(empty, B, 1e-300)

    def test_alpha_beyond_the_pair_budget_refused_before_any_trial(self, monkeypatch):
        # at alpha = 1e4 the radius covers the square, so one block of 8192 B
        # points meets all 1e5 A points
        monkeypatch.setattr(connectivity, "min_degree_trial", no_trial)
        with pytest.raises(ResourceLimitError, match="^alpha 10000.0 gives 8.19e"):
            min_degree_diagnostic(1e5, 1.0, [0.5, 1e4], 3, seed=0)
        # the acceptance run's largest alpha is far inside the budget
        with pytest.raises(AssertionError, match="a trial ran"):
            min_degree_diagnostic(1e5, 1.0, [0.5, 3.0], 3, seed=0)

    def test_zero_trials_undefined(self):
        fractions, indicators = min_degree_diagnostic(100.0, 1.0, [0.5, 2.0], 0, seed=0)
        assert all(math.isnan(f) for f in fractions) and len(fractions) == 2
        assert indicators == [[], []]

    def test_one_realization_per_trial_answers_every_alpha(self, monkeypatch):
        n, tau, alphas, trials = 150.0, 1.0, [0.2, 3.0, 1.0, 6.0], 12
        maps, starmap_ = [], connectivity.parallel_starmap

        def spy(fn, tasks, jobs=1):
            maps.append(fn)
            return starmap_(fn, tasks, jobs)

        monkeypatch.setattr(connectivity, "parallel_starmap", spy)
        fractions, indicators = min_degree_diagnostic(n, tau, alphas, trials, seed=3)
        assert maps == [connectivity.min_degree_trial]
        for trial in range(trials):
            sampler_a, sampler_b = realization(3, trial)
            X, Y = sampler_a.prefix(n), sampler_b.prefix(tau * n)
            for alpha, flags in zip(alphas, indicators):
                assert flags[trial] == (min_degree(build_g1(X, Y, radius_for_alpha(n, alpha))) == 0)
        assert fractions == [float(np.mean(flags)) for flags in indicators]
        # the first alpha's rows are those of a run of that alpha alone
        assert min_degree_diagnostic(n, tau, alphas[:1], trials, seed=3)[1] == indicators[:1]

    def test_small_scale_fractions_ordered(self):
        # sparse helpers leave isolated vertices much more often than dense ones
        (low, high), (sparse, dense) = min_degree_diagnostic(300.0, 1.0, [0.2, 6.0], 20, seed=3)
        assert low > high
        # on one realization, a larger radius never isolates more
        assert all(s or not d for s, d in zip(sparse, dense))


class TestSummaries:
    def test_summarize_groups_cells(self):
        samples, _ = lln_sweep([60.0], [1.0], 3, seed=5)
        rows = summarize_thresholds(samples)
        assert len(rows) == 1 and rows[0]["trials"] == 3

    def test_infinite_statistics_give_exact_quartiles(self):
        # a cell without B points has rho = statistic = +inf
        def cell(stats):
            samples = [ThresholdSample(100.0, 1.0, i, s, s) for i, s in enumerate(stats)]
            row, = summarize_thresholds(samples)
            return [row[k] for k in ("q25_statistic", "median_statistic", "q75_statistic")]

        assert cell([0.5, math.inf, 0.1]) == [0.3, 0.5, math.inf]
        assert cell([math.inf] * 3) == [math.inf] * 3
        assert cell([0.2, math.inf]) == [math.inf] * 3
        assert cell([0.1, 0.2, 0.3, 0.4, math.inf]) == [0.2, 0.3, 0.4]
        finite = [0.37, 0.11, 0.93, 0.58]
        assert cell(finite) == np.percentile(finite, [25, 50, 75]).tolist()
