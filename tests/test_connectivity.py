import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abperc import (
    PointPattern,
    Region,
    connectivity,
    g1_min_degree_is_zero,
    is_connected_g1,
    lln_statistic,
    lln_sweep,
    min_degree_diagnostic,
    radius_for_sqdist,
    rho_threshold,
)
from abperc.connectivity import (ThresholdSample, radius_for_alpha, summarize_thresholds,
                                 threshold_trial)
from abperc.geomgraph import NeighborGrid, _kdtree, bipartite_edges
from conftest import brute_force_pairs, build_g1, min_degree, random_pattern, rho_oracle


def min_degree_sqdist(X, Y):
    """Minimum-degree squared radius of all X-Y pairs, folded as one block."""
    xi, yi, sqd = bipartite_edges(X, Y, X.region.max_distance)
    link = np.full(len(X), np.inf)
    connectivity._fold_min_degree(link, xi, yi, sqd, len(Y))
    return float(link.max())


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
                assert not g1_min_degree_is_zero(X, Y, rho_deg)
                assert min_degree(build_g1(X, Y, rho_deg)) > 0
                below = math.nextafter(rho_deg, 0.0)
                assert below == 0 or g1_min_degree_is_zero(X, Y, below)

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
    """``connectivity._pair_blocks`` with the Y points in the order ``order_of(Y)``."""
    def pair_blocks(X, Y):
        grid, order = NeighborGrid(X.points, X.region), order_of(Y)

        def blocks(r):
            for lo in range(0, len(order), connectivity._BLOCK):
                block = order[lo:lo + connectivity._BLOCK]
                yi, xi, sqd = grid.pairs_against(Y.points[block], r)
                yield xi, yi, sqd, block

        return blocks

    return pair_blocks


def leaf_order(Y):
    return _kdtree(Y.points, Y.region).indices


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
        order = np.concatenate([block for *_, block in blocks])
        assert sorted(order.tolist()) == list(range(len(Y)))
        cells = np.minimum((ys[order] * (5 / side)).astype(int), 4)
        assert np.all(np.diff(cells @ 5 ** np.arange(d)) >= 0)
        for xi, yi, sqd, block in blocks:
            want = brute_force_pairs(region, Y.points[block], X.points, r)
            assert sorted(zip(yi.tolist(), xi.tolist())) == want
            assert np.array_equal(sqd, region.sqdist(Y.points[block][yi], X.points[xi]))

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
        rows = threshold_trial(3, 0, 2.0, 0, [100.0, 400.0])
        assert [r.n for r in rows] == [100.0, 400.0]
        for row in rows:
            assert row.statistic == lln_statistic(row.n, row.rho)
            assert row.tau == 2.0 and row.trial == 0

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
            min_degree_diagnostic(100.0, 1.0, alpha, 0, seed=0)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            min_degree_diagnostic(100.0, 1.0, 0.5, -3, seed=0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_tau_rejected(self, tau):
        for trials in (0, 1):
            with pytest.raises(ValueError, match="tau"):
                min_degree_diagnostic(100.0, tau, 0.5, trials, seed=0)

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
                fast = g1_min_degree_is_zero(X, Y, r)
                want = min_degree(build_g1(X, Y, r)) == 0
                assert fast == want
                agree += fast
            assert 0 < agree < 40

    def test_empty_a_side_rejected(self, unit_square):
        empty = PointPattern(unit_square, np.empty((0, 2)))
        with pytest.raises(ValueError):
            g1_min_degree_is_zero(empty, empty, 0.1)

    def test_zero_trials_undefined(self):
        fraction, indicators = min_degree_diagnostic(100.0, 1.0, 0.5, 0, seed=0)
        assert math.isnan(fraction) and indicators == []

    def test_small_scale_fractions_ordered(self):
        # sparse helpers leave isolated vertices much more often than dense ones
        low, _ = min_degree_diagnostic(300.0, 1.0, 0.2, 20, seed=3, alpha_index=0)
        high, _ = min_degree_diagnostic(300.0, 1.0, 6.0, 20, seed=3, alpha_index=1)
        assert low > high


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
