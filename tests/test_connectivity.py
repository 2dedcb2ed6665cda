import math

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
from abperc.geomgraph import bipartite_edges
from conftest import build_g1, min_degree, random_pattern, rho_oracle

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
    X = PointPattern(region, np.array(xs), float(len(xs)), 0)
    return X, PointPattern(region, np.array(ys), float(len(ys)), 0), cap


class TestRhoThreshold:
    def test_two_points_one_helper(self, unit_square):
        X = PointPattern(unit_square, np.array([[0.0, 0.0], [1.0 - 1e-12, 0.0]]), 2.0, 0)
        Y = PointPattern(unit_square, np.array([[0.5, 0.0]]), 1.0, 0)
        rho = rho_threshold(X, Y)
        # the farther of the two A-B distances
        assert rho == pytest.approx(0.5, abs=1e-9)

    def test_trivial_sizes(self, unit_square):
        empty = PointPattern(unit_square, np.empty((0, 2)), 0.0, 0)
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
            extra = PointPattern(unit_square, np.vstack([Y.points, rng.random((1, 2))]),
                                 13.0, 0)
            assert rho_threshold(X, extra) <= rho
            fewer = PointPattern(unit_square, X.points[:-1], 11.0, 0)
            assert rho_threshold(fewer, Y) <= rho

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        base = Region("box", 1.0, 2)
        for c in (0.5, 3.0, 17.0):
            scaled = Region("box", c, 2)
            xs, ys = rng.random((15, 2)), rng.random((15, 2))
            X = PointPattern(base, xs, 15.0, 0)
            Y = PointPattern(base, ys, 15.0, 0)
            Xc = PointPattern(scaled, xs * c, 15.0, 0)
            Yc = PointPattern(scaled, ys * c, 15.0, 0)
            rho, rho_c = rho_threshold(X, Y), rho_threshold(Xc, Yc)
            assert rho_c == pytest.approx(c * rho, rel=1e-12)

    def test_small_initial_cap_still_exact(self, unit_square):
        rng = np.random.default_rng(7)
        X, Y = random_pattern(rng, 20), random_pattern(rng, 20)
        assert rho_threshold(X, Y, initial_cap=1e-6) == rho_threshold(X, Y)

    # a cap from 1e-6 forces cap doublings before the pairs connect X
    @given(instance=threshold_instances())
    @settings(max_examples=300)
    def test_matches_oracle_on_adversarial_patterns(self, instance):
        X, Y, cap = instance
        want = rho_oracle(X, Y)
        assert rho_threshold(X, Y, initial_cap=cap) == want
        # the min-degree radius is exact: the minimal float with no isolated X point
        xi, yi, sqd = bipartite_edges(X, Y, X.region.max_distance)
        rho_deg = radius_for_sqdist(connectivity._min_degree_sqdist(xi, yi, sqd, len(X), len(Y)))
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
        X, Y = PointPattern(unit_square, xs, 12.0, 0), PointPattern(unit_square, ys, 13.0, 0)
        kernel, swept = connectivity.bottleneck, []

        def spy(n, u, v, weights, terminals):
            swept.append((u, v))
            return kernel(n, u, v, weights, terminals)

        monkeypatch.setattr(connectivity, "bottleneck", spy)
        rho = rho_threshold(X, Y)
        assert rho == rho_oracle(X, Y)
        xi, yi, sqd = bipartite_edges(X, Y, rho)
        rho_deg = radius_for_sqdist(connectivity._min_degree_sqdist(xi, yi, sqd, 12, 13))
        assert rho_deg < rho and not is_connected_g1(X, Y, rho_deg)
        # only pairs between two components at rho_deg are passed, each pair once
        assert swept
        for u, v in swept:
            assert np.all(u != v)
            assert len(set(zip(u.tolist(), v.tolist()))) == len(u)

    def test_mismatched_regions_rejected(self, unit_square):
        X = random_pattern(np.random.default_rng(8), 5)
        other = Region("box", 2.0, 2)
        Y = PointPattern(other, np.random.default_rng(9).random((5, 2)) * 2, 5.0, 0)
        with pytest.raises(ValueError):
            rho_threshold(X, Y)

    def test_torus_region_supported(self):
        region = Region("torus", 1.0, 2)
        rng = np.random.default_rng(10)
        X = PointPattern(region, rng.random((10, 2)), 10.0, 0)
        Y = PointPattern(region, rng.random((10, 2)), 10.0, 0)
        rho = rho_threshold(X, Y)
        assert 0 < rho <= region.max_distance
        assert is_connected_g1(X, Y, rho)


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

    def test_fast_indicator_matches_graph_min_degree(self, unit_square):
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
        empty = PointPattern(unit_square, np.empty((0, 2)), 0.0, 0)
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
            samples = [ThresholdSample(100.0, 1.0, i, s, s, 0) for i, s in enumerate(stats)]
            row, = summarize_thresholds(samples)
            return [row[k] for k in ("q25_statistic", "median_statistic", "q75_statistic")]

        assert cell([0.5, math.inf, 0.1]) == [0.3, 0.5, math.inf]
        assert cell([math.inf] * 3) == [math.inf] * 3
        assert cell([0.2, math.inf]) == [math.inf] * 3
        assert cell([0.1, 0.2, 0.3, 0.4, math.inf]) == [0.2, 0.3, 0.4]
        finite = [0.37, 0.11, 0.93, 0.58]
        assert cell(finite) == np.percentile(finite, [25, 50, 75]).tolist()
