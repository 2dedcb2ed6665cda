import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from abperc import CoupledSampler, PointPattern, Region, ResourceLimitError, sample_poisson
from abperc.pointprocess import MAX_EXPECTED_POINTS
from abperc.seeding import STREAM_IDS, derived_rng


def drawn_in_blocks(region, seed, stream, size):
    """The first ``size`` points and event times of a sampler's caches, drawn as
    they were when each growth concatenated a new block: blocks of 64, 64, 128,
    256, ... draws, the event times' cumulative sum restarting at each block
    from the last time before it."""
    sid = STREAM_IDS[stream]
    point_rng, gap_rng = derived_rng(seed, sid, 0), derived_rng(seed, sid, 1)
    points, times, total = [], [], 0
    while total < size:
        block = max(64, total)
        points.append(point_rng.random((block, region.dim)) * region.side)
        times.append((times[-1][-1] if times else 0.0) + np.cumsum(gap_rng.exponential(size=block)))
        total += block
    return np.concatenate(points)[:size], np.concatenate(times)[:size]


class TestRegion:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Region("box", -1.0, 2)
        with pytest.raises(ValueError):
            Region("box", 1.0, 0)
        with pytest.raises(ValueError):
            Region("cylinder", 1.0, 2)
        # 1e200 overflows side**dim
        for side in (float("inf"), float("nan"), 1e200):
            with pytest.raises(ValueError):
                Region("box", side, 2)

    def test_torus_metric_wraps(self):
        region = Region("torus", 1.0, 2)
        assert region.sqdist([0.05, 0.5], [0.95, 0.5]) == pytest.approx(0.01)
        box = Region("box", 1.0, 2)
        assert box.sqdist([0.05, 0.5], [0.95, 0.5]) == pytest.approx(0.81)

    def test_volume_and_diameter(self):
        assert Region("box", 2.0, 3).volume == 8.0
        assert Region("torus", 1.0, 2).max_distance == pytest.approx(np.sqrt(2) / 2)


class TestSamplePoisson:
    def test_zero_intensity_empty(self):
        pattern = sample_poisson(Region("box", 1.0, 2), 0.0, 5)
        assert len(pattern) == 0

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            sample_poisson(Region("box", 1.0, 2), -1.0, 5)

    def test_over_budget_intensity_rejected(self):
        # without the guard, 1e13 points would fail to allocate, not raise this
        with pytest.raises(ResourceLimitError, match="budget"):
            sample_poisson(Region("box", 1.0, 2), 1e13, 5)

    def test_deterministic_for_fixed_seed(self):
        region = Region("box", 1.0, 2)
        a = sample_poisson(region, 50.0, 99)
        b = sample_poisson(region, 50.0, 99)
        assert np.array_equal(a.points, b.points)
        c = sample_poisson(region, 50.0, 100)
        assert len(c) != len(a) or not np.array_equal(c.points, a.points)

    def test_coordinates_inside_region(self):
        region = Region("box", 3.0, 2)
        pattern = sample_poisson(region, 20.0, 7)
        assert pattern.points.min() >= 0.0
        assert pattern.points.max() < 3.0

    def test_mean_count_matches_poisson(self):
        region = Region("box", 1.0, 2)
        counts = [len(sample_poisson(region, 100.0, seed)) for seed in range(10_000)]
        assert abs(np.mean(counts) - 100.0) <= 3.0

    def test_counts_pass_chi_square_gof(self):
        # significance 1e-3 over 1e4 trials against Poisson(lambda * volume)
        region = Region("box", 1.0, 2)
        lam = 20.0
        counts = np.array([len(sample_poisson(region, lam, seed + 50_000))
                           for seed in range(10_000)])
        upper = int(counts.max()) + 1
        observed = np.bincount(counts, minlength=upper + 1).astype(float)
        expected = stats.poisson.pmf(np.arange(upper + 1), lam) * counts.size
        expected[upper] = counts.size - expected[:upper].sum()
        observed[upper] = counts.size - observed[:upper].sum()
        # pool lowest/highest bins until expected counts are all >= 5
        keep_lo = 0
        while expected[keep_lo] < 5:
            expected[keep_lo + 1] += expected[keep_lo]
            observed[keep_lo + 1] += observed[keep_lo]
            keep_lo += 1
        keep_hi = upper
        while expected[keep_hi] < 5:
            expected[keep_hi - 1] += expected[keep_hi]
            observed[keep_hi - 1] += observed[keep_hi]
            keep_hi -= 1
        obs, exp = observed[keep_lo:keep_hi + 1], expected[keep_lo:keep_hi + 1]
        result = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert result.pvalue >= 1e-3

    def test_area_intensity_equivalence(self):
        # same count law for (L=2, lam=25) and (L=1, lam=100)
        big = [len(sample_poisson(Region("box", 2.0, 2), 25.0, s)) for s in range(3000)]
        small = [len(sample_poisson(Region("box", 1.0, 2), 100.0, s + 3000)) for s in range(3000)]
        edges = np.percentile(big + small, np.linspace(0, 100, 11))
        edges[0], edges[-1] = -np.inf, np.inf
        obs_a = np.histogram(big, edges)[0]
        obs_b = np.histogram(small, edges)[0]
        table = np.vstack([obs_a, obs_b])
        result = stats.chi2_contingency(table)
        assert result.pvalue >= 1e-3


class TestCoupledSampler:
    def test_zero_intensity_prefix_empty(self, unit_square):
        sampler = CoupledSampler(unit_square, 3)
        assert len(sampler.prefix(0.0)) == 0

    def test_prefix_nesting_exact(self, unit_square):
        sampler = CoupledSampler(unit_square, 4)
        small = sampler.prefix(5.0)
        large = sampler.prefix(10.0)
        assert len(small) <= len(large)
        assert np.array_equal(large.points[:len(small)], small.points)

    def test_prefix_is_a_read_only_view_that_outlives_growth(self, unit_square):
        sampler = CoupledSampler(unit_square, 6)
        small = sampler.prefix(40.0)
        # no copy of the cached points; the caller cannot write through it
        assert np.shares_memory(small.points, sampler._points)
        assert not small.points.flags.writeable
        with pytest.raises(ValueError):
            small.points[0, 0] = 0.5
        kept = small.points.copy()
        # the first cache holds 64 points; this grows it by doubling
        large = sampler.prefix(5000.0)
        assert len(small) < 64 < len(large)
        assert np.array_equal(small.points, kept)
        assert np.array_equal(large.points[:len(small)], small.points)
        assert not large.points.flags.writeable

    def test_prefix_nesting_across_sweep(self, unit_square):
        sampler = CoupledSampler(unit_square, 8)
        sizes = [len(sampler.prefix(float(lam))) for lam in range(1, 101)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_query_order_does_not_change_realization(self, unit_square):
        up = CoupledSampler(unit_square, 21)
        down = CoupledSampler(unit_square, 21)
        a = up.prefix(3.0)
        b = up.prefix(300.0)
        d = down.prefix(300.0)
        c = down.prefix(3.0)
        assert np.array_equal(a.points, c.points)
        assert np.array_equal(b.points, d.points)

    def test_streams_independent(self, unit_square):
        a = CoupledSampler(unit_square, 5, "A").prefix(50.0)
        b = CoupledSampler(unit_square, 5, "B").prefix(50.0)
        na = min(len(a), len(b))
        assert not np.array_equal(a.points[:na], b.points[:na])

    def test_count_scales_with_volume(self):
        # prefix size at intensity lam is Poisson(lam * volume)
        counts = [CoupledSampler(Region("box", 2.0, 2), s).count_at(25.0)
                  for s in range(2000)]
        assert abs(np.mean(counts) - 100.0) <= 4 * 10 / np.sqrt(2000)

    def test_negative_intensity_rejected(self, unit_square):
        with pytest.raises(ValueError):
            CoupledSampler(unit_square, 0).prefix(-1.0)

    def test_over_budget_intensity_rejected_before_sampling(self, unit_square, monkeypatch):
        def grow(self):
            raise AssertionError("sampling went past the budget check")

        sampler = CoupledSampler(unit_square, 0)
        monkeypatch.setattr(CoupledSampler, "_grow_times", grow)
        with pytest.raises(ResourceLimitError, match="budget"):
            sampler.count_at(2.0 * MAX_EXPECTED_POINTS)
        with pytest.raises(ResourceLimitError, match="budget"):
            sampler.prefix(2.0 * MAX_EXPECTED_POINTS)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_intensity_rejected(self, unit_square, bad):
        sampler = CoupledSampler(unit_square, 0)
        with pytest.raises(ValueError):
            sampler.count_at(bad)
        with pytest.raises(ValueError):
            sampler.prefix(bad)

    def test_event_time_matches_count(self, unit_square):
        sampler = CoupledSampler(unit_square, 6)
        # past the first cache block, so the accessor grows the cache itself
        times = [sampler.event_time(k) for k in range(1, 301)]
        assert all(a < b for a, b in zip(times, times[1:]))
        for k in (1, 64, 65, 300):
            t = times[k - 1]
            assert sampler.count_at(t / unit_square.volume) >= k
            assert sampler.count_at(np.nextafter(t, 0.0) / unit_square.volume) < k
        with pytest.raises(ValueError):
            sampler.event_time(0)

    def test_event_time_query_order_invariant(self, unit_square):
        early = CoupledSampler(unit_square, 9)
        late = CoupledSampler(unit_square, 9)
        t = early.event_time(500)
        late.prefix(1000.0)
        assert late.event_time(500) == t


class TestCouplingProperties:
    """The coupling of one sampler across intensities, over seeds, intensity
    lists and query orders: prefixes nest exactly, and neither the points nor
    the event times depend on the order of the queries."""

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), stream=st.sampled_from(["A", "B"]),
           region=st.sampled_from([Region("box", 1.0, 2), Region("torus", 2.5, 2),
                                   Region("box", 1.5, 3)]),
           lams=st.lists(st.floats(0.0, 150.0), min_size=2, max_size=6),
           ks=st.lists(st.integers(1, 700), max_size=4), data=st.data())
    def test_nested_and_query_order_invariant(self, seed, stream, region, lams, ks, data):
        ascending = CoupledSampler(region, seed, stream)
        want = {lam: ascending.prefix(lam).points for lam in sorted(lams)}
        times = [ascending.event_time(k) for k in ks]
        for small in lams:
            for large in lams:
                if small <= large:
                    assert np.array_equal(want[large][:len(want[small])], want[small])
        # event times asked first, then the prefixes in a drawn order
        shuffled = CoupledSampler(region, seed, stream)
        assert [shuffled.event_time(k) for k in ks] == times
        for lam in data.draw(st.permutations(lams)):
            assert np.array_equal(shuffled.prefix(lam).points, want[lam])
        assert [shuffled.event_time(k) for k in ks] == times


    # prefix, count_at and event_time interleaved, past several cache growths;
    # every pattern handed out keeps its points while later queries grow the cache
    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), stream=st.sampled_from(["A", "B"]),
           region=st.sampled_from([Region("box", 1.0, 2), Region("torus", 2.5, 2),
                                   Region("box", 1.5, 1)]),
           queries=st.lists(st.one_of(
               st.tuples(st.sampled_from(["prefix", "count_at"]), st.floats(0.0, 600.0)),
               st.tuples(st.just("event_time"), st.integers(1, 2000))), max_size=8))
    def test_any_query_sequence_matches_one_large_draw(self, seed, stream, region, queries):
        points, times = drawn_in_blocks(region, seed, stream, 8192)
        sampler, patterns = CoupledSampler(region, seed, stream), []
        for kind, arg in queries:
            if kind == "event_time":
                assert sampler.event_time(arg) == times[arg - 1]
                continue
            count = int(np.searchsorted(times, arg * region.volume, side="right"))
            assert count < len(times)
            if kind == "count_at":
                assert sampler.count_at(arg) == count
            else:
                patterns.append(sampler.prefix(arg))
                assert np.array_equal(patterns[-1].points, points[:count])
        for pattern in patterns:
            assert np.array_equal(pattern.points, points[:len(pattern)])


class TestPointPattern:
    def test_coordinate_invariant_enforced(self, unit_square):
        with pytest.raises(ValueError):
            PointPattern(unit_square, np.array([[0.5, 1.0]]))
        with pytest.raises(ValueError):
            PointPattern(unit_square, np.array([[-0.1, 0.5]]))
