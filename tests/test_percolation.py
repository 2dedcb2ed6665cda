import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abperc import (
    EstimationError,
    Region,
    ResourceLimitError,
    crossing_probability,
    estimate_lambda_c,
    estimate_mu_c,
    wilson_interval,
)
from abperc.percolation import (
    ab_crossing_time,
    ab_crossing_trial,
    dense_b_limit_trial,
    one_type_crossing_time,
    one_type_crossing_trial,
)


class TestWilson:
    def test_known_values(self):
        lo, hi = wilson_interval(5, 10)
        assert lo == pytest.approx(0.2366, abs=2e-4)
        assert hi == pytest.approx(0.7634, abs=2e-4)

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and hi < 0.2
        lo, hi = wilson_interval(20, 20)
        assert hi == 1.0 and lo > 0.8

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)


class TestCrossingProbability:
    def test_zero_intensity_exactly_zero(self):
        probes = crossing_probability("one-type", [0.0], r=1.0, L=10.0, trials=50, seed=0)
        assert probes[0].p_hat == 0.0

    def test_ab_zero_mu_exactly_zero(self):
        probes = crossing_probability("AB", [(0.5, 0.0)], r=1.0, L=10.0, trials=50, seed=0)
        assert probes[0].p_hat == 0.0

    def test_sweep_stops_at_highest_probe(self):
        # the unit intensities (2r)**-2 and r**-2 exceed the sampling budget here
        probes = crossing_probability("one-type", [0.0, 0.5], r=1e-3, L=10.0, trials=5, seed=0)
        assert [p.successes for p in probes] == [0, 0]
        probes = crossing_probability("AB", [(0.5, 0.5)], r=1e-3, L=10.0, trials=5, seed=0)
        assert probes[0].successes == 0

    def test_saturation_far_above_critical(self):
        probes = crossing_probability("one-type", [36.0], r=1.0, L=10.0, trials=100, seed=1)
        assert probes[0].p_hat >= 0.99

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            crossing_probability("one-type", [1.0], r=1.0, L=3.9, trials=10, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            crossing_probability("two-type", [1.0], r=1.0, L=10.0, trials=10, seed=0)

    @given(seed=st.integers(0, 2**32 - 1),
           pairs=st.lists(st.tuples(st.sampled_from([0.3, 0.9]),
                                    st.one_of(st.just(0.0), st.floats(0.05, 3.0))),
                          min_size=1, max_size=4))
    def test_ab_matches_per_probe_trials(self, seed, pairs):
        trials = 6
        probes = crossing_probability("AB", pairs, r=1.0, L=8.0, trials=trials, seed=seed)
        for (lam, mu), probe in zip(pairs, probes):
            assert probe.value == mu
            assert probe.successes == sum(ab_crossing_trial(seed, t, lam, mu, 1.0, 8.0, 2)
                                          for t in range(trials))

    def test_monotone_in_mu_within_ci(self):
        mus = [0.5, 1.0, 2.0, 4.0]
        probes = crossing_probability("AB", [(0.9, mu) for mu in mus],
                                      r=1.0, L=12.0, trials=60, seed=2)
        # coupled B prefixes make the estimate exactly nondecreasing per seed
        phats = [p.p_hat for p in probes]
        assert all(a <= b for a, b in zip(phats, phats[1:]))


class TestEstimateLambdaC:
    def test_zero_iteration_when_tol_covers_bracket(self):
        est = estimate_lambda_c(r=1.0, L=10.0, trials=40, tol=2.0, seed=3,
                                bracket=(0.05, 1.5))
        assert est.estimate == pytest.approx(0.775)
        assert est.bracket == (0.05, 1.5)
        assert len(est.probes) == 2

    def test_non_bracketing_interval_raises(self):
        with pytest.raises(EstimationError):
            estimate_lambda_c(r=1.0, L=10.0, trials=40, tol=0.05, seed=4,
                              bracket=(5.0, 9.0))

    def test_small_box_estimate_near_reference(self):
        est = estimate_lambda_c(r=1.0, L=15.0, trials=150, tol=0.05, seed=5)
        assert 0.2 <= est.estimate <= 0.55
        assert est.bracket[0] < est.estimate < est.bracket[1]
        assert est.bracket[1] - est.bracket[0] <= 0.05
        # probe log carries Wilson intervals
        assert all(0 <= p.ci_low <= p.p_hat <= p.ci_high <= 1 for p in est.probes)

    def test_reproducible_across_jobs(self):
        a = estimate_lambda_c(r=1.0, L=8.0, trials=30, tol=0.2, seed=6, jobs=1)
        b = estimate_lambda_c(r=1.0, L=8.0, trials=30, tol=0.2, seed=6, jobs=2)
        assert a.estimate == b.estimate
        assert [(p.value, p.successes) for p in a.probes] == \
            [(p.value, p.successes) for p in b.probes]


class TestEstimateMuC:
    def test_subcritical_reports_no_percolation(self):
        est = estimate_mu_c(r=1.0, lam=0.1, L=12.0, trials=40, tol=0.5, seed=7)
        assert est.no_percolation
        assert math.isinf(est.estimate)
        assert est.probes[0].value == math.inf

    def test_supercritical_finite_estimate(self):
        est = estimate_mu_c(r=1.0, lam=0.9, L=12.0, trials=60, tol=0.5, seed=8)
        assert not est.no_percolation
        assert math.isfinite(est.estimate)
        assert est.bracket[0] < est.estimate < est.bracket[1]

    def test_dense_b_limit_dominates_per_seed(self):
        # the one-type proxy bounds the AB indicator for the same seed
        for trial in range(25):
            proxy = dense_b_limit_trial(9, trial, 0.6, 1.0, 12.0, 2)
            finite = ab_crossing_trial(9, trial, 0.6, 5.0, 1.0, 12.0, 2)
            assert finite <= proxy

    def test_one_type_margin_convention(self):
        # one-type crossing uses the connection distance (2r) as margin
        assert one_type_crossing_trial(10, 0, 30.0, 1.0, 8.0, 2) in (True, False)

    @pytest.mark.parametrize("target", [0.0, -0.5, 1.5])
    def test_target_outside_unit_interval_rejected(self, target):
        with pytest.raises(ValueError):
            estimate_mu_c(r=1.0, lam=0.9, L=12.0, trials=10, tol=0.5, seed=0, target=target)
        with pytest.raises(ValueError):
            estimate_lambda_c(r=1.0, L=10.0, trials=10, tol=0.1, seed=0, target=target)

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            estimate_mu_c(r=1.0, lam=0.0, L=12.0, trials=10, tol=0.5, seed=0)


class TestCrossingTime:
    """The stored crossing time reproduces the direct per-probe indicator."""

    @given(seed=st.integers(0, 2**32 - 1), trial=st.integers(0, 1000),
           side=st.sampled_from(["4r", 8.0, 12.0]), d=st.sampled_from([2, 3]),
           top=st.floats(0.05, 1.2), halvings=st.integers(0, 12))
    def test_matches_direct_trial(self, seed, trial, side, d, top, halvings):
        r = 1.0
        L = 4 * r if side == "4r" else side
        volume = Region("box", L, d).volume
        T = one_type_crossing_time(seed, trial, top * 2.0**-halvings, top, r, L, d)
        lams = [0.0, top]
        if math.isfinite(T):
            at = T / volume
            lams += [at, math.nextafter(at, 0.0), math.nextafter(at, math.inf)]
        for lam in lams:
            assert (T <= lam * volume) == one_type_crossing_trial(seed, trial, lam, r, L, d)

    def test_start_of_sweep_does_not_change_time(self):
        for trial in range(20):
            times = {one_type_crossing_time(5, trial, start, 1.0, 1.0, 10.0, 2)
                     for start in (1e-6, 0.01, 0.3, 1.0)}
            assert len(times) == 1

    def test_no_crossing_by_top_is_infinite(self):
        assert one_type_crossing_time(3, 0, 0.0, 0.0, 1.0, 10.0, 2) == math.inf
        assert one_type_crossing_time(3, 0, 0.001, 0.002, 1.0, 30.0, 2) == math.inf
        assert ab_crossing_time(3, 0, 0.5, 0.0, 0.0, 1.0, 10.0, 2) == math.inf

    @given(seed=st.integers(0, 2**32 - 1), trial=st.integers(0, 1000),
           side=st.sampled_from(["4r", 8.0, 12.0]), d=st.sampled_from([2, 3]),
           lam=st.floats(0.02, 1.5), top=st.floats(0.05, 3.0), halvings=st.integers(0, 12))
    def test_b_time_matches_direct_trial(self, seed, trial, side, d, lam, top, halvings):
        r = 1.0
        L = 4 * r if side == "4r" else side
        volume = Region("box", L, d).volume
        T = ab_crossing_time(seed, trial, lam, top * 2.0**-halvings, top, r, L, d)
        mus = [0.0, top]
        if math.isfinite(T):
            at = T / volume
            mus += [at, math.nextafter(at, 0.0), math.nextafter(at, math.inf)]
        for mu in mus:
            assert (T <= mu * volume) == ab_crossing_trial(seed, trial, lam, mu, r, L, d)

    def test_sampling_budget_guard(self):
        # raised before any point is sampled
        with pytest.raises(ResourceLimitError):
            one_type_crossing_time(0, 0, 1.0, 1e9, 1.0, 10.0, 2)
        with pytest.raises(ResourceLimitError):
            ab_crossing_time(0, 0, 0.5, 1.0, 1e9, 1.0, 10.0, 2)
        with pytest.raises(ResourceLimitError):
            ab_crossing_time(0, 0, 1e9, 1.0, 1.0, 1.0, 10.0, 2)


class TestPinnedProbeLogs:
    """(value, successes) of small seeded runs, as recorded before the sweeps
    shared one start: a changed crossing time or probe order changes a pair."""

    RUNS = {
        "lambda_c_r1": (
            lambda: estimate_lambda_c(1.0, 12.0, 200, 0.02, 3).probes,
            [(0.01, 0), (2.0, 200), (1.005, 200), (0.5075, 183), (0.25875, 35),
             (0.38312499999999994, 118), (0.3209375, 76), (0.35203124999999996, 99),
             (0.367578125, 110)]),
        "lambda_c_r2": (
            lambda: estimate_lambda_c(2.0, 20.0, 100, 0.01, 4).probes,
            [(0.0025, 0), (0.5, 100), (0.25125, 100), (0.126875, 91), (0.0646875, 24),
             (0.09578124999999998, 66), (0.080234375, 48), (0.08800781249999999, 56)]),
        "lambda_c_d3": (
            lambda: estimate_lambda_c(1.0, 6.0, 100, 0.01, 5, d=3, bracket=(0.01, 0.3)).probes,
            [(0.01, 0), (0.3, 100), (0.155, 88), (0.0825, 47), (0.11875, 76),
             (0.10062499999999999, 61), (0.09156249999999999, 51)]),
        # 0.05 lies below the unit intensity (2r)**-2 = 0.25, 0.3 and 0.5 above it
        "one_type": (
            lambda: crossing_probability("one-type", [0.0, 0.05, 0.3, 0.5], 1.0, 10.0, 200, 6),
            [(0.0, 0), (0.05, 0), (0.3, 75), (0.5, 179)]),
        "AB": (
            lambda: crossing_probability("AB", [(0.72, 0.3), (0.72, 2.0), (1.0, 0.5)], 1.0, 10.0,
                                         100, 7),
            [(0.3, 0), (2.0, 79), (0.5, 3)]),
        "mu_c": (
            lambda: estimate_mu_c(1.0, 0.72, 10.0, 100, 0.1, 8).probes,
            [(math.inf, 100), (1.0, 25), (2.0, 75), (1.5, 53), (1.25, 39), (1.375, 46),
             (1.4375, 50)]),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_probe_log(self, name):
        run, want = self.RUNS[name]
        assert [(p.value, p.successes) for p in run()] == want


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_crossing_probability_rejects(self, bad):
        with pytest.raises(ValueError):
            crossing_probability("one-type", [bad], r=1.0, L=10.0, trials=5, seed=0)
        with pytest.raises(ValueError):
            crossing_probability("AB", [(0.5, bad)], r=1.0, L=10.0, trials=5, seed=0)
        with pytest.raises(ValueError):
            crossing_probability("one-type", [0.5], r=bad, L=10.0, trials=5, seed=0)
        with pytest.raises(ValueError):
            crossing_probability("one-type", [0.5], r=1.0, L=bad, trials=5, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_estimate_lambda_c_rejects(self, bad):
        kwargs = dict(r=1.0, L=10.0, trials=5, tol=0.1, seed=0)
        for name in ("r", "L", "tol", "target"):
            with pytest.raises(ValueError):
                estimate_lambda_c(**{**kwargs, name: bad})
        with pytest.raises(ValueError):
            estimate_lambda_c(**kwargs, bracket=(0.1, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_estimate_mu_c_rejects(self, bad):
        kwargs = dict(r=1.0, lam=0.5, L=10.0, trials=5, tol=0.5, seed=0)
        for name in ("r", "lam", "L", "tol", "target"):
            with pytest.raises(ValueError):
                estimate_mu_c(**{**kwargs, name: bad})
        with pytest.raises(ValueError):
            estimate_mu_c(**kwargs, mu_max=math.nan)
