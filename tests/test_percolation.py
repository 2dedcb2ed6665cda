import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
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
from abperc import percolation
from abperc.parallel import parallel_starmap
from abperc.percolation import (
    _levels,
    ab_crossing_times,
    ab_crossing_trial,
    dense_b_limit_trial,
    one_type_crossing_times,
    one_type_crossing_trial,
)
from conftest import ab_crossing_time, one_type_crossing_time


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

    def test_each_trial_swept_up_to_its_crossing_level(self, monkeypatch):
        # estimate_lambda_c climbs from (2r)**-2 = 0.25 to the default high end 2.0.
        # The pilot, the first 8 trials, climbs until half of it crosses, at s; every
        # other trial is first swept at s. No trial is swept twice at one level, and
        # none above the level where it crosses, unless that is below s
        r, L, trials, seed = 1.0, 12.0, 40, 3
        levels = [0.25, 0.5, 1.0, 2.0]
        times = one_type_crossing_times(seed, range(trials), levels[-1], r, L, 2)
        crossed = [next(v for v in levels if T <= v * L * L) for T in times]
        s = sorted(crossed[:8])[3]
        # some trials cross below s, some above
        assert s == 0.5 and {c < s for c in crossed[8:]} == {True, False}
        swept = []

        def spy(seed, block, level, *params):
            swept.extend((int(t), level) for t in block)
            return one_type_crossing_times(seed, block, level, *params)

        monkeypatch.setattr(percolation, "one_type_crossing_times", spy)
        estimate_lambda_c(r, L, trials, 0.05, seed, jobs=1)
        for t in range(trials):
            first = levels[0] if t < 8 else s
            assert [v for u, v in swept if u == t] == \
                [v for v in levels if first <= v <= max(crossed[t], first)]


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

    def test_seeds_whose_limit_fails_are_never_swept(self, monkeypatch):
        # the dense-B limit dominates every finite mu seed by seed, so a seed
        # whose limit does not cross at lam can never cross on the B axis
        lam, L, trials, seed = 0.45, 12.0, 40, 5
        swept = []

        def spy(seed, block, *params):
            swept.extend(int(t) for t in block)
            return ab_crossing_times(seed, block, *params)

        monkeypatch.setattr(percolation, "ab_crossing_times", spy)
        est = estimate_mu_c(1.0, lam, L, trials, 0.1, seed, jobs=1)
        limit = one_type_crossing_times(seed, range(trials), lam, 1.0, L, 2)
        never = {t for t, T in enumerate(limit) if T == math.inf}
        assert not est.no_percolation and never and swept
        assert never.isdisjoint(swept)

    def test_each_live_trial_swept_up_to_its_crossing_level(self, monkeypatch):
        # the B levels climb from r**-2 = 1. The pilot, the first 8 live trials, climbs
        # until half of it crosses, at s; every other live trial is first swept at s.
        # The probe at s reaches the target, so no trial is swept above s
        lam, r, L, trials, seed = 0.45, 1.0, 12.0, 40, 5
        levels = [1.0, 2.0, 4.0, 8.0]
        limit = one_type_crossing_times(seed, range(trials), lam, r, L, 2)
        live = [t for t, T in enumerate(limit) if T < math.inf]
        times = ab_crossing_times(seed, live, levels[-1], lam, r, L, 2)
        crossed = [next((v for v in levels if T <= v * L * L), math.inf) for T in times]
        s = sorted(crossed[:8])[3]
        assert s == 4.0 and sum(c <= s for c in crossed) >= 0.5 * trials
        assert any(c < s for c in crossed[8:]) and any(c > s for c in crossed)
        swept = []

        def spy(seed, block, level, *params):
            swept.extend((int(t), level) for t in block)
            return ab_crossing_times(seed, block, level, *params)

        monkeypatch.setattr(percolation, "ab_crossing_times", spy)
        estimate_mu_c(r, lam, L, trials, 0.1, seed, jobs=1)
        assert {t for t, _ in swept} == set(live)
        for i, t in enumerate(live):
            first = levels[0] if i < 8 else s
            assert [v for u, v in swept if u == t] == \
                [v for v in levels if first <= v <= min(max(crossed[i], first), s)]

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

    def test_first_level_clamped_to_mu_max(self):
        # the first level r**-d = 1 lies above mu_max, and it was probed once
        est = estimate_mu_c(1.0, 1.5, 10.0, 60, 0.05, 3, mu_max=0.8)
        assert not est.no_percolation
        assert max(p.value for p in est.probes[1:]) == 0.8
        assert est.bracket[1] <= 0.8

    def test_no_percolation_only_after_mu_max_fails(self):
        est = estimate_mu_c(1.0, 1.5, 10.0, 60, 0.05, 3, mu_max=0.5)
        assert est.no_percolation
        assert [p.value for p in est.probes] == [math.inf, 0.5]
        assert est.bracket == (0.5, math.inf)
        # mu_max between two levels is probed after the last level below it
        est = estimate_mu_c(1.0, 0.5, 10.0, 60, 0.05, 3, mu_max=3.0)
        assert [p.value for p in est.probes] == [math.inf, 1.0, 2.0, 3.0]
        assert est.no_percolation and est.bracket == (3.0, math.inf)


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
            one_type_crossing_time(0, 0, 1e9, 1e9, 1.0, 10.0, 2)
        with pytest.raises(ResourceLimitError):
            ab_crossing_time(0, 0, 0.5, 1e9, 1e9, 1.0, 10.0, 2)
        with pytest.raises(ResourceLimitError):
            ab_crossing_time(0, 0, 1e9, 1.0, 1.0, 1.0, 10.0, 2)


class TestBlockSweep:
    """A seed's crossing time does not depend on the seeds swept in its block."""

    @given(seed=st.integers(0, 2**32 - 1),
           trials=st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True),
           L=st.sampled_from([4.0, 8.0, 12.0]), d=st.sampled_from([2, 3]),
           lam=st.floats(0.02, 1.5), top=st.floats(0.05, 3.0), halvings=st.integers(0, 12))
    def test_block_matches_blocks_of_one(self, seed, trials, L, d, lam, top, halvings):
        # at --jobs 1, the driver sweeps up to 8 pending seeds as one block
        start = top * 2.0**-halvings
        *_, (_, times) = _levels(one_type_crossing_times, seed, trials, 1, start, top, 1.0, L, d)
        assert times.tolist() == \
            [one_type_crossing_time(seed, t, start, top, 1.0, L, d) for t in trials]
        *_, (_, times) = _levels(ab_crossing_times, seed, trials, 1, start, top, lam, 1.0, L, d)
        assert times.tolist() == \
            [ab_crossing_time(seed, t, lam, start, top, 1.0, L, d) for t in trials]


class TestPilotStart:
    """The level s at which a pilot block starts the other seeds changes where they
    are swept, never a count that a level yields, whether s was too high or too low."""

    TRIALS, LADDER = 16, [1.0, 2.0, 4.0, 8.0]

    def run(self, seed, lam, L, target):
        """Check a pilot-started B sweep, read as ``estimate_mu_c`` reads it, against
        the per-seed oracles swept from 1; return how s compares with the first level
        whose count reaches the target: "over", "under" or "exact"."""
        volume, top = L * L, self.LADDER[-1]
        oracle = np.array([ab_crossing_time(seed, t, lam, 1.0, top, 1.0, L, 2)
                           for t in range(self.TRIALS)])

        def reached(times, v):
            return np.mean(times <= v * volume) >= target

        s = next((v for v in self.LADDER if reached(oracle[:8], v)), top)
        full = next((v for v in self.LADDER if reached(oracle, v)), math.inf)
        maps, yielded = [], []

        def counted(fn, tasks, jobs):
            [level] = {task[2] for task in tasks}
            maps.append(level)
            return parallel_starmap(fn, tasks, jobs)

        with mock.patch.object(percolation, "parallel_starmap", counted):
            for v, times in _levels(ab_crossing_times, seed, range(self.TRIALS), 1, 1.0, top,
                                    lam, 1.0, L, 2, target=target):
                yielded.append(v)
                assert np.count_nonzero(times <= v * volume) == \
                    np.count_nonzero(oracle <= v * volume)
                if reached(times, v):
                    break
        stop = min(full, top)
        assert yielded == [v for v in self.LADDER if v <= stop]
        # one map per level up to s for the pilot, one at s for the others, one per
        # level above s: when s is too low, one map more than the unit start makes
        assert sorted(maps) == sorted([v for v in self.LADDER if v <= max(s, stop)] + [s])
        return "over" if full < s else "under" if full > s else "exact"

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.4, 1.5), L=st.floats(8.0, 15.0),
           target=st.floats(0.1, 1.0))
    def test_counts_match_unit_start(self, seed, lam, L, target):
        self.run(seed, lam, L, target)

    @pytest.mark.parametrize("case, seed, lam, L, target", [
        ("over", 3, 0.9, 10.0, 0.5),
        ("under", 2, 0.9, 10.0, 0.5),
    ])
    def test_wrong_guess(self, case, seed, lam, L, target):
        assert self.run(seed, lam, L, target) == case


class TestEstimatorsMatchTrials:
    """Every probe an estimator logs is the count of its direct per-trial
    indicator over the trials: a crossing-time view must not drift from the
    event it stands for."""

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 8),
           L=st.sampled_from([4.0, 6.0, 8.0]), d=st.sampled_from([2, 3]),
           target=st.sampled_from([0.25, 0.5, 0.75]))
    def test_lambda_c_probes(self, seed, trials, L, d, target):
        # nothing crosses at 0; the high end is about 3.5 lambda_c in d=2 and
        # 5 lambda_c in d=3, so the bisection probes both sides of lambda_c
        high = 1.25 if d == 2 else 0.4
        try:
            est = estimate_lambda_c(1.0, L, trials, high / 32, seed, d=d, bracket=(0.0, high),
                                    target=target)
        except EstimationError:
            reject()
        for p in est.probes:
            assert p.trials == trials
            assert p.successes == sum(one_type_crossing_trial(seed, t, p.value, 1.0, L, d)
                                      for t in range(trials))

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 8),
           L=st.sampled_from([4.0, 6.0, 8.0]), lam=st.floats(0.2, 1.5),
           mu_max=st.sampled_from([0.6, 2.5, 16.0]))
    def test_mu_c_probes(self, seed, trials, L, lam, mu_max):
        est = estimate_mu_c(1.0, lam, L, trials, 0.1, seed, mu_max=mu_max)
        assert est.probes[0].value == math.inf
        for p in est.probes:
            if p.value == math.inf:
                want = sum(dense_b_limit_trial(seed, t, lam, 1.0, L, 2) for t in range(trials))
            else:
                assert p.value <= mu_max
                want = sum(ab_crossing_trial(seed, t, lam, p.value, 1.0, L, 2)
                           for t in range(trials))
            assert p.successes == want


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
