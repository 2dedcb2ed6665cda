import math

import numpy as np
import pytest

from abperc import (
    BoundInputs,
    ResourceLimitError,
    asymptotic_constant,
    delta_count,
    epsilon_of_alpha,
    mu_bound_exact_delta,
    mu_bound_optimized,
    mu_bound_relaxed,
    p_occupy,
    q_coupling,
    s_of_alpha,
    unit_ball_volume,
)

LC = 0.3591


class TestSOfAlpha:
    def test_limit_alpha_to_zero(self):
        for alpha in (1e-3, 1e-6, 1e-9):
            assert s_of_alpha(1.0, 0.1, LC, alpha, 2) == pytest.approx(1.0, abs=1e-3)

    def test_worked_example(self):
        # delta = lambda_c, alpha = 1/2: s = (3/2)^(-1/2)
        assert s_of_alpha(1.0, LC, LC, 0.5, 2) == pytest.approx(1.5**-0.5, rel=1e-14)

    def test_scaling_identity_over_grid(self):
        # lambda_c * (r/s)^d = lambda_c + alpha*delta to 1e-12 relative
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            r = float(rng.uniform(0.1, 5.0))
            delta = float(10 ** rng.uniform(-8, 1))
            alpha = float(rng.uniform(0.001, 0.999))
            s = s_of_alpha(r, delta, LC, alpha, d)
            assert s < r
            assert LC * (r / s) ** d == pytest.approx(LC + alpha * delta, rel=1e-12)

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            s_of_alpha(1.0, -0.1, LC, 0.5, 2)
        with pytest.raises(ValueError):
            s_of_alpha(1.0, 0.1, LC, 1.0, 2)


class TestEpsilonOfAlpha:
    def test_limit_alpha_to_zero(self):
        assert epsilon_of_alpha(1.0, 0.1, LC, 1e-9, 2) == pytest.approx(0.0, abs=1e-9)

    def test_worked_example(self):
        want = (1.0 - 1.5**-0.5) / (2.0 * math.sqrt(2.0))
        assert epsilon_of_alpha(1.0, LC, LC, 0.5, 2) == pytest.approx(want, rel=1e-14)

    def test_small_delta_asymptote(self):
        # ratio to alpha*r*delta/(2 d^{3/2} lambda_c) approaches 1
        delta, alpha, d, r = 1e-6, 0.7, 2, 1.3
        eps = epsilon_of_alpha(r, delta, LC, alpha, d)
        asymptote = alpha * r * delta / (2.0 * d**1.5 * LC)
        assert eps / asymptote == pytest.approx(1.0, abs=1e-3)


class TestPOccupy:
    def test_zero_intensity(self):
        assert p_occupy(0.0, 0.3, 2) == 0.0

    def test_half_at_log_two(self):
        eps = 0.25
        a = math.log(2.0) / eps**2
        assert p_occupy(a, eps, 2) == pytest.approx(0.5, rel=1e-12)

    def test_strictly_increasing(self):
        values = [p_occupy(a, 0.2, 2) for a in (0.0, 0.5, 1.0, 5.0, 50.0)]
        assert all(x < y for x, y in zip(values, values[1:]))


class TestDeltaCount:
    def test_unit_examples(self):
        assert delta_count(1.0, 1.0, 2) == 4
        assert delta_count(1.5, 1.0, 2) == 8

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            eps = float(rng.uniform(0.1, 1.0))
            t = float(rng.uniform(eps, 6 * eps))
            m = int(t / eps) + 1
            grids = np.meshgrid(*([np.arange(-m, m + 1)] * d), indexing="ij")
            pts = np.stack([g.ravel() for g in grids], axis=1)
            norms2 = (pts.astype(float) ** 2).sum(axis=1) * eps * eps
            want = int(np.sum((norms2 <= t * t) & (norms2 > 0)))
            assert delta_count(t, eps, d) == want

    def test_guard_raises(self):
        with pytest.raises(ResourceLimitError):
            delta_count(1.0, 1e-5, 2)

    def test_guard_bounds_lattice_lines_in_high_dimension(self):
        # 201**2 lines of one numpy call each, against 2 * MAX_CELLS_PER_AXIS + 1
        with pytest.raises(ResourceLimitError):
            delta_count(100.0, 1.0, 4)

    def test_volume_inequality_under_admissible_spacing(self):
        # eps^d * Delta <= pi_d * r^d when eps comes from the spacing rule
        rng = np.random.default_rng(2)
        for _ in range(30):
            d = 2
            r = float(rng.uniform(0.5, 2.0))
            delta = float(10 ** rng.uniform(-2, 0))
            alpha = float(rng.uniform(0.05, 0.95))
            eps = epsilon_of_alpha(r, delta, LC, alpha, d)
            s = s_of_alpha(r, delta, LC, alpha, d)
            t = 0.5 * (r + s)
            try:
                Delta = delta_count(t, eps, d)
            except ResourceLimitError:
                continue
            assert eps**d * Delta <= unit_ball_volume(d) * r**d


class TestQCoupling:
    def test_equal_probabilities(self):
        assert q_coupling(0.4, 0.4, 7) == 1.0

    def test_zero_numerator(self):
        assert q_coupling(0.0, 0.4, 7) == 0.0

    def test_delta_one_reduces_to_ratio(self):
        assert q_coupling(0.12, 0.48, 1) == pytest.approx(0.25, rel=1e-12)

    def test_strictly_below_one_when_representable(self):
        assert q_coupling(0.3, 0.6, 8) < 1.0
        assert q_coupling(0.01, 0.9, 4) < 1.0
        # the gap underflows double resolution at large Delta and rounds to 1
        assert q_coupling(0.3, 0.6, 200) == 1.0

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            q_coupling(0.7, 0.6, 4)


class TestMuBounds:
    def setup_method(self):
        self.inputs = BoundInputs(d=2, r=1.0, lam=2 * LC, lambda_c=LC)

    def test_finite_positive_on_grid(self):
        for alpha in self.inputs.alphas:
            exact = mu_bound_exact_delta(self.inputs, float(alpha))
            relaxed = mu_bound_relaxed(self.inputs, float(alpha))
            assert 0 < exact < math.inf
            assert 0 < relaxed < math.inf

    def test_exact_dominated_by_relaxed(self):
        for alpha in self.inputs.alphas:
            assert mu_bound_exact_delta(self.inputs, float(alpha)) <= \
                mu_bound_relaxed(self.inputs, float(alpha))

    def test_regression_pin_at_alpha_half(self):
        assert mu_bound_exact_delta(self.inputs, 0.5) == pytest.approx(
            1106112.497666702, rel=1e-9)
        assert mu_bound_relaxed(self.inputs, 0.5) == pytest.approx(
            1394185.449666562, rel=1e-9)

    def test_interior_optimum_on_fine_grid(self):
        alphas = np.linspace(0.005, 0.995, 199)
        inputs = BoundInputs(d=2, r=1.0, lam=2 * LC, lambda_c=LC, alphas=alphas)
        values = [mu_bound_relaxed(inputs, float(a)) for a in alphas]
        k = int(np.argmin(values))
        assert 0 < k < len(values) - 1
        assert values[0] > values[k] and values[-1] > values[k]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            BoundInputs(d=2, r=1.0, lam=LC, lambda_c=LC)
        with pytest.raises(ValueError):
            BoundInputs(d=1, r=1.0, lam=1.0, lambda_c=LC)
        with pytest.raises(ValueError):
            BoundInputs(d=2, r=1.0, lam=1.0, lambda_c=LC, alphas=[0.5, 1.0])


class TestMuBoundOptimized:
    def test_singleton_grid(self):
        inputs = BoundInputs(d=2, r=1.0, lam=2 * LC, lambda_c=LC, alphas=[0.37])
        report = mu_bound_optimized(inputs)
        assert report.alpha_opt == 0.37
        assert report.mu_hat == mu_bound_relaxed(inputs, 0.37)

    def test_refining_grid_never_increases_minimum(self):
        coarse = BoundInputs(d=2, r=1.0, lam=2 * LC, lambda_c=LC,
                             alphas=np.geomspace(0.01, 0.99, 16))
        fine_alphas = np.unique(np.concatenate(
            [coarse.alphas, np.geomspace(0.01, 0.99, 64)]))
        fine = BoundInputs(d=2, r=1.0, lam=2 * LC, lambda_c=LC, alphas=fine_alphas)
        assert mu_bound_optimized(fine).mu_hat <= mu_bound_optimized(coarse).mu_hat

    def test_report_table_dominance_rowwise(self):
        report = mu_bound_optimized(BoundInputs(d=2, r=1.0, lam=2 * LC, lambda_c=LC))
        for row in report.rows:
            assert row.mu_exact_delta is not None
            assert row.mu_exact_delta <= row.mu_relaxed
            assert 0 < row.p_nu < row.p_lambda < 1

    def test_exact_column_skipped_beyond_guard(self):
        report = mu_bound_optimized(BoundInputs(d=2, r=1.0, lam=LC + 1e-4, lambda_c=LC))
        assert all(row.mu_exact_delta is None for row in report.rows)
        assert report.mu_hat_exact is None
        assert math.isfinite(report.mu_hat)

    def test_delta_sweep_rate(self):
        # mu_hat * delta^{2d} / |log delta| nonincreasing over the sweep and
        # within 1.5x the asymptotic prefactor at the smallest excess
        C = asymptotic_constant(1.0, LC, 2)
        rates = []
        for delta in (1e-2, 1e-3, 1e-4):
            report = mu_bound_optimized(
                BoundInputs(d=2, r=1.0, lam=LC + delta, lambda_c=LC))
            rates.append(report.mu_hat * delta**4 / abs(math.log(delta)))
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[-1] <= 1.5 * C


class TestAsymptoticConstant:
    def test_plug_in_value(self):
        # (4 * lc^2)^2 * 2^6 * 3 * pi at d=2, r=1
        want = (4 * 0.35911**2) ** 2 * 64 * 3 * math.pi
        assert asymptotic_constant(1.0, 0.35911, 2) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(160.5, abs=0.1)

    def test_monotone_in_lambda_c(self):
        values = [asymptotic_constant(1.0, lc, 2) for lc in (0.1, 0.2, 0.4, 0.8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_no_scaling_identity_asserted(self):
        # recomputation at rescaled inputs is just a fresh evaluation
        a = asymptotic_constant(2.0, 0.3, 2)
        b = asymptotic_constant(1.0, 0.3, 2)
        assert a == pytest.approx(b / 4.0, rel=1e-12)


class TestUnitBallVolume:
    def test_known_dimensions(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
