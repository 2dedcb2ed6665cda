import tracemalloc

import numpy as np
import pytest
from scipy.stats import binomtest

from abperc import (
    ResourceLimitError,
    delta_count,
    implication_holds,
    latticecoupling,
    q_coupling,
    sample_coupled_fields,
)
from abperc.latticecoupling import ball_offsets
from abperc.seeding import derived_rng
from conftest import site_related


class TestSiteRelated:
    def test_reflexive(self):
        assert site_related((3, 4), (3, 4), t=1.0, epsilon=0.5)

    def test_far_apart_false(self):
        # beyond 2t no witness site can reach both
        assert not site_related((0, 0), (10, 0), t=1.0, epsilon=0.5)

    def test_matches_joint_ball_scan(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            eps = float(rng.uniform(0.2, 1.0))
            t = float(rng.uniform(eps, 4 * eps))
            u = rng.integers(-3, 4, size=2)
            v = u + rng.integers(-8, 9, size=2)
            rho2 = (t / eps) ** 2
            m = int(np.ceil(2 * t / eps)) + 1
            span = np.arange(-m, m + 1)
            wx, wy = np.meshgrid(span, span, indexing="ij")
            w = np.stack([wx.ravel(), wy.ravel()], axis=1) + u
            want = bool(np.any(
                (((w - u) ** 2).sum(axis=1) <= rho2)
                & (((w - v) ** 2).sum(axis=1) <= rho2)))
            assert site_related(u, v, t, eps) == want


class TestBallOffsets:
    def test_count_matches_delta_count(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            eps = float(rng.uniform(0.2, 1.0))
            t = float(rng.uniform(eps, 5 * eps))
            assert len(ball_offsets(t, eps)) == delta_count(t, eps, 2)


class TestSampleCoupledFields:
    def test_degenerate_equal_probabilities(self):
        field = sample_coupled_fields((24, 24), 1.0, 1.0, 0.6, 0.6, 3)
        assert np.array_equal(field.V, field.T)
        assert bool(field.W[field.interior].all())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sample_coupled_fields((24, 24), 1.0, 1.0, 0.5, 0.7, 0)
        with pytest.raises(ValueError):
            sample_coupled_fields((24, 24), 1.0, 1.0, 0.5, 0.0, 0)
        with pytest.raises(ValueError):
            sample_coupled_fields((24, 24), 1.0, 0.5, 0.5, 0.3, 0)  # t < epsilon
        with pytest.raises(ValueError):
            sample_coupled_fields((2, 2), 1.0, 1.0, 0.5, 0.3, 0)  # no interior
        for t, eps in [(np.inf, 1.0), (np.nan, 1.0), (1.0, np.nan), (1.0, np.inf)]:
            with pytest.raises(ValueError, match="finite"):
                sample_coupled_fields((24, 24), eps, t, 0.5, 0.3, 0)

    def test_budgets_checked_before_offsets_enumerated(self, monkeypatch):
        # a ball of a million sites per field is refused, not enumerated
        def enumerate_ball(t, epsilon):
            raise AssertionError("offsets enumerated before the budget checks")

        monkeypatch.setattr(latticecoupling, "ball_offsets", enumerate_ball)
        with pytest.raises(ResourceLimitError):
            sample_coupled_fields((8, 8), 1.0, 1000.0, 0.5, 0.3, 0)
        with pytest.raises(ValueError, match="window"):
            sample_coupled_fields((8, 8), 1.0, 4.0, 0.5, 0.3, 0)

    @pytest.mark.parametrize("window, epsilon, t, seed, path", [
        ((16, 16), 1.0, 1.5, 9, ()),
        ((24, 20), 0.7, 2.5, 3, (1,)),
        ((40, 33), 1.0, 2.5, 0, (2, 5)),
    ])
    def test_bits_match_stacked_reference(self, window, epsilon, t, seed, path):
        # every U plane drawn from the same stream and held, then V and W
        # built from their definitions with zero-padded shifts
        p_lambda, p_nu = 0.6, 0.3
        offsets = ball_offsets(t, epsilon)
        rng = derived_rng(seed, *path)
        T = rng.random(window) < p_lambda
        U = np.stack([rng.random(window) < (p_nu / p_lambda) ** (1.0 / len(offsets))
                      for _ in offsets])
        m = int(np.abs(offsets).max())
        W = np.zeros(window, dtype=bool)
        for (ox, oy), plane in zip(offsets, U):
            padded = np.pad(plane, m)
            W |= padded[m - ox:m - ox + window[0], m - oy:m - oy + window[1]]
        field = sample_coupled_fields(window, epsilon, t, p_lambda, p_nu, seed, path=path)
        assert np.array_equal(field.T, T)
        assert np.array_equal(field.V, T & U.all(axis=0))
        assert np.array_equal(field.W, W)

    def test_field_never_holds_every_u_plane(self):
        # t = 5 gives Delta = 80 U bits per site; the bits of T, V, W, the
        # interior mask, one U plane and its floats are about 13 bytes a site
        tracemalloc.start()
        try:
            sample_coupled_fields((200, 200), 1.0, 5.0, 0.6, 0.3, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 200 * 200

    def test_deterministic(self):
        a = sample_coupled_fields((16, 16), 1.0, 1.5, 0.5, 0.2, 9)
        b = sample_coupled_fields((16, 16), 1.0, 1.5, 0.5, 0.2, 9)
        assert np.array_equal(a.V, b.V) and np.array_equal(a.W, b.W)

    def test_structural_implication_every_site(self):
        for seed in range(5):
            field = sample_coupled_fields((32, 32), 1.0, 1.5, 0.7, 0.3, seed)
            assert implication_holds(field)
            # explicit restatement: V at u forces W on the whole in-window ball
            nx, ny = field.window
            for ux in range(nx):
                for uy in range(ny):
                    if not field.V[ux, uy]:
                        continue
                    for ox, oy in field.offsets:
                        vx, vy = ux + ox, uy + oy
                        if 0 <= vx < nx and 0 <= vy < ny:
                            assert field.W[vx, vy]

    def _pooled(self, p_lambda, p_nu, t, fields=8, window=(128, 128)):
        tm = vm = wm = 0
        tn = vn = wn = 0
        corr_pairs = []
        for k in range(fields):
            f = sample_coupled_fields(window, 1.0, t, p_lambda, p_nu, 2026, path=(k,))
            tm += int(f.T.sum())
            tn += f.T.size
            vm += int(f.V.sum())
            vn += f.V.size
            wm += int(f.W[f.interior].sum())
            wn += int(f.interior.sum())
            corr_pairs.append(f)
        return (tm, tn), (vm, vn), (wm, wn), corr_pairs

    def test_marginal_laws_binomial(self):
        p_lambda, p_nu, t = 0.6, 0.3, 1.0
        Delta = delta_count(t, 1.0, 2)
        q = q_coupling(p_nu, p_lambda, Delta)
        (tm, tn), (vm, vn), (wm, wn), _ = self._pooled(p_lambda, p_nu, t)
        assert vn >= 100_000
        assert binomtest(tm, tn, p_lambda).pvalue >= 1e-3
        assert binomtest(vm, vn, p_nu).pvalue >= 1e-3
        assert binomtest(wm, wn, q).pvalue >= 1e-3
        # 4-standard-error envelope on the V and W means
        assert abs(vm / vn - p_nu) <= 4 * np.sqrt(p_nu * (1 - p_nu) / vn)
        assert abs(wm / wn - q) <= 4 * np.sqrt(q * (1 - q) / wn)

    def test_v_pairwise_independence(self):
        _, _, _, fields = self._pooled(0.6, 0.3, 1.0)
        vs = np.concatenate([f.V.ravel() for f in fields]).astype(float)
        for shift in (1, 129, 7 * 128 + 3):
            a, b = vs[:-shift], vs[shift:]
            corr = np.corrcoef(a, b)[0, 1]
            assert abs(corr) <= 4 / np.sqrt(a.size)

    def test_w_independent_of_t(self):
        # T against W shifted beyond 2t
        _, _, _, fields = self._pooled(0.6, 0.3, 1.0)
        corrs = []
        for f in fields:
            shift = 4  # cells; 4 * epsilon > 2t for t = epsilon
            a = f.T[:-shift, :].ravel().astype(float)
            b = f.W[shift:, :].ravel().astype(float)
            corrs.append((a, b))
        a = np.concatenate([x for x, _ in corrs])
        b = np.concatenate([y for _, y in corrs])
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 4 / np.sqrt(a.size)

    def test_marginals_at_pipeline_like_parameters(self):
        # small occupancy probabilities with a wide relation ball
        p_lambda, p_nu, t = 0.05, 0.03, 2.5
        Delta = delta_count(t, 1.0, 2)
        q = q_coupling(p_nu, p_lambda, Delta)
        (tm, tn), (vm, vn), (wm, wn), _ = self._pooled(p_lambda, p_nu, t, fields=10)
        assert binomtest(tm, tn, p_lambda).pvalue >= 1e-3
        assert binomtest(vm, vn, p_nu).pvalue >= 1e-3
        assert binomtest(wm, wn, q).pvalue >= 1e-3
