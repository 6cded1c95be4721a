"""Tests for the acquisition-probability analysis helpers."""

import math
import re

import numpy as np
import pytest

from streamacq.theory import (
    McEstimate,
    RalSweepConfig,
    TheoryParams,
    expected_ld_acquisition,
    mc_ld_acquisition,
    mc_ral_nonconvergence,
    solve_m2,
    squared_distance_moments,
)


class TestSquaredDistanceMoments:
    def test_centered_case(self):
        mean, var = squared_distance_moments(0.0, 1.0, 1.0, 15)
        assert mean == pytest.approx(30.0)
        assert var == pytest.approx(120.0)

    def test_shifted_case(self):
        mean, var = squared_distance_moments(4.0, 1.0, 1.0, 15)
        assert mean == pytest.approx(34.0)
        assert var == pytest.approx(152.0)

    def test_matches_monte_carlo(self):
        """The normal-approximation moments are the exact moments of the
        squared distance between two spherical Gaussians."""
        rng = np.random.default_rng(77)
        c, sa, sb, q = 4.0, 1.0, 0.5, 15
        offset = np.zeros(q)
        offset[0] = math.sqrt(c)
        a = rng.normal(size=(100_000, q)) * math.sqrt(sa)
        b = rng.normal(size=(100_000, q)) * math.sqrt(sb) + offset
        d2 = ((a - b) ** 2).sum(axis=1)
        mean, var = squared_distance_moments(c, sa, sb, q)
        assert mean == pytest.approx(d2.mean(), rel=0.01)
        assert var == pytest.approx(d2.var(), rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            squared_distance_moments(-1.0, 1.0, 1.0, 5)
        with pytest.raises(ValueError):
            squared_distance_moments(0.0, 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            squared_distance_moments(0.0, 1.0, 1.0, 0)


class TestExpectedAcquisition:
    def test_symmetric_source_gives_unit_rate(self):
        """When incoming samples match the window distribution, the expected
        sparsity count is one member, i.e. 1/(L*delta) of the vote scale."""
        params = TheoryParams(center_dist_sq=0.0)
        assert expected_ld_acquisition(params) == pytest.approx(1.0, abs=0.1)

    def test_monotone_in_distribution_shift(self):
        values = [expected_ld_acquisition(TheoryParams(center_dist_sq=c))
                  for c in np.linspace(0.0, 30.0, 8)]
        assert np.all(np.diff(values) >= -1e-3)

    def test_saturates_below_window_scale(self):
        params = TheoryParams(center_dist_sq=500.0)
        value = expected_ld_acquisition(params)
        scale = params.window / (params.window * params.sparsity_level)
        assert value <= scale + 1e-6

    def test_unclipped_expectation_can_exceed_one(self):
        assert expected_ld_acquisition(TheoryParams(center_dist_sq=30.0)) > 1.0

    def test_large_finite_shift_still_saturates(self):
        assert expected_ld_acquisition(TheoryParams(center_dist_sq=1e12)) == pytest.approx(20.0)

    @pytest.mark.parametrize("kwargs, named", [
        ({"center_dist_sq": 1e300}, "center_dist_sq=1e+300"),
        ({"sigma_window_sq": 1e-300}, "sigma_window_sq=1e-300"),
        ({"sigma_window_sq": 1e300}, "sigma_window_sq=1e+300"),
        ({"sigma_incoming_sq": 1e300}, "sigma_incoming_sq=1e+300"),
    ], ids=["huge-shift", "tiny-window-variance", "huge-window-variance",
            "huge-incoming-variance"])
    def test_extreme_settings_rejected_with_their_values(self, kwargs, named):
        """Settings whose quadrature grid degenerates fail, naming the values,
        instead of returning a wrong rate or asking for a wider grid."""
        with pytest.raises(ValueError, match=re.escape(named)):
            expected_ld_acquisition(TheoryParams(**kwargs))


class TestMcAcquisition:
    def test_agrees_with_closed_form_on_grid(self):
        for c in np.linspace(0.0, 30.0, 8):
            params = TheoryParams(center_dist_sq=float(c), draws=10_000, seed=17)
            closed = expected_ld_acquisition(params)
            mc = mc_ld_acquisition(params)
            assert abs(closed - mc.mean) <= 3.0 * mc.se + 0.05, f"c={c}"

    def test_matching_distributions_give_unit_sparsity(self):
        mc = mc_ld_acquisition(TheoryParams(center_dist_sq=0.0, draws=10_000,
                                            seed=5, dim=5))
        assert abs(mc.mean - 1.0) <= 3.0 * mc.se

    def test_estimate_fields(self):
        mc = mc_ld_acquisition(TheoryParams(draws=2_000, seed=1))
        assert isinstance(mc, McEstimate)
        assert mc.clipped_mean <= 1.0
        assert mc.clipped_mean <= mc.mean + 1e-12
        assert mc.se > 0.0
        assert mc.clipped_se >= 0.0

    def test_deterministic_given_seed(self):
        a = mc_ld_acquisition(TheoryParams(draws=1_500, seed=3))
        b = mc_ld_acquisition(TheoryParams(draws=1_500, seed=3))
        assert a == b

    def test_too_few_draws_rejected(self):
        with pytest.raises(ValueError):
            mc_ld_acquisition(TheoryParams(draws=500))


class TestSolveM2:
    def test_returns_finite_target_with_high_acquisition(self):
        m1, m2 = solve_m2(TheoryParams())
        assert math.isfinite(m1) and math.isfinite(m2)
        assert 0.0 < m2 < m1
        assert expected_ld_acquisition(TheoryParams(center_dist_sq=m2)) >= 0.9

    def test_residual_is_tight(self):
        params = TheoryParams()
        m1, m2 = solve_m2(params)
        s = params.sigma_window_sq + params.sigma_incoming_sq
        q = params.dim
        from scipy.special import erfinv
        residual = (m2 + erfinv(1.0 - 2.0 * params.sparsity_level)
                    * math.sqrt(2.0 * (4.0 * s * m2 + 2.0 * q * s * s))
                    + s * q - m1)
        assert abs(residual) <= 1e-6

    def test_margin_slack_scales_the_target(self):
        lo = solve_m2(TheoryParams(margin_slack=1.01))
        hi = solve_m2(TheoryParams(margin_slack=1.5))
        assert hi[0] > lo[0]
        assert hi[1] > lo[1]

    def test_target_grows_with_dimension(self):
        m2_by_dim = [solve_m2(TheoryParams(dim=q))[1] for q in (5, 15, 30)]
        assert np.all(np.diff(m2_by_dim) > 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_m2(TheoryParams(sparsity_level=0.5))
        with pytest.raises(ValueError):
            solve_m2(TheoryParams(window=2))
        for name, value in (("center_dist_sq", math.nan), ("sigma_window_sq", math.nan),
                            ("sigma_incoming_sq", math.inf), ("margin_slack", math.nan)):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TheoryParams(**{name: value})


class TestRalSweep:
    def test_acquisition_dispersion_does_not_die_out(self):
        """However far the incoming stream drifts, the spread of the
        certainty-threshold proposals never collapses toward zero."""
        config = RalSweepConfig(dim=4, pool_size=30, n_pools=20, draws=150,
                                threshold=0.95, seed=11)
        distances = np.array([0.0, 2.0, 6.0, 12.0])
        means, stds = mc_ral_nonconvergence(config, distances)
        assert means.shape == distances.shape
        assert np.all(means >= 0.0) and np.all(means <= 1.0)
        assert stds[-1] >= 0.5 * stds[0]

    def test_threshold_one_always_proposes(self):
        config = RalSweepConfig(dim=3, pool_size=20, n_pools=5, draws=50,
                                threshold=1.0, seed=2)
        means, stds = mc_ral_nonconvergence(config, np.array([0.0, 5.0]))
        np.testing.assert_allclose(means, 1.0)
        np.testing.assert_allclose(stds, 0.0)

    def test_validation(self):
        for name in ("class_offset", "sigma_pool_sq"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                RalSweepConfig(**{name: math.nan})

    def test_deterministic_given_seed(self):
        config = RalSweepConfig(dim=3, pool_size=20, n_pools=5, draws=50, seed=4)
        grid = np.array([0.0, 3.0])
        a = mc_ral_nonconvergence(config, grid)
        b = mc_ral_nonconvergence(config, grid)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
