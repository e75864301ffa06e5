"""Control variates: values, feature decompositions, parameter gradients,
and the zero-mean property under the target."""

import numpy as np
import pytest

from esvm.chains import SeedKey
from esvm.samplers import SamplerConfig, sample_chain
from esvm.stein import (
    SteinFamily,
    feature_matrix,
    rbf_gradient,
    rbf_quantile_centers,
    stein_values,
)
from esvm.targets import gmm_isolated_target, gmm_target
from esvm.variance import LagWindow, default_truncation, spectral_variance

from _oracles import feature_row, stein_value


class TestSteinValue:
    def test_constant_field_on_quadratic_potential(self):
        # Phi = b, U = |x|^2/2: g(x) = -<b, x>; at b=(1,0), x=(2,3) -> -2
        fam = SteinFamily("first_order", 2)
        assert stein_value(fam, np.array([1.0, 0.0]), np.array([2.0, 3.0]),
                           np.array([2.0, 3.0])) == -2.0

    def test_identity_field_on_quadratic_potential(self):
        # Phi = x (A = I, b = 0): g = -|x|^2 + d; at the origin in d=2 -> 2
        fam = SteinFamily("second_order", 2)
        theta = np.concatenate([np.zeros(2), np.eye(2).ravel()])
        assert stein_value(fam, theta, np.zeros(2), np.zeros(2)) == 2.0

    def test_single_bump_closed_form(self):
        # one bump at 0 with unit amplitude on U = x^2/2:
        # g(x) = (1 - 2 x^2) exp(-x^2/2); hand-differentiated, FD-checked below
        fam = SteinFamily("rbf", 1, n_centers=1)
        theta = np.array([1.0, 0.0])
        assert stein_value(fam, theta, np.array([0.0]), np.array([0.0])) == 1.0
        for x in (-1.3, 0.4, 2.0):
            expect = (1.0 - 2.0 * x * x) * np.exp(-0.5 * x * x)
            got = stein_value(fam, theta, np.array([x]), np.array([x]))
            assert got == pytest.approx(expect, rel=1e-14)

    def test_linearity_in_parameters(self):
        rng = np.random.default_rng(0)
        fam = SteinFamily("second_order", 3)
        x = rng.standard_normal(3)
        grad = rng.standard_normal(3)
        t1 = rng.standard_normal(fam.n_params)
        t2 = rng.standard_normal(fam.n_params)
        left = stein_value(fam, t1 + t2, x, grad)
        right = stein_value(fam, t1, x, grad) + stein_value(fam, t2, x, grad)
        assert left == pytest.approx(right, rel=1e-12)

    def test_parameter_length_checked(self):
        with pytest.raises(ValueError):
            stein_value(SteinFamily("first_order", 2), np.zeros(3), np.zeros(2), np.zeros(2))


class TestFeatureRows:
    def test_first_order_row_is_negative_gradient(self):
        row = feature_row(SteinFamily("first_order", 2), np.zeros(2), np.array([3.0, -1.0]))
        np.testing.assert_array_equal(row, [-3.0, 1.0])

    def test_second_order_row_hand_value(self):
        # d=1, x=2, dU=2: psi = (-dU | -x dU + 1) = (-2, -3)
        row = feature_row(SteinFamily("second_order", 1), np.array([2.0]), np.array([2.0]))
        np.testing.assert_array_equal(row, [-2.0, -3.0])

    def test_consistency_with_stein_value(self):
        rng = np.random.default_rng(1)
        for fam in (SteinFamily("first_order", 3), SteinFamily("second_order", 3)):
            for _ in range(250):
                x = rng.standard_normal(3)
                grad = rng.standard_normal(3)
                theta = rng.standard_normal(fam.n_params)
                via_row = float(feature_row(fam, x, grad) @ theta)
                direct = stein_value(fam, theta, x, grad)
                assert via_row == pytest.approx(direct, abs=1e-12, rel=1e-12)

    def test_rbf_not_linear(self):
        with pytest.raises(ValueError, match="not linear"):
            feature_matrix(SteinFamily("rbf", 1, 2), np.zeros((3, 1)), np.zeros((3, 1)))

    def test_matrix_stacks_rows(self):
        rng = np.random.default_rng(2)
        fam = SteinFamily("second_order", 2)
        xs = rng.standard_normal((10, 2))
        grads = rng.standard_normal((10, 2))
        mat = feature_matrix(fam, xs, grads)
        for i in (0, 4, 9):
            np.testing.assert_allclose(mat[i], feature_row(fam, xs[i], grads[i]), rtol=1e-15)


class TestRbfGradient:
    def test_zero_amplitudes(self):
        fam = SteinFamily("rbf", 1, n_centers=3)
        theta = np.concatenate([np.zeros(3), np.array([-1.0, 0.0, 1.0])])
        x, du = np.array([0.5]), np.array([0.5])
        assert stein_value(fam, theta, x, du) == 0.0
        grad = rbf_gradient(fam, theta, x, du)
        assert grad.shape == (6,)
        np.testing.assert_array_equal(grad[3:], 0.0)  # center partials scale with amplitude
        u = 0.5 - np.array([-1.0, 0.0, 1.0])
        expect = (-u * 0.5 + 1 - u * u) * np.exp(-0.5 * u * u)
        np.testing.assert_allclose(grad[:3], expect, rtol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        fam = SteinFamily("rbf", 1, n_centers=4)
        for _ in range(100):
            theta = rng.standard_normal(8)
            x = np.array([rng.standard_normal() * 2])
            du = np.array([rng.standard_normal()])
            analytic = rbf_gradient(fam, theta, x, du)
            fd = np.empty(8)
            for j in range(8):
                h = 1e-5
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fd[j] = (stein_value(fam, tp, x, du) - stein_value(fam, tm, x, du)) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-10)
            assert np.linalg.norm(analytic - fd) / denom < 1e-6

    def test_quantile_centers(self):
        xs = np.arange(1.0, 12.0)
        centers = rbf_quantile_centers(xs, 10)
        assert centers.shape == (10,)
        assert np.all(np.diff(centers) > 0)
        np.testing.assert_allclose(rbf_quantile_centers(xs, 1), [6.0])


class TestZeroMean:
    @staticmethod
    def _chain_z(fam, theta, seed, n):
        """z-score of a MALA chain's average of the control variate on the
        mixture against its spectral standard error."""
        target = gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2))
        traj, _ = sample_chain(SamplerConfig("mala", 1.0, n, seed), target)
        values = stein_values(fam, theta, traj.states, target.gradient(traj.states))
        sv = spectral_variance(values, LagWindow(default_truncation(n)))
        return values.mean() / np.sqrt(max(sv.value, 1e-300) / n)

    def test_zero_parameters_give_zero_score(self):
        fam = SteinFamily("first_order", 2)
        assert self._chain_z(fam, np.zeros(2), SeedKey(0, 0), 10) == 0.0

    def test_constant_field_zero_mean_on_gaussian(self):
        fam = SteinFamily("first_order", 2)
        z = self._chain_z(fam, np.array([1.0, 0.0]), SeedKey(8, 0), 100_000)
        assert abs(z) < 4.0

    def test_affine_field_zero_mean(self):
        fam = SteinFamily("second_order", 2)
        theta = np.concatenate([np.zeros(2), np.array([[2.0, 0.5], [0.0, 1.0]]).ravel()])
        z = self._chain_z(fam, theta, SeedKey(9, 0), 100_000)
        assert abs(z) < 4.0

    def test_monte_carlo_zero_mean_exact_sampler(self):
        # independent draws from the exact target (not a chain): the average
        # of g over n draws has standard error sd(g)/sqrt(n)
        rng = np.random.default_rng(14)
        n = 200_000
        comp = rng.random(n) < 0.5
        draws = np.where(comp[:, None],
                         rng.standard_normal((n, 2)) + np.array([0.5, 0.5]),
                         rng.standard_normal((n, 2)) - np.array([0.5, 0.5]))
        target = gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2))
        grads = target.gradient(draws)
        for fam, theta in [
            (SteinFamily("first_order", 2), np.array([1.0, -0.5])),
            (SteinFamily("second_order", 2),
             np.concatenate([np.array([0.3, 0.1]), np.array([1.0, 0.2, -0.4, 2.0])])),
        ]:
            vals = stein_values(fam, theta, draws, grads)
            z = vals.mean() / (vals.std(ddof=1) / np.sqrt(n))
            assert abs(z) < 4.0

    def test_rbf_zero_mean_exact_sampler(self):
        rng = np.random.default_rng(15)
        n = 200_000
        comp = rng.random(n) < 0.4
        draws = np.where(comp, rng.standard_normal(n) * 1.0 - 3.0,
                         rng.standard_normal(n) * 0.5 + 4.0)[:, None]
        target = gmm_isolated_target(0.4, -3.0, 1.0, -4.0, 0.5)
        grads = target.gradient(draws)
        fam = SteinFamily("rbf", 1, n_centers=3)
        theta = np.array([0.7, -0.2, 1.1, -3.0, 0.0, 4.0])
        vals = stein_values(fam, theta, draws, grads)
        z = vals.mean() / (vals.std(ddof=1) / np.sqrt(n))
        assert abs(z) < 4.0
