"""Target potentials and gradients, dataset ingestion, the reference chain,
and the scipy subpackages that importing esvm loads."""

import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import esvm
from esvm.targets import (
    _sigmoid,
    banana_target,
    build_dataset,
    gmm_isolated_target,
    gmm_target,
    ingest_csv,
    logistic_target,
    probit_target,
    synthetic_logistic_dataset,
)

from _oracles import (
    ar1_reference,
    finite_difference_gradient,
    unfolded_regression,
    unfolded_test_likelihood,
)


def _audit_gradient(target, probes, scale=2.0, seed=0, tol=1e-5):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        x = scale * rng.standard_normal(target.dim)
        grad = np.asarray(target.gradient(x))
        fd = finite_difference_gradient(target.potential, x)
        worst = max(worst, np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8))
    assert worst < tol, f"{target.label}: worst relative gradient error {worst}"


_TARGETS = {
    "gmm": lambda: gmm_target(0.35, np.array([0.4, -0.7]),
                              np.array([[1.3, 0.2], [0.2, 0.6]])),
    "gmm_isolated": lambda: gmm_isolated_target(0.4, -3.0, 1.0, -4.0, 0.5),
    "banana": lambda: banana_target(100.0, 0.1, 4),
    "logistic": lambda: logistic_target(synthetic_logistic_dataset(200, 5, k_test=40, seed=3)),
    "probit": lambda: probit_target(synthetic_logistic_dataset(200, 5, k_test=40, seed=3)),
}


@pytest.mark.parametrize("name", sorted(_TARGETS))
def test_potential_and_gradient_match_value_and_grad_bit_for_bit(name):
    # the samplers call whichever entry point they need, so a chain must not
    # depend on which one produced its numbers; and none may warn, even in
    # the far tail (|x| = 1e3)
    t = _TARGETS[name]()
    rng = np.random.default_rng(21)
    batch = 2.0 * rng.standard_normal((25, t.dim))
    tail = 1e3 * batch / np.linalg.norm(batch, axis=1, keepdims=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (batch[0], batch, tail[0], tail):
            u, g = t.value_and_grad(x)
            assert np.shape(u) == x.shape[:-1] and g.shape == x.shape
            assert np.all(np.isfinite(u)) and np.all(np.isfinite(g))
            assert np.array_equal(t.potential(x), u)
            assert np.array_equal(t.gradient(x), g)


def _gmm_cov5():
    """A 5-D mixture with a seeded SPD covariance, so that S^-1 x rounds."""
    rng = np.random.default_rng(92)
    m = rng.standard_normal((5, 5))
    return gmm_target(0.35, 0.5 * rng.standard_normal(5), m @ m.T / 5 + np.eye(5))


_ROW_TARGETS = {**_TARGETS, "banana_d2": lambda: banana_target(100.0, 0.1, 2),
                "gmm_cov5": _gmm_cov5}


@pytest.mark.parametrize("d", range(1, 8))
def test_mixture_rows_have_the_batched_bits(d):
    # a lone chain's (d,) row of the mixture is computed in Python floats at
    # small d; one changed summation order moves a last bit, which almost
    # never shows in a chain, so rows are compared here one by one, with
    # coordinates spread over 12 decades and exact zeros of either sign
    rng = np.random.default_rng(100 + d)
    m = rng.standard_normal((d, d))
    t = gmm_target(0.35, 0.5 * rng.standard_normal(d), m @ m.T / d + np.eye(d))
    x = rng.standard_normal((1000, d)) * 10.0 ** rng.uniform(-6, 6, (1000, d))
    x[:20] = 0.0
    x[20:40] = -0.0
    u, g = t.value_and_grad(x)
    for row, u_i, g_i in zip(x, u, g):
        assert np.float64(t.potential(row)).tobytes() == u_i.tobytes()
        assert t.gradient(row).tobytes() == g_i.tobytes()


def _assert_rows_match(got, ref, exact):
    assert np.shape(got) == np.shape(ref)
    if exact:
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
    else:
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("name", sorted(_ROW_TARGETS))
def test_rows_do_not_depend_on_the_leading_shape(name):
    # a lone chain hands the target its (d,) state, a batch its (C, d)
    # states: a row evaluated alone, or inside an (n, C, d) stack, must give
    # that row of the (C, d) call, at ordinary points and in the far tail;
    # bit for bit, except the regression posteriors' rows, which go through
    # BLAS and are compared within 1e-12
    t = _ROW_TARGETS[name]()
    exact = name not in ("logistic", "probit")
    rng = np.random.default_rng(23)
    batch = 2.0 * rng.standard_normal((25, t.dim))
    tail = 1e3 * batch / np.linalg.norm(batch, axis=1, keepdims=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pts in (batch, tail):
            u, g = t.value_and_grad(pts)
            for i, x in enumerate(pts):
                for got in (t.potential(x), t.value_and_grad(x)[0]):
                    assert np.ndim(got) == 0
                    _assert_rows_match(got, u[i], exact)
                for got in (t.gradient(x), t.value_and_grad(x)[1]):
                    _assert_rows_match(got, g[i], exact)
            stack = np.stack([pts, pts[::-1], pts])
            u3, g3 = t.value_and_grad(stack)
            _assert_rows_match(u3, np.stack([u, u[::-1], u]), exact)
            _assert_rows_match(g3, np.stack([g, g[::-1], g]), exact)
            _assert_rows_match(t.potential(stack), u3, True)
            _assert_rows_match(t.gradient(stack), g3, True)


class TestGmmTarget:
    def test_symmetric_mixture_moments(self):
        t = gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2))
        assert t.exact_moments["coordinate[0]"] == 0.0
        assert t.exact_moments["second_moment[0]"] == pytest.approx(1.25)

    def test_gradient_vanishes_at_symmetric_center(self):
        t = gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2))
        np.testing.assert_allclose(t.gradient(np.zeros(2)), 0.0, atol=1e-14)

    def test_gradient_audit(self):
        _audit_gradient(gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2)), 64)
        rng = np.random.default_rng(77)
        m = rng.standard_normal((2, 2))
        sigma = m @ m.T + 0.3 * np.eye(2)
        _audit_gradient(gmm_target(0.35, np.array([0.4, -0.7]), sigma), 64, seed=1)

    def test_non_positive_definite_covariance_rejected(self):
        with pytest.raises(ValueError):
            gmm_target(0.5, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_batched_evaluation_matches_pointwise(self):
        t = gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2))
        rng = np.random.default_rng(6)
        xs = rng.standard_normal((40, 2))
        u_batch, g_batch = t.value_and_grad(xs)
        for i in range(40):
            u, g = t.value_and_grad(xs[i])
            assert u_batch[i] == pytest.approx(u, rel=1e-14)
            np.testing.assert_allclose(g_batch[i], g, rtol=1e-14)

    @staticmethod
    def _component_reference(rho, mu, sigma, x):
        """The mixture as two component quadratics joined by a log-sum-exp,
        with expit responsibilities; also the largest finite |log weight|
        of a component, the scale to which this form rounds."""
        sinv = np.linalg.inv(sigma)
        with np.errstate(divide="ignore"):
            log_w1, log_w2 = np.log(rho), np.log(1.0 - rho)
        m1, m2 = x - mu, x + mu
        g1, g2 = m1 @ sinv, m2 @ sinv
        a1 = log_w1 - 0.5 * np.add.reduce(m1 * g1, axis=-1)
        a2 = log_w2 - 0.5 * np.add.reduce(m2 * g2, axis=-1)
        w1 = expit(a1 - a2)
        grad = w1[..., None] * g1 + (1.0 - w1)[..., None] * g2
        scale = np.maximum(np.where(np.isfinite(a1), np.abs(a1), 0.0),
                           np.where(np.isfinite(a2), np.abs(a2), 0.0))
        return -np.logaddexp(a1, a2), grad, scale

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("spd", [False, True])
    def test_closed_form_matches_component_reference(self, d, spd):
        # Both forms round at the size of the component log weights a_k, not
        # at the size of U: where U is near 0 the closed form cancels terms
        # of that size, and far out the reference's a1 - a2 does. So U is
        # compared relative to max|a_k| and the gradient to within 4 ULP of
        # |S^-1 x| + |S^-1 mu| (1 + max|a_k|).
        rng = np.random.default_rng(40 + d)
        m = rng.standard_normal((d, d))
        sigma = m @ m.T + 0.3 * np.eye(d) if spd else np.eye(d)
        mu = rng.standard_normal(d)
        sinv = np.linalg.inv(sigma)
        x = 2.0 * rng.standard_normal((200, d))
        tail = 1e3 * x / np.linalg.norm(x, axis=1, keepdims=True)
        eps = np.finfo(np.float64).eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rho = 0 or 1 gives log w = -inf
            for rho in (0.0, 0.35, 0.5, 1.0):
                t = gmm_target(rho, mu, sigma)
                for pts in (x, tail):
                    u, g = t.value_and_grad(pts)
                    u_ref, g_ref, scale = self._component_reference(rho, mu, sigma, pts)
                    assert np.all(np.abs(u - u_ref) <= 1e-12 * np.maximum(np.abs(u_ref), scale))
                    g_scale = (np.abs(pts @ sinv).max(axis=-1)
                               + np.abs(sinv @ mu).max() * (1.0 + scale))
                    assert np.all(np.abs(g - g_ref).max(axis=-1) <= 4 * eps * g_scale)

    def test_no_overflow_on_large_ball(self):
        t = gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2))
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((100, 2))
        xs *= (100.0 / np.linalg.norm(xs, axis=1))[:, None] * rng.random((100, 1))
        u, g = t.value_and_grad(xs)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(g))


class TestIsolatedMixture:
    def test_exact_third_moment_from_component_identity(self):
        # component means m and scales s give E[X^3] = sum w (m^3 + 3 m s^2)
        t = gmm_isolated_target(0.4, -3.0, 1.0, -4.0, 0.5)
        m = np.array([-3.0, 4.0])
        s = np.array([1.0, 0.5])
        w = np.array([0.4, 0.6])
        assert t.exact_moments["cube[0]"] == pytest.approx(float(w @ (m**3 + 3 * m * s**2)))

    def test_tail_stability(self):
        t = gmm_isolated_target(0.4, -3.0, 1.0, -4.0, 0.5)
        for x in (-50.0, 50.0):
            u, g = t.value_and_grad(np.array([x]))
            assert np.isfinite(u) and np.all(np.isfinite(g))

    def test_gradient_audit(self):
        _audit_gradient(gmm_isolated_target(0.4, -3.0, 1.0, -4.0, 0.5), 64, scale=4.0)

    def test_invalid_scales(self):
        with pytest.raises(ValueError):
            gmm_isolated_target(0.4, 0.0, -1.0, 0.0, 1.0)


class TestBananaTarget:
    def test_stationary_in_second_coordinate_on_the_ridge(self):
        t = banana_target(100.0, 0.1, 2)
        x = np.array([0.0, 100.0 * 0.1])
        assert t.gradient(x)[1] == pytest.approx(0.0, abs=1e-12)

    def test_exact_mean_of_bent_coordinate(self):
        # x2 + b x1^2 - p b has conditional mean zero, and x1^2 averages to p,
        # so the unconditional mean of x2 is p b - b p = 0
        t = banana_target(100.0, 0.1, 2)
        assert t.exact_moments["coordinate[1]"] == 0.0

    def test_gradient_audit_d2_and_d8(self):
        _audit_gradient(banana_target(100.0, 0.1, 2), 64, scale=5.0)
        _audit_gradient(banana_target(100.0, 0.1, 8), 64, scale=5.0, seed=2)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            banana_target(100.0, 0.1, 1)

    def test_no_overflow_on_large_ball(self):
        t = banana_target(100.0, 0.1, 2)
        xs = np.array([[100.0, 0.0], [0.0, 100.0], [-70.0, -70.0]])
        u, g = t.value_and_grad(xs)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(g))


def _assert_within_ulps(got, ref, max_ulps):
    """NaN where ref is NaN, exactly ref where either side is 0, 1 or inf,
    and within max_ulps units in ref's last place elsewhere."""
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    special = (0.0, 1.0, np.inf)
    exact = (np.isin(got, special) | np.isin(ref, special)) & ~nan
    np.testing.assert_array_equal(got[exact], ref[exact])
    rest = ~exact & ~nan
    assert np.all(np.abs(got[rest] - ref[rest]) <= max_ulps * np.spacing(np.abs(ref[rest])))


class TestRowKernels:
    """The logistic rows' sigmoid against scipy's reference function."""

    @staticmethod
    def _inputs():
        grid = np.array([0.0, 1e-300, 1.0, 40.0, 709.8, 745.0, 1e3, np.inf])
        normals = 10.0 * np.random.default_rng(17).standard_normal(10_000)
        return np.concatenate([grid, -grid, [np.nan], normals])

    def test_sigmoid_matches_expit(self):
        t = self._inputs()
        with np.errstate(over="ignore"):  # exp(-t) overflows below t = -709.78
            got = _sigmoid(t)
            buf = t.copy()
            assert _sigmoid(buf, out=buf) is buf
        assert np.array_equal(buf, got, equal_nan=True)
        _assert_within_ulps(got, expit(t), 4)


class TestRegressionTargets:
    def test_zero_covariate_row_contributes_log_half(self):
        x = np.vstack([np.zeros((1, 3)), np.eye(3), np.eye(3) * 2.0])
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        ds = build_dataset(x, y, k_test=2, seed=0)
        t = logistic_target(ds, g=100.0)
        # potential difference from removing one all-zero row is log(2)
        if np.any(np.all(ds.features_train == 0.0, axis=1)):
            rng = np.random.default_rng(0)
            theta = rng.standard_normal(3)
            keep = ~np.all(ds.features_train == 0.0, axis=1)
            partial = np.sum(
                np.logaddexp(0.0, ds.features_train[keep] @ theta)
                - ds.labels_train[keep] * (ds.features_train[keep] @ theta)
            ) + np.sum(theta**2) / 200.0
            assert t.potential(theta) - partial == pytest.approx(np.log(2.0), rel=1e-12)

    def test_gradient_audits_on_synthetic_data(self):
        ds = synthetic_logistic_dataset(200, 5, k_test=40, seed=3)
        _audit_gradient(logistic_target(ds), 64, scale=1.5, seed=4)
        _audit_gradient(probit_target(ds), 64, scale=1.0, seed=5)

    def test_probit_tail_stability(self):
        ds = synthetic_logistic_dataset(100, 4, k_test=20, seed=6)
        t = probit_target(ds)
        big = 40.0 * np.ones(4)
        u, g = t.value_and_grad(big)
        assert np.isfinite(u) and np.all(np.isfinite(g))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError):
            build_dataset(np.eye(3), np.array([0.0, 0.5, 1.0]), k_test=1, seed=0)


_REGRESSION = {"logistic": logistic_target, "probit": probit_target}


class TestSignedDesign:
    """The regression targets fold each label's sign 2y - 1 into the design;
    the unfolded arithmetic of `_oracles` keeps y apart."""

    @staticmethod
    def _dataset():
        ds = synthetic_logistic_dataset(200, 5, k_test=40, seed=3)
        for labels in (ds.labels_train, ds.labels_test):
            assert 0 < labels.sum() < labels.size  # both labels present
        return ds

    @pytest.mark.parametrize("kind", sorted(_REGRESSION))
    def test_value_and_gradient_match_the_unfolded_oracle(self, kind):
        # ordinary points, and far-tail points where the logistic weight of
        # some rows overflows to an exact 0; the gradient is compared with
        # its largest entry, as entries near 0 lose digits by cancellation
        ds = self._dataset()
        target = _REGRESSION[kind](ds, g=100.0)
        rng = np.random.default_rng(23)
        batch = 2.0 * rng.standard_normal((25, ds.dim))
        unit = batch / np.linalg.norm(batch, axis=1, keepdims=True)
        with np.errstate(over="ignore"):
            for pts in (batch, batch[0], 1e3 * unit, 1e4 * unit):
                u, g = target.value_and_grad(pts)
                ref_u, ref_g = unfolded_regression(ds, 100.0, kind, pts)
                assert np.all(np.abs(u - ref_u) <= 1e-13 * np.abs(ref_u))
                scale = np.abs(ref_g).max(axis=-1, keepdims=True)
                assert np.all(np.abs(g - ref_g) <= 1e-13 * scale)

    @pytest.mark.parametrize("kind", sorted(_REGRESSION))
    def test_held_out_likelihood_equals_product_then_sign_bit_for_bit(self, kind):
        # multiplying by +-1 is exact, so folding the signs into the
        # held-out design moves no bit, for a block of states or a lone one
        # (a matrix-vector product); the last 50 states lie far in the tail
        ds = self._dataset()
        target = _REGRESSION[kind](ds)
        states = np.random.default_rng(31).standard_normal((350, ds.dim))
        states[:300] *= 2.0
        states[300:] *= 1e4
        for block in (states, states[:1], states[-1:]):
            got = target.test_likelihood(block)
            assert got.tobytes() == unfolded_test_likelihood(ds, kind, block).tobytes()

    def test_logistic_rows_past_overflow_contribute_exactly_zero(self):
        # rows of either label whose signed predictor u lies above 710, where
        # exp(u) overflows: each weight 1 / (1 + exp(u)) is an exact 0, so
        # with a prior of variance 1e300 the gradient is the prior's term
        # alone, to the bit, although a weight as small as exp(-710) would
        # show against it
        ds = self._dataset()
        x = np.random.default_rng(29).standard_normal(ds.dim)
        y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        u = np.array([711.0, 711.0, 800.0, 1e3, 1.5e3, 2e3])
        far = replace(ds, features_train=((2.0 * y - 1.0) * u)[:, None] * x / (x @ x),
                      labels_train=y)
        assert np.all((2.0 * y - 1.0) * (far.features_train @ x) > 710.0)
        target = logistic_target(far, g=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                for pts in (x, np.stack([x, x])):
                    got = target.gradient(pts)
                    assert got.tobytes() == np.broadcast_to((1.0 / 1e300) * x, got.shape).tobytes()


class TestDatasetStandardization:
    def test_inner_products_preserved_by_dual_transform(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((60, 5))
        ds = build_dataset(x, (rng.random(60) < 0.5).astype(float), k_test=10, seed=1)
        x_train = x[ds.train_idx]
        theta = rng.standard_normal(5)
        theta_t = ds.cov_half @ theta
        for i in range(0, 50, 7):
            assert theta @ x_train[i] == pytest.approx(
                theta_t @ ds.features_train[i], rel=1e-10, abs=1e-12
            )

    def test_whitened_gram_is_identity(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((40, 4))
        ds = build_dataset(x, (rng.random(40) < 0.5).astype(float), k_test=8, seed=2)
        gram = ds.features_train.T @ ds.features_train
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_split_reproducible_and_partitioning(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((30, 3))
        y = (rng.random(30) < 0.5).astype(float)
        a = build_dataset(x, y, k_test=6, seed=77)
        b = build_dataset(x, y, k_test=6, seed=77)
        np.testing.assert_array_equal(a.test_idx, b.test_idx)
        merged = np.sort(np.concatenate([a.train_idx, a.test_idx]))
        np.testing.assert_array_equal(merged, np.arange(30))

    def test_rank_deficient_design_names_eigenvalue(self):
        x = np.ones((10, 2))  # duplicated column
        y = (np.arange(10) % 2).astype(float)
        with pytest.raises(ValueError, match="eigenvalue"):
            build_dataset(x, y, k_test=2, seed=0)

    def test_csv_ingestion(self, tmp_path):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((25, 3))
        y = (rng.random(25) < 0.5).astype(int)
        path = tmp_path / "data.csv"
        header = "a,b,label,c"
        rows = [f"{r[0]},{r[1]},{yi},{r[2]}" for r, yi in zip(x, y)]
        path.write_text("\n".join([header] + rows) + "\n")
        ds = ingest_csv(path, "label", k_test=5, seed=3)
        assert ds.dim == 3
        assert ds.features_train.shape == (20, 3)
        np.testing.assert_array_equal(np.sort(np.unique(ds.labels_train)),
                                      np.unique(y[ds.train_idx]))

    def test_csv_subsetting(self, tmp_path):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((50, 2))
        y = (rng.random(50) < 0.5).astype(int)
        path = tmp_path / "data.csv"
        rows = [f"{r[0]},{r[1]},{yi}" for r, yi in zip(x, y)]
        path.write_text("\n".join(["u,v,label"] + rows) + "\n")
        ds = ingest_csv(path, "label", k_test=5, seed=3, max_rows=20)
        assert ds.features_train.shape[0] + ds.features_test.shape[0] == 20

    def test_intercept_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,label\n1.0,1\n2.0,0\n-1.0,1\n0.5,0\n3.0,1\n")
        ds = ingest_csv(path, "label", k_test=1, seed=0, add_intercept=True)
        assert ds.dim == 2

    def test_synthetic_labels_are_pinned(self):
        # The labels compare uniforms with the sigmoid of x @ coeff, so a
        # sigmoid that differs in one bit could flip one and move every
        # logistic figure. Features pass through eigh and a BLAS product, so
        # their bits may differ between machines; labels may not. The hex
        # strings are np.packbits of the labels: bit i is label i.
        ds = synthetic_logistic_dataset(500, 8, 100, 90210)
        for labels, ones, packed in (
            (ds.labels_train, 206,
             "9566eb4c8f8f552c648b7dfd9d5467b30b13e19420ae5fabaf78a9b408ed42076a734b56"
             "8625aa085d3c97e391cfd9e2f46c"),
            (ds.labels_test, 59, "5e2619bb83ee33c5bcfd7e6ba0"),
        ):
            assert labels.sum() == ones
            assert np.packbits(labels.astype(np.uint8)).tobytes().hex() == packed


class TestAr1Reference:
    def test_exact_long_run_variance_values(self):
        # geometric autocovariance sum: (1/(1-a^2)) * (1+a)/(1-a)
        assert ar1_reference(0.0, 10, 0)[1] == 1.0
        assert ar1_reference(0.5, 10, 0)[1] == pytest.approx(4.0)
        assert ar1_reference(0.9, 10, 0)[1] == pytest.approx(100.0)

    def test_recursion_matches_hand_loop(self):
        from esvm.chains import ROLE_NORMAL, SeedKey

        n = 100_000
        for a in (0.5, 0.7, 0.9):
            traj, _ = ar1_reference(a, n, 42)
            rng = SeedKey(42, 0).generator(ROLE_NORMAL)
            x = rng.standard_normal() / np.sqrt(1 - a * a)
            ref = [x]
            for z in rng.standard_normal(n - 1).tolist():
                x = a * x + z
                ref.append(x)
            np.testing.assert_array_equal(traj.states[:, 0], ref, err_msg=f"a={a}")

    def test_coefficient_bounds(self):
        with pytest.raises(ValueError):
            ar1_reference(1.0, 10, 0)

    def test_synthetic_dataset_has_known_coefficients(self):
        ds = synthetic_logistic_dataset(120, 4, k_test=20, seed=5)
        assert ds.generating_coefficients.shape == (4,)
        assert ds.features_train.shape == (100, 4)


# Loaded by scipy.signal, which nothing in esvm imports; only the test
# oracle `ar1_reference` does.
_UNUSED_SCIPY = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize",
                 "scipy.linalg", "scipy.sparse", "scipy.ndimage", "scipy.integrate",
                 "scipy.spatial")

# Imports esvm, builds and calls the mixture, banana and logistic targets and
# the logistic functional, and runs a mixture experiment whose training window
# is wide enough to go through the FFT; then builds the target named by the
# first argument, then runs the test oracle `ar1_reference`, which imports
# scipy.signal lazily. After each step it prints the scipy modules loaded so
# far.
_IMPORT_PROBE = """
import sys
import numpy as np
import esvm, esvm.cli, esvm.config
from esvm import targets

def loaded():
    print(" ".join(m for m in sys.modules if m.startswith("scipy.")))

x = np.zeros((3, 2))
for t in (targets.gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2)),
          targets.banana_target(100.0, 0.1, 2)):
    t.value_and_grad(x)
ds = targets.synthetic_logistic_dataset(60, 3, k_test=10, seed=1)
targets.logistic_target(ds).value_and_grad(np.zeros((3, 3)))
esvm.make_functional(esvm.FunctionalSpec("test_likelihood"),
                     targets.logistic_target(ds))(np.zeros((3, 3)))
cfg = esvm.ExperimentConfig(
    name="probe", target=targets.gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2)),
    functional=esvm.FunctionalSpec("coordinate", 0), family=esvm.SteinFamily("second_order", 2),
    sampler_kind="mala", gamma=0.5, n_burn=50, n_train=300, n_test=200, n_test_chains=2,
    b_n_train=40)
esvm.run_experiment(cfg)
loaded()
if sys.argv[1] == "gmm_isolated":
    targets.gmm_isolated_target(0.4, -3.0, 1.0, 4.0, 0.5).value_and_grad(x[:, :1])
else:
    targets.probit_target(ds).value_and_grad(np.zeros((3, 3)))
loaded()
import _oracles
_oracles.ar1_reference(0.5, 10, 0)
loaded()
"""


def _probe_env():
    """Environment for a fresh interpreter that finds the same esvm as this
    one, and the test oracles; the suite's own process has imported more."""
    src = str(Path(esvm.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, tests, os.environ.get("PYTHONPATH")) if p)}


def test_import_loads_no_scipy():
    # scipy's version is read when a report is built, not at start-up
    probe = ("import sys, esvm, esvm.cli, esvm.config\n"
             "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=_probe_env()).stdout
    assert out.split() == []


def test_import_and_run_load_no_unused_scipy_subpackage():
    # A fresh interpreter per special target.
    env = _probe_env()

    def loaded(modules, package):
        return any(m == package or m.startswith(package + ".") for m in modules)

    for special_target in ("gmm_isolated", "probit"):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, special_target],
                             capture_output=True, text=True, check=True,
                             env=env).stdout.splitlines()
        after_run, after_special, after_ar1 = (set(line.split()) for line in out)
        unused = ("scipy.special", "scipy.fft") + _UNUSED_SCIPY
        assert [p for p in unused if loaded(after_run, p)] == []
        assert loaded(after_special, "scipy.special")
        assert [p for p in _UNUSED_SCIPY if loaded(after_special, p)] == []
        # the probe can see a lazy import when one happens
        assert loaded(after_ar1, "scipy.signal")
