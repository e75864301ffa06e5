"""Reference implementations the tests check the package against: each
computes a quantity by its definition, one lag, point, chain or dense matrix
at a time. The package never imports this module."""

import numpy as np
from scipy.special import log_ndtr, ndtr

from esvm.chains import ROLE_NORMAL, SeedKey, Trajectory, TrajectoryMeta
from esvm.harness import VrfValue, _vrf_from_values
from esvm.stein import SteinFamily, feature_matrix, stein_values
from esvm.variance import LagWindow, long_run_covariance, spectral_variance


def trapezoid_kernel(u):
    """Even window: 1 on [-1/2, 1/2], linear ramp to 0 at |u| = 1."""
    arr = np.asarray(u, dtype=np.float64)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("kernel argument outside [-1, 1]")
    val = np.minimum(1.0, np.maximum(0.0, 2.0 - 2.0 * np.abs(arr)))
    return float(val) if np.isscalar(u) or arr.ndim == 0 else val


def sample_autocovariance(series: np.ndarray, s: int) -> float:
    """Lag-s sample autocovariance with divisor n (not n - s) and the
    full-sample mean subtracted from both factors."""
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    if not 0 <= s < n:
        raise ValueError(f"lag {s} outside [0, {n})")
    c = series - series.mean()
    if s == 0:
        return float(c @ c) / n
    return float(c[:-s] @ c[s:]) / n


def empirical_variance(series: np.ndarray) -> float:
    """Unbiased sample variance (divisor n - 1)."""
    series = np.asarray(series, dtype=np.float64)
    if series.size < 2:
        raise ValueError("need at least two observations")
    return float(np.var(series, ddof=1))


def quadratic_form_apply(vec: np.ndarray, window: LagWindow) -> float:
    """z' A z of one series, the one-column case of `long_run_covariance`;
    agrees with `spectral_variance` to rounding error."""
    vec = np.asarray(vec, dtype=np.float64)
    return float(long_run_covariance(vec.reshape(-1, 1), window)[0, 0])


def weight_matrix_oracle(n: int, window: LagWindow) -> np.ndarray:
    """Dense A = P' W P / n for cross-checks. Refuses large n, so that no
    test builds a quadratic-size matrix by accident."""
    if n > 512:
        raise ValueError("dense oracle limited to n <= 512")
    if window.b_n > n:
        raise ValueError("truncation exceeds sample size")
    idx = np.arange(n)
    lag = idx[None, :] - idx[:, None]
    inside = np.abs(lag) < window.b_n
    w_mat = np.zeros((n, n))
    w_mat[inside] = trapezoid_kernel(lag[inside].astype(np.float64) / window.b_n)
    proj = np.eye(n) - np.full((n, n), 1.0 / n)
    return proj.T @ w_mat @ proj / n


def power_iteration_norm(mat: np.ndarray, tol: float = 1e-8, max_iter: int = 20000,
                         seed: int = 0) -> float:
    """Spectral norm of a symmetric matrix by power iteration."""
    n = mat.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(max_iter):
        w = mat @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - prev) <= tol * max(1.0, norm):
            return float(norm)
        prev = norm
    return float(prev)


def ar1_reference(a: float, n: int, seed: int):
    """Linear autoregressive chain x' = a x + z with standard normal
    innovations, started in stationarity. Returns the trajectory and the
    exact long-run variance of the identity functional:
    (1 / (1 - a^2)) * (1 + a) / (1 - a)."""
    if not abs(a) < 1:
        raise ValueError("autoregressive coefficient must satisfy |a| < 1")
    if n < 1:
        raise ValueError("need at least one state")
    rng = SeedKey(seed, 0).generator(ROLE_NORMAL)
    x0 = rng.standard_normal() / np.sqrt(1.0 - a * a)
    series = np.empty(n)
    series[0] = x0
    if n > 1:
        # imported here: scipy.signal loads about 1 s of scipy subpackages
        from scipy.signal import lfilter

        z = rng.standard_normal(n - 1)
        series[1:] = lfilter([1.0], [1.0, -a], z, zi=np.array([a * x0]))[0]
    v_infinity = (1.0 / (1.0 - a * a)) * (1.0 + a) / (1.0 - a)
    meta = TrajectoryMeta(sampler="ar1", gamma=a, seed_master=seed, seed_stream=0)
    return Trajectory(series[:, None], meta), float(v_infinity)


def finite_difference_gradient(potential, x, scale: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar potential, one coordinate at a
    time, with per-coordinate step scale * (1 + |x_i|)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.size):
        h = scale * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (potential(xp) - potential(xm)) / (2.0 * h)
    return out


def unfolded_regression(dataset, g: float, kind: str, x):
    """U and grad U of a logistic or probit posterior with the labels kept
    apart from the design: the linear predictor t = X theta, and each row's
    log-likelihood y log F(t) + (1 - y) log F(-t) for the link's CDF F.
    States x of shape (d,) or (C, d)."""
    feats, y = dataset.features_train, dataset.labels_train
    x = np.asarray(x, dtype=np.float64)
    t = x @ feats.T
    prior = 0.5 / g * np.add.reduce(x * x, axis=-1)
    if kind == "logistic":
        value = np.add.reduce(np.logaddexp(0.0, t) - y * t, axis=-1) + prior
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-t))
        return value, (s - y) @ feats + (1.0 / g) * x
    log_cdf_pos, log_cdf_neg = log_ndtr(t), log_ndtr(-t)
    value = -np.add.reduce(y * log_cdf_pos + (1.0 - y) * log_cdf_neg, axis=-1) + prior
    log_phi = -0.5 * t * t - 0.5 * np.log(2.0 * np.pi)
    dl_dt = y * np.exp(log_phi - log_cdf_pos) - (1.0 - y) * np.exp(log_phi - log_cdf_neg)
    return value, -dl_dt @ feats + (1.0 / g) * x


def unfolded_test_likelihood(dataset, kind: str, states):
    """The average held-out likelihood by product then sign: t = X_test
    theta, multiplied by 2y - 1, then the link's CDF averaged over the rows,
    with the logistic sigmoid written as the package writes it."""
    t = np.asarray(states) @ dataset.features_test.T
    t *= 2.0 * dataset.labels_test - 1.0
    if kind == "probit":
        return ndtr(t).mean(axis=1)
    with np.errstate(over="ignore"):
        return (1.0 / (np.exp(-t) + 1.0)).mean(axis=1)


def stein_value(family: SteinFamily, theta, x, grad_u_at_x) -> float:
    """Single-point control-variate value."""
    return float(stein_values(family, theta, np.atleast_1d(x), np.atleast_1d(grad_u_at_x))[0])


def feature_row(family: SteinFamily, x, grad_u_at_x) -> np.ndarray:
    return feature_matrix(family, np.atleast_1d(x), np.atleast_1d(grad_u_at_x))[0]


def vrf(f_series, h_series, window: LagWindow) -> VrfValue:
    """A report's VRF of one chain: the windowed long-run variance of the raw
    series over that of the adjusted one, flagged infinite when the latter
    is not above 1e-300."""
    f_series = np.asarray(f_series, dtype=np.float64)
    h_series = np.asarray(h_series, dtype=np.float64)
    if f_series.shape != h_series.shape:
        raise ValueError("series length mismatch")
    num, den = spectral_variance(np.stack([f_series, h_series]), window).value
    return _vrf_from_values(float(num), float(den))


def equals_modulo_run_info(a, b) -> bool:
    """Whether two VRFReports agree in everything but their run_info block."""
    a, b = a.to_dict(), b.to_dict()
    a.pop("run_info"), b.pop("run_info")
    return a == b
