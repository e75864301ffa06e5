"""Long-run variance estimation for serially correlated series.

The estimator is a truncated, trapezoid-weighted sum of sample
autocovariances. It is algebraically a quadratic form z' A z with
A = P W P / n, where P is the centering projector and W the banded Toeplitz
matrix of window weights. One private operator applies W to centered series
by convolution; `long_run_covariance` builds the windowed covariance matrix
Z_c' W Z_c / n of a block of columns from it, and `spectral_variance` and
`quadratic_form_apply` are its diagonal and one-series cases. The sample
variance is the one-lag window rescaled to divisor n - 1. A dense oracle is
kept for tests; production paths never materialize W or A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft


def trapezoid_kernel(u):
    """Even window: 1 on [-1/2, 1/2], linear ramp to 0 at |u| = 1."""
    arr = np.asarray(u, dtype=np.float64)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("kernel argument outside [-1, 1]")
    val = np.minimum(1.0, np.maximum(0.0, 2.0 - 2.0 * np.abs(arr)))
    return float(val) if np.isscalar(u) or arr.ndim == 0 else val


def default_truncation(n: int) -> int:
    """Cube-root rule used for held-out evaluation when nothing else is set."""
    if n < 1:
        raise ValueError("series length must be positive")
    return max(1, int(np.ceil(n ** (1.0 / 3.0) - 1e-9)))


@dataclass(frozen=True)
class LagWindow:
    """Truncation point b_n of the trapezoid window: integer lags s with
    |s| < b_n get weight `trapezoid_kernel(s / b_n)`, the others zero."""

    b_n: int

    def __post_init__(self):
        if self.b_n < 1:
            raise ValueError("truncation point must be >= 1")

    def weights(self) -> np.ndarray:
        """w(s / b_n) for s = 0 .. b_n - 1 in closed form; s / b_n < 1, so
        the kernel's floor at zero never applies."""
        return np.minimum(1.0, 2.0 - 2.0 * (np.arange(self.b_n, dtype=np.float64) / self.b_n))


@dataclass(frozen=True)
class SpectralVariance:
    """Windowed-autocovariance estimate of the long-run variance.

    The trapezoid window is not positive definite, so slightly negative values
    are possible; they are preserved here and clamped only where a report
    needs a nonnegative number."""

    value: float  # one value per series for a stack of series
    b_n: int
    n: int

    @property
    def clamped(self):
        return np.maximum(self.value, 0.0)


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


def autocovariances(series: np.ndarray, n_lags: int) -> np.ndarray:
    """Sample autocovariances at lags 0 .. n_lags - 1 of each series along the
    last axis, as `sample_autocovariance` defines them (divisor n, full-sample
    mean subtracted); shape (..., n_lags).

    One real FFT pass over the centered series, zero-padded to at least
    n + n_lags points so that no lag below n_lags wraps around: O(n log n)
    whatever n_lags is (Wiener-Khinchin).
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.shape[-1]
    if not 1 <= n_lags <= n:
        raise ValueError(f"lag count {n_lags} outside [1, {n}]")
    size = next_fast_len(n + n_lags, real=True)
    spectrum = rfft(series - series.mean(axis=-1, keepdims=True), size, axis=-1)
    power = spectrum.real * spectrum.real
    power += spectrum.imag * spectrum.imag
    # each buffer is as large as the series: free the spectrum before the
    # inverse transform allocates its output
    del spectrum
    return irfft(power, size, axis=-1)[..., :n_lags] / n


def _check_length(n: int, window: LagWindow) -> None:
    if n < 1:
        raise ValueError("empty series")
    if window.b_n > n:
        raise ValueError("truncation exceeds sample size")


def _apply_window(c: np.ndarray, window: LagWindow) -> np.ndarray:
    """W applied to each centered series along the last axis of c, without
    forming W: a convolution with the weight band [w(b-1), .., w(0), ..,
    w(b-1)], by FFT once the band is wide enough to pay for it."""
    w = window.weights()
    band = np.concatenate([w[:0:-1], w])
    n = c.shape[-1]
    start = window.b_n - 1
    if band.size > 64:
        size = next_fast_len(n + band.size - 1, real=True)
        full = irfft(rfft(c, size, axis=-1) * rfft(band, size), size, axis=-1)
        return full[..., start : start + n]
    out = np.empty_like(c)
    for row, dst in zip(c.reshape(-1, n), out.reshape(-1, n)):
        dst[:] = np.convolve(row, band)[start : start + n]
    return out


def long_run_covariance(z: np.ndarray, window: LagWindow) -> np.ndarray:
    """Windowed long-run covariance S = Z_c' W Z_c / n of the k columns of
    an (n, k) block, Z_c the block with its column means subtracted; the
    (i, j) entry is the lag-windowed sum of the cross-covariances of columns
    i and j. Symmetric (k, k); O(n * (b_n + k) * k), or O(n * (log n + k) * k)
    once the band is convolved by FFT."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("block must be (n, k)")
    n = z.shape[0]
    _check_length(n, window)
    c = np.subtract(z.T, z.mean(axis=0)[:, None], order="C")
    # W Z_c is formed about 1 MiB of columns at a time, which keeps the
    # working set near one copy of the block
    step = max(1, (1 << 17) // n)
    s = np.hstack([c @ _apply_window(c[j : j + step], window).T
                   for j in range(0, c.shape[0], step)]) / n
    return 0.5 * (s + s.T)


def spectral_variance(series: np.ndarray, window: LagWindow) -> SpectralVariance:
    """Windowed sum of sample autocovariances over lags |s| < b_n, the
    diagonal of `long_run_covariance`: sum(c * W c) / n of the centered
    series c.

    `series` is one series (n,), whose value is a float, or a stack (k, n),
    whose value is an array of k; each row's value equals that of the row
    alone, bit for bit. No matrix is formed.
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.shape[-1] if series.ndim else 0
    _check_length(n, window)
    c = series - series.mean(axis=-1, keepdims=True)
    value = np.add.reduce(c * _apply_window(c, window), axis=-1) / n
    return SpectralVariance(value=float(value) if value.ndim == 0 else value,
                            b_n=window.b_n, n=n)


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
    """Dense A = P' W P / n for cross-checks. Test-only: refuses large n so
    nothing quadratic sneaks into production paths."""
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
