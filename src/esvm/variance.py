"""Long-run variance estimation for serially correlated series.

The estimator is a truncated, kernel-weighted sum of sample autocovariances.
It is algebraically a quadratic form z' A z with A = P W P / n, where P is the
centering projector and W a banded Toeplitz matrix of window weights. Both
routes are implemented: the direct windowed sum (`spectral_variance`, over
autocovariances computed by FFT) and the matrix-free quadratic form
(`quadratic_form_apply`), plus a dense oracle for tests. Production paths never
materialize W or A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.signal import fftconvolve


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
    """Truncation point plus an even kernel w: [-1,1] -> [0,1] with w = 1 on
    [-1/2, 1/2]. Integer lags s with |s| >= b_n get weight zero regardless of
    the kernel's endpoint values, so the windowed sum and the Toeplitz form
    agree for any admissible kernel."""

    b_n: int
    kernel: Callable = trapezoid_kernel

    def __post_init__(self):
        if self.b_n < 1:
            raise ValueError("truncation point must be >= 1")
        grid = np.linspace(-1.0, 1.0, 201)
        vals = np.asarray(self.kernel(grid), dtype=np.float64)
        if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
            raise ValueError("kernel values must lie in [0, 1]")
        if np.max(np.abs(vals - vals[::-1])) > 1e-12:
            raise ValueError("kernel must be even")
        inner = np.abs(grid) <= 0.5 + 1e-15
        if np.max(np.abs(vals[inner] - 1.0)) > 1e-12:
            raise ValueError("kernel must equal 1 on [-1/2, 1/2]")

    def weights(self) -> np.ndarray:
        """w(s / b_n) for nonnegative integer lags s = 0 .. b_n - 1."""
        lags = np.arange(self.b_n, dtype=np.float64)
        return np.asarray(self.kernel(lags / self.b_n), dtype=np.float64)


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


def spectral_variance(series: np.ndarray, window: LagWindow) -> SpectralVariance:
    """Windowed sum of sample autocovariances over lags |s| < b_n.

    `series` is one series (n,), whose value is a float, or a stack (k, n),
    whose value is an array of k; each row's value equals that of the row
    alone, bit for bit. No matrix is formed.
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.shape[-1] if series.ndim else 0
    if n < 1:
        raise ValueError("empty series")
    if window.b_n > n:
        raise ValueError("truncation exceeds sample size")
    w = window.weights()
    w[1:] *= 2.0
    value = np.add.reduce(autocovariances(series, window.b_n) * w, axis=-1)
    return SpectralVariance(value=float(value) if value.ndim == 0 else value,
                            b_n=window.b_n, n=n)


def empirical_variance(series: np.ndarray) -> float:
    """Unbiased sample variance (divisor n - 1)."""
    series = np.asarray(series, dtype=np.float64)
    if series.size < 2:
        raise ValueError("need at least two observations")
    return float(np.var(series, ddof=1))


def _banded_weights(window: LagWindow) -> np.ndarray:
    """Symmetric weight band [w(b-1), .., w(1), w(0), w(1), .., w(b-1)]."""
    w = window.weights()
    return np.concatenate([w[:0:-1], w])


def _toeplitz_matvec(vec: np.ndarray, window: LagWindow) -> np.ndarray:
    """W @ vec for the banded Toeplitz weight matrix, without forming W.

    Uses FFT convolution once the band is wide enough to pay for it.
    """
    band = _banded_weights(window)
    if band.size > 64:
        full = fftconvolve(vec, band, mode="full")
    else:
        full = np.convolve(vec, band, mode="full")
    start = window.b_n - 1
    return full[start : start + vec.size]


def quadratic_form_apply(vec: np.ndarray, window: LagWindow) -> float:
    """z' A z computed matrix-free; agrees with `spectral_variance` to
    rounding error (both are the same quadratic form)."""
    vec = np.asarray(vec, dtype=np.float64)
    n = vec.size
    if n < 1:
        raise ValueError("empty series")
    if window.b_n > n:
        raise ValueError("truncation exceeds sample size")
    c = vec - vec.mean()
    u = _toeplitz_matvec(c, window)
    return float(c @ u) / n


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
    w_mat[inside] = np.asarray(
        window.kernel(lag[inside].astype(np.float64) / window.b_n), dtype=np.float64
    )
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
