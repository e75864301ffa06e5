"""Long-run variance estimation for serially correlated series.

The estimator is a truncated, trapezoid-weighted sum of sample
autocovariances. It is algebraically a quadratic form z' A z with
A = P W P / n, where P is the centering projector and W the banded Toeplitz
matrix of window weights. One private operator applies W to centered series
by convolution; `long_run_covariance` builds the windowed covariance matrix
Z_c' W Z_c / n of a block of columns from it (`centered_covariance` from
Z_c' itself), and `spectral_variance` is its diagonal. The sample variance
is the one-lag window rescaled to divisor n - 1. No path materializes W or
A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft


def default_truncation(n: int) -> int:
    """Cube-root rule used for held-out evaluation when nothing else is set."""
    if n < 1:
        raise ValueError("series length must be positive")
    return max(1, int(np.ceil(n ** (1.0 / 3.0) - 1e-9)))


@dataclass(frozen=True)
class LagWindow:
    """Truncation point b_n of the trapezoid window: integer lags s with
    |s| < b_n get weight w(s / b_n) = min(1, 2 - 2 |s| / b_n), which is 1 up
    to |s| = b_n / 2 and falls linearly towards 0 at |s| = b_n; the other
    lags get zero."""

    b_n: int

    def __post_init__(self):
        if self.b_n < 1:
            raise ValueError("truncation point must be >= 1")

    def weights(self) -> np.ndarray:
        """w(s / b_n) for s = 0 .. b_n - 1; s / b_n < 1, so no weight
        reaches zero."""
        return np.minimum(1.0, 2.0 - 2.0 * (np.arange(self.b_n, dtype=np.float64) / self.b_n))


@dataclass(frozen=True)
class SpectralVariance:
    """Windowed-autocovariance estimate of the long-run variance.

    The trapezoid window is not positive definite, so slightly negative values
    are possible; they are kept as they are. A VRF whose adjusted estimate is
    not positive is flagged infinite by the harness."""

    value: float  # one value per series for a stack of series
    b_n: int
    n: int


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT transforms fast; the
    same as `scipy.fft.next_fast_len(n, real=True)`."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def autocovariances(series: np.ndarray, n_lags: int) -> np.ndarray:
    """Sample autocovariances at lags 0 .. n_lags - 1 of each series along the
    last axis, shape (..., n_lags): with c the series minus its full-sample
    mean, the lag-s value is sum_t c[t] c[t + s] / n (divisor n, not n - s).

    One real FFT pass over the centered series, zero-padded to at least
    n + n_lags points so that no lag below n_lags wraps around: O(n log n)
    whatever n_lags is (Wiener-Khinchin).
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.shape[-1]
    if not 1 <= n_lags <= n:
        raise ValueError(f"lag count {n_lags} outside [1, {n}]")
    size = _next_fast_len(n + n_lags)
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
        size = _next_fast_len(n + band.size - 1)
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
    _check_length(z.shape[0], window)
    return centered_covariance(np.subtract(z.T, z.mean(axis=0)[:, None], order="C"), window)


def centered_covariance(c: np.ndarray, window: LagWindow) -> np.ndarray:
    """`long_run_covariance` of a block already centered and transposed: c is
    the C-ordered (k, n) array Z_c', one centered series per row. A caller
    that builds Z_c' itself holds the block once, not twice."""
    n = c.shape[1]
    _check_length(n, window)
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
