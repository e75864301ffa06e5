"""Target densities with analytic gradients, and the datasets of the
regression posteriors (synthetic or ingested from CSV), which carry their
average held-out likelihood.

Every potential and gradient is vectorized over leading axes: inputs of shape
(d,), (C, d) or (n, C, d) all work, which is what the lock-step chain driver
relies on. The elementwise targets read a coordinate of one (d,) state as a
NumPy scalar, x[i], and of a batch as a view of the column, x[..., i], and
the Gaussian mixture computes a (d,) state of small d in Python floats, so
that a lone chain's state is computed in scalar arithmetic with the bits of
its row in a batch.
"""

from __future__ import annotations

import csv as _csv
from dataclasses import dataclass, field, replace
from operator import mul
from pathlib import Path
from typing import Callable, Optional

import numpy as np

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# A (d,) row of the Gaussian mixture is computed in Python floats below this
# d. That route costs O(d^2) interpreted operations. Timed per call on one
# row on a 2-core x86-64 box (Python 3.11, numpy 2.4.6), its gradient beat
# the numpy route at every d up to 4, drew level at d = 5 and lost from
# d = 6 on. It must also stay below 8, where np.add.reduce stops summing
# left to right.
_FLOAT_ROW_DIM = 5


@dataclass(frozen=True)
class TargetModel:
    """Unnormalized density exp(-U) with analytic gradient of U.

    `potential` maps states of shape (..., d) to U of shape (...),
    `gradient` maps them to grad U of shape (..., d), and `value_and_grad`
    returns both. A batch of chains is evaluated as (C, d); a chain left
    alone in a sampler segment is evaluated as its (d,) state, whose
    potential is 0-d. A row's result should not depend on the leading
    shape, or a lone chain differs from the same stream in a batch.

    Only the regression posteriors set `regression_kind` ("logistic" or
    "probit") and `test_likelihood`, which maps states (n, d) to their
    average held-out likelihoods (n,).
    """

    dim: int
    potential: Callable
    gradient: Callable
    value_and_grad: Callable
    label: str = ""
    exact_moments: dict = field(default_factory=dict)
    test_likelihood: Optional[Callable] = None
    regression_kind: Optional[str] = None


def _make_target(dim, shared, value, grad, label, exact_moments=None) -> TargetModel:
    """Assemble the three entry points from a target's pieces. `shared(x)`
    returns the intermediates both halves need; `value(*parts)` and
    `grad(*parts)` finish U and its gradient from them. `potential` and
    `gradient` each compute only their own half, and all three entry points
    return the same bits for the same input."""

    def potential(x):
        return value(*shared(x))

    def gradient(x):
        return grad(*shared(x))

    def value_and_grad(x):
        parts = shared(x)
        return value(*parts), grad(*parts)

    return TargetModel(
        dim=dim,
        potential=potential,
        gradient=gradient,
        value_and_grad=value_and_grad,
        label=label,
        exact_moments=dict(exact_moments or {}),
    )


def gmm_target(rho: float, mu, sigma) -> TargetModel:
    """Two-component Gaussian mixture rho * N(mu, S) + (1 - rho) * N(-mu, S).

    The potential drops the shared normalizer. Both components share S, so
    with s = mu' S^-1 x the potential and gradient have a closed form:
    U = x' S^-1 x / 2 + mu' S^-1 mu / 2 - log(rho e^s + (1 - rho) e^-s) and
    grad U = S^-1 x - tanh(s + logit(rho) / 2) S^-1 mu.

    A batch of rows goes through one einsum. A lone (d,) row of fewer than
    _FLOAT_ROW_DIM coordinates is computed in Python floats with the same
    bits, and its potential is a Python float.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    d = mu.size
    if sigma.shape != (d, d):
        raise ValueError("covariance shape must match the mean")
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be symmetric positive definite") from None
    if not 0.0 <= rho <= 1.0:
        raise ValueError("mixture weight must lie in [0, 1]")
    sinv = np.linalg.inv(sigma)
    sinv_mu = sinv @ mu
    # x @ [S^-1 | S^-1 mu] gives S^-1 x and s in one product. einsum's own
    # loop computes each row alike whatever the row count; a BLAS product
    # picks its kernel by row count, so a lone chain would not reproduce
    # the same chain in a batch.
    proj = np.column_stack([sinv, sinv_mu])
    half_mu_quad = 0.5 * float(mu @ sinv_mu)
    with np.errstate(divide="ignore"):
        log_w1, log_w2 = float(np.log(rho)), float(np.log(1.0 - rho))
    half_logit = 0.5 * (log_w1 - log_w2)
    # A (d,) row below _FLOAT_ROW_DIM coordinates is computed in Python
    # floats in the batched path's order of operations: each entry of xp as
    # a sum of products from 0.0, left to right, which is the einsum loop's
    # order, and the quadratic term the same way, which is np.add.reduce's
    # order on fewer than 8 terms. tanh and logaddexp stay numpy's, called
    # on floats: math.tanh does not round as numpy's SIMD loop does.
    float_rows = d < _FLOAT_ROW_DIM
    proj_cols = proj.T.tolist()
    sinv_mu_row = sinv_mu.tolist()

    def shared(x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1 and float_rows:
            xs = x.tolist()
            xp = []
            for col in proj_cols:
                acc = 0.0
                for term in map(mul, xs, col):
                    acc += term
                xp.append(acc)
            return xs, xp, xp[d]
        xp = np.einsum("...i,ij->...j", x, proj)
        return x, xp, (xp[d] if x.ndim == 1 else xp[..., d])

    def value(x, xp, s):
        if type(x) is list:
            quad = 0.0
            for term in map(mul, x, xp):
                quad += term
            return 0.5 * quad + half_mu_quad - float(np.logaddexp(log_w1 + s, log_w2 - s))
        quad = np.add.reduce(x * xp[..., :d], axis=-1)
        return 0.5 * quad + half_mu_quad - np.logaddexp(log_w1 + s, log_w2 - s)

    def grad(x, xp, s):
        if type(x) is list:
            pull = float(np.tanh(s + half_logit))
            return np.array([p - pull * m for p, m in zip(xp, sinv_mu_row)])
        pull = np.tanh(s + half_logit)
        return xp[..., :d] - pull[..., None] * sinv_mu

    moments = {}
    for i in range(d):
        moments[f"coordinate[{i}]"] = (2.0 * rho - 1.0) * mu[i]
        moments[f"second_moment[{i}]"] = sigma[i, i] + mu[i] ** 2
    return _make_target(d, shared, value, grad, "gaussian-mixture", moments)


def gmm_isolated_target(rho: float, mu1: float, sigma1: float,
                        mu2: float, sigma2: float) -> TargetModel:
    """One-dimensional mixture rho * N(mu1, s1^2) + (1 - rho) * N(-mu2, s2^2)
    with per-component scales, stable far into either tail."""
    # scipy.special is imported where it is used, here and in the probit
    # target: at module level it would double the time `import esvm` takes.
    from scipy.special import expit

    if sigma1 <= 0 or sigma2 <= 0:
        raise ValueError("component scales must be positive")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("mixture weight must lie in [0, 1]")
    m = np.array([mu1, -mu2], dtype=np.float64)
    s = np.array([sigma1, sigma2], dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_w = np.array([np.log(rho), np.log(1.0 - rho)])
    log_norm = log_w - np.log(s)
    (m1, m2), (s1, s2), (c1, c2) = m.tolist(), s.tolist(), log_norm.tolist()

    def shared(x):
        x = np.asarray(x, dtype=np.float64)
        x1 = x[0] if x.ndim == 1 else x[..., 0]
        z1 = (x1 - m1) / s1
        z2 = (x1 - m2) / s2
        a1 = c1 - 0.5 * z1 * z1
        a2 = c2 - 0.5 * z2 * z2
        return z1, z2, a1, a2

    def value(z1, z2, a1, a2):
        return -np.logaddexp(a1, a2)

    def grad(z1, z2, a1, a2):
        w1 = expit(a1 - a2)
        du = w1 * (z1 / s1) + (1.0 - w1) * (z2 / s2)
        return du[..., None]

    w = np.exp(log_w)
    moments = {
        "coordinate[0]": float(w @ m),
        "second_moment[0]": float(w @ (m**2 + s**2)),
        "cube[0]": float(w @ (m**3 + 3.0 * m * s**2)),
    }
    return _make_target(1, shared, value, grad, "gaussian-mixture-separated", moments)


def banana_target(p: float, b: float, d: int) -> TargetModel:
    """Curved-ridge density: a wide Gaussian in the first coordinate, the
    second bent along a parabola of curvature b, standard normal elsewhere."""
    if p <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if d < 2:
        raise ValueError("needs at least two dimensions")
    two_p, pb, four_b = 2.0 * p, p * b, 4.0 * b

    def shared(x):
        x = np.asarray(x, dtype=np.float64)
        x1, x2 = (x[0], x[1]) if x.ndim == 1 else (x[..., 0], x[..., 1])
        bend = x2 + b * x1 * x1 - pb
        return x, x1, bend

    def value(x, x1, bend):
        u = x1 * x1 / two_p + bend * bend
        if d > 2:
            rest = x[..., 2:]
            u = u + 0.5 * np.add.reduce(rest * rest, axis=-1)
        return u

    def grad(x, x1, bend):
        g = np.array(x, copy=True)
        g[..., 0] = x1 / p + four_b * x1 * bend
        g[..., 1] = 2.0 * bend
        return g

    moments = {
        "coordinate[0]": 0.0,
        "coordinate[1]": 0.0,
        "second_moment[0]": float(p),
    }
    return _make_target(d, shared, value, grad, "banana", moments)


@dataclass(frozen=True)
class Dataset:
    """Binary-response design with the covariate whitening transform applied.

    Covariates are mapped through (X'X)^{-1/2} of the training design so the
    prior on the transformed parameter is spherical; inner products between
    a parameter and a covariate row are preserved by the dual transform.
    """

    features_train: np.ndarray
    labels_train: np.ndarray
    features_test: np.ndarray
    labels_test: np.ndarray
    cov_half: np.ndarray
    cov_inv_half: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    label: str = "dataset"
    generating_coefficients: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.features_train.shape[1]


def build_dataset(x_raw, y, k_test: int, seed: int, label: str = "dataset",
                  generating_coefficients=None) -> Dataset:
    """Split off k_test rows (deterministic in the seed), then whiten all
    covariates by the training design's (X'X)^{-1/2}."""
    x_raw = np.asarray(x_raw, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_rows = x_raw.shape[0]
    if y.shape != (n_rows,):
        raise ValueError("labels must be one per row")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("labels must be binary 0/1")
    if not 0 < k_test < n_rows:
        raise ValueError("test split must leave both parts non-empty")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n_rows)
    test_idx = np.sort(perm[:k_test])
    train_idx = np.sort(perm[k_test:])
    x_train = x_raw[train_idx]
    gram = x_train.T @ x_train
    evals, evecs = np.linalg.eigh(gram)
    tol = max(gram.shape[0], 1) * np.finfo(np.float64).eps * max(evals.max(), 0.0)
    if evals.min() <= tol:
        raise ValueError(
            f"rank-deficient design: eigenvalue {evals.min():.6g} of X'X is not positive"
        )
    cov_half = (evecs * np.sqrt(evals)) @ evecs.T
    cov_inv_half = (evecs / np.sqrt(evals)) @ evecs.T
    return Dataset(
        features_train=x_train @ cov_inv_half,
        labels_train=y[train_idx],
        features_test=x_raw[test_idx] @ cov_inv_half,
        labels_test=y[test_idx],
        cov_half=cov_half,
        cov_inv_half=cov_inv_half,
        train_idx=train_idx,
        test_idx=test_idx,
        label=label,
        generating_coefficients=None if generating_coefficients is None
        else np.asarray(generating_coefficients, dtype=np.float64),
    )


def ingest_csv(path, label_column, k_test: int, seed: int,
               add_intercept: bool = False, max_rows: Optional[int] = None) -> Dataset:
    """Load a numeric CSV with a header row; `label_column` may be a column
    name or index. Optionally subsample to max_rows (seeded) before the
    train/test split."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    if isinstance(label_column, str):
        if label_column not in header:
            raise ValueError(f"label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
    else:
        label_idx = int(label_column)
        if not 0 <= label_idx < len(header):
            raise ValueError(f"label column index {label_idx} out of range")
    data = np.asarray([[float(v) for v in row] for row in rows], dtype=np.float64)
    y = data[:, label_idx]
    x = np.delete(data, label_idx, axis=1)
    if max_rows is not None and max_rows < x.shape[0]:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        keep = np.sort(rng.permutation(x.shape[0])[:max_rows])
        x, y = x[keep], y[keep]
    if add_intercept:
        x = np.hstack([x, np.ones((x.shape[0], 1))])
    return build_dataset(x, y, k_test, seed, label=path.stem)


def synthetic_logistic_dataset(n_rows: int = 500, n_features: int = 8,
                               k_test: int = 100, seed: int = 90210) -> Dataset:
    """Self-contained stand-in for the real regression datasets: Gaussian
    covariates, known coefficient vector, Bernoulli responses."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.standard_normal((n_rows, n_features))
    coeff = rng.standard_normal(n_features)
    probs = _sigmoid(x @ coeff)
    y = (rng.random(n_rows) < probs).astype(np.float64)
    return build_dataset(x, y, k_test, seed, label="synthetic-logistic",
                         generating_coefficients=coeff)


# The logistic gradient's sigmoid goes through numpy's `exp`, which runs
# vectorized (about 1 ns per element where SIMD is available), not
# `scipy.special.expit` (about 11 ns). The synthetic dataset draws its labels
# through it too, which keeps scipy.special off the import path. It writes in
# place, because allocating a fresh (chains, rows) array costs as much as the
# arithmetic. It is private so that tracing, which wraps this module's public
# functions, does not put a span on every sampler step. It opens no
# `np.errstate`: that costs as much as the whole sigmoid on one chain's rows.
# The samplers and the harness call the targets under one that ignores
# overflow.


def _sigmoid(t, out=None):
    """1 / (1 + exp(-t)), written into `out`, which may be `t` itself. Where
    exp(-t) overflows (t below about -709) the result is 0, with numpy's
    overflow warning."""
    out = np.negative(t, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _regression_target(dataset: Dataset, g: float, kind: str) -> TargetModel:
    """Posterior of a binary regression with link `kind` on the training rows;
    its `test_likelihood` averages the link at (2y - 1) x'theta over the held-out rows."""
    feats = dataset.features_train
    y = dataset.labels_train
    d = dataset.dim
    inv_g = 1.0 / g

    def prior_value(x):
        return 0.5 * inv_g * np.add.reduce(x * x, axis=-1)

    if kind == "logistic":

        def shared(x):
            x = np.asarray(x, dtype=np.float64)
            return x, x @ feats.T

        def value(x, t):
            return np.add.reduce(np.logaddexp(0.0, t) - y * t, axis=-1) + prior_value(x)

        def grad(x, t):
            # Overwrites t: `value_and_grad` calls `value` first, and nothing
            # reads t after the gradient.
            s = _sigmoid(t, out=t)
            s -= y
            return s @ feats + inv_g * x

    elif kind == "probit":
        from scipy.special import log_ndtr, ndtr

        def shared(x):
            x = np.asarray(x, dtype=np.float64)
            t = x @ feats.T
            return x, t, log_ndtr(t), log_ndtr(-t)

        def value(x, t, log_cdf_pos, log_cdf_neg):
            return -np.add.reduce(y * log_cdf_pos + (1.0 - y) * log_cdf_neg, axis=-1) \
                + prior_value(x)

        def grad(x, t, log_cdf_pos, log_cdf_neg):
            log_phi = -0.5 * t * t - _LOG_SQRT_2PI
            dl_dt = y * np.exp(log_phi - log_cdf_pos) \
                - (1.0 - y) * np.exp(log_phi - log_cdf_neg)
            return -dl_dt @ feats + inv_g * x

    else:
        raise ValueError(f"unknown regression kind {kind!r}")

    signs = 2.0 * dataset.labels_test - 1.0
    feats_test = dataset.features_test

    def test_likelihood(states):
        t = np.asarray(states) @ feats_test.T
        t *= signs
        if kind == "probit":
            return ndtr(t, out=t).mean(axis=1)
        # far in the tail exp(-t) overflows and the sigmoid is an exact 0
        with np.errstate(over="ignore"):
            return _sigmoid(t, out=t).mean(axis=1)

    return replace(_make_target(d, shared, value, grad, f"{kind}-{dataset.label}"),
                   test_likelihood=test_likelihood, regression_kind=kind)


def logistic_target(dataset: Dataset, g: float = 100.0) -> TargetModel:
    """Posterior potential of logistic regression with a spherical N(0, g I)
    prior on the whitened parameter."""
    return _regression_target(dataset, g, "logistic")


def probit_target(dataset: Dataset, g: float = 100.0) -> TargetModel:
    """Probit analogue of `logistic_target`; the Gaussian CDF enters through
    its log, evaluated stably for large negative arguments."""
    return _regression_target(dataset, g, "probit")
