"""Fitting control-variate parameters against a training chain.

Two criteria: the windowed long-run variance of the adjusted series (the
primary one) and the plain sample variance (the baseline that ignores serial
correlation). Both are the same windowed quadratic form: the sample variance
is its one-lag case, rescaled from divisor n to n - 1. For the linear
families the criterion is quadratic in the parameters, and one windowed
long-run covariance matrix of [f, features] gives the ridge-stabilized normal
equations and the criterion at zero, so a linear fit is one solve and never
iterates; where that quadratic has no minimum the fit returns zero
parameters, unconverged. A linear design holds f and the features once, as
one centered (p + 1, n) block that every fit on it reads, whatever its
window; no fit centers a copy of its own. The bump family goes through a
limited-memory quasi-Newton descent with a backtracking line search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import EsvmError
from .stein import SteinFamily, rbf_gradient, rbf_quantile_centers
from .variance import LagWindow, _apply_window, centered_covariance

MONOTONE_SLACK = 1e-9

# The quasi-Newton descent's iteration cap, gradient tolerance, number of
# curvature pairs kept, Armijo constant and line-search step shrink factor.
QN_MAX_ITER = 500
QN_GRAD_TOL = 1e-8
QN_HISTORY = 10
QN_ARMIJO = 1e-4
QN_BACKTRACK = 0.5


@dataclass(frozen=True)
class RbfResponse:
    """Per-point oracle for the bump family: values and parameter Jacobian of
    the control variate along the training states."""

    family: SteinFamily
    states: np.ndarray
    grads: np.ndarray

    @property
    def n_params(self) -> int:
        return self.family.n_params

    def initial_theta(self) -> np.ndarray:
        """Zero amplitudes; centers at empirical quantiles of the chain."""
        r = self.family.n_centers
        theta = np.zeros(2 * r)
        theta[r:] = rbf_quantile_centers(self.states, r)
        return theta

    def values_and_jacobian(self, theta):
        """The control variate's values and its (n, 2r) Jacobian from one
        pass over the bumps. The amplitude columns of the Jacobian are the
        per-unit-amplitude responses, so the values are their product with
        the amplitudes, with the bits `stein_values` gives."""
        jac = rbf_gradient(self.family, theta, self.states, self.grads)
        r = self.family.n_centers
        return jac[:, :r] @ theta[:r], jac


@dataclass(frozen=True)
class DesignSet:
    """Assembled training problem: functional values, lag window, and either
    a fixed feature matrix (linear families) or a per-point response oracle.

    A linear design owns `block`, the C-ordered (p + 1, n) array [f; Psi]'
    with each row centered on its sequential mean (`_row_means`), the Z_c'
    every fit passes to `centered_covariance`; `f_values` and `features`
    are views of it. Separate arrays are copied into a new block, centered
    once. A design given `block` takes it as centered, so that
    `replace(design, window=...)` neither copies nor centers it again. A
    response design holds f as given and no block."""

    f_values: np.ndarray
    window: LagWindow
    features: Optional[np.ndarray] = None
    response: Optional[RbfResponse] = None
    block: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.features is None) == (self.response is None):
            raise ValueError("provide exactly one of features or response")
        if self.block is not None:
            if (self.features is None or self.f_values.base is not self.block
                    or self.features.base is not self.block):
                raise ValueError("f_values and features must be views of the block")
            return
        f = np.asarray(self.f_values, dtype=np.float64)
        if f.ndim != 1 or f.size < 2:
            raise ValueError("functional series must be a vector of length >= 2")
        if self.features is None:
            _check_finite(f, "functional series")
            object.__setattr__(self, "f_values", f)
            return
        psi = np.asarray(self.features, dtype=np.float64)
        if psi.ndim != 2 or psi.shape[0] != f.size:
            raise ValueError("feature matrix must be (n, p)")
        block = np.empty((psi.shape[1] + 1, f.size))
        block[0] = f
        block[1:] = psi.T
        _center_block(block)
        for name, value in (("f_values", block[0]), ("features", block[1:].T),
                            ("block", block)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_block(cls, block: np.ndarray, window: LagWindow) -> "DesignSet":
        """The linear design that owns `block`, a C-ordered (p + 1, n) float
        array holding f in its first row and the feature rows after it (as
        `stein.feature_matrix` writes them with `out=`). The block is checked
        and centered in place."""
        _center_block(block)
        return cls(f_values=block[0], window=window, features=block[1:].T, block=block)

    @property
    def n(self) -> int:
        return self.f_values.size

    @property
    def n_params(self) -> int:
        return self.features.shape[1] if self.features is not None else self.response.n_params

    def _cv_values_and_jacobian(self, theta):
        if self.features is not None:
            return self.features @ theta, self.features
        return self.response.values_and_jacobian(theta)


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite values")


def _row_means(block: np.ndarray) -> np.ndarray:
    """Mean of each row of a (k, n) block, its entries added one after
    another from the first: the order numpy sums the columns of an (n, k)
    block in, for k >= 2. A running sum over about 256 KiB of columns at a
    time, carried from one slice to the next, keeps that order without a
    (k, n) temporary."""
    k, n = block.shape
    step = max(1, (1 << 15) // k)
    total = block[:, :1].copy()
    for lo in range(1, n, step):
        part = np.concatenate([total, block[:, lo : lo + step]], axis=1)
        total = np.add.accumulate(part, axis=1, out=part)[:, -1:]
    return total[:, 0] / n


def _center_block(block: np.ndarray) -> None:
    """Check a [f; Psi]' block for non-finite values, a row at a time, then
    subtract each row's mean from it in place."""
    for i, row in enumerate(block):
        _check_finite(row, "feature matrix" if i else "functional series")
    block -= _row_means(block)[:, None]


@dataclass(frozen=True)
class FitResult:
    theta: np.ndarray
    objective_at_theta: float
    objective_at_zero: float
    method: str
    iterations: int
    converged: bool

    def __post_init__(self):
        slack = MONOTONE_SLACK * abs(self.objective_at_zero)
        if self.objective_at_theta > self.objective_at_zero + slack:
            raise EsvmError(
                "fit increased the training criterion: "
                f"{self.objective_at_theta!r} > {self.objective_at_zero!r}"
            )

    def to_dict(self) -> dict:
        return {
            "theta": [float(v) for v in self.theta],
            "objective_at_theta": self.objective_at_theta,
            "objective_at_zero": self.objective_at_zero,
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _criterion(design: DesignSet, kind: str):
    """Lag window and scale of a training criterion: the design's window for
    esvm; for evm the one-lag window (the lag-0 autocovariance, divisor n)
    rescaled to the unbiased divisor n - 1."""
    if kind == "esvm":
        return design.window, 1.0
    return LagWindow(1), design.n / (design.n - 1)


def _residual_criterion(resid: np.ndarray, window: LagWindow, scale: float):
    """A criterion of a residual series, `scale` times its windowed long-run
    variance, and W c of the centered residual c that gave it; O(n * b_n)."""
    c = resid - resid.mean()
    u = _apply_window(c, window)
    value = float(c @ u) / c.size
    return scale * value, u


def _objective(theta, design: DesignSet, kind: str):
    """Criterion `kind` of f - g_theta and its parameter gradient,
    matrix-free in O(n * b_n + n * p)."""
    window, scale = _criterion(design, kind)
    theta = np.asarray(theta, dtype=np.float64)
    g, jac = design._cv_values_and_jacobian(theta)
    value, u = _residual_criterion(design.f_values - g, window, scale)
    u -= u.mean()
    grad = -2.0 * (jac.T @ u) / design.n
    return value, scale * grad


def esvm_objective(theta, design: DesignSet):
    """Windowed long-run variance of f - g_theta and its parameter gradient."""
    return _objective(theta, design, "esvm")


def evm_objective(theta, design: DesignSet):
    """Unbiased sample variance of f - g_theta and its parameter gradient."""
    return _objective(theta, design, "evm")


OBJECTIVES = {"esvm": esvm_objective, "evm": evm_objective}


def default_ridge(normal_matrix: np.ndarray) -> float:
    trace = float(np.trace(normal_matrix))
    p = normal_matrix.shape[0]
    if not np.isfinite(trace) or trace <= 0.0:
        return 1e-12
    return 1e-8 * trace / p


def solve_linear(design: DesignSet, objective_kind: str = "esvm",
                 ridge: Optional[float] = None) -> FitResult:
    """Exact stationary point of the quadratic criterion for linear families:
    one solve of the ridge-stabilized normal equations, never iterating. A
    singular system (ridge 0 only) takes their least-norm solution. The
    equations and the criterion at zero come from the windowed covariance
    of the design's centered block, read as it is; the criterion at the
    solution is checked without the parameter gradient.

    The window operator is not positive definite, so the point is accepted
    only if it is finite and does not raise the criterion. Otherwise the
    criterion has no minimum in the class, and the fit returns theta = 0
    with converged=False (the adjusted series is the raw one). An accepted
    point with a negative criterion is a saddle of the window's negative
    directions, not a variance minimum: it is returned with converged=False."""
    if design.features is None:
        raise ValueError("linear solve needs a feature matrix")
    if objective_kind not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective_kind!r}")
    p = design.n_params
    window, scale = _criterion(design, objective_kind)
    cov = scale * centered_covariance(design.block, window)
    normal, rhs, value_zero = cov[1:, 1:], cov[1:, 0], float(cov[0, 0])
    if ridge is None:
        ridge = default_ridge(normal)

    system = normal + ridge * np.eye(p)
    try:
        theta = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        theta = np.linalg.lstsq(system, rhs, rcond=None)[0]
    value_theta = (_residual_criterion(design.f_values - design.features @ theta, window,
                                       scale)[0]
                   if np.all(np.isfinite(theta)) else np.inf)
    converged = value_theta <= value_zero + MONOTONE_SLACK * abs(value_zero)
    if not converged:
        theta, value_theta = np.zeros(p), value_zero
    return _flag_negative(FitResult(
        theta=theta,
        objective_at_theta=value_theta,
        objective_at_zero=value_zero,
        method="linear_solve",
        iterations=1,
        converged=converged,
    ))


def _flag_negative(result: FitResult) -> FitResult:
    """The result with converged=False when its criterion is below zero: a
    negative long-run variance estimate is not a variance minimum but a
    descent along the window's negative directions."""
    return replace(result, converged=False) if result.objective_at_theta < 0.0 else result


def fit_quasi_newton(objective: Callable, theta0) -> FitResult:
    """Limited-memory quasi-Newton descent with a backtracking line search.

    Stops when the max-norm of the gradient falls below
    QN_GRAD_TOL * (1 + min(|f|, |f(theta0)|)) or after QN_MAX_ITER
    iterations. The line search never raises f, so the cap on |f| only acts
    once f has fallen below -|f(theta0)|: a descent running without bound is
    not called converged for its size alone. A line search that underflows returns the
    best point seen so far with converged=False; non-finite trial values just
    shrink the step.
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    value, grad = objective(theta)
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        raise EsvmError("objective not finite at the starting point")
    value_start = value
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    iterations = 0
    converged = False

    def _result(theta, value, converged):
        return FitResult(
            theta=theta,
            objective_at_theta=float(value),
            objective_at_zero=float(value_start),
            method="quasi_newton",
            iterations=iterations,
            converged=converged,
        )

    for iterations in range(1, QN_MAX_ITER + 1):
        if np.max(np.abs(grad)) <= QN_GRAD_TOL * (1.0 + min(abs(value), abs(value_start))):
            converged = True
            iterations -= 1
            break
        # Two-loop recursion over the stored curvature pairs.
        q = grad.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if y_hist:
            q *= (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        direction = -q
        slope = float(grad @ direction)
        if slope >= 0.0:
            direction = -grad
            slope = -float(grad @ grad)
            if slope == 0.0:
                converged = True
                break
        step = 1.0
        while True:
            trial = theta + step * direction
            trial_value, trial_grad = objective(trial)
            if np.isfinite(trial_value) and trial_value <= value + QN_ARMIJO * step * slope:
                break
            step *= QN_BACKTRACK
            if step < 1e-20:
                return _result(theta, value, False)
        s_vec = trial - theta
        y_vec = trial_grad - grad
        sy = float(s_vec @ y_vec)
        if sy > 1e-12 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > QN_HISTORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        theta, value, grad = trial, trial_value, trial_grad
    return _result(theta, value, converged)


def fit(design: DesignSet, family: SteinFamily, method: str = "esvm",
        ridge: Optional[float] = None) -> FitResult:
    """Fit dispatch: one exact solve for linear families (zero parameters,
    unconverged, when the criterion has no minimum), quasi-Newton from zero
    amplitudes and quantile centers for the bump family. Either way a fit
    whose criterion ends below zero reads converged=False."""
    if method not in OBJECTIVES:
        raise ValueError(f"unknown method {method!r}")
    if family.linear:
        if design.features is None:
            raise ValueError("linear family needs a feature design")
        return solve_linear(design, method, ridge=ridge)
    if design.response is None:
        raise ValueError("bump family needs a response design")
    objective = OBJECTIVES[method]
    return _flag_negative(fit_quasi_newton(lambda t: objective(t, design),
                                           design.response.initial_theta()))
