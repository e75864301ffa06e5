"""Control variates built from a vector field and the target's score.

For a vector field Phi, the function -<Phi, grad U> + div Phi integrates to
zero against exp(-U), so subtracting it from a functional leaves the estimand
unchanged. Three families: constant fields (first order), affine fields
(second order), and a one-dimensional bank of Gaussian bumps with trainable
centers. Divergences are analytic; the polynomial families are linear in
their parameters and expose a feature decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILY_KINDS = ("first_order", "second_order", "rbf")


@dataclass(frozen=True)
class SteinFamily:
    kind: str
    dim: int
    n_centers: int = 0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.kind == "rbf":
            if self.dim != 1:
                raise ValueError("radial family is one-dimensional only")
            if self.n_centers < 1:
                raise ValueError("radial family needs at least one center")

    @property
    def n_params(self) -> int:
        if self.kind == "first_order":
            return self.dim
        if self.kind == "second_order":
            return self.dim + self.dim * self.dim
        return 2 * self.n_centers

    @property
    def linear(self) -> bool:
        """True when the control variate is linear in every parameter."""
        return self.kind != "rbf"

    def describe(self, theta=None) -> dict:
        out = {"kind": self.kind, "dim": self.dim}
        if self.kind == "rbf":
            out["n_centers"] = self.n_centers
        if theta is not None:
            out["params"] = [float(v) for v in np.asarray(theta).ravel()]
        return out


def _check_theta(family: SteinFamily, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (family.n_params,):
        raise ValueError(
            f"parameter vector must have length {family.n_params}, got {theta.shape}"
        )
    return theta


def _rbf_parts(states, grads, centers):
    """Shared pieces for the Gaussian-bump family at each point: offsets u,
    bump values e, and the per-unit-amplitude response
    (-u * U' + 1 - u^2) * e."""
    x1 = np.asarray(states, dtype=np.float64).reshape(-1, 1)
    du = np.asarray(grads, dtype=np.float64).reshape(-1, 1)
    u = x1 - np.asarray(centers, dtype=np.float64)[None, :]
    e = np.exp(-0.5 * u * u)
    resp = (-u * du + 1.0 - u * u) * e
    return u, du, e, resp


def stein_values(family: SteinFamily, theta, states, grads) -> np.ndarray:
    """Control-variate values along a batch of states (n, d) with the
    potential gradients (n, d) already evaluated there."""
    theta = _check_theta(family, theta)
    states = np.asarray(states, dtype=np.float64).reshape(-1, family.dim)
    grads = np.asarray(grads, dtype=np.float64).reshape(-1, family.dim)
    if family.kind == "first_order":
        return -(grads @ theta)
    if family.kind == "second_order":
        d = family.dim
        b = theta[:d]
        a_mat = theta[d:].reshape(d, d)
        quad = np.einsum("ni,ni->n", grads @ a_mat, states)
        return -(grads @ b) - quad + np.trace(a_mat)
    r = family.n_centers
    _, _, _, resp = _rbf_parts(states[:, 0], grads[:, 0], theta[r:])
    return resp @ theta[:r]


def stein_value(family: SteinFamily, theta, x, grad_u_at_x) -> float:
    """Single-point control-variate value."""
    return float(stein_values(family, theta, np.atleast_1d(x), np.atleast_1d(grad_u_at_x))[0])


def feature_matrix(family: SteinFamily, states, grads) -> np.ndarray:
    """Rows psi(x) with g_theta(x) = <theta, psi(x)> for the linear families.

    Layout: the constant-field coordinates first, then the affine matrix
    row-major, matching the parameter vector."""
    if not family.linear:
        raise ValueError("family not linear in all parameters")
    states = np.asarray(states, dtype=np.float64).reshape(-1, family.dim)
    grads = np.asarray(grads, dtype=np.float64).reshape(-1, family.dim)
    if family.kind == "first_order":
        return -grads.copy()
    d = family.dim
    n = states.shape[0]
    quad = -grads[:, :, None] * states[:, None, :] + np.eye(d)[None, :, :]
    return np.hstack([-grads, quad.reshape(n, d * d)])


def feature_row(family: SteinFamily, x, grad_u_at_x) -> np.ndarray:
    return feature_matrix(family, np.atleast_1d(x), np.atleast_1d(grad_u_at_x))[0]


def rbf_response(states, grads, centers) -> np.ndarray:
    """(n, r) responses per unit amplitude; column k is the control variate
    generated by bump k alone."""
    _, _, _, resp = _rbf_parts(states, grads, centers)
    return resp


def rbf_gradient(family: SteinFamily, theta, x, grad_u_at_x) -> np.ndarray:
    """Analytic partials of the bump-family control variate with respect to
    (amplitudes, centers), vectorized over points: shape (..., 2r)."""
    theta = _check_theta(family, theta)
    if family.kind != "rbf":
        raise ValueError("gradient in (amplitude, center) form is radial-family only")
    r = family.n_centers
    amps, centers = theta[:r], theta[r:]
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    squeeze = x.ndim == 1 and x.size == 1
    u, du, e, resp = _rbf_parts(x, grad_u_at_x, centers)
    d_center = amps[None, :] * e * (du * (1.0 - u * u) + 3.0 * u - u * u * u)
    out = np.hstack([resp, d_center])
    return out[0] if squeeze else out


def rbf_quantile_centers(samples, n_centers: int) -> np.ndarray:
    """Initial centers at the k/(r+1) empirical quantiles of the samples."""
    probs = np.arange(1, n_centers + 1) / (n_centers + 1.0)
    return np.quantile(np.asarray(samples, dtype=np.float64).reshape(-1), probs)

