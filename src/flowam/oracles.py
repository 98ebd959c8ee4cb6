"""Closed-form references used as ground truth by the tests and the scripts.

A linear Gaussian flow (noise N(mu, sigma^2) to standard normal data) admits
exact expressions for its velocity field, its lean adjoint, the time at
which the optimal control peaks, and the normalized control-intensity
profile R_p(t).  Two toy diffusion families (variance-exploding and
variance-preserving) admit exact time components c*(t) of their optimal
controls together with closed-form argmax times.  These never touch the
numeric stack; they exist to be compared against it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class GaussianFlowSpec:
    """Linear flow from X_0 ~ N(mu, sigma^2) to X_1 ~ N(0, 1), independent."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.mu) and 0.0 < self.sigma < np.inf):
            raise DomainError(f"need a finite mu and 0 < sigma < inf, "
                              f"got mu={self.mu}, sigma={self.sigma}")

    def m(self, t):
        """Marginal mean (1 - t) mu."""
        return (1.0 - np.asarray(t, dtype=np.float64)) * self.mu

    def d(self, t):
        """Marginal variance (1 - t)^2 sigma^2 + t^2; positive on [0, 1]."""
        t = np.asarray(t, dtype=np.float64)
        return (1.0 - t) ** 2 * self.sigma**2 + t**2

    def a(self, t):
        """Velocity slope A(t) = (t - (1 - t) sigma^2) / D(t)."""
        t = np.asarray(t, dtype=np.float64)
        return (t - (1.0 - t) * self.sigma**2) / self.d(t)


def rf_velocity(spec: GaussianFlowSpec, x, t):
    """Exact conditional-mean velocity A(t) x + B(t) of the Gaussian flow."""
    a = spec.a(t)
    b = -spec.mu - a * spec.m(t)
    return a * np.asarray(x, dtype=np.float64) + b


def rf_adjoint(spec: GaussianFlowSpec, a1, t):
    """Exact lean adjoint a(t) = a(1) / sqrt(D(t)) along the Gaussian flow."""
    return np.asarray(a1, dtype=np.float64) / np.sqrt(spec.d(t))


def rf_peak_time(spec: GaussianFlowSpec) -> float:
    """Time of maximal optimal-control intensity, sigma^2 / (1 + sigma^2)."""
    s2 = spec.sigma**2
    return s2 / (1.0 + s2)


def rf_relative_strength(spec: GaussianFlowSpec, p: float, t):
    """Normalized control intensity R_p(t); equals 1 at the peak time."""
    if not p > 1.0:
        raise DomainError(f"p must be > 1, got {p}")
    s2 = spec.sigma**2
    ratio = s2 / (spec.d(t) * (1.0 + s2))
    return ratio ** (1.0 / (2.0 * p - 2.0))


class ToyKind(enum.Enum):
    VE = "ve"
    VP = "vp"


@dataclass(frozen=True)
class ToyDiffusionSpec:
    kind: ToyKind
    T: float
    eta: float

    def __post_init__(self):
        if not (0.0 < self.T < np.inf and 0.0 < self.eta < np.inf):
            raise DomainError(f"need 0 < T < inf and 0 < eta < inf, "
                              f"got T={self.T}, eta={self.eta}")


def toy_control_component(spec: ToyDiffusionSpec, t):
    """Time component c*(t) of the optimal control for the toy dynamics.

    c*(t) = sigma(t) * |a(t)| with sigma = eta sqrt(2 (T - t)) and the
    closed-form adjoint decay of the respective linear dynamics.
    """
    tau = spec.T - np.asarray(t, dtype=np.float64)
    root = spec.eta * np.sqrt(2.0 * tau)
    if spec.kind is ToyKind.VE:
        return root * (1.0 + tau**2) ** (-(1.0 + spec.eta**2) / 2.0)
    return root * np.exp(-0.5 * spec.eta**2 * tau**2)


def toy_control_argmax(spec: ToyDiffusionSpec) -> float:
    """Closed-form argmax time of c*(t)."""
    if spec.kind is ToyKind.VE:
        return spec.T - 1.0 / np.sqrt(1.0 + 2.0 * spec.eta**2)
    return spec.T - 1.0 / (np.sqrt(2.0) * spec.eta)


def tilted_gaussian(c: float, m: float):
    """Mean and variance of N(0,1) tilted by exp(-c (x - m)^2 / 2).

    Completing the square gives mean c m / (1 + c), variance 1 / (1 + c).
    """
    if not c > -1.0:
        raise DomainError(f"tilt curvature must exceed -1, got {c}")
    return c * m / (1.0 + c), 1.0 / (1.0 + c)


def value_bias_gaussian(rho: float, c: float, m: float):
    """Mean and variance of the tuned terminal law when X_1 keeps correlation
    rho with X_0, both N(0, 1), and the optimal control tilts each
    conditional N(rho x_0, q), q = 1 - rho^2, by exp(-c (x - m)^2 / 2) with
    its own normalizer (the initial value-function bias).

    Mean c m q / (1 + c q), variance q / (1 + c q) + rho^2 / (1 + c q)^2;
    rho = 0 is ``tilted_gaussian(c, m)`` and rho = 1 the base N(0, 1).
    """
    if not abs(rho) <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {rho}")
    q = 1.0 - rho * rho
    if not 1.0 + c * q > 0.0:
        raise DomainError(f"need 1 + c (1 - rho^2) > 0, got c={c}, rho={rho}")
    return c * m * q / (1.0 + c * q), q / (1.0 + c * q) + rho * rho / (1.0 + c * q) ** 2


def sde_correlation(coeffs, spec: GaussianFlowSpec) -> float:
    """The slope rho = prod_k (1 + h b_k) of X_N on X_0 under the sampler
    that reads the ``step_coeffs`` table ``coeffs`` over the exact field of
    ``spec``, with b_k = A(t_k) + c_k (A(t_k) - kappa_k) the linear drift
    coefficient at step start t_k; an all-zero table gives the ODE's."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = coeffs.shape[0]
    a = spec.a(np.linspace(0.0, 1.0, n + 1)[:-1])
    b = a + coeffs[:, 0] * (a - coeffs[:, 1])
    return float(np.prod(1.0 + b / n))


# ---------------------------------------------------------------------------
# Analytic fields usable wherever a network field is expected (forward +
# input_vjp, which returns (v, w^T dv/dx)), so the adjoint recursion can be
# cross-checked exactly.
# ---------------------------------------------------------------------------


class GaussianFlowField:
    """rf_velocity wrapped with the field interface (dim 1)."""

    state_dim = 1

    def __init__(self, spec: GaussianFlowSpec):
        self.spec = spec

    def forward(self, x, t):
        return rf_velocity(self.spec, x, t)

    def input_vjp(self, x, t, w):
        # dv/dx = A(t), a scalar
        w = np.asarray(w, dtype=np.float64)
        return self.forward(x, t), self.spec.a(float(t)) * w


class LinearVelocityField:
    """v(x, t) = x @ A^T + b with a constant Jacobian, any dimension."""

    def __init__(self, matrix, bias=None):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        self.state_dim = self.matrix.shape[0]
        self.bias = (
            np.zeros(self.state_dim)
            if bias is None
            else np.asarray(bias, dtype=np.float64)
        )

    def forward(self, x, t):
        return np.asarray(x, dtype=np.float64) @ self.matrix.T + self.bias

    def input_vjp(self, x, t, w):
        return self.forward(x, t), np.asarray(w, dtype=np.float64) @ self.matrix
