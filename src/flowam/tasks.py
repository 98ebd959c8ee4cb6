"""Synthetic data distributions and differentiable toy rewards.

Every distribution exposes a sampler plus an exact log-density and score,
so pretrained models can be checked against closed forms.  Rewards are
batch-native: ``value`` maps stacked (m, dim) states to (m,) and a single
(dim,) state to a scalar, ``grad`` maps (m, dim) to (m, dim), and row i of a
batch result is bitwise the result for row i alone.  The gradient is what
seeds the backward adjoint pass during fine-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

_LOG_2PI = np.log(2.0 * np.pi)


def _logsumexp(a):  # row-wise, over axis 1
    m = np.max(a, axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=1, keepdims=True)))[:, 0]


@dataclass(frozen=True)
class Gaussian1D:
    mu: float = 0.0
    sigma: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be > 0, got {self.sigma}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.mu + self.sigma * rng.standard_normal((n, 1))

    def log_density(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))[:, 0]
        z = (x - self.mu) / self.sigma
        return -0.5 * z * z - np.log(self.sigma) - 0.5 * _LOG_2PI

    def score(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return -(x - self.mu) / self.sigma**2


@dataclass(frozen=True)
class GaussianMixture2D:
    """Isotropic 2D Gaussian mixture; modes are (center, weight, std)."""

    centers: tuple  # of (x, y)
    weights: tuple
    stds: tuple
    dim: int = 2

    def __post_init__(self):
        if not (len(self.centers) == len(self.weights) == len(self.stds)):
            raise ConfigError("mode lists must have equal lengths")
        if not abs(sum(self.weights) - 1.0) <= 1e-12:
            raise ConfigError(f"mode weights must sum to 1, got {sum(self.weights)}")
        if not all(s > 0.0 for s in self.stds):
            raise DomainError("mode stds must be > 0")

    @classmethod
    def two_modes(cls, offset: float = 2.0, std: float = 0.5):
        """Default bimodal target: equal modes at (+-offset, 0)."""
        return cls(
            centers=((-offset, 0.0), (offset, 0.0)),
            weights=(0.5, 0.5),
            stds=(std, std),
        )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(len(self.weights), size=n, p=np.asarray(self.weights))
        c = np.asarray(self.centers, dtype=np.float64)[idx]
        s = np.asarray(self.stds, dtype=np.float64)[idx, None]
        return c + s * rng.standard_normal((n, 2))

    def _component_logs(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        c = np.asarray(self.centers, dtype=np.float64)
        s = np.asarray(self.stds, dtype=np.float64)
        d2 = np.sum((x[:, None, :] - c[None, :, :]) ** 2, axis=-1)
        return (
            np.log(np.asarray(self.weights))
            - d2 / (2.0 * s**2)
            - 2.0 * np.log(s)
            - _LOG_2PI
        ), x, c, s

    def log_density(self, x) -> np.ndarray:
        logs, _, _, _ = self._component_logs(x)
        return _logsumexp(logs)

    def score(self, x) -> np.ndarray:
        logs, x2, c, s = self._component_logs(x)
        w = np.exp(logs - _logsumexp(logs)[:, None])  # posterior weights
        comp_scores = -(x2[:, None, :] - c[None, :, :]) / (s**2)[None, :, None]
        return np.sum(w[:, :, None] * comp_scores, axis=1)


def ring8(radius: float = 3.0, std: float = 0.3) -> GaussianMixture2D:
    """Eight equal Gaussian modes evenly spaced on a circle."""
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    centers = tuple((radius * np.cos(a), radius * np.sin(a)) for a in angles)
    return GaussianMixture2D(centers=centers, weights=(0.125,) * 8, stds=(std,) * 8)


# ---------------------------------------------------------------------------
# Rewards.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticWell:
    """r(x) = -(curvature / 2) ||x - center||^2."""

    center: np.ndarray
    curvature: float = 1.0

    def value(self, x):
        d = np.asarray(x, dtype=np.float64) - np.asarray(self.center)
        return -0.5 * self.curvature * np.sum(d * d, axis=-1)

    def grad(self, x) -> np.ndarray:
        d = np.asarray(x, dtype=np.float64) - np.asarray(self.center)
        return -self.curvature * d


@dataclass(frozen=True)
class LogDensityTilt:
    """r(x) = log density of a target distribution."""

    target: object

    def value(self, x):
        v = self.target.log_density(x)
        return v if np.ndim(x) > 1 else v[0]

    def grad(self, x) -> np.ndarray:
        s = self.target.score(x)
        return s if np.ndim(x) > 1 else s[0]


@dataclass(frozen=True)
class LinearProbe:
    """r(x) = direction . x."""

    direction: np.ndarray

    def value(self, x):
        # a stack of 1 x dim products: each row is summed exactly as the
        # 1-D dot product of that row alone
        x = np.asarray(x, dtype=np.float64)
        v = np.matmul(np.atleast_2d(x)[:, None, :], np.asarray(self.direction))[:, 0]
        return v if x.ndim > 1 else v[0]

    def grad(self, x) -> np.ndarray:
        return np.asarray(self.direction, dtype=np.float64) + 0.0 * np.asarray(x)


@dataclass(frozen=True)
class ConstantReward:
    """r(x) = value everywhere; zero gradient (fine-tuning no-op)."""

    c: float = 0.0

    def value(self, x):
        return self.c + np.zeros(np.shape(x)[:-1])

    def grad(self, x) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=np.float64))


REWARDS = {
    "quadwell": QuadraticWell,
    "tilt": LogDensityTilt,
    "linear": LinearProbe,
    "constant": ConstantReward,
}
