"""Synthetic data distributions and differentiable toy rewards.

Every distribution exposes a sampler plus an exact log-density and score,
so pretrained models can be checked against closed forms; ``log_density``
and ``score`` take (m, dim) rows only and raise ``ShapeError`` on any
other shape.  Rewards take rows: ``value`` maps stacked (m, dim) states to
(m,) and ``grad`` maps (m, dim) to (m, dim); ``ConstantReward`` accepts any
shape, ``QuadraticWell`` and ``LinearProbe`` any whose last axis is as long
as their center or direction.  The gradient is what seeds the backward
adjoint pass during fine-tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

_LOG_2PI = np.log(2.0 * np.pi)


def _logsumexp(a):  # row-wise, over axis 1
    m = np.max(a, axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=1, keepdims=True)))[:, 0]


@dataclass(frozen=True)
class Gaussian1D:
    mu: float = 0.0
    sigma: float = 1.0
    dim: ClassVar[int] = 1

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")
        if not 0.0 < self.sigma < math.inf:
            raise DomainError(f"sigma must be > 0 and finite, got {self.sigma}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.mu + self.sigma * rng.standard_normal((n, 1))

    def log_density(self, x) -> np.ndarray:
        z = (ShapeError.rows(x, self.dim)[:, 0] - self.mu) / self.sigma
        return -0.5 * z * z - np.log(self.sigma) - 0.5 * _LOG_2PI

    def score(self, x) -> np.ndarray:
        return -(ShapeError.rows(x, self.dim) - self.mu) / self.sigma**2


@dataclass(frozen=True)
class GaussianMixture2D:
    """Isotropic 2D Gaussian mixture; modes are (center, weight, std)."""

    centers: tuple  # of (x, y)
    weights: tuple
    stds: tuple
    dim: ClassVar[int] = 2

    def __post_init__(self):
        if not (len(self.centers) == len(self.weights) == len(self.stds)):
            raise ConfigError("mode lists must have equal lengths")
        if not abs(sum(self.weights) - 1.0) <= 1e-12:
            raise ConfigError(f"mode weights must sum to 1, got {sum(self.weights)}")
        if any(w < 0 for w in self.weights):
            raise DomainError("mode weights must be >= 0")
        if not all(0.0 < s < math.inf for s in self.stds):
            raise DomainError("mode stds must be > 0 and finite")
        if any(np.shape(c) != (2,) for c in self.centers):
            raise ShapeError(f"mode centers must be (x, y) pairs, got {self.centers}")
        if not np.all(np.isfinite(np.asarray(self.centers, dtype=np.float64))):
            raise DomainError("mode centers must be finite")

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
        x = ShapeError.rows(x, self.dim)
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


def _states_like(x, vec, name: str) -> np.ndarray:
    """``x`` as float64 states whose last axis is as long as ``vec``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != np.shape(vec)[-1:]:
        raise ShapeError(f"states of shape {x.shape} do not fit {name} {np.shape(vec)}")
    return x


@dataclass(frozen=True)
class QuadraticWell:
    """r(x) = -(curvature / 2) ||x - center||^2."""

    center: np.ndarray
    curvature: float = 1.0

    def value(self, x):
        d = _states_like(x, self.center, "center") - np.asarray(self.center)
        return -0.5 * self.curvature * np.sum(d * d, axis=-1)

    def grad(self, x) -> np.ndarray:
        d = _states_like(x, self.center, "center") - np.asarray(self.center)
        return -self.curvature * d


@dataclass(frozen=True)
class LogDensityTilt:
    """r(x) = log density of a target distribution."""

    target: object

    def value(self, x):
        return self.target.log_density(x)

    def grad(self, x) -> np.ndarray:
        return self.target.score(x)


@dataclass(frozen=True)
class LinearProbe:
    """r(x) = direction . x."""

    direction: np.ndarray

    def value(self, x):
        return _states_like(x, self.direction, "direction") @ np.asarray(self.direction)

    def grad(self, x) -> np.ndarray:
        x = _states_like(x, self.direction, "direction")
        return np.asarray(self.direction, dtype=np.float64) + 0.0 * x


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
