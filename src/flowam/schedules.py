"""Affine interpolant schedule, its drift coefficients, and diffusion noise schedules.

The interpolant is x_t = beta(t) * x0 + alpha(t) * x1 with alpha(0)=0,
alpha(1)=1, beta(0)=1, beta(1)=0.  From (alpha, beta) we derive

    kappa(t) = alpha'(t) / alpha(t)
    eta(t)   = beta(t) * (kappa(t) * beta(t) - beta'(t))

which define the matched ODE/SDE sampler pair: the SDE adds the score
correction (sigma^2 / (2 eta)) (v - kappa x), and the memoryless noise level
is sigma^2 = 2 eta.  All schedule queries clamp t to [T_FLOOR, 1] so the
kappa singularity at t=0 never surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DomainError, SingularityError

# Time clamp floor: samplers never need drift coefficients below this.
T_FLOOR = 1e-3


@dataclass(frozen=True)
class InterpolantSchedule:
    alpha: Callable[[float], float]
    beta: Callable[[float], float]
    alpha_dot: Callable[[float], float]
    beta_dot: Callable[[float], float]


def linear_schedule() -> InterpolantSchedule:
    """alpha(t) = t, beta(t) = 1 - t."""
    return InterpolantSchedule(
        alpha=lambda t: np.asarray(t, dtype=np.float64) + 0.0,
        beta=lambda t: 1.0 - np.asarray(t, dtype=np.float64),
        alpha_dot=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        beta_dot=lambda t: -np.ones_like(np.asarray(t, dtype=np.float64)),
    )


@dataclass(frozen=True)
class DriftCoefficients:
    kappa: float
    eta: float
    t: float


def clamp_time(t: float, floor: float = T_FLOOR) -> float:
    if t < 0.0 or t > 1.0:
        raise DomainError(f"time {t} outside [0, 1]")
    return max(t, floor)


def drift_coefficients(sched: InterpolantSchedule, t: float) -> DriftCoefficients:
    """kappa(t), eta(t) at the clamped time."""
    tc = clamp_time(t)
    a = float(sched.alpha(tc))
    if a == 0.0:
        raise SingularityError(f"alpha({tc}) = 0 after clamping")
    kappa = float(sched.alpha_dot(tc)) / a
    b = float(sched.beta(tc))
    eta = b * (kappa * b - float(sched.beta_dot(tc)))
    return DriftCoefficients(kappa=kappa, eta=eta, t=tc)


class NoiseKind(Enum):
    MEMORYLESS = "memoryless"
    SIN_SQ = "sin2"
    ONE_MINUS_T = "one_minus_t"
    SIGMA_T = "sigma_t"
    ZERO = "zero"


@dataclass(frozen=True)
class NoiseSchedule:
    kind: NoiseKind


def sigma(ns: NoiseSchedule, t: float, sched: InterpolantSchedule) -> float:
    """Diffusion coefficient sigma(t) >= 0."""
    if t < 0.0 or t > 1.0:
        raise DomainError(f"time {t} outside [0, 1]")
    if ns.kind is NoiseKind.ZERO:
        return 0.0
    if ns.kind is NoiseKind.MEMORYLESS:
        eta = drift_coefficients(sched, t).eta
        return math.sqrt(max(2.0 * eta, 0.0))
    if ns.kind is NoiseKind.SIN_SQ:
        return math.sin(math.pi * t) ** 2
    if ns.kind is NoiseKind.ONE_MINUS_T:
        return 1.0 - t
    # SIGMA_T: beta(t) itself used as the noise level.
    return float(sched.beta(t))


SCHEDULES = {"linear": linear_schedule()}
NOISE_SCHEDULES = {
    "memoryless": NoiseSchedule(NoiseKind.MEMORYLESS),
    "sin2": NoiseSchedule(NoiseKind.SIN_SQ),
    "one_minus_t": NoiseSchedule(NoiseKind.ONE_MINUS_T),
    "sigma_t": NoiseSchedule(NoiseKind.SIGMA_T),
    "zero": NoiseSchedule(NoiseKind.ZERO),
}
