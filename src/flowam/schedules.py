"""Affine interpolant schedule, noise schedules, and the SDE coefficient table.

The interpolant is x_t = beta(t) * x0 + alpha(t) * x1 with alpha(0)=0,
alpha(1)=1, beta(0)=1, beta(1)=0.  From (alpha, beta) we derive

    kappa(t) = alpha'(t) / alpha(t)
    eta(t)   = beta(t) * (kappa(t) * beta(t) - beta'(t))

which define the matched ODE/SDE sampler pair: the SDE adds the score
correction (sigma^2 / (2 eta)) (v - kappa x), and the memoryless noise level
is sigma^2 = 2 eta.  ``step_coeffs`` evaluates (correction, kappa, sigma)
once per grid at the step starts, with t clipped to [T_FLOOR, 1 - T_FLOOR]
so kappa and the correction stay finite at both ends; the sampler, the
adjoint, the stochastic loss and the config check all read that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Time clip: coefficients are never evaluated closer than this to 0 or 1.
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


def step_coeffs(sched: InterpolantSchedule, ns, n_steps: int) -> np.ndarray:
    """(N, 3) rows (correction, kappa, sigma) at the step starts of the grid.

    Row k belongs to t_k = k/N as ``np.linspace`` places it, clipped to
    [T_FLOOR, 1 - T_FLOOR]; ``ns`` is a value of ``NOISE_SCHEDULES``.
    """
    t = np.clip(np.linspace(0.0, 1.0, n_steps + 1)[:-1], T_FLOOR, 1.0 - T_FLOOR)
    kappa = sched.alpha_dot(t) / sched.alpha(t)
    b = sched.beta(t)
    eta = b * (kappa * b - sched.beta_dot(t))
    sig = ns(sched, t, eta)
    return np.stack([sig * sig / (2.0 * eta), kappa, sig], axis=1)


def _sin2(sched, t, eta):
    # math.sin entry by entry: np.sin differs from it in the last bit at
    # some grid times, and the sampler's bytes must not depend on that
    return np.array([math.sin(math.pi * s) ** 2 for s in t.tolist()])


SCHEDULES = {"linear": linear_schedule()}
# name -> sigma(sched, t, eta) >= 0 over the clipped step-start times
NOISE_SCHEDULES = {
    "memoryless": lambda sched, t, eta: np.sqrt(np.maximum(2.0 * eta, 0.0)),
    "sin2": _sin2,
    "one_minus_t": lambda sched, t, eta: 1.0 - t,
    "sigma_t": lambda sched, t, eta: sched.beta(t),  # beta(t) as the noise level
    "zero": lambda sched, t, eta: np.zeros_like(t),
}
