"""The linear interpolant's SDE coefficient table and the noise schedules.

The interpolant is x_t = beta(t) x0 + alpha(t) x1 with alpha(t) = t and
beta(t) = 1 - t, so

    kappa(t) = alpha'(t) / alpha(t)                = 1 / t
    eta(t)   = beta(t) (kappa(t) beta(t) - beta'(t)) = (1 - t) (kappa(t) (1 - t) + 1)

define the matched ODE/SDE sampler pair: the SDE adds the score
correction (sigma^2 / (2 eta)) (v - kappa x), and the memoryless noise level
is sigma^2 = 2 eta.  ``step_coeffs`` evaluates (correction, kappa, sigma)
once per grid at the step starts, with t clipped to [T_FLOOR, 1 - T_FLOOR]
so kappa and the correction stay finite at both ends.  That table is the one
description of the SDE: the sampler, the adjoint and the stochastic loss
read it.
"""

from __future__ import annotations

import numpy as np

# Time clip: coefficients are never evaluated closer than this to 0 or 1.
T_FLOOR = 1e-3


def step_coeffs(ns, n_steps: int) -> np.ndarray:
    """(N, 3) rows (correction, kappa, sigma) at the step starts of the grid.

    Row k belongs to t_k = k/N as ``np.linspace`` places it, clipped to
    [T_FLOOR, 1 - T_FLOOR]; ``ns`` is a value of ``NOISE_SCHEDULES``.
    """
    t = np.clip(np.linspace(0.0, 1.0, n_steps + 1)[:-1], T_FLOOR, 1.0 - T_FLOOR)
    kappa = 1.0 / t
    b = 1.0 - t
    eta = b * (kappa * b + 1.0)
    sig = ns(t, eta)
    return np.stack([sig * sig / (2.0 * eta), kappa, sig], axis=1)


# name -> sigma(t, eta) > 0 over the clipped step-start times
NOISE_SCHEDULES = {
    "memoryless": lambda t, eta: np.sqrt(np.maximum(2.0 * eta, 0.0)),
    "one_minus_t": lambda t, eta: 1.0 - t,
}
