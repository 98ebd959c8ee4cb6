"""Forward trajectory integration: Euler ODE and Euler-Maruyama SDE samplers.

Trajectories are recorded on a uniform grid t_0=0 < ... < t_N=1.  SDE steps
add the score-derived drift correction (sigma^2 / (2 eta)) (v - kappa x) and
sqrt(h) sigma noise, with (correction, kappa, sigma) read from the row of
the run's ``schedules.step_coeffs`` table that belongs to the step start;
the caller builds that table once and passes it in.

``sample_batch`` is the one sampler of the fine-tuning loop and of
evaluation: sample i draws its initial state and then its (N, dim) noise
block from its own stream ``sample_seed(seed, i)``, bitwise as if alone.
The batch is integrated jointly, and BLAS may round a product over m rows
differently from one over a single row, so row i matches the run of sample i
alone only to rounding; a rerun at the same batch size repeats bit for bit.
``sample_ode`` integrates the flow from a given initial state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NonFiniteError, ShapeError


@dataclass
class Trajectory:
    times: np.ndarray  # (N+1,)
    states: np.ndarray  # (N+1, dim)
    noises: np.ndarray  # (N, dim) for SDE runs, (0, dim) for ODE runs

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1


def sample_seed(base_seed: int, index: int) -> np.random.Generator:
    """Per-sample RNG stream; index 0 is the stream of a lone sample."""
    return np.random.default_rng(np.random.SeedSequence([int(base_seed), int(index)]))


def _integrate(field, x0, n_steps, coeffs=None, noises=None, start=0):
    """Shared Euler / Euler-Maruyama core over a batch, from grid index
    ``start`` to t=1; Euler-Maruyama reads ``coeffs``, a ``step_coeffs``
    table.  Returns (times (N+1,), states (N+1-start, m, dim))."""
    x = np.atleast_2d(np.asarray(x0, dtype=np.float64)).copy()
    m, dim = x.shape
    h = 1.0 / n_steps
    times = np.linspace(0.0, 1.0, n_steps + 1)
    states = np.empty((n_steps + 1 - start, m, dim))
    states[0] = x
    stochastic = noises is not None
    for k in range(start, n_steps):
        t = times[k]
        v = field.forward(x, t)
        if stochastic:
            corr, kappa, sig = coeffs[k]
            drift = v + corr * (v - kappa * x)
            x = x + h * drift + np.sqrt(h) * sig * noises[k]
        else:
            x = x + h * v
        if not np.all(np.isfinite(x)):
            raise NonFiniteError(f"non-finite state at step {k + 1}")
        states[k + 1 - start] = x
    return times, states


def sample_ode(field, n_steps: int, x0) -> Trajectory:
    """Explicit-Euler trajectory of the probability-flow ODE."""
    if n_steps < 1:
        raise ShapeError("n_steps must be >= 1")
    times, states = _integrate(field, x0, n_steps)
    return Trajectory(times, states[:, 0, :], np.empty((0, states.shape[-1])))


def sample_batch(
    field,
    n_steps: int,
    m: int,
    base_seed: int,
    coeffs: Optional[np.ndarray] = None,
) -> list[Trajectory]:
    """m independent trajectories with per-sample derived seeds.

    x0 ~ N(0, I) and the noise block are drawn from each sample's own stream,
    then the batch is integrated jointly (vectorized over samples).
    ``coeffs`` is the run's ``step_coeffs`` table, shape (n_steps, 3); without
    it, or where sigma is 0 at every step, this is the Euler flow of the ODE.
    """
    if n_steps < 1:
        raise ShapeError("n_steps must be >= 1")
    if m < 1:
        raise ShapeError("batch size must be >= 1")
    if base_seed < 0:
        raise DomainError(f"seed must be >= 0, got {base_seed}")
    if coeffs is not None and np.shape(coeffs) != (n_steps, 3):
        raise ShapeError(f"coefficient table must have shape ({n_steps}, 3), "
                         f"got {np.shape(coeffs)}")
    dim = field.state_dim
    stochastic = coeffs is not None and bool(np.any(coeffs[:, 2]))
    x0 = np.empty((m, dim))
    noises = np.empty((n_steps, m, dim)) if stochastic else None
    for i in range(m):
        rng = sample_seed(base_seed, i)
        x0[i] = rng.standard_normal(dim)
        if stochastic:
            noises[:, i, :] = rng.standard_normal((n_steps, dim))
    try:
        times, states = _integrate(field, x0, n_steps, coeffs, noises)
    except NonFiniteError as e:
        raise NonFiniteError(f"{e} (samples 0:{m})") from e
    empty = np.empty((0, dim))
    return [
        Trajectory(times=times, states=states[:, i, :],
                   noises=noises[:, i, :] if stochastic else empty)
        for i in range(m)
    ]
