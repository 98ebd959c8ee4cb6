"""Forward trajectory integration: Euler ODE and Euler-Maruyama SDE samplers.

Trajectories are recorded on a uniform grid t_0=0 < ... < t_N=1.  SDE steps
add the score-derived drift correction (sigma^2 / (2 eta)) (v - kappa x) and
sqrt(h) sigma noise; coefficients are evaluated with t clipped to
[T_FLOOR, 1 - T_FLOOR] so eta never vanishes inside a step.

Noise draws are generated as one (N, dim) block per sample from a
counter-derived seed, so batch runs, single runs, and replays agree bitwise
regardless of worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteError, ShapeError
from .schedules import (
    T_FLOOR,
    InterpolantSchedule,
    NoiseKind,
    NoiseSchedule,
    drift_coefficients,
    sigma,
)


@dataclass
class Trajectory:
    times: np.ndarray  # (N+1,)
    states: np.ndarray  # (N+1, dim)
    noises: np.ndarray  # (N, dim) for SDE runs, (0, dim) for ODE runs
    seed: Optional[int] = None

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.states.shape[-1]


def sample_seed(base_seed: int, index: int) -> np.random.Generator:
    """Per-sample RNG stream; index 0 is the stream of a lone sample."""
    return np.random.default_rng(np.random.SeedSequence([int(base_seed), int(index)]))


def sde_step_coeffs(sched: InterpolantSchedule, ns: NoiseSchedule, t: float):
    """(correction, kappa, sigma) at t clipped to [T_FLOOR, 1 - T_FLOOR]."""
    tc = min(max(t, T_FLOOR), 1.0 - T_FLOOR)
    co = drift_coefficients(sched, tc)
    sig = sigma(ns, tc, sched)
    return sig * sig / (2.0 * co.eta), co.kappa, sig


def _check_finite(x, step):
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"non-finite state at step {step}")


def _integrate(field, x0, n_steps, sched=None, ns=None, noises=None, start=0):
    """Shared Euler / Euler-Maruyama core over a batch, from grid index
    ``start`` to t=1.  Returns (times (N+1,), states (N+1-start, m, dim))."""
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
            corr, kappa, sig = sde_step_coeffs(sched, ns, t)
            drift = v + corr * (v - kappa * x)
            x = x + h * drift + np.sqrt(h) * sig * noises[k]
        else:
            x = x + h * v
        _check_finite(x, k + 1)
        states[k + 1 - start] = x
    return times, states


def sample_ode(field, n_steps: int, x0, seed=None) -> Trajectory:
    """Explicit-Euler trajectory of the probability-flow ODE."""
    if n_steps < 1:
        raise ShapeError("n_steps must be >= 1")
    times, states = _integrate(field, x0, n_steps)
    return Trajectory(
        times=times,
        states=states[:, 0, :],
        noises=np.empty((0, states.shape[-1])),
        seed=seed,
    )


def sample_sde(
    field,
    sched: InterpolantSchedule,
    ns: NoiseSchedule,
    n_steps: int,
    x0,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    noises: Optional[np.ndarray] = None,
) -> Trajectory:
    """Euler-Maruyama trajectory of the matched SDE.

    Noise precedence: explicit ``noises`` (replay), else draws from ``rng``,
    else from ``sample_seed(seed, 0)``.
    """
    if n_steps < 1:
        raise ShapeError("n_steps must be >= 1")
    x0 = np.asarray(x0, dtype=np.float64)
    dim = x0.shape[-1] if x0.ndim else 1
    if ns.kind is NoiseKind.ZERO:
        traj = sample_ode(field, n_steps, x0, seed=seed)
        traj.noises = np.zeros((n_steps, dim))
        return traj
    if noises is None:
        if rng is None:
            rng = sample_seed(seed if seed is not None else 0, 0)
        noises = rng.standard_normal((n_steps, dim))
    noises = np.asarray(noises, dtype=np.float64)
    if noises.shape != (n_steps, dim):
        raise ShapeError(f"noises shape {noises.shape} != {(n_steps, dim)}")
    times, states = _integrate(
        field, x0, n_steps, sched=sched, ns=ns, noises=noises[:, None, :]
    )
    return Trajectory(times=times, states=states[:, 0, :], noises=noises, seed=seed)


def replay(field, traj: Trajectory, sched=None, ns=None) -> Trajectory:
    """Re-integrate from the stored initial state and noises."""
    if traj.noises.shape[0] == 0:
        return sample_ode(field, traj.n_steps, traj.states[0], seed=traj.seed)
    return sample_sde(
        field, sched, ns, traj.n_steps, traj.states[0],
        seed=traj.seed, noises=traj.noises,
    )


def sample_batch(
    field,
    n_steps: int,
    m: int,
    base_seed: int,
    sched: Optional[InterpolantSchedule] = None,
    ns: Optional[NoiseSchedule] = None,
    workers: int = 1,
) -> list[Trajectory]:
    """m independent trajectories with per-sample derived seeds.

    x0 ~ N(0, I) and the noise block are drawn from each sample's own stream,
    then the batch is integrated jointly (vectorized over samples); worker
    count only splits the batch and never changes results.
    """
    if m < 1:
        raise ShapeError("batch size must be >= 1")
    dim = field.cfg.state_dim if hasattr(field, "cfg") else field.state_dim
    stochastic = ns is not None and ns.kind is not NoiseKind.ZERO
    x0 = np.empty((m, dim))
    noises = np.empty((n_steps, m, dim)) if stochastic else None
    for i in range(m):
        rng = sample_seed(base_seed, i)
        x0[i] = rng.standard_normal(dim)
        if stochastic:
            noises[:, i, :] = rng.standard_normal((n_steps, dim))

    def run(sl):
        try:
            return _integrate(
                field, x0[sl], n_steps,
                sched=sched, ns=ns,
                noises=noises[:, sl, :] if stochastic else None,
            )
        except NonFiniteError as e:
            raise NonFiniteError(f"{e} (samples {sl.start}:{sl.stop})") from e

    if workers > 1 and m > 1:
        chunk = (m + workers - 1) // workers
        slices = [slice(i, min(i + chunk, m)) for i in range(0, m, chunk)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, slices))
        times = results[0][0]
        states = np.concatenate([s for _, s in results], axis=1)
    else:
        times, states = run(slice(0, m))

    out = []
    for i in range(m):
        out.append(
            Trajectory(
                times=times,
                states=states[:, i, :],
                noises=noises[:, i, :] if stochastic else np.empty((0, dim)),
                seed=base_seed,
            )
        )
    return out
