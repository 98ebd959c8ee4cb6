"""Backward integration of the lean adjoint over a truncated terminal window.

The recursion is first-order Euler on the same uniform grid as the forward
pass, using vector-Jacobian products against the frozen base field only:

    a_{t-h} = a_t + h * a_t^T dv_base/dx (X_{t-h}, t - h)

with terminal condition a_1 = grad of the terminal cost at X_1.  The SDE
variant differentiates the corrected drift v + c (v - kappa x) with
c = sigma^2 / (2 eta), i.e. scales the VJP by (1 + c) and subtracts
c kappa a, reading (c, kappa) from the ``schedules.step_coeffs`` row of the
step start.  Traces are plain arrays: nothing downstream differentiates
through them.

Each VJP also yields the base velocity at its step start, and
``lean_adjoint_batch`` returns those velocities with the adjoints, for the
matching loss: row i of each holds v_base at step start N - T + i, the
point paired with adjoints[i].  Rows 1..T-1 come from the recursion and
row 0 from one extra forward, so the loss runs no base forward of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import Trajectory, _check_finite, _check_grid, _integrate
from .errors import NonFiniteError, ShapeError

BLOWUP_NORM = 1e12


@dataclass
class AdjointTrace:
    window: np.ndarray  # (T,) grid times, ascending, window[-1] == 1
    adjoints: np.ndarray  # (T, dim); adjoints[-1] is the terminal gradient


def _vjp(base, x, t, w, row=None):
    """(v, a^T d(drift)/dx); ``row`` is the step's (correction, kappa, sigma)."""
    v, out = base.input_vjp(x, t, w)
    if row is None:
        return v, out
    corr, kappa, _ = row
    return v, (1.0 + corr) * out - corr * kappa * w


def lean_adjoint_batch(
    base,
    times: np.ndarray,
    states: np.ndarray,
    terminal_grads: np.ndarray,
    n_truncate: int,
    coeffs: Optional[np.ndarray] = None,
):
    """Backward Euler adjoint for a stacked batch.

    states: (N+1, m, dim); terminal_grads: (m, dim).  Returns
    (v_base, adjoints), both (T, m, dim): row i of each belongs to the step
    that starts at grid index N - T + i, v_base[i] being the base velocity
    there.  Passing ``coeffs``, the ``step_coeffs`` table of the grid,
    differentiates the noise-corrected SDE drift instead of the plain field.
    """
    n = times.shape[0] - 1
    _check_grid(n, states, n_truncate, coeffs, name="n_truncate")
    tg = np.asarray(terminal_grads, dtype=np.float64)
    if tg.shape != states.shape[1:]:
        raise ShapeError(f"terminal grads {tg.shape} != states {states.shape[1:]}")
    if not np.all(np.isfinite(tg)):
        raise NonFiniteError("non-finite terminal gradient")
    h = times[1] - times[0]
    v_base = np.empty((n_truncate,) + tg.shape)
    adjoints = np.empty((n_truncate,) + tg.shape)
    adjoints[-1] = tg
    a = tg
    for i in range(n_truncate - 1, 0, -1):
        # differentiate at the step start k, the point the forward step
        # evaluated the drift at, so the trace is the exact pathwise
        # gradient of the discrete flow map; adjoints[i - 1] is the one at k
        k = n - n_truncate + i
        row = coeffs[k] if coeffs is not None else None
        v_base[i], vjp = _vjp(base, states[k], times[k], a, row)
        a = a + h * vjp
        if not np.abs(a).max() <= BLOWUP_NORM:  # NaN fails the test too
            sample = int(np.argmax(~(np.abs(a) <= BLOWUP_NORM).all(axis=1)))
            raise NonFiniteError(f"adjoint blow-up at grid index {k - 1}, sample {sample}")
        adjoints[i - 1] = a
    v_base[0] = base.forward(states[n - n_truncate], times[n - n_truncate])
    return v_base, adjoints


def lean_adjoint(
    base, traj: Trajectory, terminal_grad, n_truncate: int
) -> AdjointTrace:
    """Truncated lean adjoint along one trajectory (deterministic dynamics)."""
    tg = np.asarray(terminal_grad, dtype=np.float64)
    _, adj = lean_adjoint_batch(
        base, traj.times, traj.states[:, None, :], tg[None, :], n_truncate
    )
    return AdjointTrace(window=traj.times[-n_truncate:], adjoints=adj[:, 0, :])


def verify_adjoint_fd(base, traj: Trajectory, reward, t_index: int, fd_step=1e-4):
    """Check the lean adjoint against perturb-and-reintegrate finite differences.

    The trajectory must come from the base field itself (zero control); then
    the lean adjoint at t_index should equal the pathwise gradient of the
    terminal cost g(X_1) = -reward(X_1) w.r.t. X_{t_index}.
    Returns (adjoint, fd_gradient, max_rel_err).
    """
    n = traj.n_steps
    _check_grid(n, window=t_index, name="t_index")
    terminal_grad = -np.asarray(reward.grad(traj.states[-1:])[0], dtype=np.float64)
    # the window starts at t_index, so its first entry is the adjoint there
    adjoint = lean_adjoint(base, traj, terminal_grad, n - t_index + 1).adjoints[0]

    # rows x + h e_j, then rows x - h e_j, re-integrated together
    x = traj.states[t_index]
    dim = x.shape[-1]
    e = fd_step * np.eye(dim)
    _, states = _integrate(base, np.concatenate([x + e, x - e]), n, start=t_index)
    _check_finite(states, t_index)
    g = -reward.value(states[-1])
    fd = (g[:dim] - g[dim:]) / (2.0 * fd_step)
    scale = max(np.linalg.norm(fd), 1e-12)
    max_rel_err = float(np.max(np.abs(adjoint - fd)) / scale)
    return adjoint, fd, max_rel_err
