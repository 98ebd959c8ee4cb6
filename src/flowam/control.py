"""Control regularization, adjoint-to-control targets, and matching losses.

The penalty is f(r) = r^p / (p * lambda) with p > 1, lambda > 0.  Its
first-order stationarity condition inverts to the closed-form target

    u*(a) = -lambda^{1/(p-1)} ||a||^{(2-p)/(p-1)} a,

which the deterministic matching loss regresses the implicit control
v_theta - v_base onto.  v_base is not recomputed here: the matching losses
read the base velocities that ``adjoint.lean_adjoint_batch`` kept at the
window's step starts.  The stochastic (quadratic-penalty) loss matches
(sigma^2 + 2 eta) / (2 sigma eta) * (v_theta - v_base) against -sigma u*(a);
with c = sigma^2 / (2 eta) from the ``schedules.step_coeffs`` row of the
step start, that coefficient is (c + 1) / sigma.
DRaFT / ReFL baselines backpropagate the terminal reward through taped
Euler steps instead, one pass for both: DRaFT re-runs the last k sampler
steps, ReFL one step of size 1 - t from a drawn step start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _check_grid
from .errors import (
    ConfigError, NonFiniteError, ShapeError, SingularityError, ValidationError,
)
from .nnet import VelocityField, layer_views


EPS_ADJOINT = 1e-12  # adjoint norms below this get a zero control target


@dataclass(frozen=True)
class RegularizerSpec:
    p: float = 2.0
    lam: float = 1.0

    def __post_init__(self):
        ValidationError.check(ValidationError.wrong_types(self))
        v = []
        if not 1.0 < self.p < math.inf:
            v.append(f"p must be > 1 and finite, got {self.p}")
        if not self.lam > 0.0:
            v.append(f"lam must be > 0, got {self.lam}")
        elif self.p > 1.0 and not math.isfinite(self.lam_power):
            v.append(f"lam ** (1 / (p - 1)) must be finite, got p = {self.p}, "
                     f"lam = {self.lam}")
        ValidationError.check(v)

    @property
    def lam_power(self) -> float:
        """lambda^{1/(p-1)}, the scale of the control target; inf on overflow."""
        try:
            return float(self.lam) ** (1.0 / (float(self.p) - 1.0))
        except OverflowError:
            return math.inf

    def fprime(self, r):
        """f'(r) = r^{p-1} / lambda."""
        return np.asarray(r, dtype=np.float64) ** (self.p - 1.0) / self.lam


def control_from_adjoint(reg: RegularizerSpec, a: np.ndarray) -> np.ndarray:
    """Closed-form optimal control target; zero below the adjoint threshold.

    Batched over leading axes; the last axis is the state dimension.
    """
    a = np.asarray(a, dtype=np.float64)
    norm = np.linalg.norm(a, axis=-1, keepdims=True)
    safe = np.maximum(norm, EPS_ADJOINT)
    factor = reg.lam_power * safe ** ((2.0 - reg.p) / (reg.p - 1.0))
    u = -factor * a
    return np.where(norm < EPS_ADJOINT, 0.0, u)


def check_pmp_optimality(reg: RegularizerSpec, a, u) -> float:
    """Stationarity residual || f'(||u||) u/||u|| + a ||; zero at the optimum."""
    a = np.asarray(a, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if a.shape != u.shape:
        raise ShapeError(f"adjoint shape {a.shape} != control shape {u.shape}")
    un = np.linalg.norm(u)
    if un == 0.0:
        return float(np.linalg.norm(a))
    grad_f = reg.fprime(un) * u / un
    return float(np.linalg.norm(grad_f + a))


# ---------------------------------------------------------------------------
# Matching losses.  Both consume stacked states (N+1, m, dim) plus the
# window adjoints (T, m, dim), pair the adjoint at grid time t_k with the
# velocities consumed at the step start t_{k-1}, and return
# (loss, param_grad) with the mean taken over window x batch.  The base
# velocities at those step starts arrive as the (T, m, dim) array that
# ``lean_adjoint_batch`` filled, so the losses run no base forward.  The
# stochastic loss reads its per-step (correction, sigma) from the
# ``step_coeffs`` table the caller built for the run.
# ---------------------------------------------------------------------------


def _matching_loss(v_theta, v_base, times, states, adjoints, reg, coef, scale):
    """Mean of |coef_i (v_theta - v_base) - scale_i u*(a_i)|^2 over the window."""
    m = states.shape[1]
    t_count = adjoints.shape[0]
    if v_base.shape != adjoints.shape:
        raise ShapeError(f"base velocities {v_base.shape} != adjoints {adjoints.shape}")
    grads = np.zeros(v_theta.n_params)
    total = 0.0
    denom = float(t_count * m)
    first = times.shape[0] - 1 - t_count  # step start paired with adjoints[0]
    # near p = 1 the target's factor |a|^((2-p)/(p-1)) overflows; one scan
    # names the first bad target before any network pass consumes it
    with np.errstate(over="ignore", invalid="ignore"):
        controls = control_from_adjoint(reg, adjoints)
    finite = np.isfinite(controls)
    if not finite.all():
        i, j, _ = np.argwhere(~finite)[0]
        raise NonFiniteError(f"non-finite control target at window step {i} "
                             f"(grid index {first + i}, sample {j}, p = {reg.p})")
    targets = scale[:, None, None] * controls
    # each tape adds its gradient into ``grads`` through these views
    views = layer_views(v_theta.cfg, grads)
    for i in range(t_count):
        k = first + i
        # coef_i (v_theta - v_base) - target, finished in v_theta's array
        resid, tape = v_theta.forward_tape(states[k], times[k])
        resid -= v_base[i]
        resid *= coef[i]
        resid -= targets[i]
        total += float((resid * resid).sum())
        cot = 2.0 * coef[i] * resid
        cot /= denom
        tape.backward(cot, into=views)
    return total / denom, grads


def am_det_loss_and_grad(
    v_theta: VelocityField,
    v_base: np.ndarray,
    times: np.ndarray,
    states: np.ndarray,
    adjoints: np.ndarray,
    reg: RegularizerSpec,
):
    """Regress the implicit control v_theta - v_base onto u*(a)."""
    _check_grid(times.shape[0] - 1, states, adjoints.shape[0])
    ones = np.ones(adjoints.shape[0])
    return _matching_loss(v_theta, v_base, times, states, adjoints, reg, ones, ones)


def am_sde_loss_and_grad(
    v_theta: VelocityField,
    v_base: np.ndarray,
    coeffs: np.ndarray,
    times: np.ndarray,
    states: np.ndarray,
    adjoints: np.ndarray,
    reg: RegularizerSpec,
):
    """Match the scaled control against sigma u*(a); quadratic penalty only.

    ``coeffs`` is the ``step_coeffs`` table of the grid; the window reads
    its last T rows.
    """
    if reg.p != 2.0:
        raise ConfigError("stochastic adjoint matching supports p = 2 only")
    _check_grid(times.shape[0] - 1, states, adjoints.shape[0], coeffs)
    corr, _, sig = coeffs[-adjoints.shape[0]:].T
    zero = np.flatnonzero(sig == 0.0)
    if zero.size:
        t = times[times.shape[0] - 1 - adjoints.shape[0] + zero[0]]
        raise SingularityError(f"sigma({t}) = 0 on the matching window")
    return _matching_loss(v_theta, v_base, times, states, adjoints, reg,
                          (corr + 1.0) / sig, sig)


# ---------------------------------------------------------------------------
# Direct reward-backpropagation baselines.
# ---------------------------------------------------------------------------


def _reward_backprop(v_theta, x, steps, reward):
    """(-mean reward, param_grad) of the Euler steps ``(t, h)`` taped from
    the detached rows ``x``: -reward.grad / m at the end state, pulled back
    through the tapes into one flat gradient."""
    tapes = []
    for t, h in steps:
        v, tape = v_theta.forward_tape(x, t)
        tapes.append((tape, h))
        x = x + h * v
    loss = -float(np.mean(reward.value(x)))
    grads = np.zeros(v_theta.n_params)
    views = layer_views(v_theta.cfg, grads)
    w = -reward.grad(x) / x.shape[0]
    for tape, h in reversed(tapes):
        w = w + tape.backward(h * w, into=views)
    return loss, grads


def draft_loss_and_grad(
    v_theta: VelocityField,
    times: np.ndarray,
    states: np.ndarray,
    reward,
    k: int,
):
    """Reward backprop through the last k Euler steps.

    ``states`` is the detached (N+1, m, dim) trajectory batch sampled from
    the current model; the last k steps are re-run differentiably from the
    prefix state.  Returns (loss, param_grad) with loss -mean reward(X_1).
    """
    n = times.shape[0] - 1
    _check_grid(n, states, k, name="k")
    h = times[1] - times[0]
    return _reward_backprop(v_theta, states[n - k],
                            [(times[j], h) for j in range(n - k, n)], reward)


def refl_loss_and_grad(
    v_theta: VelocityField,
    times: np.ndarray,
    states: np.ndarray,
    reward,
    k_window: int,
    rng: np.random.Generator,
):
    """Reward at a one-step extrapolated terminal state.

    One step index is drawn uniformly from the last ``k_window`` steps; the
    terminal state is extrapolated as X_1 = X_t + (1 - t) v_theta(X_t, t),
    one Euler step of size 1 - t through DRaFT's pass, the only one that
    carries gradient.  Returns (loss, param_grad) with loss -mean reward(X_1).
    """
    n = times.shape[0] - 1
    _check_grid(n, states, k_window, name="k_window")
    j = n - k_window + int(rng.integers(k_window))
    t = times[j]
    return _reward_backprop(v_theta, states[j], [(t, 1.0 - t)], reward)
