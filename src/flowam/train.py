"""Pretraining and fine-tuning loops with Adam, warmup, and clipping.

Pretraining regresses the network onto the linear interpolant's slope
X_1 - X_0 at random times.  Fine-tuning runs the sample / backward-adjoint /
loss / update cycle against a frozen copy of the base field; trajectory
states and adjoints are plain detached arrays, so no gradient ever flows
into simulation.

Metrics rows are deterministic given (config, seed); per-phase wall-clock
durations are tracked separately so metrics files stay byte-reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .adjoint import lean_adjoint_batch
from .checkpoint import Checkpoint, atomic_write
from .control import (
    RegularizerSpec,
    am_det_loss_and_grad,
    am_sde_loss_and_grad,
    draft_loss_and_grad,
    refl_loss_and_grad,
)
from .dynamics import sample_batch, sample_seed
from .errors import ConfigError, NonFiniteError, ValidationError
from .nnet import NetConfig, VelocityField
from .schedules import NOISE_SCHEDULES, step_coeffs

METHODS = ("ode-am", "sde-am", "draft", "refl")

METRICS_COLUMNS = ("iter", "loss", "reward_mean", "reward_std")
TIMING_COLUMNS = ("iter", "phase_sim_ms", "phase_adj_ms", "phase_upd_ms")


@dataclass(frozen=True)
class TrainConfig:
    """Every training setting with its default; construction checks them all."""

    method: str = "ode-am"
    n_steps: int = 50
    n_truncate: int = 10
    batch: int = 64
    iterations: int = 300
    lr: float = 1e-4
    warmup: int = 10
    grad_clip: float = 1.0
    reg_p: float = 2.0
    reg_lam: float = 1.0
    noise: str = "memoryless"
    seed: int = 0
    k_window: int = 1

    def __post_init__(self):
        v = []
        if self.method not in METHODS:
            v.append(f"method must be one of {METHODS}, got {self.method!r}")
        if not 1 <= self.n_truncate <= self.n_steps:
            v.append(f"n_truncate must satisfy 1 <= n_truncate <= n_steps, got "
                     f"n_truncate={self.n_truncate} n_steps={self.n_steps}")
        if self.method in ("draft", "refl") and not 1 <= self.k_window <= self.n_steps:
            v.append(f"k_window must satisfy 1 <= k_window <= n_steps for "
                     f"{self.method}, got k_window={self.k_window}")
        if self.method == "sde-am" and self.reg_p != 2.0:
            v.append("stochastic matching (sde-am) requires p = 2")
        try:
            self.regularizer
        except ValidationError as e:
            v += e.violations
        if not self.lr > 0.0:
            v.append(f"lr must be > 0, got {self.lr}")
        if self.batch < 1:
            v.append(f"batch must be >= 1, got {self.batch}")
        for key in ("iterations", "warmup", "grad_clip", "seed"):
            if not getattr(self, key) >= 0:
                v.append(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.noise not in NOISE_SCHEDULES:
            v.append(f"noise must be one of {tuple(NOISE_SCHEDULES)}, "
                     f"got {self.noise!r}")
        ValidationError.check(v)

    @property
    def regularizer(self) -> RegularizerSpec:
        return RegularizerSpec(p=self.reg_p, lam=self.reg_lam)


# Adam's moment decay rates and the floor of its denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.99
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def init(cls, n_params: int) -> "OptimizerState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params))


def warmup_lr(lr: float, warmup: int, iteration: int) -> float:
    """Linear ramp over the first `warmup` iterations, constant afterwards."""
    if warmup <= 0:
        return lr
    return lr * min(1.0, (iteration + 1) / warmup)


def optimizer_step(
    opt: OptimizerState,
    params: np.ndarray,
    grads: np.ndarray,
    clip: float,
    lr: float,
) -> np.ndarray:
    """Global-norm clip followed by a bias-corrected Adam update.

    Only the gradient is checked for finiteness here; the caller's
    ``VelocityField.set_params_flat`` checks the parameters it adopts.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.shape:
        raise ConfigError(f"grad shape {grads.shape} != param shape {params.shape}")
    if not np.all(np.isfinite(grads)):
        raise NonFiniteError("non-finite gradient")
    norm = float(np.linalg.norm(grads))
    if clip > 0.0 and norm > clip:
        grads = grads * (clip / norm)
    opt.step += 1
    opt.m = ADAM_BETA1 * opt.m + (1.0 - ADAM_BETA1) * grads
    opt.v = ADAM_BETA2 * opt.v + (1.0 - ADAM_BETA2) * grads * grads
    mhat = opt.m / (1.0 - ADAM_BETA1**opt.step)
    vhat = opt.v / (1.0 - ADAM_BETA2**opt.step)
    return params - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def _iteration_seed(base_seed: int, iteration: int) -> int:
    return int(np.random.SeedSequence([base_seed, iteration]).generate_state(1)[0])


def pretrain(cfg: TrainConfig, dist, net_cfg: NetConfig):
    """Flow-matching pretraining; returns (Checkpoint, metrics rows).

    Each iteration draws (X_0 ~ N(0, I), X_1 ~ data, t ~ U[0, 1]) and
    regresses v(xbar_t, t) onto X_1 - X_0, with xbar_t = (1 - t) X_0 + t X_1.
    """
    vf = VelocityField.init(net_cfg, seed=cfg.seed)
    opt = OptimizerState.init(vf.n_params)
    params = vf.params_flat()
    rows = []
    for it in range(cfg.iterations):
        rng = sample_seed(cfg.seed, it)
        x0 = rng.standard_normal((cfg.batch, net_cfg.state_dim))
        x1 = dist.sample(cfg.batch, rng)
        t = rng.uniform(0.0, 1.0, size=cfg.batch)
        xbar = (1.0 - t)[:, None] * x0 + t[:, None] * x1
        target = x1 - x0
        try:
            out, tape = vf.forward_tape(xbar, t)
            resid = out - target
            loss = float(np.mean(np.sum(resid * resid, axis=1)))
            grads, _ = tape.backward(2.0 * resid / cfg.batch)
            params = optimizer_step(
                opt, params, grads, cfg.grad_clip,
                warmup_lr(cfg.lr, cfg.warmup, it),
            )
            vf.set_params_flat(params)
        except NonFiniteError as e:
            raise NonFiniteError(f"pretraining aborted at iteration {it}: {e}") from e
        rows.append({"iter": it, "loss": loss, "reward_mean": 0.0, "reward_std": 0.0})
    return Checkpoint(vf=vf, seed=cfg.seed, iteration=cfg.iterations), rows


def finetune(cfg: TrainConfig, base_ckpt: Checkpoint, reward):
    """Reward fine-tuning from a frozen base field.

    Returns (Checkpoint, metrics rows, timing rows).  The sampler follows
    the method: the stochastic matcher simulates the noise-corrected SDE,
    everything else the deterministic flow.
    """
    base = base_ckpt.vf
    vf = base.copy()
    opt = OptimizerState.init(vf.n_params)
    params = vf.params_flat()
    reg = cfg.regularizer
    # one SDE table per run, read by the sampler, the adjoint and the loss
    coeffs = None
    if cfg.method == "sde-am":
        coeffs = step_coeffs(NOISE_SCHEDULES[cfg.noise], cfg.n_steps)
    # base velocities on the window, filled by the adjoint, read by the loss
    v_base = np.empty((cfg.n_truncate, cfg.batch, base.state_dim))
    rows, timings = [], []
    for it in range(cfg.iterations):
        it_seed = _iteration_seed(cfg.seed, it)
        phase = "sim"  # the timings.csv phase an abort names
        try:
            t0 = time.perf_counter()
            trajs = sample_batch(vf, cfg.n_steps, cfg.batch, it_seed, coeffs)
            times = trajs[0].times
            states = np.stack([tr.states for tr in trajs], axis=1)  # (N+1, m, dim)
            x1 = states[-1]
            rewards = reward.value(x1)
            t1 = time.perf_counter()

            phase = "adj"
            if cfg.method in ("ode-am", "sde-am"):
                _, adjoints = lean_adjoint_batch(
                    base, times, states, -reward.grad(x1), cfg.n_truncate, coeffs,
                    v_base,
                )
            t2 = time.perf_counter()

            phase = "upd"
            if cfg.method == "ode-am":
                loss, grads = am_det_loss_and_grad(
                    vf, v_base, times, states, adjoints, reg
                )
            elif cfg.method == "sde-am":
                loss, grads = am_sde_loss_and_grad(
                    vf, v_base, coeffs, times, states, adjoints, reg
                )
            elif cfg.method == "draft":
                loss, grads = draft_loss_and_grad(
                    vf, times, states, reward, cfg.k_window
                )
            else:
                rng = sample_seed(it_seed, cfg.batch)  # off the sample streams
                loss, grads = refl_loss_and_grad(
                    vf, times, states, reward, cfg.k_window, rng
                )
            params = optimizer_step(
                opt, params, grads, cfg.grad_clip,
                warmup_lr(cfg.lr, cfg.warmup, it),
            )
            vf.set_params_flat(params)
            t3 = time.perf_counter()
        except NonFiniteError as e:
            raise NonFiniteError(
                f"fine-tuning aborted at iteration {it} ({phase}): {e}"
            ) from e

        rows.append(
            {
                "iter": it,
                "loss": loss,
                "reward_mean": float(np.mean(rewards)),
                "reward_std": float(np.std(rewards)),
            }
        )
        timings.append(
            {
                "iter": it,
                "phase_sim_ms": (t1 - t0) * 1e3,
                "phase_adj_ms": (t2 - t1) * 1e3,
                "phase_upd_ms": (t3 - t2) * 1e3,
            }
        )
    return Checkpoint(vf=vf, seed=cfg.seed, iteration=cfg.iterations), rows, timings


def write_csv(rows, columns, path: str) -> None:
    """Plain CSV with shortest round-trip float formatting (deterministic)."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(
            ",".join(
                repr(row[c]) if isinstance(row[c], float) else str(row[c])
                for c in columns
            )
        )
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
