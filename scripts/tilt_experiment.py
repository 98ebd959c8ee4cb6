"""Reproduce the exponential-tilt sanity experiment end to end.

Pretrains a 1D standard-normal flow, fine-tunes it with the stochastic
matcher under a quadratic reward centered at 2, and compares the terminal
SDE samples against the exact tilted law N(1, 0.5):

    python3 scripts/tilt_experiment.py --outdir out/tilt
"""

import argparse
import os

import numpy as np

from flowam import checkpoint as ckpt_io
from flowam.dynamics import sample_batch
from flowam.errors import FlowError
from flowam.evaluation import wasserstein1_1d
from flowam.nnet import NetConfig
from flowam.oracles import tilted_gaussian
from flowam.schedules import NOISE_SCHEDULES, step_coeffs
from flowam.tasks import Gaussian1D, QuadraticWell
from flowam.train import METRICS_COLUMNS, TrainConfig, finetune, pretrain, write_csv


def terminal(vf, n, n_steps, seed, stochastic=False):
    coeffs = step_coeffs(NOISE_SCHEDULES["memoryless"], n_steps) if stochastic else None
    trajs = sample_batch(vf, n_steps, n, seed, coeffs=coeffs)
    return np.stack([t.states[-1] for t in trajs])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/tilt")
    ap.add_argument("--pretrain-iters", type=int, default=20000)
    ap.add_argument("--finetune-iters", type=int, default=600)
    ap.add_argument("--n-samples", type=int, default=100000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.n_samples < 1:
        ap.error(f"--n-samples must be >= 1, got {args.n_samples}")

    try:  # both runs are checked before the pretraining starts
        pre_cfg = TrainConfig(
            method="ode-am", n_steps=50, n_truncate=1, batch=512,
            iterations=args.pretrain_iters, lr=3e-4, warmup=200, grad_clip=10.0,
            seed=args.seed,
        )
        ft_cfg = TrainConfig(
            method="sde-am", n_steps=50, n_truncate=50, batch=128,
            iterations=args.finetune_iters, lr=3e-4, warmup=10, grad_clip=1.0,
            reg_p=2.0, reg_lam=1.0, noise="memoryless", seed=0,
        )
    except FlowError as e:
        ap.error(str(e))
    net = NetConfig(state_dim=1, hidden=(64, 64, 64))
    base, _ = pretrain(pre_cfg, Gaussian1D(0.0, 1.0), net)
    ckpt_io.save(base, os.path.join(args.outdir, "base.bin"))

    ref = np.random.default_rng(123).standard_normal(args.n_samples)
    w1_base = wasserstein1_1d(terminal(base.vf, args.n_samples, 50, 90), ref)
    print(f"pretrained base: W1 to N(0,1) = {w1_base:.4f}")

    reward = QuadraticWell(center=np.array([2.0]), curvature=1.0)
    tuned, rows, _ = finetune(ft_cfg, base, reward)
    ckpt_io.save(tuned, os.path.join(args.outdir, "tuned.bin"))
    write_csv(rows, METRICS_COLUMNS, os.path.join(args.outdir, "metrics.csv"))

    gen = terminal(tuned.vf, args.n_samples, 50, 91, stochastic=True)
    mean, var = tilted_gaussian(1.0, 2.0)
    target = mean + np.sqrt(var) * np.random.default_rng(123).standard_normal(
        args.n_samples
    )
    w1 = wasserstein1_1d(gen, target)
    print(f"tuned samples: mean {gen.mean():.4f} (target {mean}), "
          f"var {gen.var():.4f} (target {var}), W1 = {w1:.4f}")


if __name__ == "__main__":
    main()
