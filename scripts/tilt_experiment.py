"""Reproduce the exponential-tilt sanity experiment end to end.

Pretrains a 1D standard-normal flow, fine-tunes it with the stochastic
matcher under a quadratic reward centered at 2, and compares the terminal
SDE samples against the exact tilted law N(1, 0.5):

    python3 scripts/tilt_experiment.py --outdir out/tilt
"""

import argparse
import os

import numpy as np

import grid
from flowam import checkpoint as ckpt_io
from flowam.evaluation import wasserstein1_1d
from flowam.oracles import tilted_gaussian
from flowam.train import METRICS_COLUMNS, write_csv

# config keys beyond flowctl's defaults; the fields in braces come from the flags
SHARED = "data = gauss1d\nstate_dim = 1\nhidden = 64,64,64\n"
BASE = ("batch = 512\nlr = 3e-4\nwarmup = 200\ngrad_clip = 10.0\nseed = {seed}\n"
        "iterations = {pretrain_iters}\n")
TUNE = ("method = sde-am\nn_truncate = 50\nbatch = 128\nlr = 3e-4\nnoise = memoryless\n"
        "reward = quadwell\nreward_center = 2.0\niterations = {finetune_iters}\n")


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
    base, cells = grid.prepare(ap, args.outdir, SHARED, BASE.format(**vars(args)),
                               {"tilt": TUNE.format(**vars(args))})
    ref = np.random.default_rng(123).standard_normal(args.n_samples)
    w1 = wasserstein1_1d(grid.terminal(base.vf, cells["tilt"], args.n_samples, 90), ref)
    print(f"pretrained base: W1 to N(0,1) = {w1:.4f}")
    for _, cfg, tuned, rows in grid.tune(base, cells):
        ckpt_io.save(tuned, os.path.join(args.outdir, "tuned.bin"))
        write_csv(rows, METRICS_COLUMNS, os.path.join(args.outdir, "metrics.csv"))
        gen = grid.terminal(tuned.vf, cfg, args.n_samples, 91, sde=True)
        mean, var = tilted_gaussian(1.0, 2.0)
        w1 = wasserstein1_1d(gen, mean + np.sqrt(var) * ref)
        print(f"tuned samples: mean {gen.mean():.4f} (target {mean}), "
              f"var {gen.var():.4f} (target {var}), W1 = {w1:.4f}")


if __name__ == "__main__":
    main()
