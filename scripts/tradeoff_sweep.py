"""Alignment-vs-diversity sweep on the bimodal 2D task.

Pretrains a two-mode base model, fine-tunes it with every method against a
single-mode quadratic reward, and tabulates reward against kNN coverage of
the base distribution:

    python3 scripts/tradeoff_sweep.py --outdir out/tradeoff --seeds 0 1 2
"""

import argparse
import itertools
import os

import numpy as np

import grid
from flowam.train import write_csv

# config keys beyond flowctl's defaults; the fields in braces come from the flags
SHARED = "data = gm2\nstate_dim = 2\nhidden = 64,64,64\n"
BASE = ("batch = 512\nlr = 3e-4\nwarmup = 200\ngrad_clip = 10.0\nseed = 1\n"
        "iterations = {pretrain_iters}\n")
TUNE = ("n_truncate = 10\nbatch = 64\nlr = 3e-4\nreward_center = 2.0,0.0\nseed = {seed}\n"
        "iterations = {iterations}\nn_eval = {n_eval}\neval_seed = 777\nknn_k = 5\n")
# variant -> its keys.  ReFL's window is the AM methods' T = 10, since with
# k_window = 1 it always picks step N - 1 and repeats DRaFT-1
VARIANTS = {
    "ode-am_p2": "method = ode-am\np = 2.0\nlam = 0.5\n",
    "ode-am_p6": "method = ode-am\np = 6.0\nlam = 1.0\n",
    "sde-am_p2": "method = sde-am\np = 2.0\nlam = 0.5\n",
    "draft-1": "method = draft\nlam = 1.0\nk_window = 1\n",
    "refl-10": "method = refl\nlam = 1.0\nk_window = 10\n",
}
COLUMNS = ("variant", "reward_mean", "reward_sem", "coverage", "diversity_mpd")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/tradeoff")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--iterations", type=int, default=300)
    ap.add_argument("--pretrain-iters", type=int, default=20000)
    ap.add_argument("--n-eval", type=int, default=1000)
    args = ap.parse_args()
    base, cells = grid.prepare(ap, args.outdir, SHARED, BASE.format(**vars(args)), {
        (name, seed): keys + TUNE.format(seed=seed, **vars(args))
        for name, keys in VARIANTS.items() for seed in args.seeds})
    r = grid.report(next(iter(cells.values())), base, base)  # under the cells' keys
    print(f"base: reward {r.reward_mean:.3f}, mpd {r.diversity_mpd:.3f}")
    rows = []
    for name, runs in itertools.groupby(grid.tune(base, cells), lambda run: run[0][0]):
        reward, cover, mpd = zip(*[(r.reward_mean, r.coverage, r.diversity_mpd) for r in (
            grid.report(cfg, tuned, base) for _, cfg, tuned, _ in runs)])
        rows.append(dict(zip(COLUMNS, (
            name, float(np.mean(reward)), float(np.std(reward) / np.sqrt(len(reward))),
            float(np.mean(cover)), float(np.mean(mpd))))))
        print("{}: reward {:.3f} +- {:.3f}, coverage {:.3f}, mpd {:.3f}".format(
            *rows[-1].values()))
    write_csv(rows, COLUMNS, os.path.join(args.outdir, "sweep.csv"))


if __name__ == "__main__":
    main()
