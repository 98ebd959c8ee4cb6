"""Alignment-vs-diversity sweep on the bimodal 2D task.

Pretrains a two-mode base model, fine-tunes it with every method against a
single-mode quadratic reward, and tabulates reward against kNN coverage of
the base distribution:

    python3 scripts/tradeoff_sweep.py --outdir out/tradeoff --seeds 0 1 2
"""

import argparse
import os

import numpy as np

from flowam import checkpoint as ckpt_io
from flowam.errors import FlowError
from flowam.evaluation import evaluate
from flowam.nnet import NetConfig
from flowam.tasks import GaussianMixture2D, QuadraticWell
from flowam.train import TrainConfig, finetune, pretrain, write_csv

# (name, method, p, lam, k_window); ReFL's window is the AM methods' T = 10,
# since with k_window = 1 it always picks step N - 1 and repeats DRaFT-1
VARIANTS = (
    ("ode-am_p2", "ode-am", 2.0, 0.5, 1),
    ("ode-am_p6", "ode-am", 6.0, 1.0, 1),
    ("sde-am_p2", "sde-am", 2.0, 0.5, 1),
    ("draft-1", "draft", 2.0, 1.0, 1),
    ("refl-10", "refl", 2.0, 1.0, 10),
)
KNN_K = 5  # coverage counts the reference points within k-NN balls


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/tradeoff")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--iterations", type=int, default=300)
    ap.add_argument("--pretrain-iters", type=int, default=20000)
    ap.add_argument("--n-eval", type=int, default=1000)
    args = ap.parse_args()
    if args.n_eval < KNN_K + 1:
        ap.error(f"--n-eval must be > {KNN_K}, got {args.n_eval}")

    try:  # every run is checked before the pretraining starts
        pre_cfg = TrainConfig(
            method="ode-am", n_steps=50, n_truncate=1, batch=512,
            iterations=args.pretrain_iters, lr=3e-4, warmup=200, grad_clip=10.0,
            seed=1,
        )
        runs = [
            (name, [TrainConfig(
                method=method, n_steps=50, n_truncate=10, batch=64,
                iterations=args.iterations, lr=3e-4, warmup=10, grad_clip=1.0,
                reg_p=p, reg_lam=lam, noise="memoryless", seed=seed, k_window=k,
            ) for seed in args.seeds])
            for name, method, p, lam, k in VARIANTS
        ]
    except FlowError as e:
        ap.error(str(e))
    net = NetConfig(state_dim=2, hidden=(64, 64, 64))
    base, _ = pretrain(pre_cfg, GaussianMixture2D.two_modes(), net)
    ckpt_io.save(base, os.path.join(args.outdir, "base.bin"))

    reward = QuadraticWell(center=np.array([2.0, 0.0]), curvature=1.0)

    def report(ckpt):
        # the model at seed 777 against the base at seed 778
        return evaluate(ckpt, base, reward, n_samples=args.n_eval, n_steps=50,
                        seed=777, k=KNN_K)

    base_report = report(base)
    print(f"base: reward {base_report.reward_mean:.3f}, "
          f"mpd {base_report.diversity_mpd:.3f}")

    rows = []
    for name, cfgs in runs:
        reports = [report(finetune(cfg, base, reward)[0]) for cfg in cfgs]
        rewards = [r.reward_mean for r in reports]
        row = {
            "variant": name,
            "reward_mean": float(np.mean(rewards)),
            "reward_sem": float(np.std(rewards) / np.sqrt(len(rewards))),
            "coverage": float(np.mean([r.coverage for r in reports])),
            "diversity_mpd": float(np.mean([r.diversity_mpd for r in reports])),
        }
        rows.append(row)
        print(f"{name}: reward {row['reward_mean']:.3f} "
              f"+- {row['reward_sem']:.3f}, coverage {row['coverage']:.3f}, "
              f"mpd {row['diversity_mpd']:.3f}")
    write_csv(
        rows,
        ("variant", "reward_mean", "reward_sem", "coverage", "diversity_mpd"),
        os.path.join(args.outdir, "sweep.csv"),
    )


if __name__ == "__main__":
    main()
