"""One loop for the experiment presets here.  A preset states its runs as
flowctl config text, which ``prepare`` resolves before anything trains.  The
base is cached in ``--outdir`` as ``base-<config_sha256>.bin``, named by its
resolved config's hash; a rerun loads it, and deleting the file retrains it.
"""

import os
import sys

import numpy as np

from flowam import checkpoint as ckpt_io
from flowam.config import make_distribution, make_reward, parse_config_text
from flowam.dynamics import sample_batch
from flowam.errors import FlowError, ValidationError
from flowam.evaluation import evaluate
from flowam.schedules import NOISE_SCHEDULES, step_coeffs
from flowam.train import finetune, pretrain


def prepare(ap, outdir, shared, base, cells):
    """The base, loaded or pretrained, and each cell's RunConfig by name."""
    cfgs, errors = {}, []
    for name, text in [(None, base), *cells.items()]:
        try:
            cfgs[name] = parse_config_text(shared + text)
        except ValidationError as e:
            errors += [f"{'base' if name is None else 'cells'}: {v}" for v in e.violations]
    if errors:
        ap.error("; ".join(dict.fromkeys(errors)))
    cfg = cfgs.pop(None)
    path = os.path.join(outdir, f"base-{cfg.config_sha256}.bin")
    if not (cached := os.path.exists(path)):
        ckpt_io.save(pretrain(cfg.train, make_distribution(cfg), cfg.net)[0], path)
    print(f"{'loaded the cached' if cached else 'pretrained the'} base {path}")
    try:  # a fresh base is read back too, so both runs tune the same bytes
        return ckpt_io.load(path), cfgs
    except (FlowError, OSError) as e:
        sys.exit(f"error: base {path} does not load; delete it to retrain: {e}")


def tune(base, cells):
    """(name, RunConfig, tuned checkpoint, metrics rows) per cell, in order."""
    for name, cfg in cells.items():
        tuned, rows, _ = finetune(cfg.train, base, make_reward(cfg))
        yield name, cfg, tuned, rows


def report(cfg, ckpt, base):
    """``ckpt`` against ``base`` as ``flowctl eval`` scores it under ``cfg``."""
    return evaluate(ckpt, base, make_reward(cfg), n_samples=cfg["n_eval"],
                    n_steps=cfg["eval_steps"], seed=cfg["eval_seed"], k=cfg["knn_k"])


def terminal(vf, cfg, n, seed, sde=False):
    """(n, dim) terminal states of ``vf``'s flow, or SDE, on ``cfg``'s grid."""
    coeffs = step_coeffs(NOISE_SCHEDULES[cfg["noise"]], cfg["n_steps"]) if sde else None
    trajs = sample_batch(vf, cfg["n_steps"], n, seed, coeffs)
    return np.stack([t.states[-1] for t in trajs])
