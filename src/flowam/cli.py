"""flowctl command line: pretrain / finetune / eval / plot-data.

Exit codes: 0 success, 1 usage or validation failure, 2 numerical abort.
All artifacts are written atomically (temp file + rename) under the run's
output directory; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import checkpoint as ckpt_io
from .config import (
    TOOL_VERSION,
    RunConfig,
    make_distribution,
    make_reward,
    read_kv_file,
    resolve,
)
from .dynamics import sample_batch
from .errors import ConfigError, FlowError, NonFiniteError, ParseError, ValidationError
from .evaluation import EVAL_COLUMNS, evaluate
from .train import METRICS_COLUMNS, TIMING_COLUMNS, finetune, pretrain, write_csv


def _load_checkpoints(cfg: RunConfig, *paths):
    """Load each checkpoint and check its architecture against the config."""
    out = []
    for path in paths:
        ckpt = ckpt_io.load(path)
        have, want = ckpt.vf.cfg.to_dict(), cfg.net.to_dict()
        diff = [k for k in want if have[k] != want[k]]
        if diff:
            raise ConfigError(f"checkpoint {path} has " + ", ".join(
                f"{k} {have[k]} where the config has {want[k]}" for k in diff))
        out.append(ckpt)
    return out


def _load_run(args) -> RunConfig:
    """The run's config, with ``--outdir`` applied before the hash is taken."""
    raw = read_kv_file(args.config)
    if args.outdir:
        raw["outdir"] = (0, args.outdir)
    cfg = resolve(raw)
    os.makedirs(cfg["outdir"], exist_ok=True)  # fail before the run, not after
    return cfg


def _emit_run_files(cfg: RunConfig, rows, timings=None) -> None:
    outdir = cfg["outdir"]
    ckpt_io.atomic_write(
        os.path.join(outdir, "config.resolved"), cfg.resolved_text().encode("utf-8")
    )
    write_csv(rows, METRICS_COLUMNS, os.path.join(outdir, "metrics.csv"))
    if timings is not None:
        write_csv(timings, TIMING_COLUMNS, os.path.join(outdir, "timings.csv"))


def cmd_pretrain(args) -> int:
    cfg = _load_run(args)
    dist = make_distribution(cfg)
    ckpt, rows = pretrain(cfg.train, dist, cfg.net)
    _emit_run_files(cfg, rows)
    ckpt_io.save(ckpt, os.path.join(cfg["outdir"], "ckpt_pretrain.bin"))
    print(f"pretrained {ckpt.vf.n_params} params over {cfg['iterations']} "
          f"iterations -> {cfg['outdir']}")
    return 0


def cmd_finetune(args) -> int:
    cfg = _load_run(args)
    (base,) = _load_checkpoints(cfg, args.base)
    reward = make_reward(cfg)
    ckpt, rows, timings = finetune(cfg.train, base, reward)
    _emit_run_files(cfg, rows, timings)
    ckpt_io.save(ckpt, os.path.join(cfg["outdir"], "ckpt_finetune.bin"))
    final = f"; final reward_mean {rows[-1]['reward_mean']:.4f}" if rows else ""
    print(f"finetuned ({cfg['method']}) for {cfg['iterations']} iterations"
          f"{final} -> {cfg['outdir']}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_run(args)
    ckpt, base = _load_checkpoints(cfg, args.ckpt, args.base)
    reward = make_reward(cfg)
    report = evaluate(
        ckpt, base, reward,
        n_samples=cfg["n_eval"], n_steps=cfg["eval_steps"],
        seed=cfg["eval_seed"], k=cfg["knn_k"],
    )
    row = report.as_row()
    write_csv([row], EVAL_COLUMNS, os.path.join(cfg["outdir"], "eval.csv"))
    for key in EVAL_COLUMNS:
        print(f"{key}: {row[key]}")
    return 0


def cmd_plot_data(args) -> int:
    ckpt = ckpt_io.load(args.ckpt)
    trajs = sample_batch(ckpt.vf, args.steps, args.n, args.seed)
    cols = [f"x{i}" for i in range(ckpt.vf.state_dim)]
    rows = [{c: float(t.states[-1][i]) for i, c in enumerate(cols)} for t in trajs]
    write_csv(rows, cols, args.out)
    print(f"wrote {len(rows)} samples -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowctl",
        description="Flow-matching pretraining and reward fine-tuning toolkit.",
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="flow-matching pretraining run")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="reward fine-tuning from a base checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("eval", help="metrics for a checkpoint against its base")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("plot-data", help="dump terminal samples for plotting")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return args.fn(args)
    except ValidationError as e:
        for violation in e.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 1
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NonFiniteError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 2
    except FlowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
