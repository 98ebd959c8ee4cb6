"""SHA-256 digests of the run outputs that reruns must repeat byte for byte.

Runs flowctl and the experiment presets, one process per command, at
reduced size:

* the README example config: pretrain, fine-tune, eval and plot-data;
* a ``gm2`` base (pretraining batch 512), tuned with ``ode-am`` T = 10 and
  T = 50, ``sde-am`` T = 1 and T = 50, ``draft`` and ``refl`` (batch 64),
  and with ``ode-am`` against the ``tilt`` reward and ``refl`` against an
  off-axis ``linear`` reward, each evaluated at n = 2000;
* the ``tilt_experiment.py`` and ``tradeoff_sweep.py`` presets, at the same
  iteration counts, with 500 tilt samples, two sweep seeds and n = 200.

The script imports ``flowam`` from the ``src/`` of its own checkout and
hands that tree to its flowctl children, whatever else is on the path.
Prints one ``sha256  path`` line per ``metrics.csv``, ``eval.csv``,
``sweep.csv``, checkpoint, ``config.resolved`` and samples file, with paths
relative to ``--outdir``; ``timings.csv`` holds wall-clock times and is left
out.  Two trees give the same lines if and only if their outputs have the
same bytes:

    python3 scripts/bytes_digest.py --outdir out/digest > digest.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import flowam  # noqa: E402

if not os.path.abspath(flowam.__file__).startswith(SRC + os.sep):
    sys.exit(f"flowam was imported from {flowam.__file__}, not from {SRC}")

README = os.path.join(ROOT, "README.md")


def readme_config():
    """The README's example config, with its iteration count left to the flags."""
    with open(README, encoding="utf-8") as f:
        block = f.read().split("Example config:\n\n```ini\n", 1)[1].split("```", 1)[0]
    return "".join(line for line in block.splitlines(keepends=True)
                   if not line.startswith("iterations"))


GM2_PRETRAIN = "batch = 512\nlr = 3e-4\nwarmup = 20\ngrad_clip = 10.0\nseed = 1\n"
GM2_TUNES = {  # run name -> config keys beyond the gm2 defaults
    "ode-am-T10": "method = ode-am\nn_truncate = 10\np = 6.0\n",
    "ode-am-T50": "method = ode-am\nn_truncate = 50\n",
    "sde-am-T1": "method = sde-am\nn_truncate = 1\n",
    "sde-am-T50": "method = sde-am\nn_truncate = 50\nnoise = one_minus_t\n",
    "draft": "method = draft\nk_window = 5\nreward = linear\n",
    "refl": "method = refl\nk_window = 10\n",
    "ode-am-tilt": "method = ode-am\nreward = tilt\n",
    "refl-linear": ("method = refl\nk_window = 10\nreward = linear\n"
                    "reward_direction = 0.6,-0.8\n"),
}
DIGESTED = ("metrics.csv", "eval.csv", "sweep.csv", "config.resolved", "samples.csv")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--outdir", default="out/digest")
    ap.add_argument("--pretrain-iters", type=int, default=300)
    ap.add_argument("--finetune-iters", type=int, default=30)
    args = ap.parse_args()
    for flag, value in (("--pretrain-iters", args.pretrain_iters),
                        ("--finetune-iters", args.finetune_iters)):
        if value < 0:
            ap.error(f"{flag} must be >= 0, got {value}")
    os.makedirs(args.outdir, exist_ok=True)
    # every path below is relative to the outdir, where flowctl runs, so
    # config.resolved records the same outdir whatever --outdir is
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

    def config(name, text, iterations):
        with open(os.path.join(args.outdir, name), "w", encoding="utf-8") as f:
            f.write(f"{text}iterations = {iterations}\n")
        return name

    def run(name, command, *argv):
        proc = subprocess.run([sys.executable, *command, *argv], cwd=args.outdir, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{name} {' '.join(argv)} failed:\n{proc.stderr}")

    def flowctl(*argv):
        run("flowctl", ("-m", "flowam.cli"), *argv)

    def preset(script, *argv):
        run(script, (os.path.join(ROOT, "scripts", script),), *argv)

    readme = readme_config()
    pre = config("readme_pretrain.cfg", readme, args.pretrain_iters)
    tune = config("readme_tune.cfg", readme, args.finetune_iters)
    flowctl("pretrain", "--config", pre, "--outdir", "readme/base")
    base = "readme/base/ckpt_pretrain.bin"
    flowctl("finetune", "--config", tune, "--base", base, "--outdir", "readme/tuned")
    tuned = "readme/tuned/ckpt_finetune.bin"
    flowctl("eval", "--config", tune, "--ckpt", tuned, "--base", base,
            "--outdir", "readme/tuned")
    flowctl("plot-data", "--ckpt", tuned, "--out", "readme/samples.csv")

    pre = config("gm2_pretrain.cfg", GM2_PRETRAIN, args.pretrain_iters)
    flowctl("pretrain", "--config", pre, "--outdir", "gm2/base")
    base = "gm2/base/ckpt_pretrain.bin"
    for name, text in GM2_TUNES.items():
        tune = config(f"gm2_{name}.cfg", text, args.finetune_iters)
        out = f"gm2/{name}"
        flowctl("finetune", "--config", tune, "--base", base, "--outdir", out)
        flowctl("eval", "--config", tune, "--ckpt", f"{out}/ckpt_finetune.bin",
                "--base", base, "--outdir", out)

    iters = ("--pretrain-iters", str(args.pretrain_iters))
    preset("tilt_experiment.py", "--outdir", "tilt", *iters,
           "--finetune-iters", str(args.finetune_iters), "--n-samples", "500")
    preset("tradeoff_sweep.py", "--outdir", "tradeoff", *iters,
           "--iterations", str(args.finetune_iters), "--seeds", "0", "1", "--n-eval", "200")

    for root, dirs, files in os.walk(args.outdir):
        dirs.sort()
        for name in sorted(files):
            if name in DIGESTED or name.endswith(".bin"):
                path = os.path.join(root, name)
                with open(path, "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
                print(f"{digest}  {os.path.relpath(path, args.outdir)}")


if __name__ == "__main__":
    main()
