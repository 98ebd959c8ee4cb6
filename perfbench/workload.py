"""One benchmark workload in one process: set-up, timed phase, checks.

Run by `run.py`, which fixes the BLAS thread count in this process's
environment before numpy loads.  Prints one JSON line on stdout.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --run-dir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import flowam  # noqa: E402

if not os.path.abspath(flowam.__file__).startswith(SRC + os.sep):
    sys.exit(f"flowam was imported from {flowam.__file__}, not from {SRC}")

from flowam import adjoint, checkpoint, config, dynamics, evaluation, nnet, train  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
from tracer import Tracer, patch_everywhere, restore  # noqa: E402

# Every workload's set-up pretrains a base on the two-mode mixture.
NET = {
    "data": "gm2", "state_dim": 2, "hidden": "64,64,64", "activation": "silu",
    "time_features": 8, "mode_offset": 2.0, "mode_std": 0.5,
}
BASE = dict(NET, batch=512, iterations=100, lr=2e-3, warmup=5)
TUNE = dict(
    NET, noise="memoryless", n_steps=50, batch=64, warmup=1, reward="quadwell",
    reward_center="2.0,0.0", reward_curvature=1.0,
    n_eval=2000, eval_steps=50, knn_k=5,
)

# Each timed call runs `per_call` units: optimizer iterations, or one
# evaluate call.  Fine-tuning checks run `check_iterations` iterations.
# Between calls the core's speed is read `ref_rounds` times (default 1)
# with the `ref_kernels` of `Reference` (default the small ones).
WORKLOADS = {
    "pretrain": dict(kind="pretrain", config=dict(BASE, iterations=30), per_call=30),
    "tune-ode-am-T50": dict(
        kind="tune", per_call=2, check_iterations=12,
        config=dict(TUNE, method="ode-am", n_truncate=50, iterations=2, lr=1e-3),
    ),
    "tune-sde-am-T1": dict(
        kind="tune", per_call=8, check_iterations=30,
        config=dict(TUNE, method="sde-am", n_truncate=1, iterations=8, lr=1e-3),
    ),
    # the checkpoint under evaluation: 10 ode-am iterations from the base.
    # Its calls last over half a second and work on n x n matrices far
    # beyond the caches, so the core's speed is read three times and with
    # the large kernels too.
    "eval-n2000": dict(
        kind="eval", per_call=1, ref_rounds=3,
        ref_kernels=("mlp256", "mlp64", "seeding", "python", "distances",
                     "distances_large", "sort_large"),
        config=dict(TUNE, method="ode-am", n_truncate=10, iterations=10, lr=1e-3),
    ),
}


def write_config(run_dir, name, values):
    path = os.path.join(run_dir, name + ".cfg")
    with open(path, "w") as f:
        f.write("".join(f"{key} = {val}\n" for key, val in values.items()))
    return config.parse_config(path)


def capture(owner, attr, store):
    """Record (args, kwargs, result) of every call to `owner.attr`."""
    def make(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            store.append((args, kwargs, result))
            return result
        return wrapper
    return patch_everywhere(owner, attr, make)


def csv_bytes(rows, columns, path):
    """The bytes the program writes for these rows."""
    train.write_csv(rows, columns, path)
    with open(path, "rb") as f:
        return f.read()


class Workload:
    """Set-up state and the one call each timed repeat makes."""

    def __init__(self, name, seed, run_dir):
        self.name, self.seed, self.run_dir = name, seed, run_dir
        self.spec = WORKLOADS[name]
        self.kind, self.per_call = self.spec["kind"], self.spec["per_call"]

    # -- set-up: configs, base checkpoint (and tuned one for eval) ------------

    def setup(self):
        base_cfg = write_config(self.run_dir, "base", dict(BASE, seed=self.seed))
        built, _ = train.pretrain(base_cfg.train, config.make_distribution(base_cfg),
                                  base_cfg.net)
        path = os.path.join(self.run_dir, "base.ckpt")
        checkpoint.save(built, path)
        self.base = checkpoint.load(path)
        self.setup_checks = [(
            "setup.checkpoint_roundtrip",
            self.base.vf.params_flat().tobytes() == built.vf.params_flat().tobytes(),
            "",
        )]
        self.cfg = write_config(self.run_dir, self.kind, dict(
            self.spec["config"], seed=self.seed + 1, eval_seed=self.seed + 2))
        if self.kind == "pretrain":
            self.dist = config.make_distribution(self.cfg)
            return
        self.reward = config.make_reward(self.cfg)
        if self.kind == "eval":
            tuned, _, _ = train.finetune(self.cfg.train, self.base, self.reward)
            path = os.path.join(self.run_dir, "tuned.ckpt")
            checkpoint.save(tuned, path)
            self.tuned = checkpoint.load(path)

    # -- one timed call ------------------------------------------------------

    def call(self):
        """Run the call; returns (metrics rows, program timing rows)."""
        if self.kind == "pretrain":
            _, rows = train.pretrain(self.cfg.train, self.dist, self.cfg.net)
            return rows, None
        if self.kind == "tune":
            _, rows, timings = train.finetune(self.cfg.train, self.base, self.reward)
            return rows, timings
        report = evaluation.evaluate(
            self.tuned, self.base, self.reward, n_samples=self.cfg["n_eval"],
            n_steps=self.cfg["eval_steps"], seed=self.cfg["eval_seed"],
            k=self.cfg["knn_k"],
        )
        return [report.as_row()], None

    def row_bytes(self, rows):
        columns = evaluation.EVAL_COLUMNS if self.kind == "eval" else train.METRICS_COLUMNS
        return csv_bytes(rows, columns, os.path.join(self.run_dir, "rows.csv"))

    @property
    def samples_per_call(self):
        if self.kind == "eval":
            return self.cfg["n_eval"]
        return self.cfg["batch"] * self.per_call

    # -- checks made apart from the program ------------------------------------

    def checks(self, rows):
        out = list(self.setup_checks)
        if self.kind == "pretrain":
            out += self._pretrain_checks(rows)
        elif self.kind == "tune":
            out += self._tune_checks(rows)
        else:
            out += self._eval_checks(rows)
        return out

    def _pretrain_checks(self, rows):
        loss = [r["loss"] for r in rows]
        q = len(loss) // 5
        falls = np.mean(loss[-q:]) < 0.9 * np.mean(loss[:q])
        out = [("pretrain.loss_falls", bool(falls),
                f"{np.mean(loss[:q]):.4f} -> {np.mean(loss[-q:]):.4f}")]
        steps, tapes = [], []
        undo = capture(train, "optimizer_step", steps)
        undo += capture(nnet.VelocityField, "forward_tape", tapes)
        try:
            train.pretrain(replace(self.cfg.train, iterations=1), self.dist, self.cfg.net)
        finally:
            restore(undo)
        (_, params, grads, *_), _, _ = steps[0]
        (_, x, t), _, _ = tapes[0]
        batch_in = checks.pretrain_batch(self.cfg["seed"], self.cfg["batch"],
                                         self.cfg["mode_offset"], self.cfg["mode_std"])
        out += checks.pretrain_grad_check(
            params.copy(), grads.copy(), self.cfg.net.to_dict(), batch_in, (x, t), self.seed
        )
        return out

    def _tune_checks(self, rows):
        sampled, adjoints = [], []
        undo = capture(dynamics, "sample_batch", sampled)
        undo += capture(adjoint, "lean_adjoint_batch", adjoints)
        try:
            iterations = self.spec["check_iterations"]
            tuned, longer, _ = train.finetune(
                replace(self.cfg.train, iterations=iterations), self.base, self.reward)
        finally:
            restore(undo)
        out = [("tune.rows_prefix_repeat", longer[: len(rows)] == rows, "")]
        trajs = sampled[0][2]
        x0 = np.stack([tr.states[0] for tr in trajs])
        noises = None
        if self.cfg["method"] == "sde-am":
            noises = np.stack([tr.noises for tr in trajs], axis=1)
        n, center = self.cfg["n_steps"], np.asarray(self.cfg["reward_center"])
        out += checks.first_reward_check(self.base.vf, x0, noises, n, center,
                                         rows[0]["reward_mean"])
        _, adj = adjoints[0][2]
        out += checks.adjoint_fd_check(self.base.vf, x0, noises, n, center, adj)
        out += checks.reward_rise_check(self.base.vf, tuned.vf, n, center,
                                        noises is not None, self.seed)
        return out

    def _eval_checks(self, rows):
        sampled = []
        undo = capture(dynamics, "sample_batch", sampled)
        try:
            report = self.call()[0][0]
        finally:
            restore(undo)
        gen = ref = None
        for args, _, trajs in sampled:
            terminal = np.stack([tr.states[-1] for tr in trajs])
            if args[0] is self.tuned.vf:
                gen = terminal
            elif args[0] is self.base.vf:
                ref = terminal
        out = [("eval.row_repeats", report == rows[0], "")]
        out += checks.eval_report_check(
            report, gen, ref, np.asarray(self.cfg["reward_center"]), self.cfg["knn_k"],
            self.cfg["n_eval"], self.cfg["eval_seed"],
        )
        return out


class Reference:
    """Fixed numpy kernels timed next to every unit, to gauge the core's speed.

    The cores of a shared host change speed by up to 1.5x over seconds to
    minutes as neighbours come and go, and a unit's wall time moves with
    them.  So every unit's time is also scaled by the speed of the core
    around it: the mean, over a workload's kernels, of the kernel's time
    divided by its nominal time on the reference box.  The kernels cover the
    kinds of work flowam's units do: an MLP forward and backward pass at
    batch 256, MLP forwards at batch 64, per-sample RNG seeding, a plain
    Python loop and a 500-point distance matrix with a sort, all of which
    fit in the caches; and, for work that does not, the same at 1000 points
    and a sort of a 1000 x 1000 array.  They use no flowam code and
    no seed, and their inputs are fresh copies on every timing, so that one
    lucky or unlucky memory placement does not stick to a process.
    """

    # kernel -> its fastest time on the reference box (2-core shared x86_64,
    # OpenBLAS with one thread; see README.md), so 1 means uncontended
    NOMINAL = {"mlp256": 2.0e-3, "mlp64": 2.0e-3, "seeding": 1.8e-3,
               "python": 2.3e-3, "distances": 3.3e-3,
               "distances_large": 12.5e-3, "sort_large": 7.7e-3}
    SMALL = ("mlp256", "mlp64", "seeding", "python", "distances")

    def __init__(self):
        rng = np.random.default_rng(0)
        dims = (10, 64, 64, 64, 2)
        self.w = [rng.standard_normal((a, b)) / np.sqrt(a) for a, b in zip(dims, dims[1:])]
        self.x256 = rng.standard_normal((256, dims[0]))
        self.x64 = rng.standard_normal((64, dims[0]))
        self.points = rng.standard_normal((1000, 2))
        self.matrix = rng.standard_normal((1000, 1000))

    def _mlp256(self):
        for _ in range(3):
            h, saved = self.x256.copy(), []
            for w in self.w[:-1]:
                z = h @ w
                s = 1.0 / (1.0 + np.exp(-z))
                saved.append((h, z, s))
                h = z * s
            g = (h @ self.w[-1]) @ self.w[-1].T
            for (h, z, s), w in zip(reversed(saved), reversed(self.w[:-1])):
                g = g * (s * (1.0 + z * (1.0 - s)))
                h.T @ g
                g = g @ w.T

    def _mlp64(self):
        x = self.x64.copy()
        for _ in range(40):
            h = x
            for w in self.w[:-1]:
                z = h @ w
                h = z / (1.0 + np.exp(-z))
            h @ self.w[-1]

    def _seeding(self):
        for i in range(128):
            rng = np.random.default_rng(np.random.SeedSequence([7, i]))
            rng.standard_normal(2)
            rng.standard_normal((50, 2))

    def _python(self):
        total = 0
        for i in range(40000):
            total += i * i

    def _distances(self, n=500):
        x = self.points[:n].copy()
        sq = np.sum(x * x, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * x @ x.T
        np.sort(np.sqrt(np.maximum(d2, 0.0)), axis=1)

    def _distances_large(self):
        self._distances(n=1000)

    def _sort_large(self):
        a = self.matrix.copy()
        np.sort(np.sqrt(np.maximum(a, 0.0)) + a, axis=1)

    def slowdown(self, kernels=SMALL, rounds=1):
        """Mean time / nominal time over `kernels`, 1 at nominal speed;
        the median of `rounds` readings."""
        readings = []
        for _ in range(rounds):
            total = 0.0
            for name in kernels:
                t0 = time.perf_counter()
                getattr(self, "_" + name)()
                total += (time.perf_counter() - t0) / self.NOMINAL[name]
            readings.append(total / len(kernels))
        return statistics.median(readings)


def timed_phase(wl, seconds, ref, tracer=None):
    """Repeat the call for `seconds`, timing the reference kernel between
    calls; with a tracer, alternate untraced and traced calls.

    Returns a dict of per-call wall and reference-speed seconds (untraced
    and traced), the first call's rows, every call's row bytes and the
    program's timing rows of the untraced calls."""
    out = {"plain": [], "plain_ref": [], "traced": [], "traced_ref": [],
           "bytes": [], "timings": [], "rows": None}
    kernels = wl.spec.get("ref_kernels", Reference.SMALL)
    rounds = wl.spec.get("ref_rounds", 1)
    last_ref = ref.slowdown(kernels, rounds)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (tracer and not out["traced"]):
        on = tracer is not None and len(out["plain"]) > len(out["traced"])
        if on:
            tracer.install()
        t0 = time.perf_counter()
        rows, timing = wl.call()
        dt = time.perf_counter() - t0
        if on:
            tracer.uninstall()
            tracer.end_unit()
        else:
            out["timings"] += timing or []
        next_ref = ref.slowdown(kernels, rounds)
        kind = "traced" if on else "plain"
        out[kind].append(dt)
        out[kind + "_ref"].append(dt / (0.5 * (last_ref + next_ref)))
        last_ref = next_ref
        out["rows"] = out["rows"] or rows
        out["bytes"].append(wl.row_bytes(rows))
    return out


def host_block():
    """Where the numbers come from: cores, BLAS, threads, versions, load."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "FLOWCTL_THREADS")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def p10(values):
    return statistics.quantiles(values, n=10)[0] if len(values) > 1 else values[0]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = Workload(args.workload, args.seed, args.run_dir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl.setup()
    if tracer:
        tracer.uninstall()
        setup_layers = tracer.setup_self_ms()
        tracer.reset()
    out = {"setup_done": time.monotonic()}
    if args.setup_only:
        # peak memory of set-up and one call, before any reference kernel
        wl.call()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = Reference()
    out["setup_slowdown"] = ref.slowdown(
        wl.spec.get("ref_kernels", Reference.SMALL), rounds=3)
    if args.setup_only:
        print(json.dumps(out))
        return 0

    timed = timed_phase(wl, args.seconds, ref, tracer)

    first = timed["bytes"][0]
    results = [("repeat.bytes_identical", b == first, "") for b in timed["bytes"][1:]]
    results += wl.checks(timed["rows"])
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        if detail or not ok:
            print(f"check {'ok' if ok else 'FAILED'}: {name} {detail}", file=sys.stderr)
    n_plain, n_traced = len(timed["plain"]), len(timed["traced"])
    out.update(host=host_block(), units=(n_plain + n_traced) * wl.per_call,
               checks=len(results), failed=len(failed))

    def unit_ms(kind):
        return [1e3 * d / wl.per_call for d in timed[kind]]

    if tracer:
        layers = tracer.per_unit(n_traced * wl.per_call)
        layers.update(setup_layers)
        for phase in ("sim", "adj", "upd"):
            vals = [r[f"phase_{phase}_ms"] for r in timed["timings"]]
            layers[f"train.phase_{phase}_ms"] = statistics.median(vals) if vals else 0.0
        layers["trace.overhead_ms"] = statistics.median(
            unit_ms("traced_ref")) - statistics.median(unit_ms("plain_ref"))
        out["metrics"] = layers
    else:
        def end_to_end(kind):
            ms = unit_ms(kind)
            return {
                "samples_per_s": wl.samples_per_call * n_plain / sum(timed[kind]),
                "iter_ms_p50": statistics.median(ms),
                "iter_ms_p10": p10(ms),
            }

        out["metrics"] = end_to_end("plain_ref")
        out["wall"] = end_to_end("plain")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
