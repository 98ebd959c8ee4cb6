"""The benchmark must keep running against the library.

``perfbench/tracer.py`` wraps library functions under every name a module
binds them to, and ``perfbench/workload.py`` captures what the sampler and
the adjoint return to check them against its own reference loops.
Removing or renaming one of those names, or changing the shape of what
they return, breaks only benchmark runs; these tests load the benchmark's
modules read-only and pin the names and shapes they rely on.  The
experiment scripts under ``scripts/`` are likewise run by nothing else, so
one test runs each of them at tiny sizes.
"""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from flowam import adjoint, checkpoint, dynamics, evaluation, nnet, schedules, tasks, train
from flowam.schedules import NOISE_SCHEDULES, step_coeffs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls():
    tracer = load_tracer_module().Tracer()
    originals = (dynamics.sample_batch, train.sample_batch,
                 nnet.VelocityField.forward, tasks.QuadraticWell.value)
    tracer.install()
    try:
        assert train.sample_batch is not originals[1]
        vf = nnet.VelocityField.init(nnet.NetConfig(state_dim=2, hidden=(4,)), seed=0)
        trajs = train.sample_batch(vf, 3, 5, 0)
        tasks.QuadraticWell(center=np.zeros(2)).value(
            np.stack([t.states[-1] for t in trajs])
        )
    finally:
        tracer.uninstall()
    assert (dynamics.sample_batch, train.sample_batch,
            nnet.VelocityField.forward, tasks.QuadraticWell.value) == originals
    assert tracer.calls["dynamics.sample_batch"] == 1
    assert tracer.calls["nnet.forward"] == 3
    assert tracer.calls["tasks.reward_value"] == 1


def small_base():
    net = nnet.NetConfig(state_dim=2, hidden=(6,), time_features=4)
    return checkpoint.Checkpoint(vf=nnet.VelocityField.init(net, seed=1), seed=1,
                                 iteration=0)


def test_sample_batch_returns_one_trajectory_per_sample():
    vf = small_base().vf
    runs = [({}, 0)] + [(dict(coeffs=step_coeffs(ns, 7)), 7)
                        for ns in NOISE_SCHEDULES.values()]
    for kw, noise_rows in runs:
        trajs = dynamics.sample_batch(vf, 7, 5, 3, **kw)
        assert isinstance(trajs, list) and len(trajs) == 5
        for tr in trajs:
            assert isinstance(tr, dynamics.Trajectory)
            assert tr.times.shape == (8,)
            assert tr.states.shape == (8, 2)
            assert tr.noises.shape == (noise_rows, 2)


def test_finetune_iteration_samples_and_adjoints_once_through_module_bindings():
    patch_everywhere, restore = (getattr(load_tracer_module(), name)
                                 for name in ("patch_everywhere", "restore"))
    seen = {"sample_batch": [], "lean_adjoint_batch": []}

    def recorder(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                seen[name].append(result)
                return result
            return wrapper
        return make

    # both matching methods keep the returns perfbench reads
    for method, noise_rows in (("ode-am", 0), ("sde-am", 6)):
        for calls in seen.values():
            calls.clear()
        undo = patch_everywhere(dynamics, "sample_batch", recorder("sample_batch"))
        undo += patch_everywhere(adjoint, "lean_adjoint_batch",
                                 recorder("lean_adjoint_batch"))
        cfg = train.TrainConfig(method=method, n_steps=6, n_truncate=3, batch=4,
                                iterations=1, lr=1e-3)
        try:
            train.finetune(cfg, small_base(),
                           tasks.QuadraticWell(center=np.array([1.0, 0.0])))
        finally:
            restore(undo)
        assert [len(v) for v in seen.values()] == [1, 1], method
        trajs = seen["sample_batch"][0]
        assert len(trajs) == 4
        assert all(isinstance(tr, dynamics.Trajectory) for tr in trajs)
        assert all(tr.noises.shape == (noise_rows, 2) for tr in trajs)
        window, adj = seen["lean_adjoint_batch"][0]
        assert window.shape == (3,)
        assert adj.shape == (3, 4, 2)


@pytest.mark.parametrize("method, builds", [("sde-am", 1), ("ode-am", 0),
                                             ("draft", 0), ("refl", 0)])
def test_finetune_builds_the_sde_table_once_per_run(method, builds):
    # the sampler, the adjoint and the loss all read the one table finetune built
    patch_everywhere, restore = (getattr(load_tracer_module(), name)
                                 for name in ("patch_everywhere", "restore"))
    cfg = train.TrainConfig(method=method, n_steps=6, n_truncate=3, batch=4,
                            iterations=4, lr=1e-3, k_window=2)
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    undo = patch_everywhere(schedules, "step_coeffs", counting)
    try:
        train.finetune(cfg, small_base(),
                       tasks.QuadraticWell(center=np.array([1.0, 0.0])))
    finally:
        restore(undo)
    assert len(calls) == builds, method


def test_eval_columns_are_the_report_row():
    ckpt = small_base()
    report = evaluation.evaluate(ckpt, ckpt, tasks.ConstantReward(), n_samples=8,
                                 n_steps=3, seed=0, k=2)
    assert tuple(report.as_row()) == tuple(evaluation.EVAL_COLUMNS)


SCRIPTS = {
    "tilt_experiment.py": (["--pretrain-iters", "20", "--finetune-iters", "3",
                            "--n-samples", "200"],
                           ["base.bin", "tuned.bin", "metrics.csv"]),
    "tradeoff_sweep.py": (["--seeds", "0", "--iterations", "2", "--pretrain-iters", "20",
                           "--n-eval", "50"],
                          ["base.bin", "sweep.csv"]),
    "oracle_curves.py": (["--points", "11"],
                         ["relative_strength.csv", "toy_control.csv"]),
}


def run_script(script, outdir, *args):
    src = os.path.join(ROOT, "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script),
         "--outdir", str(outdir), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs_at_tiny_size(script, tmp_path):
    args, outputs = SCRIPTS[script]
    proc = run_script(script, tmp_path, *args)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name


def assert_rejected_before_writing(script, outdir, *args):
    proc = run_script(script, outdir, *args)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("flag, value", [("--sigma", "-1"), ("--horizon", "nan"),
                                         ("--points", "-1")])
def test_oracle_curves_rejects_bad_input_before_writing(flag, value, tmp_path):
    assert_rejected_before_writing("oracle_curves.py", tmp_path, "--points", "11",
                                   flag, value)


@pytest.mark.parametrize("script, flag, value", [
    ("tradeoff_sweep.py", "--n-eval", "4"),
    ("tradeoff_sweep.py", "--iterations", "-1"),
    ("tradeoff_sweep.py", "--seeds", "-1"),
    ("tilt_experiment.py", "--n-samples", "0"),
    ("tilt_experiment.py", "--finetune-iters", "-1"),
    ("tilt_experiment.py", "--pretrain-iters", "-1"),
])
def test_training_scripts_reject_bad_input_before_pretraining(script, flag, value,
                                                              tmp_path):
    # the tiny-size arguments first, so a late failure still ends quickly
    assert_rejected_before_writing(script, tmp_path, *SCRIPTS[script][0], flag, value)
