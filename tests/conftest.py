"""Shared fixtures.

The expensive pretrained checkpoints are session-scoped and only built when
a test actually requests them, so unit-test runs stay fast.  The two heavy
bases are built at once, each in a spawned child process with one BLAS
thread, so on two cores they take about as long as one.
"""

import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest

import flowam
from flowam import checkpoint, dynamics
from flowam.nnet import NetConfig, VelocityField
from flowam.tasks import Gaussian1D, GaussianMixture2D
from flowam.train import TrainConfig, pretrain

PRETRAIN_CFG = dict(
    method="ode-am",
    n_steps=50,
    n_truncate=1,
    batch=512,
    iterations=20000,
    lr=3e-4,
    warmup=200,
    grad_clip=10.0,
    seed=1,
)

# reads (TrainConfig, distribution, NetConfig, path) from stdin, pretrains
# and saves the checkpoint
_BUILD = """
import pickle, sys
from flowam import checkpoint
from flowam.train import pretrain
cfg, dist, net, path = pickle.load(sys.stdin.buffer)
checkpoint.save(pretrain(cfg, dist, net)[0], path)
"""
# a child forked or spawned with threaded BLAS would bring its BLAS threads
# onto the cores the other build runs on
_ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def spawn_pretrain(cfg, dist, net, path):
    """Start ``pretrain`` in a child process with one BLAS thread; the child
    saves the checkpoint at ``path`` and its stderr next to it.  Pretraining
    runs the same bits with any BLAS thread count."""
    src = os.path.dirname(os.path.dirname(flowam.__file__))
    env = {**os.environ, **_ONE_THREAD,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    with open(f"{path}.err", "wb") as err:
        child = subprocess.Popen([sys.executable, "-c", _BUILD], stdin=subprocess.PIPE,
                                 stderr=err, env=env)
    with child.stdin:
        pickle.dump((cfg, dist, net, str(path)), child.stdin)
    return child


def join_pretrain(child, path):
    """Wait for a ``spawn_pretrain`` child; load its checkpoint, or fail with
    the child's error text."""
    if child.wait() != 0:
        with open(f"{path}.err", encoding="utf-8", errors="replace") as err:
            pytest.fail(f"pretraining in a child process failed:\n{err.read()}", pytrace=False)
    return checkpoint.load(str(path))


@pytest.fixture(scope="session")
def heavy_bases(tmp_path_factory):
    """Both heavy bases (64x64x64, 20,000 iterations each), built in two
    children at once: about 60 s on two cores.  Both are joined before
    either is returned, so no build runs next to a timed test."""
    out = tmp_path_factory.mktemp("bases")
    cfg = TrainConfig(**PRETRAIN_CFG)
    recipes = {
        "1d": (Gaussian1D(0.0, 1.0), NetConfig(state_dim=1, hidden=(64, 64, 64))),
        "2d": (GaussianMixture2D.two_modes(), NetConfig(state_dim=2, hidden=(64, 64, 64))),
    }
    children = {k: spawn_pretrain(cfg, dist, net, out / k) for k, (dist, net) in recipes.items()}
    for child in children.values():
        child.wait()
    return {k: join_pretrain(child, out / k) for k, child in children.items()}


@pytest.fixture(scope="session")
def base1d_ckpt(heavy_bases):
    """1D standard-normal base model (heavy: see ``heavy_bases``)."""
    return heavy_bases["1d"]


@pytest.fixture(scope="session")
def base2d_ckpt(heavy_bases):
    """2D bimodal base model (heavy: see ``heavy_bases``)."""
    return heavy_bases["2d"]


@pytest.fixture
def pretrain_in_child(tmp_path):
    """``(cfg, dist, net) -> Checkpoint`` through ``spawn_pretrain`` and
    ``join_pretrain``."""
    def build(cfg, dist, net):
        return join_pretrain(spawn_pretrain(cfg, dist, net, tmp_path / "ckpt"), tmp_path / "ckpt")

    return build


@pytest.fixture(scope="session")
def tiny1d_ckpt():
    """Small, quickly trained 1D model for plumbing tests (~2s)."""
    cfg = TrainConfig(
        method="ode-am", n_steps=20, n_truncate=1, batch=128,
        iterations=1500, lr=1e-3, warmup=50, grad_clip=10.0, seed=3,
    )
    net = NetConfig(state_dim=1, hidden=(32, 32))
    ckpt, _ = pretrain(cfg, Gaussian1D(0.0, 1.0), net)
    return ckpt


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def thread_starts(monkeypatch):
    """Three row-block workers and a record of every thread started; a path
    that must stay on the calling thread leaves it empty."""
    monkeypatch.setattr(dynamics, "WORKERS", 3)
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


class _NaNVJPField(VelocityField):
    """A network whose input VJP is NaN for one sample at one time."""

    def input_vjp(self, x, t, w):
        v, vjp = super().input_vjp(x, t, w)
        if t == self.bad_time:
            vjp[self.bad_sample] = np.nan
        return v, vjp


@pytest.fixture
def nan_vjp_field():
    """``(cfg, seed, bad_time, bad_sample) -> VelocityField`` whose
    ``input_vjp`` gives NaN for row ``bad_sample`` at time ``bad_time``;
    its ``forward`` and ``copy`` are the plain network's."""
    def make(cfg, seed, bad_time, bad_sample):
        vf = _NaNVJPField(cfg, VelocityField.init(cfg, seed=seed).params)
        vf.bad_time, vf.bad_sample = bad_time, bad_sample
        return vf

    return make
