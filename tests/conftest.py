"""Shared fixtures.

The expensive pretrained checkpoints are session-scoped and only built when
a test actually requests them, so unit-test runs stay fast.
"""

import threading

import numpy as np
import pytest

from flowam import dynamics
from flowam.nnet import NetConfig
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


@pytest.fixture(scope="session")
def base1d_ckpt():
    """1D standard-normal base model (heavy; about 60 s)."""
    cfg = TrainConfig(**PRETRAIN_CFG)
    net = NetConfig(state_dim=1, hidden=(64, 64, 64))
    ckpt, _ = pretrain(cfg, Gaussian1D(0.0, 1.0), net)
    return ckpt


@pytest.fixture(scope="session")
def base2d_ckpt():
    """2D bimodal base model (heavy; about 60 s)."""
    cfg = TrainConfig(**PRETRAIN_CFG)
    net = NetConfig(state_dim=2, hidden=(64, 64, 64))
    ckpt, _ = pretrain(cfg, GaussianMixture2D.two_modes(), net)
    return ckpt


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
    """Three row-block workers, no pool yet, and a record of every thread
    started; a path that must stay on the calling thread leaves it empty
    and ``dynamics._pool`` None."""
    monkeypatch.setattr(dynamics, "WORKERS", 3)
    monkeypatch.setattr(dynamics, "_pool", None)
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started
