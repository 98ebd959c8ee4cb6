"""Flat key=value run configuration: parsing, defaults, and validation.

One `key = value` pair per line; `#` starts a comment.  Unknown keys and
every violated cross-field constraint are collected and reported together,
not one at a time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .nnet import ACTIVATIONS, NetConfig
from .schedules import NOISE_SCHEDULES, SCHEDULES, sigma
from .tasks import (
    DISTRIBUTIONS,
    REWARDS,
    ConstantReward,
    Gaussian1D,
    GaussianMixture2D,
    LinearProbe,
    LogDensityTilt,
    QuadraticWell,
    ring8,
)
from .train import METHODS, TrainConfig

TOOL_VERSION = "0.1.0"

# key -> (parser, default).  Parsers: int, float, str, comma lists.


def _floats(s):
    return tuple(float(v) for v in str(s).split(",") if v != "")


def _ints(s):
    return tuple(int(v) for v in str(s).split(",") if v != "")


SCHEMA = {
    # training
    "method": (str, "ode-am"),
    "n_steps": (int, 50),
    "n_truncate": (int, 10),
    "batch": (int, 64),
    "iterations": (int, 300),
    "lr": (float, 1e-4),
    "warmup": (int, 10),
    "grad_clip": (float, 1.0),
    "p": (float, 2.0),
    "lam": (float, 1.0),
    "noise": (str, "memoryless"),
    "schedule": (str, "linear"),
    "seed": (int, 0),
    "k_window": (int, 1),
    "workers": (int, 1),
    # network
    "state_dim": (int, 2),
    "hidden": (_ints, (64, 64, 64)),
    "activation": (str, "silu"),
    "time_features": (int, 8),
    # data
    "data": (str, "gm2"),
    "data_mu": (float, 0.0),
    "data_sigma": (float, 1.0),
    "mode_offset": (float, 2.0),
    "mode_std": (float, 0.5),
    "ring_radius": (float, 3.0),
    "ring_std": (float, 0.3),
    # reward
    "reward": (str, "quadwell"),
    "reward_center": (_floats, (2.0, 0.0)),
    "reward_curvature": (float, 1.0),
    "reward_direction": (_floats, (1.0, 0.0)),
    # evaluation
    "n_eval": (int, 2000),
    "eval_steps": (int, 50),
    "eval_seed": (int, 12345),
    "knn_k": (int, 5),
    # output
    "outdir": (str, "out"),
}


@dataclass(frozen=True)
class RunConfig:
    values: dict
    train: TrainConfig
    net: NetConfig
    config_sha256: str
    tool_version: str = TOOL_VERSION

    def __getitem__(self, key):
        return self.values[key]

    def resolved_text(self) -> str:
        lines = [f"# tool_version = {self.tool_version}",
                 f"# config_sha256 = {self.config_sha256}"]
        for k in sorted(self.values):
            v = self.values[k]
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"{k} = {v}")
        return "\n".join(lines) + "\n"


def parse_kv_text(text: str) -> dict:
    """Raw key -> string value mapping; ParseError carries line numbers."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        if key in out:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        out[key] = (lineno, value)
    return out


def _validate(values: dict) -> list:
    v = []
    if values["method"] not in METHODS:
        v.append(f"method must be one of {METHODS}, got {values['method']!r}")
    if not 1 <= values["n_truncate"] <= values["n_steps"]:
        v.append(
            f"n_truncate must satisfy 1 <= n_truncate <= n_steps, got "
            f"n_truncate={values['n_truncate']} n_steps={values['n_steps']}"
        )
    if values["method"] == "sde-am" and values["p"] != 2.0:
        v.append("stochastic matching (sde-am) requires p = 2")
    if values["p"] <= 1.0:
        v.append(f"p must be > 1, got {values['p']}")
    if values["lam"] <= 0.0:
        v.append(f"lam must be > 0, got {values['lam']}")
    if values["lr"] <= 0.0:
        v.append(f"lr must be > 0, got {values['lr']}")
    if values["batch"] < 1:
        v.append(f"batch must be >= 1, got {values['batch']}")
    if values["schedule"] not in SCHEDULES:
        v.append(f"schedule must be one of {tuple(SCHEDULES)}")
    if values["noise"] not in NOISE_SCHEDULES:
        v.append(f"noise must be one of {tuple(NOISE_SCHEDULES)}")
    elif values["method"] == "sde-am" and values["schedule"] in SCHEDULES:
        # sigma must stay positive on the matching window (last n_truncate steps)
        sched = SCHEDULES[values["schedule"]]
        ns = NOISE_SCHEDULES[values["noise"]]
        n, t_count = values["n_steps"], values["n_truncate"]
        if 1 <= t_count <= n:
            h = 1.0 / n
            window = [max(min((n - j) * h, 1.0 - 1e-3), 1e-3)
                      for j in range(1, t_count + 1)]
            if any(sigma(ns, t, sched) <= 0.0 for t in window):
                v.append(
                    f"noise schedule {values['noise']!r} vanishes on the "
                    f"matching window; sde-am needs sigma > 0 there"
                )
    if values["activation"] not in ACTIVATIONS:
        v.append(
            f"activation must be one of {ACTIVATIONS}, got {values['activation']!r}"
        )
    if values["data"] not in DISTRIBUTIONS:
        v.append(f"data must be one of {tuple(DISTRIBUTIONS)}")
    else:
        dim = DISTRIBUTIONS[values["data"]]().dim
        if values["state_dim"] != dim:
            v.append(f"data {values['data']} requires state_dim = {dim}")
    if values["reward"] not in REWARDS:
        v.append(f"reward must be one of {tuple(REWARDS)}")
    return v


def resolve(raw: dict) -> RunConfig:
    """Apply defaults, coerce types, and validate; raw maps key -> (lineno, str)."""
    violations = []
    values = {k: d for k, (_, d) in SCHEMA.items()}
    for key, (lineno, text) in raw.items():
        if key not in SCHEMA:
            violations.append(f"line {lineno}: unknown key {key!r}")
            continue
        parser = SCHEMA[key][0]
        try:
            values[key] = parser(text)
        except ValueError:
            violations.append(f"line {lineno}: bad value for {key}: {text!r}")
    if not violations:
        violations = _validate(values)
    if violations:
        raise ValidationError(violations)
    train = TrainConfig(
        method=values["method"],
        n_steps=values["n_steps"],
        n_truncate=values["n_truncate"],
        batch=values["batch"],
        iterations=values["iterations"],
        lr=values["lr"],
        warmup=values["warmup"],
        grad_clip=values["grad_clip"],
        reg_p=values["p"],
        reg_lam=values["lam"],
        noise=values["noise"],
        schedule=values["schedule"],
        seed=values["seed"],
        k_window=values["k_window"],
        workers=values["workers"],
    )
    net = NetConfig(
        state_dim=values["state_dim"],
        hidden=values["hidden"],
        activation=values["activation"],
        time_features=values["time_features"],
    )
    blob = repr(sorted(values.items())).encode("utf-8")
    return RunConfig(
        values=values,
        train=train,
        net=net,
        config_sha256=hashlib.sha256(blob).hexdigest(),
    )


def parse_config(path: str) -> RunConfig:
    with open(path, "r") as f:
        text = f.read()
    return resolve(parse_kv_text(text))


def parse_config_text(text: str) -> RunConfig:
    return resolve(parse_kv_text(text))


def make_distribution(cfg: RunConfig):
    kind = cfg["data"]
    if kind == "gauss1d":
        return Gaussian1D(mu=cfg["data_mu"], sigma=cfg["data_sigma"])
    if kind == "gm2":
        return GaussianMixture2D.two_modes(
            offset=cfg["mode_offset"], std=cfg["mode_std"]
        )
    return ring8(radius=cfg["ring_radius"], std=cfg["ring_std"])


def make_reward(cfg: RunConfig):
    kind = cfg["reward"]
    dim = cfg["state_dim"]
    if kind == "quadwell":
        center = np.asarray(cfg["reward_center"], dtype=np.float64)[:dim]
        return QuadraticWell(center=center, curvature=cfg["reward_curvature"])
    if kind == "tilt":
        return LogDensityTilt(target=make_distribution(cfg))
    if kind == "linear":
        return LinearProbe(
            direction=np.asarray(cfg["reward_direction"], dtype=np.float64)[:dim]
        )
    return ConstantReward()
