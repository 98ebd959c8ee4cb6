"""Flat key=value run configuration: parsing, defaults, and validation.

One `key = value` pair per line; `#` starts a comment.  The training and
network keys are the fields of `TrainConfig` and `NetConfig` (keys `p` and
`lam` set `reg_p` and `reg_lam`), which own their defaults and checks; this
module adds the data, reward, evaluation and output keys and the checks
that need them.  Unknown keys and every violated constraint are collected
and reported together, not one at a time.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParseError, ValidationError
from .nnet import NetConfig
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
from .train import TrainConfig

TOOL_VERSION = "0.1.0"


def _float(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {s!r}")
    return v


def _floats(s):
    return tuple(_float(v) for v in str(s).split(",") if v != "")


def _ints(s):
    return tuple(int(v) for v in str(s).split(",") if v != "")


_KEYS = {"reg_p": "p", "reg_lam": "lam"}  # dataclass field -> config key
_PARSERS = {"int": int, "float": _float, "str": str, "tuple": _ints}


def _entries(cls, **defaults) -> dict:
    """Schema entries for the fields of a settings dataclass."""
    return {_KEYS.get(f.name, f.name): (_PARSERS[f.type],
                                        defaults.get(f.name, f.default))
            for f in fields(cls)}


# key -> (parser, default).  Parsers: int, float, str, comma lists.
SCHEMA = {
    **_entries(TrainConfig),
    **_entries(NetConfig, state_dim=2),
    # data
    "data": (str, "gm2"),
    "data_mu": (_float, 0.0),
    "data_sigma": (_float, 1.0),
    "mode_offset": (_float, 2.0),
    "mode_std": (_float, 0.5),
    "ring_radius": (_float, 3.0),
    "ring_std": (_float, 0.3),
    # reward
    "reward": (str, "quadwell"),
    "reward_center": (_floats, (2.0, 0.0)),
    "reward_curvature": (_float, 1.0),
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


def _build(cls, values: dict):
    """``cls`` from its config keys; returns (instance or None, violations)."""
    kwargs = {f.name: values[_KEYS.get(f.name, f.name)] for f in fields(cls)}
    try:
        return cls(**kwargs), []
    except ValidationError as e:
        return None, e.violations


def _validate(values: dict, raw: dict) -> list:
    """The checks of keys that are not TrainConfig or NetConfig fields."""
    v = []
    if values["data"] not in DISTRIBUTIONS:
        v.append(f"data must be one of {tuple(DISTRIBUTIONS)}")
    else:
        dim = DISTRIBUTIONS[values["data"]]().dim
        if values["state_dim"] != dim:
            v.append(f"data {values['data']} requires state_dim = {dim}")
    if values["reward"] not in REWARDS:
        v.append(f"reward must be one of {tuple(REWARDS)}")
    for key in ("reward_center", "reward_direction"):
        if key in raw and len(values[key]) != values["state_dim"]:
            v.append(f"{key} must have state_dim = {values['state_dim']} "
                     f"entries, got {len(values[key])}")
    for key in ("eval_steps", "knn_k"):
        if values[key] < 1:
            v.append(f"{key} must be >= 1, got {values[key]}")
    if values["n_eval"] < values["knn_k"] + 1:
        v.append(f"n_eval must be > knn_k = {values['knn_k']}, got {values['n_eval']}")
    if values["eval_seed"] < 0:
        v.append(f"eval_seed must be >= 0, got {values['eval_seed']}")
    if not _reparses("outdir", values["outdir"]):
        # config.resolved records the outdir; it must read back unchanged
        v.append(f"outdir must hold no '#', line break or surrounding whitespace, "
                 f"got {values['outdir']!r}")
    return v


def _reparses(key: str, text: str) -> bool:
    """Whether the line ``key = text`` parses back to exactly ``text``."""
    try:
        return parse_kv_text(f"{key} = {text}\n") == {key: (1, text)}
    except ParseError:
        return False


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
    ValidationError.check(violations)
    for key in ("reward_center", "reward_direction"):
        if key not in raw:  # the built-in defaults are 2D
            values[key] = values[key][: values["state_dim"]]
    train, train_violations = _build(TrainConfig, values)
    net, net_violations = _build(NetConfig, values)
    ValidationError.check(train_violations + net_violations + _validate(values, raw))
    blob = repr(sorted(values.items())).encode("utf-8")
    return RunConfig(
        values=values,
        train=train,
        net=net,
        config_sha256=hashlib.sha256(blob).hexdigest(),
    )


def read_kv_file(path: str) -> dict:
    """``parse_kv_text`` of a file; bytes that are not UTF-8 are a ParseError."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"config {path} is not UTF-8 text: {e}") from e
    return parse_kv_text(text)


def parse_config(path: str) -> RunConfig:
    return resolve(read_kv_file(path))


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
    if kind == "quadwell":
        center = np.asarray(cfg["reward_center"], dtype=np.float64)
        return QuadraticWell(center=center, curvature=cfg["reward_curvature"])
    if kind == "tilt":
        return LogDensityTilt(target=make_distribution(cfg))
    if kind == "linear":
        return LinearProbe(
            direction=np.asarray(cfg["reward_direction"], dtype=np.float64)
        )
    return ConstantReward()
