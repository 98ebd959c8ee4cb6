"""Checkpoint file format.

Layout: one JSON header line (format_version, architecture, seed, iteration,
parameter count) terminated by a newline, followed by the flat parameter
array as little-endian float64 in the ``nnet.layer_views`` order.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteError, ParseError
from .nnet import NetConfig, VelocityField

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    vf: VelocityField
    seed: int
    iteration: int


def atomic_write(path: str, data: bytes) -> None:
    """Write to a temp file in the same directory, then rename over ``path``.

    The file gets the mode a plain ``open`` would give it, 0o666 less the
    umask; ``mkstemp`` alone would leave it 0o600.
    """
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save(ckpt: Checkpoint, path: str) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "arch": ckpt.vf.cfg.to_dict(),
        "seed": int(ckpt.seed),
        "iteration": int(ckpt.iteration),
        "n_params": int(ckpt.vf.n_params),
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    atomic_write(path, head + ckpt.vf.params.astype("<f8").tobytes())


def load(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        header_line = f.readline()
        blob = f.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"bad checkpoint header in {path}: {e}") from e
    if not isinstance(header, dict):
        raise ParseError(f"bad checkpoint header in {path}: not a JSON object")
    # a bool or a float is no integer here, whatever it compares equal to
    for key in ("format_version", "n_params", "seed", "iteration"):
        if type(header.get(key)) is not int:
            raise ParseError(f"checkpoint {path}: header {key} is not an integer")
    if header["format_version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported checkpoint format_version {header['format_version']}")
    try:
        cfg = NetConfig.from_dict(header["arch"])
    except (KeyError, TypeError, ValueError, ConfigError) as e:
        raise ParseError(f"bad checkpoint architecture in {path}: {e!r}") from e
    if len(blob) % 8:
        raise ParseError(f"checkpoint {path}: parameter bytes are not whole float64s")
    params = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    if params.size != header["n_params"]:
        raise ParseError(
            f"checkpoint {path}: expected {header['n_params']} params, "
            f"found {params.size}"
        )
    if not np.all(np.isfinite(params)):
        raise NonFiniteError(f"checkpoint {path} contains non-finite parameters")
    if header["n_params"] != cfg.n_params:
        raise ParseError(f"checkpoint {path}: header n_params {header['n_params']} "
                         f"!= {cfg.n_params}, the count its architecture implies")
    return Checkpoint(vf=VelocityField(cfg, params), seed=header["seed"],
                      iteration=header["iteration"])
