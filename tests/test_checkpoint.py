import json
import os
from pathlib import Path

import numpy as np
import pytest

import flowam.checkpoint as cio
from flowam.errors import NonFiniteError, ParseError
from flowam.nnet import ACTIVATIONS, NetConfig, VelocityField


def make_ckpt(seed=0):
    cfg = NetConfig(state_dim=2, hidden=(6, 6), time_features=4)
    return cio.Checkpoint(vf=VelocityField.init(cfg, seed=seed), seed=seed, iteration=17)


def test_roundtrip_bit_exact(tmp_path):
    ck = make_ckpt(seed=3)
    path = str(tmp_path / "ck.bin")
    cio.save(ck, path)
    loaded = cio.load(path)
    np.testing.assert_array_equal(loaded.vf.params_flat(), ck.vf.params_flat())
    assert loaded.seed == 3
    assert loaded.iteration == 17
    assert loaded.vf.cfg == ck.vf.cfg


@pytest.mark.parametrize("activation", list(ACTIVATIONS))
def test_loaded_network_has_the_forward_bits_of_the_saved_one(activation, tmp_path):
    cfg = NetConfig(state_dim=2, hidden=(16, 8), activation=activation)
    vf = VelocityField.init(cfg, seed=4)
    vf.set_params_flat(np.random.default_rng(4).standard_normal(cfg.n_params))
    path = str(tmp_path / "ck.bin")
    cio.save(cio.Checkpoint(vf=vf, seed=4, iteration=0), path)
    loaded = cio.load(path).vf
    x = np.random.default_rng(5).standard_normal((64, 2))
    for t in (0.3, np.linspace(0.0, 1.0, 64)):
        assert loaded.forward(x, t).tobytes() == vf.forward(x, t).tobytes()


def test_save_is_atomic_no_leftover_tmp(tmp_path):
    ck = make_ckpt()
    path = str(tmp_path / "ck.bin")
    cio.save(ck, path)
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000], ids=oct)
def test_written_files_get_the_mode_of_a_plain_open(umask, tmp_path):
    # mkstemp makes its file 0o600; the renamed file must instead get what
    # open() gives under the umask, like every other file the user makes
    old = os.umask(umask)
    try:
        cio.save(make_ckpt(), str(tmp_path / "ck.bin"))
        cio.atomic_write(str(tmp_path / "metrics.csv"), b"a,b\n")
        with open(tmp_path / "plain.txt", "wb"):
            pass
    finally:
        os.umask(old)
    want = 0o666 & ~umask
    for name in ("ck.bin", "metrics.csv", "plain.txt"):
        assert os.stat(tmp_path / name).st_mode & 0o777 == want, name


def test_rewrite_is_byte_identical(tmp_path):
    ck = make_ckpt(seed=5)
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    cio.save(ck, p1)
    cio.save(ck, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_load_rejects_garbage_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00\x01not json\n1234")
    with pytest.raises(ParseError):
        cio.load(str(path))


def test_load_rejects_unknown_version(tmp_path):
    ck = make_ckpt()
    path = str(tmp_path / "ck.bin")
    cio.save(ck, path)
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        blob = f.read()
    header["format_version"] = 99
    bad = str(tmp_path / "bad.bin")
    with open(bad, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n" + blob)
    with pytest.raises(ParseError):
        cio.load(bad)


def test_load_rejects_truncated_params(tmp_path):
    ck = make_ckpt()
    path = str(tmp_path / "ck.bin")
    cio.save(ck, path)
    data = Path(path).read_bytes()
    trunc = str(tmp_path / "trunc.bin")
    Path(trunc).write_bytes(data[:-16])
    with pytest.raises(ParseError):
        cio.load(trunc)


def test_load_rejects_nonfinite_params(tmp_path):
    ck = make_ckpt()
    path = str(tmp_path / "ck.bin")
    cio.save(ck, path)
    with open(path, "rb") as f:
        header_line = f.readline()
        blob = bytearray(f.read())
    params = np.frombuffer(bytes(blob), dtype="<f8").copy()
    params[0] = np.inf
    bad = str(tmp_path / "inf.bin")
    with open(bad, "wb") as f:
        f.write(header_line + params.astype("<f8").tobytes())
    with pytest.raises(NonFiniteError):
        cio.load(bad)


def test_header_keeps_version_one_arch_layout(tmp_path):
    path = str(tmp_path / "ck.bin")
    cio.save(make_ckpt(), path)
    with open(path, "rb") as f:
        header = json.loads(f.readline())
    assert header["format_version"] == 1
    assert header["arch"]["n_cond"] == 0


@pytest.mark.parametrize(
    "edit",
    [
        lambda arch: arch.update(activation="relu"),
        lambda arch: arch.pop("state_dim"),
        lambda arch: arch.update(n_cond=2),
        lambda arch: arch.update(hidden="six"),
    ],
    ids=["unknown-activation", "missing-key", "conditional", "bad-hidden"],
)
def test_load_rejects_bad_arch_header(tmp_path, edit):
    path = str(tmp_path / "ck.bin")
    cio.save(make_ckpt(), path)
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        blob = f.read()
    edit(header["arch"])
    bad = str(tmp_path / "bad.bin")
    with open(bad, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n" + blob)
    with pytest.raises(ParseError, match="architecture"):
        cio.load(bad)


@pytest.mark.parametrize(
    "edit, tail, fragment",
    [
        (lambda h: [h], b"", "JSON object"),
        (lambda h: {k: v for k, v in h.items() if k != "n_params"}, b"", "n_params"),
        (lambda h: {k: v for k, v in h.items() if k != "iteration"}, b"", "iteration"),
        (lambda h: {**h, "seed": "x"}, b"", "seed"),
        (lambda h: {**h, "n_params": 2.5}, b"", "n_params"),
        (lambda h: h, b"abc", "float64"),
    ],
    ids=["not-an-object", "no-n-params", "no-iteration", "text-seed", "float-n-params",
         "trailing-bytes"],
)
def test_load_rejects_bad_header_shape(tmp_path, edit, tail, fragment):
    path = str(tmp_path / "ck.bin")
    cio.save(make_ckpt(), path)
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        blob = f.read()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(json.dumps(edit(header)).encode() + b"\n" + blob + tail)
    with pytest.raises(ParseError, match=fragment):
        cio.load(str(bad))


def test_load_rejects_n_params_that_disagree_with_arch(tmp_path):
    # header count and blob agree with each other, not with the architecture
    path = str(tmp_path / "ck.bin")
    cio.save(make_ckpt(), path)
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        blob = f.read()
    header["n_params"] -= 1
    bad = tmp_path / "bad.bin"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + blob[:-8])
    with pytest.raises(ParseError, match="n_params"):
        cio.load(str(bad))
