import csv
import json
import os

import numpy as np
import pytest

from flowam import checkpoint as ckpt_io
from flowam.cli import main
from flowam.config import parse_config_text

TINY_PRETRAIN = """\
data = gauss1d
state_dim = 1
hidden = 16,16
batch = 64
iterations = 60
lr = 0.001
warmup = 5
grad_clip = 10
n_steps = 10
n_truncate = 1
seed = 0
"""

TINY_FINETUNE = """\
data = gauss1d
state_dim = 1
hidden = 16,16
method = ode-am
reward = quadwell
reward_center = 1.0
reward_curvature = 1.0
batch = 16
iterations = 5
lr = 0.0005
warmup = 2
n_steps = 10
n_truncate = 4
n_eval = 150
eval_steps = 10
seed = 1
"""


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_version_flag(capsys):
    assert main(["--version"]) == 0


def test_unknown_flag_exits_one(capsys):
    assert main(["plot-data", "--bogus"]) == 1


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = main(["pretrain", "--config", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_config_lists_all_violations(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("method = bogus\nlr = -1\n")
    assert main(["pretrain", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") >= 2


def test_end_to_end_pretrain_finetune_eval(tmp_path, capsys):
    pre_cfg = tmp_path / "pre.cfg"
    pre_cfg.write_text(TINY_PRETRAIN)
    pre_out = tmp_path / "pre"
    assert main(["pretrain", "--config", str(pre_cfg),
                 "--outdir", str(pre_out)]) == 0
    base = pre_out / "ckpt_pretrain.bin"
    assert base.exists()
    assert (pre_out / "metrics.csv").exists()
    assert (pre_out / "config.resolved").exists()
    assert len(read_csv(pre_out / "metrics.csv")) == 60

    ft_cfg = tmp_path / "ft.cfg"
    ft_cfg.write_text(TINY_FINETUNE)
    ft_out = tmp_path / "ft"
    assert main(["finetune", "--config", str(ft_cfg), "--base", str(base),
                 "--outdir", str(ft_out)]) == 0
    tuned = ft_out / "ckpt_finetune.bin"
    assert tuned.exists()
    assert len(read_csv(ft_out / "metrics.csv")) == 5
    timing_rows = read_csv(ft_out / "timings.csv")
    assert len(timing_rows) == 5
    assert all(float(r["phase_sim_ms"]) > 0 for r in timing_rows)

    ev_out = tmp_path / "ev"
    assert main(["eval", "--config", str(ft_cfg), "--ckpt", str(tuned),
                 "--base", str(base), "--outdir", str(ev_out)]) == 0
    rows = read_csv(ev_out / "eval.csv")
    assert len(rows) == 1
    assert float(rows[0]["n_samples"]) == 150
    out = capsys.readouterr().out
    assert "reward_mean" in out


def test_outdir_override_is_in_the_resolved_hash(tmp_path):
    cfg = tmp_path / "pre.cfg"
    cfg.write_text(TINY_PRETRAIN.replace("iterations = 60", "iterations = 2"))
    out = tmp_path / "pre"
    assert main(["pretrain", "--config", str(cfg), "--outdir", str(out)]) == 0
    text = (out / "config.resolved").read_text()
    header = dict(line[2:].split(" = ") for line in text.splitlines()[:2])
    again = parse_config_text(text)
    assert again["outdir"] == str(out)
    assert again.config_sha256 == header["config_sha256"]


def test_finetune_rerun_metrics_byte_identical(tmp_path):
    pre_cfg = tmp_path / "pre.cfg"
    pre_cfg.write_text(TINY_PRETRAIN)
    assert main(["pretrain", "--config", str(pre_cfg),
                 "--outdir", str(tmp_path / "pre")]) == 0
    base = str(tmp_path / "pre" / "ckpt_pretrain.bin")
    ft_cfg = tmp_path / "ft.cfg"
    ft_cfg.write_text(TINY_FINETUNE)
    for d in ("a", "b"):
        assert main(["finetune", "--config", str(ft_cfg), "--base", base,
                     "--outdir", str(tmp_path / d)]) == 0
    m_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    m_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert m_a == m_b
    c_a = (tmp_path / "a" / "ckpt_finetune.bin").read_bytes()
    c_b = (tmp_path / "b" / "ckpt_finetune.bin").read_bytes()
    assert c_a == c_b


def test_finetune_zero_iterations_writes_empty_run(tmp_path, capsys):
    pre_cfg = tmp_path / "pre.cfg"
    pre_cfg.write_text(TINY_PRETRAIN)
    assert main(["pretrain", "--config", str(pre_cfg),
                 "--outdir", str(tmp_path / "pre")]) == 0
    ft_cfg = tmp_path / "ft.cfg"
    ft_cfg.write_text(TINY_FINETUNE.replace("iterations = 5", "iterations = 0"))
    assert main(["finetune", "--config", str(ft_cfg),
                 "--base", str(tmp_path / "pre" / "ckpt_pretrain.bin"),
                 "--outdir", str(tmp_path / "ft")]) == 0
    assert read_csv(tmp_path / "ft" / "metrics.csv") == []
    assert "reward_mean" not in capsys.readouterr().out


def test_plot_data_dumps_samples(tmp_path):
    pre_cfg = tmp_path / "pre.cfg"
    pre_cfg.write_text(TINY_PRETRAIN)
    assert main(["pretrain", "--config", str(pre_cfg),
                 "--outdir", str(tmp_path / "pre")]) == 0
    out = tmp_path / "samples.csv"
    assert main(["plot-data",
                 "--ckpt", str(tmp_path / "pre" / "ckpt_pretrain.bin"),
                 "--n", "50", "--steps", "10", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 50
    assert set(rows[0]) == {"x0"}
    assert all(np.isfinite(float(r["x0"])) for r in rows)


@pytest.fixture(scope="module")
def tiny_base(tmp_path_factory):
    """A 1D checkpoint pretrained by the CLI, shared by the error-table test."""
    d = tmp_path_factory.mktemp("base")
    (d / "pre.cfg").write_text(TINY_PRETRAIN)
    assert main(["pretrain", "--config", str(d / "pre.cfg"), "--outdir", str(d)]) == 0
    return d / "ckpt_pretrain.bin"


def _edit_header(src, dst, edit, tail=b"", cut=0):
    """Copy a checkpoint with its header replaced by ``edit(header)`` and
    ``cut`` bytes dropped from the end of its parameters."""
    with open(src, "rb") as f:
        header = json.loads(f.readline())
        blob = f.read()
    header = edit(header)
    head = json.dumps(header, sort_keys=True).encode() + b"\n"
    dst.write_bytes(head + blob[:len(blob) - cut] + tail)
    return str(dst)


def _edit_arch(src, dst, edit):
    def apply(header):
        edit(header["arch"])
        return header
    return _edit_header(src, dst, apply)


def plot_argv(ckpt, tmp, *extra):
    """plot-data argv for the checkpoint at ``ckpt``."""
    return ["plot-data", "--ckpt", ckpt, "--out", str(tmp / "s.csv"), *extra]


GM2_CONFIG = "data = gm2\nstate_dim = 2\niterations = 1\nn_eval = 20\n"

DRAFT_CONFIG = TINY_FINETUNE.replace("method = ode-am", "method = draft")


def finetune_argv(base, tmp):
    return ["finetune", "--base", base, "--outdir", str(tmp)]


def pretrain_argv(base, tmp):
    return ["pretrain", "--outdir", str(tmp)]


def eval_argv(base, tmp):
    return ["eval", "--ckpt", base, "--base", base, "--outdir", str(tmp)]


def write_file(path, data=b""):
    """Write ``data`` to ``path``; returns the path as a string."""
    path.write_bytes(data)
    return str(path)


# name -> (config text or None, argv after the config, stderr fragment)
ERROR_CASES = {
    "finetune-dim-mismatch": (GM2_CONFIG, finetune_argv, "state_dim"),
    "eval-dim-mismatch": (GM2_CONFIG, eval_argv, "state_dim"),
    "finetune-hidden-mismatch": (TINY_FINETUNE.replace("hidden = 16,16", "hidden = 16,8"),
                                 finetune_argv, "hidden [16, 16] where the config has [16, 8]"),
    "unknown-activation": (TINY_PRETRAIN + "activation = relu\n", pretrain_argv,
                           "activation"),
    "hidden-width-zero": (TINY_PRETRAIN.replace("hidden = 16,16", "hidden = 16,0"),
                          pretrain_argv, "hidden"),
    "time-features-negative": (TINY_PRETRAIN + "time_features = -1\n", pretrain_argv,
                               "time_features"),
    "iterations-negative": (TINY_FINETUNE.replace("iterations = 5", "iterations = -1"),
                            finetune_argv, "iterations"),
    "draft-k-window-too-long": (DRAFT_CONFIG + "k_window = 99\n", finetune_argv,
                                "k_window"),
    "reward-center-length": (GM2_CONFIG + "reward_center = 2.0\n", pretrain_argv,
                             "reward_center"),
    "reward-direction-length": (GM2_CONFIG + "reward_direction = 1,0,0\n", pretrain_argv,
                                "reward_direction"),
    "eval-steps-zero": (TINY_FINETUNE + "eval_steps = 0\n", eval_argv, "eval_steps"),
    "knn-k-zero": (TINY_FINETUNE + "knn_k = 0\n", eval_argv, "knn_k"),
    "knn-k-negative": (TINY_FINETUNE + "knn_k = -2\n", eval_argv, "knn_k"),
    "n-eval-zero": (TINY_FINETUNE.replace("n_eval = 150", "n_eval = 0"), eval_argv,
                    "n_eval must be > knn_k = 5, got 0"),
    "n-eval-not-above-knn-k": (TINY_FINETUNE.replace("n_eval = 150", "n_eval = 5"),
                               eval_argv, "n_eval must be > knn_k = 5, got 5"),
    "plot-steps-zero": (None, lambda base, tmp: plot_argv(base, tmp, "--steps", "0"),
                        "n_steps"),
    "header-unknown-activation": (
        None,
        lambda base, tmp: plot_argv(_edit_arch(
            base, tmp / "a.bin", lambda a: a.update(activation="relu")), tmp),
        "architecture",
    ),
    "header-missing-key": (
        None,
        lambda base, tmp: plot_argv(_edit_arch(
            base, tmp / "b.bin", lambda a: a.pop("hidden")), tmp),
        "architecture",
    ),
    "header-conditional": (
        None,
        lambda base, tmp: plot_argv(_edit_arch(
            base, tmp / "c.bin", lambda a: a.update(n_cond=3)), tmp),
        "architecture",
    ),
    "header-not-an-object": (
        None,
        lambda base, tmp: plot_argv(_edit_header(base, tmp / "d.bin", lambda h: [h]), tmp),
        "JSON object",
    ),
    "header-missing-n-params": (
        None,
        lambda base, tmp: plot_argv(_edit_header(
            base, tmp / "e.bin",
            lambda h: {k: v for k, v in h.items() if k != "n_params"}), tmp),
        "n_params",
    ),
    "header-seed-not-an-integer": (
        None,
        lambda base, tmp: plot_argv(_edit_header(
            base, tmp / "f.bin", lambda h: {**h, "seed": "x"}), tmp),
        "seed",
    ),
    "header-n-params-vs-arch": (
        None,
        lambda base, tmp: plot_argv(_edit_header(
            base, tmp / "h.bin", lambda h: {**h, "n_params": h["n_params"] - 1},
            cut=8), tmp),
        "n_params",
    ),
    "seed-negative": (TINY_FINETUNE.replace("seed = 1", "seed = -1"), finetune_argv,
                      "seed"),
    "eval-seed-negative": (TINY_FINETUNE + "eval_seed = -3\n", eval_argv, "eval_seed"),
    "plot-seed-negative": (None, lambda base, tmp: plot_argv(base, tmp, "--seed", "-1"),
                           "seed"),
    "lr-nan": (TINY_FINETUNE.replace("lr = 0.0005", "lr = nan"), finetune_argv,
               "for lr:"),
    "lr-inf": (TINY_FINETUNE.replace("lr = 0.0005", "lr = inf"), finetune_argv,
               "for lr:"),
    "data-sigma-nan": (TINY_PRETRAIN + "data_sigma = nan\n", pretrain_argv,
                       "for data_sigma:"),
    "data-sigma-zero": (TINY_FINETUNE + "data_sigma = 0\n",
                        lambda base, tmp: finetune_argv(base, tmp / "out"),
                        "data gauss1d: sigma must be > 0, got 0.0"),
    "gm2-mode-std-negative": (GM2_CONFIG + "mode_std = -1\n", pretrain_argv,
                              "data gm2: mode stds must be > 0"),
    "p-nan": (TINY_FINETUNE + "p = nan\n", finetune_argv, "for p:"),
    "lam-nan": (TINY_FINETUNE + "lam = nan\n", finetune_argv, "for lam:"),
    "lam-power-overflow": (TINY_FINETUNE + "p = 1.0000000000000002\nlam = 2\n",
                           finetune_argv, "lam ** (1 / (p - 1)) must be finite"),
    "schedule-key-removed": (TINY_FINETUNE + "schedule = linear\n", finetune_argv,
                             "unknown key 'schedule'"),
    "workers-key-removed": (TINY_FINETUNE + "workers = 1\n", finetune_argv,
                            "unknown key 'workers'"),
    "reward-center-inf": (TINY_FINETUNE.replace("reward_center = 1.0",
                                                "reward_center = inf"),
                          finetune_argv, "for reward_center:"),
    "grad-clip-negative": (TINY_FINETUNE + "grad_clip = -1\n", finetune_argv,
                           "grad_clip"),
    "warmup-negative": (TINY_FINETUNE.replace("warmup = 2", "warmup = -4"),
                        finetune_argv, "warmup"),
    "outdir-hash": (TINY_PRETRAIN, lambda base, tmp: ["pretrain", "--outdir",
                                                     str(tmp / "o#x")], "outdir"),
    "outdir-line-break": (TINY_PRETRAIN, lambda base, tmp: ["pretrain", "--outdir",
                                                           str(tmp / "o\nx")], "outdir"),
    "noise-sigma-t-removed": (TINY_FINETUNE + "noise = sigma_t\n", finetune_argv,
                              "noise must be one of"),
    "config-is-a-directory": (None, lambda base, tmp: ["pretrain", "--config", str(tmp)],
                              "Is a directory"),
    "config-not-utf8": (
        None,
        lambda base, tmp: ["pretrain", "--config", write_file(
            tmp / "latin1.cfg", b"data = gauss1d\n# caf\xe9\n")],
        "not UTF-8",
    ),
    "outdir-under-a-file": (TINY_PRETRAIN, lambda base, tmp: [
        "pretrain", "--outdir", write_file(tmp / "f") + "/out"], "Not a directory"),
    "plot-out-under-a-file": (None, lambda base, tmp: [
        "plot-data", "--ckpt", base, "--out", write_file(tmp / "f") + "/s.csv"],
        "File exists"),
    "ckpt-is-a-directory": (None, lambda base, tmp: plot_argv(str(tmp), tmp),
                            "Is a directory"),
    "params-trailing-bytes": (
        None,
        lambda base, tmp: plot_argv(_edit_header(
            base, tmp / "g.bin", lambda h: h, tail=b"abc"), tmp),
        "float64",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_input_exits_one_with_one_error_line(case, tiny_base, tmp_path, capsys):
    text, argv, fragment = ERROR_CASES[case]
    args = argv(str(tiny_base), tmp_path)
    if text is not None:
        (tmp_path / "run.cfg").write_text(text)
        args[1:1] = ["--config", str(tmp_path / "run.cfg")]
    assert main(args) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert fragment in lines[0]
    # a case whose outdir is tmp/out checks that the config is rejected
    # before the output directory is made
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_control_target_exits_two_with_one_line(tiny_base, tmp_path, capsys):
    # near p = 1 the control target overflows; the abort is one line that
    # names the phase and the quantity, with no numpy warning before it
    (tmp_path / "run.cfg").write_text(
        TINY_FINETUNE.replace("reward_center = 1.0", "reward_center = 30.0") + "p = 1.001\n")
    args = ["finetune", "--config", str(tmp_path / "run.cfg"), "--base", str(tiny_base),
            "--outdir", str(tmp_path / "out")]
    assert main(args) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("numerical abort: fine-tuning aborted at iteration 0 (upd): "
                               "non-finite control target at window step 0 ")
