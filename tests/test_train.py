from pathlib import Path

import numpy as np
import pytest

from flowam.adjoint import BLOWUP_NORM
from flowam.checkpoint import Checkpoint
from flowam.control import RegularizerSpec
from flowam.errors import ConfigError, NonFiniteError, ValidationError
from flowam.nnet import GradientTape, NetConfig, VelocityField
from flowam.oracles import GaussianFlowSpec, rf_velocity
from flowam.tasks import ConstantReward, Gaussian1D, GaussianMixture2D, QuadraticWell
from flowam.train import (
    ADAM_BETA1,
    ADAM_EPS,
    OptimizerState,
    TrainConfig,
    finetune,
    optimizer_step,
    pretrain,
    warmup_lr,
    write_csv,
)


def small_cfg(**kw):
    defaults = dict(
        method="ode-am", n_steps=10, n_truncate=5, batch=16,
        iterations=5, lr=1e-3, warmup=2, grad_clip=1.0, seed=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


# -- config validation ---------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(method="nope")
    with pytest.raises(ConfigError):
        small_cfg(n_truncate=11)
    with pytest.raises(ConfigError):
        small_cfg(n_truncate=0)
    with pytest.raises(ConfigError):
        small_cfg(lr=0.0)
    with pytest.raises(ConfigError):
        small_cfg(batch=0)


def test_train_config_lists_every_violation():
    with pytest.raises(ValidationError) as exc:
        TrainConfig(method="bogus", lr=-1, reg_p=0.5, reg_lam=0, n_truncate=99)
    assert len(exc.value.violations) == 5
    for name, violation in zip(("method", "n_truncate", "p", "lam", "lr"),
                               exc.value.violations):
        assert violation.startswith(name + " must")


def test_train_config_rejects_nan_in_every_float_check():
    nan = float("nan")
    with pytest.raises(ValidationError) as exc:
        TrainConfig(lr=nan, grad_clip=nan, reg_p=nan, reg_lam=nan)
    names = [v.split()[0] for v in exc.value.violations]
    assert sorted(names) == ["grad_clip", "lam", "lr", "p"]
    with pytest.raises(ValidationError) as exc:
        RegularizerSpec(p=nan, lam=nan)
    assert [v.split()[0] for v in exc.value.violations] == ["p", "lam"]


@pytest.mark.parametrize(
    "kw, fragment",
    [
        (dict(noise="bogus"), "noise"),
        (dict(method="draft", k_window=99), "k_window"),
        (dict(method="refl", k_window=0), "k_window"),
        (dict(method="sde-am", noise="zero"), "noise must be one of"),
        (dict(iterations=-1), "iterations"),
        (dict(seed=-1), "seed"),
        (dict(grad_clip=-1.0), "grad_clip"),
        (dict(warmup=-4), "warmup"),
    ],
    ids=["noise", "draft-k", "refl-k", "sde-zero-noise", "iterations",
         "seed", "grad-clip", "warmup"],
)
def test_train_config_rejects_bad_run_at_construction(kw, fragment):
    with pytest.raises(ValidationError, match=fragment):
        small_cfg(**kw)


def test_zero_grad_clip_and_warmup_stay_legal():
    # 0 means "off": no clipping and no warm-up ramp
    cfg = small_cfg(grad_clip=0.0, warmup=0, seed=0)
    assert warmup_lr(cfg.lr, cfg.warmup, 0) == cfg.lr


# -- optimizer -----------------------------------------------------------------


def test_zero_grads_leave_params_unchanged():
    opt = OptimizerState.init(4)
    params = np.array([1.0, -2.0, 0.5, 3.0])
    out = optimizer_step(opt, params, np.zeros(4), clip=1.0, lr=0.1)
    np.testing.assert_array_equal(out, params)


def test_adam_first_step_hand_value():
    opt = OptimizerState.init(1)
    params = np.array([0.0])
    out = optimizer_step(opt, params, np.array([1.0]), clip=0.0, lr=0.1)
    # bias-corrected first step: -lr * g / (|g| + eps)
    assert out[0] == pytest.approx(-0.1 / (1.0 + ADAM_EPS), rel=1e-12)


def test_global_norm_clipping():
    opt = OptimizerState.init(2)
    g = np.array([60.0, 80.0])  # norm 100
    optimizer_step(opt, np.zeros(2), g, clip=1.0, lr=0.1)
    # after clipping, the accumulated first moment reflects unit-norm grads
    assert np.linalg.norm(opt.m / (1.0 - ADAM_BETA1)) == pytest.approx(1.0)


def test_optimizer_rejects_nonfinite():
    opt = OptimizerState.init(1)
    with pytest.raises(NonFiniteError):
        optimizer_step(opt, np.zeros(1), np.array([np.nan]), clip=1.0, lr=0.1)


def test_warmup_schedule():
    assert warmup_lr(1.0, 4, 0) == pytest.approx(0.25)
    assert warmup_lr(1.0, 4, 3) == pytest.approx(1.0)
    assert warmup_lr(1.0, 4, 100) == 1.0
    assert warmup_lr(1.0, 0, 0) == 1.0


# -- pretraining ----------------------------------------------------------------


def test_zero_iterations_returns_initialization():
    cfg = small_cfg(iterations=0)
    net = NetConfig(state_dim=1, hidden=(8,))
    ckpt, rows = pretrain(cfg, Gaussian1D(0.0, 1.0), net)
    init = VelocityField.init(net, seed=cfg.seed)
    np.testing.assert_array_equal(ckpt.vf.params_flat(), init.params_flat())
    assert rows == []


def test_pretrain_is_reproducible():
    cfg = small_cfg(iterations=20)
    net = NetConfig(state_dim=1, hidden=(8,))
    a, rows_a = pretrain(cfg, Gaussian1D(0.0, 1.0), net)
    b, rows_b = pretrain(cfg, Gaussian1D(0.0, 1.0), net)
    np.testing.assert_array_equal(a.vf.params_flat(), b.vf.params_flat())
    assert rows_a == rows_b


def test_pretrain_loss_decreases_moving_average():
    net = NetConfig(state_dim=1, hidden=(16, 16))
    curves = []
    for seed in (0, 1, 2):
        cfg = small_cfg(iterations=400, batch=64, lr=1e-3, warmup=20, seed=seed,
                        grad_clip=10.0)
        _, rows = pretrain(cfg, Gaussian1D(0.0, 1.0), net)
        curves.append([r["loss"] for r in rows])
    mean_curve = np.mean(curves, axis=0)
    smoothed = np.convolve(mean_curve, np.ones(50) / 50, mode="valid")
    assert smoothed[-1] < smoothed[0]
    # mostly non-increasing: allow small upward wiggles only
    assert np.all(np.diff(smoothed) < 0.05 * smoothed[0])


def test_pretrained_field_matches_gaussian_closed_form(base1d_ckpt):
    # standard-normal data: the exact velocity is the linear Gaussian-flow field
    spec = GaussianFlowSpec(mu=0.0, sigma=1.0)
    errs = []
    for t in np.linspace(0.1, 0.9, 9):
        xs = np.linspace(-2.0, 2.0, 21)
        pred = base1d_ckpt.vf.forward(xs[:, None], t)[:, 0]
        errs.append(pred - rf_velocity(spec, xs, t))
    rms = float(np.sqrt(np.mean(np.concatenate(errs) ** 2)))
    assert rms < 0.05


# -- fine-tuning -----------------------------------------------------------------


def make_base(seed=0, dim=1):
    net = NetConfig(state_dim=dim, hidden=(12, 12))
    return Checkpoint(vf=VelocityField.init(net, seed=seed), seed=seed, iteration=0)


def test_constant_reward_leaves_parameters_unchanged():
    # zero adjoint -> zero target -> zero residual gradient at initialization
    base = make_base()
    cfg = small_cfg(iterations=4)
    ckpt, rows, _ = finetune(cfg, base, ConstantReward(5.0))
    np.testing.assert_array_equal(ckpt.vf.params_flat(), base.vf.params_flat())
    assert all(r["loss"] == 0.0 for r in rows)


def test_finetune_metrics_reproducible():
    base = make_base(seed=2)
    reward = QuadraticWell(center=np.array([1.0]), curvature=1.0)
    cfg = small_cfg(iterations=6, method="ode-am")
    _, rows_a, _ = finetune(cfg, base, reward)
    _, rows_b, _ = finetune(cfg, base, reward)
    assert rows_a == rows_b


def test_truncation_prefix_same_first_iteration_trajectories():
    # runs differing only in T sample identical trajectories; only the loss
    # window differs, so first-iteration reward statistics agree exactly
    base = make_base(seed=3)
    reward = QuadraticWell(center=np.array([1.0]), curvature=1.0)
    _, rows_t1, _ = finetune(small_cfg(iterations=1, n_truncate=1), base, reward)
    _, rows_t5, _ = finetune(small_cfg(iterations=1, n_truncate=5), base, reward)
    assert rows_t1[0]["reward_mean"] == rows_t5[0]["reward_mean"]
    assert rows_t1[0]["reward_std"] == rows_t5[0]["reward_std"]
    assert rows_t1[0]["loss"] != rows_t5[0]["loss"]


def test_stop_gradient_discipline():
    # perturbing the detached buffers (states/adjoints) changes the gradient
    # input data, but the gradient computation itself never reaches back into
    # simulation: finetune with an ODE method uses no rng besides sampling, so
    # two identical calls yield identical parameter updates
    base = make_base(seed=5)
    reward = QuadraticWell(center=np.array([0.5]), curvature=2.0)
    cfg = small_cfg(iterations=3, method="sde-am", reg_p=2.0, noise="memoryless")
    a, _, _ = finetune(cfg, base, reward)
    b, _, _ = finetune(cfg, base, reward)
    np.testing.assert_array_equal(a.vf.params_flat(), b.vf.params_flat())


def test_sampling_abort_names_iteration():
    # parameters this large overflow the first forward pass, so the sampler
    # aborts before any loss is formed; the message must still say when
    base = make_base(seed=1)
    base.vf.set_params_flat(base.vf.params_flat() * 1e200)
    reward = QuadraticWell(center=np.array([1.0]), curvature=1.0)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as exc:
        finetune(small_cfg(iterations=2), base, reward)
    assert "fine-tuning aborted at iteration 0 (sim): " in str(exc.value)
    assert "non-finite state at step" in str(exc.value)


def test_adjoint_abort_names_its_phase():
    # a terminal gradient ten times the blow-up norm passes the sampler and
    # trips the adjoint's first step
    reward = QuadraticWell(center=np.array([10 * BLOWUP_NORM]), curvature=1.0)
    with pytest.raises(NonFiniteError) as exc:
        finetune(small_cfg(iterations=2), make_base(seed=1), reward)
    assert "fine-tuning aborted at iteration 0 (adj): adjoint blow-up" in str(exc.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_update_abort_names_its_phase_and_the_control_target():
    # near p = 1 the control target overflows once |a| > ~2; the loss names
    # it before any network pass, and no numpy warning escapes
    reward = QuadraticWell(center=np.array([30.0]), curvature=1.0)
    with pytest.raises(NonFiniteError) as exc:
        finetune(small_cfg(iterations=2, reg_p=1.001), make_base(seed=1), reward)
    msg = str(exc.value)
    assert msg.startswith("fine-tuning aborted at iteration 0 (upd): "
                          "non-finite control target at window step 0")
    assert "p = 1.001" in msg


def test_sde_am_requires_quadratic():
    base = make_base()
    with pytest.raises(ConfigError):
        finetune(
            small_cfg(method="sde-am", reg_p=4.0), base, ConstantReward()
        )


def test_all_methods_run_one_iteration():
    base = make_base(seed=7)
    reward = QuadraticWell(center=np.array([1.0]), curvature=1.0)
    for method in ("ode-am", "sde-am", "draft", "refl"):
        cfg = small_cfg(iterations=2, method=method, k_window=3)
        ckpt, rows, timings = finetune(cfg, base, reward)
        assert len(rows) == 2 and len(timings) == 2
        assert np.all(np.isfinite(ckpt.vf.params_flat()))


# -- work per iteration ------------------------------------------------------------

N_WORK = 50
WORK_CASES = (
    # (method, setting,
    #  (plain forwards, taped forwards, backwards, input-only pullbacks))
    [(m, dict(n_truncate=t), (N_WORK + 1, 2 * t - 1, t, t - 1))
     for m in ("ode-am", "sde-am") for t in (1, 10, 50)]
    + [("draft", dict(k_window=k), (N_WORK, k, k, 0)) for k in (1, 5)]
    + [("refl", dict(k_window=k), (N_WORK, 1, 1, 0)) for k in (1, 5)]
)


@pytest.mark.parametrize("method,setting,expected", WORK_CASES)
def test_one_iteration_makes_exactly_the_counted_network_passes(
    monkeypatch, method, setting, expected
):
    # the sampler runs N plain forwards; the matching methods add T - 1
    # adjoint VJPs (a taped forward and an input-only pullback each), one
    # base forward at the window's first step start and T taped theta
    # forwards with their backwards, and the loss reuses the adjoint's base
    # velocities
    counts = {"forward": 0, "forward_tape": 0, "backward": 0, "input_grad": 0}

    def count(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(VelocityField, "forward")
    count(VelocityField, "forward_tape")
    count(GradientTape, "backward")
    count(GradientTape, "input_grad")
    cfg = small_cfg(method=method, n_steps=N_WORK, batch=4, iterations=1, **setting)
    finetune(cfg, make_base(seed=9), QuadraticWell(center=np.array([1.0])))
    assert tuple(counts.values()) == expected


@pytest.fixture
def tile_builds(monkeypatch):
    """(field, rows) of every bias-tile build, in call order."""
    builds = []
    build = VelocityField._tile_biases

    def recording(self, m):
        builds.append((self, m))
        return build(self, m)

    monkeypatch.setattr(VelocityField, "_tile_biases", recording)
    return builds


@pytest.mark.parametrize("method", ["ode-am", "sde-am", "draft", "refl"])
@pytest.mark.parametrize("batch", [4, 64])
def test_fine_tuning_tiles_theta_once_per_update_and_the_base_once_per_run(
    tile_builds, method, batch
):
    # theta's parameters change once per iteration and the base's never;
    # a version's second call at the batch size tiles, and later calls reuse
    base = make_base(seed=9)
    cfg = small_cfg(method=method, batch=batch, iterations=3, k_window=3)
    ckpt, _, _ = finetune(cfg, base, QuadraticWell(center=np.array([1.0])))
    assert [m for vf, m in tile_builds if vf is ckpt.vf] == [batch] * 3
    base_builds = [m for vf, m in tile_builds if vf is base.vf]
    assert base_builds == ([batch] if method in ("ode-am", "sde-am") else [])
    assert len(tile_builds) == 3 + len(base_builds)


@pytest.mark.parametrize("batch", [64, 512])
def test_pretraining_tiles_no_bias(tile_builds, batch):
    # each parameter version serves one taped forward: 512 rows are above
    # the bound, and 64 rows would be tiled only at a second call
    net = NetConfig(state_dim=2, hidden=(12, 12))
    pretrain(small_cfg(batch=batch, iterations=3), GaussianMixture2D.two_modes(), net)
    assert tile_builds == []


@pytest.mark.parametrize("method", ["ode-am", "sde-am", "draft", "refl"])
def test_finetune_at_batch_64_starts_no_thread(thread_starts, method):
    # a fine-tuning batch is far below two sampler blocks, so even with
    # three workers allowed the whole run stays on the calling thread
    cfg = small_cfg(method=method, batch=64, iterations=2, k_window=3)
    finetune(cfg, make_base(seed=5), QuadraticWell(center=np.array([1.0])))
    assert thread_starts == []


def test_write_csv_deterministic(tmp_path):
    rows = [{"iter": 0, "loss": 0.1234567890123}, {"iter": 1, "loss": 2.0}]
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_csv(rows, ("iter", "loss"), p1)
    write_csv(rows, ("iter", "loss"), p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    text = Path(p1).read_text()
    assert text.splitlines()[0] == "iter,loss"
    assert "0.1234567890123" in text


def test_a_pretrain_in_a_child_loads_with_the_in_process_bits(pretrain_in_child):
    # the heavy bases are built this way, at this batch and width: in a
    # spawned child with one BLAS thread, saved, and loaded here
    cfg = small_cfg(batch=512, iterations=40, lr=1e-3)
    for dist in (Gaussian1D(0.5, 2.0), GaussianMixture2D.two_modes()):
        net = NetConfig(state_dim=dist.dim, hidden=(64, 64, 64))
        built, _ = pretrain(cfg, dist, net)
        loaded = pretrain_in_child(cfg, dist, net)
        assert loaded.vf.params_flat().tobytes() == built.vf.params_flat().tobytes()
        assert (loaded.vf.cfg, loaded.seed, loaded.iteration) == (net, cfg.seed, 40)


def test_a_failing_pretrain_in_a_child_fails_with_its_error_text(pretrain_in_child):
    # Adam's first step of about lr sends every parameter to 1e300, and the
    # next forward overflows
    cfg = small_cfg(batch=16, iterations=5, lr=1e300, warmup=0)
    net = NetConfig(state_dim=1, hidden=(8,))
    with np.errstate(all="ignore"):
        with pytest.raises(pytest.fail.Exception, match=r"(?s)NonFiniteError: pretraining aborted"):
            pretrain_in_child(cfg, Gaussian1D(0.0, 1.0), net)
