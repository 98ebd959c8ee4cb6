"""End-to-end acceptance gates.

Each test prints exactly one PASS/FAIL line with its measured numbers, so a
verbose run doubles as the acceptance report.  Tolerances are pinned; the
heavy pretrained checkpoints come from session fixtures and are shared.
"""

import numpy as np
import pytest

from flowam.adjoint import lean_adjoint, verify_adjoint_fd
from flowam.control import (
    RegularizerSpec,
    check_pmp_optimality,
    control_from_adjoint,
)
from flowam.dynamics import sample_batch, sample_ode
from flowam.evaluation import knn_coverage_recall, wasserstein1_1d
from flowam.oracles import (
    GaussianFlowField,
    GaussianFlowSpec,
    LinearVelocityField,
    ToyDiffusionSpec,
    ToyKind,
    rf_adjoint,
    rf_peak_time,
    rf_relative_strength,
    toy_control_argmax,
    toy_control_component,
)
from flowam.tasks import QuadraticWell
from flowam.train import METRICS_COLUMNS, TrainConfig, finetune, write_csv


def _check(name: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _terminal_samples(vf, n, n_steps, seed, coeffs=None):
    trajs = sample_batch(vf, n_steps, n, seed, coeffs=coeffs)
    return np.stack([t.states[-1] for t in trajs])


# -- 1. closed-form oracle suite ---------------------------------------------------


def test_acceptance_closed_form_suite():
    ok = rf_peak_time(GaussianFlowSpec(0.0, 1.0)) == 0.5
    ok &= rf_peak_time(GaussianFlowSpec(0.0, 2.0)) == 0.8
    spec5 = GaussianFlowSpec(0.0, 5.0)
    r2 = float(rf_relative_strength(spec5, 2.0, 0.0))
    r6 = float(rf_relative_strength(spec5, 6.0, 0.0))
    ok &= abs(r2 - 0.196) < 5e-3 and abs(r6 - 0.722) < 5e-3

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        T = float(rng.uniform(1.0, 20.0))
        eta = float(rng.uniform(0.3, 3.0))
        for kind in (ToyKind.VE, ToyKind.VP):
            spec = ToyDiffusionSpec(kind, T=T, eta=eta)
            grid = np.linspace(0.0, T, 20001)
            cell = grid[1] - grid[0]
            t_grid = grid[np.argmax(toy_control_component(spec, grid))]
            t_closed = max(toy_control_argmax(spec), 0.0)
            worst = max(worst, abs(t_grid - t_closed) / cell)
            ok &= abs(t_grid - t_closed) <= cell
    _check(
        "closed-form oracle suite", bool(ok),
        f"peak times exact, R_2(0)={r2:.4f}, R_6(0)={r6:.4f}, "
        f"argmax worst dev {worst:.2f} grid cells",
    )


# -- 2. adjoint correctness ----------------------------------------------------------


def test_acceptance_adjoint_correctness(base2d_ckpt):
    # (a) numeric adjoint over the exact Gaussian-flow field vs closed form
    spec = GaussianFlowSpec(0.0, 1.0)
    field = GaussianFlowField(spec)
    n = 4000
    traj = sample_ode(field, n, x0=np.array([0.8]))
    a1 = np.array([1.3])
    trace = lean_adjoint(field, traj, a1, n_truncate=n)
    exact = rf_adjoint(spec, 1.3, trace.window)
    err_a = float(np.max(np.abs(trace.adjoints[:, 0] - exact) / np.abs(exact)))

    # (b) finite-difference check on the pretrained 2D model
    reward = QuadraticWell(center=np.array([2.0, 0.0]), curvature=1.0)
    traj2 = sample_ode(base2d_ckpt.vf, 50, x0=np.array([0.3, -0.7]))
    err_b = 0.0
    for t_index in (20, 35, 48):
        _, _, e = verify_adjoint_fd(base2d_ckpt.vf, traj2, reward, t_index)
        err_b = max(err_b, e)

    # (c) exponential growth through a linear field: a(0.3) = 2 e^{0.7}
    lin = LinearVelocityField([[1.0]])
    n = 2000
    traj3 = sample_ode(lin, n, x0=np.array([1.0]))
    trace3 = lean_adjoint(lin, traj3, np.array([2.0]), n_truncate=n - 600 + 1)
    got = float(trace3.adjoints[0, 0])
    want = 2.0 * np.exp(0.7)
    err_c = abs(got - want) / want

    ok = err_a < 1e-3 and err_b < 1e-3 and err_c < 1e-3
    _check(
        "adjoint correctness", ok,
        f"closed-form rel err {err_a:.2e}, fd rel err {err_b:.2e}, "
        f"2e^0.7 rel err {err_c:.2e}",
    )


# -- 3. optimality-condition property -------------------------------------------------


def test_acceptance_pmp_stationarity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for p in (2.0, 4.0, 6.0):
        reg = RegularizerSpec(p=p, lam=float(rng.uniform(0.2, 3.0)))
        for _ in range(1000):
            dim = int(rng.integers(1, 5))
            a = rng.normal(scale=rng.uniform(0.1, 5.0), size=dim)
            u = control_from_adjoint(reg, a)
            worst = max(worst, check_pmp_optimality(reg, a, u))
    _check(
        "optimality-condition stationarity", worst < 1e-10,
        f"worst residual {worst:.2e} over 3000 random adjoints",
    )


# -- 4. tilted-distribution reproduction ----------------------------------------------


def test_acceptance_tilted_distribution(base1d_ckpt):
    from flowam.schedules import NOISE_SCHEDULES, step_coeffs

    ref_rng = np.random.default_rng(123)
    base_samples = _terminal_samples(base1d_ckpt.vf, 100000, 50, 90)
    w1_base = wasserstein1_1d(base_samples, ref_rng.standard_normal(100000))

    cfg = TrainConfig(
        method="sde-am", n_steps=50, n_truncate=50, batch=128, iterations=600,
        lr=3e-4, warmup=10, grad_clip=1.0, reg_p=2.0, reg_lam=1.0,
        noise="memoryless", seed=0,
    )
    reward = QuadraticWell(center=np.array([2.0]), curvature=1.0)
    tuned, _, _ = finetune(cfg, base1d_ckpt, reward)

    gen = _terminal_samples(
        tuned.vf, 100000, 50, 91,
        coeffs=step_coeffs(NOISE_SCHEDULES["memoryless"], 50),
    )
    # exponential tilt of N(0,1) by the quadratic reward: N(1, 0.5)
    target = 1.0 + np.sqrt(0.5) * ref_rng.standard_normal(100000)
    w1_tilt = wasserstein1_1d(gen, target)
    ok = w1_base < 0.03 and w1_tilt < 0.08
    _check(
        "tilted-distribution reproduction", ok,
        f"base W1 {w1_base:.4f} < 0.03, tilted W1 {w1_tilt:.4f} < 0.08, "
        f"sample mean {gen.mean():.3f}, var {gen.var():.3f}",
    )


# -- 5. truncation speedup -------------------------------------------------------------


def test_acceptance_truncation_speedup(base1d_ckpt):
    reward = QuadraticWell(center=np.array([1.0]), curvature=1.0)

    def timing(n_truncate):
        cfg = TrainConfig(
            method="ode-am", n_steps=50, n_truncate=n_truncate, batch=64,
            iterations=25, lr=1e-6, warmup=1, grad_clip=1.0, seed=0,
        )
        _, _, rows = finetune(cfg, base1d_ckpt, reward)
        rows = rows[5:]  # discard warm-up jitter
        total = np.mean(
            [r["phase_sim_ms"] + r["phase_adj_ms"] + r["phase_upd_ms"] for r in rows]
        )
        active = np.mean([r["phase_adj_ms"] + r["phase_upd_ms"] for r in rows])
        return float(total), float(active)

    total_1, _ = timing(1)
    total_10, active_10 = timing(10)
    total_50, active_50 = timing(50)
    ratio_total = total_50 / total_1
    ratio_active = active_50 / active_10  # linear scaling predicts 5
    ok = ratio_total >= 3.0 and 3.5 <= ratio_active <= 6.5
    _check(
        "truncation speedup", ok,
        f"per-iteration total T=50/T=1 ratio {ratio_total:.2f} >= 3, "
        f"active-phase T=50/T=10 ratio {ratio_active:.2f} vs linear 5",
    )


# -- 6. alignment vs diversity trade-off ------------------------------------------------


def test_acceptance_alignment_diversity_tradeoff(base2d_ckpt):
    reward = QuadraticWell(center=np.array([2.0, 0.0]), curvature=1.0)

    def run(method, p, lam, seed):
        cfg = TrainConfig(
            method=method, n_steps=50, n_truncate=10, batch=64, iterations=300,
            lr=3e-4, warmup=10, grad_clip=1.0, reg_p=p, reg_lam=lam,
            noise="memoryless", seed=seed, k_window=1,
        )
        tuned, _, _ = finetune(cfg, base2d_ckpt, reward)
        gen = _terminal_samples(tuned.vf, 1000, 50, 777)
        cov, _ = knn_coverage_recall(gen, ref, k=5)
        rew = float(np.mean([reward.value(x) for x in gen]))
        return rew, cov

    ref = _terminal_samples(base2d_ckpt.vf, 1000, 50, 778)
    base_gen = _terminal_samples(base2d_ckpt.vf, 1000, 50, 777)
    base_reward = float(np.mean([reward.value(x) for x in base_gen]))

    variants = {
        "ode-am p=2": ("ode-am", 2.0, 0.5),
        "ode-am p=6": ("ode-am", 6.0, 1.0),
        "sde-am p=2": ("sde-am", 2.0, 0.5),
        "draft-1": ("draft", 2.0, 1.0),
    }
    rewards = {k: [] for k in variants}
    coverages = {k: [] for k in variants}
    for seed in (0, 1, 2):
        for name, (method, p, lam) in variants.items():
            rew, cov = run(method, p, lam, seed)
            rewards[name].append(rew)
            coverages[name].append(cov)
    mean_rew = {k: float(np.mean(v)) for k, v in rewards.items()}
    mean_cov = {k: float(np.mean(v)) for k, v in coverages.items()}

    raised = all(mean_rew[k] > base_reward for k in variants)
    retained = (
        mean_cov["ode-am p=2"] >= mean_cov["draft-1"]
        and mean_cov["ode-am p=6"] >= mean_cov["draft-1"]
    )
    detail = (
        f"base reward {base_reward:.2f}; "
        + "; ".join(
            f"{k}: reward {mean_rew[k]:.2f} cov {mean_cov[k]:.2f}" for k in variants
        )
    )
    _check("alignment-diversity trade-off", raised and retained, detail)


# -- 7. reproducibility gate -------------------------------------------------------------


def test_acceptance_reproducibility(base2d_ckpt, tmp_path):
    reward = QuadraticWell(center=np.array([2.0, 0.0]), curvature=1.0)
    cfg = TrainConfig(
        method="ode-am", n_steps=50, n_truncate=10, batch=64, iterations=40,
        lr=3e-4, warmup=10, grad_clip=1.0, seed=0,
    )
    blobs = []
    for tag in ("a", "b"):
        _, rows, _ = finetune(cfg, base2d_ckpt, reward)
        path = tmp_path / f"metrics_{tag}.csv"
        write_csv(rows, METRICS_COLUMNS, str(path))
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    _check(
        "reproducibility", ok,
        f"repeated run metrics byte-identical ({len(blobs[0])} bytes)",
    )
