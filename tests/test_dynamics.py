import numpy as np
import pytest

from flowam.dynamics import (
    replay,
    sample_batch,
    sample_ode,
    sample_sde,
    sample_seed,
    sde_step_coeffs,
)
from flowam.errors import NonFiniteError, ShapeError
from flowam.oracles import LinearVelocityField
from flowam.schedules import NOISE_SCHEDULES, SCHEDULES, T_FLOOR

SCHED = SCHEDULES["linear"]
MEMORYLESS = NOISE_SCHEDULES["memoryless"]
ZERO = NOISE_SCHEDULES["zero"]


def test_ode_linear_field_matches_exponential():
    # dx/dt = 0.7 x: Euler at N=2000 should be close to e^0.7
    lf = LinearVelocityField([[0.7]])
    traj = sample_ode(lf, 2000, np.array([1.0]))
    assert traj.states[-1][0] == pytest.approx(np.exp(0.7), rel=5e-4)


def test_trajectory_shapes_and_grid():
    lf = LinearVelocityField([[0.0, -1.0], [1.0, 0.0]])
    traj = sample_ode(lf, 10, np.array([1.0, 0.0]))
    assert traj.times.shape == (11,)
    assert traj.states.shape == (11, 2)
    assert traj.noises.shape == (0, 2)
    np.testing.assert_allclose(np.diff(traj.times), 0.1, rtol=1e-12)
    assert traj.n_steps == 10 and traj.dim == 2


def test_ode_rejects_bad_step_count():
    lf = LinearVelocityField([[0.0]])
    with pytest.raises(ShapeError):
        sample_ode(lf, 0, np.array([1.0]))


def test_sde_step_coeffs_clipping_and_memoryless_correction():
    # memoryless: sigma^2 = 2 eta so the correction factor is exactly 1
    corr, kappa, sig = sde_step_coeffs(SCHED, MEMORYLESS, 0.5)
    assert corr == pytest.approx(1.0)
    assert kappa == pytest.approx(2.0)
    assert sig == pytest.approx(np.sqrt(2.0))
    # t clipped away from both endpoints
    _, kappa0, _ = sde_step_coeffs(SCHED, MEMORYLESS, 0.0)
    assert kappa0 == pytest.approx(1.0 / T_FLOOR)
    corr1, _, _ = sde_step_coeffs(SCHED, MEMORYLESS, 1.0)
    assert np.isfinite(corr1)


def test_zero_noise_sde_equals_ode():
    lf = LinearVelocityField([[0.4]])
    ode = sample_ode(lf, 50, np.array([1.0]))
    sde = sample_sde(lf, SCHED, ZERO, 50, np.array([1.0]), seed=9)
    np.testing.assert_array_equal(sde.states, ode.states)
    assert sde.noises.shape == (50, 1)
    assert np.all(sde.noises == 0.0)


def test_sde_seed_determinism():
    lf = LinearVelocityField([[-0.5]])
    a = sample_sde(lf, SCHED, MEMORYLESS, 30, np.array([0.3]), seed=7)
    b = sample_sde(lf, SCHED, MEMORYLESS, 30, np.array([0.3]), seed=7)
    np.testing.assert_array_equal(a.states, b.states)
    c = sample_sde(lf, SCHED, MEMORYLESS, 30, np.array([0.3]), seed=8)
    assert not np.array_equal(a.states, c.states)


def test_sde_noise_shape_validation():
    lf = LinearVelocityField([[0.0]])
    with pytest.raises(ShapeError):
        sample_sde(
            lf, SCHED, MEMORYLESS, 10, np.array([0.0]), noises=np.zeros((5, 1))
        )


def test_replay_reproduces_sde_bit_exactly():
    lf = LinearVelocityField([[-0.3]])
    traj = sample_sde(lf, SCHED, MEMORYLESS, 25, np.array([1.2]), seed=4)
    again = replay(lf, traj, sched=SCHED, ns=MEMORYLESS)
    np.testing.assert_array_equal(again.states, traj.states)


def test_replay_reproduces_ode():
    lf = LinearVelocityField([[0.2]])
    traj = sample_ode(lf, 25, np.array([0.5]))
    np.testing.assert_array_equal(replay(lf, traj).states, traj.states)


def test_sample_batch_worker_count_never_changes_results():
    lf = LinearVelocityField([[0.1, 0.0], [0.0, -0.2]])
    one = sample_batch(lf, 20, 17, 42, sched=SCHED, ns=MEMORYLESS, workers=1)
    four = sample_batch(lf, 20, 17, 42, sched=SCHED, ns=MEMORYLESS, workers=4)
    for a, b in zip(one, four):
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.noises, b.noises)


def test_sample_batch_matches_single_sample_streams():
    # sample i of a batch must equal a lone run seeded with the same stream
    lf = LinearVelocityField([[0.1]])
    batch = sample_batch(lf, 15, 4, 7, sched=SCHED, ns=MEMORYLESS)
    for i in (0, 3):
        rng = sample_seed(7, i)
        x0 = rng.standard_normal(1)
        noises = rng.standard_normal((15, 1))
        solo = sample_sde(lf, SCHED, MEMORYLESS, 15, x0, noises=noises)
        np.testing.assert_array_equal(batch[i].states, solo.states)


def test_nonfinite_state_aborts():
    class Exploder:
        state_dim = 1

        def forward(self, x, t):
            return np.full_like(np.atleast_2d(x), np.inf)

    with pytest.raises(NonFiniteError):
        sample_ode(Exploder(), 5, np.array([1.0]))
