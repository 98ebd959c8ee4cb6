import numpy as np
import pytest

from flowam.adjoint import (
    BLOWUP_NORM,
    lean_adjoint,
    lean_adjoint_batch,
    verify_adjoint_fd,
)
from flowam.dynamics import sample_ode
from flowam.errors import NonFiniteError, ShapeError
from flowam.oracles import (
    GaussianFlowField,
    GaussianFlowSpec,
    LinearVelocityField,
    rf_adjoint,
)
from flowam.schedules import NOISE_SCHEDULES, SCHEDULES, step_coeffs
from flowam.tasks import QuadraticWell

SCHED = SCHEDULES["linear"]
MEMORYLESS = NOISE_SCHEDULES["memoryless"]
ZERO = NOISE_SCHEDULES["zero"]


def linear_traj(a=0.7, n=100, x0=1.0):
    lf = LinearVelocityField([[a]])
    return lf, sample_ode(lf, n, np.array([x0]))


def test_zero_terminal_gradient_gives_zero_trace():
    lf, traj = linear_traj()
    trace = lean_adjoint(lf, traj, np.array([0.0]), 50)
    assert np.all(trace.adjoints == 0.0)


def test_window_length_one_is_terminal_condition():
    lf, traj = linear_traj()
    trace = lean_adjoint(lf, traj, np.array([2.5]), 1)
    assert trace.adjoints.shape == (1, 1)
    np.testing.assert_array_equal(trace.adjoints[0], [2.5])
    np.testing.assert_array_equal(trace.window, [1.0])


def test_linear_field_exponential_adjoint():
    # closed form a(t) = a(1) e^{0.7 (1-t)}; full horizon at N=2000
    lf, traj = linear_traj(n=2000)
    trace = lean_adjoint(lf, traj, np.array([2.0]), 2000)
    target = 2.0 * np.exp(0.7)
    assert trace.adjoints[0, 0] == pytest.approx(target, rel=1e-3)
    # interior probes against the exponential too
    for idx in [500, 1000, 1500]:
        t = trace.window[idx]
        assert trace.adjoints[idx, 0] == pytest.approx(
            2.0 * np.exp(0.7 * (1.0 - t)), rel=1e-3
        )


def test_window_times_grid():
    lf, traj = linear_traj(n=10)
    trace = lean_adjoint(lf, traj, np.array([1.0]), 4)
    np.testing.assert_allclose(trace.window, [0.7, 0.8, 0.9, 1.0], atol=1e-12)
    assert trace.adjoints.shape == (4, 1)


def test_truncation_prefix_bit_exact():
    lf, traj = linear_traj(n=60)
    full = lean_adjoint(lf, traj, np.array([1.3]), 60)
    for t_count in (1, 7, 30):
        part = lean_adjoint(lf, traj, np.array([1.3]), t_count)
        np.testing.assert_array_equal(part.adjoints, full.adjoints[-t_count:])
        np.testing.assert_array_equal(part.window, full.window[-t_count:])


def test_linearity_in_terminal_condition():
    lf, traj = linear_traj(n=40)
    one = lean_adjoint(lf, traj, np.array([1.0]), 40)
    scaled = lean_adjoint(lf, traj, np.array([-3.5]), 40)
    np.testing.assert_allclose(scaled.adjoints, -3.5 * one.adjoints, rtol=1e-12)


def test_gaussian_flow_adjoint_matches_closed_form():
    spec = GaussianFlowSpec(mu=0.0, sigma=1.0)
    field = GaussianFlowField(spec)
    traj = sample_ode(field, 4000, np.array([0.3]))
    trace = lean_adjoint(field, traj, np.array([1.0]), 4000)
    for t_probe in np.linspace(0.05, 0.95, 20):
        idx = int(round(t_probe * 4000)) - 1
        ana = rf_adjoint(spec, 1.0, trace.window[idx])
        assert trace.adjoints[idx, 0] == pytest.approx(ana, rel=1e-3)


def test_bad_truncation_raises():
    lf, traj = linear_traj(n=10)
    with pytest.raises(ShapeError):
        lean_adjoint(lf, traj, np.array([1.0]), 0)
    with pytest.raises(ShapeError):
        lean_adjoint(lf, traj, np.array([1.0]), 11)


def test_nonfinite_terminal_grad_rejected():
    lf, traj = linear_traj(n=10)
    with pytest.raises(NonFiniteError):
        lean_adjoint(lf, traj, np.array([np.nan]), 5)


def test_blowup_guard():
    lf, traj = linear_traj(a=0.0, n=10)
    huge = np.array([BLOWUP_NORM / 1.5])

    class Amplifier:
        state_dim = 1

        def forward(self, x, t):
            return np.zeros_like(np.atleast_2d(x))

        def input_vjp(self, x, t, w):
            return 1e3 * np.asarray(w) / traj.times[1]  # enormous Jacobian

    with pytest.raises(NonFiniteError):
        lean_adjoint(Amplifier(), traj, huge, 10)


def test_sde_zero_noise_equals_deterministic():
    lf, traj = linear_traj(n=30)
    det = lean_adjoint(lf, traj, np.array([1.7]), 30)
    _, sde = lean_adjoint_batch(
        lf, traj.times, traj.states[:, None, :], np.array([[1.7]]), 30,
        step_coeffs(SCHED, ZERO, 30),
    )
    np.testing.assert_array_equal(det.adjoints, sde[:, 0, :])


def test_sde_corrected_jacobian_matches_fd():
    # scalar linear base: corrected drift b(x) = (1+c) v(x) - c kappa x;
    # its Jacobian should match dense finite differences to ~1e-5
    a = 0.7
    lf = LinearVelocityField([[a]])
    from flowam.adjoint import _vjp

    eps = 1e-6
    table = step_coeffs(SCHED, MEMORYLESS, 10)
    for k in (3, 6, 9):
        t = k / 10
        corr, kappa, _ = table[k]

        def drift(x):
            v = a * x
            return v + corr * (v - kappa * x)

        x = 0.8
        fd = (drift(x + eps) - drift(x - eps)) / (2 * eps)
        vjp = _vjp(lf, np.array([x]), t, np.array([1.0]), table[k])
        assert vjp[0] == pytest.approx(fd, rel=1e-5)


def test_verify_adjoint_fd_on_analytic_field():
    spec = GaussianFlowSpec(mu=0.0, sigma=1.0)
    field = GaussianFlowField(spec)
    traj = sample_ode(field, 50, np.array([0.7]))
    reward = QuadraticWell(center=np.array([1.0]), curvature=1.0)
    for t_index in (1, 25, 47):
        _, _, err = verify_adjoint_fd(field, traj, reward, t_index)
        assert err < 1e-4


def test_verify_adjoint_fd_index_bounds():
    lf, traj = linear_traj(n=10)
    reward = QuadraticWell(center=np.array([0.0]), curvature=1.0)
    with pytest.raises(ShapeError):
        verify_adjoint_fd(lf, traj, reward, 0)
    with pytest.raises(ShapeError):
        verify_adjoint_fd(lf, traj, reward, 11)


def test_batch_adjoint_matches_per_trajectory():
    lf = LinearVelocityField([[0.2, 0.1], [0.0, -0.3]])
    t1 = sample_ode(lf, 20, np.array([1.0, 0.0]))
    t2 = sample_ode(lf, 20, np.array([-0.5, 2.0]))
    states = np.stack([t1.states, t2.states], axis=1)
    tg = np.array([[1.0, 0.0], [0.0, 1.0]])
    window, adj = lean_adjoint_batch(lf, t1.times, states, tg, 10)
    a1 = lean_adjoint(lf, t1, tg[0], 10)
    a2 = lean_adjoint(lf, t2, tg[1], 10)
    np.testing.assert_array_equal(adj[:, 0, :], a1.adjoints)
    np.testing.assert_array_equal(adj[:, 1, :], a2.adjoints)
