import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowam.adjoint import (
    BLOWUP_NORM,
    lean_adjoint,
    lean_adjoint_batch,
    verify_adjoint_fd,
)
from flowam.dynamics import _integrate, sample_ode
from flowam.errors import NonFiniteError, ShapeError
from flowam.nnet import ACTIVATIONS, NetConfig, VelocityField
from flowam.oracles import (
    GaussianFlowField,
    GaussianFlowSpec,
    LinearVelocityField,
    rf_adjoint,
)
from flowam.schedules import NOISE_SCHEDULES, step_coeffs
from flowam.tasks import Gaussian1D, LinearProbe, LogDensityTilt, QuadraticWell

MEMORYLESS = NOISE_SCHEDULES["memoryless"]


def zero_sigma(t, eta):
    """sigma = 0 at every step start: a table that no noise schedule gives."""
    return np.zeros_like(t)


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
            # enormous Jacobian
            return self.forward(x, t), 1e3 * np.asarray(w) / traj.times[1]

    with pytest.raises(NonFiniteError):
        lean_adjoint(Amplifier(), traj, huge, 10)


def test_a_nan_adjoint_is_a_blow_up_that_names_its_sample(nan_vjp_field):
    # NaN compares False with the blow-up norm, so a NaN VJP used to pass
    # the guard and leave NaN adjoints for the matching loss
    n, t_count, m = 20, 10, 8
    vf = nan_vjp_field(NetConfig(state_dim=2, hidden=(8, 8)), 3,
                       np.linspace(0.0, 1.0, n + 1)[18], 3)
    rng = np.random.default_rng(3)
    times, states = _integrate(vf, rng.standard_normal((m, 2)), n)
    for coeffs in (None, step_coeffs(MEMORYLESS, n)):
        with pytest.raises(NonFiniteError,
                           match=r"^adjoint blow-up at grid index 17, sample 3$"):
            lean_adjoint_batch(vf, times, states, rng.standard_normal((m, 2)),
                               t_count, coeffs)
    # a window that ends before the bad time reads no NaN
    _, adj = lean_adjoint_batch(vf, times, states, rng.standard_normal((m, 2)), 2)
    assert np.isfinite(adj).all()


def test_a_blow_up_names_the_first_sample_past_the_norm():
    lf = LinearVelocityField([[0.0]])
    times = np.linspace(0.0, 1.0, 11)
    states = np.zeros((11, 3, 1))

    class Amplifier:
        def input_vjp(self, x, t, w):
            return np.zeros_like(x), 1e3 * w / times[1]

    tg = np.array([[1.0], [BLOWUP_NORM / 1.5], [-BLOWUP_NORM / 1.5]])
    with pytest.raises(NonFiniteError, match=r"^adjoint blow-up at grid index 8, sample 1$"):
        lean_adjoint_batch(Amplifier(), times, states, tg, 5)
    _, adj = lean_adjoint_batch(lf, times, states, tg, 5)
    assert np.array_equal(adj, np.broadcast_to(tg, adj.shape))


def test_sde_zero_noise_equals_deterministic():
    lf, traj = linear_traj(n=30)
    det = lean_adjoint(lf, traj, np.array([1.7]), 30)
    _, sde = lean_adjoint_batch(
        lf, traj.times, traj.states[:, None, :], np.array([[1.7]]), 30,
        step_coeffs(zero_sigma, 30),
    )
    np.testing.assert_array_equal(det.adjoints, sde[:, 0, :])


def test_sde_corrected_jacobian_matches_fd():
    # scalar linear base: corrected drift b(x) = (1+c) v(x) - c kappa x;
    # its Jacobian should match dense finite differences to ~1e-5
    a = 0.7
    lf = LinearVelocityField([[a]])
    from flowam.adjoint import _vjp

    eps = 1e-6
    table = step_coeffs(MEMORYLESS, 10)
    for k in (3, 6, 9):
        t = k / 10
        corr, kappa, _ = table[k]

        def drift(x):
            v = a * x
            return v + corr * (v - kappa * x)

        x = 0.8
        fd = (drift(x + eps) - drift(x - eps)) / (2 * eps)
        v, vjp = _vjp(lf, np.array([x]), t, np.array([1.0]), table[k])
        assert vjp[0] == pytest.approx(fd, rel=1e-5)
        assert v[0] == a * x


@pytest.mark.parametrize("reward", [
    QuadraticWell(center=np.array([1.0]), curvature=1.0),
    LinearProbe(direction=np.array([-0.8])),
    LogDensityTilt(target=Gaussian1D(0.3, 0.6)),
], ids=["quadwell", "linear", "tilt"])
def test_verify_adjoint_fd_on_analytic_field(reward):
    spec = GaussianFlowSpec(mu=0.0, sigma=1.0)
    field = GaussianFlowField(spec)
    traj = sample_ode(field, 50, np.array([0.7]))
    for t_index in (1, 25, 47):
        _, _, err = verify_adjoint_fd(field, traj, reward, t_index)
        assert err < 1e-4


def test_verify_adjoint_fd_raises_when_its_reintegration_blows_up():
    # the base trajectory stays at x0, but a state off it gets an infinite
    # velocity: a NaN error would pass gate 2's max(err, e) unseen
    x0 = 0.5

    class Tripwire:
        state_dim = 1

        def forward(self, x, t):
            return np.where(np.atleast_2d(x) == x0, 0.0, np.inf)

        def input_vjp(self, x, t, w):
            return self.forward(x, t), np.zeros_like(w)

    traj = sample_ode(Tripwire(), 10, np.array([x0]))
    reward = QuadraticWell(center=np.array([1.0]), curvature=1.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError, match=r"^non-finite state at step 5, sample 0$"):
            verify_adjoint_fd(Tripwire(), traj, reward, t_index=4)


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
    _, adj = lean_adjoint_batch(lf, t1.times, states, tg, 10)
    a1 = lean_adjoint(lf, t1, tg[0], 10)
    a2 = lean_adjoint(lf, t2, tg[1], 10)
    np.testing.assert_array_equal(a1.window, t1.times[20 - 10 + 1:])
    np.testing.assert_array_equal(adj[:, 0, :], a1.adjoints)
    np.testing.assert_array_equal(adj[:, 1, :], a2.adjoints)


@given(
    seed=st.integers(0, 2**16),
    activation=st.sampled_from(sorted(ACTIVATIONS)),
    dim=st.integers(1, 3),
    hidden=st.lists(st.integers(2, 8), min_size=1, max_size=2),
    n=st.integers(1, 12),
    m=st.integers(1, 3),
    noise=st.sampled_from([None, "memoryless", "one_minus_t"]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_lean_adjoint_is_the_gradient_of_the_discrete_flow_map(
    seed, activation, dim, hidden, n, m, noise, data
):
    # random small MLPs, ODE and SDE: with the noise held fixed, adjoints[i]
    # is d(w . X_N)/dX at grid index N - T + 1 + i, and the base velocities
    # returned for the loss are the base forwards at the window step starts
    t_count = data.draw(st.integers(1, n), label="n_truncate")
    cfg = NetConfig(state_dim=dim, hidden=tuple(hidden), activation=activation,
                    time_features=4)
    vf = VelocityField.init(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    coeffs = noises = None
    if noise is not None:
        coeffs = step_coeffs(NOISE_SCHEDULES[noise], n)
        noises = rng.standard_normal((n, m, dim))
    times, states = _integrate(vf, rng.standard_normal((m, dim)), n, coeffs, noises)
    w = rng.standard_normal((m, dim))
    v_base, adj = lean_adjoint_batch(vf, times, states, w, t_count, coeffs)
    eps = 1e-6
    # the differences cancel digits in proportion to the terminal cost
    atol = 1e-8 * (1.0 + np.max(np.sum(np.abs(w * states[-1]), axis=1)))
    for i in range(t_count):
        start = n - t_count + i
        np.testing.assert_array_equal(v_base[i],
                                      vf.forward(states[start], times[start]))
        k = start + 1
        fd = np.empty((m, dim))
        # a step relative to each row's size keeps rounding small against it
        step = eps * (1.0 + np.max(np.abs(states[k]), axis=1, keepdims=True))
        for j in range(dim):
            e = step * np.eye(dim)[j]
            xu, xd = states[k] + e, states[k] - e
            _, up = _integrate(vf, xu, n, coeffs, noises, start=k)
            _, down = _integrate(vf, xd, n, coeffs, noises, start=k)
            # divide by the step actually taken, which rounds at large |x|
            fd[:, j] = np.sum(w * (up[-1] - down[-1]), axis=1) / (xu - xd)[:, j]
        np.testing.assert_allclose(adj[i], fd, rtol=1e-6, atol=atol)
