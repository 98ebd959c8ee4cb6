import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowam.adjoint import lean_adjoint, lean_adjoint_batch
from flowam.control import (
    EPS_ADJOINT,
    RegularizerSpec,
    am_det_loss_and_grad,
    am_sde_loss_and_grad,
    check_pmp_optimality,
    control_from_adjoint,
    draft_loss_and_grad,
    refl_loss_and_grad,
)
from flowam.dynamics import sample_batch, sample_ode
from flowam.errors import ConfigError, NonFiniteError, ShapeError, SingularityError
from flowam.nnet import NetConfig, VelocityField, layer_views
from flowam.schedules import NOISE_SCHEDULES, step_coeffs
from flowam.tasks import ConstantReward, LinearProbe, QuadraticWell

MEMORYLESS = NOISE_SCHEDULES["memoryless"]


def zero_sigma(t, eta):
    """sigma = 0 at every step start: a table that no noise schedule gives."""
    return np.zeros_like(t)


# -- control map ------------------------------------------------------------


def test_quadratic_map_is_negated_adjoint():
    reg = RegularizerSpec(p=2.0, lam=1.0)
    np.testing.assert_allclose(
        control_from_adjoint(reg, np.array([3.0, 4.0])), [-3.0, -4.0]
    )


def test_quartic_map_hand_value():
    reg = RegularizerSpec(p=4.0, lam=1.0)
    u = control_from_adjoint(reg, np.array([3.0, 4.0]))
    np.testing.assert_allclose(u, [-1.025986, -1.367981], atol=1e-6)


def test_zero_adjoint_maps_to_zero():
    reg = RegularizerSpec(p=6.0, lam=1.0)
    np.testing.assert_array_equal(control_from_adjoint(reg, np.zeros(3)), np.zeros(3))
    tiny = np.full(3, 1e-14)
    np.testing.assert_array_equal(control_from_adjoint(reg, tiny), np.zeros(3))


def test_map_by_numeric_minimization():
    # u* minimizes f(||u||) + a.u; compare against a dense grid minimum
    reg = RegularizerSpec(p=4.0, lam=2.0)
    a = np.array([1.0, -2.0])
    u_star = control_from_adjoint(reg, a)
    best = None
    for r in np.linspace(0.01, 5.0, 400):
        u = -r * a / np.linalg.norm(a)
        val = r**4 / (4 * reg.lam) + a @ u
        if best is None or val < best[0]:
            best = (val, u)
    np.testing.assert_allclose(u_star, best[1], atol=2e-2)


def test_invalid_regularizer_rejected():
    with pytest.raises(ConfigError):
        RegularizerSpec(p=1.0)
    with pytest.raises(ConfigError):
        RegularizerSpec(p=2.0, lam=0.0)


def test_pmp_residual_zero_at_optimum_examples():
    rng = np.random.default_rng(1)
    for p in (2.0, 4.0, 6.0):
        reg = RegularizerSpec(p=p, lam=1.0)
        for _ in range(20):
            a = rng.standard_normal(3)
            u = control_from_adjoint(reg, a)
            assert check_pmp_optimality(reg, a, u) < 1e-10


def test_pmp_residual_for_scaled_control():
    reg = RegularizerSpec(p=2.0, lam=1.0)
    a = np.array([1.0, 0.0])
    u = 2.0 * control_from_adjoint(reg, a)
    assert check_pmp_optimality(reg, a, u) == pytest.approx(1.0)


def test_pmp_zero_zero():
    reg = RegularizerSpec(p=2.0)
    assert check_pmp_optimality(reg, np.zeros(2), np.zeros(2)) == 0.0


def test_pmp_shape_mismatch():
    reg = RegularizerSpec()
    with pytest.raises(ShapeError):
        check_pmp_optimality(reg, np.zeros(2), np.zeros(3))


@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=4),
    st.sampled_from([1.5, 2.0, 3.0, 6.0]),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=150)
def test_control_antiparallel_and_norm_law(a_list, p, lam):
    a = np.array(a_list)
    if np.linalg.norm(a) < 1e-6:
        return
    reg = RegularizerSpec(p=p, lam=lam)
    u = control_from_adjoint(reg, a)
    cos = (u @ a) / (np.linalg.norm(u) * np.linalg.norm(a))
    assert cos == pytest.approx(-1.0, abs=1e-9)
    # ||u*|| = (lam ||a||)^{1/(p-1)}
    assert np.linalg.norm(u) == pytest.approx(
        (lam * np.linalg.norm(a)) ** (1.0 / (p - 1.0)), rel=1e-9
    )


@given(
    # nearer p = 1, lam ** (1 / (p - 1)) overflows a Python float
    st.one_of(st.sampled_from([2.0, 4.0, 6.0, 8.0]), st.floats(1.05, 8.0)),
    st.floats(min_value=0.1, max_value=10.0),
    st.tuples(st.integers(1, 12), st.integers(1, 70), st.integers(1, 3)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_window_control_equals_per_slice_calls_bitwise(p, lam, shape, seed):
    # _matching_loss maps the whole (T, m, dim) window in one call
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-15.0, 2.0, shape[:2] + (1,))
    a[rng.random(shape[:2]) < 0.1] = 0.0
    a[0, 0] *= 0.5 * EPS_ADJOINT / max(np.linalg.norm(a[0, 0]), EPS_ADJOINT)
    reg = RegularizerSpec(p=p, lam=lam)
    whole = control_from_adjoint(reg, a)
    for i in range(shape[0]):
        assert whole[i].tobytes() == control_from_adjoint(reg, a[i]).tobytes()


def test_scale_covariance_general_p():
    reg = RegularizerSpec(p=4.0, lam=1.0)
    a = np.array([0.3, -0.7, 1.1])
    for c in (0.5, 2.0, 7.0):
        nu = np.linalg.norm(control_from_adjoint(reg, c * a))
        base = np.linalg.norm(control_from_adjoint(reg, a))
        assert nu == pytest.approx(c ** (1.0 / 3.0) * base, rel=1e-12)


# -- matching losses ---------------------------------------------------------


def _backward_with_grad(tape, vf, w):
    """(parameter gradient added into fresh zeros, input gradient) of one
    pull back: a step's gradient as a vector of its own."""
    grad = np.zeros(vf.n_params)
    return grad, tape.backward(w, into=layer_views(vf.cfg, grad))


def make_fields(dim=1, seed=0):
    cfg = NetConfig(state_dim=dim, hidden=(12, 12), time_features=4)
    base = VelocityField.init(cfg, seed=seed)
    theta = base.copy()
    return base, theta


def test_memoryless_coefficient_sqrt2_at_unit_eta():
    # eta = 1 at t = 0.5 on the linear schedule; the loss coefficient
    # (sigma^2 + 2 eta) / (2 sigma eta) is (corr + 1) / sigma
    corr, _, sig = step_coeffs(MEMORYLESS, 4)[2]
    assert (corr + 1.0) / sig == pytest.approx(np.sqrt(2.0))


def batch_of_one(traj, trace):
    """(times, states, adjoints) of one trajectory as an m = 1 batch."""
    return traj.times, traj.states[:, None, :], trace.adjoints[:, None, :]


def base_window(base, traj, t_count):
    """(T, 1, dim) base velocities at the window's step starts."""
    n = traj.n_steps
    return np.stack([base.forward(traj.states[k][None, :], traj.times[k])
                     for k in range(n - t_count, n)])


def test_det_loss_zero_when_matched_and_zero_adjoint():
    base, theta = make_fields()
    traj = sample_ode(base, 20, np.array([0.4]))
    trace = lean_adjoint(base, traj, np.array([0.0]), 5)
    reg = RegularizerSpec()
    loss, grads = am_det_loss_and_grad(theta, base_window(base, traj, 5),
                                       *batch_of_one(traj, trace), reg)
    assert loss == 0.0
    assert np.all(grads == 0.0)


def test_det_loss_equals_target_norm_at_base():
    base, theta = make_fields()
    traj = sample_ode(base, 20, np.array([0.4]))
    trace = lean_adjoint(base, traj, np.array([1.5]), 5)
    reg = RegularizerSpec(p=2.0, lam=1.0)
    loss, _ = am_det_loss_and_grad(theta, base_window(base, traj, 5),
                                   *batch_of_one(traj, trace), reg)
    expected = float(np.mean(np.sum(trace.adjoints**2, axis=-1)))
    assert loss == pytest.approx(expected, rel=1e-12)


def test_stochastic_loss_reduces_to_sigma_adjoint_at_base():
    base, theta = make_fields()
    traj = sample_ode(base, 20, np.array([0.4]))
    trace = lean_adjoint(base, traj, np.array([0.8]), 5)
    reg = RegularizerSpec(p=2.0, lam=1.0)
    n = traj.n_steps
    table = step_coeffs(MEMORYLESS, n)
    loss, _ = am_sde_loss_and_grad(
        theta, base_window(base, traj, 5), table, *batch_of_one(traj, trace), reg
    )
    terms = []
    for i in range(5):
        k = n - 5 + 1 + i
        _, _, sig = table[k - 1]
        terms.append(np.sum((sig * trace.adjoints[i]) ** 2))
    assert loss == pytest.approx(float(np.mean(terms)), rel=1e-12)


def test_stochastic_loss_requires_quadratic():
    base, theta = make_fields()
    traj = sample_ode(base, 10, np.array([0.1]))
    trace = lean_adjoint(base, traj, np.array([1.0]), 3)
    with pytest.raises(ConfigError):
        am_sde_loss_and_grad(
            theta, base_window(base, traj, 3), step_coeffs(MEMORYLESS, 10),
            *batch_of_one(traj, trace), RegularizerSpec(p=4.0),
        )


def test_stochastic_loss_rejects_zero_sigma_on_window():
    base, theta = make_fields()
    traj = sample_ode(base, 10, np.array([0.1]))
    trace = lean_adjoint(base, traj, np.array([1.0]), 3)
    with pytest.raises(SingularityError, match="sigma"):
        am_sde_loss_and_grad(
            theta, base_window(base, traj, 3),
            step_coeffs(zero_sigma, 10),
            *batch_of_one(traj, trace), RegularizerSpec(),
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_matching_loss_names_an_overflowing_control_target():
    # near p = 1 the factor |a|^((2-p)/(p-1)) overflows; the map itself
    # returns the overflow, and the loss names where it happened
    reg = RegularizerSpec(p=1.001, lam=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        u = control_from_adjoint(reg, [[3.0, 0.0]])
    assert np.isneginf(u[0, 0]) and np.isnan(u[0, 1])
    base, theta = make_fields()
    traj = sample_ode(base, 10, np.array([0.1]))
    trace = lean_adjoint(base, traj, np.array([3.0]), 3)
    with pytest.raises(NonFiniteError, match=r"^non-finite control target at window "
                       r"step 0 \(grid index 7, sample 0, p = 1\.001\)$"):
        am_det_loss_and_grad(theta, base_window(base, traj, 3),
                             *batch_of_one(traj, trace), reg)


def test_matching_loss_rejects_base_velocities_off_the_window():
    base, theta = make_fields()
    traj = sample_ode(base, 10, np.array([0.1]))
    trace = lean_adjoint(base, traj, np.array([1.0]), 3)
    with pytest.raises(ShapeError, match="base velocities"):
        am_det_loss_and_grad(theta, base_window(base, traj, 4),
                             *batch_of_one(traj, trace), RegularizerSpec())


def test_det_loss_grad_matches_fd():
    base, theta = make_fields(seed=3)
    traj = sample_ode(theta, 12, np.array([0.6]))
    trace = lean_adjoint(base, traj, np.array([1.2]), 4)
    reg = RegularizerSpec(p=2.0, lam=0.7)
    states = traj.states[:, None, :]
    adjs = trace.adjoints[:, None, :]
    vb = base_window(base, traj, 4)
    loss, g = am_det_loss_and_grad(theta, vb, traj.times, states, adjs, reg)
    flat = theta.params_flat()
    eps = 1e-6
    rng = np.random.default_rng(0)
    for i in rng.choice(flat.size, size=8, replace=False):
        p = flat.copy()
        p[i] += eps
        theta.set_params_flat(p)
        lp, _ = am_det_loss_and_grad(theta, vb, traj.times, states, adjs, reg)
        p[i] -= 2 * eps
        theta.set_params_flat(p)
        lm, _ = am_det_loss_and_grad(theta, vb, traj.times, states, adjs, reg)
        theta.set_params_flat(flat)
        assert g[i] == pytest.approx((lp - lm) / (2 * eps), rel=1e-4, abs=1e-8)


def test_sde_loss_grad_matches_fd():
    base, theta = make_fields(seed=5)
    traj = sample_ode(theta, 12, np.array([0.2]))
    trace = lean_adjoint(base, traj, np.array([0.9]), 4)
    reg = RegularizerSpec(p=2.0, lam=1.0)
    states = traj.states[:, None, :]
    adjs = trace.adjoints[:, None, :]
    table = step_coeffs(MEMORYLESS, 12)
    vb = base_window(base, traj, 4)
    loss, g = am_sde_loss_and_grad(
        theta, vb, table, traj.times, states, adjs, reg
    )
    flat = theta.params_flat()
    eps = 1e-6
    rng = np.random.default_rng(2)
    for i in rng.choice(flat.size, size=8, replace=False):
        p = flat.copy()
        p[i] += eps
        theta.set_params_flat(p)
        lp, _ = am_sde_loss_and_grad(theta, vb, table, traj.times, states,
                                     adjs, reg)
        p[i] -= 2 * eps
        theta.set_params_flat(p)
        lm, _ = am_sde_loss_and_grad(theta, vb, table, traj.times, states,
                                     adjs, reg)
        theta.set_params_flat(flat)
        assert g[i] == pytest.approx((lp - lm) / (2 * eps), rel=1e-4, abs=1e-8)


# -- reward backprop baselines ------------------------------------------------


def _matching_reference(theta, v_base, times, states, adjoints, reg, coef, scale):
    """The matching loss as per-step expressions, each step's gradient a
    vector of its own added to a zero sum."""
    t_count, m = adjoints.shape[:2]
    first = times.shape[0] - 1 - t_count
    controls = control_from_adjoint(reg, adjoints)
    grads, total, denom = np.zeros(theta.n_params), 0.0, float(t_count * m)
    for i in range(t_count):
        vt, tape = theta.forward_tape(states[first + i], times[first + i])
        resid = coef[i] * (vt - v_base[i]) - scale[i] * controls[i]
        total += float(np.sum(resid * resid))
        g, _ = _backward_with_grad(tape, theta, 2.0 * coef[i] * resid / denom)
        grads += g
    return total / denom, grads


@pytest.mark.parametrize("method", ["ode-am", "sde-am"])
@pytest.mark.parametrize("t_count", [1, 3, 50])
@pytest.mark.parametrize("m", [1, 4, 64])
def test_matching_losses_give_the_per_step_expressions_bytes(method, t_count, m):
    n = 50
    base, theta = make_fields(dim=2, seed=t_count + m)
    theta.set_params_flat(theta.params + 0.05 * np.random.default_rng(m).standard_normal(
        theta.n_params))
    table = step_coeffs(MEMORYLESS, n) if method == "sde-am" else None
    trajs = sample_batch(theta, n, m, 7, table)
    times, states = trajs[0].times, np.stack([t.states for t in trajs], axis=1)
    reward = QuadraticWell(center=np.array([1.0, 0.0]))
    v_base = np.empty((t_count, m, 2))
    _, adjoints = lean_adjoint_batch(base, times, states, -reward.grad(states[-1]),
                                     t_count, table, v_base)
    reg = RegularizerSpec()
    if method == "ode-am":
        got = am_det_loss_and_grad(theta, v_base, times, states, adjoints, reg)
        coef = scale = np.ones(t_count)
    else:
        got = am_sde_loss_and_grad(theta, v_base, table, times, states, adjoints, reg)
        corr, _, sig = table[-t_count:].T
        coef, scale = (corr + 1.0) / sig, sig
    loss, grads = _matching_reference(theta, v_base, times, states, adjoints, reg,
                                      coef, scale)
    assert got[0] == loss
    assert got[1].tobytes() == grads.tobytes()


def test_draft_gives_the_summed_step_vectors_bytes():
    _, theta = make_fields(dim=2, seed=6)
    trajs = sample_batch(theta, 12, 16, 3)
    times, states = trajs[0].times, np.stack([t.states for t in trajs], axis=1)
    reward = QuadraticWell(center=np.array([1.0, 0.0]))
    loss, grads = draft_loss_and_grad(theta, times, states, reward, 5)
    h, x, tapes = times[1] - times[0], states[7].copy(), []
    for j in range(7, 12):
        v, tape = theta.forward_tape(x, times[j])
        tapes.append(tape)
        x = x + h * v
    want, w = np.zeros(theta.n_params), -reward.grad(x) / 16
    for tape in reversed(tapes):
        g, input_grad = _backward_with_grad(tape, theta, h * w)
        want += g
        w = w + input_grad
    assert loss == -float(np.mean(reward.value(x)))
    assert grads.tobytes() == want.tobytes()


@pytest.mark.parametrize("k_window", [1, 3, 12])
@pytest.mark.parametrize("reward", [QuadraticWell(center=np.array([1.0, 0.0])),
                                    LinearProbe(direction=np.array([0.6, -0.8]))],
                         ids=["quadwell", "linear-off-axis"])
def test_refl_gives_the_one_tape_expression_bytes(k_window, reward):
    _, theta = make_fields(dim=2, seed=6)
    trajs = sample_batch(theta, 12, 33, 3)
    times, states = trajs[0].times, np.stack([t.states for t in trajs], axis=1)
    loss, grads = refl_loss_and_grad(theta, times, states, reward, k_window,
                                     np.random.default_rng(k_window))
    # one tape at the drawn step start, its gradient a fresh vector
    j = 12 - k_window + int(np.random.default_rng(k_window).integers(k_window))
    t = times[j]
    v, tape = theta.forward_tape(states[j], t)
    x1 = states[j] + (1.0 - t) * v
    want, _ = _backward_with_grad(tape, theta, (1.0 - t) * (-reward.grad(x1) / 33))
    assert loss == -float(np.mean(reward.value(x1)))
    assert grads.tobytes() == want.tobytes()


def test_draft_constant_reward_zero_gradient():
    _, theta = make_fields(seed=1)
    traj = sample_ode(theta, 10, np.array([0.3]))
    loss, grads = draft_loss_and_grad(
        theta, traj.times, traj.states[:, None, :], ConstantReward(2.0), 2
    )
    assert loss == -2.0
    assert np.all(grads == 0.0)


def test_draft_one_step_linear_reward_hand_gradient():
    # k=1, r(x) = c x: dL/dtheta = -h c d v(X_{N-1})/dtheta
    _, theta = make_fields(seed=2)
    traj = sample_ode(theta, 10, np.array([0.3]))
    c = 1.7
    reward = LinearProbe(direction=np.array([c]))
    _, grads = draft_loss_and_grad(
        theta, traj.times, traj.states[:, None, :], reward, 1
    )
    h = 0.1
    out, tape = theta.forward_tape(traj.states[-2][None, :], traj.times[-2])
    expected, _ = _backward_with_grad(tape, theta, np.array([[-h * c]]))
    np.testing.assert_allclose(grads, expected, rtol=1e-12)


def test_draft_full_horizon_matches_fd():
    # k=N on a 2-step grid equals the full differentiable-simulation gradient
    _, theta = make_fields(seed=4)
    traj = sample_ode(theta, 2, np.array([0.5]))
    reward = QuadraticWell(center=np.array([1.0]), curvature=1.0)
    states = traj.states[:, None, :]
    loss, g = draft_loss_and_grad(theta, traj.times, states, reward, 2)
    flat = theta.params_flat()
    eps = 1e-6
    rng = np.random.default_rng(3)
    for i in rng.choice(flat.size, size=10, replace=False):
        vals = []
        for s in (eps, -eps):
            p = flat.copy()
            p[i] += s
            theta.set_params_flat(p)
            new = sample_ode(theta, 2, np.array([0.5]))
            vals.append(-reward.value(new.states[-1]))
        theta.set_params_flat(flat)
        assert g[i] == pytest.approx((vals[0] - vals[1]) / (2 * eps),
                                     rel=1e-4, abs=1e-8)


def test_draft_k_bounds():
    _, theta = make_fields()
    traj = sample_ode(theta, 5, np.array([0.0]))
    with pytest.raises(ShapeError):
        draft_loss_and_grad(
            theta, traj.times, traj.states[:, None, :],
            ConstantReward(), 6,
        )


N_GRID = 10
WINDOW_OFF = r"^window 12 not in \[1, 10\]$"
TABLE_OFF = r"^coefficient table must have shape \(10, 3\), got \({}, 3\)$"
STATES_OFF = r"^states hold 10 grid points, not 11$"


@pytest.mark.parametrize("fn,case,message", [
    ("am_det", "window N + 2", WINDOW_OFF),
    ("am_sde", "window N + 2", WINDOW_OFF),
    ("lean_adjoint_batch", "table for 2N", TABLE_OFF.format(20)),
    ("am_sde", "table for 2N", TABLE_OFF.format(20)),
    ("lean_adjoint_batch", "short table", TABLE_OFF.format(9)),
    ("am_sde", "short table", TABLE_OFF.format(9)),
    *[(fn, "states short of the grid", STATES_OFF)
      for fn in ("lean_adjoint_batch", "am_det", "am_sde", "draft", "refl")],
])
def test_grid_readers_reject_a_window_table_or_states_off_the_grid(fn, case, message):
    # each would read wrapped indices, another grid's rows or too few states
    base, theta = make_fields(seed=3)
    table = step_coeffs(MEMORYLESS, N_GRID)
    trajs = sample_batch(base, N_GRID, 3, 5, table)
    times, states = trajs[0].times, np.stack([t.states for t in trajs], axis=1)
    t_count = N_GRID + 2 if case == "window N + 2" else 3
    if case == "table for 2N":
        table = step_coeffs(MEMORYLESS, 2 * N_GRID)
    elif case == "short table":
        table = table[:-1]
    elif case == "states short of the grid":
        states = states[:-1]
    rng = np.random.default_rng(0)
    adjoints, v_base = rng.standard_normal((2, t_count, 3, 1))
    reg, reward = RegularizerSpec(), QuadraticWell(center=np.array([1.0]))
    call = {
        "lean_adjoint_batch": lambda: lean_adjoint_batch(
            base, times, states, adjoints[-1], t_count, table),
        "am_det": lambda: am_det_loss_and_grad(theta, v_base, times, states, adjoints, reg),
        "am_sde": lambda: am_sde_loss_and_grad(
            theta, v_base, table, times, states, adjoints, reg),
        "draft": lambda: draft_loss_and_grad(theta, times, states, reward, t_count),
        "refl": lambda: refl_loss_and_grad(theta, times, states, reward, t_count,
                                           np.random.default_rng(0)),
    }[fn]
    with pytest.raises(ShapeError, match=message):
        call()


def test_refl_reproducible_and_zero_for_constant_reward():
    _, theta = make_fields(seed=6)
    traj = sample_ode(theta, 10, np.array([0.2]))
    states = traj.states[:, None, :]
    l1, g1 = refl_loss_and_grad(
        theta, traj.times, states, ConstantReward(1.0), 5,
        np.random.default_rng(11),
    )
    l2, g2 = refl_loss_and_grad(
        theta, traj.times, states, ConstantReward(1.0), 5,
        np.random.default_rng(11),
    )
    assert l1 == l2 == -1.0
    np.testing.assert_array_equal(g1, g2)
    assert np.all(g1 == 0.0)


def test_refl_single_window_is_extrapolated_last_step():
    _, theta = make_fields(seed=7)
    traj = sample_ode(theta, 10, np.array([0.4]))
    states = traj.states[:, None, :]
    reward = QuadraticWell(center=np.array([0.5]), curvature=1.0)
    loss, _ = refl_loss_and_grad(
        theta, traj.times, states, reward, 1, np.random.default_rng(0)
    )
    t = traj.times[-2]
    x1 = states[-2] + (1.0 - t) * theta.forward(states[-2], t)
    assert loss == pytest.approx(-float(np.mean(reward.value(x1))), rel=1e-12)


def test_refl_grad_matches_fd():
    # a fresh generator with the same seed draws the same step every call
    _, theta = make_fields(seed=8)
    states = np.stack([sample_ode(theta, 10, np.array([x0])).states
                       for x0 in (0.4, -0.9)], axis=1)
    times = np.linspace(0.0, 1.0, 11)
    reward = QuadraticWell(center=np.array([0.5]), curvature=1.0)

    def loss_and_grad():
        return refl_loss_and_grad(theta, times, states, reward, 4,
                                  np.random.default_rng(5))

    _, g = loss_and_grad()
    flat = theta.params_flat()
    eps = 1e-6
    rng = np.random.default_rng(4)
    for i in rng.choice(flat.size, size=10, replace=False):
        vals = []
        for s in (eps, -eps):
            p = flat.copy()
            p[i] += s
            theta.set_params_flat(p)
            vals.append(loss_and_grad()[0])
        theta.set_params_flat(flat)
        assert g[i] == pytest.approx((vals[0] - vals[1]) / (2 * eps),
                                     rel=1e-4, abs=1e-8)
