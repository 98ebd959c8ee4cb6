import numpy as np
import pytest

from flowam.dynamics import sample_batch
from flowam.errors import DomainError
from flowam.oracles import (
    GaussianFlowField,
    GaussianFlowSpec,
    ToyDiffusionSpec,
    ToyKind,
    rf_adjoint,
    rf_peak_time,
    rf_relative_strength,
    rf_velocity,
    sde_correlation,
    tilted_gaussian,
    toy_control_argmax,
    toy_control_component,
    value_bias_gaussian,
)
from flowam.schedules import NOISE_SCHEDULES, step_coeffs


def test_rf_velocity_vanishes_at_balanced_point():
    spec = GaussianFlowSpec(mu=0.0, sigma=1.0)
    for x in (-2.0, 0.0, 3.0):
        assert rf_velocity(spec, x, 0.5) == pytest.approx(0.0)


def test_rf_velocity_terminal_slope():
    spec = GaussianFlowSpec(mu=0.0, sigma=1.0)
    assert rf_velocity(spec, 1.7, 1.0) == pytest.approx(1.7)


def test_rf_velocity_at_marginal_mean_is_minus_mu():
    for spec in (GaussianFlowSpec(1.5, 0.7), GaussianFlowSpec(-2.0, 3.0)):
        for t in (0.0, 0.3, 0.8):
            assert rf_velocity(spec, spec.m(t), t) == pytest.approx(-spec.mu)


def test_rf_adjoint_terminal_and_midpoint():
    spec = GaussianFlowSpec(mu=0.0, sigma=1.0)
    assert rf_adjoint(spec, 2.3, 1.0) == pytest.approx(2.3)
    assert rf_adjoint(spec, 1.0, 0.5) == pytest.approx(np.sqrt(2.0))


def test_rf_peak_time_values():
    assert rf_peak_time(GaussianFlowSpec(0.0, 1.0)) == 0.5
    assert rf_peak_time(GaussianFlowSpec(0.0, 2.0)) == pytest.approx(0.8)
    assert rf_peak_time(GaussianFlowSpec(0.0, 1e-6)) == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(DomainError):
        rf_peak_time(GaussianFlowSpec(0.0, 0.0))


def test_rf_peak_time_is_argmin_of_variance():
    # D(t) minimizer on a dense grid matches the closed form within 2e-5
    for sigma in (0.5, 1.0, 2.0, 5.0):
        spec = GaussianFlowSpec(0.0, sigma)
        grid = np.linspace(0.0, 1.0, 100001)
        t_grid = grid[np.argmin(spec.d(grid))]
        assert abs(t_grid - rf_peak_time(spec)) < 2e-5


def test_relative_strength_normalization_and_paper_values():
    spec = GaussianFlowSpec(0.0, 5.0)
    t_star = rf_peak_time(spec)
    for p in (2.0, 4.0, 6.0):
        assert rf_relative_strength(spec, p, t_star) == pytest.approx(1.0)
    assert rf_relative_strength(spec, 2.0, 0.0) == pytest.approx(0.196, abs=5e-3)
    assert rf_relative_strength(spec, 6.0, 0.0) == pytest.approx(0.722, abs=5e-3)


def test_relative_strength_increasing_in_p_off_peak():
    spec = GaussianFlowSpec(0.0, 5.0)
    t_star = rf_peak_time(spec)
    grid = np.linspace(0.0, 1.0, 1001)
    mask = np.abs(grid - t_star) > 1e-3
    r2 = rf_relative_strength(spec, 2.0, grid)[mask]
    r4 = rf_relative_strength(spec, 4.0, grid)[mask]
    r6 = rf_relative_strength(spec, 6.0, grid)[mask]
    assert np.all(r4 > r2)
    assert np.all(r6 > r4)


def test_relative_strength_rejects_p_at_most_one():
    with pytest.raises(DomainError):
        rf_relative_strength(GaussianFlowSpec(0.0, 1.0), 1.0, 0.5)


def test_toy_control_vanishes_at_horizon():
    for kind in (ToyKind.VE, ToyKind.VP):
        spec = ToyDiffusionSpec(kind=kind, T=5.0, eta=1.0)
        assert toy_control_component(spec, 5.0) == pytest.approx(0.0)


def test_toy_argmax_closed_forms():
    ve = ToyDiffusionSpec(ToyKind.VE, T=5.0, eta=1.0)
    vp = ToyDiffusionSpec(ToyKind.VP, T=5.0, eta=1.0)
    assert toy_control_argmax(ve) == pytest.approx(5.0 - 1.0 / np.sqrt(3.0))
    assert toy_control_argmax(vp) == pytest.approx(5.0 - 1.0 / np.sqrt(2.0))


def test_toy_argmax_matches_grid_search():
    rng = np.random.default_rng(0)
    for _ in range(20):
        T = float(rng.uniform(1.0, 20.0))
        eta = float(rng.uniform(0.3, 3.0))
        for kind in (ToyKind.VE, ToyKind.VP):
            spec = ToyDiffusionSpec(kind, T=T, eta=eta)
            grid = np.linspace(0.0, T, 20001)
            t_grid = grid[np.argmax(toy_control_component(spec, grid))]
            closed = toy_control_argmax(spec)
            cell = grid[1] - grid[0]
            if closed < 0.0:
                # peak sits outside [0, T]; the grid max pins to the boundary
                assert t_grid <= cell
            else:
                assert abs(t_grid - closed) <= cell


def test_toy_spec_requires_positive_horizon():
    with pytest.raises(DomainError):
        ToyDiffusionSpec(ToyKind.VE, T=0.0, eta=1.0)


def test_oracle_inputs_are_checked_and_nan_fails_every_check():
    nan, inf = float("nan"), float("inf")
    for bad in (0.0, -1.0, nan, inf):
        with pytest.raises(DomainError):
            GaussianFlowSpec(mu=0.0, sigma=bad)
        with pytest.raises(DomainError):
            ToyDiffusionSpec(ToyKind.VP, T=bad, eta=1.0)
        with pytest.raises(DomainError):
            ToyDiffusionSpec(ToyKind.VE, T=5.0, eta=bad)
    for mu in (nan, inf):
        with pytest.raises(DomainError):
            GaussianFlowSpec(mu=mu, sigma=1.0)
    with pytest.raises(DomainError):
        rf_relative_strength(GaussianFlowSpec(0.0, 1.0), nan, 0.5)
    with pytest.raises(DomainError):
        tilted_gaussian(nan, 0.0)


def test_tilted_gaussian_examples():
    assert tilted_gaussian(0.0, 3.0) == (0.0, 1.0)
    assert tilted_gaussian(1.0, 2.0) == (1.0, 0.5)
    mean, var = tilted_gaussian(1e9, 2.0)
    assert mean == pytest.approx(2.0, rel=1e-8)
    assert var == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(DomainError):
        tilted_gaussian(-1.0, 0.0)


def test_tilted_gaussian_against_quadrature():
    c, m = 1.0, 2.0
    x = np.linspace(-12, 12, 200001)
    w = np.exp(-0.5 * x**2 - 0.5 * c * (x - m) ** 2)
    w /= np.trapezoid(w, x)
    mean = np.trapezoid(x * w, x)
    var = np.trapezoid((x - mean) ** 2 * w, x)
    got_mean, got_var = tilted_gaussian(c, m)
    assert got_mean == pytest.approx(mean, abs=1e-9)
    assert got_var == pytest.approx(var, abs=1e-9)


# -- the value-function bias (memoryless condition) -------------------------------


@pytest.mark.parametrize("c,m", [(1.0, 2.0), (0.0, 3.0), (-0.5, 1.5), (4.0, -2.0)])
def test_value_bias_ends_are_the_tilt_and_the_base(c, m):
    # uncorrelated ends tilt the whole law; fully correlated ones leave it
    assert value_bias_gaussian(0.0, c, m) == tilted_gaussian(c, m)
    for rho in (1.0, -1.0):
        assert value_bias_gaussian(rho, c, m) == (0.0, 1.0)


def test_value_bias_against_quadrature_of_the_conditional_tilts():
    # tilt each conditional N(rho x0, 1 - rho^2) by its own normalizer, then
    # mix over x0 ~ N(0, 1)
    rho, c, m = 0.75, 1.0, 2.0
    q = 1.0 - rho**2
    x0 = np.linspace(-9.0, 9.0, 1201)[:, None]
    x1 = np.linspace(-9.0, 9.0, 1601)[None, :]
    cond = np.exp(-0.5 * (x1 - rho * x0) ** 2 / q - 0.5 * c * (x1 - m) ** 2)
    cond /= np.trapezoid(cond, x1, axis=1)[:, None]
    law = np.trapezoid(np.exp(-0.5 * x0**2) * cond, x0, axis=0)
    law /= np.trapezoid(law, x1[0])
    mean = np.trapezoid(x1[0] * law, x1[0])
    var = np.trapezoid((x1[0] - mean) ** 2 * law, x1[0])
    got_mean, got_var = value_bias_gaussian(rho, c, m)
    assert got_mean == pytest.approx(mean, abs=1e-8)
    assert got_var == pytest.approx(var, abs=1e-8)


@pytest.mark.parametrize("rho,c", [(1.5, 1.0), (-1.01, 1.0), (float("nan"), 1.0),
                                   (0.0, -1.0), (0.5, -2.0), (0.0, float("nan"))])
def test_value_bias_rejects_its_domain(rho, c):
    with pytest.raises(DomainError):
        value_bias_gaussian(rho, c, 0.0)


@pytest.mark.parametrize("noise", ["ode", *NOISE_SCHEDULES])
def test_sde_correlation_is_the_samplers_slope_of_x1_on_x0(noise):
    # on the exact field of N(0, 1) noise to N(0, 1) data the sampler is
    # linear, so the regression slope of X_N on X_0 estimates rho without
    # bias; the ODE's slope is rho to rounding
    spec, n, m = GaussianFlowSpec(0.0, 1.0), 50, 20000
    table = None if noise == "ode" else step_coeffs(NOISE_SCHEDULES[noise], n)
    trajs = sample_batch(GaussianFlowField(spec), n, m, 0, table)
    x0 = np.array([t.states[0, 0] for t in trajs])
    x1 = np.array([t.states[-1, 0] for t in trajs])
    slope = (x0 @ x1) / (x0 @ x0)
    rho = sde_correlation(np.zeros((n, 3)) if table is None else table, spec)
    if table is None:
        assert slope == pytest.approx(rho, rel=1e-12)
    else:
        se = np.sqrt(np.mean((x1 - slope * x0) ** 2) / (x0 @ x0))
        assert abs(slope - rho) < 4.0 * se
