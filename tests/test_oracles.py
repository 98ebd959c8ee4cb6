import numpy as np
import pytest

from flowam.errors import DomainError
from flowam.oracles import (
    GaussianFlowSpec,
    ToyDiffusionSpec,
    ToyKind,
    rf_adjoint,
    rf_peak_time,
    rf_relative_strength,
    rf_velocity,
    tilted_gaussian,
    toy_control_argmax,
    toy_control_component,
)


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
