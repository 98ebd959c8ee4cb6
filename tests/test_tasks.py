from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowam.errors import ConfigError, DomainError, ShapeError
from flowam.tasks import (
    ConstantReward,
    Gaussian1D,
    GaussianMixture2D,
    LinearProbe,
    LogDensityTilt,
    QuadraticWell,
    ring8,
)


def test_gaussian1d_sampling_stats(rng):
    dist = Gaussian1D(0.0, 1.0)
    x = dist.sample(100000, rng)
    assert abs(x.mean()) < 5.0 / np.sqrt(100000)
    assert x.var() == pytest.approx(1.0, abs=0.02)


def test_distribution_dimensions_are_fixed():
    assert Gaussian1D(0.0, 1.0).dim == 1 and GaussianMixture2D.two_modes().dim == 2
    assert "dim" not in [f.name for f in fields(Gaussian1D)]
    with pytest.raises(TypeError):
        Gaussian1D(0.0, 1.0, 3)
    with pytest.raises(TypeError):
        GaussianMixture2D(centers=((0, 0),), weights=(1.0,), stds=(1.0,), dim=3)


def test_gaussian1d_rejects_bad_sigma():
    nan, inf = float("nan"), float("inf")
    for mu, sigma in ((0.0, 0.0), (0.0, nan), (0.0, inf), (nan, 1.0)):
        with pytest.raises(DomainError):
            Gaussian1D(mu, sigma)


def test_gaussian1d_log_density_normalizes():
    dist = Gaussian1D(0.5, 1.3)
    x = np.linspace(-10, 11, 40001)
    mass = np.trapezoid(np.exp(dist.log_density(x[:, None])), x)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_gaussian1d_score_matches_fd():
    dist = Gaussian1D(-0.4, 0.8)
    eps = 1e-6
    for x in (-1.0, 0.2, 1.7):
        fd = (
            dist.log_density(np.array([[x + eps]]))[0]
            - dist.log_density(np.array([[x - eps]]))[0]
        ) / (2 * eps)
        assert dist.score(np.array([[x]]))[0, 0] == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("dist", [Gaussian1D(0.0, 1.0), GaussianMixture2D.two_modes()],
                         ids=["gauss1d", "gm2"])
@pytest.mark.parametrize("shape", [lambda d: (), lambda d: (3,), lambda d: (3, d + 1),
                                   lambda d: (1, 3, d)],
                         ids=["scalar", "flat", "wider-rows", "stacked-rows"])
@pytest.mark.parametrize("method", ["log_density", "score"])
def test_distributions_take_rows_only(dist, shape, method):
    # a flat (m,) array of 1-D states used to be read as one row, and rows
    # wider than the distribution as their first columns
    with pytest.raises(ShapeError, match=rf"are not \(m, {dist.dim}\)"):
        getattr(dist, method)(np.zeros(shape(dist.dim)))


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ConfigError):
        GaussianMixture2D(centers=((0, 0), (1, 1)), weights=(0.6, 0.6), stds=(1, 1))
    with pytest.raises(DomainError):
        GaussianMixture2D(centers=((0, 0),), weights=(1.0,), stds=(0.0,))
    with pytest.raises(DomainError):
        GaussianMixture2D(centers=((0, 0),), weights=(1.0,), stds=(float("nan"),))
    with pytest.raises(DomainError):
        GaussianMixture2D.two_modes(std=float("inf"))
    with pytest.raises(DomainError):
        GaussianMixture2D(centers=((float("nan"), 0),), weights=(1.0,), stds=(1.0,))
    with pytest.raises(ConfigError):
        GaussianMixture2D(centers=((0, 0),), weights=(float("nan"),), stds=(1.0,))


def test_degenerate_mixture_equals_single_gaussian(rng):
    mix = GaussianMixture2D(centers=((1.0, -2.0),), weights=(1.0,), stds=(0.7,))
    x = np.array([[0.3, -1.1], [2.0, 0.0]])
    # closed-form isotropic Gaussian log-density
    d2 = np.sum((x - np.array([1.0, -2.0])) ** 2, axis=1)
    expected = -d2 / (2 * 0.7**2) - 2 * np.log(0.7) - np.log(2 * np.pi)
    np.testing.assert_allclose(mix.log_density(x), expected, rtol=1e-12)
    np.testing.assert_allclose(
        mix.score(x), -(x - np.array([1.0, -2.0])) / 0.7**2, rtol=1e-12
    )


def test_mixture_2d_log_density_normalizes():
    mix = GaussianMixture2D.two_modes()
    g = np.linspace(-8, 8, 401)
    xx, yy = np.meshgrid(g, g)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    dens = np.exp(mix.log_density(pts)).reshape(401, 401)
    mass = np.trapezoid(np.trapezoid(dens, g, axis=1), g)
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_mixture_score_matches_fd(rng):
    mix = GaussianMixture2D.two_modes()
    eps = 1e-6
    for _ in range(10):
        x = rng.uniform(-3, 3, size=2)
        s = mix.score(x[None, :])[0]
        for j in range(2):
            e = np.zeros(2)
            e[j] = eps
            fd = (
                mix.log_density((x + e)[None, :])[0]
                - mix.log_density((x - e)[None, :])[0]
            ) / (2 * eps)
            assert s[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_mixture_sampling_mode_balance(rng):
    mix = GaussianMixture2D.two_modes()
    x = mix.sample(20000, rng)
    frac_right = np.mean(x[:, 0] > 0)
    assert frac_right == pytest.approx(0.5, abs=0.02)


def test_ring8_radius_band(rng):
    dist = ring8(radius=3.0, std=0.3)
    x = dist.sample(20000, rng)
    r = np.linalg.norm(x, axis=1)
    assert np.all(r > 3.0 - 4 * 0.3 - 0.3)  # mode offset along the circle
    assert np.all(r < 3.0 + 4 * 0.3 + 0.3)


def test_quadratic_well_values_and_grad():
    r = QuadraticWell(center=np.array([0.0]), curvature=1.0)
    assert r.value(np.array([0.0])) == 0.0
    np.testing.assert_array_equal(r.grad(np.array([0.0])), [0.0])
    r2 = QuadraticWell(center=np.array([2.0]), curvature=1.0)
    assert r2.value(np.array([0.0])) == pytest.approx(-2.0)
    np.testing.assert_allclose(r2.grad(np.array([0.0])), [2.0])


@pytest.mark.parametrize(
    "reward,dim",
    [
        (QuadraticWell(center=np.array([0.5, -1.0]), curvature=2.0), 2),
        (LogDensityTilt(target=GaussianMixture2D.two_modes()), 2),
        (LinearProbe(direction=np.array([0.3, -0.8])), 2),
        (QuadraticWell(center=np.array([1.0]), curvature=0.7), 1),
        (LogDensityTilt(target=Gaussian1D(0.2, 1.1)), 1),
    ],
)
def test_reward_gradients_match_fd(reward, dim, rng):
    eps = 1e-6
    x = rng.uniform(-2, 2, size=(5, dim))
    g = reward.grad(x)
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = eps
        fd = (reward.value(x + e) - reward.value(x - e)) / (2 * eps)
        assert g[:, j] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_constant_reward():
    r = ConstantReward(3.0)
    assert r.value(np.array([5.0, 5.0])) == 3.0
    np.testing.assert_array_equal(r.grad(np.array([5.0, 5.0])), np.zeros(2))


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize(
    "reward,dim",
    [
        (QuadraticWell(center=np.array([1.0]), curvature=0.7), 1),
        (QuadraticWell(center=np.array([0.5, -1.0]), curvature=2.0), 2),
        (LogDensityTilt(target=Gaussian1D(0.2, 1.1)), 1),
        (LogDensityTilt(target=GaussianMixture2D.two_modes()), 2),
        (LogDensityTilt(target=ring8()), 2),
        (LinearProbe(direction=np.array([1.7])), 1),
        (LinearProbe(direction=np.array([0.3, -0.8])), 2),
        (ConstantReward(1.5), 1),
        (ConstantReward(-2.0), 2),
    ],
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_reward_batch_equals_rows_bitwise(reward, dim, data):
    m = data.draw(st.integers(min_value=1, max_value=40))
    x = data.draw(arrays(np.float64, (m, dim), elements=st.floats(-6.0, 6.0)))
    values, grads = reward.value(x), reward.grad(x)
    assert values.shape == (m,) and grads.shape == (m, dim)
    if isinstance(reward, (QuadraticWell, ConstantReward)):  # any leading shape
        for i in range(m):
            value = reward.value(x[i])
            assert np.ndim(value) == 0
            assert _bits(values[i]) == _bits(value)
            assert _bits(grads[i]) == _bits(reward.grad(x[i]))
