import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowam.schedules import NOISE_SCHEDULES, T_FLOOR, step_coeffs

MEMORYLESS = NOISE_SCHEDULES["memoryless"]


def test_drift_coefficients_linear_identities():
    # kappa = 1/t and eta = (1-t)/t for the linear schedule; memoryless noise
    # has sigma^2 = 2 eta, so eta is read off the sigma column
    table = step_coeffs(MEMORYLESS, 20)
    for k in (2, 5, 10, 18):
        t = k / 20
        _, kappa, sig = table[k]
        assert kappa == pytest.approx(1.0 / t)
        assert sig * sig / 2.0 == pytest.approx((1.0 - t) / t)
        # dimensionless forms
        assert kappa * t == pytest.approx(1.0)
        assert sig * sig / 2.0 * t == pytest.approx(1.0 - t)


def test_drift_coefficients_clamped_near_zero():
    # t is clipped to [T_FLOOR, 1 - T_FLOOR]: the first step start of any
    # grid and the last one of a grid finer than 1/T_FLOOR
    assert step_coeffs(MEMORYLESS, 50)[0, 1] == 1.0 / T_FLOOR
    last = step_coeffs(NOISE_SCHEDULES["one_minus_t"], 4000)[-1]
    assert last[1] == 1.0 / (1.0 - T_FLOOR)
    assert last[2] == 1.0 - (1.0 - T_FLOOR)


def test_memoryless_sigma_squared_is_twice_eta():
    # sigma^2 = 2 eta makes the drift correction sigma^2 / (2 eta) exactly 1
    corr = step_coeffs(MEMORYLESS, 50)[:, 0]
    np.testing.assert_allclose(corr, 1.0, rtol=1e-12)


def test_noise_schedule_kinds():
    def sigma(name, t):
        return step_coeffs(NOISE_SCHEDULES[name], 4)[int(t * 4), 2]

    assert sigma("sin2", 0.5) == pytest.approx(1.0)
    assert sigma("one_minus_t", 0.25) == pytest.approx(0.75)


def _reference_row(name, t):
    """(correction, kappa, sigma) of the linear schedule at one time, in math."""
    tc = min(max(t, T_FLOOR), 1.0 - T_FLOOR)
    kappa = 1.0 / tc
    b = 1.0 - tc
    eta = b * (kappa * b + 1.0)
    sig = {"memoryless": math.sqrt(max(2.0 * eta, 0.0)),
           "sin2": math.sin(math.pi * tc) ** 2,
           "one_minus_t": 1.0 - tc}[name]
    return sig * sig / (2.0 * eta), kappa, sig


@pytest.mark.parametrize("n", [50, 78, 113])
@pytest.mark.parametrize("name", sorted(NOISE_SCHEDULES))
def test_step_coeffs_bitwise_equal_scalar_reference(name, n):
    # elementwise + - * / sqrt are correctly rounded, so the table must equal
    # the scalar formulas bit for bit; np.sin would miss on some grid times
    starts = np.linspace(0.0, 1.0, n + 1)[:-1].tolist()
    ref = np.array([_reference_row(name, t) for t in starts])
    assert step_coeffs(NOISE_SCHEDULES[name], n).tobytes() == ref.tobytes()


@given(st.integers(min_value=1, max_value=3000), st.sampled_from(sorted(NOISE_SCHEDULES)))
@settings(max_examples=100)
def test_eta_nonnegative_on_unit_interval(n, name):
    corr, kappa, sig = step_coeffs(NOISE_SCHEDULES[name], n).T
    assert np.all(np.isfinite(corr)) and np.all(np.isfinite(kappa))
    assert np.all(kappa > 0.0) and np.all(sig > 0.0)
    # corr = sigma^2 / (2 eta) >= 0 needs eta > 0
    assert np.all(corr >= 0.0)


@pytest.mark.parametrize("name", sorted(NOISE_SCHEDULES))
def test_every_schedule_is_positive_at_every_step_start(name):
    # the stochastic loss divides by sigma, and nothing else guards a run
    # against a schedule that vanishes on its matching window
    for n in range(1, 2001):
        sig = step_coeffs(NOISE_SCHEDULES[name], n)[:, 2]
        assert np.all(sig > 0.0), (name, n, sig.min())
