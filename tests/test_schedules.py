import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowam.errors import DomainError
from flowam.schedules import (
    NOISE_SCHEDULES,
    SCHEDULES,
    T_FLOOR,
    clamp_time,
    drift_coefficients,
    sigma,
)

SCHED = SCHEDULES["linear"]


def test_linear_schedule_endpoints():
    assert float(SCHED.alpha(0.0)) == 0.0
    assert float(SCHED.alpha(1.0)) == 1.0
    assert float(SCHED.beta(0.0)) == 1.0
    assert float(SCHED.beta(1.0)) == 0.0


def test_drift_coefficients_linear_identities():
    # kappa = 1/t and eta = (1-t)/t for the linear schedule
    for t in [0.1, 0.25, 0.5, 0.9]:
        co = drift_coefficients(SCHED, t)
        assert co.kappa == pytest.approx(1.0 / t)
        assert co.eta == pytest.approx((1.0 - t) / t)
        # dimensionless forms
        assert co.kappa * t == pytest.approx(1.0)
        assert co.eta * t == pytest.approx(1.0 - t)


def test_drift_coefficients_clamped_near_zero():
    co = drift_coefficients(SCHED, 0.0)
    assert co.t == T_FLOOR
    assert co.kappa == pytest.approx(1.0 / T_FLOOR)


def test_clamp_time_rejects_outside_unit_interval():
    with pytest.raises(DomainError):
        clamp_time(-0.01)
    with pytest.raises(DomainError):
        clamp_time(1.01)


def test_memoryless_sigma_squared_is_twice_eta():
    ns = NOISE_SCHEDULES["memoryless"]
    for t in [0.1, 0.5, 0.9]:
        eta = drift_coefficients(SCHED, t).eta
        assert sigma(ns, t, SCHED) ** 2 == pytest.approx(2.0 * eta)


def test_noise_schedule_kinds():
    assert sigma(NOISE_SCHEDULES["zero"], 0.5, SCHED) == 0.0
    assert sigma(NOISE_SCHEDULES["sin2"], 0.5, SCHED) == pytest.approx(1.0)
    assert sigma(NOISE_SCHEDULES["one_minus_t"], 0.25, SCHED) == pytest.approx(0.75)
    assert sigma(NOISE_SCHEDULES["sigma_t"], 0.25, SCHED) == pytest.approx(0.75)


def test_sigma_rejects_time_outside_domain():
    with pytest.raises(DomainError):
        sigma(NOISE_SCHEDULES["memoryless"], 1.5, SCHED)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100)
def test_eta_nonnegative_on_unit_interval(t):
    co = drift_coefficients(SCHED, t)
    assert co.eta >= 0.0
    assert np.isfinite(co.kappa) and np.isfinite(co.eta)
