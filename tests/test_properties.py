"""Property-based tests (hypothesis, from the optional ``test`` extra)."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import heatlab as hl  # noqa: E402

fractions = st.floats(1e-3, 1.0 - 1e-3)


def envelope_rate(shift: float, lam: float) -> hl.RateFunction:
    """The fitted envelope shape C^{-1/lam}(x - C)^{1/lam} at a given shift."""
    r = 1.0 / lam

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return shift ** -r * np.clip(x - shift, 0.0, None) ** r

    return hl.RateFunction(
        kind="empirical_envelope",
        domain_floor=shift,
        evaluate=evaluate,
        meta={"c_shift": shift, "lam": lam},
    )


def assert_round_trip(rate: hl.RateFunction, q: float, x_lo: float) -> None:
    """U(U^{-1}(t)) = t at the log-fraction q of the way from U at the cap
    (at least 1e-6) up to U(x_lo)."""
    kp = hl.k_profile(rate)
    lo, hi = max(kp.u_at_cap, 1e-6), hl.u_integral(rate, x_lo)
    t = lo * (hi / lo) ** q
    x = kp.inverse(t)
    assert math.isfinite(x) and x > rate.domain_floor
    assert hl.u_integral(rate, x) == pytest.approx(t, rel=1e-10)


@settings(deadline=None)
@given(st.floats(0.01, 100.0), st.floats(1.05, 4.0), fractions)
def test_power_round_trip(coefficient, exponent, q):
    assert_round_trip(hl.power_rate(coefficient, exponent), q, 1e-3)


@settings(deadline=None)
@given(st.floats(0.01, 100.0), st.floats(2.05, 20.0), fractions)
def test_log_power_round_trip(coefficient, a, q):
    rate = hl.log_rate(a, coefficient)
    assert_round_trip(rate, q, rate.domain_floor)


@settings(deadline=None)
@given(st.floats(1e-3, 10.0), st.floats(0.5, 0.95), fractions)
def test_envelope_round_trip(shift, lam, q):
    # U(x) subtracts C from x: keep x - C well above the rounding of x
    assert_round_trip(envelope_rate(shift, lam), q, 1.001 * shift)
