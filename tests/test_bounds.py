import math
import sys
import warnings

import numpy as np
import pytest

import heatlab as hl
from heatlab.bounds import u_integral
from heatlab.errors import CalibrationError, IntegrabilityError
from conftest import apply_semigroup


def _floor(grid, weight, floor_scale=1.5):
    """``floor_scale`` times the quotient x of a constant function, the
    floor the cli fits the envelope above."""
    return floor_scale * (1.0 / float(np.sum(grid.node_masses * weight.value(grid.points))) ** 2)


def _quotients(family, weight, op):
    """The quotient pairs of a family, reduced by ``family_norms``."""
    return hl.nash_quotients(hl.family_norms(family, weight, op))


def _fit(family, weight, op, lam, safety=1.0):
    """The envelope below a family's quotient pairs, above ``_floor``."""
    xq, yq = _quotients(family, weight, op)
    return hl.empirical_rate(xq, yq, lam, _floor(op.grid, weight), safety=safety)


@pytest.fixture(scope="module")
def mua_pipeline(mua_model, mua_setup):
    """Certificate + calibrated rate + profile for mu_{1.5}, beta = 1."""
    grid, op, dec = mua_setup
    weight = hl.weight_mu_a(1.5, 1.0)
    cert = hl.lyapunov_constant(mua_model, weight, grid)
    exps = hl.mu_a_exponents(1.5, 1.0)
    rng = np.random.default_rng(777)
    train = hl.gaussian_bump_family(grid, 100, rng)
    heldout = hl.gaussian_bump_family(grid, 100, rng)
    rate = _fit(train, weight, op, exps.lam, safety=1.5)
    kp = hl.k_profile(rate)
    return weight, cert, exps, rate, kp, train, heldout


# ----------------------------------------------------------------------
# rate constructors and invariants


def test_classical_nash_rate():
    rate = hl.classical_nash_rate(2.0, 1.0)
    xs = np.linspace(0.1, 50, 40)
    assert np.allclose(rate.evaluate(xs), xs ** 2, rtol=1e-14)
    assert hl.quotient_monotonicity_defect(rate) <= 1e-12
    with pytest.raises(ValueError):
        hl.classical_nash_rate(0.0)


@pytest.mark.parametrize("coefficient", [0.0, -1.0, math.nan])
def test_rates_refuse_a_nonpositive_coefficient(coefficient):
    # log_rate(2.5, -1.0) would evaluate to -27.2 at x = 10
    with pytest.raises(ValueError):
        hl.log_rate(2.5, coefficient)
    with pytest.raises(ValueError):
        hl.power_rate(coefficient, 2.0)


def test_integrable_rates_refuse_a_coefficient_their_u_cannot_divide_by():
    # c (r - 1) underflowing to 0 would make U(x) = x^(1-r) / (c (r - 1)) a
    # ZeroDivisionError; a rate with no decay profile takes any coefficient
    for build, name in ((lambda: hl.log_rate(2.5, 5e-324), "5e-324"),
                        (lambda: hl.classical_nash_rate(1e16, 1e-310), "1e-310")):
        with pytest.raises(hl.NumericError, match=f"^rate coefficient {name} times the exponent's excess "):
            build()
    assert not hl.is_integrable(hl.power_rate(5e-324, 1.0))
    assert hl.k_profile(hl.classical_nash_rate(1.0, 5e-324)).u_at_floor == math.inf


def test_profile_inverse_of_a_numpy_time_overflows_to_inf():
    # U^{-1}(t) = (2 c t)^{-1/2} with c = 5e-324 divides by 0 at t = 1e-3, as a
    # numpy scalar too: inf, from Python floats, without numpy's warning
    kp = hl.k_profile(hl.classical_nash_rate(1.0, 5e-324))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kp.inverse(np.float64(1e-3)) == kp.inverse(1e-3) == math.inf
        assert kp.evaluate(np.float64(1e-3)) == math.inf


def test_rate_quotient_monotone_for_all_kinds(mua_pipeline):
    _, _, _, empirical, _, _, _ = mua_pipeline
    rates = [
        hl.classical_nash_rate(1.0),
        hl.power_rate(3.0, 1.7),
        hl.log_rate(2.5),
        empirical,
        hl.converse_rate(np.geomspace(0.01, 10, 64), np.geomspace(0.01, 10, 64) ** -0.5),
    ]
    for rate in rates:
        assert hl.quotient_monotonicity_defect(rate) <= 1e-9
        lo = rate.meta.get("positivity_floor", rate.domain_floor)
        xs = np.geomspace(max(lo, 1e-3) * 1.5 + 1e-6, 1e4, 50)
        vals = np.asarray(rate.evaluate(xs))
        assert np.all(vals > 0.0)


# ----------------------------------------------------------------------
# tail integral U and decay profile K


def test_u_integral_closed_forms():
    rate = hl.power_rate(1.0, 2.0)
    for x in (0.5, 1.0, 4.0, 100.0):
        assert hl.u_integral(rate, x) == pytest.approx(1.0 / x, rel=1e-14)
    rate = hl.power_rate(3.0, 1.5)
    for x in (0.5, 2.0, 10.0):
        assert hl.u_integral(rate, x) == pytest.approx(x ** -0.5 / (3.0 * 0.5), rel=1e-14)


def test_u_integral_closed_forms_match_mpmath():
    # U(x) = int_x^inf du/phi(u) by 30-digit tanh-sinh, after substitutions
    # that make the integrand decay exponentially: log u = log(x) e^w for
    # log-power, u - C = (x - C) e^v for the envelope.  Left as power-law
    # tails the reference is off by percents (3% at a = 2.1 in s = log u)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for a in (2.1, 2.5, 3.0):
            for c in (1.0, 0.37):
                rate = hl.log_rate(a, c)
                p = mp.mpf(rate.meta["exponent"])
                for x in (math.e, 10.0, 1e3, 1e50, 1e300):
                    log_x = mp.log(x)

                    def integrand(w):  # du/phi(u) = (u/phi(u)) d(log u)
                        log_u = log_x * mp.exp(w)  # d(log u) = log_u dw
                        return log_u / (c * log_u ** p)

                    ref = mp.quad(integrand, [0, mp.inf])
                    assert hl.u_integral(rate, x) == pytest.approx(float(ref), rel=1e-13, abs=0)
        for lam, shift in ((0.5, 1.0), (0.7, 1.0), (0.7, 3.5),
                           (0.9795918367346939, 0.6767895007816784)):
            rate = hl.bounds._envelope(shift, lam, 0.0, False)
            r, big_c = 1 / mp.mpf(lam), mp.mpf(shift)
            for x in (shift * 1.001, shift * 2.0, shift * 10.0, shift * 1e6):
                d = x - big_c

                def integrand(v):  # du/phi(u) with du = (u - C) dv
                    gap = d * mp.exp(v)  # u - C
                    return gap / (big_c ** -r * gap ** r)

                ref = mp.quad(integrand, [0, mp.inf])
                assert hl.u_integral(rate, x) == pytest.approx(float(ref), rel=1e-13, abs=0)


def test_envelope_u_at_a_large_shift_matches_mpmath():
    # C^r alone overflows a float here, U = C (C/(x - C))^(r-1)/(r-1) does not
    mp = pytest.importorskip("mpmath")
    for lam, x in ((0.5, 3e200), (0.25, 1e201)):
        rate = hl.bounds._envelope(1e200, lam, 0.0, False)
        with mp.workdps(30):
            r, big_c, d = 1 / mp.mpf(lam), mp.mpf(1e200), mp.mpf(x) - mp.mpf(1e200)
            # du/phi(u) with u - C = d e^v, as in the test above
            ref = mp.quad(lambda v: big_c ** r * (d * mp.exp(v)) ** (1 - r), [0, mp.inf])
        assert hl.u_integral(rate, x) == pytest.approx(float(ref), rel=1e-13, abs=0)
        assert hl.k_profile(rate).evaluate(1.0) == math.inf


def test_u_integral_divergent_cases():
    with pytest.raises(IntegrabilityError):
        hl.u_integral(hl.power_rate(1.0, 1.0), 2.0)

    # phi(x) = x log x: harmonic-type divergence
    xlogx = hl.RateFunction(
        kind="generic",
        domain_floor=math.e,
        evaluate=lambda x: np.asarray(x) * np.log(np.asarray(x)),
        closed=None,
        meta={},
    )
    with pytest.raises(IntegrabilityError):
        hl.u_integral(xlogx, 5.0)

    with pytest.raises(IntegrabilityError):
        hl.k_profile(hl.log_rate(1.5))


def test_rates_without_a_closed_form_have_no_profile():
    # 1/phi of this converse rate ~ 1/(x log x) diverges, and x^2 is
    # integrable, but neither kind has a closed form: both are refused when built
    ts = np.geomspace(0.01, 10.0, 64)
    converse = hl.converse_rate(ts, ts ** -5)
    square = hl.RateFunction(
        kind="generic", domain_floor=0.0, evaluate=lambda x: np.asarray(x) ** 2, closed=None, meta={}
    )
    for rate in (converse, square):
        meta = dict(rate.meta)
        with pytest.raises(IntegrabilityError, match="no closed-form tail integral"):
            hl.k_profile(rate)
        with pytest.raises(IntegrabilityError, match="no closed-form tail integral"):
            hl.u_integral(rate, 2.0)
        assert rate.meta == meta


def _check_profile_iff_integrable(rate, expected):
    # the exact criterion of a closed-form kind, and a profile exactly when it
    # holds
    assert hl.is_integrable(rate) is expected
    if expected:
        kp = hl.k_profile(rate)
        assert kp.u_at_floor > u_integral(rate, sys.float_info.max) > 0.0
    else:
        with pytest.raises(IntegrabilityError, match="not integrable"):
            hl.k_profile(rate)


def test_is_integrable_answers_closed_forms_only():
    # a refusal, not a guess, for any other kind, whether its 1/phi converges
    # or not
    ts = np.geomspace(0.01, 10.0, 64)
    for rate in (hl.converse_rate(ts, ts ** -5), hl.converse_rate(ts, ts ** -0.5)):
        with pytest.raises(IntegrabilityError, match="no closed-form tail integral"):
            hl.is_integrable(rate)


# the next three tests keep the names they had when a numeric 1/phi probe
# answered them; the closed forms answer the same cases now


@pytest.mark.parametrize(
    "a,expected",
    [(1.5, False), (2.0, False), (2.5, True), (3.0, True)],
)
def test_integrability_probe_log_rates(a, expected):
    _check_profile_iff_integrable(hl.log_rate(a), expected)
    # analytic criterion: exponent 2(1-1/a) > 1 iff a > 2
    assert (2.0 * (1.0 - 1.0 / a) > 1.0) is expected


def test_closed_form_integrability_overrides_the_probe():
    # just above the borderline a = 2 (p = 2(1 - 1/a) = 1.048), where the
    # probe answered "not integrable"
    rate = hl.log_rate(2.1)
    _check_profile_iff_integrable(rate, True)
    assert math.isfinite(hl.k_profile(rate).u_at_floor)


def test_integrability_probe_power_rates():
    _check_profile_iff_integrable(hl.power_rate(1.0, 2.0), True)
    _check_profile_iff_integrable(hl.power_rate(1.0, 1.0), False)


def test_k_profile_inverse_square():
    kp = hl.k_profile(hl.power_rate(1.0, 2.0))
    for t in np.geomspace(0.01, 10.0, 25):
        assert abs(kp.evaluate(t) - t ** -0.5) < 1e-10
    ts = np.geomspace(1e-3, 1e2, 100)
    ks = np.array([kp.evaluate(t) for t in ts])
    assert np.all(np.diff(ks) <= 1e-12)
    with pytest.raises(ValueError):
        kp.evaluate(0.0)


def test_k_profile_power_exponent():
    # phi = C x^r gives K(t) = C' t^{1/(2(1-r))}
    c, r = 2.0, 1.8
    kp = hl.k_profile(hl.power_rate(c, r))
    ts = np.geomspace(0.01, 10.0, 30)
    ks = np.array([kp.evaluate(t) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(ks), 1)[0]
    assert abs(slope - 1.0 / (2.0 * (1.0 - r))) < 1e-6


def test_k_profile_flat_after_u_floor():
    rate = hl.log_rate(2.5)
    assert rate.domain_floor == math.e
    kp = hl.k_profile(rate)
    assert math.isfinite(kp.u_at_floor)
    assert kp.evaluate(kp.u_at_floor * 1.5) == pytest.approx(math.sqrt(math.e), rel=1e-14)
    assert kp.evaluate(kp.u_at_floor * 0.5) > math.sqrt(math.e)


# the bisection that inverted U for kinds without a closed form, the
# reference for the closed inverses; its doubling runs to the float maximum
_UINV_REL_TOL = 1e-12


def _bisect_inverse(rate: hl.RateFunction, t: float) -> float:
    """U^{-1}(t) by bisection on the strictly decreasing U (relative tolerance
    1e-12); inf when U stays >= t at every doubling point up to the float
    maximum, and at that maximum."""
    m = rate.domain_floor
    hi = max(1.0, 2.0 * m)
    while u_integral(rate, hi) >= t:
        if hi == sys.float_info.max:
            return math.inf
        hi = min(2.0 * hi, sys.float_info.max)
    lo = m
    for _ in range(400):
        mid = lo + 0.5 * (hi - lo)  # lo + hi may overflow
        if u_integral(rate, mid) > t:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _UINV_REL_TOL * max(abs(hi), 1.0):
            break
    return lo + 0.5 * (hi - lo)


def test_k_profile_closed_inverse_matches_bisection(mua_pipeline):
    # log_rate(2.5, 2.0) has U = 0.67254 at the float maximum and U = 0.70131
    # at 1e250, so the log grid covers its inf region, the band (0.67254,
    # 0.70131] up to 1e250, which a cap on U^{-1} once read as inf, and the
    # step out of the inf region at a relative 1e-9 either side
    _, _, _, empirical, _, _, _ = mua_pipeline
    capped = hl.log_rate(2.5, 2.0)
    rates = [
        hl.power_rate(1.0, 2.0),
        hl.power_rate(2.0, 1.8),
        hl.classical_nash_rate(3.0),
        capped,
        hl.log_rate(3.0, 0.5),
        empirical,
    ]
    ts = np.geomspace(1e-6, 1e3, 181)
    for rate in rates:
        kp = hl.k_profile(rate)
        u_max = u_integral(rate, sys.float_info.max)
        grid = list(ts[ts < kp.u_at_floor])
        grid += [u_max * (1.0 - 1e-9), u_max * (1.0 + 1e-9)]
        grid += list(np.linspace(0.67255, 0.70131, 25))
        for t in grid:
            if not 0.0 < t < kp.u_at_floor:
                continue
            closed = kp.inverse(t)
            bisected = _bisect_inverse(rate, t)
            assert math.isinf(closed) == math.isinf(bisected), (rate.kind, t)
            if math.isfinite(closed):
                assert abs(closed - bisected) <= 1e-10 * max(bisected, 1.0), (rate.kind, t)
    kp = hl.k_profile(capped)
    assert 0.67253 < u_integral(capped, sys.float_info.max) < 0.67254
    assert kp.inverse(0.67253) == math.inf and kp.evaluate(0.5) == math.inf
    assert all(math.isfinite(kp.inverse(t)) for t in np.linspace(0.67254, 0.70131, 101))
    assert kp.inverse(0.7013) > 1e250
    assert math.isfinite(kp.evaluate(1.0))


# ----------------------------------------------------------------------
# Lyapunov certificates


def test_lyapunov_ou_universal_weight():
    # V = e^{x^2/4} (up to scale): LV/V = 1/2 - x^2/4, so c = 1/2
    ou = hl.make_ou(8.0)
    grid = hl.make_grid(ou, 801)  # odd: the grid contains x = 0
    cert = hl.lyapunov_constant(ou, hl.universal_weight(ou), grid)
    assert cert.constant == pytest.approx(0.5, abs=1e-10)
    assert np.max(cert.residual_profile) <= 1e-9


@pytest.mark.parametrize("make_model,sup", [
    (lambda: hl.make_mu_a(1.2, 10.0), 0.6),
    (lambda: hl.make_mu_a(1.5, 10.0), 0.75),
    (lambda: hl.make_mu_a(2.5, 6.0), 1.25),
    (lambda: hl.make_cauchy(2.0, 50.0), 2.0),
    (lambda: hl.make_ou(8.0), 0.5),
], ids=["mu_a-1.2", "mu_a-1.5", "mu_a-2.5", "cauchy-2", "ou"])
def test_universal_weight_lyapunov_constant_is_exact(make_model, sup):
    # for V = rho^{-1/2}, LV/V = -b'/2 - b^2/4 peaks at x = 0 at -b'(0)/2
    # (a/2, beta, 1/2), which the closed-form b' gives at the grid node 0
    # to rounding
    model = make_model()
    grid = hl.make_grid(model, 801)
    cert = hl.lyapunov_constant(model, hl.universal_weight(model), grid)
    assert abs(cert.constant - sup) <= 4 * math.ulp(sup)


def test_lyapunov_unit_weight(mua_model, mua_setup):
    grid, _, _ = mua_setup
    cert = hl.lyapunov_constant(mua_model, hl.unit_weight(), grid)
    assert cert.constant == 0.0


def _mu_a_lyapunov_expression(a, beta, x):
    # closed form of L(log V) + (log V)'^2 for V = exp(T^a/2) T^{-beta} on
    # mu_a, written out independently of the weight's dlog / d2log
    t = hl.soft_abs(x)
    return (
        0.25 * a * t ** (a - 4.0) * (2.0 * (a - 1.0) * x * x - a * t ** a * x * x + 2.0)
        + beta * (beta + 1.0) * x * x * t ** -4.0
        - beta * t ** -4.0
    )


def test_lyapunov_mu_a_matches_generic_form(mua_model):
    # the weight derivatives plus the drift == the closed form of the expression
    grid = hl.make_grid(mua_model, 801)
    w = hl.weight_mu_a(1.5, 1.0)
    cert = hl.lyapunov_constant(mua_model, w, grid)
    closed = _mu_a_lyapunov_expression(1.5, 1.0, grid.points)
    assert np.allclose(cert.residual_profile + cert.constant, closed, atol=1e-10)
    assert cert.constant == pytest.approx(0.3579, abs=1e-3)


@pytest.mark.parametrize("a,beta", [(0.5, 1.0), (1.5, 1.0), (2.0, 1.5), (1.2, -0.5)])
def test_lyapunov_mu_a_bounded_above(a, beta):
    radius = hl.suggest_radius(a) if a < 1 else (10.0 if a < 2 else 6.0)
    model = hl.make_mu_a(a, radius)
    grid = hl.make_grid(model, 801)
    cert = hl.lyapunov_constant(model, hl.weight_mu_a(a, beta), grid)
    expr = cert.residual_profile + cert.constant
    interior = np.argmax(expr)
    assert 0 < interior < grid.n_points - 1
    assert expr[0] < cert.constant and expr[-1] < cert.constant
    if a < 1:
        # the expression decays to zero at the window edge
        assert abs(expr[0]) < 0.05 and abs(expr[-1]) < 0.05


def test_lyapunov_refuses_growing_expression():
    ou = hl.make_ou(8.0)
    grid = hl.make_grid(ou, 801)
    quartic = hl.Weight(log_value=lambda x: np.asarray(x, dtype=float) ** 4,
                        dlog=lambda x: 4.0 * np.asarray(x, dtype=float) ** 3,
                        d2log=lambda x: 12.0 * np.asarray(x, dtype=float) ** 2)
    with pytest.raises(CalibrationError):
        hl.lyapunov_constant(ou, quartic, grid)


def test_lyapunov_nonnegative_floor():
    # a negative constant still certifies LV <= 0*V after flooring
    profile = np.array([-0.3, -0.5, -1.0])  # sampled LV/V values
    cert = hl.LyapunovCertificate(hl.unit_weight(), -0.3, profile - (-0.3))
    floored = cert.nonnegative()
    assert floored.constant == 0.0
    assert np.max(floored.residual_profile + floored.constant) == pytest.approx(-0.3)
    # already-nonnegative constants pass through unchanged
    pos = hl.LyapunovCertificate(hl.unit_weight(), 0.5, profile)
    assert pos.nonnegative() is pos


# ----------------------------------------------------------------------
# theorem-side bounds


def test_l2_bound_closed_form():
    kp = hl.k_profile(hl.power_rate(1.0, 2.0))
    cert0 = hl.LyapunovCertificate(hl.unit_weight(), 0.0, np.zeros(3))
    for t in (0.1, 0.5, 2.0):
        assert hl.l2_bound(kp, cert0, t) == pytest.approx((2.0 * t) ** -0.5, rel=1e-10)
    ts = np.linspace(0.05, 2.0, 30)
    vals = [hl.l2_bound(kp, cert0, t) for t in ts]
    assert np.all(np.diff(vals) <= 0.0)


def test_l2_bound_recovers_heat_kernel_contraction():
    # rate C x^{1+2/n} with C = 1 gives ||P_t f||_2 <= (n/(4t))^{n/4} ||f||_1
    for n in (1.0, 2.0, 3.0):
        kp = hl.k_profile(hl.classical_nash_rate(n, 1.0))
        cert0 = hl.LyapunovCertificate(hl.unit_weight(), 0.0, np.zeros(3))
        for t in (0.2, 1.0, 3.0):
            assert hl.l2_bound(kp, cert0, t) == pytest.approx(
                (n / (4.0 * t)) ** (n / 4.0), rel=1e-9
            )


def test_kernel_bound_closed_form():
    kp = hl.k_profile(hl.power_rate(1.0, 2.0))
    cert0 = hl.LyapunovCertificate(hl.unit_weight(), 0.0, np.zeros(3))
    assert hl.kernel_bound(kp, cert0, 0.5, 1.0, -1.0) == pytest.approx(1.0, rel=1e-10)
    assert hl.kernel_bound(kp, cert0, 0.25, 1.0, 2.0) == hl.kernel_bound(
        kp, cert0, 0.25, 2.0, 1.0
    )


def test_kernel_bound_overflows_to_inf_silently():
    # K(2t)^2 = 1/(2t) = 5e289 is finite, and V(20)^2 = 5.1e33, so the bound
    # at x = y = 20 overflows to +inf, with no numpy warning
    kp = hl.k_profile(hl.power_rate(1.0, 2.0))
    cert = hl.LyapunovCertificate(hl.weight_mu_a(1.5, 2.0), 0.0, np.zeros(3))
    t = 1e-290
    bound = hl.kernel_bound(kp, cert, t, np.array([0.0, 20.0]), np.array([0.0, 20.0]))
    assert math.isfinite(bound[0]) and bound[1] == math.inf
    assert hl.kernel_bound(kp, cert, t, 20.0, 20.0) == math.inf


def test_trace_bound_integrability(mua_model, mua_setup, mua_pipeline):
    grid, _, dec = mua_setup
    weight, cert, _, _, kp, _, _ = mua_pipeline
    mass = hl.weight_squared_mass(mua_model, weight, grid)
    for t in (0.5, 1.0):
        bound = hl.trace_bound(kp, cert, mass, t)
        assert bound >= hl.trace(dec, 2.0 * t)
        k = kp.evaluate(2.0 * t)
        assert bound == k * k * math.exp(2.0 * cert.constant * t) * mass
    # the universal weight is not in L2(mu): it has no mass to bound with
    with pytest.raises(IntegrabilityError):
        hl.weight_squared_mass(mua_model, hl.universal_weight(mua_model), grid)


# ----------------------------------------------------------------------
# Nash quotients and empirical calibration


def test_nash_quotient_constant_function(mua_model, mua_setup):
    grid, op, _ = mua_setup
    weight = hl.weight_mu_a(1.5, 1.0)
    ones = np.ones(grid.n_points)
    (xq,), (yq,) = _quotients(ones, weight, op)
    int_v = float(np.sum(grid.node_masses * weight.value(grid.points)))
    assert xq == pytest.approx(1.0 / int_v ** 2, rel=1e-12)
    assert yq == 0.0


def test_nash_quotient_scale_invariance(mua_model, mua_setup, rng):
    grid, op, _ = mua_setup
    weight = hl.weight_mu_a(1.5, 1.0)
    f = hl.gaussian_bump_family(grid, 1, rng)
    q1 = _quotients(f, weight, op)
    q2 = _quotients(2.0 * f, weight, op)
    assert q1[0][0] == pytest.approx(q2[0][0], rel=1e-12)
    assert q1[1][0] == pytest.approx(q2[1][0], rel=1e-12)
    with pytest.raises(ValueError):
        _quotients(np.zeros((1, grid.n_points)), weight, op)


def test_empirical_rate_fit_and_heldout(mua_model, mua_setup, mua_pipeline):
    grid, op, _ = mua_setup
    weight, _, exps, rate, _, train, heldout = mua_pipeline
    assert not rate.meta["degenerate"]
    assert rate.meta["lam"] == exps.lam
    # the envelope validates on the held-out family
    xq, yq = _quotients(heldout, weight, op)
    assert np.count_nonzero(hl.envelope_slack(rate, xq, yq) < -1e-9) == 0
    # it is an actual envelope: without the safety factor it touches the data
    tight = _fit(train, weight, op, exps.lam)
    xt, yt = _quotients(train, weight, op)
    sel = xt > tight.domain_floor
    margins = yt[sel] - np.asarray(tight.evaluate(xt[sel]))
    assert margins.min() >= -1e-9
    assert margins.min() < 1e-3 * yt[sel].max()


def test_empirical_rate_degenerate_family(mua_model, mua_setup):
    grid, op, _ = mua_setup
    weight = hl.weight_mu_a(1.5, 1.0)
    constants = np.ones((3, grid.n_points))
    rate = _fit(constants, weight, op, 0.9)
    assert rate.meta["degenerate"]


def test_empirical_rate_parameter_validation(mua_model, mua_setup):
    grid, op, _ = mua_setup
    weight = hl.weight_mu_a(1.5, 1.0)
    xq, yq = _quotients(np.ones((2, grid.n_points)), weight, op)
    with pytest.raises(TypeError):
        hl.empirical_rate(xq, yq)  # no lam, no floor
    with pytest.raises(ValueError):
        hl.empirical_rate(xq, yq, 1.2, 0.0)
    with pytest.raises(ValueError):
        hl.empirical_rate(xq, yq, 0.9, 0.0, safety=0.5)
    with pytest.raises(ValueError):
        _quotients(np.ones((2, 7)), weight, op)


def test_empirical_rate_explicit_floor(mua_model, mua_setup, rng):
    grid, op, _ = mua_setup
    weight = hl.weight_mu_a(1.5, 1.0)
    fam = hl.gaussian_bump_family(grid, 20, rng)
    xq, yq = _quotients(fam, weight, op)
    rate = hl.empirical_rate(xq, yq, 0.95, 5.0)
    assert rate.meta["configured_floor"] == 5.0
    assert rate.domain_floor >= 5.0
    assert np.count_nonzero(hl.envelope_slack(rate, xq, yq) < -1e-9) == 0


def _bisection_shift(xq, yq, m_floor, lam):
    """The envelope shift as ``empirical_rate`` found it before its closed
    form, kept verbatim as a reference: 200 bisection steps on [1e-12 hi, hi].
    Returns the shift and the float feasibility predicate."""
    r = 1.0 / lam

    def feasible(c: float) -> bool:
        sel = xq > max(m_floor, c)
        if not np.any(sel):
            return True
        phi = c ** -r * (xq[sel] - c) ** r
        return bool(np.all(yq[sel] >= phi))

    hi = 2.0 * max(float(np.max(xq)), m_floor)
    lo = 1e-12 * hi
    if feasible(lo):
        # every sample sits far above even the steepest envelope
        hi = lo
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
    c_fit = hi
    if not feasible(c_fit):
        raise CalibrationError("empty feasible set for the envelope shift")
    return c_fit, feasible


@pytest.mark.parametrize("a", [1.2, 1.5, 2.5])
def test_empirical_shift_is_the_least_feasible_float(a):
    # the closed form max x / (1 + y^lam) lands a few ulps either side of the
    # least feasible float; the walk must take it there, bit for bit what
    # the bisection converged to
    model = hl.make_mu_a(a, hl.suggest_radius(a))
    bare_below = bare_above = 0
    for n in (100, 800):
        grid = hl.make_grid(model, n)
        op = hl.discretize(model, grid)
        for beta in (1.0, 2.0):
            weight = hl.weight_mu_a(a, beta)
            default = hl.mu_a_exponents(a, beta)
            theta_min = default.theta_min
            near_min = hl.mu_a_exponents(a, beta, theta_min + 1e-3 * (1.0 - theta_min))
            for seed, count in [(0, 5), (1, 5), (0, 200), (1, 200)]:
                family = hl.gaussian_bump_family(grid, count, np.random.default_rng(seed))
                xq, yq = _quotients(family, weight, op)
                for exps in (default, near_min):
                    for floor_scale in (1.5, 0.0):
                        m_floor = _floor(grid, weight, floor_scale)
                        rate = hl.empirical_rate(xq, yq, exps.lam, m_floor)
                        shift, feasible = _bisection_shift(xq, yq, m_floor, exps.lam)
                        c = rate.meta["c_shift"]
                        assert c == shift
                        assert feasible(c) and not feasible(math.nextafter(c, 0.0))
                        sel = xq > m_floor
                        bare = float(np.max(xq[sel] / (1.0 + yq[sel] ** exps.lam)))
                        bare_below += bare < c
                        bare_above += bare > c
    # the grid exercises both directions of the walk
    assert bare_below and bare_above


# ----------------------------------------------------------------------
# closed-form exponents


def test_mu_a_exponents_closed_forms():
    exps = hl.mu_a_exponents(2.0, 1.5)
    assert exps.gamma == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert exps.theta_min == pytest.approx(2.0 / 3.0, rel=1e-12)

    # lambda = 0.8 gives delta = 8
    theta = (0.8 - exps.gamma) / (1.0 - exps.gamma)
    exps08 = hl.mu_a_exponents(2.0, 1.5, theta=theta)
    assert exps08.lam == pytest.approx(0.8, rel=1e-12)
    assert exps08.delta == pytest.approx(8.0, rel=1e-12)

    # a -> 1+ sends gamma -> 1
    assert hl.mu_a_exponents(1.0 + 1e-6, 1.0).gamma == pytest.approx(1.0, abs=1e-5)


def test_mu_a_exponents_sweep():
    for a in np.linspace(1.05, 3.0, 14):
        for beta in np.linspace(max(0.0, (3.0 - a) / 2.0) + 0.05, 4.0, 9):
            exps = hl.mu_a_exponents(a, beta)
            assert 1.0 / 3.0 < exps.gamma <= 1.0
            assert 0.0 < exps.lam < 1.0
            assert exps.delta > 0.0


def test_mu_a_exponents_validation():
    with pytest.raises(ValueError):
        hl.mu_a_exponents(1.0, 1.0)
    with pytest.raises(ValueError):
        hl.mu_a_exponents(1.5, 0.5)  # beta <= (3-a)/2 = 0.75
    with pytest.raises(ValueError):
        hl.mu_a_exponents(2.0, 1.0, theta=1.0)


# ----------------------------------------------------------------------
# converse construction


def test_converse_recovers_square_rate():
    xs = np.linspace(0.5, 5.0, 50)
    ts = np.geomspace(math.e / xs.max() / 50.0, math.e / xs.min() * 50.0, 20000)
    rate = hl.converse_rate(ts, ts ** -0.5)
    phi = np.asarray(rate.evaluate(xs))
    assert np.max(np.abs(phi - xs ** 2 / (2.0 * math.e))) < 1e-6


def test_converse_exponent_recovery():
    # K(t) = t^{1/(2(1-r))} comes back as phi ~ x^r
    r = 1.3
    ts = np.asarray(hl.DEFAULT_CONVERSE_TIMES)
    rate = hl.converse_rate(ts, ts ** (1.0 / (2.0 * (1.0 - r))))
    xs = np.geomspace(1.0, 10.0, 30)
    phi = np.asarray(rate.evaluate(xs))
    slope = np.polyfit(np.log(xs), np.log(phi), 1)[0]
    assert abs(slope - r) < 0.05


def test_converse_round_trip_shrinks():
    base = hl.power_rate(1.0, 2.0)
    kp = hl.k_profile(base)
    ts = np.asarray(hl.DEFAULT_CONVERSE_TIMES)
    back = hl.converse_rate(ts, np.array([kp.evaluate(t) for t in ts]))
    xs = np.geomspace(0.5, 50.0, 40)
    assert np.all(np.asarray(back.evaluate(xs)) <= np.asarray(base.evaluate(xs)) + 1e-12)


def test_converse_nonpositive_terms_clip_to_zero():
    ts = np.array([1.0, 2.0])
    rate = hl.converse_rate(ts, np.array([100.0, 100.0]))
    assert rate.evaluate(1.0) == 0.0  # log(x/K^2) < 0 for small x
    with pytest.raises(ValueError):
        hl.converse_rate(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        hl.converse_rate(ts, np.array([1.0, -1.0]))


@pytest.mark.parametrize("times,k_values", [
    ([1.0, math.inf], [2.0, 1.5]),
    ([1.0, math.nan], [2.0, 1.5]),
    ([1.0, 2.0], [2.0, math.nan]),
    ([1.0, 2.0], [2.0, -math.inf]),
], ids=["inf-time", "nan-time", "nan-K", "minus-inf-K"])
def test_converse_refuses_nonfinite_samples(times, k_values):
    with pytest.raises(ValueError, match="finite and positive"):
        hl.converse_rate(np.array(times), np.array(k_values))


def test_converse_infinite_k_adds_no_term():
    # K = inf, read off a decay profile before it turns finite, bounds
    # nothing: the rate is that of the finite samples alone
    ts = np.geomspace(0.01, 10.0, 30)
    ks = ts ** -0.5
    with_inf = hl.converse_rate(np.concatenate(([1e-3, 5e-3], ts)), np.concatenate(([math.inf] * 2, ks)))
    xs = np.geomspace(0.5, 50.0, 40)
    assert np.array_equal(with_inf.evaluate(xs), hl.converse_rate(ts, ks).evaluate(xs))


def test_converse_forward_consistency(mua_model, mua_setup, mua_pipeline):
    # K samples measured from the pipeline feed back into a rate the
    # held-out quotient pairs satisfy
    grid, op, _ = mua_setup
    weight, cert, _, _, kp, _, heldout = mua_pipeline
    ts = np.geomspace(1e-3, 1e2, 64)
    k_meas = np.array([hl.l2_bound(kp, cert, t / 2.0) for t in ts])  # K(t) e^{ct/2}
    back = hl.converse_rate(ts, k_meas)
    xq, yq = _quotients(heldout, weight, op)
    assert np.count_nonzero(hl.envelope_slack(back, xq, yq) < -1e-9) == 0


# ----------------------------------------------------------------------
# the Mehler example closes the abstract loop


def test_mehler_contraction_oracle(ou_setup, rng):
    grid, op, dec = ou_setup
    t = 0.5
    vt = hl.mehler_weight(t)
    # narrower bumps than the cli family's, centered within R/4
    centers = rng.uniform(-0.25 * grid.radius, 0.25 * grid.radius, 30)
    widths = np.exp(rng.uniform(np.log(0.3), np.log(1.5), 30))
    fam = np.exp(-((grid.points[None, :] - centers[:, None]) ** 2) / (2.0 * widths[:, None] ** 2))

    def ratios(f):
        """||P_t f||_2 / ||f V_t||_1 for each row of f."""
        pf = apply_semigroup(dec, f, t)
        return np.sqrt(hl.family_norms(pf, vt, op).l2sq) / hl.family_norms(f, vt, op).l1w

    assert np.all(ratios(fam) <= 1.0 + 1e-9)
    # equality is approached along narrowing centered gaussians
    narrowing = ratios(np.exp(-np.array([1.0, 2.0, 5.0, 20.0])[:, None] * grid.points ** 2))
    assert np.all(np.diff(narrowing) > 0.0) and narrowing[-1] > 0.99


def test_mehler_k_star_is_one_to_second_order(ou_model):
    # ||P_t f||_2 <= ||f V_t||_1 is sharp at the deltas, so the certified
    # L1(V_t) -> L2 norm K* of the discrete P_t is 1 + O(h^2): K* - 1 reads
    # 1.74e-5 / 7.1e-6 / 2.4e-6 at t = 0.25 / 0.5 / 1 on n = 800 (h = 0.02),
    # C = (K* - 1) / h^2 = 0.0433 / 0.0178 / 0.0060 at n = 800, 1600 and
    # 3200, so each doubling of n divides K* - 1 by 4.00-4.01
    times = (0.25, 0.5, 1.0)
    errors = []
    for n_points in (800, 1600, 3200):
        grid = hl.make_grid(ou_model, n_points)
        dec = hl.eigendecompose(hl.discretize(ou_model, grid), t_first=0.25)
        k_stars = [hl.k_star(dec, hl.mehler_weight(t).value(grid.points), t)[0] for t in times]
        errors.append(np.abs(np.array(k_stars) - 1.0))
        assert np.all(errors[-1] <= 0.05 * grid.spacing ** 2), n_points
    for coarse, fine in zip(errors, errors[1:]):
        assert np.all((3.9 <= coarse / fine) & (coarse / fine <= 4.1))
