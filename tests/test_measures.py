import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import heatlab as hl


def _fd_drift(model, x, step=1e-6):
    h = step * np.maximum(1.0, np.abs(x))
    return (model.log_density(x + h) - model.log_density(x - h)) / (2.0 * h)


@pytest.mark.parametrize(
    "model_factory",
    [
        lambda: hl.make_mu_a(1.5, 10.0),
        lambda: hl.make_mu_a(2.0, 6.0),
        lambda: hl.make_cauchy(2.0, 50.0),
        lambda: hl.make_ou(8.0),
    ],
)
def test_model_consistency(model_factory, rng):
    model = model_factory()
    x = rng.uniform(-0.9 * model.radius, 0.9 * model.radius, 100)
    dens = model.density(x)
    assert np.all(dens > 0)
    assert np.allclose(dens, np.exp(model.log_density(x)), rtol=1e-12, atol=0.0)
    fd = _fd_drift(model, x)
    assert np.allclose(model.drift(x), fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("a", [1.0, 1.5, 2.0])
def test_mu_a_drift_vanishes_at_origin(a):
    model = hl.make_mu_a(a, 10.0)
    assert model.drift(0.0) == 0.0


def test_mu_a_density_at_origin():
    model = hl.make_mu_a(2.0, 6.0)
    c2 = model.normalization
    assert model.log_density(0.0) == pytest.approx(math.log(c2) - 1.0, rel=1e-12)
    assert model.density(0.0) == pytest.approx(c2 * math.exp(-1.0), rel=1e-12)


def test_mu_a_window_mass():
    model = hl.make_mu_a(1.5, 12.0)
    # oracle: trapezoid quadrature, checked stable under doubling
    for n in ((1 << 19) + 1, (1 << 20) + 1):
        x = np.linspace(-12.0, 12.0, n)
        assert np.trapezoid(model.density(x), x) == pytest.approx(1.0, abs=1e-9)


def test_mu_a_parameter_errors():
    with pytest.raises(ValueError):
        hl.make_mu_a(0.0, 10.0)
    with pytest.raises(ValueError):
        hl.make_mu_a(-1.5, 10.0)
    with pytest.raises(ValueError):
        hl.make_mu_a(1.5, 0.0)


def test_cauchy_closed_forms():
    model = hl.make_cauchy(2.0, 50.0)
    assert model.drift(0.0) == 0.0
    assert model.density(1.0) / model.density(0.0) == pytest.approx(0.25, rel=1e-12)
    x = np.linspace(-50.0, 50.0, (1 << 20) + 1)
    assert np.trapezoid(model.density(x), x) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        hl.make_cauchy(1.0, 50.0)
    with pytest.raises(ValueError):
        hl.make_cauchy(0.5, 50.0)


def _mpmath_mass(mp, integrand, radius):
    # even integrand: twice the half-window integral, split where the rule
    # under test grades its panels so tanh-sinh sees smooth pieces
    cuts = [0] + [mp.mpf(2) ** j for j in range(-2, 64) if 2.0**j < radius] + [mp.mpf(radius)]
    with mp.workdps(30):
        return 2 * mp.quad(integrand, cuts)


@pytest.mark.parametrize("a", [0.3, 0.5, 1.05, 1.5, 2.5, 4.0])
@pytest.mark.parametrize("suggested", [True, False])
def test_mu_a_normalization_matches_mpmath(a, suggested):
    mp = pytest.importorskip("mpmath")
    radius = hl.suggest_radius(a) if suggested else 10.0
    mass = _mpmath_mass(mp, lambda x: mp.exp(-mp.sqrt(1 + x * x) ** a), radius)
    assert hl.make_mu_a(a, radius).normalization == pytest.approx(float(1 / mass), rel=1e-14)


@pytest.mark.parametrize("beta", [1.01, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("radius", [5.0, 50.0, 500.0])
def test_cauchy_normalization_matches_mpmath(beta, radius):
    mp = pytest.importorskip("mpmath")
    mass = _mpmath_mass(mp, lambda x: (1 + x * x) ** (-beta), radius)
    assert hl.make_cauchy(beta, radius).normalization == pytest.approx(float(1 / mass), rel=1e-14)


def test_normalization_refuses_unresolved_integrand():
    # a Lorentzian spike of width 1e-4 at x = 0.7, inside a panel: 32 nodes
    # per panel cannot resolve it, so the 2- and 4-panel sums disagree
    spike = lambda x: np.exp(-x * x) + 1.0 / (1.0 + ((x - 0.7) / 1e-4) ** 2)
    with pytest.raises(hl.NumericError, match="unresolved"):
        hl.measures._window_normalization(spike, 10.0)
    # the tail mass runs the same check on the same rule
    spiked = dataclasses.replace(hl.make_mu_a(1.5, 10.0), density=spike)
    with pytest.raises(hl.NumericError, match="unresolved"):
        hl.tail_mass(spiked, 0.0)
    with pytest.raises(ValueError, match="not finite"):
        hl.make_mu_a(1.5, math.inf)


@pytest.mark.parametrize("a", [0.5, 1.5])
def test_mu_a_construction_memory(a):
    # the graded rule needs a few thousand nodes; the old 2^20-point
    # trapezoid peaked at 32 MiB here
    radius = hl.suggest_radius(a)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        hl.make_mu_a(a, radius)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_weight_mu_a_values():
    w = hl.weight_mu_a(1.5, 1.0)
    assert w.value(0.0) == pytest.approx(math.exp(0.5), rel=1e-12)
    w2 = hl.weight_mu_a(2.0, 0.0)
    x = np.linspace(-3, 3, 11)
    assert np.allclose(w2.value(x), np.exp((1.0 + x * x) / 2.0), rtol=1e-12)
    # log/value consistency
    assert np.allclose(w.value(x), np.exp(w.log_value(x)), rtol=1e-12)


def test_weight_mu_a_square_integrable(mua_model, mua_setup):
    # beta = 1 > 1/2, so V is in L2(mu)
    grid, _, _ = mua_setup
    w = hl.weight_mu_a(1.5, 1.0)
    mass = hl.weight_squared_mass(mua_model, w, grid)
    assert math.isfinite(mass) and mass > 0
    # V^2 rho = C T^{-2 beta} exactly, so V is in L2(mu_a) iff beta > 1/2,
    # however close to 1/2, and whatever the window
    for a in (1.5, 2.5):
        model = hl.make_mu_a(a, hl.suggest_radius(a))
        grid = hl.make_grid(model, 201)
        for beta in (0.51, 0.6):
            assert hl.weight_squared_mass(model, hl.weight_mu_a(a, beta), grid) > 0
        for beta in (0.5, 0.49):
            with pytest.raises(hl.IntegrabilityError, match="rounding allowance 1e-09"):
                hl.weight_squared_mass(model, hl.weight_mu_a(a, beta), grid)


@pytest.mark.parametrize("make_weight", [
    lambda: hl.weight_mu_a(1.5, 1.0),
    lambda: hl.universal_weight(hl.make_mu_a(1.5, 10.0)),
    lambda: hl.universal_weight(hl.make_cauchy(2.0, 50.0)),
    lambda: hl.universal_weight(hl.make_ou(8.0)),
    hl.unit_weight,
    lambda: hl.mehler_weight(0.5),
], ids=["mu_a", "universal-mu_a", "universal-cauchy", "universal-ou", "unit", "mehler"])
def test_weight_mu_a_derivatives_match_fd(rng, make_weight):
    # every built-in weight's closed-form dlog and d2log against differences
    w = make_weight()
    x = rng.uniform(-6, 6, 50)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    fd1 = (w.log_value(x + h) - w.log_value(x - h)) / (2 * h)
    assert np.allclose(w.dlog(x), fd1, rtol=1e-7, atol=1e-7)
    fd2 = (w.dlog(x + h) - w.dlog(x - h)) / (2 * h)
    assert np.allclose(w.d2log(x), fd2, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize(
    "a,beta,expect_monotone",
    [(1.5, 0.25, True), (1.5, 0.5, True), (1.5, 1.0, False), (2.0, 2.0, False)],
)
def test_weight_mu_a_shape_on_half_line(a, beta, expect_monotone):
    w = hl.weight_mu_a(a, beta)
    x = np.linspace(0.0, 8.0, 4001)[1:]
    v = w.value(x)
    d = np.diff(v)
    if expect_monotone:
        assert np.all(d >= -1e-13)
    else:
        # decreasing then increasing: exactly one sign change in the slope
        signs = np.sign(d[np.abs(d) > 1e-15])
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1 and signs[0] < 0 and signs[-1] > 0


def test_universal_weight(mua_model):
    ou = hl.make_ou(8.0)
    w = hl.universal_weight(ou)
    x = np.linspace(-3, 3, 13)
    # V proportional to exp(x^2/4)
    assert np.allclose(w.value(x) / w.value(0.0), np.exp(x * x / 4.0), rtol=1e-12)
    # defining identity V^2 rho = 1
    assert np.allclose(w.value(x) ** 2 * ou.density(x), 1.0, rtol=1e-12)
    cauchy = hl.make_cauchy(2.0, 50.0)
    wc = hl.universal_weight(cauchy)
    expected = cauchy.normalization ** -0.5 * (1.0 + x * x)
    assert np.allclose(wc.value(x), expected, rtol=1e-12)


def test_tail_mass_basics(mua_model):
    r = mua_model.radius
    assert hl.tail_mass(mua_model, -r) == pytest.approx(1.0, abs=hl.TAIL_TOL + 1e-11)
    assert hl.tail_mass(mua_model, 0.0) == pytest.approx(0.5, abs=1e-9)
    xs = np.linspace(-r, r, 17)
    qs = [hl.tail_mass(mua_model, x) for x in xs]
    assert np.all(np.diff(qs) <= 1e-12)
    with pytest.raises(ValueError):
        hl.tail_mass(mua_model, r + 1.0)


@pytest.mark.parametrize("a,radius", [(1.0, 24.0), (1.5, 10.0), (2.0, 6.0)])
def test_tail_estimate_ratio_bounded(a, radius):
    # q(x) <= C rho(x) / T(x)^{a-1}: the ratio stays bounded on [0, R-1]
    model = hl.make_mu_a(a, radius)
    xs = np.linspace(0.0, radius - 1.0, 100)
    ratio = np.array(
        [hl.tail_mass(model, x) * hl.soft_abs(x) ** (a - 1.0) / model.density(x) for x in xs]
    )
    assert np.all(np.isfinite(ratio))
    assert ratio.max() < 3.0  # measured sups are ~1.6 (a=1), ~1.1 (a=1.5), ~0.9 (a=2)


def test_suggest_radius_controls_tail():
    for a in (1.0, 1.5, 2.0):
        r = hl.suggest_radius(a)
        model = hl.make_mu_a(a, 2.0 * r)
        assert hl.tail_mass(model, r) < hl.TAIL_TOL


def _tail_case(mp, family, param):
    """A model and its unnormalized density as an mpmath function."""
    if family == "mu_a":
        return hl.make_mu_a(param, hl.suggest_radius(param)), lambda u: mp.exp(-mp.sqrt(1 + u * u) ** param)
    if family == "cauchy":
        return hl.make_cauchy(param, 50.0), lambda u: (1 + u * u) ** (-param)
    return hl.make_ou(8.0), lambda u: mp.exp(-u * u / 2)


@pytest.mark.parametrize("family,param", [
    ("mu_a", 0.5), ("mu_a", 1.0), ("mu_a", 1.5), ("mu_a", 2.0), ("mu_a", 2.5),
    ("cauchy", 1.01), ("cauchy", 2.0), ("ou", None),
])
def test_tail_mass_matches_mpmath(family, param):
    # q(x) = C int_x^R g to 1e-11 relative at 23 points, wherever q >= 1e-10
    mp = pytest.importorskip("mpmath")
    model, g = _tail_case(mp, family, param)
    r = model.radius
    cuts = sorted({0.0, r} | {s * 2.0**j for j in range(-2, 64) if 2.0**j < r for s in (-1, 1)})
    checked = []
    with mp.workdps(30):
        for x in np.linspace(-r, r, 24)[:-1]:
            q = float(model.normalization * mp.quad(g, [x] + [c for c in cuts if c > x]))
            if q >= 1e-10:
                assert hl.tail_mass(model, x) == pytest.approx(q, rel=1e-11, abs=0.0)
                checked.append(q)
    assert len(checked) >= 12 and min(checked) < 1e-3


def _mpmath_drift(mp, family, param):
    """A model and its drift b = (log rho)' written out as an mpmath function."""
    if family == "mu_a":
        model = hl.make_mu_a(param, hl.suggest_radius(param))
        return model, lambda u: -param * u * (1 + u * u) ** ((param - 2) / 2)
    if family == "cauchy":
        return hl.make_cauchy(param, 50.0), lambda u: -2 * param * u / (1 + u * u)
    return hl.make_ou(8.0), lambda u: -u


@pytest.mark.parametrize("family,param", [
    ("mu_a", 0.3), ("mu_a", 1.5), ("mu_a", 2.5), ("mu_a", 4.0),
    ("cauchy", 1.01), ("cauchy", 2.0), ("cauchy", 3.0), ("ou", None),
])
def test_drift_prime_matches_mpmath(family, param):
    # the closed-form b' against a 30-digit derivative of the drift, at 25
    # points out to the window edge
    mp = pytest.importorskip("mpmath")
    model, drift = _mpmath_drift(mp, family, param)
    r = model.radius
    with mp.workdps(30):
        for x in np.append(np.linspace(-r, r, 24), 0.0):
            ref = float(mp.diff(drift, mp.mpf(float(x))))
            assert float(model.drift_prime(x)) == pytest.approx(ref, rel=1e-13, abs=0.0), x


def test_mehler_kernel_values(rng):
    for t in (0.1, 0.5, 2.0):
        assert hl.mehler_kernel(t, 0.0, 0.0) == pytest.approx(
            (1.0 - math.exp(-2.0 * t)) ** -0.5, rel=1e-14
        )
    xs = rng.uniform(-3, 3, 20)
    ys = rng.uniform(-3, 3, 20)
    assert np.allclose(
        hl.mehler_kernel(0.7, xs, ys), hl.mehler_kernel(0.7, ys, xs), rtol=0, atol=0
    )
    # ergodic limit: the closed form gives |p_t(1,-1) - 1| ~ e^{-t}
    assert abs(hl.mehler_kernel(10.0, 1.0, -1.0) - 1.0) < 1e-4
    assert abs(hl.mehler_kernel(17.0, 1.0, -1.0) - 1.0) < 1e-7
    with pytest.raises(ValueError):
        hl.mehler_kernel(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        hl.mehler_kernel(-1.0, 1.0, 1.0)


def test_mehler_diag_bound(rng):
    # equality on the diagonal
    assert hl.mehler_diag_bound(0.5, 1.0, 1.0) == pytest.approx(
        hl.mehler_kernel(1.0, 1.0, 1.0), rel=1e-12
    )
    assert hl.mehler_diag_bound(0.5, 1.0, -1.0) >= hl.mehler_kernel(1.0, 1.0, -1.0)
    for t in (0.1, 0.5, 2.0):
        assert hl.mehler_diag_bound(t, 0.0, 0.0) == pytest.approx(
            (1.0 - math.exp(-4.0 * t)) ** -0.5, rel=1e-14
        )
        xs = rng.uniform(-3, 3, 50)
        ys = rng.uniform(-3, 3, 50)
        assert np.all(hl.mehler_diag_bound(t, xs, ys) >= hl.mehler_kernel(2.0 * t, xs, ys))
    with pytest.raises(ValueError):
        hl.mehler_diag_bound(0.0, 1.0, 1.0)


def test_mehler_chapman_kolmogorov_gauss_quadrature():
    # int p_t(x,u) p_s(u,z) dgamma(u) = p_{t+s}(x,z) under Gauss-Hermite quadrature
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    u = math.sqrt(2.0) * nodes
    w = weights / math.sqrt(math.pi)
    xs = np.linspace(-2.0, 2.0, 9)
    worst = 0.0
    for t in (0.25, 0.5):
        for s in (0.25, 0.5):
            for x in xs:
                for z in xs:
                    lhs = np.sum(w * hl.mehler_kernel(t, x, u) * hl.mehler_kernel(s, u, z))
                    rhs = hl.mehler_kernel(t + s, x, z)
                    worst = max(worst, abs(lhs - rhs) / rhs)
    assert worst < 1e-4


def test_mehler_weight_matches_diag_bound():
    t = 0.7
    w = hl.mehler_weight(t)
    x = np.linspace(-2, 2, 9)
    prod = w.value(x)[:, None] * w.value(x)[None, :]
    assert np.allclose(prod, hl.mehler_diag_bound(t, x[:, None], x[None, :]), rtol=1e-13)


def test_mehler_forms_stay_finite_past_exp_overflow():
    # e^{2t} overflows a float once 2t > 709.78; both forms are then 1 (their
    # x-dependence has decayed), and below that they keep their old bits
    assert hl.mehler_diag_bound(400.0, 1.0, 1.0) == 1.0
    assert hl.mehler_weight(400.0).value(1.0) == 1.0
    assert np.array_equal(hl.mehler_diag_bound(1e6, np.array([0.0, 3.0]), 5.0), [1.0, 1.0])
    weight = hl.mehler_weight(1e6)
    assert weight.dlog(2.0) == 0.0 and weight.d2log(2.0) == 0.0
    xs = np.linspace(-3.0, 3.0, 7)
    for t in (0.1, 2.0, 354.0, 354.89):
        denom = 2.0 * (1.0 + math.exp(2.0 * t))
        old = (1.0 - math.exp(-4.0 * t)) ** -0.5 * np.exp(xs * xs / denom + 1.0 / denom)
        assert np.array_equal(hl.mehler_diag_bound(t, xs, 1.0), old)
        old_log = math.log((1.0 - math.exp(-4.0 * t)) ** -0.25) + xs * xs / denom
        assert np.array_equal(hl.mehler_weight(t).log_value(xs), old_log)
