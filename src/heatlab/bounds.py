"""Rate functions, Lyapunov certificates, and the decay-profile machinery.

The central pipeline: a weighted Nash inequality

    phi( ||f||_2^2 / ||fV||_1^2 ) <= E(f,f) / ||fV||_1^2     (x > M)

together with a Lyapunov certificate LV <= cV yields

    ||P_t f||_2 <= K(2t) e^{ct} ||f V||_1,

where K(x) = sqrt(U^{-1}(x)) for x < U(M) and sqrt(M) after, with
U(x) = int_x^inf du/phi(u).  Kernel and trace bounds follow by squaring:
p_{2t}(x,y) <= K(2t)^2 e^{2ct} V(x)V(y) and
sum_n exp(-2 lambda_n t) <= K(2t)^2 e^{2ct} int V^2 dmu.

Every rate satisfies phi(x)/x nondecreasing on its domain.  Only the
closed-form kinds (powers, log-powers, the fitted envelope shape
C^{-1/lam}(x - C)^{1/lam}) have a decay profile: each constructor attaches
its exact integrability criterion, U and U^{-1} to the rate it returns.
Converse rates grow at most like x log x, so their 1/phi is never
integrable: they are evaluated, never profiled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import CalibrationError, IntegrabilityError, NumericError
from .measures import MeasureModel, Weight, _scalar_or_array
from .spectral import FamilyNorms, Grid

__all__ = [
    "RateFunction",
    "LyapunovCertificate",
    "KProfile",
    "MuAExponents",
    "power_rate",
    "classical_nash_rate",
    "log_rate",
    "is_integrable",
    "u_integral",
    "k_profile",
    "l2_bound",
    "kernel_bound",
    "trace_bound",
    "weight_squared_mass",
    "lyapunov_constant",
    "nash_quotients",
    "empirical_rate",
    "envelope_slack",
    "mu_a_exponents",
    "converse_rate",
    "quotient_monotonicity_defect",
    "DEFAULT_CONVERSE_TIMES",
]

#: Default log-spaced grid over which the converse construction takes its sup.
#: A finite grid makes the result a certified lower bound on the true sup.
DEFAULT_CONVERSE_TIMES = np.geomspace(1e-3, 1e2, 64)

_X_CAP = 1e250  # beyond this, U^{-1} is reported as inf
_L2_ROUNDING = 1e-9  # how far below -1 the L^2 tail slope must be


@dataclass(frozen=True)
class RateFunction:
    """A rate phi > 0 on (domain_floor, inf) with phi(x)/x nondecreasing.

    ``closed`` is (whether 1/phi is integrable at infinity, U(x), U^{-1}(t))
    in closed form, built by the rate's constructor; None for a kind without
    one, which then has no decay profile.
    """

    kind: str
    domain_floor: float
    evaluate: Callable
    closed: tuple[bool, Callable, Callable] | None
    meta: dict


@dataclass(frozen=True)
class LyapunovCertificate:
    """Weight V with constant c such that LV <= cV on the grid.

    ``residual_profile`` holds LV/V - c at the grid nodes (all <= 0).
    """

    weight: Weight
    constant: float
    residual_profile: np.ndarray

    def nonnegative(self) -> "LyapunovCertificate":
        """The same certificate with the constant floored at zero.

        LV <= cV and V > 0 imply LV <= max(c,0) V, and a nonnegative
        constant is what the decay theorem assumes when M > 0.
        """
        if self.constant >= 0.0:
            return self
        return replace(
            self,
            constant=0.0,
            residual_profile=self.residual_profile + self.constant,
        )


# ----------------------------------------------------------------------
# rate constructors


def _check_scale(c: float, excess: float) -> None:
    """Refuse, with a NumericError naming it, the coefficient c of an
    integrable rate (its exponent's ``excess`` over 1 positive), whose
    closed U divides by c times the excess, where that product underflows to 0."""
    if excess > 0.0 and c * excess == 0.0:
        raise NumericError(f"rate coefficient {c!r} times the exponent's excess {excess!r} over 1 "
                           "underflows to 0, so the closed U(x) divides by 0: use a larger coefficient")


def power_rate(coefficient: float, exponent: float) -> RateFunction:
    """phi(x) = coefficient * x^exponent on (0, inf); a coefficient too small
    for the closed U of an integrable rate is refused (``_check_scale``)."""
    if not coefficient > 0:
        raise ValueError(f"coefficient must be positive, got {coefficient}")

    c, r = float(coefficient), float(exponent)
    _check_scale(c, r - 1.0)

    def evaluate(x):
        return _scalar_or_array(coefficient * np.asarray(x, dtype=float) ** exponent)

    def u(x: float) -> float:
        return math.inf if x <= 0.0 else x ** (1.0 - r) / (c * (r - 1.0))

    def inverse(t: float) -> float:
        return (c * (r - 1.0) * t) ** (1.0 / (1.0 - r))

    return RateFunction(kind="power", domain_floor=0.0, evaluate=evaluate,
                        closed=(r > 1.0, u, inverse), meta={"exponent": r})


def classical_nash_rate(n: float, coefficient: float = 1.0) -> RateFunction:
    """Classical Nash rate phi(x) = C x^{1+2/n} with floor M = 0."""
    if not n > 0:
        raise ValueError(f"dimension parameter must be positive, got {n}")
    return power_rate(coefficient, 1.0 + 2.0 / n)


def log_rate(a: float, coefficient: float = 1.0) -> RateFunction:
    """Log-power rate phi(x) = C x (log x)^{2(1-1/a)} on (e, inf); C as in
    ``power_rate``."""
    if not a > 1:
        raise ValueError(f"exponent a must exceed 1, got {a}")
    if not coefficient > 0:
        raise ValueError(f"coefficient must be positive, got {coefficient}")
    c, p = float(coefficient), 2.0 * (1.0 - 1.0 / a)
    _check_scale(c, p - 1.0)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return _scalar_or_array(coefficient * x * np.log(x) ** p)

    def u(x: float) -> float:
        return math.inf if x <= 1.0 else math.log(x) ** (1.0 - p) / (c * (p - 1.0))

    def inverse(t: float) -> float:
        return math.exp((c * (p - 1.0) * t) ** (1.0 / (1.0 - p)))

    return RateFunction(kind="log_power", domain_floor=math.e, evaluate=evaluate,
                        closed=(p > 1.0, u, inverse), meta={"exponent": p})


def quotient_monotonicity_defect(rate: RateFunction, x_hi: float = 1e6) -> float:
    """Largest decrease of phi(x)/x along a 400-point geometric sample of the domain.

    Nonpositive (up to rounding) for a valid rate function.
    """
    lo = max(rate.domain_floor * (1.0 + 1e-9), 1e-12)
    xs = np.geomspace(lo + 1e-12, max(x_hi, 10.0 * lo + 10.0), 400)
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.asarray(rate.evaluate(xs)) / xs
    q = q[np.isfinite(q)]
    if len(q) < 2:
        return 0.0
    return float(np.max(q[:-1] - q[1:]))


# ----------------------------------------------------------------------
# tail integrals U(x) = int_x^inf du/phi(u)

def is_integrable(rate: RateFunction) -> bool:
    """Whether 1/phi is integrable at infinity, by the exact criterion the
    rate carries in ``closed``; IntegrabilityError for a rate without one."""
    if rate.closed is None:
        raise IntegrabilityError(f"no closed-form tail integral for rate kind {rate.kind!r}")
    return rate.closed[0]


def _closed_form(rate: RateFunction) -> tuple[Callable, Callable]:
    """The closed (U, U^{-1}) of a rate; IntegrabilityError when it has none
    or its criterion says 1/phi is not integrable at infinity."""
    if not is_integrable(rate):
        raise IntegrabilityError(
            f"1/phi not integrable at infinity for rate kind {rate.kind!r}: "
            "no decay profile exists"
        )
    return rate.closed[1:]


def u_integral(rate: RateFunction, x: float) -> float:
    """U(x) = int_x^inf du/phi(u), strictly decreasing; closed forms only (``_closed_form``)."""
    return _closed_form(rate)[0](x)


def _cap_point(rate: RateFunction) -> float:
    """The largest max(1, 2M) 2^k, k >= 0, that is at most ``_X_CAP``."""
    h = max(1.0, 2.0 * rate.domain_floor)
    while 2.0 * h <= _X_CAP:
        h *= 2.0
    return h


@dataclass(frozen=True)
class KProfile:
    """Decay profile K(t) = sqrt(U^{-1}(t)) for t < U(M), sqrt(M) afterwards.

    U and U^{-1} are the closed forms the rate carries.  U^{-1}(t) is
    reported as inf, not as an overflow, for t <= ``u_at_cap``, U at
    ``_cap_point`` (the last point max(1, 2M) 2^k below ~1e250).
    """

    rate: RateFunction
    u_at_floor: float
    u_at_cap: float

    def evaluate(self, t: float) -> float:
        if not t > 0:
            raise ValueError(f"profile argument must be positive, got {t}")
        if t >= self.u_at_floor:
            return math.sqrt(self.rate.domain_floor)
        return math.sqrt(self.inverse(t))

    __call__ = evaluate

    def inverse(self, t: float) -> float:
        """U^{-1}(t) for 0 < t < U(M)."""
        if t <= self.u_at_cap:
            return math.inf
        try:
            return _closed_form(self.rate)[1](float(t))  # a numpy scalar would warn, not raise
        except (OverflowError, ZeroDivisionError):  # a power overflowing, or 0 ** negative
            return math.inf


def k_profile(rate: RateFunction) -> KProfile:
    """Build the decay profile of a rate; ``u_integral`` raises
    IntegrabilityError for a rate without one, when the profile is built."""
    return KProfile(
        rate=rate,
        u_at_floor=u_integral(rate, rate.domain_floor),
        u_at_cap=u_integral(rate, _cap_point(rate)),
    )


# ----------------------------------------------------------------------
# theorem-side bounds


def _growth(factor: float, c: float, t: float) -> float:
    """e^{factor c t} for t > 0, bounding the semigroup at time factor t;
    NumericError naming both times and c where it overflows."""
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    try:
        return math.exp(factor * c * t)
    except OverflowError:
        raise NumericError(f"e^({factor:g} c t) overflows at t = {t} "
                           f"(semigroup time {factor * t}) with c = {c}") from None


def l2_bound(kp: KProfile, cert: LyapunovCertificate, t: float) -> float:
    """Dominating side K(2t) e^{ct} of ||P_t f||_2 <= K(2t) e^{ct} ||fV||_1."""
    return _growth(1.0, cert.constant, t) * kp.evaluate(2.0 * t)


def kernel_bound(kp: KProfile, cert: LyapunovCertificate, t: float, x, y):
    """Kernel bound K(2t)^2 e^{2ct} V(x) V(y) dominating p_{2t}(x, y)."""
    growth = _growth(2.0, cert.constant, t)
    k, v = kp.evaluate(2.0 * t), cert.weight.value
    return _scalar_or_array(k * k * growth * np.asarray(v(x)) * np.asarray(v(y)))


def weight_squared_mass(model: MeasureModel, weight: Weight, grid: Grid) -> float:
    """int V^2 dmu over the window, refused when V is not in L^2(mu) on the line.

    Membership is judged from the tail decay of g = V^2 rho near the window
    edge, against T = sqrt(1 + x^2): the integral over the line converges
    when d log g / d log T is below -1, or when g decays faster than any
    power.  The slope must clear -1 by ``_L2_ROUNDING``, an allowance for
    rounding: on mu_a, V = exp(T^a/2) T^{-beta} gives g = C T^{-2 beta}
    exactly, so beta > 1/2 passes and beta = 1/2 is refused.  The universal
    weight gives g = 1 and is always refused.
    """
    r = grid.radius
    x1, x2 = 0.70 * r, 0.95 * r
    logg = lambda x: 2.0 * weight.log_value(x) + model.log_density(x)
    log_t = lambda x: 0.5 * math.log1p(x * x)
    slope = (float(logg(x2)) - float(logg(x1))) / (log_t(x2) - log_t(x1))
    if not slope < -1.0 - _L2_ROUNDING:
        raise IntegrabilityError(
            f"V^2 rho has tail slope {slope:.12g} in log sqrt(1+x^2), not below -1 by "
            f"the rounding allowance {_L2_ROUNDING:g}: V not in L2(mu)"
        )
    v = weight.value(grid.points)
    return float(np.sum(grid.node_masses * v * v))


def trace_bound(kp: KProfile, cert: LyapunovCertificate, mass: float, t: float) -> float:
    """Trace-side bound K(2t)^2 e^{2ct} int V^2 dmu for sum_n exp(-2 lambda_n t),
    with ``mass`` = int V^2 dmu of the certificate's weight, as
    ``weight_squared_mass`` gives it for a V in L^2(mu)."""
    growth = _growth(2.0, cert.constant, t)
    k = kp.evaluate(2.0 * t)
    return k * k * growth * mass


# ----------------------------------------------------------------------
# Lyapunov certificates


def lyapunov_constant(model: MeasureModel, weight: Weight, grid: Grid) -> LyapunovCertificate:
    """Certify LV <= cV with c = sup over the grid of L(log V) + (log V)'^2.

    The expression is (log V)'' + (log V)'^2 + b (log V)' with the model
    drift b, from the weight's closed-form ``dlog`` and ``d2log``: exact up
    to rounding, with no difference quotient.
    When the sampled maximum sits at a window edge where the expression is
    still growing, the sup may lie outside the window and no certificate is
    issued.
    """
    x = grid.points
    d1 = np.asarray(weight.dlog(x), dtype=float)
    d2 = np.asarray(weight.d2log(x), dtype=float)
    expr = d2 + d1 * d1 + model.drift(x) * d1

    # refuse when the sampled maximum sits at a window edge that is still
    # growing: the true supremum may then lie outside the window
    k = max(2, grid.n_points // 200)
    imax = int(np.argmax(expr))
    grow_left = imax <= k and expr[0] > expr[k]
    grow_right = imax >= grid.n_points - 1 - k and expr[-1] > expr[-1 - k]
    if grow_left or grow_right:
        raise CalibrationError(
            "Lyapunov expression attains its sampled maximum at a growing "
            "window edge; its supremum may be unbounded, refusing the certificate"
        )
    c = float(np.max(expr))
    return LyapunovCertificate(weight=weight, constant=c, residual_profile=expr - c)


# ----------------------------------------------------------------------
# Nash quotients and empirical calibration


def nash_quotients(norms: FamilyNorms) -> tuple[np.ndarray, np.ndarray]:
    """Quotient pairs (||f||_2^2/||fV||_1^2, E(f,f)/||fV||_1^2) for each row
    of a family, from its ``FamilyNorms`` (``family_norms`` with the weight V):
    the coordinates a weighted Nash inequality constrains, y >= phi(x)."""
    l1w = norms.l1w
    if np.any(l1w <= 0.0):
        raise ValueError("vanishing weighted L1 norm in the family")
    return norms.l2sq / l1w ** 2, norms.energy / l1w ** 2


def empirical_rate(xq: np.ndarray, yq: np.ndarray, lam: float, floor: float,
                   safety: float = 1.0) -> RateFunction:
    """Fit the greatest envelope phi(x) = C^{-1/lam}(x-C)^{1/lam} below the
    quotient pairs (xq, yq) of a family, as ``nash_quotients`` returns them.

    ``lam`` fixes the shape; C is the least shift keeping phi below every
    pair with x above ``floor``.  As phi_C(x) <= y exactly when C >= x / (1 +
    y^lam), C is the maximum of that over the pairs, walked a few ulps to the
    least float whose computed phi_C passes.  ``safety > 1`` inflates C,
    weakening the envelope for held-out data.

    Pairs with none above the floor yield a flagged degenerate rate.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0,1), got {lam}")
    if not safety >= 1.0:
        raise ValueError(f"safety factor must be >= 1, got {safety}")

    above = xq > floor
    degenerate = not bool(np.any(above))
    if degenerate:
        c_fit = floor
    else:

        def feasible(c: float) -> bool:
            return bool(np.all(envelope_slack(_envelope(c, lam, floor, False), xq, yq) >= 0.0))

        c_fit = float(np.max(xq[above] / (1.0 + yq[above] ** lam)))
        # up while infeasible, down while the float below is still feasible
        for _ in range(64):
            if not feasible(c_fit):
                c_fit = math.nextafter(c_fit, math.inf)
            elif feasible(below := math.nextafter(c_fit, 0.0)):
                c_fit = below
            else:
                break
        else:
            raise CalibrationError("the envelope shift did not settle within 64 ulps")
    c_fit *= safety
    return _envelope(c_fit, lam, floor, degenerate)


def _envelope(shift: float, lam: float, floor: float, degenerate: bool) -> RateFunction:
    """The envelope phi(x) = C^{-1/lam}(x - C)^{1/lam} at the shift C =
    ``shift``, with its closed U and U^{-1}, on (max(floor, C), inf)."""
    shift, lam = float(shift), float(lam)
    r = 1.0 / lam

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return _scalar_or_array(
            np.where(x > shift, shift ** -r * np.clip(x - shift, 0.0, None) ** r, 0.0)
        )

    def u(x: float) -> float:
        return math.inf if x <= shift else shift * (shift / (x - shift)) ** (r - 1.0) / (r - 1.0)

    def inverse(t: float) -> float:
        return shift + (t * (r - 1.0) / shift ** r) ** (1.0 / (1.0 - r))

    return RateFunction(kind="empirical_envelope", domain_floor=max(floor, shift),
                        evaluate=evaluate, closed=(0.0 < lam < 1.0, u, inverse),
                        meta={"c_shift": shift, "lam": lam, "configured_floor": float(floor),
                              "degenerate": degenerate})


def envelope_slack(rate: RateFunction, xq: np.ndarray, yq: np.ndarray) -> np.ndarray:
    """y - phi(x) over the quotient pairs with x above the floor, the pairs
    the envelope constrains; a negative entry is a pair below the envelope."""
    xq = np.asarray(xq, dtype=float)
    yq = np.asarray(yq, dtype=float)
    sel = xq > rate.domain_floor
    return yq[sel] - np.asarray(rate.evaluate(xq[sel]))


# ----------------------------------------------------------------------
# closed-form exponents for the exponential-power family


@dataclass(frozen=True)
class MuAExponents:
    """Interpolation exponents governing the exponential-power decay bounds;
    ``theta`` lies in (``theta_min``, 1)."""

    theta: float
    gamma: float
    lam: float
    delta: float
    theta_min: float


def _theta_lower_bound(a: float, beta: float) -> float:
    # 1/alpha with alpha < min(3/2, 1 + (beta - (3-a)/2)/a)
    return max(2.0 / 3.0, a / (a + beta - 0.5 * (3.0 - a)))


def mu_a_exponents(a: float, beta: float, theta: float | None = None) -> MuAExponents:
    """Closed-form exponents: gamma = 1 - 2(a-1)/(3(a-1)+2 beta),
    lambda = gamma + theta (1-gamma), delta = 2 lambda/(1-lambda).

    ``theta`` defaults to the midpoint of its admissible interval
    (theta_min(a, beta), 1); for beta > 3/2 that interval is (2/3, 1).
    """
    if not a > 1:
        raise ValueError(f"exponent a must exceed 1, got {a}")
    if not beta > max(0.0, 0.5 * (3.0 - a)):
        raise ValueError(
            f"beta must exceed max(0, (3-a)/2) = {max(0.0, 0.5 * (3.0 - a))}, got {beta}"
        )
    theta_min = _theta_lower_bound(a, beta)
    if theta is None:
        theta = 0.5 * (theta_min + 1.0)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    gamma = 1.0 - 2.0 * (a - 1.0) / (3.0 * (a - 1.0) + 2.0 * beta)
    lam = gamma + theta * (1.0 - gamma)
    if not lam < 1.0:
        raise ValueError(
            f"a={a} is so close to 1 that lambda rounds to 1; no usable exponent"
        )
    delta = 2.0 * lam / (1.0 - lam)
    return MuAExponents(theta=float(theta), gamma=gamma, lam=lam, delta=delta, theta_min=theta_min)


# ----------------------------------------------------------------------
# converse construction


def converse_rate(times: np.ndarray, k_values: np.ndarray) -> RateFunction:
    """Rate recovered from decay samples: phi(x) = max_t (x/2t) log(x/K(t)^2).

    The sup over the finite (log-spaced) sample grid is a lower bound on
    the true sup over t > 0; where every term is nonpositive, phi is
    reported as 0 (no constraint at that x).  Times must be finite and
    positive, K samples positive; K = inf, which a decay profile reads
    before it turns finite, bounds nothing and adds no term to the sup.
    """
    times = np.asarray(times, dtype=float)
    k_values = np.asarray(k_values, dtype=float)
    if times.shape != k_values.shape or times.size < 2:
        raise ValueError("need matching time/K sample arrays with at least 2 points")
    if not np.all(np.isfinite(times) & (times > 0) & (k_values > 0)):
        raise ValueError("times must be finite and positive, K samples positive or inf")
    ksq = k_values * k_values

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = (x[..., None] / (2.0 * times)) * np.log(x[..., None] / ksq)
        terms = np.where(np.isfinite(terms), terms, -np.inf)
        out = np.clip(np.max(terms, axis=-1), 0.0, None)
        return _scalar_or_array(np.where(x > 0.0, out, 0.0))

    return RateFunction(
        kind="converse",
        domain_floor=0.0,
        evaluate=evaluate,
        closed=None,
        # phi is positive exactly above the smallest sampled K(t)^2
        meta={"positivity_floor": float(np.min(ksq))},
    )
