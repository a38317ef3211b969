"""Rate functions, Lyapunov certificates, and the decay-profile machinery.

The central pipeline: a weighted Nash inequality

    phi( ||f||_2^2 / ||fV||_1^2 ) <= E(f,f) / ||fV||_1^2     (x > M)

together with a Lyapunov certificate LV <= cV yields

    ||P_t f||_2 <= K(2t) e^{ct} ||f V||_1,

where K(x) = sqrt(U^{-1}(x)) for x < U(M) and sqrt(M) after, with
U(x) = int_x^inf du/phi(u).  Kernel and trace bounds follow by squaring:
p_{2t}(x,y) <= K(2t)^2 e^{2ct} V(x)V(y) and
sum_n exp(-2 lambda_n t) <= K(2t)^2 e^{2ct} int V^2 dmu.

Rate functions come in closed-form kinds (powers, log-powers, the fitted
envelope shape C^{-1/lam}(x - C)^{1/lam}) with analytic tail integrals, and
numeric kinds (converse construction, Super-Poincare envelopes) integrated
by quadrature.  Every rate satisfies phi(x)/x nondecreasing on its domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import CalibrationError, IntegrabilityError, NumericError
from .measures import MeasureModel, Weight, _scalar_or_array
from .spectral import Grid, TridiagonalOperator, dirichlet_energy, weighted_l1

__all__ = [
    "RateFunction",
    "LyapunovCertificate",
    "KProfile",
    "MuAExponents",
    "power_rate",
    "classical_nash_rate",
    "log_rate",
    "integrability_test",
    "u_integral",
    "k_profile",
    "l2_bound",
    "kernel_bound",
    "trace_bound",
    "weight_squared_mass",
    "lyapunov_constant",
    "nash_quotients",
    "empirical_rate",
    "envelope_violations",
    "mu_a_exponents",
    "converse_rate",
    "super_poincare_envelope",
    "quotient_monotonicity_defect",
    "DEFAULT_CONVERSE_TIMES",
]

#: Default log-spaced grid over which the converse construction takes its sup.
#: A finite grid makes the result a certified lower bound on the true sup.
DEFAULT_CONVERSE_TIMES = np.geomspace(1e-3, 1e2, 64)

_UINV_REL_TOL = 1e-12
_X_CAP = 1e250  # beyond this, U^{-1} is reported as inf


@dataclass(frozen=True)
class RateFunction:
    """A rate phi > 0 on (domain_floor, inf) with phi(x)/x nondecreasing."""

    kind: str
    domain_floor: float
    evaluate: Callable
    meta: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.evaluate(x)


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


def power_rate(coefficient: float, exponent: float, floor: float = 0.0) -> RateFunction:
    """phi(x) = coefficient * x^exponent on (floor, inf)."""
    if not coefficient > 0:
        raise ValueError(f"coefficient must be positive, got {coefficient}")
    if floor < 0:
        raise ValueError(f"floor must be nonnegative, got {floor}")

    def evaluate(x):
        return _scalar_or_array(coefficient * np.asarray(x, dtype=float) ** exponent)

    return RateFunction(
        kind="power",
        domain_floor=float(floor),
        evaluate=evaluate,
        meta={"coefficient": float(coefficient), "exponent": float(exponent)},
    )


def classical_nash_rate(n: float, coefficient: float = 1.0) -> RateFunction:
    """Classical Nash rate phi(x) = C x^{1+2/n} with floor M = 0."""
    if not n > 0:
        raise ValueError(f"dimension parameter must be positive, got {n}")
    return power_rate(coefficient, 1.0 + 2.0 / n, 0.0)


def log_rate(a: float, coefficient: float = 1.0, floor: float = math.e) -> RateFunction:
    """Log-power rate phi(x) = C x (log x)^{2(1-1/a)} on (floor, inf), floor > 1."""
    if not a > 1:
        raise ValueError(f"exponent a must exceed 1, got {a}")
    if not floor > 1:
        raise ValueError(f"floor must exceed 1, got {floor}")
    p = 2.0 * (1.0 - 1.0 / a)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return _scalar_or_array(coefficient * x * np.log(x) ** p)

    return RateFunction(
        kind="log_power",
        domain_floor=float(floor),
        evaluate=evaluate,
        meta={"coefficient": float(coefficient), "exponent": p, "a": float(a)},
    )


def quotient_monotonicity_defect(rate: RateFunction, x_hi: float = 1e6, n: int = 400) -> float:
    """Largest decrease of phi(x)/x along a geometric sample of the domain.

    Nonpositive (up to rounding) for a valid rate function.
    """
    lo = max(rate.domain_floor * (1.0 + 1e-9), 1e-12)
    xs = np.geomspace(lo + 1e-12, max(x_hi, 10.0 * lo + 10.0), n)
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.asarray(rate.evaluate(xs)) / xs
    q = q[np.isfinite(q)]
    if len(q) < 2:
        return 0.0
    return float(np.max(q[:-1] - q[1:]))


# ----------------------------------------------------------------------
# tail integrals U(x) = int_x^inf du/phi(u)

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gauss_block(f: Callable, lo: float, hi: float) -> float:
    u = 0.5 * (hi - lo) * _GAUSS_NODES + 0.5 * (hi + lo)
    return float(np.sum(_GAUSS_WEIGHTS * f(u)) * 0.5 * (hi - lo))


def _log_integrand(rate: RateFunction) -> Callable:
    """u -> x/phi(x) at x = e^u, the integrand of int dx/phi(x) after the
    substitution x = e^u; inf where phi is not positive or not finite."""

    def integrand(u):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = np.exp(u)
            phi = np.asarray(rate.evaluate(x), dtype=float)
            out = np.where(phi > 0.0, x / phi, np.inf)
        return np.nan_to_num(out, nan=np.inf, posinf=np.inf)

    return integrand


def integrability_test(rate: RateFunction) -> bool:
    """Numeric probe of int^inf dx/phi(x) convergence.

    Integrates 1/phi over doubling blocks in u = log x and inspects the
    ratio of successive block integrals: summable blocks (ratio staying
    below 0.95) certify convergence, otherwise the tail is declared
    divergent.  Rates with block ratio in [0.95, 1), i.e. log-power
    exponents within ~7% above the harmonic borderline, are conservatively
    classified as divergent.
    """
    u0 = max(1.0, math.log(max(2.0, 2.0 * rate.domain_floor)))
    integrand = _log_integrand(rate)
    blocks = []
    j = 0
    while u0 * 2 ** (j + 1) <= 600.0:
        blocks.append(_gauss_block(integrand, u0 * 2 ** j, u0 * 2 ** (j + 1)))
        j += 1
    blocks = np.asarray(blocks)
    if not np.all(np.isfinite(blocks)):
        return False
    if np.any(blocks[-3:] == 0.0):
        return True
    ratios = blocks[1:] / blocks[:-1]
    return bool(np.mean(ratios[-3:]) < 0.95)


def _require_integrable(rate: RateFunction) -> None:
    integrable = rate.meta.get("_integrable")
    if integrable is None:
        closed = _CLOSED_FORMS.get(rate.kind)
        integrable = integrability_test(rate) if closed is None else closed[0](rate.meta)
        rate.meta["_integrable"] = integrable  # cache: probing is not free
    if not integrable:
        raise IntegrabilityError(
            f"1/phi not integrable at infinity for rate kind {rate.kind!r}: "
            "no decay profile exists"
        )


def _u_numeric(rate: RateFunction, x: float) -> float:
    """Block quadrature of int_x^inf du/phi(u) in u = log substitution."""
    integrand = _log_integrand(rate)
    if float(np.asarray(rate.evaluate(x * (1.0 + 1e-12)))) <= 0.0:
        return math.inf
    total = 0.0
    u = math.log(x)
    width = 0.5
    converged = False
    while u < 600.0:
        u2 = min(u + width, 600.0)
        block = _gauss_block(integrand, u, u2)
        if not math.isfinite(block):
            return math.inf
        total += block
        if u > math.log(x) + 5.0 and block < 1e-15 * max(total, 1e-300):
            converged = True
            break
        u = u2
        width = min(width * 1.6, 80.0)
    if not converged:
        # power-law tail from the local log-log slope at the far end
        xf = math.exp(min(u, 600.0))
        p1 = float(np.asarray(rate.evaluate(xf / 2.0)))
        p2 = float(np.asarray(rate.evaluate(xf)))
        if not (p1 > 0 and p2 > 0):
            return math.inf
        slope = math.log(p2 / p1) / math.log(2.0)
        if slope <= 1.05:
            raise IntegrabilityError(
                "tail of 1/phi decays too slowly to certify a finite integral"
            )
        total += xf / (p2 * (slope - 1.0))
    return total


def u_integral(rate: RateFunction, x: float) -> float:
    """U(x) = int_x^inf du/phi(u); strictly decreasing in x, may be inf at the floor.

    The kinds in ``_CLOSED_FORMS`` use their closed form; any other kind is
    integrated by ``_u_numeric``.  Raises IntegrabilityError when 1/phi is
    not integrable at infinity.
    """
    _require_integrable(rate)
    closed = _CLOSED_FORMS.get(rate.kind)
    if closed is not None:
        return closed[1](rate.meta, x)
    if x <= max(rate.domain_floor, 0.0):
        return math.inf
    return _u_numeric(rate, x)


def _bisect_inverse(rate: RateFunction, t: float) -> float:
    """U^{-1}(t) by bisection on the strictly decreasing U (relative tolerance
    1e-12); inf when U stays >= t at every doubling point up to ~1e250."""
    m = rate.domain_floor
    hi = max(1.0, 2.0 * m)
    while u_integral(rate, hi) >= t:
        hi *= 2.0
        if hi > _X_CAP:
            return math.inf
    lo = m
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if u_integral(rate, mid) > t:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _UINV_REL_TOL * max(abs(hi), 1.0):
            break
    return 0.5 * (lo + hi)


def _cap_point(rate: RateFunction) -> float:
    """The last point max(1, 2M) 2^k <= ~1e250 of the bisection's doubling."""
    h = max(1.0, 2.0 * rate.domain_floor)
    while 2.0 * h <= _X_CAP:
        h *= 2.0
    return h


def _power_u(meta: dict, x: float) -> float:
    c, r = meta["coefficient"], meta["exponent"]
    return math.inf if x <= 0.0 else x ** (1.0 - r) / (c * (r - 1.0))


def _power_inverse(meta: dict, t: float) -> float:
    c, r = meta["coefficient"], meta["exponent"]
    return (c * (r - 1.0) * t) ** (1.0 / (1.0 - r))


def _log_power_u(meta: dict, x: float) -> float:
    c, p = meta["coefficient"], meta["exponent"]
    return math.inf if x <= 1.0 else math.log(x) ** (1.0 - p) / (c * (p - 1.0))


def _log_power_inverse(meta: dict, t: float) -> float:
    c, p = meta["coefficient"], meta["exponent"]
    return math.exp((c * (p - 1.0) * t) ** (1.0 / (1.0 - p)))


def _envelope_u(meta: dict, x: float) -> float:
    shift, r = meta["c_shift"], 1.0 / meta["lam"]
    if x <= shift:
        return math.inf
    with np.errstate(over="ignore"):
        return float(shift ** r * (x - shift) ** (1.0 - r) / (r - 1.0))


def _envelope_inverse(meta: dict, t: float) -> float:
    shift, r = meta["c_shift"], 1.0 / meta["lam"]
    return shift + (t * (r - 1.0) / shift ** r) ** (1.0 / (1.0 - r))


#: The rate kinds with closed forms: kind -> (whether 1/phi is integrable at
#: infinity, given the meta; U(x); U^{-1}(t)).  Every other kind is integrated
#: by quadrature and inverted by bisection.
_CLOSED_FORMS = {
    "power": (lambda meta: meta["exponent"] > 1.0, _power_u, _power_inverse),
    "log_power": (lambda meta: meta["exponent"] > 1.0, _log_power_u, _log_power_inverse),
    "empirical_envelope": (lambda meta: 0.0 < meta["lam"] < 1.0, _envelope_u, _envelope_inverse),
}


@dataclass(frozen=True)
class KProfile:
    """Decay profile K(t) = sqrt(U^{-1}(t)) for t < U(M), sqrt(M) afterwards.

    The closed-form kinds (power, log-power, fitted envelope) invert U
    explicitly; the numeric kinds bisect the strictly decreasing U
    (relative tolerance 1e-12).  U^{-1}(t) is inf, rather than an overflow,
    where the bisection's doubling would pass ~1e250: for the closed-form
    kinds that is exactly t <= ``u_at_cap``, U at the last doubling point;
    for the numeric kinds ``u_at_cap`` is 0 and the bisection applies the
    cap itself.
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
        closed = _CLOSED_FORMS.get(self.rate.kind)
        if closed is None:
            return _bisect_inverse(self.rate, t)
        try:
            return closed[2](self.rate.meta, t)
        except (OverflowError, ZeroDivisionError):  # a power overflowing, or 0 ** negative
            return math.inf


def k_profile(rate: RateFunction) -> KProfile:
    """Build the decay profile of a rate; raises IntegrabilityError when
    1/phi is not integrable at infinity (no profile exists)."""
    _require_integrable(rate)
    closed = rate.kind in _CLOSED_FORMS
    return KProfile(
        rate=rate,
        u_at_floor=u_integral(rate, rate.domain_floor),
        u_at_cap=u_integral(rate, _cap_point(rate)) if closed else 0.0,
    )


# ----------------------------------------------------------------------
# theorem-side bounds


def l2_bound(kp: KProfile, cert: LyapunovCertificate, t: float) -> float:
    """Dominating side K(2t) e^{ct} of ||P_t f||_2 <= K(2t) e^{ct} ||fV||_1."""
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    return kp.evaluate(2.0 * t) * math.exp(cert.constant * t)


def kernel_bound(kp: KProfile, cert: LyapunovCertificate, t: float, x, y):
    """Kernel bound K(2t)^2 e^{2ct} V(x) V(y) dominating p_{2t}(x, y)."""
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    k = kp.evaluate(2.0 * t)
    v = cert.weight.value
    return _scalar_or_array(
        k * k * math.exp(2.0 * cert.constant * t) * np.asarray(v(x)) * np.asarray(v(y))
    )


def weight_squared_mass(model: MeasureModel, weight: Weight, grid: Grid) -> float:
    """int V^2 dmu over the window, refused when V is not in L^2(mu) on the line.

    Membership is judged from the tail decay of g = V^2 rho near the window
    edge: the integral over the line converges when d log g / d log x stays
    below -1 (with a 0.05 margin), or trivially when g decays faster than
    any power.  The universal weight gives g = 1 and is always refused.
    """
    r = grid.radius
    x1, x2 = 0.70 * r, 0.95 * r
    logg = lambda x: 2.0 * weight.log_value(x) + model.log_density(x)
    slope = (float(logg(x2)) - float(logg(x1))) / (math.log(x2) - math.log(x1))
    if not slope < -1.05:
        raise IntegrabilityError(
            f"V^2 rho has log-log tail slope {slope:.3f} >= -1.05: V not in L2(mu)"
        )
    v = weight.value(grid.points)
    return float(np.sum(grid.node_masses * v * v))


def trace_bound(
    kp: KProfile,
    cert: LyapunovCertificate,
    model: MeasureModel,
    grid: Grid,
    t: float,
) -> float:
    """Trace-side bound K(2t)^2 e^{2ct} int V^2 dmu for sum_n exp(-2 lambda_n t)."""
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    mass = weight_squared_mass(model, cert.weight, grid)
    k = kp.evaluate(2.0 * t)
    return k * k * math.exp(2.0 * cert.constant * t) * mass


# ----------------------------------------------------------------------
# Lyapunov certificates


def lyapunov_constant(
    model: MeasureModel, weight: Weight, grid: Grid, fd_step: float = 1e-5
) -> LyapunovCertificate:
    """Certify LV <= cV with c = sup over the grid of L(log V) + (log V)'^2.

    The expression is (log V)'' + (log V)'^2 + b (log V)' with the model
    drift b; the weight's closed-form ``dlog`` / ``d2log`` supply the
    derivatives of log V where it has them (``weight_mu_a`` has both),
    central finite differences otherwise.  When the sampled maximum sits
    at a window edge where the expression is still growing, the sup may
    lie outside the window and no certificate is issued.
    """
    x = grid.points
    step = fd_step * np.maximum(1.0, np.abs(x))
    if weight.dlog is not None:
        d1 = np.asarray(weight.dlog(x), dtype=float)
    else:
        d1 = (weight.log_value(x + step) - weight.log_value(x - step)) / (2.0 * step)
    if weight.d2log is not None:
        d2 = np.asarray(weight.d2log(x), dtype=float)
    elif weight.dlog is not None:
        d2 = (weight.dlog(x + step) - weight.dlog(x - step)) / (2.0 * step)
    else:
        d2 = (
            weight.log_value(x + step) - 2.0 * weight.log_value(x) + weight.log_value(x - step)
        ) / (step * step)
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


def nash_quotients(
    family: np.ndarray,
    weight: Weight,
    model: MeasureModel,
    op: TridiagonalOperator,
) -> tuple[np.ndarray, np.ndarray]:
    """Quotient pairs (||f||_2^2/||fV||_1^2, E(f,f)/||fV||_1^2) for each row,
    the coordinates a weighted Nash inequality constrains: y >= phi(x)."""
    family = np.atleast_2d(np.asarray(family, dtype=float))
    l1w = weighted_l1(family, weight, op.grid)
    if np.any(l1w <= 0.0):
        raise ValueError("vanishing weighted L1 norm in the family")
    l2sq = (family * family) @ op.grid.node_masses
    return l2sq / l1w ** 2, dirichlet_energy(family, op) / l1w ** 2


def empirical_rate(
    family: np.ndarray,
    weight: Weight,
    model: MeasureModel,
    op: TridiagonalOperator,
    exponents: "MuAExponents | None" = None,
    lam: float | None = None,
    floor: float | None = None,
    floor_scale: float = 1.5,
    safety: float = 1.0,
) -> RateFunction:
    """Fit the greatest envelope phi(x) = C^{-1/lam}(x-C)^{1/lam} below a family.

    ``lam`` (or ``exponents.lam``) fixes the shape; C is found by bisection
    as the smallest shift keeping phi below every sampled quotient pair with
    x above the floor (default: ``floor_scale`` times the quotient of the
    constant function).  ``safety > 1`` inflates the fitted C, weakening the
    envelope; useful when the rate must hold on held-out data.

    A family with no sample above the floor yields a flagged degenerate rate.
    """
    if exponents is not None:
        lam = exponents.lam
    if lam is None:
        raise ValueError("supply lam or exponents")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0,1), got {lam}")
    if not safety >= 1.0:
        raise ValueError(f"safety factor must be >= 1, got {safety}")

    xq, yq = nash_quotients(family, weight, model, op)
    v = weight.value(op.grid.points)
    x_const = 1.0 / float(np.sum(op.grid.node_masses * v)) ** 2
    m_floor = float(floor) if floor is not None else floor_scale * x_const

    r = 1.0 / lam
    degenerate = not bool(np.any(xq > m_floor))
    if degenerate:
        c_fit = m_floor
    else:

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
    c_fit *= safety
    floor_eff = max(m_floor, c_fit)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return _scalar_or_array(
            np.where(x > c_fit, c_fit ** -r * np.clip(x - c_fit, 0.0, None) ** r, 0.0)
        )

    return RateFunction(
        kind="empirical_envelope",
        domain_floor=floor_eff,
        evaluate=evaluate,
        meta={
            "c_shift": float(c_fit),
            "lam": float(lam),
            "configured_floor": m_floor,
            "constant_quotient": x_const,
            "degenerate": degenerate,
            "safety": float(safety),
            "n_samples": int(np.atleast_2d(family).shape[0]),
        },
    )


def envelope_violations(
    rate: RateFunction, xq: np.ndarray, yq: np.ndarray, slack: float = 1e-9
) -> int:
    """Count quotient pairs with x above the floor violating y >= phi(x) - slack."""
    xq = np.asarray(xq, dtype=float)
    yq = np.asarray(yq, dtype=float)
    sel = xq > rate.domain_floor
    if not np.any(sel):
        return 0
    phi = np.asarray(rate.evaluate(xq[sel]))
    return int(np.sum(yq[sel] < phi - slack))


# ----------------------------------------------------------------------
# closed-form exponents for the exponential-power family


@dataclass(frozen=True)
class MuAExponents:
    """Interpolation exponents governing the exponential-power decay bounds."""

    a: float
    beta: float
    theta: float
    gamma: float
    lam: float
    delta: float
    theta_bounds: tuple[float, float]


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
    return MuAExponents(
        a=float(a),
        beta=float(beta),
        theta=float(theta),
        gamma=gamma,
        lam=lam,
        delta=delta,
        theta_bounds=(theta_min, 1.0),
    )


# ----------------------------------------------------------------------
# converse construction and Super-Poincare envelope


def converse_rate(times: np.ndarray, k_values: np.ndarray) -> RateFunction:
    """Rate recovered from decay samples: phi(x) = max_t (x/2t) log(x/K(t)^2).

    The sup over the finite (log-spaced) sample grid is a lower bound on
    the true sup over t > 0; where every term is nonpositive, phi is
    reported as 0 (no constraint at that x).
    """
    times = np.asarray(times, dtype=float)
    k_values = np.asarray(k_values, dtype=float)
    if times.shape != k_values.shape or times.size < 2:
        raise ValueError("need matching time/K sample arrays with at least 2 points")
    if not (np.all(times > 0) and np.all(k_values > 0)):
        raise ValueError("times and K samples must be positive")
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
        meta={
            "n_samples": int(times.size),
            "t_lo": float(times.min()),
            "t_hi": float(times.max()),
            # phi is positive exactly above the smallest sampled K(t)^2
            "positivity_floor": float(np.min(ksq)),
        },
    )


def super_poincare_envelope(a_values: np.ndarray, b_values: np.ndarray) -> RateFunction:
    """Rate from Super-Poincare data: invert psi(x) = min_a (a x + b(a)).

    psi is increasing and concave when all sampled slopes are positive;
    its inverse is the convex rate phi(u) = max_a (u - b(a))/a, defined
    above the floor min b.  Nonpositive slopes make psi non-increasing
    somewhere and the inversion is refused.

    Beyond the sampled slopes the inverse grows only linearly (slope
    1/min a), so a finite-grid envelope never has an integrable 1/phi
    tail; it is a lower bound on the continuum rate, useful for quotient
    constraints but not for decay profiles.
    """
    a_values = np.asarray(a_values, dtype=float)
    b_values = np.asarray(b_values, dtype=float)
    if a_values.shape != b_values.shape or a_values.size < 1:
        raise ValueError("need matching a/b sample arrays")
    if np.any(b_values < 0.0):
        raise ValueError("b(a) must be nonnegative")
    if np.any(a_values <= 0.0):
        raise NumericError(
            "inversion error: psi is not strictly increasing (nonpositive slope sampled)"
        )

    def psi(x):
        x = np.asarray(x, dtype=float)
        return _scalar_or_array(np.min(a_values * x[..., None] + b_values, axis=-1))

    floor = float(np.min(b_values))

    def evaluate(u):
        u = np.asarray(u, dtype=float)
        out = np.max((u[..., None] - b_values) / a_values, axis=-1)
        return _scalar_or_array(np.clip(out, 0.0, None))

    return RateFunction(
        kind="super_poincare",
        domain_floor=floor,
        evaluate=evaluate,
        meta={"psi": psi, "n_samples": int(a_values.size)},
    )
