"""Closed-form measure families on the real line, weights, and exact kernels.

Each family is packaged as a :class:`MeasureModel`: a density ``rho`` on a
truncation window ``[-R, R]``, its logarithm, and the drift ``(log rho)'``
of the associated Sturm-Liouville generator ``L f = f'' + (log rho)' f'``.
The window is chosen large enough that the neglected tail mass is below
``TAIL_TOL``, so window-normalized models behave as probability measures
for every downstream quadrature.

Window normalization constants come from a composite 32-point
Gauss-Legendre rule on panels graded away from the origin: breakpoints at
0, +-2^j for 1/4 <= 2^j < R, and +-R, so panels stay short where the
density peaks and long where it decays. The rule is run with 2 and with 4
panels per interval and the 4-panel sum is kept; the two sums must agree
to ``1e-13`` relative or the call raises
:class:`~heatlab.errors.NumericError`, so the quadrature error is checked
on every call rather than assumed. Both sums together take 1.5k-8k nodes
on the windows ``suggest_radius`` gives for a in [0.3, 8].

The exponential-power family uses the smoothed radius ``T(x) = sqrt(1+x^2)``
so the density ``C_a * exp(-T^a)`` is smooth at the origin for every
exponent ``a > 0``.

The Ornstein-Uhlenbeck model is kept separate from the ``a = 2`` member of
that family: its drift is ``-x`` (not ``-2x T'T``), and it is the one model
with an exact kernel in closed form (the Mehler kernel), which the rest of
the package uses as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .errors import NumericError

__all__ = [
    "TAIL_TOL",
    "MeasureModel",
    "Weight",
    "soft_abs",
    "make_mu_a",
    "make_cauchy",
    "make_ou",
    "make_lebesgue",
    "weight_mu_a",
    "universal_weight",
    "unit_weight",
    "mehler_weight",
    "tail_mass",
    "mehler_kernel",
    "mehler_diag_bound",
    "suggest_radius",
]

#: Mass allowed outside the truncation window for probability models.
TAIL_TOL = 1e-10

#: Gauss-Legendre nodes and weights on [-1, 1] for one normalization panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

#: Relative agreement required of the 2- and 4-panel normalization sums.
_NORM_RTOL = 1e-13


def _scalar_or_array(out):
    """A 0-d result as a Python float; any other array unchanged."""
    return out if np.ndim(out) else float(out)


def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def soft_abs(x):
    """Smoothed absolute value T(x) = sqrt(1 + x^2)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(1.0 + x * x)


@dataclass(frozen=True)
class MeasureModel:
    """A measure ``rho(x) dx`` on ``[-radius, radius]``.

    ``normalization`` is the multiplicative constant in front of the
    unnormalized density; ``math.inf`` flags a measure of infinite total
    mass (Lebesgue), for which no probability-model invariants apply.
    Closed forms give it where they exist (OU); otherwise it is the inverse
    of the graded Gauss-Legendre window mass with 4 panels per interval,
    which agreed with the 2-panel sum to 1e-13 relative (see the module
    docstring).
    """

    name: str
    radius: float
    density: Callable
    log_density: Callable
    drift: Callable
    normalization: float
    params: dict = field(default_factory=dict)

    @property
    def is_probability(self) -> bool:
        return math.isfinite(self.normalization)


@dataclass(frozen=True)
class Weight:
    """A positive weight function V together with log V.

    ``dlog`` / ``d2log`` are optional closed-form derivatives of ``log V``;
    when absent, consumers fall back to central finite differences.
    """

    value: Callable
    log_value: Callable
    params: dict = field(default_factory=dict)
    dlog: Optional[Callable] = None
    d2log: Optional[Callable] = None


def _graded_gauss(unnormalized: Callable, radius: float, panels: int) -> float:
    """Gauss-Legendre sum of ``unnormalized`` over ``[-radius, radius]``,
    ``panels`` equal panels per interval between the graded breakpoints."""
    edges = np.concatenate(([0.0], np.exp2(np.arange(-2, math.log2(radius))), [radius]))
    steps = np.arange(panels) / panels
    edges = np.append((edges[:-1, None] + np.diff(edges)[:, None] * steps).ravel(), radius)
    edges = np.concatenate((-edges[:0:-1], edges))
    half = 0.5 * np.diff(edges)
    x = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * _GL_NODES
    return float(np.dot(unnormalized(x).ravel(), (half[:, None] * _GL_WEIGHTS).ravel()))


def _window_normalization(unnormalized: Callable, radius: float) -> float:
    if not math.isfinite(radius):
        raise ValueError(f"window radius {radius!r} is not finite")
    coarse = _graded_gauss(unnormalized, radius, 2)
    total = _graded_gauss(unnormalized, radius, 4)
    if not (total > 0.0 and math.isfinite(total)):
        raise ValueError(f"unnormalized mass {total!r} is not a positive finite number")
    if not abs(coarse - total) <= _NORM_RTOL * total:
        raise NumericError(
            f"window normalization unresolved: 2- and 4-panel Gauss-Legendre sums "
            f"{coarse!r} and {total!r} differ by more than {_NORM_RTOL:g} relative"
        )
    return 1.0 / total


def make_mu_a(a: float, radius: float) -> MeasureModel:
    """Exponential-power measure ``C_a exp(-T(x)^a) dx`` on ``[-radius, radius]``.

    The drift is the closed form ``-a T^{a-1} T'`` with ``T'(x) = x/T(x)``.
    """
    if not a > 0:
        raise ValueError(f"exponent a must be positive, got {a}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    c_a = _window_normalization(lambda x: np.exp(-soft_abs(x) ** a), radius)
    log_c = math.log(c_a)

    def log_density(x):
        return log_c - soft_abs(x) ** a

    def density(x):
        return c_a * np.exp(-soft_abs(x) ** a)

    def drift(x):
        x = np.asarray(x, dtype=float)
        return -a * x * soft_abs(x) ** (a - 2.0)

    return MeasureModel(
        name=f"mu_a(a={a:g})",
        radius=float(radius),
        density=density,
        log_density=log_density,
        drift=drift,
        normalization=c_a,
        params={"family": "mu_a", "a": float(a)},
    )


def make_cauchy(beta: float, radius: float) -> MeasureModel:
    """Cauchy-type measure ``C (1+x^2)^{-beta} dx`` with ``beta > 1``."""
    if not beta > 1:
        raise ValueError(f"beta must exceed 1 for finite mass, got {beta}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    c = _window_normalization(lambda x: (1.0 + x * x) ** (-beta), radius)
    log_c = math.log(c)

    def log_density(x):
        x = np.asarray(x, dtype=float)
        return log_c - beta * np.log1p(x * x)

    def density(x):
        x = np.asarray(x, dtype=float)
        return c * (1.0 + x * x) ** (-beta)

    def drift(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * beta * x / (1.0 + x * x)

    return MeasureModel(
        name=f"cauchy(beta={beta:g})",
        radius=float(radius),
        density=density,
        log_density=log_density,
        drift=drift,
        normalization=c,
        params={"family": "cauchy", "beta": float(beta)},
    )


def make_ou(radius: float = 8.0) -> MeasureModel:
    """Ornstein-Uhlenbeck model: standard Gaussian measure, drift ``-x``.

    Normalized over the whole line; with ``radius >= 7`` the tail mass
    outside the window is below TAIL_TOL.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    c = 1.0 / math.sqrt(2.0 * math.pi)
    log_c = math.log(c)

    def log_density(x):
        x = np.asarray(x, dtype=float)
        return log_c - 0.5 * x * x

    def density(x):
        x = np.asarray(x, dtype=float)
        return c * np.exp(-0.5 * x * x)

    def drift(x):
        return -np.asarray(x, dtype=float)

    return MeasureModel(
        name="ou",
        radius=float(radius),
        density=density,
        log_density=log_density,
        drift=drift,
        normalization=c,
        params={"family": "ou"},
    )


def make_lebesgue(radius: float) -> MeasureModel:
    """Lebesgue measure on the window (infinite total mass on the line)."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return MeasureModel(
        name="lebesgue",
        radius=float(radius),
        density=_ones,
        log_density=_zeros,
        drift=_zeros,
        normalization=math.inf,
        params={"family": "lebesgue"},
    )


def weight_mu_a(a: float, beta: float) -> Weight:
    """Weight ``V = exp(T^a/2) T^{-beta}`` for the exponential-power family.

    log V = T^a/2 - beta log T, with closed-form first and second
    derivatives (used by the Lyapunov machinery).
    """
    if not a > 0:
        raise ValueError(f"exponent a must be positive, got {a}")

    def log_value(x):
        t = soft_abs(x)
        return 0.5 * t ** a - beta * np.log(t)

    def value(x):
        return np.exp(log_value(x))

    def dlog(x):
        x = np.asarray(x, dtype=float)
        t = soft_abs(x)
        return 0.5 * a * x * t ** (a - 2.0) - beta * x / (t * t)

    def d2log(x):
        x = np.asarray(x, dtype=float)
        t = soft_abs(x)
        return (
            0.5 * a * t ** (a - 2.0)
            + 0.5 * a * (a - 2.0) * x * x * t ** (a - 4.0)
            - beta / (t * t)
            + 2.0 * beta * x * x * t ** -4.0
        )

    return Weight(
        value=value,
        log_value=log_value,
        params={"family": "mu_a", "a": float(a), "beta": float(beta)},
        dlog=dlog,
        d2log=d2log,
    )


def universal_weight(model: MeasureModel) -> Weight:
    """The universal weight ``V = rho^{-1/2}`` of a measure model."""

    def log_value(x):
        return -0.5 * model.log_density(x)

    def value(x):
        return np.exp(log_value(x))

    def dlog(x):
        return -0.5 * model.drift(x)

    return Weight(
        value=value,
        log_value=log_value,
        params={"family": "universal", "model": model.name},
        dlog=dlog,
        d2log=None,
    )


def unit_weight() -> Weight:
    """The trivial weight V = 1 (plain Nash inequality setting)."""
    return Weight(value=_ones, log_value=_zeros, params={"family": "unit"},
                  dlog=_zeros, d2log=_zeros)


def mehler_weight(t: float) -> Weight:
    """Time-dependent OU weight V_t with ||P_t f||_2 <= ||f V_t||_1 exactly.

    V_t(y) = (1 - e^{-4t})^{-1/4} exp(y^2 / (2(1 + e^{2t}))).
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    pref = (1.0 - math.exp(-4.0 * t)) ** -0.25
    denom = 2.0 * (1.0 + math.exp(2.0 * t))

    def log_value(x):
        x = np.asarray(x, dtype=float)
        return math.log(pref) + x * x / denom

    def value(x):
        return np.exp(log_value(x))

    def dlog(x):
        return 2.0 * np.asarray(x, dtype=float) / denom

    def d2log(x):
        return np.full_like(np.asarray(x, dtype=float), 2.0 / denom)

    return Weight(value=value, log_value=log_value,
                  params={"family": "mehler", "t": float(t)},
                  dlog=dlog, d2log=d2log)


def tail_mass(model: MeasureModel, x: float) -> float:
    """Tail mass q(x) = mu([x, R]) of the truncated model.

    Adaptive quadrature with a relative (not absolute) tolerance, so the
    result stays accurate even where q is many orders below 1.
    """
    r = model.radius
    if not -r <= x <= r:
        raise ValueError(f"x={x} outside the truncation window [-{r}, {r}]")

    def f(u):
        return float(model.density(u))

    if x < 0.0:
        # split at the density peak so quad resolves both sides
        left, _ = quad(f, x, 0.0, epsabs=0.0, epsrel=1e-11, limit=200)
        right, _ = quad(f, 0.0, r, epsabs=0.0, epsrel=1e-11, limit=200)
        return left + right
    val, _ = quad(f, x, r, epsabs=0.0, epsrel=1e-11, limit=200)
    return val


def mehler_kernel(t: float, x, y):
    """Ornstein-Uhlenbeck kernel density w.r.t. the Gaussian measure.

    p_t(x,y) = (1-e^{-2t})^{-1/2}
               exp(-(e^{-2t}(x^2+y^2) - 2 e^{-t} x y) / (2(1-e^{-2t}))).
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = math.exp(-t)
    den = 1.0 - r * r
    # grouped as r*(x*y) so the evaluation is symmetric in (x, y) exactly
    expo = -(r * r * (x * x + y * y) - 2.0 * r * (x * y)) / (2.0 * den)
    return _scalar_or_array(den ** -0.5 * np.exp(expo))


def mehler_diag_bound(t: float, x, y):
    """Cauchy-Schwarz bound p_{2t}(x,x)^{1/2} p_{2t}(y,y)^{1/2} for the OU kernel.

    Equals (1-e^{-4t})^{-1/2} exp(x^2/(2(1+e^{2t}))) exp(y^2/(2(1+e^{2t}))),
    dominates mehler_kernel(2t, x, y), with equality at x = y.
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pref = (1.0 - math.exp(-4.0 * t)) ** -0.5
    denom = 2.0 * (1.0 + math.exp(2.0 * t))
    return _scalar_or_array(pref * np.exp(x * x / denom + y * y / denom))


def suggest_radius(a: float, tail_tol: float = TAIL_TOL) -> float:
    """Window radius for the exponential-power family with tail below tail_tol.

    Uses the tail estimate q(R) ~ rho(R) / (a T(R)^{a-1}) with a x100 safety
    margin; a few fixed-point iterations on T^a = log(.) suffice.
    """
    if not a > 0:
        raise ValueError(f"exponent a must be positive, got {a}")
    if not 0 < tail_tol < 1:
        raise ValueError(f"tail_tol must be in (0,1), got {tail_tol}")
    target = math.log(100.0 / tail_tol)
    ta = max(target, 2.0)
    for _ in range(60):
        ta = target - math.log(a) - (a - 1.0) / a * math.log(ta)
    return math.sqrt(max(ta ** (2.0 / a) - 1.0, 1.0))
