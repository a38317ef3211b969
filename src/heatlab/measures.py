"""Closed-form measure families on the real line, weights, and exact kernels.

Each family is packaged as a :class:`MeasureModel`: a density ``rho`` on a
truncation window ``[-R, R]``, its logarithm, the drift ``b = (log rho)'``
of the associated Sturm-Liouville generator ``L f = f'' + (log rho)' f'``,
and the drift's derivative ``b'``, all in closed form.
The window is chosen large enough that the neglected tail mass is below
``TAIL_TOL``, so window-normalized models behave as probability measures
for every downstream quadrature.

Every integral in the package, a normalization constant or a tail mass
over [lo, hi], uses one composite 32-point Gauss-Legendre rule on panels
graded away from the origin (breakpoints lo, 0 when inside, the
+-2^j >= 1/4 inside, and hi): short where a density peaks and long where
it decays. Such an integral is run with 2 and with 4 panels per interval
and keeps the 4-panel sum; the two must agree to ``1e-13`` relative or the
call raises :class:`~heatlab.errors.NumericError`, so the error is checked
on every call. Normalization at ``suggest_radius`` takes 1.5k-8k nodes.

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError

__all__ = [
    "TAIL_TOL",
    "MeasureModel",
    "Weight",
    "soft_abs",
    "make_mu_a",
    "make_cauchy",
    "make_ou",
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

#: Gauss-Legendre nodes and weights on [-1, 1] for one quadrature panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

#: Relative agreement required of the 2- and 4-panel sums of every integral.
_GL_RTOL = 1e-13


def _scalar_or_array(out):
    """A 0-d result as a Python float; any other array unchanged."""
    return out if np.ndim(out) else float(out)


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def soft_abs(x):
    """Smoothed absolute value T(x) = sqrt(1 + x^2)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(1.0 + x * x)


@dataclass(frozen=True)
class MeasureModel:
    """A measure ``rho(x) dx = c f(x) dx`` on ``[-radius, radius]``.

    Every family builds it from its unnormalized density f, log f, the
    drift b = (log f)' and its derivative b' alone: ``density`` is ``c f``
    and ``log_density`` is ``log c + log f``; ``drift_prime`` is the closed
    form of b', which gives the universal weight its (log V)''.
    ``normalization`` is the constant c.  Closed forms give it where they
    exist (OU); otherwise it is the inverse of the graded Gauss-Legendre
    window mass of f with 4 panels per interval, which agreed with the
    2-panel sum to 1e-13 relative (see the module docstring).
    """

    name: str
    radius: float
    density: Callable
    log_density: Callable
    drift: Callable
    drift_prime: Callable
    normalization: float


@dataclass(frozen=True)
class Weight:
    """A positive weight function V, given by log V and its two derivatives.

    ``value`` is ``exp(log_value)``.  ``dlog`` and ``d2log`` are the
    closed-form (log V)' and (log V)'', which every weight has;
    ``lyapunov_constant`` reads both.
    """

    log_value: Callable
    dlog: Callable
    d2log: Callable

    def value(self, x):
        return np.exp(self.log_value(x))


def _gauss_panels(f: Callable, edges: np.ndarray) -> float:
    """Sum of the 32-point Gauss-Legendre rule for ``f`` on each panel
    ``[edges[i], edges[i+1]]``; ``f`` gets all nodes in one array call."""
    half = 0.5 * np.diff(edges)
    x = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * _GL_NODES
    return float(np.dot(f(x).ravel(), (half[:, None] * _GL_WEIGHTS).ravel()))


def _graded_edges(lo: float, hi: float, panels: int) -> np.ndarray:
    """Panel edges on ``[lo, hi]`` (hi > 0): ``panels`` equal panels between
    the breakpoints lo, the 2^j >= 1/4 inside, and hi; for lo < 0 the
    negative side mirrors the edges of ``[0, -lo]``."""
    if lo < 0.0:
        neg = _graded_edges(0.0, -lo, panels)
        return np.concatenate((-neg[:0:-1], _graded_edges(0.0, hi, panels)))
    breaks = np.exp2(np.arange(-2, math.log2(hi)))
    edges = np.concatenate(([lo], breaks[breaks > lo], [hi]))
    steps = np.arange(panels) / panels
    return np.append((edges[:-1, None] + np.diff(edges)[:, None] * steps).ravel(), hi)


def _certified_integral(f: Callable, lo: float, hi: float) -> float:
    """int_lo^hi f by the graded rule with 4 panels per interval, refused with
    NumericError unless the 2-panel sum agrees to ``_GL_RTOL`` relative."""
    coarse = _gauss_panels(f, _graded_edges(lo, hi, 2))
    total = _gauss_panels(f, _graded_edges(lo, hi, 4))
    if not abs(coarse - total) <= _GL_RTOL * abs(total):
        raise NumericError(f"integral over [{lo!r}, {hi!r}] unresolved: 2- and 4-panel Gauss-"
                           f"Legendre sums {coarse!r} and {total!r} differ by more than {_GL_RTOL:g}")
    return total


def _window_normalization(unnormalized: Callable, radius: float) -> float:
    if not math.isfinite(radius):
        raise ValueError(f"window radius {radius!r} is not finite")
    total = _certified_integral(unnormalized, -radius, radius)
    if not (total > 0.0 and math.isfinite(total)):
        raise ValueError(f"unnormalized mass {total!r} is not a positive finite number")
    return 1.0 / total


def _model(name: str, radius: float, f: Callable, log_f: Callable, drift: Callable,
           drift_prime: Callable, c: float | None = None) -> MeasureModel:
    """The model ``c f(x) dx`` on ``[-radius, radius]``: density ``c f``, log
    density ``log c + log f``, the given drift and its derivative, each called
    on x as a float array.  ``c`` is the closed-form constant when given,
    otherwise the inverse of f's certified window mass."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if c is None:
        c = _window_normalization(f, radius)
    log_c = math.log(c)
    return MeasureModel(
        name=name,
        radius=float(radius),
        density=lambda x: c * f(np.asarray(x, dtype=float)),
        log_density=lambda x: log_c + log_f(np.asarray(x, dtype=float)),
        drift=lambda x: drift(np.asarray(x, dtype=float)),
        drift_prime=lambda x: drift_prime(np.asarray(x, dtype=float)),
        normalization=c,
    )


def make_mu_a(a: float, radius: float) -> MeasureModel:
    """Exponential-power measure ``C_a exp(-T(x)^a) dx`` on ``[-radius, radius]``.

    The drift is the closed form ``-a T^{a-1} T'`` with ``T'(x) = x/T(x)``,
    and its derivative ``-a T^{a-4} (1 + (a-1) x^2)``.
    """
    if not a > 0:
        raise ValueError(f"exponent a must be positive, got {a}")
    log_f = lambda x: -soft_abs(x) ** a
    return _model(f"mu_a(a={a:g})", radius, lambda x: np.exp(log_f(x)), log_f,
                  lambda x: -a * x * soft_abs(x) ** (a - 2.0),
                  lambda x: -a * soft_abs(x) ** (a - 4.0) * (1.0 + (a - 1.0) * x * x))


def make_cauchy(beta: float, radius: float) -> MeasureModel:
    """Cauchy-type measure ``C (1+x^2)^{-beta} dx`` with ``beta > 1``.

    Drift ``-2 beta x / (1+x^2)``, with derivative
    ``-2 beta (1 - x^2) / (1+x^2)^2``.
    """
    if not beta > 1:
        raise ValueError(f"beta must exceed 1 for finite mass, got {beta}")
    return _model(f"cauchy(beta={beta:g})", radius, lambda x: (1.0 + x * x) ** (-beta),
                  lambda x: -beta * np.log1p(x * x), lambda x: -2.0 * beta * x / (1.0 + x * x),
                  lambda x: -2.0 * beta * (1.0 - x * x) / (1.0 + x * x) ** 2)


def make_ou(radius: float) -> MeasureModel:
    """Ornstein-Uhlenbeck model: standard Gaussian measure, drift ``-x`` (b' = -1).

    Normalized over the whole line; with ``radius >= 7`` the tail mass
    outside the window is below TAIL_TOL.
    """
    return _model("ou", radius, lambda x: np.exp(-0.5 * x * x), lambda x: -0.5 * x * x,
                  lambda x: -x, lambda x: np.full_like(x, -1.0), c=1.0 / math.sqrt(2.0 * math.pi))


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

    return Weight(log_value=log_value, dlog=dlog, d2log=d2log)


def universal_weight(model: MeasureModel) -> Weight:
    """The universal weight ``V = rho^{-1/2}`` of a measure model:
    (log V)' = -b/2 and (log V)'' = -b'/2 from the model's closed forms."""

    def log_value(x):
        return -0.5 * model.log_density(x)

    def dlog(x):
        return -0.5 * model.drift(x)

    def d2log(x):
        return -0.5 * model.drift_prime(x)

    return Weight(log_value=log_value, dlog=dlog, d2log=d2log)


def unit_weight() -> Weight:
    """The trivial weight V = 1 (plain Nash inequality setting)."""
    return Weight(log_value=_zeros, dlog=_zeros, d2log=_zeros)


def _mehler_denominator(t: float) -> float:
    """2(1 + e^{2t}), inf where e^{2t} overflows (2t > 709.78): V_t is then 1."""
    try:
        return 2.0 * (1.0 + math.exp(2.0 * t))
    except OverflowError:
        return math.inf


def mehler_weight(t: float) -> Weight:
    """Time-dependent OU weight V_t with ||P_t f||_2 <= ||f V_t||_1 exactly.

    V_t(y) = (1 - e^{-4t})^{-1/4} exp(y^2 / (2(1 + e^{2t}))).
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    pref = (1.0 - math.exp(-4.0 * t)) ** -0.25
    denom = _mehler_denominator(t)

    def log_value(x):
        x = np.asarray(x, dtype=float)
        return math.log(pref) + x * x / denom

    def dlog(x):
        return 2.0 * np.asarray(x, dtype=float) / denom

    def d2log(x):
        return np.full_like(np.asarray(x, dtype=float), 2.0 / denom)

    return Weight(log_value=log_value, dlog=dlog, d2log=d2log)


def tail_mass(model: MeasureModel, x: float) -> float:
    """Tail mass q(x) = mu([x, R]) of the truncated model by the graded rule
    (module docstring): checked to 1e-13 relative however small q is, and
    NumericError where the 2- and 4-panel sums disagree."""
    r = model.radius
    if not -r <= x <= r:
        raise ValueError(f"x={x} outside the truncation window [-{r}, {r}]")
    return _certified_integral(model.density, x, r)


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
    denom = _mehler_denominator(t)
    return _scalar_or_array(pref * np.exp(x * x / denom + y * y / denom))


def suggest_radius(a: float) -> float:
    """Window radius for the exponential-power family with tail below TAIL_TOL.

    Uses the tail estimate q(R) ~ rho(R) / (a T(R)^{a-1}) with a x100 safety
    margin; a few fixed-point iterations on T^a = log(.) suffice.  Below
    a of about 0.0165 R overflows a float, which is a NumericError.
    """
    if not a > 0:
        raise ValueError(f"exponent a must be positive, got {a}")
    target = math.log(100.0 / TAIL_TOL)
    ta = max(target, 2.0)
    for _ in range(60):
        ta = target - math.log(a) - (a - 1.0) / a * math.log(ta)
    try:
        return math.sqrt(max(ta ** (2.0 / a) - 1.0, 1.0))
    except OverflowError:
        raise NumericError(f"the window radius for a = {a!r}, R = sqrt(T^2 - 1) with T^a = {ta!r}, "
                           "overflows a float: give the radius explicitly") from None
