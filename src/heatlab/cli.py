"""Command-line experiment driver.

Subcommands: ``spectrum``, ``kernel``, ``verify``, ``converse``,
``nash-scan``, ``trace``.  Each run reads a key = value config file,
computes everything in memory, and only then writes its outputs (CSV
tables, one JSON report per run) into the output directory, so failed
runs leave no partial files.  Fixed seed + fixed config give
byte-identical outputs.

Exit codes: 0 ok, 2 config error, 3 numeric error, 4 calibration error,
5 integrability error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from . import bounds, measures, spectral
from .errors import CalibrationError, ConfigError, IntegrabilityError, NumericError

dsyrk = spectral._linalg_extension("_fblas").dsyrk

__all__ = ["ExperimentConfig", "ReportRecord", "parse_config", "main"]

_SCHEMA = "heatlab.report.v1"

#: The calibration's numeric guards: the bumps in the training and in the
#: held-out family, the envelope floor in units of a constant's quotient x,
#: 1/(sum_i m_i V_i)^2, and the factor (>= 1) on the fitted envelope shift
_TRAIN_SIZE = _HELDOUT_SIZE = 200
_FLOOR_SCALE = _SAFETY = 1.5

@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings; each field is a config key, with its default."""

    family: str = "mu_a"
    a: float = 1.5
    beta_model: float = 2.0
    radius: float | None = None
    n_points: int = 800
    weight: str = "mu_a"
    beta: float = 1.0
    times: tuple = (0.25, 0.5, 1.0)
    seed: int = 0
    theta: float | None = None
    rate: str = "empirical"
    rate_n: float = 1.0
    rate_c: float = 1.0
    log_a: float = 2.5
    k_samples_csv: str | None = None
    family_kind: str = "bumps"

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        """Config from parsed ``key = value`` pairs, each coerced by ``_coerce``."""
        annotations = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(raw) - set(annotations)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            cfg = cls(**{key: _coerce(annotations[key], value) for key, value in raw.items()})
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
        cfg._validate()
        return cfg

    def _validate(self) -> None:
        if self.family not in ("mu_a", "cauchy", "ou"):
            raise ConfigError(f"unknown model family {self.family!r}")
        if self.family == "mu_a" and not self.a > 0:
            raise ConfigError(f"mu_a exponent must be positive, got {self.a}")
        if self.family == "cauchy" and not self.beta_model > 1:
            raise ConfigError(f"cauchy exponent must exceed 1, got {self.beta_model}")
        if self.radius is not None and not self.radius > 0:
            raise ConfigError(f"radius must be positive, got {self.radius}")
        if self.n_points < 3:
            raise ConfigError(f"n_points must be at least 3, got {self.n_points}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.weight not in ("mu_a", "universal", "unit"):
            raise ConfigError(f"unknown weight kind {self.weight!r}")
        if not self.times or any(t <= 0 for t in self.times):
            raise ConfigError(f"times must be positive, got {self.times}")
        if self.theta is not None and not 0 < self.theta < 1:
            raise ConfigError(f"theta must lie in (0,1), got {self.theta}")
        if self.rate not in ("empirical", "classical", "log"):
            raise ConfigError(f"unknown rate kind {self.rate!r}")
        if not (self.rate_n > 0 and self.rate_c > 0):
            raise ConfigError(f"rate_n and rate_c must be positive, got {self.rate_n}, {self.rate_c}")
        if not self.log_a > 1:
            raise ConfigError(f"log_a must exceed 1, got {self.log_a}")
        if self.family_kind not in ("bumps", "constants"):
            raise ConfigError(f"unknown family kind {self.family_kind!r}")


@dataclasses.dataclass
class ReportRecord:
    """One experiment's machine-readable summary."""

    experiment: str
    inputs: dict
    results: dict
    checks: dict

    def to_dict(self) -> dict:
        return {
            "schema": _SCHEMA,
            "experiment": self.experiment,
            "inputs": _json_safe(self.inputs),
            "results": _json_safe(self.results),
            "checks": _json_safe(self.checks),
        }


def _domination(slacks, tolerance: float = 1e-9, **extra) -> dict:
    """The check "bound - actual >= -tolerance everywhere" over an iterable of
    slack arrays, consumed one at a time: the least slack and the count of
    slacks not >= -tolerance, passing when that count is zero.  A NaN slack
    judges nothing, so it counts as a violation and is left out of the least
    slack.  Judged slacks all +inf (an infinite bound certifies nothing) make
    it vacuous, not passing; some but not all +inf leave the pass as it is
    and are counted as ``unbounded``, since the check then holds only where
    the bound is finite."""
    min_slack, violations, judged, unbounded = math.inf, 0, 0, 0
    for slack in slacks:
        slack = np.asarray(slack)
        min_slack = min(min_slack, float(np.fmin.reduce(slack, axis=None, initial=math.inf)))
        violations += slack.size - int(np.count_nonzero(slack >= -tolerance))
        judged += slack.size
        unbounded += int(np.count_nonzero(slack == math.inf))
    if judged and unbounded == judged:
        flag = {"vacuous": True}
    else:
        flag = {"unbounded": unbounded} if unbounded else {}
    return {"pass": violations == 0 and "vacuous" not in flag, "min_slack": min_slack,
            "violations": violations, "tolerance": tolerance, **flag, **extra}


def _within(value, tolerance: float, deviation=None) -> dict:
    """The check "deviation <= tolerance" (by default value <= tolerance)."""
    deviation = value if deviation is None else deviation
    return {"pass": bool(deviation <= tolerance), "value": float(value), "tolerance": tolerance}


def _integer(value) -> int:
    """An int itself (not a bool, not a float, not a quoted number)."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _finite(value) -> float:
    """A finite int or float (not a bool, not a quoted number) as a float."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


_CONVERTERS = {"str": str, "float": _finite, "int": _integer}


def _coerce(annotation: str, value):
    """A parsed config value as the type its field's annotation names; None
    stays None in an optional (``X | None``) field, a scalar ``times`` is one time."""
    kind, _, optional = annotation.partition(" | ")
    if optional and value is None:
        return None
    if kind == "tuple":
        return tuple(_finite(t) for t in (value if isinstance(value, (list, tuple)) else [value]))
    return _CONVERTERS[kind](value)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    return obj


#: a line up to its comment: a ``#`` outside every JSON string starts one
_UNCOMMENTED = re.compile(r'(?:[^"#]|"(?:[^"\\\n]|\\.)*")*')


def parse_config(path: str) -> dict:
    """Read a key = value config file; values parse as JSON when possible.
    A ``#`` outside a quoted string starts a comment.  A key set on two
    lines, or a quote left open, is a ConfigError naming the line."""
    raw, line_of = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        code = _UNCOMMENTED.match(line).group()
        if line[len(code):].startswith('"'):
            raise ConfigError(f"{path}:{lineno}: unterminated string in {line.strip()!r}")
        stripped = code.strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in line_of:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}, already set on line {line_of[key]}")
        line_of[key] = lineno
        raw[key] = _parse_value(value.strip())
    return raw


def _parse_value(text: str):
    if text == "" or text.lower() == "none":
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    if "," in text:
        return [_parse_value(part.strip()) for part in text.split(",")]
    return text


# ----------------------------------------------------------------------
# shared builders


def _build_model(cfg: ExperimentConfig) -> measures.MeasureModel:
    if cfg.family == "ou":
        return measures.make_ou(cfg.radius if cfg.radius is not None else 8.0)
    if cfg.family == "cauchy":
        return measures.make_cauchy(cfg.beta_model, cfg.radius if cfg.radius is not None else 50.0)
    radius = cfg.radius if cfg.radius is not None else measures.suggest_radius(cfg.a)
    return measures.make_mu_a(cfg.a, radius)


def _build_weight(cfg: ExperimentConfig, model: measures.MeasureModel) -> measures.Weight:
    if cfg.weight == "universal":
        return measures.universal_weight(model)
    if cfg.weight == "unit":
        return measures.unit_weight()
    return measures.weight_mu_a(cfg.a, cfg.beta)


def _decompose(cfg: ExperimentConfig, model, t_first=None):
    grid = spectral.make_grid(model, cfg.n_points)
    op = spectral.discretize(model, grid)
    dec = spectral.eigendecompose(op, t_first=t_first)
    return grid, op, dec


#: one table value as text, round-trip exact
_format_value = "%.17g".__mod__


def _csv(header: list[str], rows) -> str:
    """A numeric table, every value as ``%.17g``: ``rows`` holds rows of the
    header's width, or is a 2-D float array.  Each distinct value is
    formatted once and its text reused; values are told apart by their
    bits, so ``0.0`` and ``-0.0`` keep their own text (and every NaN reads
    ``nan``).  The bytes are those of formatting each value on its own."""
    try:
        table = np.ascontiguousarray(rows, dtype=float)
        if table.size and table.shape[1:] != (len(header),):
            raise ValueError(f"got a {table.shape} table")
    except ValueError as exc:  # also ragged rows, or a value that is not a number
        raise TypeError(f"rows of {len(header)} numbers expected: {exc}") from exc
    bits, inverse = np.unique(table.view(np.int64).ravel(), return_inverse=True)
    text = np.array(list(map(_format_value, bits.view(float).tolist())), dtype=object)
    lines = text[inverse].reshape(table.shape).tolist()
    return "\n".join([",".join(header), *map(",".join, lines)]) + "\n"


def _closed_rate(cfg: ExperimentConfig):
    """The rate ``rate = classical`` or ``rate = log`` names; None for
    ``rate = empirical``, which is calibrated on a family instead."""
    if cfg.rate == "classical":
        return bounds.classical_nash_rate(cfg.rate_n, cfg.rate_c)
    if cfg.rate == "log":
        return bounds.log_rate(cfg.log_a, cfg.rate_c)
    return None


def _exponents(cfg: ExperimentConfig) -> bounds.MuAExponents:
    """The mu_a exponents of the config; a ConfigError for a beta, or a set
    theta, outside its admissible range."""
    try:
        exps = bounds.mu_a_exponents(cfg.a, cfg.beta, cfg.theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.theta is not None and not cfg.theta > exps.theta_min:
        raise ConfigError(f"theta must exceed {exps.theta_min} for a = {cfg.a}, "
                          f"beta = {cfg.beta}, got {cfg.theta}")
    return exps


def _fit_envelope(cfg: ExperimentConfig, grid, weight, xq, yq):
    """(envelope, exponents): the envelope at the config's lam below the pairs
    (xq, yq) above ``_FLOOR_SCALE`` times 1/(sum_i m_i V_i)^2, a constant's x."""
    exps = _exponents(cfg)
    m, v = grid.node_masses, weight.value(grid.points)
    floor = _FLOOR_SCALE * (1.0 / float(np.sum(m * v)) ** 2)
    return bounds.empirical_rate(xq, yq, exps.lam, floor, safety=_SAFETY), exps


def _pipeline(cfg: ExperimentConfig, model, grid, op, rng):
    """(Lyapunov certificate, exponents, K profile) for the mu_a family: the
    weight is ``cert.weight``, the rate ``kp.rate``, and the exponents None
    unless the rate is fitted.  The training family's centers and widths are
    drawn from ``rng`` whatever the rate kind, so what the caller draws next
    does not depend on it; its rows are built only for a fitted rate."""
    if cfg.family != "mu_a" or not cfg.a > 1:
        raise ConfigError("the verification pipeline requires the mu_a family with a > 1")
    weight = _build_weight(cfg, model)
    cert = bounds.lyapunov_constant(model, weight, grid).nonnegative()
    train = spectral.gaussian_bump_blocks(grid, _TRAIN_SIZE, rng)
    rate, exps = _closed_rate(cfg), None
    if rate is None:
        xq, yq = bounds.nash_quotients(spectral.family_norms(train, weight, op))
        rate, exps = _fit_envelope(cfg, grid, weight, xq, yq)
        if rate.meta["degenerate"]:
            raise CalibrationError("empirical rate degenerate: no training sample above the floor")
    return cert, exps, bounds.k_profile(rate)


# ----------------------------------------------------------------------
# subcommand runners: each returns (ReportRecord, {filename: text})


def run_spectrum(cfg: ExperimentConfig):
    model = _build_model(cfg)
    grid, op, dec = _decompose(cfg, model)
    lam = dec.eigenvalues
    # math.exp per eigenvalue: numpy's vectorized exp may differ in the last ulp
    table = np.column_stack((np.arange(lam.size), lam, [math.exp(-v) for v in lam.tolist()]))
    # G = B^T B with B = E sqrt(M): one dsyrk from scipy's _fblas, on the
    # OpenBLAS the LAPACK eigensolvers use, half the flops of a GEMM, and no
    # contention with numpy's own OpenBLAS thread pool.  E is unfolded from
    # the half table F-ordered and scaled in place, so trans=1 reads B in
    # place; dsyrk fills the upper triangle of a zeroed G, so the max over
    # G - I covers every pair (i, j).
    b = dec.eigenfunctions
    e0 = b[:, 0].copy()
    b *= np.sqrt(grid.node_masses)[:, None]
    gram = dsyrk(1.0, b, trans=1)
    gram[np.diag_indices_from(gram)] -= 1.0
    gram_defect = max(float(gram.max()), -float(gram.min()))
    checks = {
        "lambda0_zero": _within(lam[0], 1e-8, deviation=abs(lam[0])),
        "e0_constant": _within(np.ptp(e0) / abs(np.mean(e0)), 1e-6),
        "gram_identity": _within(gram_defect, 1e-8),
        "eigenvalues_nonnegative": _within(lam.min(), 1e-8, deviation=-lam.min()),
    }
    record = ReportRecord(
        experiment="spectrum",
        inputs={"model": model.name, "radius": grid.radius, "n_points": grid.n_points, "seed": cfg.seed},
        results={"eigenvalues_head": [float(v) for v in lam[:8]], "mass_total": float(grid.node_masses.sum())},
        checks=checks,
    )
    return record, {"spectrum.csv": _csv(["index", "lambda", "exp_minus_lambda_t1"], table)}


def _kernel_sample_nodes(grid):
    """At most 21 evenly spread nodes with |x| <= 2; a ConfigError when
    the grid is too coarse to put one there."""
    idx = spectral.bulk_indices(grid, 2.0)
    if not idx.size:
        raise ConfigError(f"no grid node within |x| <= 2.0: the nearest is at "
                          f"|x| = {float(np.abs(grid.points).min())!r} (grid spacing {grid.spacing!r})")
    if len(idx) > 21:
        idx = idx[np.linspace(0, len(idx) - 1, 21).astype(int)]
    return idx


def run_kernel(cfg: ExperimentConfig):
    model = _build_model(cfg)
    grid, op, dec = _decompose(cfg, model, t_first=min(cfg.times))
    idx = _kernel_sample_nodes(grid)
    x = grid.points

    kp = cert = None
    if cfg.family == "mu_a" and cfg.a > 1 and cfg.weight == "mu_a":
        cert, _, kp = _pipeline(cfg, model, grid, op, np.random.default_rng(cfg.seed))

    header = ["t", "x", "y", "p_t", "bound", "slack"]
    is_ou = cfg.family == "ou"
    if is_ou:
        header += ["mehler", "mehler_rel_dev"]
    blocks, measured = [], []
    max_rel_dev = 0.0
    # the OU diagonal bound is an equality at x = y, so the discretized
    # kernel may exceed it by its own O(h^2) error: judge it relatively
    slack_tol = 1e-2 if is_ou else 1e-9
    xi, xj = np.meshgrid(x[idx], x[idx], indexing="ij")
    # relative checks divide by at least the rounding scale of the spectral
    # sum, eps * sum_n |e_n(x_i) e_n(x_j)| <= eps / sqrt(m_i m_j) (Cauchy-
    # Schwarz with completeness), below which a kernel value is noise
    m = grid.node_masses[idx]
    noise_floor = np.finfo(float).eps / np.sqrt(m[:, None] * m[None, :])
    for t in cfg.times:
        p = spectral.kernel_matrix(dec, t, idx)
        if is_ou:
            bound = measures.mehler_diag_bound(t / 2.0, xi, xj)
        elif kp is not None:
            bound = bounds.kernel_bound(kp, cert, t / 2.0, xi, xj)
        else:
            bound = np.full_like(p, math.nan)
        slack = bound - (p + spectral.kernel_tail(dec, t, idx))
        judged = slack / np.maximum(p, noise_floor) if is_ou else slack
        measured.append(judged)
        cols = [np.full_like(p, t), xi, xj, p, bound, slack]
        if is_ou:
            me = measures.mehler_kernel(t, xi, xj)
            rel = np.abs(p - me) / np.maximum(me, noise_floor)
            max_rel_dev = max(max_rel_dev, float(np.max(rel)))
            cols += [me, rel]
        blocks.append(np.stack([c.ravel() for c in cols], axis=1))
    # with no bound (an all-nan column) the check is left out rather than
    # passed over zero judged pairs
    checks = {}
    if is_ou or kp is not None:
        checks["bound_dominates"] = _domination(measured, slack_tol, relative=is_ou)
    results = {"sample_nodes": [float(x[i]) for i in idx], "times": list(cfg.times)}
    if is_ou:
        checks["mehler_match"] = _within(max_rel_dev, 1e-2)
        results["mehler_max_rel_dev"] = max_rel_dev
    record = ReportRecord(
        experiment="kernel",
        inputs={"model": model.name, "radius": grid.radius, "n_points": grid.n_points, "seed": cfg.seed},
        results=results,
        checks=checks,
    )
    return record, {"kernel_table.csv": _csv(header, np.concatenate(blocks))}


#: rows of the kernel table synthesized at once by verify's all-pairs scan
_SCAN_ROWS = 256


def _kernel_scan(dec, kp, cert, t: float):
    """Slack of p_{2t}(x, y) + tail <= kernel bound over all grid pairs,
    yielded one ``_SCAN_ROWS x n`` slab of the table at a time."""
    x = dec.grid.points
    for lo in range(0, x.size, _SCAN_ROWS):
        rows = slice(lo, lo + _SCAN_ROWS)
        p = spectral.kernel_matrix(dec, 2.0 * t, rows, slice(None))
        if dec.tail(2.0 * t):
            p += spectral.kernel_tail(dec, 2.0 * t, rows, slice(None))
        # slack goes into the bound slab in place; subtracting into p instead
        # measured slower (glibc trimmed the freed bound slab off the heap top
        # each block, and the next block page-faulted it back)
        slack = bounds.kernel_bound(kp, cert, t, x[rows, None], x[None, :])
        slack -= p
        yield slack


def _kernel_domination(dec, kp, cert, times, diagonals) -> dict:
    """The check p_{2t}(x, y) + tail <= kernel bound over all grid pairs and
    times, certified from the kernel diagonal when it can be; ``diagonals``
    holds, per time, the q of ``spectral.k_star``.

    Write b_i = K(2t) e^{ct} V(x_i), s_i = 1/sqrt(m_i), tau = tail(2t) and
    q_i = p_ii + tau s_i^2; the pair slack is b_i b_j - p_ij - tau s_i s_j.
    The kernel table is E diag(w) E^T with w > 0, positive semidefinite
    whether or not the computed E is orthonormal, so |p_ij| <= sqrt(p_ii
    p_jj), and Cauchy-Schwarz in R^2 gives sqrt(p_ii p_jj) + tau s_i s_j <=
    sqrt(q_i q_j).  If every diagonal slack d_i = b_i^2 - q_i is >= 0, then
    with d = min(d_i, d_j) >= 0 and b_i^2 + b_j^2 >= 2 b_i b_j,
    q_i q_j <= (b_i^2 - d)(b_j^2 - d) <= (b_i b_j - d)^2, so every pair
    slack is >= min(d_i, d_j): no pair violates, and the least slack is the
    least d_i, found in O(nk) without the table; only the rounding of the
    spectral sums, which the scan carries as well, is outside the argument.
    Otherwise the table is scanned (``_kernel_scan``), so a failing run
    keeps its exact violation count.

    Since b_i^2 = l2_bound(t)^2 V_i^2, every d_i >= 0 says, up to rounding,
    max_i sqrt(q_i) / V_i = K*(t) <= l2_bound(t): the diagonal certificate
    is ``l2_domination`` in squared form.
    """
    x = dec.grid.points
    diagonal = [bounds.kernel_bound(kp, cert, t, x, x) - q for t, q in zip(times, diagonals)]
    if all(np.all(d >= 0.0) for d in diagonal):
        return _domination(diagonal)
    return _domination(slab for t in times for slab in _kernel_scan(dec, kp, cert, t))


def run_verify(cfg: ExperimentConfig):
    model = _build_model(cfg)
    grid, op, dec = _decompose(cfg, model, t_first=min(cfg.times))
    rng = np.random.default_rng(cfg.seed)
    cert, exps, kp = _pipeline(cfg, model, grid, op, rng)
    weight, rate = cert.weight, kp.rate
    # the held-out rows serve heldout_envelope alone
    heldout = spectral.family_norms(spectral.gaussian_bump_blocks(grid, _HELDOUT_SIZE, rng), weight, op)

    # every spectral value below is compared against a bound together with
    # the certified tail of the modes a truncated decomposition dropped

    # (a) the L1(V) -> L2 norm of P_t at its worst case, a delta: K*(t) <=
    # l2_bound(t), one slack per time, from the kernel diagonal that (b)
    # reads as well
    v = weight.value(grid.points)
    stars = [spectral.k_star(dec, v, t) for t in cfg.times]
    l2_bounds = [bounds.l2_bound(kp, cert, t) for t in cfg.times]
    checks = {"l2_domination": _domination(b - k for b, (k, _, _) in zip(l2_bounds, stars))}

    # (b) kernel domination over all grid pairs
    checks["kernel_domination"] = _kernel_domination(dec, kp, cert, cfg.times, [q for _, _, q in stars])

    # (c) trace domination, which the kernel bound gives only for V in
    # L2(mu); for any other V the report gives the reason it is left out
    files, not_applicable = {}, {}
    try:
        mass = bounds.weight_squared_mass(model, weight, grid)
    except IntegrabilityError as exc:
        not_applicable["trace_not_applicable"] = str(exc)
    else:
        trace_rows = [[t, spectral.trace(dec, 2.0 * t), bounds.trace_bound(kp, cert, mass, t)]
                      for t in cfg.times]
        checks["trace_domination"] = _domination(
            tb - (hs + spectral.trace_tail(dec, 2.0 * t)) for t, hs, tb in trace_rows
        )
        files["verify_trace.csv"] = _csv(["t", "hs_norm_sq", "trace_bound"], trace_rows)

    xq, yq = bounds.nash_quotients(heldout)
    checks["heldout_envelope"] = _domination([bounds.envelope_slack(rate, xq, yq)])

    record = ReportRecord(
        experiment="verify",
        inputs={
            "model": model.name, "radius": grid.radius, "n_points": grid.n_points,
            "beta": cfg.beta, "seed": cfg.seed, "times": list(cfg.times),
            "train_size": _TRAIN_SIZE, "heldout_size": _HELDOUT_SIZE,
            "floor_scale": _FLOOR_SCALE, "safety": _SAFETY,
        },
        results={
            "lyapunov_constant": cert.constant,
            "envelope_shift": rate.meta.get("c_shift"),
            "lambda": rate.meta.get("lam"),
            "gamma": None if exps is None else exps.gamma,
            "theta": None if exps is None else exps.theta,
            "delta": None if exps is None else exps.delta,
            "rate_floor": rate.domain_floor,
            "k_times_exp_ct": [[t, b] for t, b in zip(cfg.times, l2_bounds)],
            "k_star": [[t, k, grid.points[i]] for t, (k, i, _) in zip(cfg.times, stars)],
            "log10_l2_bound_over_k_star": [[t, math.log10(b) - math.log10(k)]
                                           for t, b, (k, _, _) in zip(cfg.times, l2_bounds, stars)],
            "ultracontractive": bounds.is_integrable(bounds.log_rate(cfg.a)),
            **not_applicable,
        },
        checks=checks,
    )
    return record, files


def _load_k_samples(path: str):
    """(times, K) from a CSV of a header line and at least two rows t, K of
    finite positive numbers; a ConfigError naming the file otherwise."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's "no data": refused below
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read K samples file {path}: {exc}") from exc
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ConfigError(f"K samples file {path} must have at least two rows of two columns (t, K) "
                          f"below its header, got a {data.shape[0]} x {data.shape[1]} table")
    bad = np.flatnonzero(~np.all(np.isfinite(data[:, :2]) & (data[:, :2] > 0.0), axis=1))
    if bad.size:
        t, k = data[bad[0], :2].tolist()
        raise ConfigError(f"K samples file {path}: t and K must be finite and positive, "
                          f"got t = {t!r}, K = {k!r} in data row {bad[0] + 1}")
    return data[:, 0], data[:, 1]


def run_converse(cfg: ExperimentConfig):
    if cfg.k_samples_csv is not None:
        times, ks = _load_k_samples(cfg.k_samples_csv)
        source = cfg.k_samples_csv
    else:
        base = _closed_rate(cfg)
        if base is None:
            raise ConfigError("converse without a sample file needs rate = classical or log")
        kp = bounds.k_profile(base)
        times = bounds.DEFAULT_CONVERSE_TIMES
        ks = np.array([kp.evaluate(t) for t in times])
        source = f"k_profile({base.kind})"
    rate = bounds.converse_rate(times, ks)
    xs = np.geomspace(1.0, 10.0, 40)
    phi = np.asarray(rate.evaluate(xs))
    pos = phi > 0
    if pos.sum() >= 3:
        coeffs = np.polyfit(np.log(xs[pos]), np.log(phi[pos]), 1)
        power, prefactor = float(coeffs[0]), float(math.exp(coeffs[1]))
    else:
        power, prefactor = math.nan, math.nan
    mono_defect = bounds.quotient_monotonicity_defect(rate, x_hi=1e4)
    record = ReportRecord(
        experiment="converse",
        inputs={"source": source, "n_samples": int(len(times)), "seed": cfg.seed},
        results={"fitted_power": power, "fitted_prefactor": prefactor},
        checks={"quotient_monotone": _within(mono_defect, 1e-9)},
    )
    return record, {"converse_phi.csv": _csv(["x", "phi"], np.column_stack((xs, phi)))}


def run_nash_scan(cfg: ExperimentConfig):
    if cfg.family != "mu_a" or not cfg.a > 1:
        raise ConfigError("nash-scan requires the mu_a family with a > 1")
    model = _build_model(cfg)
    weight = _build_weight(cfg, model)
    # the quotients need the discretized form only, not its spectrum
    grid = spectral.make_grid(model, cfg.n_points)
    op = spectral.discretize(model, grid)
    if cfg.family_kind == "constants":
        family = np.ones((_TRAIN_SIZE, grid.n_points))
    else:
        family = spectral.gaussian_bump_blocks(grid, _TRAIN_SIZE, np.random.default_rng(cfg.seed))
    xq, yq = bounds.nash_quotients(spectral.family_norms(family, weight, op))
    rate, _ = _fit_envelope(cfg, grid, weight, xq, yq)
    xs = np.geomspace(max(rate.domain_floor * 1.001, 1e-6), max(float(xq.max()) * 2.0, 1.0), 100)
    env = np.asarray(rate.evaluate(xs))
    degenerate = bool(rate.meta.get("degenerate", False))
    record = ReportRecord(
        experiment="nash_scan",
        inputs={
            "model": model.name, "n_points": grid.n_points, "seed": cfg.seed,
            "family_kind": cfg.family_kind, "family_size": _TRAIN_SIZE,
        },
        results={
            "envelope_shift": rate.meta.get("c_shift"),
            "lambda": rate.meta.get("lam"),
            "degenerate_rate": degenerate,
            "warning": "degenerate rate: no sample above the floor" if degenerate else None,
        },
        checks={"envelope_below_samples": _domination([bounds.envelope_slack(rate, xq, yq)])},
    )
    files = {
        "nash_quotients.csv": _csv(["x_quotient", "y_quotient"], np.column_stack((xq, yq))),
        "nash_envelope.csv": _csv(["x", "phi"], np.column_stack((xs, env))),
    }
    return record, files


def run_trace(cfg: ExperimentConfig):
    model = _build_model(cfg)
    grid, op, dec = _decompose(cfg, model)
    header = ["t", "trace", "hs_norm_sq", "diag_quadrature"]
    rows = []
    worst = 0.0
    for t in cfg.times:
        # a computed lambda_0 a rounding below 0 makes exp(-lambda_0 t)
        # overflow at a large enough t: refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            row = [t, spectral.trace(dec, t), spectral.trace(dec, 2.0 * t),
                   spectral.diagonal_trace_quadrature(dec, 2.0 * t)]
        for name, value in zip(header[1:], row[1:]):
            if not math.isfinite(value):
                raise NumericError(f"{name} overflowed at t = {t!r} (got {value!r})")
        rows.append(row)
        worst = max(worst, abs(row[2] - row[3]))
    record = ReportRecord(
        experiment="trace",
        inputs={"model": model.name, "n_points": grid.n_points, "seed": cfg.seed, "times": list(cfg.times)},
        results={"max_hs_diag_defect": worst},
        checks={"hs_equals_diag_quadrature": _within(worst, 1e-8)},
    )
    return record, {"trace_table.csv": _csv(header, rows)}


_RUNNERS = {
    "spectrum": run_spectrum,
    "kernel": run_kernel,
    "verify": run_verify,
    "converse": run_converse,
    "nash-scan": run_nash_scan,
    "trace": run_trace,
}


def _write_outputs(out_dir: str, files: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        path = os.path.join(out_dir, name)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)


# built once at import; ``main`` only parses with it
_PARSER = argparse.ArgumentParser(
    prog="heatlab",
    description="spectral heat-kernel experiments for Sturm-Liouville semigroups",
)
_PARSER.add_argument("command", choices=sorted(_RUNNERS))
_PARSER.add_argument("--config", required=False, help="key = value config file")
_PARSER.add_argument("--out", default="heatlab-out", help="output directory")
_PARSER.add_argument("--seed", type=int, default=None, help="override the config seed")
_PARSER.add_argument("--quiet", action="store_true")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        raw = parse_config(args.config) if args.config else {}
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = ExperimentConfig.from_mapping(raw)
        record, files = _RUNNERS[args.command](cfg)
        files[f"{record.experiment}_report.json"] = (
            json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        _write_outputs(args.out, files)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegrabilityError as exc:
        print(f"integrability error: {exc}", file=sys.stderr)
        return 5
    except CalibrationError as exc:
        print(f"calibration error: {exc}", file=sys.stderr)
        return 4
    except (NumericError, ValueError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3

    if not args.quiet:
        failed = [f"{k} (vacuous)" if v.get("vacuous") else k
                  for k, v in record.checks.items() if not v["pass"]]
        status = "ok" if not failed else f"FAILED checks: {', '.join(failed)}"
        partial = [f"{k} ({v['unbounded']} inf slacks)" for k, v in record.checks.items()
                   if v.get("unbounded")]
        if partial:
            status += f"; unbounded in part: {', '.join(partial)}"
        print(f"{record.experiment}: {status}; outputs in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
