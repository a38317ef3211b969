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
import sys

import numpy as np

from . import bounds, measures, spectral
from .errors import CalibrationError, ConfigError, IntegrabilityError, NumericError

__all__ = ["ExperimentConfig", "ReportRecord", "parse_config", "main"]

_SCHEMA = "heatlab.report.v1"

_DEFAULTS = {
    "family": "mu_a",
    "a": 1.5,
    "beta_model": 2.0,
    "radius": None,
    "n_points": 800,
    "weight": "mu_a",
    "beta": 1.0,
    "times": [0.25, 0.5, 1.0],
    "t_min": 1e-3,
    "seed": 0,
    "theta": None,
    "train_size": 200,
    "heldout_size": 200,
    "floor_scale": 1.5,
    "safety": 1.5,
    "bump_width_lo": 0.2,
    "bump_width_hi": 2.0,
    "kernel_half_width": 2.0,
    "rate": "empirical",
    "rate_n": 1.0,
    "rate_c": 1.0,
    "log_a": 2.5,
    "k_samples_csv": None,
    "family_kind": "bumps",
    "trace_check": True,
}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    family: str
    a: float
    beta_model: float
    radius: float | None
    n_points: int
    weight: str
    beta: float
    times: tuple
    t_min: float
    seed: int
    theta: float | None
    train_size: int
    heldout_size: int
    floor_scale: float
    safety: float
    bump_width_lo: float
    bump_width_hi: float
    kernel_half_width: float
    rate: str
    rate_n: float
    rate_c: float
    log_a: float
    k_samples_csv: str | None
    family_kind: str
    trace_check: bool

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        merged = dict(_DEFAULTS)
        unknown = set(raw) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(raw)
        try:
            cfg = cls(
                family=str(merged["family"]),
                a=float(merged["a"]),
                beta_model=float(merged["beta_model"]),
                radius=None if merged["radius"] is None else float(merged["radius"]),
                n_points=int(merged["n_points"]),
                weight=str(merged["weight"]),
                beta=float(merged["beta"]),
                times=tuple(float(t) for t in _as_list(merged["times"])),
                t_min=float(merged["t_min"]),
                seed=int(merged["seed"]),
                theta=None if merged["theta"] is None else float(merged["theta"]),
                train_size=int(merged["train_size"]),
                heldout_size=int(merged["heldout_size"]),
                floor_scale=float(merged["floor_scale"]),
                safety=float(merged["safety"]),
                bump_width_lo=float(merged["bump_width_lo"]),
                bump_width_hi=float(merged["bump_width_hi"]),
                kernel_half_width=float(merged["kernel_half_width"]),
                rate=str(merged["rate"]),
                rate_n=float(merged["rate_n"]),
                rate_c=float(merged["rate_c"]),
                log_a=float(merged["log_a"]),
                k_samples_csv=(
                    None if merged["k_samples_csv"] is None else str(merged["k_samples_csv"])
                ),
                family_kind=str(merged["family_kind"]),
                trace_check=bool(merged["trace_check"]),
            )
        except (TypeError, ValueError) as exc:
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
        if self.weight not in ("mu_a", "universal", "unit"):
            raise ConfigError(f"unknown weight kind {self.weight!r}")
        if not self.times or any(t <= 0 for t in self.times):
            raise ConfigError(f"times must be positive, got {self.times}")
        if self.theta is not None and not 0 < self.theta < 1:
            raise ConfigError(f"theta must lie in (0,1), got {self.theta}")
        if self.rate not in ("empirical", "classical", "log"):
            raise ConfigError(f"unknown rate kind {self.rate!r}")
        if self.family_kind not in ("bumps", "constants"):
            raise ConfigError(f"unknown family kind {self.family_kind!r}")
        if not self.safety >= 1.0:
            raise ConfigError(f"safety must be >= 1, got {self.safety}")
        if not 0 < self.bump_width_lo <= self.bump_width_hi:
            raise ConfigError("bump widths must satisfy 0 < lo <= hi")
        if self.train_size < 1 or self.heldout_size < 0:
            raise ConfigError("train_size must be >= 1 and heldout_size >= 0")


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

    def consistent(self) -> bool:
        """Violation counts must match their stored slack fields."""
        for name, chk in self.checks.items():
            if "violations" in chk and "min_slack" in chk:
                slack = chk["min_slack"]
                tol = chk.get("tolerance", 0.0)
                has_violation = isinstance(slack, float) and slack < -tol
                if (chk["violations"] > 0) != has_violation:
                    return False
        return True


def _as_list(v):
    return v if isinstance(v, (list, tuple)) else [v]


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def parse_config(path: str) -> dict:
    """Read a key = value config file; values parse as JSON when possible."""
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = _parse_value(value.strip())
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
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
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
    if cfg.family != "mu_a":
        raise ConfigError("the exponential-power weight requires the mu_a family")
    return measures.weight_mu_a(cfg.a, cfg.beta)


def _decompose(cfg: ExperimentConfig, model, t_first=None):
    grid = spectral.make_grid(model, cfg.n_points)
    op = spectral.discretize(model, grid)
    dec = spectral.eigendecompose(op, t_min=cfg.t_min, t_first=t_first)
    return grid, op, dec


def _csv(header: list[str], rows: list[list]) -> str:
    """Numbers as ``%.17g`` (round-trip exact), anything else as ``str``;
    the whole table is one ``%``-format over the flattened rows."""
    lines = [",".join(header).replace("%", "%%")]
    lines += [",".join(["%.17g" if isinstance(v, (int, float, np.floating)) else "%s" for v in row]) for row in rows]
    return "\n".join(lines) % tuple(v for row in rows for v in row) + "\n"


def _bump_family(cfg: ExperimentConfig, grid, rng, count):
    return spectral.gaussian_bump_family(
        grid, count, rng, width_range=(cfg.bump_width_lo, cfg.bump_width_hi)
    )


def _pipeline(cfg: ExperimentConfig, model, grid, op):
    """Lyapunov certificate + calibrated rate + K profile for the mu_a family."""
    if cfg.family != "mu_a" or not cfg.a > 1:
        raise ConfigError("the verification pipeline requires the mu_a family with a > 1")
    weight = _build_weight(cfg, model)
    cert = bounds.lyapunov_constant(model, weight, grid).nonnegative()
    rng = np.random.default_rng(cfg.seed)
    train = _bump_family(cfg, grid, rng, cfg.train_size)
    heldout = _bump_family(cfg, grid, rng, cfg.heldout_size) if cfg.heldout_size else None
    if cfg.rate == "classical":
        rate = bounds.classical_nash_rate(cfg.rate_n, cfg.rate_c)
        exps = None
    elif cfg.rate == "log":
        rate = bounds.log_rate(cfg.log_a, cfg.rate_c)
        exps = None
    else:
        exps = bounds.mu_a_exponents(cfg.a, cfg.beta, cfg.theta)
        rate = bounds.empirical_rate(
            train, weight, model, op,
            exponents=exps, floor_scale=cfg.floor_scale, safety=cfg.safety,
        )
    kp = bounds.k_profile(rate)
    return weight, cert, rate, exps, kp, train, heldout


# ----------------------------------------------------------------------
# subcommand runners: each returns (ReportRecord, {filename: text})


def run_spectrum(cfg: ExperimentConfig):
    model = _build_model(cfg)
    grid, op, dec = _decompose(cfg, model)
    lam = dec.eigenvalues
    rows = [[i, lam[i], math.exp(-lam[i])] for i in range(len(lam))]
    e0 = dec.eigenfunctions[:, 0]
    gram = (dec.eigenfunctions * grid.node_masses[:, None]).T @ dec.eigenfunctions
    gram_defect = float(np.max(np.abs(gram - np.eye(grid.n_points))))
    checks = {
        "lambda0_zero": {"pass": bool(abs(lam[0]) <= 1e-8), "value": float(lam[0]), "tolerance": 1e-8},
        "e0_constant": {
            "pass": bool(np.ptp(e0) <= 1e-6 * abs(np.mean(e0))),
            "value": float(np.ptp(e0) / abs(np.mean(e0))),
            "tolerance": 1e-6,
        },
        "gram_identity": {"pass": bool(gram_defect <= 1e-8), "value": gram_defect, "tolerance": 1e-8},
        "eigenvalues_nonnegative": {
            "pass": bool(np.all(lam >= -1e-8)), "value": float(lam.min()), "tolerance": 1e-8,
        },
    }
    record = ReportRecord(
        experiment="spectrum",
        inputs={"model": model.name, "radius": grid.radius, "n_points": grid.n_points, "seed": cfg.seed},
        results={"eigenvalues_head": [float(v) for v in lam[:8]], "mass_total": float(grid.node_masses.sum())},
        checks=checks,
    )
    return record, {"spectrum.csv": _csv(["index", "lambda", "exp_minus_lambda_t1"], rows)}


def _kernel_sample_nodes(grid, half_width, max_count=21):
    idx = spectral.bulk_indices(grid, half_width)
    if len(idx) > max_count:
        idx = idx[np.linspace(0, len(idx) - 1, max_count).astype(int)]
    return idx


def run_kernel(cfg: ExperimentConfig):
    model = _build_model(cfg)
    grid, op, dec = _decompose(cfg, model, t_first=min(cfg.times))
    idx = _kernel_sample_nodes(grid, cfg.kernel_half_width)
    x = grid.points

    bound_ctx = None
    if cfg.family == "mu_a" and cfg.a > 1 and cfg.weight == "mu_a":
        weight, cert, rate, exps, kp, _, _ = _pipeline(cfg, model, grid, op)
        bound_ctx = (kp, cert)

    header = ["t", "x", "y", "p_t", "bound", "slack"]
    is_ou = cfg.family == "ou"
    if is_ou:
        header += ["mehler", "mehler_rel_dev"]
    rows = []
    max_rel_dev = 0.0
    min_slack = math.inf
    violations = 0
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
        elif bound_ctx is not None:
            bound = bounds.kernel_bound(bound_ctx[0], bound_ctx[1], t / 2.0, xi, xj)
        else:
            bound = np.full_like(p, math.nan)
        slack = bound - (p + spectral.kernel_tail(dec, t, idx))
        measured = slack / np.maximum(p, noise_floor) if is_ou else slack
        finite = np.isfinite(slack)
        if np.any(finite):
            min_slack = min(min_slack, float(np.min(measured[finite])))
            violations += int(np.sum(measured[finite] < -slack_tol))
        cols = [np.full_like(p, t), xi, xj, p, bound, slack]
        if is_ou:
            me = measures.mehler_kernel(t, xi, xj)
            rel = np.abs(p - me) / np.maximum(me, noise_floor)
            max_rel_dev = max(max_rel_dev, float(np.max(rel)))
            cols += [me, rel]
        rows += np.stack([c.ravel() for c in cols], axis=1).tolist()
    checks = {
        "bound_dominates": {
            "pass": violations == 0,
            "min_slack": float(min_slack),
            "violations": violations,
            "relative": is_ou,
            "tolerance": slack_tol,
        }
    }
    results = {"sample_nodes": [float(x[i]) for i in idx], "times": list(cfg.times)}
    if is_ou:
        checks["mehler_match"] = {
            "pass": bool(max_rel_dev < 1e-2), "value": max_rel_dev, "tolerance": 1e-2,
        }
        results["mehler_max_rel_dev"] = max_rel_dev
    record = ReportRecord(
        experiment="kernel",
        inputs={"model": model.name, "radius": grid.radius, "n_points": grid.n_points, "seed": cfg.seed},
        results=results,
        checks=checks,
    )
    return record, {"kernel_table.csv": _csv(header, rows)}


#: rows of the kernel table synthesized at once by verify's all-pairs scan
_SCAN_ROWS = 256


def _kernel_scan(dec, kp, cert, t: float):
    """Min slack and violation count of p_{2t}(x, y) + tail <= kernel bound
    over all grid pairs, one ``_SCAN_ROWS x n`` slab of the table at a time."""
    x = dec.grid.points
    min_slack, violations = math.inf, 0
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
        min_slack = min(min_slack, float(slack.min()))
        violations += int(np.sum(slack < -1e-9))
    return min_slack, violations


def run_verify(cfg: ExperimentConfig):
    model = _build_model(cfg)
    grid, op, dec = _decompose(cfg, model, t_first=min(cfg.times))
    weight, cert, rate, exps, kp, train, heldout = _pipeline(cfg, model, grid, op)
    if heldout is None:
        raise ConfigError("verify requires a nonempty held-out family")
    if rate.meta.get("degenerate"):
        raise CalibrationError(
            "empirical rate degenerate: no training sample above the floor"
        )
    mass = grid.node_masses
    v = weight.value(grid.points)

    # every spectral value below is compared against a bound together with
    # the certified tail of the modes a truncated decomposition dropped

    # (a) semigroup norm domination on held-out functions
    min_slack_a = math.inf
    viol_a = 0
    l1w = np.abs(heldout) @ (mass * v)
    f_l2 = np.sqrt((heldout * heldout) @ mass)
    for t in cfg.times:
        pf = spectral.apply_semigroup(dec, heldout, t)
        l2 = np.sqrt((pf * pf) @ mass) + dec.tail(t) * f_l2
        slack = bounds.l2_bound(kp, cert, t) * l1w - l2
        min_slack_a = min(min_slack_a, float(slack.min()))
        viol_a += int(np.sum(slack < -1e-9))

    # (b) kernel domination over all grid pairs, streamed in row blocks
    min_slack_b = math.inf
    viol_b = 0
    for t in cfg.times:
        slack_t, viol_t = _kernel_scan(dec, kp, cert, t)
        min_slack_b = min(min_slack_b, slack_t)
        viol_b += viol_t

    # (c) trace domination (requires V in L2)
    trace_rows = []
    min_slack_c = math.inf
    viol_c = 0
    if cfg.trace_check:
        for t in cfg.times:
            hs = spectral.hs_norm_sq(dec, t)
            tb = bounds.trace_bound(kp, cert, model, grid, t)
            trace_rows.append([t, hs, tb])
            slack = tb - (hs + spectral.trace_tail(dec, 2.0 * t))
            min_slack_c = min(min_slack_c, slack)
            viol_c += int(slack < -1e-9)

    xq, yq = bounds.nash_quotients(heldout, weight, model, op)
    env_viol = bounds.envelope_violations(rate, xq, yq, slack=1e-9)

    ultra = None
    if cfg.a > 1:
        ultra = bool(bounds.integrability_test(bounds.log_rate(cfg.a)))

    k_table = [[t, bounds.l2_bound(kp, cert, t)] for t in cfg.times]
    checks = {
        "l2_domination": {"pass": viol_a == 0, "min_slack": min_slack_a, "violations": viol_a, "tolerance": 1e-9},
        "kernel_domination": {"pass": viol_b == 0, "min_slack": min_slack_b, "violations": viol_b, "tolerance": 1e-9},
        "heldout_envelope": {"pass": env_viol == 0, "violations": env_viol, "tolerance": 1e-9},
    }
    if cfg.trace_check:
        checks["trace_domination"] = {
            "pass": viol_c == 0, "min_slack": min_slack_c, "violations": viol_c, "tolerance": 1e-9,
        }
    record = ReportRecord(
        experiment="verify",
        inputs={
            "model": model.name, "radius": grid.radius, "n_points": grid.n_points,
            "beta": cfg.beta, "seed": cfg.seed, "times": list(cfg.times),
            "train_size": cfg.train_size, "heldout_size": cfg.heldout_size,
            "floor_scale": cfg.floor_scale, "safety": cfg.safety,
        },
        results={
            "lyapunov_constant": cert.constant,
            "envelope_shift": rate.meta.get("c_shift"),
            "lambda": rate.meta.get("lam"),
            "gamma": None if exps is None else exps.gamma,
            "theta": None if exps is None else exps.theta,
            "delta": None if exps is None else exps.delta,
            "rate_floor": rate.domain_floor,
            "k_times_exp_ct": k_table,
            "ultracontractive": ultra,
            "degenerate_rate": rate.meta.get("degenerate", False),
        },
        checks=checks,
    )
    files = {"verify_trace.csv": _csv(["t", "hs_norm_sq", "trace_bound"], trace_rows)} if trace_rows else {}
    return record, files


def _load_k_samples(path: str):
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except OSError as exc:
        raise ConfigError(f"cannot read K samples file {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] < 2:
        raise ConfigError("K samples file must have two columns (t, K)")
    return data[:, 0], data[:, 1]


def run_converse(cfg: ExperimentConfig):
    if cfg.k_samples_csv is not None:
        times, ks = _load_k_samples(cfg.k_samples_csv)
        source = cfg.k_samples_csv
    else:
        if cfg.rate == "classical":
            base = bounds.classical_nash_rate(cfg.rate_n, cfg.rate_c)
        elif cfg.rate == "log":
            base = bounds.log_rate(cfg.log_a, cfg.rate_c)
        else:
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
        checks={
            "quotient_monotone": {"pass": bool(mono_defect <= 1e-9), "value": float(mono_defect), "tolerance": 1e-9},
        },
    )
    rows = [[x, p] for x, p in zip(xs, phi)]
    return record, {"converse_phi.csv": _csv(["x", "phi"], rows)}


def run_nash_scan(cfg: ExperimentConfig):
    model = _build_model(cfg)
    grid, op, dec = _decompose(cfg, model)
    weight = _build_weight(cfg, model)
    rng = np.random.default_rng(cfg.seed)
    if cfg.family_kind == "constants":
        family = np.ones((max(cfg.train_size, 1), grid.n_points))
    else:
        family = _bump_family(cfg, grid, rng, cfg.train_size)
    xq, yq = bounds.nash_quotients(family, weight, model, op)
    if cfg.family != "mu_a" or not cfg.a > 1:
        raise ConfigError("nash-scan requires the mu_a family with a > 1")
    exps = bounds.mu_a_exponents(cfg.a, cfg.beta, cfg.theta)
    rate = bounds.empirical_rate(
        family, weight, model, op,
        exponents=exps, floor_scale=cfg.floor_scale, safety=cfg.safety,
    )
    xs = np.geomspace(max(rate.domain_floor * 1.001, 1e-6), max(float(xq.max()) * 2.0, 1.0), 100)
    env = np.asarray(rate.evaluate(xs))
    degenerate = bool(rate.meta.get("degenerate", False))
    record = ReportRecord(
        experiment="nash_scan",
        inputs={
            "model": model.name, "n_points": grid.n_points, "seed": cfg.seed,
            "family_kind": cfg.family_kind, "family_size": int(family.shape[0]),
        },
        results={
            "envelope_shift": rate.meta.get("c_shift"),
            "lambda": rate.meta.get("lam"),
            "degenerate_rate": degenerate,
            "warning": "degenerate rate: no sample above the floor" if degenerate else None,
        },
        checks={
            "envelope_below_samples": {
                "pass": bounds.envelope_violations(rate, xq, yq) == 0,
                "violations": bounds.envelope_violations(rate, xq, yq),
                "min_slack": float(
                    np.min(yq - np.asarray(rate.evaluate(xq))) if len(xq) else math.inf
                ),
                "tolerance": 1e-9,
            }
        },
    )
    files = {
        "nash_quotients.csv": _csv(["x_quotient", "y_quotient"], [[a, b] for a, b in zip(xq, yq)]),
        "nash_envelope.csv": _csv(["x", "phi"], [[a, b] for a, b in zip(xs, env)]),
    }
    return record, files


def run_trace(cfg: ExperimentConfig):
    model = _build_model(cfg)
    grid, op, dec = _decompose(cfg, model)
    rows = []
    worst = 0.0
    for t in cfg.times:
        tr = spectral.trace(dec, t)
        hs = spectral.hs_norm_sq(dec, t)
        diag = spectral.diagonal_trace_quadrature(dec, 2.0 * t)
        rows.append([t, tr, hs, diag])
        worst = max(worst, abs(hs - diag))
    record = ReportRecord(
        experiment="trace",
        inputs={"model": model.name, "n_points": grid.n_points, "seed": cfg.seed, "times": list(cfg.times)},
        results={"max_hs_diag_defect": worst},
        checks={
            "hs_equals_diag_quadrature": {"pass": bool(worst <= 1e-8), "value": worst, "tolerance": 1e-8},
        },
    )
    return record, {"trace_table.csv": _csv(["t", "trace", "hs_norm_sq", "diag_quadrature"], rows)}


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="spectral heat-kernel experiments for Sturm-Liouville semigroups",
    )
    parser.add_argument("command", choices=sorted(_RUNNERS))
    parser.add_argument("--config", required=False, help="key = value config file")
    parser.add_argument("--out", default="heatlab-out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

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
    except (NumericError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3

    if not args.quiet:
        failed = [k for k, v in record.checks.items() if not v.get("pass", True)]
        status = "ok" if not failed else f"FAILED checks: {', '.join(failed)}"
        print(f"{record.experiment}: {status}; outputs in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
