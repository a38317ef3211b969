"""Property-based tests (hypothesis, from the optional ``test`` extra)."""

import contextlib
import dataclasses
import io
import math
import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import heatlab as hl  # noqa: E402
from heatlab import cli  # noqa: E402

fractions = st.floats(1e-3, 1.0 - 1e-3)


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
    # the fitted envelope shape C^{-1/lam}(x - C)^{1/lam} at a given shift;
    # U(x) subtracts C from x: keep x - C well above the rounding of x
    assert_round_trip(hl.bounds._envelope(shift, lam, 0.0, False), q, 1.001 * shift)


# ----------------------------------------------------------------------
# config parse round trip

FIELDS = {f.name: f.type for f in dataclasses.fields(cli.ExperimentConfig)}
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(1e-6, 1e6)

# every key, with a strategy for values that pass ExperimentConfig._validate
# whatever subset of keys is given (the others keep their defaults)
VALID_VALUES = {
    "family": st.sampled_from(["mu_a", "cauchy", "ou"]),
    "a": positive,
    "beta_model": st.floats(1.001, 100.0),
    "radius": st.none() | positive,
    "n_points": st.integers(3, 10**6),
    "weight": st.sampled_from(["mu_a", "universal", "unit"]),
    "beta": finite,
    "times": st.lists(positive, min_size=1, max_size=4).map(tuple),
    "seed": st.integers(0, 2**63),
    "theta": st.none() | st.floats(1e-6, 1.0 - 1e-6),
    "rate": st.sampled_from(["empirical", "classical", "log"]),
    "rate_n": positive,
    "rate_c": positive,
    "log_a": st.floats(1.0, 1e6, exclude_min=True),
    "k_samples_csv": st.none() | st.from_regex(r"[a-z_/]{1,12}\.csv", fullmatch=True),
    "family_kind": st.sampled_from(["bumps", "constants"]),
}


def config_text(values: dict) -> str:
    """``key = value`` lines as a user would write them."""
    lines = []
    for key, value in values.items():
        if value is None:
            text = "none"
        elif isinstance(value, tuple):
            text = ", ".join(repr(v) for v in value)
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def run_config(text: str, command: str = "spectrum"):
    """(exit code, whether the output directory exists) of one CLI run."""
    with tempfile.TemporaryDirectory() as work:
        path, out = os.path.join(work, "cfg.txt"), os.path.join(work, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", path, "--out", out, "--quiet"])
        return code, os.path.exists(out)


def test_valid_values_cover_every_key():
    assert set(VALID_VALUES) == set(FIELDS)


@settings(deadline=None)
@given(st.fixed_dictionaries({}, optional=VALID_VALUES))
def test_config_round_trip(values):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "cfg.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_text(values))
        parsed = cli.ExperimentConfig.from_mapping(cli.parse_config(path))
    assert parsed == cli.ExperimentConfig(**values)


NON_OPTIONAL = sorted(k for k, kind in FIELDS.items() if "None" not in kind)
FLOAT_FIELDS = sorted(k for k, kind in FIELDS.items() if kind.startswith("float"))
WORDS = st.from_regex(r"[a-z][a-z_]{0,10}", fullmatch=True)
NOT_NUMBERS = WORDS.filter(lambda w: w not in {"true", "false", "none", "null", "nan", "inf", "infinity"})


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(NON_OPTIONAL))
def test_none_for_non_optional_field_exits_2(key):
    assert run_config(f"{key} = none\n") == (2, False)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(FLOAT_FIELDS), NOT_NUMBERS)
def test_non_numeric_float_exits_2(key, word):
    assert run_config(f"{key} = {word}\n") == (2, False)


@pytest.mark.parametrize("word", ["nan", "NaN", "inf", "infinity", "Infinity", "-Infinity"])
def test_non_finite_float_exits_2(word):
    # JSON reads NaN and Infinity as floats, the rest stay words: all refused
    for key in FLOAT_FIELDS + ["times"]:
        assert run_config(f"{key} = {word}\n") == (2, False), key


@settings(deadline=None, max_examples=30)
@given(WORDS.filter(lambda w: w not in FIELDS))
def test_unknown_key_exits_2(key):
    assert run_config(f"{key} = 1\n") == (2, False)


# ----------------------------------------------------------------------
# heat kernel on either solve path


@settings(deadline=None, max_examples=25)
@given(st.floats(1.0, 3.0, exclude_min=True, exclude_max=True), st.integers(50, 1600),
       st.floats(1e-3, 2.0))
def test_bulk_kernel_symmetric_positive_stochastic(a, n_points, t):
    # t_first = t takes the subset solve when the modes kept at t are at most
    # _PARTIAL_MAX_FRAC of the grid (t above about 0.1 here; 162 of 400 draws
    # in a trial run), the full one otherwise
    model = hl.make_mu_a(a, hl.suggest_radius(a))
    grid = hl.make_grid(model, n_points)
    dec = hl.eigendecompose(hl.discretize(model, grid), t_first=t)
    idx = hl.bulk_indices(grid)
    p = hl.kernel_matrix(dec, t, idx)
    assert np.array_equal(p, p.T)
    # positive up to the dropped modes (kernel_tail) and the rounding of a
    # k-term spectral sum, k eps sum_n |e_n(x_i) e_n(x_j)| <= k eps / sqrt(m_i m_j)
    eps, m, k = np.finfo(float).eps, grid.node_masses, dec.eigenvalues.size
    assert np.all(p + hl.kernel_tail(dec, t, idx) >= -k * eps / np.sqrt(np.outer(m[idx], m[idx])))
    # row sums: the rounding of sum_j m_j p_ij, n eps sum_j sqrt(m_j / m_i)
    # (the eigenbasis is orthonormal to O(n eps)), plus (n - k) tail(t)
    rounding = n_points * eps * np.sqrt(m).sum() / np.sqrt(m[idx].min())
    assert hl.stochasticity_defect(dec, t) <= rounding + hl.trace_tail(dec, t)


@settings(deadline=None)
@given(st.lists(st.floats(1e-4, 1e3), min_size=2, max_size=80, unique=True), st.data())
def test_converse_quotient_nondecreasing(times, data):
    # phi(x)/x = max(0, max_t log(x / K(t)^2) / 2t), a maximum of increasing
    # functions of x: nondecreasing up to rounding, here 1e-12 times the
    # largest |phi(x)/x| on the defect's own sample (2e-12 to 1e4)
    log_k = data.draw(st.lists(st.floats(-20.0, 20.0), min_size=len(times), max_size=len(times)))
    rate = hl.converse_rate(np.sort(times), np.exp(log_k))
    xs = np.geomspace(2e-12, 1e4, 400)
    allowance = 1e-12 * float(np.max(np.abs(np.asarray(rate.evaluate(xs)) / xs)))
    assert hl.quotient_monotonicity_defect(rate, x_hi=1e4) <= allowance
