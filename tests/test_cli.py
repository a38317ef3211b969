import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import heatlab as hl
from heatlab import cli


def write_config(path, text):
    path.write_text(text)
    return str(path)


def read_report(out_dir, name):
    with open(os.path.join(out_dir, name), "r") as fh:
        return json.load(fh)


OU_SPECTRUM = """
family = ou
radius = 8.0
n_points = 400
seed = 3
"""

VERIFY_SMALL = """
family = mu_a
a = 1.5
radius = 10.0
n_points = 300
weight = mu_a
beta = 1.0
times = 0.5, 1.0
seed = 5
"""


def test_spectrum_run_and_determinism(tmp_path):
    cfg = write_config(tmp_path / "cfg.txt", OU_SPECTRUM)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert cli.main(["spectrum", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert cli.main(["spectrum", "--config", cfg, "--out", out2, "--quiet"]) == 0
    csv1 = open(os.path.join(out1, "spectrum.csv"), "rb").read()
    csv2 = open(os.path.join(out2, "spectrum.csv"), "rb").read()
    assert csv1 == csv2
    rep1 = open(os.path.join(out1, "spectrum_report.json"), "rb").read()
    rep2 = open(os.path.join(out2, "spectrum_report.json"), "rb").read()
    assert rep1 == rep2

    lines = csv1.decode().strip().split("\n")
    assert lines[0] == "index,lambda,exp_minus_lambda_t1"
    lam = [float(line.split(",")[1]) for line in lines[1 : 7]]
    assert np.max(np.abs(np.array(lam) - np.arange(6))) < 1e-2

    report = read_report(out1, "spectrum_report.json")
    assert report["schema"] == "heatlab.report.v1"
    assert all(chk["pass"] for chk in report["checks"].values())


@pytest.mark.parametrize("family", ["mu_a", "ou", "cauchy"])
@pytest.mark.parametrize("n_points", [50, 51, 800])
def test_gram_identity_matches_a_plain_reference(family, n_points):
    # the reference takes E^T (M E) - I as one full product; the two differ
    # only in rounding, and the defect itself is a few tens of eps at most
    cfg = cli.ExperimentConfig(family=family, n_points=n_points)
    record, _ = cli.run_spectrum(cfg)
    grid, _, dec = cli._decompose(cfg, cli._build_model(cfg))
    e = dec.eigenfunctions
    reference = np.max(np.abs(e.T @ (grid.node_masses[:, None] * e) - np.eye(n_points)))
    check = record.checks["gram_identity"]
    assert check["pass"] and check["tolerance"] == 1e-8
    assert abs(check["value"] - reference) <= 4 * np.finfo(float).eps


def _mutated_spectrum(monkeypatch, mutate):
    """``run_spectrum``'s Gram check on the default config with the half
    table of the eigenfunctions passed through ``mutate`` (an in-place edit
    of a copy, given the parity flags)."""
    solve = hl.spectral.eigendecompose

    def mutated(*args, **kwargs):
        dec = solve(*args, **kwargs)
        table = dec.half_table.copy(order="F")
        mutate(table, dec.odd)
        return dataclasses.replace(dec, half_table=table)

    monkeypatch.setattr(hl.spectral, "eigendecompose", mutated)
    return cli.run_spectrum(cli.ExperimentConfig())[0].checks["gram_identity"]


def test_gram_identity_sees_a_rotated_column(monkeypatch):
    # column i turned by 1e-6 toward column j < i of the same parity, so
    # that it stays a mirror-symmetric function, keeps every norm, so only
    # the off-diagonal entry (i, j) = (j, i) of the Gram matrix moves
    i, j, angle = 700, 4, 1e-6

    def rotate(table, odd):
        assert odd[i] == odd[j]
        table[:, i] = math.cos(angle) * table[:, i] + math.sin(angle) * table[:, j]

    check = _mutated_spectrum(monkeypatch, rotate)
    assert not check["pass"]
    assert check["value"] == pytest.approx(angle, rel=1e-6)


def test_gram_identity_sees_a_scaled_last_column(monkeypatch):
    def scale(table, odd):
        table[:, -1] *= 1.0 + 1e-6

    check = _mutated_spectrum(monkeypatch, scale)
    assert not check["pass"]
    assert check["value"] == pytest.approx(2e-6, rel=1e-5)


def test_malformed_config_exits_2_without_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.txt", "this is not a key value line\n")
    out = str(tmp_path / "out")
    assert cli.main(["spectrum", "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(out)

    cfg2 = write_config(tmp_path / "bad2.txt", "unknown_knob = 3\n")
    assert cli.main(["spectrum", "--config", cfg2, "--out", out]) == 2
    assert not os.path.exists(out)

    cfg3 = write_config(tmp_path / "bad3.txt", "family = mu_a\na = -2\n")
    assert cli.main(["spectrum", "--config", cfg3, "--out", out]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("command,text", [
    ("converse", "rate = classical\nrate_n = 0\n"),
    ("converse", "rate = classical\nrate_c = -1\n"),
    ("converse", "rate = log\nlog_a = 1\n"),
    ("kernel", "rate_n = -1\n"),
    # the retired trace_check, safety and floor_scale: unknown, whatever the value
    ("verify", "trace_check = off\n"),
    ("verify", "trace_check = none\n"),
    ("verify", "trace_check = 1\n"),
    ("spectrum", "n_points = 300.9\n"),
    ("spectrum", "seed = 2.7\n"),
    ("spectrum", "seed = true\n"),
    ("spectrum", "seed = -1\n"),
    ("spectrum", "a = true\n"),
    # any other spelling of a bool is a string, refused as for any key
    ("spectrum", "a = True\n"),
    ("nash-scan", "family_kind = FALSE\n"),
    ("spectrum", "safety = true\n"),  # retired
    ("spectrum", "times = true\n"),
    ("spectrum", "rate_c = NaN\n"),
    ("spectrum", "floor_scale = nan\n"),  # retired
    ("spectrum", "times = NaN\n"),
    ("spectrum", "times = 0.5, Infinity\n"),
    ("spectrum", "a = \"1.5\"\n"),
    ("kernel", "beta = Infinity\n"),
    # an integer literal too large for a float: a config error, not exit 3
    pytest.param("spectrum", "a = 1" + "0" * 400 + "\n", id="spectrum-a-beyond-float-range"),
])
def test_out_of_range_config_exits_2(tmp_path, command, text):
    cfg = write_config(tmp_path / "cfg.txt", text)
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(out)


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert cli.main(["spectrum", "--seed", "-1", "--out", out]) == 2
    assert "config error: seed must be non-negative" in capsys.readouterr().err
    assert not os.path.exists(out)


def fresh_python(code):
    """The stdout of ``code`` run by a fresh interpreter that imports heatlab
    from this checkout: this process may have imported its modules already."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_cli_import_leaves_scipy_integrate_unloaded():
    assert fresh_python("import sys, heatlab.cli; print('scipy.integrate' in sys.modules)") == "False"


def test_cli_import_skips_scipy_linalg_init():
    # LAPACK and BLAS come from their compiled modules' files, registered
    # under their own names: a later scipy.linalg import reuses them
    code = """import sys, heatlab.cli
from heatlab import cli, spectral
print('scipy.linalg' in sys.modules, sys.modules['scipy.linalg._flapack'] is spectral._flapack)
import scipy.linalg.blas, scipy.linalg.lapack
print(scipy.linalg.lapack._flapack is spectral._flapack, scipy.linalg.lapack.dstevd is spectral._flapack.dstevd,
      scipy.linalg.lapack.dstebz is spectral._flapack.dstebz, scipy.linalg.blas.dsyrk is cli.dsyrk)"""
    assert fresh_python(code) == "False True\nTrue True True True"


def test_missing_config_file_exits_2(tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["spectrum", "--config", str(tmp_path / "nope.txt"), "--out", out]) == 2
    assert not os.path.exists(out)


def test_duplicate_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.txt", "n_points = 50\n# a comment\nn_points = 60\n")
    out = str(tmp_path / "out")
    assert cli.main(["spectrum", "--config", cfg, "--out", out]) == 2
    assert "cfg.txt:3: duplicate key 'n_points', already set on line 1" in capsys.readouterr().err
    assert not os.path.exists(out)
    # --seed still overrides the file's seed
    cfg = write_config(tmp_path / "seed.txt", "seed = 1\nn_points = 50\n")
    assert cli.main(["spectrum", "--config", cfg, "--out", out, "--seed", "4", "--quiet"]) == 0
    assert read_report(out, "spectrum_report.json")["inputs"]["seed"] == 4


def test_hash_inside_a_quoted_value_is_kept(tmp_path):
    samples = tmp_path / "ks#1.csv"
    samples.write_text("t,K\n0.1,5\n0.2,3\n0.4,2\n0.8,1.5\n")
    cfg = write_config(tmp_path / "cfg.txt", f'k_samples_csv = "{samples}"  # samples\n')
    out = str(tmp_path / "out")
    assert cli.main(["converse", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert read_report(out, "converse_report.json")["inputs"]["source"] == str(samples)
    # an escaped quote does not end the string
    cfg = write_config(tmp_path / "esc.txt", 'k_samples_csv = "a\\"#b.csv" # c\n')
    assert cli.parse_config(cfg) == {"k_samples_csv": 'a"#b.csv'}


def test_trailing_comment_after_an_unquoted_value(tmp_path):
    cfg = write_config(tmp_path / "cfg.txt", "n_points = 50  # small\ntimes = 0.5, 1.0 # two\n# none\n")
    assert cli.parse_config(cfg) == {"n_points": 50, "times": [0.5, 1.0]}
    out = str(tmp_path / "out")
    assert cli.main(["spectrum", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert read_report(out, "spectrum_report.json")["inputs"]["n_points"] == 50


def test_unterminated_quote_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.txt", 'n_points = 50\nk_samples_csv = "ks#1.csv  # samples\n')
    out = str(tmp_path / "out")
    assert cli.main(["converse", "--config", cfg, "--out", out]) == 2
    assert "cfg.txt:2: unterminated string in 'k_samples_csv = \"ks#1.csv  # samples'" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("error,code,prefix", [
    (hl.ConfigError, 2, "config error"),
    (hl.NumericError, 3, "numeric error"),
    (ValueError, 3, "numeric error"),
    (OverflowError, 3, "numeric error"),
    (np.linalg.LinAlgError, 3, "numeric error"),
    (hl.CalibrationError, 4, "calibration error"),
    (hl.IntegrabilityError, 5, "integrability error"),
])
def test_each_error_class_exits_with_its_code(tmp_path, monkeypatch, capsys, error, code, prefix):
    def runner(cfg):
        raise error("raised by the runner")

    monkeypatch.setitem(cli._RUNNERS, "trace", runner)
    out = str(tmp_path / "out")
    assert cli.main(["trace", "--out", out]) == code
    assert capsys.readouterr().err == f"{prefix}: raised by the runner\n"
    assert not os.path.exists(out)


def test_verify_pipeline(tmp_path):
    cfg = write_config(tmp_path / "cfg.txt", VERIFY_SMALL)
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = read_report(out, "verify_report.json")
    res = report["results"]
    assert res["ultracontractive"] is False  # a = 1.5 < 2
    assert res["lyapunov_constant"] >= 0.0
    assert 0.0 < res["lambda"] < 1.0
    for name in ("l2_domination", "kernel_domination", "trace_domination", "heldout_envelope"):
        assert report["checks"][name]["pass"], name
        assert report["checks"][name]["violations"] == 0
    trace_lines = open(os.path.join(out, "verify_trace.csv")).read().strip().split("\n")
    assert trace_lines[0] == "t,hs_norm_sq,trace_bound"
    for line in trace_lines[1:]:
        t, hs, bound = map(float, line.split(","))
        assert hs <= bound


def test_verify_ultracontractive_uses_exact_criterion(tmp_path):
    # phi = x (log x)^{2(1-1/a)} with a = 2.1 is integrable (exponent 1.048 > 1),
    # just above the borderline a = 2
    cfg = write_config(tmp_path / "cfg.txt", "a = 2.1\nn_points = 300\n")
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert read_report(out, "verify_report.json")["results"]["ultracontractive"] is True


@pytest.mark.parametrize("text,traced", [
    ("a = 2.5\nbeta = 0.51\n", True), ("a = 2.5\nbeta = 0.5\n", False), ("weight = universal\n", False),
], ids=["beta-0.51", "beta-0.5", "universal"])
def test_verify_trace_check_follows_the_weight(tmp_path, text, traced):
    # the trace bound needs V in L2(mu).  V = exp(T^a/2) T^{-beta} is in
    # L2(mu_a) exactly when beta > 1/2; with a = 2.5 the window is narrow
    # (R = 3.47), where V^2 rho is far from a power of x but is exactly
    # C T^{-2 beta}.  The universal weight has V^2 rho = 1.  Otherwise the
    # check and its table are left out, and the report says why
    cfg = write_config(tmp_path / "cfg.txt", text + "n_points = 300\n")
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = read_report(out, "verify_report.json")
    assert os.path.exists(os.path.join(out, "verify_trace.csv")) == traced
    assert ("trace_domination" in report["checks"]) == traced
    if traced:
        assert report["checks"]["trace_domination"]["pass"]
        assert "trace_not_applicable" not in report["results"]
    else:
        reason = report["results"]["trace_not_applicable"]
        assert reason.startswith("V^2 rho has tail slope ") and reason.endswith(": V not in L2(mu)")
    assert all(chk["pass"] for chk in report["checks"].values())


def test_verify_judges_the_weight_mass_once(monkeypatch):
    # one int V^2 dmu decides whether the trace check applies and scales its
    # bound at every time
    calls = []
    mass = hl.bounds.weight_squared_mass
    monkeypatch.setattr(hl.bounds, "weight_squared_mass", lambda *args: calls.append(args) or mass(*args))
    record, files = cli.run_verify(cli.ExperimentConfig())
    assert len(calls) == 1 and record.checks["trace_domination"]["pass"] and "verify_trace.csv" in files


@pytest.mark.parametrize("command", ["converse", "kernel", "verify"])
@pytest.mark.parametrize("text,coefficient", [
    ("rate = log\nrate_c = 5e-324\n", "5e-324"),
    ("rate = classical\nrate_n = 1e16\nrate_c = 1e-310\n", "1e-310"),
], ids=["log", "classical"])
def test_rate_coefficient_underflowing_in_u_exits_3(tmp_path, capsys, command, text, coefficient):
    # c (p - 1), resp. c (r - 1), underflows to 0, and the closed U divides by it
    cfg = write_config(tmp_path / "cfg.txt", text)
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric error: rate coefficient {coefficient} times the exponent's excess ")
    assert "underflows to 0" in err and not os.path.exists(out)


def test_converse_with_a_tiny_coefficient_warns_nothing(tmp_path):
    # U^{-1}(t) = (2 c t)^{-1/2} with c = 5e-324 divides by a product that
    # underflows at small t: inf there, from Python floats, not numpy's warning
    cfg = write_config(tmp_path / "cfg.txt", "rate = classical\nrate_c = 5e-324\n")
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["converse", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "converse_phi.csv"))


def test_unrepresentable_window_radius_exits_3(tmp_path, capsys):
    # suggest_radius(0.01) would be T^(2/a) = 677.6^200: beyond a float
    cfg = write_config(tmp_path / "cfg.txt", "a = 0.01\n")
    out = str(tmp_path / "out")
    assert cli.main(["spectrum", "--config", cfg, "--out", out]) == 3
    assert capsys.readouterr().err.startswith("numeric error: the window radius for a = 0.01, ")
    assert not os.path.exists(out)


def test_vanishing_node_mass_exits_3(tmp_path, capsys):
    # on mu_a(2.5) the density underflows to 0 before |x| = 16
    cfg = write_config(tmp_path / "cfg.txt", "a = 2.5\nradius = 16\n")
    out = str(tmp_path / "out")
    assert cli.main(["spectrum", "--config", cfg, "--out", out]) == 3
    assert capsys.readouterr().err == "numeric error: degenerate grid: vanishing node mass (density underflow)\n"
    assert not os.path.exists(out)


def test_time_below_t_min_exits_3(tmp_path, capsys):
    # trace solves every mode, and still refuses a time below the floor
    cfg = write_config(tmp_path / "cfg.txt", "times = 0.0001\n")
    out = str(tmp_path / "out")
    assert cli.main(["trace", "--config", cfg, "--out", out]) == 3
    assert capsys.readouterr().err.startswith("numeric error: t=0.0001 below t_min=0.001")
    assert not os.path.exists(out)


def test_verify_degenerate_family_exits_4(tmp_path, monkeypatch):
    # a floor far above every training quotient; kernel certifies from the
    # same uncalibrated envelope, so it refuses too
    monkeypatch.setattr(cli, "_FLOOR_SCALE", 1e6)
    cfg = write_config(tmp_path / "cfg.txt", VERIFY_SMALL)
    out = str(tmp_path / "out")
    for command in ("verify", "kernel"):
        assert cli.main([command, "--config", cfg, "--out", out]) == 4
        assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["kernel", "verify"])
@pytest.mark.parametrize("times", ["2000", "0.25, 5000"])
def test_overflowing_time_exits_3(tmp_path, command, times, capsys):
    # e^{2ct} of the bounds overflows a float at these times
    cfg = write_config(tmp_path / "cfg.txt", VERIFY_SMALL.replace("times = 0.5, 1.0", f"times = {times}"))
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", cfg, "--out", out]) == 3
    assert not os.path.exists(out)
    # the message names the configured time that overflowed
    assert f"semigroup time {float(times.split(',')[-1])}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "kernel", "nash-scan"])
@pytest.mark.parametrize("setting", ["beta = 0.5", "theta = 0.1"])
def test_out_of_range_exponent_parameter_exits_2(tmp_path, command, setting, capsys):
    # beta <= (3 - a)/2 = 0.75 has no exponents; theta_min(1.5, 1) = 0.857
    cfg = write_config(tmp_path / "cfg.txt", VERIFY_SMALL.replace("beta = 1.0", "") + setting)
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", cfg, "--out", out]) == 2
    assert "config error: " + setting.split()[0] in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("family", ["mu_a", "ou"])
def test_kernel_half_width_below_the_nearest_node_exits_2(tmp_path, family, capsys):
    # four nodes, at +-R/3 and +-R: none within the sampled |x| <= 2
    cfg = write_config(tmp_path / "cfg.txt", f"family = {family}\nn_points = 4\n")
    out = str(tmp_path / "out")
    assert cli.main(["kernel", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error: no grid node within |x| <= 2.0: the nearest is at |x| = " in err
    if family == "ou":
        assert "|x| = 2.666666666666667 (grid spacing 5.333333333333333)" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("family,times", [
    ("ou", "1e16"), ("ou", "1e18"), ("ou", "1e20"), ("cauchy", "1e18"), ("cauchy", "1e20"),
])
def test_kernel_keeping_no_mode_exits_3(tmp_path, capsys, family, times):
    # lambda_cut = 52 ln2 / t falls below the computed lambda_0 of the
    # constant mode: the truncated decomposition would keep no mode, and the
    # kernel would read 0 on every pair under a tail bound of 2^-52 a mode
    cfg = write_config(tmp_path / "cfg.txt", f"family = {family}\nweight = universal\ntimes = {times}\n")
    out = str(tmp_path / "out")
    assert cli.main(["kernel", "--config", cfg, "--out", out]) == 3
    cut = hl.spectral._CUTOFF_EXPONENT / float(times)
    assert capsys.readouterr().err == (f"numeric error: no mode kept: every computed eigenvalue exceeds lambda_cut "
                                       f"= 52 ln2 / t_first = {cut!r} at t_first = {float(times)!r}\n")
    assert not os.path.exists(out)


def test_kernel_time_below_floor_exits_3(tmp_path):
    cfg = write_config(tmp_path / "cfg.txt", OU_SPECTRUM + "times = 1e-4\n")
    out = str(tmp_path / "out")
    assert cli.main(["kernel", "--config", cfg, "--out", out]) == 3
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["spectrum", "kernel", "verify", "trace"])
@pytest.mark.parametrize("t_min", ["0", "-1"])
def test_nonpositive_t_min_exits_2(tmp_path, command, t_min, capsys):
    # t_min = 0 would switch the small-time guard off and let t = 1e-6 run;
    # no config key sets it
    cfg = write_config(tmp_path / "cfg.txt", f"n_points = 200\nt_min = {t_min}\ntimes = 1e-6\n")
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", cfg, "--out", out]) == 2
    assert "config error: unknown config keys: ['t_min']" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key,value", [
    ("kernel_half_width", "2.0"), ("bump_width_lo", "0.2"), ("bump_width_hi", "2.0"),
    ("train_size", "200"), ("heldout_size", "200"), ("floor_scale", "1.5"), ("safety", "1.5"),
    ("trace_check", "true"),
])
def test_retired_config_key_exits_2(tmp_path, key, value, capsys):
    # each is the constant it always was (t_min too, tested above), or, for
    # trace_check, decided from the weight; set, even to that value, it is an
    # unknown key
    cfg = write_config(tmp_path / "cfg.txt", f"n_points = 200\n{key} = {value}\n")
    out = str(tmp_path / "out")
    assert cli.main(["kernel", "--config", cfg, "--out", out]) == 2
    assert f"config error: unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_kernel_table_ou(tmp_path):
    cfg = write_config(tmp_path / "cfg.txt", "family = ou\nn_points = 800\ntimes = 0.5, 1.0\n")
    out = str(tmp_path / "out")
    assert cli.main(["kernel", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = read_report(out, "kernel_report.json")
    assert report["checks"]["mehler_match"]["pass"]
    assert report["results"]["mehler_max_rel_dev"] < 1e-2
    assert report["checks"]["bound_dominates"]["pass"]
    lines = open(os.path.join(out, "kernel_table.csv")).read().strip().split("\n")
    assert lines[0] == "t,x,y,p_t,bound,slack,mehler,mehler_rel_dev"
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        # the closed-form bound dominates the exact kernel outright; the
        # discretized kernel only up to its own discretization error
        assert vals[4] >= vals[6] - 1e-12
        assert vals[5] >= -1e-2 * vals[3]


def test_kernel_table_mu_a_pipeline_bound(tmp_path):
    # radius omitted: chosen automatically from the tail-mass target
    cfg = write_config(
        tmp_path / "cfg.txt",
        "family = mu_a\na = 1.5\nn_points = 300\nweight = mu_a\nbeta = 1.0\n"
        "times = 0.5\nseed = 11\n",
    )
    out = str(tmp_path / "out")
    assert cli.main(["kernel", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = read_report(out, "kernel_report.json")
    assert report["checks"]["bound_dominates"]["pass"]
    assert report["inputs"]["radius"] > 8.0  # suggested window for a = 1.5
    lines = open(os.path.join(out, "kernel_table.csv")).read().strip().split("\n")
    assert lines[0] == "t,x,y,p_t,bound,slack"
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        assert vals[5] >= -1e-9


def test_kernel_table_matches_entrywise_reference():
    cfg = cli.ExperimentConfig.from_mapping(
        {"a": 1.5, "n_points": 300, "times": [0.25, 1.0], "seed": 4}
    )
    _, files = cli.run_kernel(cfg)
    lines = files["kernel_table.csv"].strip().split("\n")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

    model = cli._build_model(cfg)
    grid, op, dec = cli._decompose(cfg, model)
    cert, _, kp = cli._pipeline(cfg, model, grid, op, np.random.default_rng(cfg.seed))
    x = grid.points
    nodes = cli._kernel_sample_nodes(grid)
    ref = []
    for t in cfg.times:
        pmat = hl.kernel_matrix(dec, t)
        for i in nodes:
            for j in nodes:
                bound = hl.kernel_bound(kp, cert, t / 2.0, x[i], x[j])
                ref.append([t, x[i], x[j], pmat[i, j], bound])
    ref = np.array(ref)
    assert table.shape == (len(ref), 6)
    assert np.array_equal(table[:, :3], ref[:, :3])
    assert np.max(np.abs(table[:, 3] - ref[:, 3])) <= 1e-13 * np.max(ref[:, 3])
    # V on an array may round its exp/log differently from V on a scalar
    assert np.allclose(table[:, 4], ref[:, 4], rtol=4 * np.finfo(float).eps, atol=0.0)
    assert np.array_equal(table[:, 5], table[:, 4] - table[:, 3])


def test_kernel_ou_small_time_relative_checks(tmp_path):
    # at t = 1e-3 the Mehler kernel between distant nodes underflows to 0 and
    # the spectral sum there is rounding noise; relative checks floor both at
    # eps / sqrt(m_i m_j).  h = 0.01 does not resolve sqrt(t) ~ 0.03, so the
    # Mehler match still fails, with a finite deviation.
    cfg = write_config(tmp_path / "cfg.txt", "family = ou\nn_points = 1600\ntimes = 0.001\n")
    out = str(tmp_path / "out")
    assert cli.main(["kernel", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = read_report(out, "kernel_report.json")
    assert report["checks"]["bound_dominates"]["violations"] == 0
    assert report["checks"]["bound_dominates"]["pass"]
    dev = report["checks"]["mehler_match"]["value"]
    assert isinstance(dev, float) and 1e-2 < dev < 1e2
    assert not report["checks"]["mehler_match"]["pass"]
    lines = open(os.path.join(out, "kernel_table.csv")).read().strip().split("\n")
    rel = np.array([float(line.split(",")[7]) for line in lines[1:]])
    assert np.all(np.isfinite(rel))


def test_converse_from_sample_file(tmp_path):
    ts = np.geomspace(1e-2, 1e2, 400)
    rows = "\n".join(f"{t:.17g},{t ** -0.5:.17g}" for t in ts)
    sample = tmp_path / "ksamples.csv"
    sample.write_text("t,K\n" + rows + "\n")
    cfg = write_config(tmp_path / "cfg.txt", f"k_samples_csv = {sample}\n")
    out = str(tmp_path / "out")
    assert cli.main(["converse", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = read_report(out, "converse_report.json")
    assert abs(report["results"]["fitted_power"] - 2.0) < 0.05
    assert abs(report["results"]["fitted_prefactor"] - 1.0 / (2.0 * math.e)) < 0.05 / (
        2.0 * math.e
    )


def test_converse_from_classical_rate(tmp_path):
    cfg = write_config(tmp_path / "cfg.txt", "rate = classical\nrate_n = 1.0\n")
    out = str(tmp_path / "out")
    assert cli.main(["converse", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = read_report(out, "converse_report.json")
    assert abs(report["results"]["fitted_power"] - 3.0) < 0.05


def test_nash_scan_bumps_and_degenerate(tmp_path):
    base = "family = mu_a\na = 1.5\nradius = 10.0\nn_points = 300\nbeta = 1.0\nseed = 2\n"
    cfg = write_config(tmp_path / "cfg.txt", base)
    out = str(tmp_path / "out")
    assert cli.main(["nash-scan", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = read_report(out, "nash_scan_report.json")
    assert report["results"]["degenerate_rate"] is False
    assert report["results"]["warning"] is None
    assert report["checks"]["envelope_below_samples"]["pass"]
    assert os.path.exists(os.path.join(out, "nash_quotients.csv"))
    assert os.path.exists(os.path.join(out, "nash_envelope.csv"))

    cfg2 = write_config(tmp_path / "cfg2.txt", base + "family_kind = constants\n")
    out2 = str(tmp_path / "out2")
    assert cli.main(["nash-scan", "--config", cfg2, "--out", out2, "--quiet"]) == 0
    report2 = read_report(out2, "nash_scan_report.json")
    assert report2["results"]["degenerate_rate"] is True
    assert "degenerate" in report2["results"]["warning"]


def test_nash_scan_min_slack_over_pairs_above_the_floor():
    # the envelope constrains only the pairs with x above the rate's floor, so
    # min_slack and violations are taken over those pairs alone
    cfg = cli.ExperimentConfig.from_mapping({"seed": 7})
    record, files = cli.run_nash_scan(cfg)
    chk = record.checks["envelope_below_samples"]
    lines = files["nash_quotients.csv"].strip().split("\n")[1:]
    xq, yq = np.array([[float(v) for v in line.split(",")] for line in lines]).T
    model = cli._build_model(cfg)
    grid = hl.make_grid(model, cfg.n_points)
    weight = cli._build_weight(cfg, model)
    floor = cli._FLOOR_SCALE * (1.0 / float(np.sum(grid.node_masses * weight.value(grid.points))) ** 2)
    rate = hl.empirical_rate(xq, yq, hl.mu_a_exponents(cfg.a, cfg.beta).lam, floor, safety=cli._SAFETY)
    above = xq > rate.domain_floor
    slack = yq[above] - np.array([rate.evaluate(x) for x in xq[above]])
    assert 0 < above.sum() < len(xq)
    assert chk["min_slack"] == pytest.approx(float(slack.min()), rel=1e-12)
    assert chk["min_slack"] == pytest.approx(0.5757957352983495, rel=1e-12)
    assert chk["violations"] == int(np.sum(slack < -1e-9)) == 0


def test_domination_check():
    assert cli._domination([]) == {"pass": True, "min_slack": math.inf, "violations": 0, "tolerance": 1e-9}
    chk = cli._domination((np.array([s, 1.0]) for s in (-1e-9, -2e-9)), relative=True)
    assert chk == {"pass": False, "min_slack": -2e-9, "violations": 1, "tolerance": 1e-9, "relative": True}
    assert cli._domination([np.array([-0.5]), np.empty(0), 0.5], tolerance=0.5)["pass"]
    # every judged slack +inf: a bound that certifies nothing does not pass
    inf = math.inf
    chk = cli._domination([np.array([inf, inf]), np.empty(0), inf])
    assert chk == {"pass": False, "min_slack": inf, "violations": 0, "tolerance": 1e-9,
                   "vacuous": True}
    assert cli._domination(iter([np.full((2, 3), inf)]), relative=True)["vacuous"]
    # one finite slack judges the check; zero judged slacks still pass
    assert "vacuous" not in cli._domination([np.array([inf, 2.0])])
    assert cli._domination([np.array([inf, 2.0])])["pass"]
    assert cli._domination([np.empty(0)]) == cli._domination([])
    assert cli._domination([])["pass"]
    # a violation is reported as one, not as vacuous
    assert "vacuous" not in cli._domination([np.array([inf, -1.0])])
    # some but not all judged slacks +inf: counted, the pass left as it is
    chk = cli._domination([np.array([inf, 2.0]), np.array([inf, inf, 3.0])])
    assert chk == {"pass": True, "min_slack": 2.0, "violations": 0, "tolerance": 1e-9,
                   "unbounded": 3}
    chk = cli._domination([np.array([inf, -1.0])], relative=True)
    assert chk == {"pass": False, "min_slack": -1.0, "violations": 1, "tolerance": 1e-9,
                   "unbounded": 1, "relative": True}
    # the key appears only then: not on a finite check, nor beside vacuous
    assert "unbounded" not in cli._domination([np.array([1.0, 2.0])])
    assert "unbounded" not in cli._domination([np.array([inf, inf])])


def test_domination_counts_a_nan_slack_as_a_violation():
    # a NaN slack judges nothing: it fails the check, and the least slack is
    # taken over the other slacks, not hidden behind the NaN
    nan = math.nan
    assert cli._domination([[2.0], [nan, 1.0]]) == {"pass": False, "min_slack": 1.0,
                                                    "violations": 1, "tolerance": 1e-9}
    assert cli._domination([[2.0], [nan, -1.0]]) == {"pass": False, "min_slack": -1.0,
                                                     "violations": 2, "tolerance": 1e-9}
    chk = cli._domination([np.array([[nan, math.inf], [3.0, nan]])])
    assert chk == {"pass": False, "min_slack": 3.0, "violations": 2, "tolerance": 1e-9,
                   "unbounded": 1}


def test_within_check():
    assert cli._within(-3.0, 1.0, deviation=3.0) == {"pass": False, "value": -3.0, "tolerance": 1.0}
    assert cli._within(1.0, 1.0)["pass"]
    assert not cli._within(math.nan, 1.0)["pass"]


def test_trace_subcommand(tmp_path):
    cfg = write_config(tmp_path / "cfg.txt", OU_SPECTRUM)
    out = str(tmp_path / "out")
    assert cli.main(["trace", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = read_report(out, "trace_report.json")
    assert report["checks"]["hs_equals_diag_quadrature"]["pass"]
    lines = open(os.path.join(out, "trace_table.csv")).read().strip().split("\n")
    assert lines[0] == "t,trace,hs_norm_sq,diag_quadrature"
    for line in lines[1:]:
        t, tr, hs, diag = map(float, line.split(","))
        assert abs(hs - diag) <= 1e-8


def test_trace_refuses_an_overflowed_trace(tmp_path, capsys):
    # OU at n = 800 computes lambda_0 a rounding below 0, so exp(-lambda_0 t)
    # overflows at t = 1e20: the run exits 3 naming the time, without
    # numpy's overflow warnings and without an output directory
    cfg = write_config(tmp_path / "cfg.txt", "family = ou\ntimes = 1.0, 1e20\n")
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["trace", "--config", cfg, "--out", out]) == 3
    assert capsys.readouterr().err == "numeric error: trace overflowed at t = 1e+20 (got inf)\n"
    assert not os.path.exists(out)


def test_seed_flag_overrides_config(tmp_path):
    base = "family = mu_a\na = 1.5\nradius = 10.0\nn_points = 300\nseed = 1\n"
    cfg = write_config(tmp_path / "cfg.txt", base)
    outs = [str(tmp_path / f"o{i}") for i in range(3)]
    assert cli.main(["nash-scan", "--config", cfg, "--out", outs[0], "--quiet"]) == 0
    assert cli.main(["nash-scan", "--config", cfg, "--out", outs[1], "--quiet", "--seed", "9"]) == 0
    assert cli.main(["nash-scan", "--config", cfg, "--out", outs[2], "--quiet", "--seed", "9"]) == 0
    q0 = open(os.path.join(outs[0], "nash_quotients.csv"), "rb").read()
    q1 = open(os.path.join(outs[1], "nash_quotients.csv"), "rb").read()
    q2 = open(os.path.join(outs[2], "nash_quotients.csv"), "rb").read()
    assert q1 != q0
    assert q1 == q2


def _scan_setup(**raw):
    cfg = cli.ExperimentConfig.from_mapping(raw or {"n_points": 800, "seed": 3})
    model = cli._build_model(cfg)
    grid, op, dec = cli._decompose(cfg, model, t_first=2.0 * min(cfg.times))
    cert, _, kp = cli._pipeline(cfg, model, grid, op, np.random.default_rng(cfg.seed))
    return cfg, grid, dec, cert, kp


def _full_table_slack(dec, prof, cert, t):
    x = dec.grid.points
    p = hl.kernel_matrix(dec, 2.0 * t) + hl.kernel_tail(dec, 2.0 * t)
    return hl.kernel_bound(prof, cert, t, x[:, None], x[None, :]) - p


def _diagonals(dec, cert, times):
    """The q of ``spectral.k_star`` at each time, as ``verify`` hands them on."""
    return [hl.k_star(dec, cert.weight.value(dec.grid.points), t)[2] for t in times]


def _check_kernel_scan_against_full_table(cfg, grid, dec, cert, kp):
    x = grid.points
    unit = types.SimpleNamespace(evaluate=lambda s: 1.0)
    for t in cfg.times:
        p = hl.kernel_matrix(dec, 2.0 * t) + hl.kernel_tail(dec, 2.0 * t)
        # the calibrated profile, then one that about half the pairs violate
        k_half = math.sqrt(np.median(p / hl.kernel_bound(unit, cert, t, x[:, None], x[None, :])))
        for prof in (kp, types.SimpleNamespace(evaluate=lambda s: k_half)):
            slack = _full_table_slack(dec, prof, cert, t)
            # the scan, and the check that certifies from the diagonal or
            # falls back to the scan
            for chk in (cli._domination(cli._kernel_scan(dec, prof, cert, t)),
                        cli._kernel_domination(dec, prof, cert, [t], _diagonals(dec, cert, [t]))):
                assert chk["min_slack"] == pytest.approx(float(slack.min()), rel=1e-12)
                assert chk["violations"] == int(np.sum(slack < -1e-9))
        assert chk["violations"] > grid.n_points


def test_verify_kernel_scan_matches_full_table(monkeypatch):
    # a truncated decomposition, so the scan also carries the certified tail
    monkeypatch.setattr(hl.spectral, "_PARTIAL_MAX_FRAC", 1.0)
    cfg, grid, dec, cert, kp = _scan_setup()
    assert math.isfinite(dec.tail_rate)
    _check_kernel_scan_against_full_table(cfg, grid, dec, cert, kp)


def test_verify_kernel_scan_full_decomposition(monkeypatch):
    # a full decomposition has no tail, so the scan must not build tail slabs
    monkeypatch.setattr(hl.spectral, "_PARTIAL_MAX_FRAC", 0.0)
    cfg, grid, dec, cert, kp = _scan_setup()
    assert math.isinf(dec.tail_rate)

    def no_tail(*args, **kwargs):
        raise AssertionError("kernel_tail called for a full decomposition")

    monkeypatch.setattr(hl.spectral, "kernel_tail", no_tail)
    _check_kernel_scan_against_full_table(cfg, grid, dec, cert, kp)


def _no_scan(*args, **kwargs):
    raise AssertionError("the kernel table was built")


@pytest.mark.parametrize("overrides", [
    {}, {"n_points": 3200}, {"a": 1.9, "beta": 2.0}, {"a": 2.5, "beta": 3.0},
    {"rate": "log", "times": 1.0},
], ids=["default", "n3200", "a1.9-beta2", "a2.5-beta3", "log-t1"])
def test_kernel_domination_from_the_diagonal(overrides, monkeypatch):
    # passing configs: the diagonal certificate gives the full table's
    # least slack and violation count without building the table
    cfg, grid, dec, cert, kp = _scan_setup(seed=7, **overrides)
    want = cli._domination(_full_table_slack(dec, kp, cert, t) for t in cfg.times)
    monkeypatch.setattr(cli, "_kernel_scan", _no_scan)
    chk = cli._kernel_domination(dec, kp, cert, cfg.times, _diagonals(dec, cert, cfg.times))
    assert chk["pass"] and chk["violations"] == want["violations"] == 0
    assert chk["min_slack"] == pytest.approx(want["min_slack"], rel=1e-12)


@pytest.mark.parametrize("n_points", [800, 3200])
def test_verify_builds_no_kernel_table(tmp_path, n_points, monkeypatch):
    monkeypatch.setattr(cli, "_kernel_scan", _no_scan)
    monkeypatch.setattr(hl.spectral, "kernel_matrix", _no_scan)
    cfg = write_config(tmp_path / "cfg.txt", f"n_points = {n_points}\n")
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", cfg, "--out", out, "--quiet", "--seed", "7"]) == 0
    report = read_report(out, "verify_report.json")
    assert all(chk["pass"] for chk in report["checks"].values())


def test_failing_kernel_check_scans_the_table(monkeypatch):
    # some diagonal slacks are negative here, so no pair is certified from
    # the diagonal; the scan counts every violating pair (the diagonal
    # alone has 596)
    scans = []
    scan = cli._kernel_scan
    monkeypatch.setattr(cli, "_kernel_scan", lambda *args: scans.append(args) or scan(*args))
    cfg = cli.ExperimentConfig.from_mapping(
        {"rate": "classical", "rate_n": 1, "times": 0.25, "n_points": 800, "seed": 7}
    )
    record, _ = cli.run_verify(cfg)
    chk = record.checks["kernel_domination"]
    assert len(scans) == 1
    assert not chk["pass"]
    assert chk["violations"] == 55148
    assert chk["min_slack"] == -383073855.3096341


@pytest.mark.parametrize("text,kept,subset", [
    ("", 67, True),
    ("family = cauchy\nweight = universal\n", 433, False),
    ("times = 0.001\n", 800, False),
    ("family = ou\ntimes = 0.001\n", 800, False),
    ("family = cauchy\nweight = universal\ntimes = 0.001\n", 800, False),
], ids=["default", "cauchy", "mu_a-t1e-3", "ou-t1e-3", "cauchy-t1e-3"])
def test_kernel_solve_path(tmp_path, mode_count, text, kept, subset):
    # kernel keeps the modes that weigh at least 2^-52 at its smallest time:
    # by the subset solve when they are at most _PARTIAL_MAX_FRAC of the grid
    # (67 of 800, k/n = 0.084, at the default), else by the full solve
    cfg = cli.ExperimentConfig.from_mapping(cli.parse_config(write_config(tmp_path / "cfg.txt", text)))
    grid, op, dec = cli._decompose(cfg, cli._build_model(cfg), t_first=min(cfg.times))
    cut = hl.spectral._CUTOFF_EXPONENT / min(cfg.times)
    assert mode_count(op, min(cfg.times)) == kept
    assert (kept <= hl.spectral._PARTIAL_MAX_FRAC * grid.n_points) == subset
    if subset:
        assert dec.tail_rate == cut and dec.eigenvalues.size == kept
    else:
        assert math.isinf(dec.tail_rate) and dec.eigenvalues.size == grid.n_points


@pytest.mark.parametrize("raw,kept,t_first", [
    ({}, 47, 0.5),
    ({"n_points": 3200}, 47, 0.5),
    ({"n_points": 3200, "times": 0.01}, 237, 0.02),
    ({"times": 0.001}, 800, None),
], ids=["default", "n3200", "n3200-t1e-2", "t1e-3"])
def test_verify_solve_path(monkeypatch, raw, kept, t_first):
    # verify reads every spectral sum at 2t, so it keeps the modes that weigh
    # at least 2^-52 at 2 min(times): 47 of 800 at the default, where kernel
    # keeps 67; a full solve when they exceed _PARTIAL_MAX_FRAC of the grid
    decs, solve = [], hl.spectral.eigendecompose
    monkeypatch.setattr(hl.spectral, "eigendecompose", lambda *a, **kw: decs.append(solve(*a, **kw)) or decs[-1])
    cli.run_verify(cli.ExperimentConfig.from_mapping(raw))
    (dec,) = decs
    assert dec.eigenvalues.size == kept
    if t_first is None:
        assert math.isinf(dec.tail_rate)
    else:
        assert dec.tail_rate == hl.spectral._CUTOFF_EXPONENT / t_first and dec.t_min == t_first


def test_verify_keeping_no_mode_exits_3(tmp_path, capsys):
    # verify's t_first is 2 min(times), and its refusal names it
    cfg = write_config(tmp_path / "cfg.txt", "times = 1e16\n")
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", cfg, "--out", out]) == 3
    assert capsys.readouterr().err == ("numeric error: no mode kept: every computed eigenvalue exceeds lambda_cut "
                                       "= 52 ln2 / t_first = 1.8021826694558575e-15 at t_first = 2e+16\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("text", [
    "family = cauchy\nweight = universal\n", "weight = universal\n", "a = 0.8\n",
], ids=["cauchy-universal", "universal", "a-0.8"])
def test_kernel_without_a_bound_leaves_the_check_out(tmp_path, text):
    cfg = write_config(tmp_path / "cfg.txt", text + "n_points = 200\n")
    out = str(tmp_path / "out")
    assert cli.main(["kernel", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert read_report(out, "kernel_report.json")["checks"] == {}
    lines = open(os.path.join(out, "kernel_table.csv")).read().strip().split("\n")
    assert all(line.split(",")[4] == "nan" for line in lines[1:])


def _csv_per_value(header, rows):
    # reference formatter: one f-string per value
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(out) + "\n"


def test_csv_matches_per_value_formatter(rng):
    special = [0, -7, 2**70, True, False, math.inf, -math.inf, math.nan, -0.0, 5e-324,
               -1.5e-310, np.float64(-0.0), np.float32(0.1), np.int64(2**60), 1e308, 0.1]
    rows = [special[i:i + 4] for i in range(0, len(special), 4)]
    rows += (rng.standard_normal((200, 4)) * 10.0 ** rng.integers(-300, 300, (200, 4))).tolist()
    header = ["t", "p%", "slack", "x"]
    assert cli._csv(header, rows) == _csv_per_value(header, rows)
    # a float array gives the bytes of its rows as Python floats
    table = np.array(rows[4:], dtype=float)
    assert cli._csv(header, table) == _csv_per_value(header, table.tolist())
    assert cli._csv(header, []) == _csv_per_value(header, []) == "t,p%,slack,x\n"
    with pytest.raises(TypeError):
        cli._csv(header, [[1.0, 2.0]])


def test_csv_leaves_no_objects_behind():
    # rows of a length nothing else uses: every per-row object the formatter
    # makes must be freed for reuse, not parked on a free list, one per row.
    # The interpreter's own float and list free lists (100 and 80 objects)
    # are bounded but emptied by each full garbage collection, which may fall
    # anywhere in a test run: filling them first, with no 17-tuple, keeps them
    # from counting against 100 and leaves the 17-tuple free list as it was
    rows = [[i] + [0.5] * 16 for i in range(3000)]
    [[float(i)] for i in range(200)]
    before = sys.getallocatedblocks()
    text = cli._csv([f"c{i}" for i in range(17)], rows)
    del text
    assert sys.getallocatedblocks() - before < 100


def _from_bits(*words):
    return np.array(words, dtype=np.uint64).view(float)


@pytest.mark.parametrize("case", ["repeated", "signed-zeros", "nans-and-infs", "subnormals",
                                  "f-ordered", "strided", "transposed"])
def test_csv_keeps_apart_what_only_the_bits_tell_apart(rng, case):
    # the writer formats each distinct bit pattern once: values that compare
    # equal (0.0 and -0.0) or that never do (NaNs) must still print as each
    # one does on its own, from any array layout
    header = ["a", "b", "c", "d"]
    nans = _from_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                      0xFFF4000000000123, 0x7FF0000000000000, 0xFFF0000000000000)
    tiny = _from_bits(1, 0x8000000000000001, 0x000FFFFFFFFFFFFF, 0x0010000000000000,
                      0x8000000000000002)
    pool = {"repeated": [0.25, -1.5, 1e-300, 3.0e200, 0.1], "signed-zeros": [0.0, -0.0, 1.0],
            "nans-and-infs": [*nans, 0.0, -0.0, 2.5], "subnormals": [*tiny, 0.0, -0.0]}
    wide = rng.choice(pool.get(case, [*nans[:3], *tiny[:2], 0.0, -0.0, 1.5]), size=(120, 8))
    table = {"f-ordered": np.asfortranarray(wide[:, :4]), "strided": wide[::3, 1::2],
             "transposed": wide[:4].T}.get(case, wide[:, :4])
    assert cli._csv(header, table) == _csv_per_value(header, table.tolist())
    assert cli._csv(header, table.tolist()) == _csv_per_value(header, table.tolist())


def test_csv_formats_each_distinct_value_once(monkeypatch):
    # the default kernel table holds 7938 cells but about 1500 distinct values:
    # each is formatted once, so formatting every cell again fails here
    formatted = []

    def counting(value):
        formatted.append(value)
        return "%.17g" % value

    monkeypatch.setattr(cli, "_format_value", counting)
    _, files = cli.run_kernel(cli.ExperimentConfig())
    cells = np.array([[float(v) for v in line.split(",")]
                      for line in files["kernel_table.csv"].splitlines()[1:]])
    distinct = np.unique(cells.view(np.int64)).size
    assert cells.size == 7938
    assert len(formatted) == distinct < cells.size // 4
    assert np.unique(np.array(formatted).view(np.int64)).size == distinct


LOG_RATE = VERIFY_SMALL + "rate = log\n"


def test_log_rate_honours_log_a(tmp_path):
    # at log_a = 3 every kernel and verify bound is finite, so each check
    # judges a bound (at the default 2.5, K(t) overflows at both kernel times)
    cfg = write_config(tmp_path / "cfg.txt", LOG_RATE + "log_a = 3.0\n")
    for command in ("kernel", "verify"):
        out = str(tmp_path / command)
        assert cli.main([command, "--config", cfg, "--out", out, "--quiet"]) == 0
        report = read_report(out, f"{command}_report.json")
        assert all(chk["pass"] for chk in report["checks"].values()), command
        assert "inf" not in [chk.get("min_slack") for chk in report["checks"].values()], command

    # phi(x) = C x (log x)^{2(1-1/a)} with a = 1.5 < 2 is not integrable
    bad = write_config(tmp_path / "bad.txt", LOG_RATE + "log_a = 1.5\n")
    for command in ("kernel", "verify"):
        out = str(tmp_path / f"bad-{command}")
        assert cli.main([command, "--config", bad, "--out", out]) == 5
        assert not os.path.exists(out)


def test_verify_memory_at_n3200():
    # the truncated decomposition, the diagonal certificate and the families
    # streamed in row blocks keep verify at O(n (k + rows per block)) memory,
    # below one whole 200 x 3200 family (4.88 MiB); three full 3200 x 3200
    # tables would need 234 MiB
    cfg = cli.ExperimentConfig.from_mapping({"n_points": 3200})
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        record, _ = cli.run_verify(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(chk["pass"] for chk in record.checks.values())
    assert peak < cli._HELDOUT_SIZE * cfg.n_points * 8


@pytest.mark.parametrize("n_points", [800, 3200])
def test_passing_verify_unfolds_no_table(monkeypatch, n_points):
    # a passing verify reads the half table only through kernel_diagonal and
    # trace: the L2 check through K*, the kernel check through its diagonal
    # certificate; so it gathers no eigenfunction row, and a table cap that
    # counts the half table would serve it
    def refuse(dec, nodes):
        raise AssertionError("verify unfolded eigenfunction rows")

    monkeypatch.setattr(hl.spectral, "_unfold", refuse)
    record, _ = cli.run_verify(cli.ExperimentConfig.from_mapping({"n_points": n_points}))
    assert record.checks and all(chk["pass"] for chk in record.checks.values())


@pytest.mark.parametrize("command, text, kept", [
    ("spectrum", "", 51200), ("trace", "", 51200),
    ("kernel", "family = cauchy\nradius = 60.0\ntimes = 0.001\n", 51200),
    ("kernel", "family = cauchy\ntimes = 0.001\n", 6079),
], ids=["spectrum", "trace", "kernel", "kernel-truncated"])
def test_oversized_full_solve_exits_3_before_allocating(tmp_path, capsys, command, text, kept):
    # a full solve at n = 51200 would need a 21 GB table; kernel makes one when
    # over 12% of the modes count at its smallest time, as 7313 of 51200 do in
    # the Cauchy window R = 60 at t = 1e-3.  In the default Cauchy window 6079
    # count, so kernel takes the truncated solve, whose n x k table would
    # still take 2.5 GB (the default mu_a keeps 1058 modes, 0.43 GB).  The
    # refusal comes after the O(n) grid, operator, parity blocks and mode
    # count: at most 15 doubles a node are traced, against n k for the table
    cfg = write_config(tmp_path / "cfg.txt", text + "n_points = 51200\n")
    out = str(tmp_path / "out")
    tracemalloc.start()
    try:
        code = cli.main([command, "--config", cfg, "--out", out])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and not os.path.exists(out)
    assert capsys.readouterr().err == (
        f"numeric error: an eigensolve keeping {kept} of n = 51200 modes needs a {8 * 51200 * kept}-byte "
        "eigenfunction table (n k doubles), over the 2147483648-byte cap\n")
    assert peak < 32 * 8 * 51200


def test_closed_rate_builds_no_training_rows(tmp_path, monkeypatch):
    # rate = log draws the training centers and widths but builds none of the
    # rows; the held-out family drawn next is the one a built training family
    # leaves, so the outputs are byte-identical to a run that builds it
    built = []
    bumps = hl.spectral._bumps
    monkeypatch.setattr(hl.spectral, "_bumps", lambda x, c, w: built.append(len(c)) or bumps(x, c, w))
    cfg = write_config(tmp_path / "cfg.txt", "rate = log\n")
    lazy, eager = str(tmp_path / "lazy"), str(tmp_path / "eager")
    assert cli.main(["verify", "--config", cfg, "--out", lazy, "--quiet"]) == 0
    assert sum(built) == cli._HELDOUT_SIZE
    blocks = hl.spectral.gaussian_bump_blocks
    monkeypatch.setattr(hl.spectral, "gaussian_bump_blocks", lambda *args: iter(list(blocks(*args))))
    assert cli.main(["verify", "--config", cfg, "--out", eager, "--quiet"]) == 0
    assert sum(built) == 2 * cli._HELDOUT_SIZE + cli._TRAIN_SIZE
    assert sorted(os.listdir(lazy)) == sorted(os.listdir(eager))
    for name in os.listdir(lazy):
        assert open(os.path.join(lazy, name), "rb").read() == open(os.path.join(eager, name), "rb").read()


@pytest.mark.parametrize("family", ["ou", "cauchy"])
def test_nash_scan_names_its_family_requirement(tmp_path, family, capsys):
    # the family is checked before the weight, whose own mu_a requirement
    # would otherwise be the message
    cfg = write_config(tmp_path / "cfg.txt", f"family = {family}\n")
    out = str(tmp_path / "out")
    assert cli.main(["nash-scan", "--config", cfg, "--out", out]) == 2
    assert "nash-scan requires the mu_a family with a > 1" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_verify_checks_carry_the_tail(monkeypatch):
    # on a truncated decomposition, a tail larger than any bound must turn
    # every spectral check into violations
    monkeypatch.setattr(hl.spectral, "_PARTIAL_MAX_FRAC", 1.0)
    monkeypatch.setattr(hl.SpectralDecomposition, "tail", lambda self, t: 1e100)
    cfg = cli.ExperimentConfig.from_mapping(
        {"radius": 10.0, "n_points": 300, "times": [0.5, 1.0], "seed": 5}
    )
    record, _ = cli.run_verify(cfg)
    for name in ("l2_domination", "kernel_domination", "trace_domination"):
        assert record.checks[name]["violations"] > 0, name
        assert not record.checks[name]["pass"], name
    record, _ = cli.run_kernel(cfg)
    assert record.checks["bound_dominates"]["violations"] > 0


def test_infinite_bound_checks_are_vacuous(tmp_path, capsys):
    # U^{-1}(t) = exp((C (p - 1) t)^{-1/(p - 1)}) with 1/(p - 1) = 21 at
    # log_a = 2.1 overflows at every time: each domination check then holds
    # over an infinite bound only, and must not read as a pass
    cfg = write_config(tmp_path / "cfg.txt", LOG_RATE + "log_a = 2.1\n")
    expected = {"verify": ["l2_domination", "kernel_domination", "trace_domination"],
                "kernel": ["bound_dominates"]}
    for command, names in expected.items():
        out = str(tmp_path / command)
        assert cli.main([command, "--config", cfg, "--out", out]) == 0
        status = capsys.readouterr().out
        assert "FAILED checks: " + ", ".join(f"{n} (vacuous)" for n in names) + ";" in status
        checks = read_report(out, f"{command}_report.json")["checks"]
        for name in names:
            assert checks[name]["vacuous"] is True and checks[name]["pass"] is False
            assert checks[name]["min_slack"] == "inf" and checks[name]["violations"] == 0
    # the held-out envelope of verify judges finite slacks and still passes
    assert read_report(str(tmp_path / "verify"), "verify_report.json")["checks"]["heldout_envelope"]["pass"]


def test_partly_infinite_bound_checks_are_flagged(tmp_path, capsys):
    # at the default log_a = 2.5, U^{-1}(2t) overflows at t = 0.5 but not at
    # t = 1: each domination check then certifies t = 1 only, passes on it,
    # and counts the +inf slacks of t = 0.5
    cfg = write_config(tmp_path / "cfg.txt", "rate = log\nradius = 10\nn_points = 300\n"
                       "times = 0.5, 1.0\nseed = 7\n")
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", cfg, "--out", out]) == 0
    status = capsys.readouterr().out
    assert status.startswith("verify: ok; unbounded in part: l2_domination (1 inf slacks), "
                             "kernel_domination (300 inf slacks), trace_domination (1 inf slacks);")
    report = read_report(out, "verify_report.json")
    assert report["results"]["k_times_exp_ct"][0] == [0.5, "inf"]
    assert report["results"]["log10_l2_bound_over_k_star"][0] == [0.5, "inf"]
    checks = report["checks"]
    expected = {"l2_domination": 1, "kernel_domination": 300, "trace_domination": 1}
    for name, count in expected.items():
        assert checks[name]["pass"] and checks[name]["unbounded"] == count, name
        assert "vacuous" not in checks[name] and checks[name]["min_slack"] != "inf", name
    assert "unbounded" not in checks["heldout_envelope"]


def test_universal_weight_lyapunov_constant_is_exact_in_the_report(tmp_path):
    # c = -b'(0)/2 = a/2 at the grid node x = 0, from the closed-form b'
    cfg = write_config(tmp_path / "cfg.txt",
                       "weight = universal\nn_points = 801\nseed = 7\n")
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert read_report(out, "verify_report.json")["results"]["lyapunov_constant"] == 0.75


@pytest.mark.parametrize("command, config, x_pair", [
    ("spectrum", "a = 2.5\nradius = 12.0\nn_points = 1921\n", (-10.6, -10.5875)),
    ("kernel", "a = 2.2\nradius = 16.0\nn_points = 2561\n", (-14.65, -14.6375)),
], ids=["spectrum", "kernel"])
def test_mass_product_underflow_exits_3_naming_the_edge(tmp_path, capsys, command, config, x_pair):
    # every node mass is positive, but m_i m_(i+1) underflows to 0 near the
    # window edge: discretize refuses before numpy divides by that zero
    cfg = write_config(tmp_path / "cfg.txt", config)
    out = str(tmp_path / "out")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([command, "--config", cfg, "--out", out]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not os.path.exists(out)
    err = capsys.readouterr().err
    named = re.fullmatch(r"numeric error: node masses (\S+) at x = (\S+) and (\S+) at x = (\S+) "
                         r"have a product that underflows to 0: narrow the window\n", err)
    assert named, err  # plain floats, not np.float64(...)
    m0, x0, m1, x1 = map(float, named.groups())
    assert (x0, x1) == x_pair
    assert m0 > 0.0 and m1 > 0.0 and m0 * m1 == 0.0


def test_nash_scan_makes_one_quotient_pass(monkeypatch):
    # the envelope is fitted on the pairs the scan writes, not recomputed
    calls = []
    original = hl.bounds.nash_quotients

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(hl.bounds, "nash_quotients", counting)
    cli.run_nash_scan(cli.ExperimentConfig.from_mapping({}))
    assert len(calls) == 1


@pytest.mark.parametrize("command,text,message", [
    ("spectrum", "family = cauchy\nbeta_model = 1.0\n", "cauchy exponent must exceed 1"),
    ("spectrum", "radius = 0\n", "radius must be positive"),
    ("spectrum", "n_points = 2\n", "n_points must be at least 3"),
    ("kernel", "times = 0.5, 0\n", "times must be positive"),
    ("verify", "theta = 1.0\n", "theta must lie in (0,1)"),
    # retired keys: refused as unknown, whatever the value
    ("verify", "safety = 0.99\n", "unknown config keys: ['safety']"),
    ("nash-scan", "train_size = 0\n", "unknown config keys: ['train_size']"),
    ("verify", "heldout_size = -1\n", "unknown config keys: ['heldout_size']"),
], ids=["beta_model", "radius", "n_points", "times", "theta", "safety", "train_size", "heldout_size"])
def test_config_refusal_exits_2_with_its_message(tmp_path, capsys, command, text, message):
    cfg = write_config(tmp_path / "cfg.txt", text)
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", cfg, "--out", out]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_nash_scan_with_the_unit_weight(tmp_path):
    cfg = write_config(tmp_path / "cfg.txt", "weight = unit\nn_points = 200\n")
    out = str(tmp_path / "out")
    assert cli.main(["nash-scan", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert read_report(out, "nash_scan_report.json")["checks"]["envelope_below_samples"]["pass"]
    assert len(open(os.path.join(out, "nash_quotients.csv")).read().strip().split("\n")) == 1 + cli._TRAIN_SIZE


@pytest.mark.parametrize("rows,message", [
    ("1.0,2.0\n", "at least two rows"),
    ("", "at least two rows"),
    ("1.0,2.0\n2.0,inf\n", "K = inf"),
    ("1.0,2.0\n2.0,nan\n", "K = nan"),
    ("1.0,2.0\n2.0,-1.5\n", "K = -1.5"),
], ids=["one-row", "header-only", "inf-K", "nan-K", "negative-K"])
def test_bad_k_samples_file_exits_2(tmp_path, capsys, rows, message):
    sample = tmp_path / "ksamples.csv"
    sample.write_text("t,K\n" + rows)
    cfg = write_config(tmp_path / "cfg.txt", f"k_samples_csv = {sample}\n")
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["converse", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: K samples file {sample}") and message in err, err
    assert not os.path.exists(out)


def test_missing_k_samples_file_exits_2(tmp_path, capsys):
    # the file is read even when a rate is configured too
    sample = tmp_path / "missing.csv"
    cfg = write_config(tmp_path / "cfg.txt", f"rate = classical\nk_samples_csv = {sample}\n")
    out = str(tmp_path / "out")
    assert cli.main(["converse", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read K samples file {sample}: ")
    assert not os.path.exists(out)


def test_ou_kernel_past_exp_overflow(tmp_path):
    # at t = 720 the diagonal bound's e^{2(t/2)} overflows a float; the bound
    # is 1 there, and the run passes its checks
    cfg = write_config(tmp_path / "cfg.txt", "family = ou\ntimes = 720\n")
    out = str(tmp_path / "out")
    assert cli.main(["kernel", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = read_report(out, "kernel_report.json")
    assert report["checks"]["bound_dominates"]["pass"] and report["checks"]["mehler_match"]["pass"]
    lines = open(os.path.join(out, "kernel_table.csv")).read().strip().split("\n")[1:]
    assert {float(line.split(",")[4]) for line in lines} == {1.0}
