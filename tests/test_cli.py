import json
import math
import os
import tracemalloc
import types

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
train_size = 40
heldout_size = 40
safety = 1.5
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


def test_missing_config_file_exits_2(tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["spectrum", "--config", str(tmp_path / "nope.txt"), "--out", out]) == 2
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
    rec = cli.ReportRecord(
        experiment=report["experiment"],
        inputs=report["inputs"],
        results=res,
        checks=report["checks"],
    )
    assert rec.consistent()
    trace_lines = open(os.path.join(out, "verify_trace.csv")).read().strip().split("\n")
    assert trace_lines[0] == "t,hs_norm_sq,trace_bound"
    for line in trace_lines[1:]:
        t, hs, bound = map(float, line.split(","))
        assert hs <= bound


def test_verify_universal_weight_trace_exits_5(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.txt", VERIFY_SMALL.replace("weight = mu_a", "weight = universal")
    )
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", cfg, "--out", out]) == 5
    assert not os.path.exists(out)


def test_verify_degenerate_family_exits_4(tmp_path):
    # near-constant bumps: every quotient sits below the floor
    cfg = write_config(
        tmp_path / "cfg.txt",
        VERIFY_SMALL + "bump_width_lo = 50.0\nbump_width_hi = 50.0\n",
    )
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", cfg, "--out", out]) == 4
    assert not os.path.exists(out)


def test_kernel_time_below_floor_exits_3(tmp_path):
    cfg = write_config(tmp_path / "cfg.txt", OU_SPECTRUM + "times = 1e-4\n")
    out = str(tmp_path / "out")
    assert cli.main(["kernel", "--config", cfg, "--out", out]) == 3
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
        "times = 0.5\ntrain_size = 30\nseed = 11\n",
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
        {"a": 1.5, "n_points": 300, "times": [0.25, 1.0], "train_size": 30, "seed": 4}
    )
    _, files = cli.run_kernel(cfg)
    lines = files["kernel_table.csv"].strip().split("\n")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

    model = cli._build_model(cfg)
    grid, op, dec = cli._decompose(cfg, model)
    _, cert, _, _, kp = cli._pipeline(cfg, model, grid, op, np.random.default_rng(cfg.seed))
    x = grid.points
    nodes = cli._kernel_sample_nodes(grid, cfg.kernel_half_width)
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
    base = "family = mu_a\na = 1.5\nradius = 10.0\nn_points = 300\nbeta = 1.0\ntrain_size = 30\nseed = 2\n"
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


def test_seed_flag_overrides_config(tmp_path):
    base = "family = mu_a\na = 1.5\nradius = 10.0\nn_points = 300\ntrain_size = 10\nseed = 1\n"
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


def _scan_setup():
    cfg = cli.ExperimentConfig.from_mapping({"n_points": 800, "train_size": 40, "seed": 3})
    model = cli._build_model(cfg)
    grid, op, dec = cli._decompose(cfg, model, t_first=min(cfg.times))
    _, cert, _, _, kp = cli._pipeline(cfg, model, grid, op, np.random.default_rng(cfg.seed))
    return cfg, grid, dec, cert, kp


def _check_kernel_scan_against_full_table(cfg, grid, dec, cert, kp):
    x = grid.points
    unit = types.SimpleNamespace(evaluate=lambda s: 1.0)
    for t in cfg.times:
        p = hl.kernel_matrix(dec, 2.0 * t) + hl.kernel_tail(dec, 2.0 * t)
        # the calibrated profile, then one that about half the pairs violate
        k_half = math.sqrt(np.median(p / hl.kernel_bound(unit, cert, t, x[:, None], x[None, :])))
        for prof in (kp, types.SimpleNamespace(evaluate=lambda s: k_half)):
            slack = hl.kernel_bound(prof, cert, t, x[:, None], x[None, :]) - p
            min_slack, violations = cli._kernel_scan(dec, prof, cert, t)
            assert min_slack == pytest.approx(float(slack.min()), rel=1e-12)
            assert violations == int(np.sum(slack < -1e-9))
        assert violations > grid.n_points


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


def _csv_per_value(header, rows):
    # reference formatter: one f-string or str() per value
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(f"{v:.17g}" if isinstance(v, (int, float, np.floating)) else str(v) for v in row))
    return "\n".join(out) + "\n"


def test_csv_matches_per_value_formatter(rng):
    special = [0, -7, 2**70, True, False, math.inf, -math.inf, math.nan, -0.0, 5e-324,
               -1.5e-310, np.float64(-0.0), np.float32(0.1), np.int64(2**60), np.bool_(True),
               "50%", "%s %d", 1e308]
    rows = [special[i:i + 6] for i in range(0, len(special), 6)]
    rows += (rng.standard_normal((200, 4)) * 10.0 ** rng.integers(-300, 300, (200, 4))).tolist()
    rows += [[], ["x"]]
    header = ["t", "p%", "slack"]
    assert cli._csv(header, rows) == _csv_per_value(header, rows)
    assert cli._csv(header, []) == _csv_per_value(header, []) == "t,p%,slack\n"


LOG_RATE = VERIFY_SMALL + "rate = log\n"


def test_log_rate_honours_log_a(tmp_path):
    cfg = write_config(tmp_path / "cfg.txt", LOG_RATE)
    for command in ("kernel", "verify"):
        out = str(tmp_path / command)
        assert cli.main([command, "--config", cfg, "--out", out, "--quiet"]) == 0
        report = read_report(out, f"{command}_report.json")
        assert all(chk["pass"] for chk in report["checks"].values()), command

    # phi(x) = C x (log x)^{2(1-1/a)} with a = 1.5 < 2 is not integrable
    bad = write_config(tmp_path / "bad.txt", LOG_RATE + "log_a = 1.5\n")
    for command in ("kernel", "verify"):
        out = str(tmp_path / f"bad-{command}")
        assert cli.main([command, "--config", bad, "--out", out]) == 5
        assert not os.path.exists(out)


def test_verify_memory_at_n3200():
    # the truncated decomposition and the streamed kernel scan keep verify at
    # O(n * block) memory; three full 3200 x 3200 tables would need 234 MiB
    cfg = cli.ExperimentConfig.from_mapping({"n_points": 3200})
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        record, _ = cli.run_verify(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(chk["pass"] for chk in record.checks.values())
    assert peak < 64 * 2**20


def test_verify_checks_carry_the_tail(monkeypatch):
    # on a truncated decomposition, a tail larger than any bound must turn
    # every spectral check into violations
    monkeypatch.setattr(hl.spectral, "_PARTIAL_MAX_FRAC", 1.0)
    monkeypatch.setattr(hl.SpectralDecomposition, "tail", lambda self, t: 1e100)
    cfg = cli.ExperimentConfig.from_mapping(
        {"radius": 10.0, "n_points": 300, "times": [0.5, 1.0], "train_size": 40, "seed": 5}
    )
    record, _ = cli.run_verify(cfg)
    for name in ("l2_domination", "kernel_domination", "trace_domination"):
        assert record.checks[name]["violations"] > 0, name
    assert record.consistent()
    record, _ = cli.run_kernel(cfg)
    assert record.checks["bound_dominates"]["violations"] > 0
