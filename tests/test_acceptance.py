"""Acceptance suite: one test per criterion, each printing a pass line.

Run as `pytest tests/test_acceptance.py -v` (the pass lines print even
under captured output).
"""

import math
import time

import numpy as np
import pytest

import heatlab as hl
from conftest import apply_semigroup

TIMES = (0.25, 0.5, 1.0)


def _announce(capsys, line):
    with capsys.disabled():
        print(line)


def test_criterion_01_ou_spectrum(capsys):
    start = time.monotonic()
    model = hl.make_ou(8.0)
    grid = hl.make_grid(model, 800)
    dec = hl.eigendecompose(hl.discretize(model, grid))
    err = float(np.max(np.abs(dec.eigenvalues[:6] - np.arange(6))))
    elapsed = time.monotonic() - start
    assert err < 1e-2
    assert elapsed < 30.0
    _announce(
        capsys,
        f"ACCEPTANCE 1 PASS: OU eigenvalues match 0..5, max error {err:.2e} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_02_mehler_oracle(ou_fine_setup, capsys):
    grid, _, dec = ou_fine_setup
    idx = hl.bulk_indices(grid, 2.0)
    x = grid.points
    worst = 0.0
    for t in TIMES:
        p = hl.kernel_matrix(dec, t)[np.ix_(idx, idx)]
        exact = hl.mehler_kernel(t, x[idx][:, None], x[idx][None, :])
        worst = max(worst, float(np.max(np.abs(p - exact) / exact)))
    assert worst < 1e-2

    eq_worst = 0.0
    for t in TIMES:
        for xv in np.linspace(-2.0, 2.0, 9):
            bound = hl.mehler_diag_bound(t, xv, xv)
            exact = hl.mehler_kernel(2.0 * t, xv, xv)
            eq_worst = max(eq_worst, abs(bound - exact) / exact)
    assert eq_worst <= 1e-12
    _announce(
        capsys,
        f"ACCEPTANCE 2 PASS: spectral kernel matches Mehler (max rel {worst:.2e}), "
        f"diagonal bound equality defect {eq_worst:.2e}",
    )


def test_criterion_03_chapman_kolmogorov(ou_setup, mua_setup, capsys):
    _, _, ou_dec = ou_setup
    _, _, mua_dec = mua_setup
    res_ou = hl.chapman_kolmogorov_residual(ou_dec, 0.5, 0.5)
    res_mu = hl.chapman_kolmogorov_residual(mua_dec, 0.5, 0.5)
    assert res_ou < 1e-6 and res_mu < 1e-6
    stoch = max(
        hl.stochasticity_defect(dec, t) for dec in (ou_dec, mua_dec) for t in (0.5, 1.0)
    )
    assert stoch < 1e-6
    _announce(
        capsys,
        f"ACCEPTANCE 3 PASS: CK residual OU {res_ou:.2e} / mu_1.5 {res_mu:.2e}, "
        f"stochasticity defect {stoch:.2e}",
    )


def test_criterion_04_log_convexity(mua_setup, capsys):
    grid, op, dec = mua_setup
    rng = np.random.default_rng(404)
    bumps = hl.gaussian_bump_family(grid, 20, rng)
    ts = np.linspace(0.05, 1.0, 10)
    worst = math.inf
    for f in bumps:
        pf = np.stack([apply_semigroup(dec, f, t) for t in ts])
        h = hl.family_norms(pf, hl.unit_weight(), op).l2sq
        worst = min(worst, float(np.min(np.diff(np.log(h), 2))))
    assert worst >= -1e-8
    _announce(
        capsys,
        f"ACCEPTANCE 4 PASS: log ||P_t f||_2^2 convex, min second difference {worst:.2e}",
    )


def test_criterion_05_k_profile_closed_forms(capsys):
    kp = hl.k_profile(hl.power_rate(1.0, 2.0))
    worst = max(
        abs(kp.evaluate(t) - t ** -0.5) for t in np.geomspace(0.01, 10.0, 25)
    )
    assert worst < 1e-10

    c, r = 2.0, 1.8
    kp2 = hl.k_profile(hl.power_rate(c, r))
    ts = np.geomspace(0.01, 10.0, 30)
    ks = np.array([kp2.evaluate(t) for t in ts])
    slope = float(np.polyfit(np.log(ts), np.log(ks), 1)[0])
    expected = 1.0 / (2.0 * (1.0 - r))
    assert abs(slope - expected) < 1e-6
    _announce(
        capsys,
        f"ACCEPTANCE 5 PASS: K(t)=t^-1/2 defect {worst:.2e}, power-rate exponent "
        f"{slope:.8f} vs {expected:.8f}",
    )


def test_criterion_06_converse_recovery(capsys):
    # independent calculus oracle: for K(t)=t^{-1/2} the sup over t of
    # (x/2t) log(xt) sits at t = e/x and equals x^2/(2e)
    xs = np.linspace(0.5, 5.0, 50)
    ts = np.geomspace(math.e / xs.max() / 50.0, math.e / xs.min() * 50.0, 20000)
    rate = hl.converse_rate(ts, ts ** -0.5)
    phi = np.asarray(rate.evaluate(xs))
    worst = float(np.max(np.abs(phi - xs ** 2 / (2.0 * math.e))))
    assert worst < 1e-6
    _announce(capsys, f"ACCEPTANCE 6 PASS: converse recovers x^2/(2e), max error {worst:.2e}")


def test_criterion_07_full_pipeline(mua_model, mua_setup, capsys):
    start = time.monotonic()
    grid, op, dec = mua_setup
    weight = hl.weight_mu_a(1.5, 1.0)
    cert = hl.lyapunov_constant(mua_model, weight, grid).nonnegative()
    exps = hl.mu_a_exponents(1.5, 1.0)
    rng = np.random.default_rng(7)
    train = hl.gaussian_bump_family(grid, 200, rng)
    heldout = hl.gaussian_bump_family(grid, 200, rng)
    xq, yq = hl.nash_quotients(hl.family_norms(train, weight, op))
    floor = 1.5 * (1.0 / float(np.sum(grid.node_masses * weight.value(grid.points))) ** 2)
    rate = hl.empirical_rate(xq, yq, exps.lam, floor, safety=1.5)
    kp = hl.k_profile(rate)
    v = weight.value(grid.points)
    mass = hl.weight_squared_mass(mua_model, weight, grid)

    viol_a = viol_b = viol_c = 0
    min_a = min_b = min_c = math.inf
    for t in TIMES:
        pf = np.vstack([apply_semigroup(dec, f, t) for f in heldout])
        l2 = np.sqrt((pf * pf) @ grid.node_masses)
        l1w = np.abs(heldout) @ (grid.node_masses * v)
        slack_a = hl.l2_bound(kp, cert, t) * l1w - l2
        viol_a += int(np.sum(slack_a < -1e-9))
        min_a = min(min_a, float(slack_a.min()))

        pmat = hl.kernel_matrix(dec, 2.0 * t)
        bmat = hl.kernel_bound(kp, cert, t, grid.points[:, None], grid.points[None, :])
        slack_b = bmat - pmat
        viol_b += int(np.sum(slack_b < -1e-9))
        min_b = min(min_b, float(slack_b.min()))

        slack_c = hl.trace_bound(kp, cert, mass, t) - hl.trace(dec, 2.0 * t)
        viol_c += int(slack_c < -1e-9)
        min_c = min(min_c, float(slack_c))

    elapsed = time.monotonic() - start
    assert viol_a == 0 and viol_b == 0 and viol_c == 0
    assert elapsed < 300.0
    _announce(
        capsys,
        "ACCEPTANCE 7 PASS: zero violations "
        f"(L2 slack >= {min_a:.2e}, kernel slack >= {min_b:.2e}, "
        f"trace slack >= {min_c:.2e}; {elapsed:.1f}s, "
        f"c={cert.constant:.4f}, C={rate.meta['c_shift']:.4f}, lam={exps.lam:.4f})",
    )


def test_criterion_08_ultracontractivity_threshold(capsys):
    # read from the path the runs use: the log-power profile builds exactly
    # when a > 2, and is_integrable agrees
    results = {}
    for a in (1.5, 2.0, 2.5, 3.0):
        rate = hl.log_rate(a)
        try:
            hl.k_profile(rate)
            results[a] = True
        except hl.IntegrabilityError:
            results[a] = False
        assert hl.is_integrable(rate) is results[a]
    assert results[1.5] is False and results[2.0] is False
    assert results[2.5] is True and results[3.0] is True
    _announce(
        capsys,
        f"ACCEPTANCE 8 PASS: log-rate decay profiles {results} match the a > 2 threshold",
    )


def test_criterion_09_ground_state_transform(mua_model, mua_setup, capsys):
    grid, _, _ = mua_setup
    g = np.exp(-grid.points ** 2 / (2 * 1.2 ** 2))
    res = hl.ground_state_transform_residual(mua_model, g, grid)
    assert res < 1e-5

    fine = hl.make_grid(mua_model, 2 * grid.n_points - 1)  # halves the spacing
    res_fine = hl.ground_state_transform_residual(
        mua_model, np.exp(-fine.points ** 2 / (2 * 1.2 ** 2)), fine
    )
    ratio = res / res_fine
    assert 3.3 < ratio < 4.7
    _announce(
        capsys,
        f"ACCEPTANCE 9 PASS: ground-state residual {res:.2e} at n=800, "
        f"refinement ratio {ratio:.2f} (O(h^2))",
    )


def test_criterion_10_exponent_formulas(capsys):
    assert hl.mu_a_exponents(2.0, 1.5).gamma == pytest.approx(2.0 / 3.0, rel=1e-14)
    count = 0
    for a in np.linspace(1.05, 3.0, 16):
        betas = np.linspace(max(0.0, (3.0 - a) / 2.0) + 1e-6, 4.0, 12)
        for beta in betas:
            e = hl.mu_a_exponents(a, beta)
            assert 1.0 / 3.0 < e.gamma <= 1.0
            assert 0.0 < e.lam < 1.0
            assert e.delta > 0.0
            count += 1
    _announce(
        capsys,
        f"ACCEPTANCE 10 PASS: gamma(2, 3/2) = 2/3 and {count} sweep points keep "
        "gamma in (1/3,1], lambda in (0,1), delta > 0",
    )


def test_criterion_11_tail_estimate_stability(capsys):
    sups = {}
    for a, radius in ((1.0, 24.0), (1.5, 10.0), (2.0, 6.0)):
        model = hl.make_mu_a(a, radius)

        def scan_sup(n):
            xs = np.linspace(0.0, radius - 1.0, n)
            vals = [
                hl.tail_mass(model, x) * hl.soft_abs(x) ** (a - 1.0) / model.density(x)
                for x in xs
            ]
            return float(np.max(vals))

        coarse, fine = scan_sup(100), scan_sup(200)
        assert math.isfinite(coarse) and math.isfinite(fine)
        assert abs(coarse - fine) / fine < 0.10
        sups[a] = fine
    _announce(
        capsys,
        "ACCEPTANCE 11 PASS: tail-ratio sups stable under scan doubling: "
        + ", ".join(f"a={a}: {s:.3f}" for a, s in sups.items()),
    )
