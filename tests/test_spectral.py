import dataclasses
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import heatlab as hl

#: How far, in eps ||T||_1, the parity-block eigenvalues may lie from the raw
#: LAPACK call on the whole matrix.  Both solves are backward stable, but
#: neither is exact: over 6000 random grids with n <= 80 the raw call lies up
#: to 12.9 eps ||T||_1 from bisection, and the two solves differ by up to 13.9.
FOLD_EIG_TOL = 16.0


def _family(name, a):
    """The three built-in families, at exponent ``a`` where they have one."""
    if name == "mu_a":
        return hl.make_mu_a(a, hl.suggest_radius(a))
    return hl.make_cauchy(a, 50.0) if name == "cauchy" else hl.make_ou(8.0)


def _raw_solve(op, dec):
    """The unfolded LAPACK call ``eigendecompose`` made before the parity
    split, for the same modes as ``dec``."""
    if math.isinf(dec.tail_rate):
        return eigh_tridiagonal(op.sym_diag, op.sym_offdiag)
    return eigh_tridiagonal(op.sym_diag, op.sym_offdiag, select="v", select_range=(-math.inf, dec.tail_rate))


def _one_call_solve(op):
    """Every mode by one LAPACK call on both parity blocks, unfolded by
    (even + odd) * scale and (even - odd) * scale: the full solve
    ``eigendecompose`` made before it called LAPACK once per block."""
    m = op.grid.node_masses
    w, v = eigh_tridiagonal(*hl.spectral._parity_blocks(op.sym_diag, op.sym_offdiag))
    half, center = divmod(v.shape[0], 2)
    even, odd = v[center:half + center], v[half + center:]
    scale = (math.sqrt(0.5) / np.sqrt(m[half + center:]))[:, None]
    ef = np.empty_like(v)
    ef[half + center:] = (even + odd) * scale
    ef[half - 1::-1] = (even - odd) * scale
    if center:
        ef[half] = v[0] / math.sqrt(m[half])
    return w, ef


def assert_one_call_bits(op, dec):
    """``dec`` holds the eigenvalues and eigenfunctions of ``_one_call_solve``
    bit for bit, signed zeros included, in a Fortran-ordered table."""
    w, ef = _one_call_solve(op)
    for got, want in ((dec.eigenvalues, w), (dec.eigenfunctions, ef)):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert dec.eigenfunctions.flags.f_contiguous


def assert_one_call_bits_up_to_sign(op, dec):
    """As ``assert_one_call_bits``, but each eigenfunction may be the one-call
    column of the same eigenvalue times -1, exact ties may come in the other
    order, and the center of an odd grid is +0.0 in every odd mode: the
    freedom one QL/QR pass on both blocks has below ``dstedc``'s divide
    size, where its center zero may come out -0.0."""
    w, ef = _one_call_solve(op)
    got = dec.eigenfunctions
    assert np.array_equal(dec.eigenvalues, w) and np.array_equal(np.signbit(dec.eigenvalues), np.signbit(w))
    n, half = w.size, w.size // 2
    unmatched = set(range(n))
    for j in range(n):
        col = got[:, j]
        signs = np.signbit(col)
        if n % 2 and np.all(col == -col[::-1]):
            assert col[half] == 0.0 and not signs[half]
            signs = np.delete(signs, half)
        i, s = next((i, s) for i in sorted(unmatched) if w[i] == w[j] for s in (1.0, -1.0)
                    if np.array_equal(col, s * ef[:, i]))
        want = np.signbit(s * ef[:, i])
        assert np.array_equal(signs, want if signs.size == n else np.delete(want, half))
        unmatched.remove(i)
    assert got.flags.f_contiguous


def assert_parity_split(op, dec):
    """Eigenvalues as accurate as the raw call's, residual and Gram defect
    within the ``spectrum`` tolerances, each eigenfunction exactly even or
    exactly odd, e_0 even and e_1 odd."""
    d, e = op.sym_diag, op.sym_offdiag
    norm1 = np.max(np.abs(d) + np.abs(np.r_[0.0, e]) + np.abs(np.r_[e, 0.0]))
    w = _raw_solve(op, dec)[0]
    assert w.size == dec.eigenvalues.size
    assert np.max(np.abs(dec.eigenvalues - w)) <= FOLD_EIG_TOL * np.finfo(float).eps * norm1

    ef, m = dec.eigenfunctions, op.grid.node_masses
    v = ef * np.sqrt(m)[:, None]
    tv = d[:, None] * v
    tv[:-1] += e[:, None] * v[1:]
    tv[1:] += e[:, None] * v[:-1]
    assert np.max(np.linalg.norm(tv - v * dec.eigenvalues, axis=0)) <= 1e-8 * norm1
    gram = (ef * m[:, None]).T @ ef
    assert np.max(np.abs(gram - np.eye(w.size))) <= 1e-8

    even = np.all(ef == ef[::-1], axis=0)
    odd = np.all(ef == -ef[::-1], axis=0)
    assert np.all(even | odd) and even[0]
    assert w.size < 2 or odd[1]


def assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


@pytest.mark.parametrize("family", ["mu_a", "cauchy", "ou"])
@pytest.mark.parametrize("n_points", [3, 4, 5, 801])
def test_eigh_tridiagonal_is_scipys_bit_for_bit(family, n_points):
    # heatlab's LAPACK shim against scipy.linalg.eigh_tridiagonal on a
    # palindromic operator, on each of its parity blocks and on both in one
    # matrix, and on sizes 1, 2 and 3 (the 1 x 1 quick exit taken and, with
    # its one eigenvalue out of range, refused): every mode, and by value on
    # ranges that keep all, some and none of the modes
    model = _family(family, 1.5)
    op = hl.discretize(model, hl.make_grid(model, n_points))
    d, e = hl.spectral._parity_blocks(op.sym_diag, op.sym_offdiag)
    size = (n_points + 1) // 2
    cut = hl.spectral._CUTOFF_EXPONENT / 0.25
    for dd, ee in ((op.sym_diag, op.sym_offdiag), (d, e), (d[:size], e[:size - 1]), (d[size:], e[size:]),
                   (d[:1], e[:0]), (d[:2], e[:1]), (d[:3], e[:2])):
        assert_same_bits(hl.spectral.eigh_tridiagonal(dd, ee), eigh_tridiagonal(dd, ee))
        for select_range in ((-math.inf, math.inf), (-math.inf, cut), (-math.inf, float(np.median(dd))),
                             (-math.inf, -1.0)):
            assert_same_bits(hl.spectral.eigh_tridiagonal(dd, ee, *select_range),
                             eigh_tridiagonal(dd, ee, select="v", select_range=select_range))


@pytest.mark.parametrize("where", ["d", "e"])
def test_eigh_tridiagonal_refuses_what_scipy_refused(mua_setup, where):
    # an inf survives eigendecompose's palindrome check (inf == inf); the
    # shim refuses it, and a d one entry short, as scipy's checks did
    op = mua_setup[1]
    d, e = op.sym_diag.copy(), op.sym_offdiag.copy()
    (d if where == "d" else e)[[0, -1]] = math.inf
    for refuse in (lambda: eigh_tridiagonal(d, e), lambda: hl.spectral.eigh_tridiagonal(d, e),
                   lambda: eigh_tridiagonal(d, e, select="v", select_range=(-math.inf, 1.0)),
                   lambda: hl.spectral.eigh_tridiagonal(d, e, -math.inf, 1.0),
                   lambda: hl.eigendecompose(dataclasses.replace(op, sym_diag=d, sym_offdiag=e))):
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            refuse()
    short = r"^need 1-D d and e with one more entry in d, got shapes \(799,\) and \(799,\)$"
    with pytest.raises(ValueError, match=short):
        hl.spectral.eigh_tridiagonal(op.sym_diag[1:], op.sym_offdiag)


@pytest.mark.parametrize("info, error, message", [
    (-2, ValueError, r"^illegal value in argument 2 of LAPACK dstevd$"),
    (3, hl.NumericError, r"^tridiagonal eigensolver failed: LAPACK dstevd did not converge \(info = 3\)$"),
])
def test_lapack_info_is_checked(mua_setup, monkeypatch, info, error, message):
    # dstevd's info as scipy's check read it: a bad argument is a ValueError,
    # no convergence a LinAlgError, which eigendecompose reports as numeric
    flapack = hl.spectral._flapack

    def dstevd(d, e, compute_v):
        return (*flapack.dstevd(d, e, compute_v=compute_v)[:2], info)

    monkeypatch.setattr(hl.spectral, "_flapack", types.SimpleNamespace(dstevd=dstevd))
    with pytest.raises(error, match=message):
        hl.eigendecompose(mua_setup[1])


def test_grid_masses(ou_setup, mua_setup):
    for grid, _, _ in (ou_setup, mua_setup):
        assert np.all(np.diff(grid.points) > 0)
        total = grid.node_masses.sum()
        assert 1.0 - hl.TAIL_TOL <= total <= 1.0 + 1e-8


@pytest.mark.parametrize("family", ["mu_a", "cauchy", "ou"])
@pytest.mark.parametrize("n_points", [3, 4, 5, 800, 801, 1600, 3200])
def test_grid_is_mirror_exact(family, n_points):
    model = _family(family, 1.5)
    grid = hl.make_grid(model, n_points)
    x, half = grid.points, n_points // 2
    ref = np.linspace(-grid.radius, grid.radius, n_points)
    # the lower half and h keep the bits of linspace; the rest is mirrored
    assert np.array_equal(x[:half], ref[:half]) and grid.spacing == ref[1] - ref[0]
    assert np.array_equal(x, -x[::-1]) and (n_points % 2 == 0 or x[half] == 0.0)
    op = hl.discretize(model, grid)
    for palindrome in (grid.node_masses, op.midpoint_weights, op.sym_diag, op.sym_offdiag):
        assert np.array_equal(palindrome, palindrome[::-1])


@pytest.mark.parametrize("n_points", [3, 4, 5, 6, 800, 801])
def test_parity_split_small_and_odd_grids(n_points, monkeypatch):
    monkeypatch.setattr(hl.spectral, "_PARTIAL_MAX_FRAC", 1.0)
    for family in ("mu_a", "cauchy", "ou"):
        model = _family(family, 1.5)
        op = hl.discretize(model, hl.make_grid(model, n_points))
        for t_first in (None, 0.25):
            assert_parity_split(op, hl.eigendecompose(op, t_first=t_first))


def test_parity_split_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(deadline=None, max_examples=25)
    @hypothesis.given(st.sampled_from(["mu_a", "cauchy", "ou"]),
                      st.floats(1.0, 3.0, exclude_min=True, exclude_max=True),
                      st.integers(3, 2000), st.sampled_from([None, 0.25, 1.0]))
    def check(family, a, n_points, t_first):
        model = _family(family, a)
        op = hl.discretize(model, hl.make_grid(model, n_points))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hl.spectral, "_PARTIAL_MAX_FRAC", 1.0)
            dec = hl.eigendecompose(op, t_first=t_first)
        assert_parity_split(op, dec)
        if t_first is None and n_points > 25:
            assert_one_call_bits(op, dec)

    check()


@pytest.mark.parametrize("family", ["mu_a", "cauchy", "ou"])
@pytest.mark.parametrize("n_points", [3, 4, 5, 6, 300, 800, 801, 1600])
def test_full_solve_matches_one_call_bit_for_bit(family, n_points):
    # up to 25 nodes a column may have the other sign or an exact tie the
    # other order (see test_small_full_solve_matches_one_call); every entry
    # is still the one call's bit for bit
    model = _family(family, 1.5)
    op = hl.discretize(model, hl.make_grid(model, n_points))
    check = assert_one_call_bits if n_points > 25 else assert_one_call_bits_up_to_sign
    check(op, hl.eigendecompose(op))


@pytest.mark.parametrize("n_points", range(3, 26))
def test_small_full_solve_matches_one_call(n_points):
    # up to 25 nodes LAPACK's dstedc solves one call on both blocks in one
    # QL/QR pass, so a column of the two calls may have the other sign or an
    # exact even/odd tie the other order (76 of these 138 grids differ so; 31
    # have a tie).
    # The eigenvalues stay bit for bit.  A kernel entry then sums the same
    # terms in another order, so it moves by at most n eps times the sum of
    # their moduli, which Cauchy-Schwarz bounds by sqrt(p(x_i,x_i) p(x_j,x_j));
    # at most 0.61 eps of that scale is measured
    for family, a in (("mu_a", 1.5), ("mu_a", 1.9), ("mu_a", 2.5), ("cauchy", 2.0), ("cauchy", 1.01), ("ou", None)):
        model = _family(family, a)
        op = hl.discretize(model, hl.make_grid(model, n_points))
        dec = hl.eigendecompose(op)
        w, ef = _one_call_solve(op)
        assert np.array_equal(dec.eigenvalues, w) and np.array_equal(np.signbit(dec.eigenvalues), np.signbit(w))
        one = hl.SpectralDecomposition(w, ef, dec.grid, dec.t_min, dec.tail_rate)
        got, want = hl.kernel_matrix(dec, 0.25), hl.kernel_matrix(one, 0.25)
        scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
        assert np.all(np.abs(got - want) <= n_points * np.finfo(float).eps * scale), (family, a)


@pytest.mark.parametrize("model, n_points", [
    (hl.make_mu_a(1.9, 20.0), 1601), (hl.make_ou(8.0), 800),
], ids=["mu_a1.9-R20-n1601", "ou-n800"])
def test_full_solve_keeps_ties_and_signed_zeros(model, n_points):
    # exact even/odd eigenvalue ties at the top of both spectra, and at
    # a = 1.9, R = 20 eigenfunction entries that are exactly zero
    op = hl.discretize(model, hl.make_grid(model, n_points))
    dec = hl.eigendecompose(op)
    assert np.any(np.diff(dec.eigenvalues) == 0)
    assert n_points % 2 == 0 or np.sum(dec.eigenfunctions[n_points // 2 + 1:] == 0) > 1000
    assert_one_call_bits(op, dec)


def test_full_solve_zero_signs_follow_the_one_call_sums(monkeypatch):
    # one call leaves +0.0 off each block, so (even + odd) * scale makes an
    # upper zero +0.0, and (even - odd) * scale keeps the sign of an even
    # mode's lower zero but makes an odd mode's +0.0; here each block's
    # LAPACK output has its exact zeros turned into -0.0
    def negative_zeros(d, e):
        w, v = eigh_tridiagonal(d, e)
        v[v == 0.0] = -0.0
        return w, v

    monkeypatch.setattr(hl.spectral, "eigh_tridiagonal", negative_zeros)
    model = hl.make_mu_a(1.9, 20.0)
    ef = hl.eigendecompose(hl.discretize(model, hl.make_grid(model, 1600))).eigenfunctions
    even = np.all(ef == ef[::-1], axis=0)
    upper, lower = ef[800:], ef[:800]
    assert not np.any(np.signbit(upper[upper == 0.0]))
    assert np.all(np.signbit(lower[:, even][lower[:, even] == 0.0]))
    assert not np.any(np.signbit(lower[:, ~even][lower[:, ~even] == 0.0]))
    assert min(np.sum(upper == 0.0), np.sum(lower[:, even] == 0.0), np.sum(lower[:, ~even] == 0.0)) > 1000


def test_stable_merge_is_dstedc_selection_sort(rng):
    # the order eigendecompose gives the eigenvalues of the two blocks is
    # that of dstedc's final sort of one call on both: swap the first least
    # remaining entry into place, which for two strictly increasing runs,
    # ties between the runs included, is a stable sort
    def selection_sort(w):
        d, order = list(w), list(range(len(w)))
        for i in range(len(d) - 1):
            k = min(range(i, len(d)), key=d.__getitem__)
            d[i], d[k], order[i], order[k] = d[k], d[i], order[k], order[i]
        return order

    for _ in range(300):
        w = np.concatenate([np.unique(rng.integers(0, 8, rng.integers(1, 9))).astype(float) for _ in range(2)])
        assert np.argsort(w, kind="stable").tolist() == selection_sort(w)


def test_table_size_cap(mua_model, monkeypatch):
    # the n x k eigenfunction table may take _TABLE_MAX_BYTES, not a byte
    # more, whether k = n (a full solve) or k is the Sturm count of a
    # truncated one
    monkeypatch.setattr(hl.spectral, "_TABLE_MAX_BYTES", 8 * 300 * 300)
    monkeypatch.setattr(hl.spectral, "_PARTIAL_MAX_FRAC", 1.0)
    assert hl.eigendecompose(hl.discretize(mua_model, hl.make_grid(mua_model, 300))).eigenvalues.size == 300
    op = hl.discretize(mua_model, hl.make_grid(mua_model, 301))
    with pytest.raises(hl.NumericError, match=r"^an eigensolve keeping 301 of n = 301 modes needs a 724808-byte "
                                              r"eigenfunction table \(n k doubles\), over the 720000-byte cap$"):
        hl.eigendecompose(op)
    k = hl.eigendecompose(op, t_first=0.25).eigenvalues.size
    assert k < 301
    monkeypatch.setattr(hl.spectral, "_TABLE_MAX_BYTES", 8 * 301 * k)
    assert hl.eigendecompose(op, t_first=0.25).eigenvalues.size == k
    monkeypatch.setattr(hl.spectral, "_TABLE_MAX_BYTES", 8 * 301 * k - 1)
    with pytest.raises(hl.NumericError, match=rf"^an eigensolve keeping {k} of n = 301 modes needs a "
                                              rf"{8 * 301 * k}-byte eigenfunction table"):
        hl.eigendecompose(op, t_first=0.25)


@pytest.mark.parametrize("name, moved, first", [("sym_diag", 3, 3), ("sym_offdiag", -4, 3)],
                         ids=["sym_diag", "sym_offdiag"])
def test_non_palindromic_operator_is_refused(mua_setup, monkeypatch, name, moved, first):
    # one entry moved by 1 ulp, in the lower or the upper half: the message
    # names the first entry that differs from its mirror, for a full and a
    # truncated solve alike
    grid, op, _ = mua_setup
    entries = getattr(op, name).copy()
    entries[moved] = np.nextafter(entries[moved], np.inf)
    skew = dataclasses.replace(op, **{name: entries})
    mirror = entries.size - 1 - first
    message = (f"eigendecompose needs a palindromic operator: {name}[{first}] = {entries[first]!r} differs "
               f"from its mirror {name}[{mirror}] = {entries[mirror]!r}")
    monkeypatch.setattr(hl.spectral, "_PARTIAL_MAX_FRAC", 1.0)
    for t_first in (None, 0.25):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hl.eigendecompose(skew, t_first=t_first)


def test_eigendecompose_memory(mua_model, mua_setup, ou_fine_setup):
    # full: the n x n table and the two half-size LAPACK outputs, 1.5 n^2
    # doubles (29.4 MiB at n = 1600; one call on both blocks took 39.3 MiB);
    # truncated: two n x k arrays, the by-value solve's own peak: the shim's
    # eigh_tridiagonal with a range alone peaks at 2.03 x 8nk (mu_a, n = 3200,
    # k = 76), as its v[:, order] copies dstein's output to reorder the
    # columns from block order, as scipy's eigh_tridiagonal did.  So an
    # in-place _unfold could not lower the bound, and placing the columns by
    # parity, as _solve_parity_blocks does, would add a half-size copy of v
    # above it; plus O(n) vectors and numpy's iteration buffers
    big = hl.discretize(mua_model, hl.make_grid(mua_model, 3200))
    for op, t_first in ((mua_setup[1], None), (ou_fine_setup[1], None), (big, 0.25)):
        tracemalloc.start()
        try:
            dec = hl.eigendecompose(op, t_first=t_first)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, k = dec.eigenfunctions.shape
        assert k < n or t_first is None
        assert peak <= 8 * ((1.5 * n * n if t_first is None else 2 * n * k) + 16 * n) + 2 ** 19


def test_grid_validation(ou_model):
    with pytest.raises(ValueError):
        hl.make_grid(ou_model, 2)


def test_dirichlet_energy_basics(ou_setup, rng):
    grid, op, _ = ou_setup
    const = np.ones(grid.n_points)
    assert hl.dirichlet_energy(const, op) == 0.0
    # E(x, x) = int 1 dgamma = 1
    assert hl.dirichlet_energy(grid.points, op) == pytest.approx(1.0, abs=1e-2)
    for _ in range(50):
        f = rng.normal(size=grid.n_points)
        assert hl.dirichlet_energy(f, op) >= 0.0
    with pytest.raises(ValueError):
        hl.dirichlet_energy(np.ones(5), op)


def test_form_annihilates_constants(ou_setup):
    # row sums of the form matrix vanish: S (sqrt masses) ~ 0
    grid, op, _ = ou_setup
    w = np.sqrt(grid.node_masses)
    sw = op.sym_diag * w
    sw[:-1] += op.sym_offdiag * w[1:]
    sw[1:] += op.sym_offdiag * w[:-1]
    assert np.max(np.abs(sw)) < 1e-8


def test_ou_spectrum(ou_setup):
    _, _, dec = ou_setup
    lam = dec.eigenvalues
    assert np.max(np.abs(lam[:6] - np.arange(6))) < 1e-2
    assert abs(lam[0]) <= 1e-8
    assert np.all(np.diff(lam) >= 0.0)
    assert np.all(lam >= -1e-8)
    e0 = dec.eigenfunctions[:, 0]
    assert np.ptp(e0) <= 1e-6 * abs(e0.mean())


def test_eigenvector_orthonormality(mua_setup):
    grid, _, dec = mua_setup
    gram = (dec.eigenfunctions * grid.node_masses[:, None]).T @ dec.eigenfunctions
    assert np.max(np.abs(gram - np.eye(grid.n_points))) <= 1e-8


def test_spectral_convergence_under_refinement(ou_model, mua_model, ou_setup, mua_setup):
    for model, (_, _, dec) in ((ou_model, ou_setup), (mua_model, mua_setup)):
        fine = hl.eigendecompose(hl.discretize(model, hl.make_grid(model, 1600)))
        coarse_lam = dec.eigenvalues[1:6]
        fine_lam = fine.eigenvalues[1:6]
        assert np.max(np.abs(coarse_lam - fine_lam) / fine_lam) < 1e-3


def test_kernel_row_stochasticity(ou_setup, mua_setup):
    for _, _, dec in (ou_setup, mua_setup):
        for t in (0.25, 0.5, 1.0):
            assert hl.stochasticity_defect(dec, t) < 1e-6


def test_kernel_matches_mehler(ou_setup):
    grid, _, dec = ou_setup
    idx = hl.bulk_indices(grid, 2.0)
    x = grid.points
    p = hl.kernel_matrix(dec, 0.5)[np.ix_(idx, idx)]
    exact = hl.mehler_kernel(0.5, x[idx][:, None], x[idx][None, :])
    assert np.max(np.abs(p - exact) / exact) < 1e-2


def test_kernel_symmetry_and_positivity(mua_setup):
    grid, _, dec = mua_setup
    idx = hl.bulk_indices(grid)
    for t in (1e-3, 0.25, 1.0):
        p = hl.kernel_matrix(dec, t)
        assert np.array_equal(p, p.T)
        assert p[np.ix_(idx, idx)].min() >= -1e-8
    i, j = idx[0], idx[-1]
    block = hl.kernel_matrix(dec, 0.5, [i, j])
    assert block[0, 1] == block[1, 0]


def test_kernel_matrix_sub_block(ou_setup, mua_setup):
    rng = np.random.default_rng(5)
    for grid, _, dec in (ou_setup, mua_setup):
        nodes = [hl.bulk_indices(grid), rng.choice(grid.n_points, 37, replace=False)]
        for t in (1e-3, 0.25, 1.0):
            full = hl.kernel_matrix(dec, t)
            for idx in nodes:
                block = hl.kernel_matrix(dec, t, idx)
                assert np.array_equal(block, block.T)
                ref = full[np.ix_(idx, idx)]
                assert np.max(np.abs(block - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_kernel_ergodic_limit(mua_setup):
    grid, _, dec = mua_setup
    idx = hl.bulk_indices(grid, 2.0)
    p = hl.kernel_matrix(dec, 10.0)[np.ix_(idx, idx)]
    dev = np.max(np.abs(p - 1.0))
    assert dev < 1e-4
    # derived bound from the measured spectral gap
    lam1 = dec.eigenvalues[1]
    e1max = np.max(np.abs(dec.eigenfunctions[idx, 1]))
    assert dev <= 1.1 * math.exp(-10.0 * lam1) * e1max ** 2


def test_kernel_time_floor(mua_setup):
    _, _, dec = mua_setup
    with pytest.raises(ValueError):
        hl.kernel_matrix(dec, 1e-4)
    with pytest.raises(ValueError):
        hl.kernel_matrix(dec, 5e-4, [0, 0])
    with pytest.raises(ValueError):
        hl.trace(dec, 1e-4)
    with pytest.raises(ValueError):
        hl.chapman_kolmogorov_residual(dec, 1e-4, 0.5)


def test_chapman_kolmogorov(ou_setup, mua_setup):
    _, _, ou_dec = ou_setup
    _, _, mua_dec = mua_setup
    assert hl.chapman_kolmogorov_residual(mua_dec, 0.5, 0.5) < 1e-6
    assert hl.chapman_kolmogorov_residual(ou_dec, 0.25, 0.25) < 1e-6


def test_apply_semigroup(mua_setup, rng):
    grid, _, dec = mua_setup
    ones = np.ones(grid.n_points)
    assert np.max(np.abs(hl.apply_semigroup(dec, ones, 0.7) - 1.0)) < 1e-10

    f = hl.gaussian_bump_family(grid, 1, rng)[0]
    norms = [hl.l2_norm(hl.apply_semigroup(dec, f, t), grid) for t in np.arange(0.0, 1.01, 0.1)]
    assert np.all(np.diff(norms) <= 1e-12)

    mean = np.sum(grid.node_masses * f)
    assert np.max(np.abs(hl.apply_semigroup(dec, f, 60.0) - mean)) < 1e-6

    roundtrip = hl.apply_semigroup(dec, f, 0.0)
    assert hl.l2_norm(roundtrip - f, grid) < 1e-8

    with pytest.raises(ValueError):
        hl.apply_semigroup(dec, f, -0.1)


def test_log_convexity_of_l2_decay(mua_setup, rng):
    grid, _, dec = mua_setup
    fam = hl.gaussian_bump_family(grid, 20, rng)
    ts = np.linspace(0.05, 1.0, 10)
    for f in fam:
        h = np.array([hl.l2_norm(hl.apply_semigroup(dec, f, t), grid) ** 2 for t in ts])
        assert np.min(np.diff(np.log(h), 2)) >= -1e-8


def test_trace_identities(ou_setup, mua_setup):
    _, _, ou_dec = ou_setup
    geometric = 1.0 / (1.0 - math.exp(-1.0))
    assert hl.trace(ou_dec, 1.0) == pytest.approx(geometric, abs=2e-2)

    grid, _, dec = mua_setup
    for t in (0.25, 0.5, 1.0):
        assert abs(hl.trace(dec, 2.0 * t) - hl.diagonal_trace_quadrature(dec, 2.0 * t)) <= 1e-8
    # brute-force double quadrature of p_t^2
    t = 0.5
    p = hl.kernel_matrix(dec, t)
    m = grid.node_masses
    double = float(np.sum(m[:, None] * m[None, :] * p * p))
    assert double == pytest.approx(hl.trace(dec, 2.0 * t), rel=1e-4)


def test_norms(mua_setup, mua_model, rng):
    grid, op, _ = mua_setup
    ones = np.ones(grid.n_points)
    assert hl.l2_norm(ones, grid) == pytest.approx(1.0, abs=1e-9)
    f = hl.gaussian_bump_family(grid, 1, rng)[0]
    assert hl.weighted_l1(f, hl.unit_weight(), grid) == pytest.approx(
        float(np.sum(grid.node_masses * np.abs(f))), rel=1e-14
    )
    # refinement oracle for the quadrature norms
    fine_grid = hl.make_grid(mua_model, 2 * grid.n_points)
    w = np.exp(-((fine_grid.points - 0.7) ** 2))
    coarse = hl.l2_norm(np.exp(-((grid.points - 0.7) ** 2)), grid)
    fine = hl.l2_norm(w, fine_grid)
    assert coarse == pytest.approx(fine, rel=1e-4)
    with pytest.raises(ValueError):
        hl.l2_norm(np.ones(7), grid)


def test_norm_helpers_take_stacks(mua_setup, rng):
    # a (..., n) stack gives one value per row, equal to the per-row call up
    # to the BLAS summation order of the matrix-vector product
    grid, op, _ = mua_setup
    weight = hl.weight_mu_a(1.5, 1.0)
    bumps = hl.gaussian_bump_family(grid, 12, rng).reshape(3, 4, grid.n_points)
    stack = bumps * rng.standard_normal((3, 4, 1))
    for norm, args in ((hl.l2_norm, (grid,)), (hl.weighted_l1, (weight, grid)),
                       (hl.dirichlet_energy, (op,))):
        values = norm(stack, *args)
        per_row = np.array([[norm(f, *args) for f in block] for block in stack])
        assert values.shape == (3, 4)
        assert isinstance(norm(stack[0, 0], *args), float)
        assert np.allclose(values, per_row, rtol=4 * np.finfo(float).eps, atol=0.0), norm.__name__
    assert np.array_equal(hl.dirichlet_energy(stack, op), per_row)
    with pytest.raises(ValueError):
        hl.weighted_l1(stack[..., :-1], weight, grid)


def test_ground_state_transform(mua_model, mua_setup):
    grid, _, _ = mua_setup
    zero = np.zeros(grid.n_points)
    assert hl.ground_state_transform_residual(mua_model, zero, grid) == 0.0

    g = np.exp(-grid.points ** 2 / (2 * 1.2 ** 2))
    res = hl.ground_state_transform_residual(mua_model, g, grid)
    assert res < 1e-5

    fine = hl.make_grid(mua_model, 2 * grid.n_points - 1)  # exactly halves h
    g2 = np.exp(-fine.points ** 2 / (2 * 1.2 ** 2))
    res2 = hl.ground_state_transform_residual(mua_model, g2, fine)
    assert 3.3 < res / res2 < 4.7

    bad = np.ones(grid.n_points)
    with pytest.raises(ValueError):
        hl.ground_state_transform_residual(mua_model, bad, grid)


def test_gaussian_bump_family_determinism(mua_setup):
    grid, _, _ = mua_setup
    a = hl.gaussian_bump_family(grid, 5, np.random.default_rng(42))
    b = hl.gaussian_bump_family(grid, 5, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert a.shape == (5, grid.n_points)


def test_bump_rows_keep_their_one_expression_values(mua_setup):
    # built in place block by block, the rows equal the one-expression bumps
    # of the same draws, bit for bit
    grid, _, _ = mua_setup
    count = 2 * hl.spectral._FAMILY_ROWS + 3
    fam = hl.gaussian_bump_family(grid, count, np.random.default_rng(9))
    draw = np.random.default_rng(9)
    c = draw.uniform(-0.5 * grid.radius, 0.5 * grid.radius, count)
    w = np.exp(draw.uniform(np.log(0.2), np.log(2.0), count))
    assert np.array_equal(fam, np.exp(-((grid.points[None, :] - c[:, None]) ** 2) / (2.0 * w[:, None] ** 2)))


def test_heldout_family_follows_unbuilt_training_draws(mua_setup):
    # the blocks draw every center and width at the call, so a training family
    # whose rows are never built leaves the held-out family unchanged
    grid, _, _ = mua_setup
    rng = np.random.default_rng(3)
    hl.gaussian_bump_blocks(grid, 200, rng)
    lazy = hl.gaussian_bump_family(grid, 200, rng)
    rng = np.random.default_rng(3)
    hl.gaussian_bump_family(grid, 200, rng)
    assert np.array_equal(hl.gaussian_bump_family(grid, 200, rng), lazy)


@pytest.mark.parametrize("count", [1, hl.spectral._FAMILY_ROWS, hl.spectral._FAMILY_ROWS + 1, 200])
def test_blocked_family_pass_is_exact(mua_model, count):
    # one pass over the streamed blocks gives the quotients, norms and
    # coefficients of the whole-array functions, bit for bit, a short last
    # block included
    grid = hl.make_grid(mua_model, 3200)
    op = hl.discretize(mua_model, grid)
    dec = hl.eigendecompose(op, t_first=0.25)
    weight = hl.weight_mu_a(1.5, 1.0)
    times = (0.25, 0.5, 1.0)
    blocks = list(hl.gaussian_bump_blocks(grid, count, np.random.default_rng(count)))
    fam = hl.gaussian_bump_family(grid, count, np.random.default_rng(count))
    assert max(len(b) for b in blocks) <= hl.spectral._FAMILY_ROWS
    assert np.array_equal(np.concatenate(blocks), fam)
    norms = hl.family_norms(iter(blocks), weight, op, dec)
    assert np.array_equal(norms.l1w, hl.weighted_l1(fam, weight, grid))
    assert np.array_equal(np.sqrt(norms.l2sq), hl.l2_norm(fam, grid))
    assert np.array_equal(norms.energy, hl.dirichlet_energy(fam, op))
    assert np.array_equal(norms.coefficients, hl.family_norms(fam, weight, op, dec).coefficients)
    assert norms.coefficients.shape == (count, dec.eigenvalues.size)
    assert np.array_equal(hl.semigroup_norms(dec, norms, times), hl.semigroup_norms(dec, fam, times))
    for blocked, whole in zip(hl.nash_quotients(norms, weight, op), hl.nash_quotients(fam, weight, op)):
        assert np.array_equal(blocked, whole)
    assert hl.family_norms(fam, weight, op, None).coefficients is None


def _truncated(op, t_first, monkeypatch):
    # take the subset solve whatever fraction of the modes it keeps, so the
    # certificate is tested on every model, not only where it pays off
    monkeypatch.setattr(hl.spectral, "_PARTIAL_MAX_FRAC", 1.0)
    return hl.eigendecompose(op, t_first=t_first)


def test_sturm_count_matches_eigenvalues(mua_setup, ou_fine_setup):
    for _, op, dec in (mua_setup, ou_fine_setup):
        lam = dec.eigenvalues
        for x in (-1.0, 0.5 * (lam[0] + lam[1]), 10.0, 144.0, 1e4, 2.0 * lam[-1]):
            assert hl.spectral._sturm_count(op.sym_diag, op.sym_offdiag, x) == np.sum(lam < x)


def test_truncated_tail_certificate(mua_setup, ou_fine_setup, monkeypatch):
    """The certified tail dominates what the dropped modes add, and the
    truncated sums match the full ones up to tail plus solver rounding."""
    eps = np.finfo(float).eps
    for grid, op, full in (mua_setup, ou_fine_setup):
        part = _truncated(op, 0.25, monkeypatch)
        n, k = grid.n_points, part.eigenvalues.size
        assert 1 <= k < n / 4
        assert part.tail_rate == 52.0 * math.log(2.0) / 0.25 and part.t_min == 0.25
        assert full.eigenvalues[k - 1] <= part.tail_rate < full.eigenvalues[k]

        m = grid.node_masses
        inv_sqrt = 1.0 / np.sqrt(np.outer(m, m))
        norm_t = np.max(np.abs(op.sym_diag)) + 2.0 * np.max(np.abs(op.sym_offdiag))
        f = hl.gaussian_bump_family(grid, 20, np.random.default_rng(7))
        f_norm = np.sqrt((f * f) @ m)
        ef_drop = full.eigenfunctions[:, k:]
        for t in (0.25, 1.0):
            # exactly what the dropped modes contribute, from the full eigenbasis
            decay = np.exp(-full.eigenvalues[k:] * t)
            tail = hl.kernel_tail(part, t)
            assert np.all(np.abs((ef_drop * decay) @ ef_drop.T) <= tail)
            assert np.sum(decay) <= hl.trace_tail(part, t)
            pf_drop = ((f * m) @ ef_drop * decay) @ ef_drop.T
            assert np.all(np.sqrt((pf_drop * pf_drop) @ m) <= part.tail(t) * f_norm)

            # full vs truncated: the tail plus the eigensolvers' rounding,
            # eps ||T|| per eigenpair (it exceeds the tail at t = t_first)
            diff = np.abs(hl.kernel_matrix(full, t) - hl.kernel_matrix(part, t))
            assert np.all(diff <= tail + eps * norm_t * inv_sqrt)
            tr_diff = abs(hl.trace(full, t) - hl.trace(part, t))
            assert tr_diff <= hl.trace_tail(part, t) + k * eps * norm_t
            pf_diff = hl.apply_semigroup(full, f, t) - hl.apply_semigroup(part, f, t)
            pf_bound = (part.tail(t) + math.sqrt(k) * eps * norm_t) * f_norm
            assert np.all(np.sqrt((pf_diff * pf_diff) @ m) <= pf_bound)


def test_truncated_refuses_times_below_t_first(ou_fine_setup):
    grid, op, _ = ou_fine_setup
    part = hl.eigendecompose(op, t_first=0.25)
    assert math.isfinite(part.tail_rate)
    f = np.ones(grid.n_points)
    for t in (0.0, 1e-3, 0.2):
        with pytest.raises(ValueError):
            hl.kernel_matrix(part, t)
        with pytest.raises(ValueError):
            hl.apply_semigroup(part, f, t)
    assert np.max(np.abs(hl.apply_semigroup(part, f, 0.25) - 1.0)) < 1e-10
    with pytest.raises(ValueError):
        hl.eigendecompose(op, t_first=0.0)


def test_full_solve_fallback_is_bit_identical(mua_setup, ou_fine_setup):
    for grid, op, _ in (mua_setup, ou_fine_setup):
        full = hl.eigendecompose(op)
        # t_first = 1e-3 keeps more than the subset threshold of the modes
        for dec in (full, hl.eigendecompose(op, t_first=1e-3)):
            assert np.array_equal(dec.eigenvalues, full.eigenvalues)
            assert np.array_equal(dec.eigenfunctions, full.eigenfunctions)
            assert dec.tail_rate == math.inf and dec.t_min == hl.DEFAULT_T_MIN
            assert dec.tail(0.0) == 0.0 and hl.trace_tail(dec, 1.0) == 0.0
            assert not np.any(hl.kernel_tail(dec, 1.0, [0, 1], slice(None)))


def test_apply_semigroup_on_stacks(mua_setup, ou_fine_setup, rng):
    for grid, op, full in (mua_setup, ou_fine_setup):
        part = hl.eigendecompose(op, t_first=0.25)
        fam = hl.gaussian_bump_family(grid, 12, rng).reshape(3, 4, grid.n_points)
        for dec in (full, part):
            for t in (0.25, 1.0):
                batched = hl.apply_semigroup(dec, fam, t)
                assert batched.shape == fam.shape
                rows = np.array([[hl.apply_semigroup(dec, f, t) for f in grp] for grp in fam])
                # in L2(mu): edge nodes amplify the GEMM/GEMV summation-order
                # difference by 1/sqrt(m_i), as they do all eigenbasis rounding
                diff = batched - rows
                m = grid.node_masses
                assert np.all(np.sqrt((diff * diff) @ m) <= 1e-13 * np.sqrt((fam * fam) @ m))
    with pytest.raises(ValueError):
        hl.apply_semigroup(full, np.ones((3, 7)), 0.5)


def test_kernel_matrix_rectangular_blocks(mua_setup, ou_fine_setup):
    for grid, op, full in (mua_setup, ou_fine_setup):
        part = hl.eigendecompose(op, t_first=0.25)
        rows = np.arange(5, 40, 3)
        for dec in (full, part):
            table = hl.kernel_matrix(dec, 0.5)
            block = hl.kernel_matrix(dec, 0.5, rows, slice(None))
            assert block.shape == (rows.size, grid.n_points)
            assert np.max(np.abs(block - table[rows])) <= 1e-13 * np.max(np.abs(table))
            cols = hl.kernel_matrix(dec, 0.5, None, rows)
            assert np.max(np.abs(cols - table[:, rows])) <= 1e-13 * np.max(np.abs(table))
            tail = hl.kernel_tail(dec, 0.5, rows, slice(None))
            assert np.array_equal(tail, hl.kernel_tail(dec, 0.5)[rows])


def test_kernel_diagonal(mua_setup, ou_fine_setup, monkeypatch):
    for grid, op, full in (mua_setup, ou_fine_setup):
        part = _truncated(op, 0.25, monkeypatch)
        for dec in (full, part):
            for t in (0.25, 1.0):
                diag = hl.kernel_diagonal(dec, t)
                table = np.diag(hl.kernel_matrix(dec, t))
                assert np.all(np.abs(diag - table) <= 1e-12 * table)
                # the quadrature keeps its formula, bit for bit
                ef, w = dec.eigenfunctions, np.exp(-dec.eigenvalues * t)
                old = float(np.sum(grid.node_masses * np.einsum("ik,k,ik->i", ef, w, ef)))
                assert hl.diagonal_trace_quadrature(dec, t) == old
        with pytest.raises(ValueError):
            hl.kernel_diagonal(part, 0.2)


@pytest.mark.parametrize("n_points", [800, 3200])
def test_semigroup_norms_by_parseval(mua_model, n_points, monkeypatch):
    grid = hl.make_grid(mua_model, n_points)
    op = hl.discretize(mua_model, grid)
    fam = hl.gaussian_bump_family(grid, 40, np.random.default_rng(n_points))
    times = (0.25, 0.5, 1.0)
    full = hl.eigendecompose(op)
    part = _truncated(op, 0.25, monkeypatch)
    assert math.isinf(full.tail_rate) and math.isfinite(part.tail_rate)
    for dec in (full, part):
        norms = hl.semigroup_norms(dec, fam, times)
        assert norms.shape == (len(times), fam.shape[0])
        for t, norm in zip(times, norms):
            synthesized = hl.l2_norm(hl.apply_semigroup(dec, fam, t), grid)
            assert np.all(np.abs(norm - synthesized) <= 1e-13 * synthesized)
        single = hl.semigroup_norms(dec, fam[0], times)
        assert single.shape == (len(times),)
        assert np.allclose(single, norms[:, 0], rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        hl.semigroup_norms(part, fam, (0.2, 0.5))
    with pytest.raises(ValueError):
        hl.semigroup_norms(full, fam, (-1.0,))
