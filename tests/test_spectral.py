import dataclasses
import itertools
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import heatlab as hl
from conftest import apply_semigroup

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


def _l2(f, op):
    """||f||_2 of each row of f, from ``family_norms``."""
    return np.sqrt(hl.family_norms(f, hl.unit_weight(), op).l2sq)


def _raw_solve(op, dec):
    """The unfolded LAPACK call ``eigendecompose`` made before the parity
    split, for the same modes as ``dec``."""
    if math.isinf(dec.tail_rate):
        return eigh_tridiagonal(op.sym_diag, op.sym_offdiag)
    return eigh_tridiagonal(op.sym_diag, op.sym_offdiag, select="v", select_range=(-math.inf, dec.tail_rate))


def _one_call_solve(op, cut=math.inf):
    """The modes with lambda <= ``cut`` by one LAPACK call on both parity
    blocks (all by dstevd, or by value by dstebz and dstein), unfolded by
    (even + odd) * scale and (even - odd) * scale: the solves
    ``eigendecompose`` made before it called dstevd once per block and split
    the by-value call's columns by block.  A truncated set's exact ties are
    put even mode first, as dstevd puts them; scipy's unstable sort of the
    by-value columns may put the odd mode first."""
    m = op.grid.node_masses
    d, e = hl.spectral._parity_blocks(op.sym_diag, op.sym_offdiag)
    half, center = divmod(d.size, 2)
    if math.isinf(cut):
        w, v = eigh_tridiagonal(d, e)
    else:
        w, v = eigh_tridiagonal(d, e, select="v", select_range=(-math.inf, cut))
        order = np.lexsort((np.all(v[:half + center] == 0.0, axis=0), w))
        w, v = w[order], v[:, order]
    even, odd = v[center:half + center], v[half + center:]
    scale = (math.sqrt(0.5) / np.sqrt(m[half + center:]))[:, None]
    ef = np.empty_like(v)
    ef[half + center:] = (even + odd) * scale
    ef[half - 1::-1] = (even - odd) * scale
    if center:
        ef[half] = v[0] / math.sqrt(m[half])
    return w, ef


def _fold(ef):
    """(half table, odd flags) of an n x k table of exactly even or odd
    columns, whose ``SpectralDecomposition`` unfolds to ``ef`` up to the
    sign of an exact zero in the lower rows: the center row of an odd grid
    and the upper rows."""
    odd = np.all(ef == -ef[::-1], axis=0)
    return np.asfortranarray(ef[ef.shape[0] // 2:]), odd


def _table_values(w, ef, masses, t, nodes, rows, f):
    """What heatlab computed from an n x k table ``ef`` before it kept half
    of it: ``kernel_matrix`` at ``nodes``, at ``rows`` x all columns and on
    the whole grid, ``kernel_diagonal``, and P_t f by synthesis, as the
    tests' ``apply_semigroup`` makes it."""
    decay = np.exp(-w * t)

    def kernel(r, c):
        weighted = r * decay
        if c is not None:
            return weighted @ c.T
        raw = weighted @ r.T
        return 0.5 * (raw + raw.T)

    coeff = (f * masses) @ ef
    yield kernel(ef[nodes], None)
    yield kernel(ef[rows], ef)
    yield kernel(ef, None)
    yield np.einsum("ik,k,ik->i", ef, decay, ef)
    yield (coeff * decay) @ ef.T


def _dec_values(dec, t, nodes, rows, f):
    """The values of ``_table_values``, from ``dec`` by heatlab."""
    yield hl.kernel_matrix(dec, t, nodes)
    yield hl.kernel_matrix(dec, t, rows, slice(None))
    yield hl.kernel_matrix(dec, t)
    yield hl.kernel_diagonal(dec, t)
    yield apply_semigroup(dec, f, t)


def _plus_zero(values):
    """Each array plus 0.0, which makes every exact zero +0.0 and leaves
    every other bit: the one call and the half table may give a zero the
    other sign."""
    return [v + 0.0 for v in values]


def assert_one_call_bits(op, dec):
    """``dec`` holds the eigenvalues of ``_one_call_solve`` with its cut, bit
    for bit, and its eigenfunctions, bit for bit up to the sign of an exact
    zero, in a Fortran-ordered table; every gathered row is that table's
    row, signed zeros included; and every kernel, diagonal and semigroup
    value it gives is the one the one-call table gives, bit for bit up to
    the sign of an exact zero."""
    w, ef = _one_call_solve(op, dec.tail_rate)
    got_ef = dec.eigenfunctions
    assert_same_bits([dec.eigenvalues], [w])
    assert_same_bits(_plus_zero([got_ef]), _plus_zero([ef]))
    assert got_ef.flags.f_contiguous
    n, k = ef.shape
    assert dec.half_table.shape == ((n + 1) // 2, k) and dec.half_table.flags.f_contiguous
    # rows of both halves and the center, in no order; every third row
    nodes, rows = np.r_[n - 1, 0:n:5, n // 2], slice(1, n, 3)
    for some in (nodes, rows):
        got = hl.spectral._unfold(dec, some)
        assert_same_bits([got], [got_ef[some]])
        assert got.flags.f_contiguous if isinstance(some, slice) else got.flags.c_contiguous
    f = np.cos(np.outer([0.5, 1.0, 1.5], op.grid.points) + [[0.0], [1.0], [2.0]])
    assert_same_bits(_plus_zero(_dec_values(dec, dec.t_min, nodes, rows, f)),
                     _plus_zero(_table_values(w, ef, op.grid.node_masses, dec.t_min, nodes, rows, f)))


def assert_one_call_bits_up_to_sign(op, dec):
    """As ``assert_one_call_bits``, but each eigenfunction may be the one-call
    column of the same eigenvalue times -1 and exact ties may come in the
    other order: the freedom one QL/QR pass on both blocks has below
    ``dstedc``'s divide size.  The center of an odd grid is +0.0 in every
    odd mode."""
    w, ef = _one_call_solve(op)
    got = dec.eigenfunctions
    assert_same_bits([dec.eigenvalues], [w])
    n, half = w.size, w.size // 2
    unmatched = set(range(n))
    for j in range(n):
        col = got[:, j]
        if n % 2 and np.all(col == -col[::-1]):
            assert col[half] == 0.0 and not np.signbit(col[half])
        # == compares every bit but a zero's sign
        i = next(i for i in sorted(unmatched) if w[i] == w[j] for s in (1.0, -1.0)
                 if np.array_equal(col, s * ef[:, i]))
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
    # matrix, and on sizes 1, 2 and 3 (the 1 x 1 quick exit taken): every
    # mode; test_truncated_solve_matches_one_call_bit_for_bit covers the
    # by-value solve
    model = _family(family, 1.5)
    op = hl.discretize(model, hl.make_grid(model, n_points))
    d, e = hl.spectral._parity_blocks(op.sym_diag, op.sym_offdiag)
    size = (n_points + 1) // 2
    for dd, ee in ((op.sym_diag, op.sym_offdiag), (d, e), (d[:size], e[:size - 1]), (d[size:], e[size:]),
                   (d[:1], e[:0]), (d[:2], e[:1]), (d[:3], e[:2])):
        assert_same_bits(hl.spectral.eigh_tridiagonal(dd, ee), eigh_tridiagonal(dd, ee))


@pytest.mark.parametrize("where", ["d", "e"])
def test_eigh_tridiagonal_refuses_what_scipy_refused(mua_setup, monkeypatch, where):
    # eigendecompose refuses an inf, and a sym_diag one entry short, as
    # scipy's checks did, on entry: before the parity blocks, which the mode
    # count of a truncated solve reads
    def parity_blocks(*args):
        raise AssertionError("parity blocks of a refused operator")

    monkeypatch.setattr(hl.spectral, "_parity_blocks", parity_blocks)
    op = mua_setup[1]
    d, e = op.sym_diag.copy(), op.sym_offdiag.copy()
    (d if where == "d" else e)[[0, -1]] = math.inf
    bad = dataclasses.replace(op, sym_diag=d, sym_offdiag=e)
    short = dataclasses.replace(op, sym_diag=op.sym_diag[1:])
    for refuse in (lambda: eigh_tridiagonal(d, e),
                   lambda: eigh_tridiagonal(d, e, select="v", select_range=(-math.inf, 1.0)),
                   lambda: hl.eigendecompose(bad), lambda: hl.eigendecompose(bad, t_first=0.25)):
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            refuse()
    for t_first in (None, 0.25):
        with pytest.raises(ValueError, match=r"^need 1-D sym_diag and sym_offdiag with one more entry in "
                                             r"sym_diag, got shapes \(799,\) and \(799,\)$"):
            hl.eigendecompose(short, t_first=t_first)


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
        if t_first is not None or n_points > 25:
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


@pytest.mark.parametrize("family, n_points, t_first", [
    case for case in itertools.product(["mu_a", "cauchy", "ou"], [300, 800, 801, 3200], [0.25, 0.001])
    if case != ("cauchy", 3200, 0.001)
])
def test_truncated_solve_matches_one_call_bit_for_bit(family, n_points, t_first, monkeypatch):
    # every case by the truncated solve: 2-23% of the modes at t_first = 0.25
    # (Cauchy: 12-100%), 31-100% at 0.001.  Cauchy at n = 3200 and 0.001 is
    # left out: it keeps all 3200 modes, 8 s of inverse iteration per solve
    monkeypatch.setattr(hl.spectral, "_PARTIAL_MAX_FRAC", 1.0)
    model = _family(family, 1.5)
    op = hl.discretize(model, hl.make_grid(model, n_points))
    dec = hl.eigendecompose(op, t_first=t_first)
    assert not math.isinf(dec.tail_rate)
    assert_one_call_bits(op, dec)


@pytest.mark.parametrize("family, n_points, t_first", [("mu_a", 300, 0.01), ("ou", 26, 0.25)])
def test_truncated_solve_orders_ties_even_first(family, n_points, t_first, monkeypatch):
    # exact even/odd ties in a truncated set come even mode first, as in a
    # full solve: the stable merge of the blocks' modes in dstebz's block order
    monkeypatch.setattr(hl.spectral, "_PARTIAL_MAX_FRAC", 1.0)
    model = _family(family, 1.5)
    op = hl.discretize(model, hl.make_grid(model, n_points))
    dec = hl.eigendecompose(op, t_first=t_first)
    assert not math.isinf(dec.tail_rate) and np.any(np.diff(dec.eigenvalues) == 0)
    assert_one_call_bits(op, dec)


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
        one = hl.SpectralDecomposition(w, *_fold(ef), dec.grid, dec.t_min, dec.tail_rate)
        got, want = hl.kernel_matrix(dec, 0.25), hl.kernel_matrix(one, 0.25)
        scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
        assert np.all(np.abs(got - want) <= n_points * np.finfo(float).eps * scale), (family, a)


@pytest.mark.parametrize("model, n_points", [
    (hl.make_mu_a(1.9, 20.0), 1601), (hl.make_mu_a(1.9, 20.0), 1600), (hl.make_ou(8.0), 800),
], ids=["mu_a1.9-R20-n1601", "mu_a1.9-R20-n1600", "ou-n800"])
def test_full_solve_keeps_ties_and_signed_zeros(model, n_points):
    # exact even/odd eigenvalue ties at the top of both spectra, and at
    # a = 1.9, R = 20 eigenfunction entries that are exactly zero, whose
    # sign the one call may give the other way
    op = hl.discretize(model, hl.make_grid(model, n_points))
    dec = hl.eigendecompose(op)
    assert np.any(np.diff(dec.eigenvalues) == 0)
    assert n_points % 2 == 0 or np.sum(dec.eigenfunctions[n_points // 2 + 1:] == 0) > 1000
    assert_one_call_bits(op, dec)


def test_full_solve_zero_signs_follow_the_mirror_rule(monkeypatch):
    # a row x >= 0 is the half table's row as stored, and a lower row its
    # mirror row, times -1 in the odd modes, bit for bit, zeros included;
    # here each block's LAPACK output has its exact zeros turned into -0.0
    def negative_zeros(d, e):
        w, v = eigh_tridiagonal(d, e)
        v[v == 0.0] = -0.0
        return w, v

    monkeypatch.setattr(hl.spectral, "eigh_tridiagonal", negative_zeros)
    model = hl.make_mu_a(1.9, 20.0)
    dec = hl.eigendecompose(hl.discretize(model, hl.make_grid(model, 1600)))
    ef = dec.eigenfunctions
    sign = np.where(dec.odd, -1.0, 1.0)
    upper, lower = ef[800:], ef[:800]
    assert_same_bits([upper, lower], [dec.half_table, dec.half_table[::-1] * sign])
    # the rows kernel_matrix gathers carry the same signed zeros
    for rows in (np.arange(1600)[::-1], slice(None, None, 2)):
        assert_same_bits([hl.spectral._unfold(dec, rows)], [ef[rows]])
    assert np.all(np.signbit(upper[upper == 0.0]))
    assert np.all(np.signbit(lower[:, ~dec.odd][lower[:, ~dec.odd] == 0.0]))
    assert not np.any(np.signbit(lower[:, dec.odd][lower[:, dec.odd] == 0.0]))
    assert min(np.sum(upper == 0.0), np.sum(lower[:, ~dec.odd] == 0.0), np.sum(lower[:, dec.odd] == 0.0)) > 1000


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
    # more, whether k = n (a full solve) or k is the mode count of a
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
    # full: the two half-size LAPACK outputs and the ceil(n/2) x n half
    # table, n^2 doubles (19.7 MiB at n = 1600, where the n x n table
    # beside both outputs took 29.4 MiB); truncated: dstein's n x k output,
    # whose two parity halves are column views scaled in place, and the half
    # table: a traced peak of 1.66 x 8nk at mu_a, n = 3200, k = 76, the rest
    # the folded operator, dstebz's outputs and other O(n) vectors.  Either
    # way the decomposition keeps the half table, the eigenvalues and one
    # parity flag per mode
    big = hl.discretize(mua_model, hl.make_grid(mua_model, 3200))
    for op, t_first in ((mua_setup[1], None), (ou_fine_setup[1], None), (big, 0.25)):
        tracemalloc.start()
        try:
            dec = hl.eigendecompose(op, t_first=t_first)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n, k = op.grid.n_points, dec.eigenvalues.size
        assert k < n or t_first is None
        assert peak <= (1.05 * 8 * n * n if t_first is None else 8 * (1.5 * n * k + 16 * n) + 2 ** 19)
        half_table = 8 * ((n + 1) // 2) * k
        assert dec.half_table.nbytes == half_table and half_table <= kept <= half_table + 9 * k + 2 ** 12


def test_grid_validation(ou_model):
    with pytest.raises(ValueError):
        hl.make_grid(ou_model, 2)


def test_dirichlet_energy_basics(ou_setup, rng):
    grid, op, _ = ou_setup
    weight = hl.unit_weight()
    energy = hl.family_norms(np.stack([np.ones(grid.n_points), grid.points]), weight, op).energy
    assert energy[0] == 0.0
    # E(x, x) = int 1 dgamma = 1
    assert energy[1] == pytest.approx(1.0, abs=1e-2)
    assert np.all(hl.family_norms(rng.normal(size=(50, grid.n_points)), weight, op).energy >= 0.0)
    with pytest.raises(ValueError):
        hl.family_norms(np.ones(5), weight, op)


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
    grid, op, dec = mua_setup
    ones = np.ones(grid.n_points)
    assert np.max(np.abs(apply_semigroup(dec, ones, 0.7) - 1.0)) < 1e-10

    f = hl.gaussian_bump_family(grid, 1, rng)[0]
    norms = _l2(np.stack([apply_semigroup(dec, f, t) for t in np.arange(0.0, 1.01, 0.1)]), op)
    assert np.all(np.diff(norms) <= 1e-12)

    mean = np.sum(grid.node_masses * f)
    assert np.max(np.abs(apply_semigroup(dec, f, 60.0) - mean)) < 1e-6

    roundtrip = apply_semigroup(dec, f, 0.0)
    assert _l2(roundtrip - f, op)[0] < 1e-8

    with pytest.raises(ValueError):
        apply_semigroup(dec, f, -0.1)


def test_log_convexity_of_l2_decay(mua_setup, rng):
    grid, op, dec = mua_setup
    fam = hl.gaussian_bump_family(grid, 20, rng)
    ts = np.linspace(0.05, 1.0, 10)
    for f in fam:
        h = _l2(np.stack([apply_semigroup(dec, f, t) for t in ts]), op) ** 2
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
    assert _l2(ones, op)[0] == pytest.approx(1.0, abs=1e-9)
    f = hl.gaussian_bump_family(grid, 1, rng)[0]
    assert hl.family_norms(f, hl.unit_weight(), op).l1w[0] == pytest.approx(
        float(np.sum(grid.node_masses * np.abs(f))), rel=1e-14
    )
    # refinement oracle for the quadrature norms
    fine_grid = hl.make_grid(mua_model, 2 * grid.n_points)
    w = np.exp(-((fine_grid.points - 0.7) ** 2))
    coarse = _l2(np.exp(-((grid.points - 0.7) ** 2)), op)[0]
    fine = _l2(w, hl.discretize(mua_model, fine_grid))[0]
    assert coarse == pytest.approx(fine, rel=1e-4)
    # a (..., n) stack of any shape, one row included; any other length is refused
    stack = hl.gaussian_bump_family(grid, 12, rng).reshape(3, 4, grid.n_points)
    assert _l2(stack, op).shape == (12,) and _l2(stack[0, 0], op).shape == (1,)
    for bad in (np.ones(7), stack[..., :-1]):
        with pytest.raises(ValueError):
            _l2(bad, op)


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
    # one grid function only: a stack or a function of the wrong length is refused
    for shape in ((2, grid.n_points), (grid.n_points - 1,)):
        with pytest.raises(ValueError, match="need one grid function"):
            hl.ground_state_transform_residual(mua_model, np.zeros(shape), grid)


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
    # one pass over the streamed blocks gives the quotients and norms of a
    # pass over the same functions as one array, bit for bit, a short last
    # block included
    grid = hl.make_grid(mua_model, 3200)
    op = hl.discretize(mua_model, grid)
    weight = hl.weight_mu_a(1.5, 1.0)
    blocks = list(hl.gaussian_bump_blocks(grid, count, np.random.default_rng(count)))
    fam = hl.gaussian_bump_family(grid, count, np.random.default_rng(count))
    assert max(len(b) for b in blocks) <= hl.spectral._FAMILY_ROWS
    assert np.array_equal(np.concatenate(blocks), fam)
    norms = hl.family_norms(iter(blocks), weight, op)
    whole = hl.family_norms(fam, weight, op)
    for field in ("l1w", "l2sq", "energy"):
        assert np.array_equal(getattr(norms, field), getattr(whole, field)), field
    assert norms.l1w.shape == (count,)
    for blocked, array in zip(hl.nash_quotients(norms), hl.nash_quotients(whole)):
        assert np.array_equal(blocked, array)


def _truncated(op, t_first, monkeypatch):
    # take the subset solve whatever fraction of the modes it keeps, so the
    # certificate is tested on every model, not only where it pays off
    monkeypatch.setattr(hl.spectral, "_PARTIAL_MAX_FRAC", 1.0)
    return hl.eigendecompose(op, t_first=t_first)


def test_mode_count_matches_eigenvalues(mua_setup, ou_fine_setup, mode_count):
    # the count at a cut midway between two full-solve eigenvalues is the
    # number of eigenvalues below it; a pair closer than the solvers'
    # rounding (even/odd modes at the window edges) leaves its midpoint unjudged
    eps = np.finfo(float).eps
    for _, op, dec in (mua_setup, ou_fine_setup):
        lam = dec.eigenvalues
        norm1 = float(np.max(np.abs(op.sym_diag) + 2.0 * np.abs(np.append(op.sym_offdiag, 0.0))))
        mids = 0.5 * (lam[:-1] + lam[1:])
        clear = np.diff(lam) > 64.0 * eps * norm1
        assert np.count_nonzero(clear) > 0.9 * mids.size
        for mid in [*mids[clear], 2.0 * lam[-1]]:
            assert mode_count(op, hl.spectral._CUTOFF_EXPONENT / mid) == np.sum(lam < mid)


@pytest.mark.parametrize("family", ["mu_a", "ou", "cauchy"])
def test_subset_solve_keeps_as_many_modes_as_it_counts(family, mode_count):
    # the bisection finds the modes the count counts, huge times included,
    # where the rounding of the constant mode alone decides between 0 and 1
    # (Cauchy at n = 800 and t = 1e16 keeps its one mode); a count of 0 is
    # refused, and a count above _PARTIAL_MAX_FRAC n takes the full solve
    model = _family(family, 1.5 if family == "mu_a" else 2.0)
    for n_points in (5, 26, 101, 800):
        op = hl.discretize(model, hl.make_grid(model, n_points))
        for t_first in (1e-3, 0.25, 1e4, 1e13, 1e16, 1e20):
            k = mode_count(op, t_first)
            if not k:
                with pytest.raises(hl.NumericError, match="^no mode kept"):
                    hl.eigendecompose(op, t_first=t_first)
                continue
            dec = hl.eigendecompose(op, t_first=t_first)
            subset = k <= hl.spectral._PARTIAL_MAX_FRAC * n_points
            assert dec.eigenvalues.size == (k if subset else n_points), (n_points, t_first)
            assert math.isinf(dec.tail_rate) != subset
    if family == "cauchy":
        op = hl.discretize(model, hl.make_grid(model, 800))
        assert mode_count(op, 1e16) == hl.eigendecompose(op, t_first=1e16).eigenvalues.size == 1


def test_one_counted_mode_of_four_takes_the_full_solve(mode_count):
    # 1 > 0.12 n for n <= 8: a count of one mode at n = 4 is over the
    # subset fraction, so every mode is computed, exactly as with no t_first
    model = _family("cauchy", 2.0)
    op = hl.discretize(model, hl.make_grid(model, 4))
    assert mode_count(op, 1e17) == 1
    dec, full = hl.eigendecompose(op, t_first=1e17), hl.eigendecompose(op)
    assert math.isinf(dec.tail_rate) and dec.t_min == full.t_min
    assert np.array_equal(dec.eigenvalues, full.eigenvalues)
    assert np.array_equal(dec.eigenfunctions, full.eigenfunctions)


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
            pf_diff = apply_semigroup(full, f, t) - apply_semigroup(part, f, t)
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
            apply_semigroup(part, f, t)
    assert np.max(np.abs(apply_semigroup(part, f, 0.25) - 1.0)) < 1e-10
    with pytest.raises(ValueError):
        hl.eigendecompose(op, t_first=0.0)


def test_truncated_solve_keeping_no_mode_is_refused(ou_setup):
    # OU at n = 800 computes lambda_0 near 9e-13: at t_first = 1e13 the cut,
    # 3.6e-12, keeps the constant mode alone (the odd block keeps none); at
    # 1e16 it keeps nothing, and a kernel of no modes would read 0 everywhere
    grid, op, _ = ou_setup
    part = hl.eigendecompose(op, t_first=1e13)
    assert part.eigenvalues.size == 1 and part.tail_rate == hl.spectral._CUTOFF_EXPONENT / 1e13
    e0 = part.eigenfunctions[:, 0]
    assert np.ptp(e0) <= 1e-9 * abs(e0[0])
    cut = hl.spectral._CUTOFF_EXPONENT / 1e16
    with pytest.raises(hl.NumericError, match=re.escape(f"lambda_cut = 52 ln2 / t_first = {cut!r} "
                                                        "at t_first = 1e+16")):
        hl.eigendecompose(op, t_first=1e16)


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
                batched = apply_semigroup(dec, fam, t)
                assert batched.shape == fam.shape
                rows = np.array([[apply_semigroup(dec, f, t) for f in grp] for grp in fam])
                # in L2(mu): edge nodes amplify the GEMM/GEMV summation-order
                # difference by 1/sqrt(m_i), as they do all eigenbasis rounding
                diff = batched - rows
                m = grid.node_masses
                assert np.all(np.sqrt((diff * diff) @ m) <= 1e-13 * np.sqrt((fam * fam) @ m))
    with pytest.raises(ValueError):
        apply_semigroup(full, np.ones((3, 7)), 0.5)


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


def _lowest_modes(dec, k):
    """``dec`` cut to its k lowest modes, the dropped ones certified above
    eigenvalue k: a truncation whose tail is far from negligible."""
    return dataclasses.replace(dec, eigenvalues=dec.eigenvalues[:k], half_table=dec.half_table[:, :k],
                               odd=dec.odd[:k], tail_rate=float(dec.eigenvalues[k]), t_min=0.25)


@pytest.mark.parametrize("family", ["mu_a", "ou", "cauchy"])
def test_k_star_bounds_the_semigroup_from_l1v_to_l2(family, monkeypatch):
    # ||P_t f||_2 <= K* ||fV||_1 for bumps, nonnegative vectors and the
    # normalized deltas f = 1_i / (m_i V_i), P_t f synthesized on the full
    # decomposition and K* taken on it, on a truncation at t_first = 0.25
    # and on the 12 lowest modes, where only the tail term covers what the
    # dropped modes add; the full decomposition attains K* at its argmax delta
    model = _family(family, 1.5 if family == "mu_a" else 2.0)
    weight = hl.weight_mu_a(1.5, 1.0) if family == "mu_a" else hl.universal_weight(model)
    grid = hl.make_grid(model, 800)
    op = hl.discretize(model, grid)
    m, v = grid.node_masses, weight.value(grid.points)
    full = hl.eigendecompose(op)
    decs = {"full": full, "truncated": _truncated(op, 0.25, monkeypatch), "lowest": _lowest_modes(full, 12)}
    rng = np.random.default_rng(31)
    fam = np.concatenate([hl.gaussian_bump_family(grid, 40, rng), rng.random((40, grid.n_points)),
                          np.diag(1.0 / (m * v))])
    l1w = hl.family_norms(fam, weight, op).l1w
    for t in (0.25, 0.5, 1.0):
        pf = apply_semigroup(full, fam, t)
        ratio = np.sqrt((pf * pf) @ m) / l1w
        for name, dec in decs.items():
            k_star, i, q = hl.k_star(dec, v, t)
            assert np.array_equal(q, hl.kernel_diagonal(dec, 2.0 * t) + dec.tail(2.0 * t) / m)
            # the two eigensolves differ by up to 1.3e-12 relative at a delta
            assert np.all(ratio <= k_star * (1.0 + 1e-11)), (name, t)
        k_star, i, _ = hl.k_star(full, v, t)
        assert abs(ratio[80 + i] / k_star - 1.0) <= 1e-13, t
