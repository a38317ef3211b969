"""Spectral discretization of Sturm-Liouville generators and kernel evaluation.

The quadratic form E(f,f) = int f'^2 dmu is discretized on a uniform grid
with midpoint density weights,

    E_h(f,f) = sum_i rho(x_{i+1/2}) h ((f_{i+1}-f_i)/h)^2,

with reflecting (Neumann) boundaries: there are simply no flux terms past
the end nodes, so constants stay in the kernel and the discrete operator
remains Markov.  Node masses m_i = rho(x_i) h (half weights at the ends)
define the discrete measure; conjugating the form matrix by M^{-1/2} gives
an ordinary symmetric tridiagonal eigenproblem whose eigenvectors, mapped
back, are orthonormal w.r.t. the node masses.

All kernel, trace and norm evaluations happen in this eigenbasis:
p_t(x_i,x_j) = sum_n exp(-lambda_n t) e_n(x_i) e_n(x_j).

Every built-in density is even, and the grid is mirror-exact, so the matrix
is an exact palindrome and commutes with x -> -x.  ``eigendecompose`` takes
only such an operator and solves its even and its odd modes as two half-size
blocks (``_solve_parity_blocks``): in one LAPACK call per block for the full
spectrum, in one bisection and one inverse iteration on both for a truncated
one, each block's output then written, scaled in place, into one table of
the rows x >= 0; the lower rows are mirrored only where a caller reads them.

A decomposition may keep only the modes below a cutoff lambda_cut (see
``eigendecompose``).  The dropped modes are then bounded, not assumed
away: completeness gives sum_n e_n(x_i)^2 = 1/m_i, so by Cauchy-Schwarz
they add at most exp(-lambda_cut t)/sqrt(m_i m_j) to a kernel entry and
(n-k) exp(-lambda_cut t) to the trace (``kernel_tail``, ``k_star``,
``trace_tail``, ``SpectralDecomposition.tail``).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib import import_module, machinery, util

import numpy as np

from .errors import NumericError
from .measures import MeasureModel, Weight

__all__ = [
    "DEFAULT_T_MIN",
    "Grid",
    "TridiagonalOperator",
    "SpectralDecomposition",
    "FamilyNorms",
    "make_grid",
    "discretize",
    "eigendecompose",
    "kernel_matrix",
    "kernel_diagonal",
    "kernel_tail",
    "trace_tail",
    "chapman_kolmogorov_residual",
    "stochasticity_defect",
    "k_star",
    "trace",
    "diagonal_trace_quadrature",
    "family_norms",
    "ground_state_transform_residual",
    "bulk_indices",
    "gaussian_bump_family",
    "gaussian_bump_blocks",
]

#: Pointwise kernel evaluations below this time are refused: the grid's
#: error grows as t falls (OU at n = 800 deviates from Mehler's kernel by
#: 2.9e-2 of sqrt(p(x,x) p(y,y)) at t = 1e-3, by 1.4e-5 at t = 1).
DEFAULT_T_MIN = 1e-3

#: A truncated decomposition keeps the modes with lambda t_first <= 52 ln 2,
#: i.e. drops every mode that weighs below 2^-52 at the smallest time used.
_CUTOFF_EXPONENT = 52.0 * math.log(2.0)

#: Largest kept-mode fraction k/n for which the subset solve (bisection
#: plus inverse iteration) is taken; above it every mode is computed.
#: ``eigendecompose`` time, mode count and scatter included, subset over
#: full, for mu_a(1.5), OU and Cauchy(2) at n = 400, 800, 1600 and 3200, the
#: subset forced and lambda_cut midway between modes k and k + 1 (medians of
#: 9 alternated calls, 2-vCPU x86-64 KVM guest, scipy 1.17.1):
#:
#:     k/n    0.084      0.10       0.12       0.135      0.15       0.20
#:     ratio  0.44-0.67  0.55-0.78  0.68-0.94  0.77-1.04  0.98-1.16  1.35-1.53
#:
#: 0.12 is the largest k/n in the table at which the subset solve is faster
#: than the full one in every case measured.
_PARTIAL_MAX_FRAC = 0.12

#: Rows of a function family built and reduced at once (``gaussian_bump_blocks``
#: and ``family_norms``).  ``heatlab verify``
#: with the default config, seed 5, in-process (medians of 15 on a 2-vCPU
#: x86-64 KVM guest, numpy's OpenBLAS 0.3.31 on its SkylakeX kernels; peak
#: by tracemalloc):
#:
#:     rows                    16     20     25     32     50     100    200
#:     n = 3200  ms            74.3   70.9   69.0   68.5   69.9   77.5   79.5
#:               peak MiB      3.65   3.65   3.65   3.65   4.39   6.81   11.69
#:     n = 800   ms            23.0   20.9   21.0   18.5   18.8   19.6   21.8
#:
#: (The timings include a coefficient GEMM per held-out block, since
#: removed.)  A BLAS product may round a row differently with another row
#: count, so the count fixes the rounding of every ``heldout_envelope`` and
#: ``nash-scan`` value: with 20 rows every ||fV||_1 and ||f||_2^2 of a
#: 200-bump family equals the one a single 200-row product gives, at n =
#: 800 to 6400, and 25 changes these matrix-vector sums.
_FAMILY_ROWS = 20

#: Largest n x k eigenfunction table (k kept modes) a decomposition may
#: describe: 2 GiB, n <= 16384 for a full one.  The decomposition keeps half
#: of it, but a caller may unfold the whole table (``eigenfunctions``,
#: ``spectrum``'s Gram check), so the cap counts all of it.  At n = 51200
#: ``spectrum`` and ``trace`` would ask for 21 GB, and ``kernel`` on Cauchy
#: at t = 1e-3 (6079 modes) for 2.5 GB.
_TABLE_MAX_BYTES = 2 ** 31


def _linalg_extension(name: str):
    """scipy.linalg's compiled module ``name`` (``_flapack`` or ``_fblas``),
    loaded from its file without scipy.linalg's package init, most of the time
    a one-shot run took, and registered under its own name for a later
    ``import scipy.linalg`` to reuse; where no file is found, the plain import."""
    full = f"scipy.linalg.{name}"
    scipy_spec = util.find_spec("scipy")
    directories = scipy_spec.submodule_search_locations if scipy_spec else ()
    paths = [os.path.join(d, "linalg", name + s) for d in directories for s in machinery.EXTENSION_SUFFIXES]
    path = next(filter(os.path.isfile, paths), None)
    if full in sys.modules or path is None:
        return import_module(full)
    spec = util.spec_from_file_location(full, path)
    module = sys.modules[full] = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _linalg_extension("_flapack")


def _lapack(routine: str, *args, **kwargs):
    """The outputs of ``_flapack.<routine>``, its ``info`` checked as scipy did."""
    *out, info = getattr(_flapack, routine)(*args, **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} did not converge (info = {info})")
    return out


def eigh_tridiagonal(d, e):
    """``scipy.linalg.eigh_tridiagonal(d, e)`` on finite 1-D d and e, one entry
    longer: every mode by dstevd, bit for bit, or its 1 x 1 quick exit."""
    if d.size == 1:  # LAPACK's wrapper refuses an empty e
        return np.array([d[0]]), np.ones((1, 1), dtype=d.dtype)
    return tuple(_lapack("dstevd", d, e, compute_v=1))


@dataclass(frozen=True)
class Grid:
    """Uniform nodes on [-radius, radius] with trapezoid node masses."""

    radius: float
    n_points: int
    points: np.ndarray
    spacing: float
    node_masses: np.ndarray


@dataclass(frozen=True)
class TridiagonalOperator:
    """Discrete Dirichlet form data and its mass-symmetrized tridiagonal matrix.

    ``midpoint_weights[i] = rho(x_{i+1/2})/h`` are the coefficients of the
    quadratic form; ``sym_diag``/``sym_offdiag`` define the symmetric matrix
    S = M^{-1/2} E M^{-1/2} similar to -L.
    """

    grid: Grid
    midpoint_weights: np.ndarray
    sym_diag: np.ndarray
    sym_offdiag: np.ndarray


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of -L: the columns of ``eigenfunctions`` are orthonormal
    w.r.t. the node masses; ``eigenvalues`` are sorted ascending with
    lambda_0 ~ 0.

    The operator is palindromic, so each eigenfunction is exactly even or
    exactly odd (``odd``, one flag per mode) and is stored once, at the
    nodes x >= 0: ``half_table`` holds the center row of an odd grid and
    the upper rows, ceil(n/2) x k, Fortran-ordered, one column per mode in
    the order of ``eigenvalues``.  ``eigenfunctions`` unfolds the n x k
    table on each access, each lower row its mirror row negated in the odd
    modes; the library gathers only the rows it needs.

    A truncated decomposition keeps k < n modes; every dropped mode has
    eigenvalue above ``tail_rate`` (inf when all n modes are kept).
    """

    eigenvalues: np.ndarray
    half_table: np.ndarray
    odd: np.ndarray
    grid: Grid
    t_min: float
    tail_rate: float

    @property
    def node_masses(self) -> np.ndarray:
        return self.grid.node_masses

    @property
    def eigenfunctions(self) -> np.ndarray:
        """The n x k table e_n(x_i), unfolded into a new Fortran-ordered array."""
        return _unfold(self, None)

    def tail(self, t: float) -> float:
        """exp(-tail_rate t), the most a dropped mode weighs at time t (0 when
        none is dropped); ||P_t f - kept-mode sum||_2 <= tail(t) ||f||_2."""
        return 0.0 if math.isinf(self.tail_rate) else math.exp(-self.tail_rate * t)


def _unfold(dec: SpectralDecomposition, nodes) -> np.ndarray:
    """Rows ``nodes`` (None for all, an index array or a slice) of the n x k
    eigenfunction table, gathered from the half table into a new writable
    array laid out as those rows of a Fortran-ordered table would be:
    C-ordered for an index array, Fortran-ordered otherwise.

    A row x >= 0 is its half-table row as stored; a lower row is its mirror
    row, negated in the odd modes, signed zeros included."""
    nodes = slice(None) if nodes is None else nodes
    table, odd = dec.half_table, dec.odd
    n, size = dec.grid.n_points, table.shape[0]
    half = n - size
    idx = np.arange(n)[nodes]
    below = idx < half
    src = np.where(below, n - 1 - half - idx, idx - half)
    rows = np.take(table.T, src, axis=1).T if isinstance(nodes, slice) else table[src]
    np.multiply(rows, np.where(odd, -1.0, 1.0), out=rows, where=below[:, None])
    return rows


def make_grid(model: MeasureModel, n_points: int) -> Grid:
    """``n_points`` mirror-exact nodes on the model window [-R, R]: the lower
    half and h of ``np.linspace``, the upper half their exact negation, the
    center of an odd grid exactly 0.  An even density thus gives palindromic
    masses and the palindromic operator ``eigendecompose`` requires."""
    if n_points < 3:
        raise ValueError(f"need at least 3 grid points, got {n_points}")
    x = np.linspace(-model.radius, model.radius, n_points)
    h = x[1] - x[0]
    half = n_points // 2
    x[n_points - half:] = -x[half - 1::-1]
    if n_points % 2:
        x[half] = 0.0
    m = model.density(x) * h
    m[0] *= 0.5
    m[-1] *= 0.5
    if not np.all(m > 0.0):
        raise ValueError("degenerate grid: vanishing node mass (density underflow)")
    return Grid(radius=model.radius, n_points=n_points, points=x, spacing=float(h), node_masses=m)


def discretize(model: MeasureModel, grid: Grid) -> TridiagonalOperator:
    """Assemble the midpoint-weighted form and its symmetrized tridiagonal;
    NumericError where a mass product m_i m_{i+1} underflows to 0."""
    x, h, m = grid.points, grid.spacing, grid.node_masses
    mid = 0.5 * (x[:-1] + x[1:])
    pair = m[:-1] * m[1:]
    if not np.all(pair > 0.0):
        i = min(np.flatnonzero(pair == 0.0), key=lambda j: abs(mid[j]))  # the innermost
        raise NumericError(f"node masses {float(m[i])!r} at x = {float(x[i])!r} and {float(m[i + 1])!r} at "
                           f"x = {float(x[i + 1])!r} have a product that underflows to 0: narrow the window")
    c = model.density(mid) / h
    diag = np.zeros_like(x)
    diag[:-1] += c
    diag[1:] += c
    return TridiagonalOperator(
        grid=grid,
        midpoint_weights=c,
        sym_diag=diag / m,
        sym_offdiag=-c / np.sqrt(pair),
    )


def _parity_blocks(diag: np.ndarray, offdiag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and the odd block of a mirror-symmetric tridiagonal T, in one
    tridiagonal of T's size with an exact zero coupling between them.

    For n = 2m both are T[m:, m:], with e[m-1] added to (even) or subtracted
    from (odd) the first diagonal entry.  For n = 2m + 1 the even block is
    T[m:, m:] with its first off-diagonal times sqrt(2), the odd T[m+1:, m+1:].
    """
    half, center = divmod(diag.size, 2)
    d = np.concatenate((diag[half:], diag[half + center:]))
    e = np.concatenate((offdiag[half:], [0.0], offdiag[half + center:]))
    if center:
        e[0] *= math.sqrt(2.0)
    else:
        d[0] += offdiag[half - 1]
        d[half] -= offdiag[half - 1]
    return d, e


def _solve_parity_blocks(d: np.ndarray, e: np.ndarray, masses: np.ndarray, cut: float):
    """(eigenvalues, half table, odd flags) of the modes with lambda <= ``cut``
    (all for cut = inf) of a palindromic operator, from its ``_parity_blocks``
    d, e, as ``SpectralDecomposition`` keeps them.

    All modes take one divide-and-conquer call per block.  A cut takes one
    bisection (dstebz) and one inverse iteration (dstein) on both blocks, as
    dstein per block would restart LAPACK's random start vectors; dstebz
    lists the even block's modes first and each dstein column vanishes off
    its block, so the blocks' eigenvectors are two views of its output.
    Either way the eigenvalues are merged stably and each block's vectors
    are scaled in place and written as they are into the Fortran-ordered
    ceil(n/2) x k half table: the center row of an odd grid (+0.0 in the
    odd modes) and the upper rows.  ``_unfold`` gives the
    lower rows their mirror's entries, negated in the odd modes.  Above 25
    nodes, and at every cut, the unfolded table equals, up to the sign of
    an exact zero, what one call on both blocks unfolded by (even +- odd) *
    scale gives.  (Scaling before the sums could differ only where an entry
    times sqrt(1/2 m_i) underflows, which needs a node mass above 1/2.)  Up
    to 25 nodes one divide-and-conquer call is one QL/QR pass, whose columns
    may differ in sign or in the order of a tie.

    A full solve holds the two half-size LAPACK outputs and the half table,
    n^2 doubles at its peak; a truncated one dstein's n x k output and the
    half table."""
    n = d.size
    half, center = divmod(n, 2)
    size = half + center
    if math.isinf(cut):
        w_even, v_even = eigh_tridiagonal(d[:size], e[:size - 1])
        w_odd, v_odd = eigh_tridiagonal(d[size:], e[size:])
    else:
        # by value in (-inf, cut], block by block; il = iu = 1 unread; tol 0
        # means eps ||T||_1; block b ends at row isplit[b - 1] (1-based)
        m, w, iblock, isplit = _lapack("dstebz", d, e, 1, -math.inf, cut, 1, 1, 0.0, "B")
        v, = _lapack("dstein", d, e, w[:m], iblock, isplit)
        k_even = int(np.count_nonzero(isplit[iblock[:m] - 1] <= size))
        w_even, w_odd = w[:k_even], w[k_even:m]
        v_even, v_odd = v[:size, :k_even], v[size:, k_even:]
    w = np.concatenate((w_even, w_odd))
    k = w.size
    # one call's dstedc orders both blocks by a selection sort, which on two
    # strictly increasing runs is a stable merge: the even mode first on a tie
    # (126 grids measured: each block strictly increasing, 340 even/odd ties)
    order = np.argsort(w, kind="stable")
    cols = np.empty(k, dtype=np.intp)
    cols[order] = np.arange(k)
    cols_even, cols_odd = cols[:w_even.size], cols[w_even.size:]
    table = np.empty((size, k), order="F")
    scale = (math.sqrt(0.5) / np.sqrt(masses[size:]))[:, None]
    if center:
        table[0, cols_even] = v_even[0] / math.sqrt(masses[half])
        table[0, cols_odd] = 0.0
    even = v_even[center:]
    even *= scale
    table[center:, cols_even] = even
    v_odd *= scale
    table[center:, cols_odd] = v_odd
    return w[order], table, order >= w_even.size


def eigendecompose(op: TridiagonalOperator, t_first: float | None = None) -> SpectralDecomposition:
    """Eigensystem of the symmetrized operator, all modes or a certified part.

    With ``t_first=None`` every mode is computed (LAPACK divide and conquer).
    ``t_first`` is the smallest time the caller will evaluate at: the modes
    with lambda <= lambda_cut = 52 ln2 / t_first, counted by LAPACK's own
    Sturm count (dstebz at an infinite tolerance, O(n)), are then computed
    alone (LAPACK bisection and inverse iteration, O(n k) memory), provided
    they are at most ``_PARTIAL_MAX_FRAC`` of the grid; otherwise all modes are, exactly as
    with ``t_first=None``.  Kernel evaluations are refused below ``t_min``,
    which is ``DEFAULT_T_MIN``; the truncated decomposition records
    lambda_cut as ``tail_rate`` and raises ``t_min`` to ``t_first``, where
    each dropped mode weighs at most 2^-52; ``kernel_tail``, ``trace_tail``
    and ``SpectralDecomposition.tail`` bound what the dropped modes add.

    The operator must be finite, 1-D with one more diagonal entry, and an
    exact palindrome, as ``make_grid`` makes it for an even density; else a
    ValueError (naming, for a non-palindrome, the first entry that differs
    from its mirror).  It is then orthogonally similar to its even block plus
    its odd block, so eigenvalues and tail are unchanged.  The blocks are
    built once; the count is taken on them, and ``_solve_parity_blocks``
    makes every decomposition from them: all modes in one LAPACK call per
    block (a peak of n^2 doubles), a truncated set in one bisection, which
    finds as many modes as the count, and one inverse iteration on both.
    The decomposition keeps each mode once, on the ceil(n/2) nodes x >= 0
    with its parity.  A decomposition whose n x k eigenfunction table,
    which a caller may unfold, exceeds ``_TABLE_MAX_BYTES`` (k = n for all
    modes) is refused with a NumericError before anything of its size is
    allocated, and so is a truncated decomposition that keeps no mode at
    all.
    """
    diag, offdiag = np.asarray_chkfinite(op.sym_diag), np.asarray_chkfinite(op.sym_offdiag)
    if diag.ndim != 1 or offdiag.ndim != 1 or diag.size != offdiag.size + 1:
        raise ValueError(f"need 1-D sym_diag and sym_offdiag with one more entry in sym_diag, got shapes "
                         f"{diag.shape} and {offdiag.shape}")
    for name, a in (("sym_diag", diag), ("sym_offdiag", offdiag)):
        skew = np.flatnonzero(a != a[::-1])
        if skew.size:
            i = int(skew[0])
            raise ValueError(f"eigendecompose needs a palindromic operator: {name}[{i}] = {a[i]!r} differs "
                             f"from its mirror {name}[{a.size - 1 - i}] = {a[-1 - i]!r}")
    if t_first is not None and not t_first > 0:
        raise ValueError(f"t_first must be positive, got {t_first}")
    d, e = _parity_blocks(diag, offdiag)
    n = k = diag.size
    cut = math.inf
    if t_first is not None:
        cut = _CUTOFF_EXPONENT / t_first
        # the modes in (-inf, cut]: with tol = inf the bisection stops at once
        k = _lapack("dstebz", d, e, 1, -math.inf, cut, 1, 1, math.inf, "E")[0]
        if not k:  # even the constant mode's computed lambda_0 lies above the cut
            raise NumericError(f"no mode kept: every computed eigenvalue exceeds lambda_cut = 52 ln2 / t_first "
                               f"= {cut!r} at t_first = {t_first!r}")
        if k > _PARTIAL_MAX_FRAC * n:
            k, cut = n, math.inf
    if 8 * n * k > _TABLE_MAX_BYTES:
        raise NumericError(f"an eigensolve keeping {k} of n = {n} modes needs a {8 * n * k}-byte eigenfunction "
                           f"table (n k doubles), over the {_TABLE_MAX_BYTES}-byte cap")
    try:
        w, table, odd = _solve_parity_blocks(d, e, op.grid.node_masses, cut)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"tridiagonal eigensolver failed: {exc}") from exc
    return SpectralDecomposition(
        eigenvalues=w,
        half_table=table,
        odd=odd,
        grid=op.grid,
        t_min=DEFAULT_T_MIN if math.isinf(cut) else max(DEFAULT_T_MIN, t_first),
        tail_rate=cut,
    )


def _check_time(dec: SpectralDecomposition, t: float) -> None:
    if t < dec.t_min:
        raise ValueError(
            f"t={t} below t_min={dec.t_min}, the least time this decomposition evaluates at"
        )


def _grid_functions(f, grid: Grid) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != grid.points.shape:
        raise ValueError("grid function shape does not match the grid")
    return f


def kernel_matrix(dec: SpectralDecomposition, t: float, nodes=None, cols=None) -> np.ndarray:
    """Kernel table p_t(x_i, x_j) w.r.t. the discrete measure; symmetrized so
    p(i,j) == p(j,i) exactly.

    With ``nodes`` (an index array or slice) only the ``nodes x nodes``
    block is synthesized, from the eigenfunction rows at those nodes (only
    those are unfolded); it equals the same block of the full table up to
    rounding.  With ``cols`` as well, the rectangular ``nodes x cols``
    block is returned (not symmetrized; ``nodes=None`` means all rows,
    ``cols=slice(None)`` all columns).  A truncated decomposition sums the
    kept modes only; see ``kernel_tail``.
    """
    _check_time(dec, t)
    rows = _unfold(dec, nodes)
    weighted = rows * np.exp(-dec.eigenvalues * t)
    if cols is not None:
        return weighted @ _unfold(dec, cols).T
    raw = weighted @ rows.T
    return 0.5 * (raw + raw.T)


def kernel_diagonal(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """Kernel diagonal p_t(x_i, x_i) = sum_n exp(-lambda_n t) e_n(x_i)^2 in
    O(nk), without the table; kept modes only, as ``kernel_matrix``.  The
    squares drop the mirror's signs, so the half table's sums are mirrored."""
    _check_time(dec, t)
    table = dec.half_table
    diag = np.einsum("ik,k,ik->i", table, np.exp(-dec.eigenvalues * t), table)
    center = 2 * diag.size - dec.grid.n_points
    return np.concatenate((diag[center:][::-1], diag))


def kernel_tail(dec: SpectralDecomposition, t: float, nodes=None, cols=None) -> np.ndarray:
    """Certified bound exp(-tail_rate t)/sqrt(m_i m_j) on what the dropped
    modes add to each entry of ``kernel_matrix(dec, t, nodes, cols)``
    (zeros for a full decomposition)."""
    inv_sqrt = 1.0 / np.sqrt(dec.node_masses)
    r = inv_sqrt if nodes is None else inv_sqrt[nodes]
    c = r if cols is None else inv_sqrt[cols]
    return (dec.tail(t) * r)[:, None] * c[None, :]


def k_star(dec: SpectralDecomposition, v: np.ndarray, t: float) -> tuple[float, int, np.ndarray]:
    """(K*, i, q) in O(nk): q_i = p_{2t}(x_i, x_i) + tail(2t)/m_i, the kernel
    diagonal with the certified bound on what the dropped modes add to it
    (``kernel_tail``), and K* = max_i sqrt(q_i) / v_i at its first argmax i.

    K* is the norm of P_t from L^1(v mu) to L^2(mu) on grid functions, ||P_t
    f||_2 <= K* ||f v||_1 for every f: P_t f = sum_i f_i m_i p_t(., x_i) and
    ||p_t(., x_i)||_2^2 = p_{2t}(x_i, x_i) <= q_i.  A full decomposition
    attains it, up to rounding, at the normalized delta at node i."""
    q = kernel_diagonal(dec, 2.0 * t) + dec.tail(2.0 * t) / dec.node_masses
    ratio = np.sqrt(q) / v
    i = int(np.argmax(ratio))
    return float(ratio[i]), i, q


def trace_tail(dec: SpectralDecomposition, t: float) -> float:
    """Certified bound (n-k) exp(-tail_rate t) on what the dropped modes add
    to ``trace(dec, t)`` (0 for a full decomposition)."""
    return (dec.grid.n_points - dec.eigenvalues.size) * dec.tail(t)


def bulk_indices(grid: Grid, half_width: float | None = None) -> np.ndarray:
    """Node indices in the bulk |x| <= half_width (default min(2, R/2)).

    Near the window edge the node masses underflow toward zero and
    floating-point noise in the eigenbasis is amplified by 1/sqrt(m);
    relative kernel identities are therefore sampled on the bulk.
    """
    if half_width is None:
        half_width = min(2.0, 0.5 * grid.radius)
    return np.nonzero(np.abs(grid.points) <= half_width)[0]


def chapman_kolmogorov_residual(dec: SpectralDecomposition, s: float, t: float) -> float:
    """max over the bulk (i,j) of |int p_t(x_i,.) p_s(.,x_j) dmu - p_{t+s}(x_i,x_j)|
    relative to p_{t+s}(x_i,x_j), the bulk as ``bulk_indices`` defaults it.

    Only the bulk rows of p_t and p_s are synthesized (p_s is symmetric),
    so memory is O(n * bulk size).
    """
    _check_time(dec, s)
    _check_time(dec, t)
    idx = bulk_indices(dec.grid)
    pt = kernel_matrix(dec, t, idx, slice(None))
    ps = pt if s == t else kernel_matrix(dec, s, idx, slice(None))
    comp = pt @ (dec.node_masses[:, None] * ps.T)
    direct = kernel_matrix(dec, t + s, idx)
    return float(np.max(np.abs(comp - direct) / direct))


def stochasticity_defect(dec: SpectralDecomposition, t: float) -> float:
    """max over the bulk rows (``bulk_indices``) of |int p_t(x_i, .) dmu - 1|."""
    idx = bulk_indices(dec.grid)
    rows = kernel_matrix(dec, t, idx, slice(None)) @ dec.node_masses
    return float(np.max(np.abs(rows - 1.0)))


def trace(dec: SpectralDecomposition, t: float) -> float:
    """Trace of P_t: sum_n exp(-lambda_n t); trace(dec, 2t) is the squared
    Hilbert-Schmidt norm of P_t."""
    _check_time(dec, t)
    return float(np.sum(np.exp(-dec.eigenvalues * t)))


def diagonal_trace_quadrature(dec: SpectralDecomposition, t: float) -> float:
    """Quadrature of the kernel diagonal: sum_i m_i p_t(x_i, x_i)."""
    return float(np.sum(dec.node_masses * kernel_diagonal(dec, t)))


def _row_blocks(f: np.ndarray):
    """The rows of a (..., n) stack, ``_FAMILY_ROWS`` at a time, as (rows, n) views."""
    rows = f.reshape(-1, f.shape[-1])
    return (rows[lo:lo + _FAMILY_ROWS] for lo in range(0, max(rows.shape[0], 1), _FAMILY_ROWS))


def _energy(f: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_i c_i (f_{i+1} - f_i)^2 along the last axis, in one difference array."""
    d = np.diff(f, axis=-1)
    np.square(d, out=d)
    d *= c
    return d.sum(axis=-1)


@dataclass(frozen=True)
class FamilyNorms:
    """Per-row sums of a function family, from one pass over its rows
    (``family_norms``): ||fV||_1, ||f||_2^2 and E_h(f,f)."""

    l1w: np.ndarray
    l2sq: np.ndarray
    energy: np.ndarray


def family_norms(family, weight: Weight, op: TridiagonalOperator) -> FamilyNorms:
    """The ``FamilyNorms`` of a family.

    ``family`` is a (..., n) stack, taken ``_FAMILY_ROWS`` rows at a time, or
    an iterable of (rows, n) blocks such as ``gaussian_bump_blocks`` returns.
    Each block is reduced before the next is taken, so a streamed family is
    never held whole; m, mV and the midpoint weights are formed once.  A
    stack is cut into the blocks a streamed family of its size comes in, so
    both give the same values to the last bit: a BLAS product's rounding may
    depend on how many rows it is given.
    """
    m = op.grid.node_masses
    mv = m * weight.value(op.grid.points)
    blocks = _row_blocks(family) if isinstance(family, np.ndarray) else family
    parts = []
    for block in blocks:
        block = _grid_functions(block, op.grid)
        parts.append((np.abs(block) @ mv, (block * block) @ m, _energy(block, op.midpoint_weights)))
    l1w, l2sq, energy = zip(*parts)
    return FamilyNorms(np.concatenate(l1w), np.concatenate(l2sq), np.concatenate(energy))


def ground_state_transform_residual(model: MeasureModel, g: np.ndarray, grid: Grid) -> float:
    """Defect of the ground-state transform identity for f = g sqrt(rho):

        int (f')^2 dx  =  E(g,g) + int (LV/V) g^2 dmu,   V = rho^{-1/2},

    with LV/V = -b'/2 - b^2/4 evaluated from the model's closed-form drift
    b and its derivative b' (``drift_prime``).
    All three integrals use midpoint quadrature, so the residual decays
    at the discretization order O(h^2); it is exact in the continuum.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != grid.points.shape:
        raise ValueError(f"need one grid function of shape {grid.points.shape}, got shape {g.shape}")
    x, h = grid.points, grid.spacing
    gmax = np.max(np.abs(g))
    if gmax > 0 and max(abs(g[0]), abs(g[-1])) > 1e-12 * gmax:
        raise ValueError("g must vanish at the boundary nodes (compact support)")

    mid = 0.5 * (x[:-1] + x[1:])
    rho_mid = model.density(mid)
    f = g * np.exp(0.5 * model.log_density(x))
    flat_energy = float(np.sum(np.diff(f) ** 2)) / h
    form_energy = float(np.sum(rho_mid * np.diff(g) ** 2)) / h

    b = model.drift(mid)
    potential = -0.5 * model.drift_prime(mid) - 0.25 * b * b
    g_mid = 0.5 * (g[:-1] + g[1:])
    potential_term = float(np.sum(potential * g_mid * g_mid * rho_mid)) * h

    return abs(flat_energy - form_energy - potential_term) / max(1.0, form_energy)


def gaussian_bump_blocks(grid: Grid, count: int, rng: np.random.Generator):
    """Seeded Gaussian bumps exp(-(x-c)^2 / 2w^2), ``_FAMILY_ROWS`` rows at a time.

    Centers uniform in [-R/2, R/2], then widths log-uniform in [0.2, 2], so
    the family spans both concentration regimes.  All ``count`` centers and
    widths are drawn from ``rng`` at the call; each (rows, n) block is built
    only when the returned iterator reaches it, so what the caller draws
    next does not depend on how many blocks it takes.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    centers = rng.uniform(-0.5 * grid.radius, 0.5 * grid.radius, count)
    widths = np.exp(rng.uniform(np.log(0.2), np.log(2.0), count))
    return (_bumps(grid.points, centers[lo:lo + _FAMILY_ROWS], widths[lo:lo + _FAMILY_ROWS])
            for lo in range(0, count, _FAMILY_ROWS))


def _bumps(x: np.ndarray, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Rows exp(-(x-c)^2 / 2w^2), built in place in one array."""
    f = np.subtract(x[None, :], centers[:, None])
    np.square(f, out=f)
    np.negative(f, out=f)
    f /= 2.0 * widths[:, None] ** 2
    return np.exp(f, out=f)


def gaussian_bump_family(grid: Grid, count: int, rng: np.random.Generator) -> np.ndarray:
    """The blocks of ``gaussian_bump_blocks`` as one ``count`` x n array."""
    return np.concatenate(list(gaussian_bump_blocks(grid, count, rng)))
