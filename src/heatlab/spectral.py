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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NumericError
from .measures import MeasureModel, Weight

__all__ = [
    "DEFAULT_T_MIN",
    "Grid",
    "TridiagonalOperator",
    "SpectralDecomposition",
    "make_grid",
    "discretize",
    "eigendecompose",
    "kernel",
    "kernel_matrix",
    "chapman_kolmogorov_residual",
    "stochasticity_defect",
    "apply_semigroup",
    "trace",
    "hs_norm_sq",
    "diagonal_trace_quadrature",
    "l2_norm",
    "weighted_l1",
    "dirichlet_energy",
    "ground_state_transform_residual",
    "bulk_indices",
    "gaussian_bump_family",
]

#: Pointwise kernel evaluations below this time are refused: the truncated
#: spectral sum oscillates before enough modes have decayed.  Configurable
#: per decomposition.
DEFAULT_T_MIN = 1e-3


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
    model: MeasureModel
    midpoint_weights: np.ndarray
    sym_diag: np.ndarray
    sym_offdiag: np.ndarray


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of -L: columns of ``eigenfunctions`` are orthonormal w.r.t.
    the node masses; ``eigenvalues`` are sorted ascending with lambda_0 ~ 0."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    grid: Grid
    model: MeasureModel
    t_min: float = DEFAULT_T_MIN

    @property
    def node_masses(self) -> np.ndarray:
        return self.grid.node_masses


def make_grid(model: MeasureModel, n_points: int, radius: float | None = None) -> Grid:
    if n_points < 3:
        raise ValueError(f"need at least 3 grid points, got {n_points}")
    r = model.radius if radius is None else float(radius)
    if not 0 < r <= model.radius:
        raise ValueError(f"radius {r} outside the model window (0, {model.radius}]")
    x = np.linspace(-r, r, n_points)
    h = x[1] - x[0]
    m = model.density(x) * h
    m[0] *= 0.5
    m[-1] *= 0.5
    if not np.all(m > 0.0):
        raise ValueError("degenerate grid: vanishing node mass (density underflow)")
    return Grid(radius=r, n_points=n_points, points=x, spacing=float(h), node_masses=m)


def discretize(model: MeasureModel, grid: Grid) -> TridiagonalOperator:
    """Assemble the midpoint-weighted form and its symmetrized tridiagonal."""
    x, h, m = grid.points, grid.spacing, grid.node_masses
    if not np.all(m > 0.0):
        raise ValueError("degenerate grid: vanishing node mass")
    mid = 0.5 * (x[:-1] + x[1:])
    c = model.density(mid) / h
    diag = np.zeros_like(x)
    diag[:-1] += c
    diag[1:] += c
    return TridiagonalOperator(
        grid=grid,
        model=model,
        midpoint_weights=c,
        sym_diag=diag / m,
        sym_offdiag=-c / np.sqrt(m[:-1] * m[1:]),
    )


def eigendecompose(op: TridiagonalOperator, t_min: float = DEFAULT_T_MIN) -> SpectralDecomposition:
    """Full eigensystem of the symmetrized operator (LAPACK implicit-shift)."""
    try:
        w, v = eigh_tridiagonal(op.sym_diag, op.sym_offdiag)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NumericError(f"tridiagonal eigensolver failed: {exc}") from exc
    ef = v / np.sqrt(op.grid.node_masses)[:, None]
    return SpectralDecomposition(
        eigenvalues=w,
        eigenfunctions=ef,
        grid=op.grid,
        model=op.model,
        t_min=t_min,
    )


def _check_time(dec: SpectralDecomposition, t: float) -> None:
    if t < dec.t_min:
        raise ValueError(
            f"t={t} below t_min={dec.t_min}: truncated spectral sum unreliable"
        )


def kernel(dec: SpectralDecomposition, t: float, i: int, j: int) -> float:
    """Kernel density p_t(x_i, x_j) w.r.t. the discrete measure."""
    _check_time(dec, t)
    ef = dec.eigenfunctions
    # grouped as (e_n(x_i) e_n(x_j)) so the evaluation is symmetric in (i, j)
    return float(np.sum(np.exp(-dec.eigenvalues * t) * (ef[i] * ef[j])))


def kernel_matrix(dec: SpectralDecomposition, t: float, nodes=None) -> np.ndarray:
    """Kernel table p_t(x_i, x_j); symmetrized so p(i,j) == p(j,i) exactly.

    With ``nodes`` (an index array) only the ``nodes x nodes`` block is
    synthesized, from the eigenfunction rows at those nodes; it equals the
    same block of the full table up to rounding.
    """
    _check_time(dec, t)
    ef = dec.eigenfunctions if nodes is None else dec.eigenfunctions[nodes]
    raw = (ef * np.exp(-dec.eigenvalues * t)) @ ef.T
    return 0.5 * (raw + raw.T)


def bulk_indices(grid: Grid, half_width: float | None = None) -> np.ndarray:
    """Node indices in the bulk |x| <= half_width (default min(2, R/2)).

    Near the window edge the node masses underflow toward zero and
    floating-point noise in the eigenbasis is amplified by 1/sqrt(m);
    relative kernel identities are therefore sampled on the bulk.
    """
    if half_width is None:
        half_width = min(2.0, 0.5 * grid.radius)
    return np.nonzero(np.abs(grid.points) <= half_width)[0]


def chapman_kolmogorov_residual(
    dec: SpectralDecomposition,
    s: float,
    t: float,
    half_width: float | None = None,
) -> float:
    """max over sampled (i,j) of |int p_t(x_i,.) p_s(.,x_j) dmu - p_{t+s}(x_i,x_j)|
    relative to p_{t+s}(x_i,x_j)."""
    _check_time(dec, s)
    _check_time(dec, t)
    m = dec.node_masses
    pt = kernel_matrix(dec, t)
    ps = pt if s == t else kernel_matrix(dec, s)
    comp = pt @ (m[:, None] * ps)
    direct = kernel_matrix(dec, t + s)
    idx = bulk_indices(dec.grid, half_width)
    sub = np.ix_(idx, idx)
    return float(np.max(np.abs(comp[sub] - direct[sub]) / direct[sub]))


def stochasticity_defect(
    dec: SpectralDecomposition, t: float, half_width: float | None = None
) -> float:
    """max over sampled rows of |int p_t(x_i, .) dmu - 1|."""
    _check_time(dec, t)
    rows = kernel_matrix(dec, t) @ dec.node_masses
    idx = bulk_indices(dec.grid, half_width)
    return float(np.max(np.abs(rows[idx] - 1.0)))


def apply_semigroup(dec: SpectralDecomposition, f: np.ndarray, t: float) -> np.ndarray:
    """Spectral synthesis of P_t f; t = 0 returns f up to round-trip error."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    f = np.asarray(f, dtype=float)
    if f.shape != dec.grid.points.shape:
        raise ValueError("grid function shape does not match the grid")
    coeff = dec.eigenfunctions.T @ (dec.node_masses * f)
    return dec.eigenfunctions @ (np.exp(-dec.eigenvalues * t) * coeff)


def trace(dec: SpectralDecomposition, t: float) -> float:
    """Trace of P_t: sum_n exp(-lambda_n t)."""
    _check_time(dec, t)
    return float(np.sum(np.exp(-dec.eigenvalues * t)))


def hs_norm_sq(dec: SpectralDecomposition, t: float) -> float:
    """Squared Hilbert-Schmidt norm of P_t: sum_n exp(-2 lambda_n t) = trace(2t)."""
    return trace(dec, 2.0 * t)


def diagonal_trace_quadrature(dec: SpectralDecomposition, t: float) -> float:
    """Quadrature of the kernel diagonal: sum_i m_i p_t(x_i, x_i)."""
    _check_time(dec, t)
    ef = dec.eigenfunctions
    diag = np.einsum("ik,k,ik->i", ef, np.exp(-dec.eigenvalues * t), ef)
    return float(np.sum(dec.node_masses * diag))


def l2_norm(f: np.ndarray, grid: Grid) -> float:
    f = np.asarray(f, dtype=float)
    if f.shape != grid.points.shape:
        raise ValueError("grid function shape does not match the grid")
    return float(np.sqrt(np.sum(grid.node_masses * f * f)))


def weighted_l1(f: np.ndarray, weight, grid: Grid) -> float:
    """Weighted L1 norm ||f V||_1 = sum_i m_i |f_i| V(x_i).

    ``weight`` may be a Weight, a callable, or an array of values on the grid.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != grid.points.shape:
        raise ValueError("grid function shape does not match the grid")
    if isinstance(weight, Weight):
        v = weight.value(grid.points)
    elif callable(weight):
        v = weight(grid.points)
    else:
        v = np.asarray(weight, dtype=float)
        if v.shape != grid.points.shape:
            raise ValueError("weight values shape does not match the grid")
    return float(np.sum(grid.node_masses * np.abs(f) * v))


def dirichlet_energy(f: np.ndarray, op: TridiagonalOperator) -> float:
    """E_h(f,f) = sum_i rho(x_{i+1/2}) h ((f_{i+1}-f_i)/h)^2; zero on constants."""
    f = np.asarray(f, dtype=float)
    if f.shape != op.grid.points.shape:
        raise ValueError("grid function shape does not match the grid")
    return float(np.sum(op.midpoint_weights * np.diff(f) ** 2))


def ground_state_transform_residual(
    model: MeasureModel, g: np.ndarray, grid: Grid, fd_step: float = 1e-6
) -> float:
    """Defect of the ground-state transform identity for f = g sqrt(rho):

        int (f')^2 dx  =  E(g,g) + int (LV/V) g^2 dmu,   V = rho^{-1/2},

    with LV/V = -b'/2 - b^2/4 evaluated from the closed-form drift b.
    All three integrals use midpoint quadrature, so the residual decays
    at the discretization order O(h^2); it is exact in the continuum.
    """
    g = np.asarray(g, dtype=float)
    x, h = grid.points, grid.spacing
    if g.shape != x.shape:
        raise ValueError("grid function shape does not match the grid")
    gmax = np.max(np.abs(g))
    if gmax > 0 and max(abs(g[0]), abs(g[-1])) > 1e-12 * gmax:
        raise ValueError("g must vanish at the boundary nodes (compact support)")

    mid = 0.5 * (x[:-1] + x[1:])
    rho_mid = model.density(mid)
    f = g * np.exp(0.5 * model.log_density(x))
    flat_energy = float(np.sum(np.diff(f) ** 2)) / h
    form_energy = float(np.sum(rho_mid * np.diff(g) ** 2)) / h

    step = fd_step * np.maximum(1.0, np.abs(mid))
    b = model.drift(mid)
    b_prime = (model.drift(mid + step) - model.drift(mid - step)) / (2.0 * step)
    potential = -0.5 * b_prime - 0.25 * b * b
    g_mid = 0.5 * (g[:-1] + g[1:])
    potential_term = float(np.sum(potential * g_mid * g_mid * rho_mid)) * h

    return abs(flat_energy - form_energy - potential_term) / max(1.0, form_energy)


def gaussian_bump_family(
    grid: Grid,
    count: int,
    rng: np.random.Generator,
    width_range: tuple[float, float] = (0.2, 2.0),
    center_span: float = 0.5,
) -> np.ndarray:
    """Seeded Gaussian bumps: rows exp(-(x-c)^2 / 2w^2).

    Centers uniform in [-center_span*R, center_span*R], widths log-uniform
    in ``width_range`` so the family spans both concentration regimes.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    lo, hi = width_range
    if not 0 < lo <= hi:
        raise ValueError(f"invalid width range {width_range}")
    centers = rng.uniform(-center_span * grid.radius, center_span * grid.radius, count)
    widths = np.exp(rng.uniform(np.log(lo), np.log(hi), count))
    x = grid.points
    return np.exp(-((x[None, :] - centers[:, None]) ** 2) / (2.0 * widths[:, None] ** 2))
