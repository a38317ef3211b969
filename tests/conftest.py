import importlib.util
import math
import os
import sys

import numpy as np
import pytest

import heatlab as hl


def pytest_report_header(config):
    """The OpenBLAS build and thread count numpy and scipy load, from the
    benchmark's own record: the golden tables of full solves depend on the
    thread count (README, "Goldens and BLAS")."""
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(bench, "run.py"))
    run = importlib.util.module_from_spec(spec)
    sys.path.insert(0, bench)  # run.py imports its workloads module
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(bench)
    return [f"blas: {entry['package']} {entry['library']}, threads {entry.get('threads')}, "
            f"{entry.get('config', 'config unknown')}" for entry in run._blas_record()]


@pytest.fixture(scope="session")
def ou_model():
    return hl.make_ou(8.0)


@pytest.fixture(scope="session")
def ou_setup(ou_model):
    grid = hl.make_grid(ou_model, 800)
    op = hl.discretize(ou_model, grid)
    dec = hl.eigendecompose(op)
    return grid, op, dec


@pytest.fixture(scope="session")
def ou_fine_setup(ou_model):
    # finer grid for small-time kernel comparisons
    grid = hl.make_grid(ou_model, 1600)
    op = hl.discretize(ou_model, grid)
    dec = hl.eigendecompose(op)
    return grid, op, dec


@pytest.fixture(scope="session")
def mua_model():
    return hl.make_mu_a(1.5, 10.0)


@pytest.fixture(scope="session")
def mua_setup(mua_model):
    grid = hl.make_grid(mua_model, 800)
    op = hl.discretize(mua_model, grid)
    dec = hl.eigendecompose(op)
    return grid, op, dec


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


class _Counted(Exception):
    """Carries a mode count out of ``eigendecompose``, ending the call there."""


@pytest.fixture()
def mode_count(monkeypatch):
    """count(op, t_first): the number of modes ``eigendecompose(op, t_first)``
    counts at or below its cut, the m of its dstebz call at an infinite
    tolerance, read from that call, which ends the decomposition there."""
    lapack = hl.spectral._lapack

    def counted(routine, *args):
        out = lapack(routine, *args)
        if routine == "dstebz" and math.isinf(args[7]):
            raise _Counted(out[0])
        return out

    def count(op, t_first):
        with monkeypatch.context() as mp:
            mp.setattr(hl.spectral, "_lapack", counted)
            with pytest.raises(_Counted) as stopped:
                hl.eigendecompose(op, t_first=t_first)
        return stopped.value.args[0]

    return count


def _check_semigroup_time(dec, t: float) -> None:
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if not math.isinf(dec.tail_rate):
        hl.spectral._check_time(dec, t)


def _coefficients(f: np.ndarray, masses: np.ndarray, ef: np.ndarray) -> np.ndarray:
    """Spectral coefficients <f, e_n>_mu of a grid function or a stack, from
    the unfolded eigenfunction table ``ef``."""
    return (f * masses) @ ef


def apply_semigroup(dec, f: np.ndarray, t: float) -> np.ndarray:
    """P_t f by spectral synthesis on the unfolded table, one GEMM each way:
    the tests' oracle for the semigroup itself.

    ``f`` is one grid function or a stack of them (shape ``(..., n)``);
    the result has the shape of ``f``.  A full decomposition accepts t = 0
    (f up to round-trip error); a truncated one refuses t < t_min, below
    which its dropped modes are not negligible.
    """
    _check_semigroup_time(dec, t)
    ef = dec.eigenfunctions
    coeff = _coefficients(hl.spectral._grid_functions(f, dec.grid), dec.node_masses, ef)
    return (coeff * np.exp(-dec.eigenvalues * t)) @ ef.T
