"""The blocked Sturm pass against the per-site clamping recursion, bit for bit.

`reference_counts` is the recursion `sturm_count_batch` ran before it was
blocked: ten allocating numpy calls per site, every pivot clamped.  The
blocked pass must give the same counts on every input, including the ones
where clamps fire, signed zeros, block boundaries and one-row blocks.
"""

import warnings

import numpy as np
import pytest

from quasispec import eigensolve
from quasispec.eigensolve import TridiagMatrix, eigenvalues_bisect, sturm_count_batch
from quasispec.model import ModelParams

ROWS = eigensolve._BLOCK_ROWS


def reference_counts(diag, energies):
    """Per-site clamping Sturm counts, and how many pivot clamps fired."""
    e = np.asarray(energies, dtype=float)
    eps = np.ldexp(max(1.0, float(np.max(np.abs(diag))) + 2.0), -52)
    clamps = 0

    def clamp(d):
        nonlocal clamps
        small = np.abs(d) < eps
        clamps += int(np.count_nonzero(small))
        return np.where(small, np.where(d < 0, -eps, eps), d)

    d = clamp(diag[0] - e)
    count = (d < 0).astype(np.int64)
    for i in range(1, diag.size):
        d = clamp(diag[i] - e - 1.0 / d)
        count += d < 0
    return count, clamps


def strict_counts(diag, energies):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sturm_count_batch(TridiagMatrix(diag), energies)
        want, clamps = reference_counts(np.asarray(diag, dtype=float), energies)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    return got, clamps


def laplacian_eigs(n):
    return 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))


@pytest.mark.parametrize("n", [1, ROWS, ROWS + 1, 2 * ROWS + 1, 5 * ROWS + 3])
def test_zero_diagonal_at_its_eigenvalues_fires_clamps(n):
    energies = np.concatenate([laplacian_eigs(n), [0.0, -0.0, 2.0, -2.0]])
    _, clamps = strict_counts(np.zeros(n), energies)
    # e = 0 makes the first pivot exactly zero on the zero diagonal
    assert clamps > 0


@pytest.mark.parametrize("n", [1, ROWS, ROWS + 1, 2 * ROWS + 1])
def test_fibonacci_box_at_block_boundaries(n):
    diag = eigensolve.fibonacci_tridiag(ModelParams(lam=1.0, n_sites=n)).diag
    rng = np.random.default_rng(n)
    strict_counts(diag, np.concatenate([rng.uniform(-3, 4, 200), diag, diag + 1.0]))


def test_signed_zeros_in_diagonal_and_shifts():
    # -0.0 - 0.0 is a -0.0 pivot; unclamped, 1/-0.0 = -inf would flip the
    # sign of the next pivot, where the clamp makes it +eps
    diag = np.array([-0.0, 0.0, -0.0, 1.0, 0.0, -1.0, -0.0] * 11)
    energies = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, -5e-324])
    _, clamps = strict_counts(diag, energies)
    assert clamps > 0


def test_empty_energy_array():
    got, clamps = strict_counts(np.array([0.5, -0.5, 1.0]), np.array([]))
    assert got.shape == (0,) and clamps == 0


def test_energy_shapes_are_kept():
    diag = np.linspace(-1, 1, ROWS + 5)
    got, _ = strict_counts(diag, np.linspace(-3, 3, 12).reshape(3, 4))
    assert got.shape == (3, 4)
    got, _ = strict_counts(diag, np.float64(0.25))
    assert got.shape == ()


def test_many_energies_shrink_the_block_to_one_row():
    energies = np.linspace(-3.5, 3.5, 70_001)
    assert eigensolve._BLOCK_FLOATS // energies.size == 1
    diag = np.array([0.0, 1.5, 0.0, 0.0, 1.5, 0.0, 1.5])
    strict_counts(diag, np.concatenate([energies, [0.0, 1.5]]))


def test_bisection_is_unchanged_by_the_blocked_pass(monkeypatch):
    m = eigensolve.fibonacci_tridiag(ModelParams(lam=2.0, n_sites=2 * ROWS + 1))
    fast = eigenvalues_bisect(m).eigenvalues
    monkeypatch.setattr(eigensolve, "sturm_count_batch",
                        lambda mm, e: reference_counts(mm.diag, e)[0])
    assert np.array_equal(fast, eigenvalues_bisect(m).eigenvalues)


def test_sturm_count_property_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entries = st.floats(-4.0, 4.0, allow_nan=False)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(diag=st.lists(entries, min_size=1, max_size=2 * ROWS + 3),
                      energies=st.lists(st.floats(-7.0, 7.0, allow_nan=False),
                                        min_size=1, max_size=40))
    def check(diag, energies):
        diag = np.asarray(diag)
        e = np.sort(np.asarray(energies))
        counts = sturm_count_batch(TridiagMatrix(diag), e)
        assert np.all(np.diff(counts) >= 0)
        eigs = np.linalg.eigvalsh(TridiagMatrix(diag).dense())
        # away from ties: skip shifts within roundoff of an eigenvalue
        gap = np.min(np.abs(e[:, None] - eigs[None, :]), axis=1)
        away = gap > 1e-9 * (np.max(np.abs(diag)) + 2.0)
        dense = np.count_nonzero(eigs[None, :] < e[:, None], axis=1)
        assert np.array_equal(counts[away], dense[away])

    check()
