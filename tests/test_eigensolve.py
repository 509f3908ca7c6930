import io

import numpy as np
import pytest

from quasispec.eigensolve import (
    Spectrum1D,
    TridiagMatrix,
    cached_spectrum,
    eigenvalues_bisect,
    fibonacci_tridiag,
    jacobi_dense,
    sturm_count,
    sturm_count_batch,
)
from quasispec.model import ModelParams


def laplacian(n):
    return TridiagMatrix(np.zeros(n))


def laplacian_eigs(n):
    return np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))


def test_sturm_count_below_spectrum():
    assert sturm_count(laplacian(3), -3.0) == 0


def test_sturm_count_at_zero_counts_strictly():
    # eigenvalues are -sqrt2, 0, sqrt2; only -sqrt2 lies strictly below 0
    assert sturm_count(laplacian(3), 0.0) == 1


def test_sturm_count_monotone_and_saturating():
    m = TridiagMatrix(np.array([0.3, -1.2, 0.8, 0.0, 2.0]))
    es = np.linspace(-4, 5, 301)
    counts = sturm_count_batch(m, es)
    assert np.all(np.diff(counts) >= 0)
    assert counts[0] == 0 and counts[-1] == m.n


def test_sturm_count_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = rng.integers(2, 9)
        diag = rng.uniform(-1, 1, n)
        m = TridiagMatrix(diag)
        eigs = jacobi_dense(m.dense())
        for e in rng.uniform(-3.2, 3.2, 5):
            assert sturm_count(m, e) == int((eigs < e).sum())


def test_bisect_one_by_one():
    s = eigenvalues_bisect(TridiagMatrix(np.array([2.5])))
    assert s.eigenvalues[0] == pytest.approx(2.5, abs=s.tol)


def test_bisect_laplacian_small():
    s = eigenvalues_bisect(laplacian(3), tol=1e-12)
    assert np.allclose(s.eigenvalues, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-11)


def test_bisect_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        eigenvalues_bisect(laplacian(3), tol=0.0)


def test_bisect_matches_jacobi_on_fibonacci_box():
    p = ModelParams(1.0, n_sites=20)
    m = fibonacci_tridiag(p)
    a = eigenvalues_bisect(m).eigenvalues
    b = jacobi_dense(m.dense())
    assert np.max(np.abs(a - b)) < 1e-8


def test_cross_solver_agreement_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 33))
        m = TridiagMatrix(rng.uniform(-1, 1, n))
        tol = 1e-12 * (np.max(np.abs(m.diag)) + 2.0)
        a = eigenvalues_bisect(m, tol=tol).eigenvalues
        b = jacobi_dense(m.dense())
        assert np.max(np.abs(a - b)) < 10 * max(tol, 1e-12)


def test_cauchy_interlacing():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(5, 50))
        diag = rng.uniform(-1, 1, n)
        full = eigenvalues_bisect(TridiagMatrix(diag)).eigenvalues
        sub = eigenvalues_bisect(TridiagMatrix(diag[:-1])).eigenvalues
        assert np.all(full[:-1] <= sub + 1e-10)
        assert np.all(sub <= full[1:] + 1e-10)


def test_gershgorin_bounds_hold():
    p = ModelParams(4.0, omega=0.37, n_sites=200)
    s = eigenvalues_bisect(fibonacci_tridiag(p), params=p)
    assert s.eigenvalues[0] >= -2.0 - 1e-9
    assert s.eigenvalues[-1] <= 6.0 + 1e-9


def test_spectrum_length_must_match_params():
    with pytest.raises(ValueError):
        Spectrum1D(np.zeros(3), params=ModelParams(1.0, n_sites=4))


def test_jacobi_diagonal_fixed():
    assert jacobi_dense(np.eye(4)).tolist() == [1.0, 1.0, 1.0, 1.0]


def test_jacobi_two_by_two():
    assert np.allclose(jacobi_dense([[0.0, 1.0], [1.0, 0.0]]), [-1.0, 1.0])


def test_jacobi_rejects_asymmetric_and_large():
    with pytest.raises(ValueError):
        jacobi_dense([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        jacobi_dense(np.zeros((257, 257)))


def test_jacobi_embedded_tridiagonal():
    m = TridiagMatrix(np.linspace(-1, 1, 12))
    a = eigenvalues_bisect(m).eigenvalues
    b = jacobi_dense(m.dense())
    assert np.max(np.abs(a - b)) < 1e-9


def test_cache_round_trip(tmp_path):
    p = ModelParams(1.0, n_sites=30)
    s1 = cached_spectrum(p, cache_dir=tmp_path)
    files = list(tmp_path.glob("spectrum1d-*.npy"))
    assert len(files) == 1
    s2 = cached_spectrum(p, cache_dir=tmp_path)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    # different parameters get a different key
    cached_spectrum(ModelParams(2.0, n_sites=30), cache_dir=tmp_path)
    assert len(list(tmp_path.glob("spectrum1d-*.npy"))) == 2


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("QUASISPEC_CACHE", str(tmp_path))
    cached_spectrum(ModelParams(0.5, n_sites=10))
    assert len(list(tmp_path.glob("spectrum1d-*.npy"))) == 1


def _npy_bytes(a):
    buf = io.BytesIO()
    np.save(buf, a)
    return buf.getvalue()


def test_corrupt_cache_file_is_recomputed_and_replaced(tmp_path):
    p = ModelParams(1.0, n_sites=30)
    ref = cached_spectrum(p, cache_dir=tmp_path).eigenvalues
    (path,) = tmp_path.glob("spectrum1d-*.npy")
    good = path.read_bytes()
    corrupt = {
        "garbage": b"not an npy file at all" * 10,
        "truncated": good[: len(good) // 2],
        "empty": b"",
        "wrong length": _npy_bytes(ref[:-1]),
        "float32": _npy_bytes(ref.astype(np.float32)),
        "unsorted": _npy_bytes(ref[::-1]),
        "non-finite": _npy_bytes(np.where(np.arange(30) == 29, np.inf, ref)),
    }
    for name, data in corrupt.items():
        path.write_bytes(data)
        s = cached_spectrum(p, cache_dir=tmp_path)
        assert np.array_equal(s.eigenvalues, ref), name
        assert path.read_bytes() == good, name
    assert [f.name for f in tmp_path.iterdir()] == [path.name]
