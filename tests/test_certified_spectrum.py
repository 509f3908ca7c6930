"""Box spectra bisected on lifted counts and certified by Sturm counts.

`certified_spectrum` must return `eigenvalues_bisect`'s eigenvalues bit for
bit: on every box, when the lifted counts are wrong at some midpoints (the
failed ranks are bisected again on Sturm counts), and when that repair halves
a different number of times (the result is `eigenvalues_bisect` itself).
Boxes under `_CERTIFY_MIN_SITES` sites take `eigenvalues_bisect` directly;
the tests lower that bound to 1 so that small boxes are certified too.
The argument rests on the Sturm count being monotone in the energy, which the
last tests probe within a few hundred ulp of eigenvalues and at signed zeros.
"""

import io

import numpy as np
import pytest

from quasispec import eigensolve
from quasispec.eigensolve import (
    TridiagMatrix,
    box_counter,
    cached_spectrum,
    certified_spectrum,
    eigenvalues_bisect,
    fibonacci_tridiag,
    sturm_count_batch,
)
from quasispec.model import ModelParams


@pytest.fixture(autouse=True)
def certify_every_box(monkeypatch):
    monkeypatch.setattr(eigensolve, "_CERTIFY_MIN_SITES", 1)


def no_lifted_count(self, e):
    raise AssertionError("a box bisected on lifted counts")


def sturm_spectrum(p, start=0):
    return eigenvalues_bisect(fibonacci_tridiag(p, start), params=p).eigenvalues


def spy_bisections(monkeypatch, halvings_shift=0):
    """Record the size of each bisection run, by either loop (_bisect_tree or
    _bisect_ranks); add halvings_shift to the second run's (the repair's) halvings."""
    sizes = []

    def spy(real):
        def run(count, ranks, lo, hi, tol):
            sizes.append(ranks.size)
            lo, hi, halvings = real(count, ranks, lo, hi, tol)
            return lo, hi, halvings + (halvings_shift if len(sizes) == 2 else 0)
        return run

    for name in ("_bisect_tree", "_bisect_ranks"):
        monkeypatch.setattr(eigensolve, name, spy(getattr(eigensolve, name)))
    return sizes


def off_by_one_at_some_midpoints(monkeypatch):
    """Lifted counts one too high on windows of width 1/64, one every 1/4 in energy."""
    real = eigensolve.BoxCounter._lifted_count

    def wrong(self, e):
        return real(self, e) + (np.floor(64 * e) % 16 == 0)

    monkeypatch.setattr(eigensolve.BoxCounter, "_lifted_count", wrong)


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 4.0])
@pytest.mark.parametrize("n", [1, 2, 3, 987, 1000, 4181])
def test_certified_spectrum_equals_sturm_bisection(lam, n):
    rng = np.random.default_rng(int(10 * lam) + 7 * n)
    p = ModelParams(lam, omega=float(rng.uniform()), n_sites=n)
    start = int(rng.integers(1, 10**6))
    assert box_counter(p, start).backend == "lifted"
    spec = certified_spectrum(p, start)
    assert spec.params == p and spec.tol == box_counter(p, start).tol
    assert np.array_equal(spec.eigenvalues, sturm_spectrum(p, start))


def test_sturm_backend_is_sturm_bisection(monkeypatch):
    p = ModelParams(1.5, omega=0.2, alpha=0.3, n_sites=120)
    assert box_counter(p, 5).backend == "sturm"
    monkeypatch.setattr(eigensolve.BoxCounter, "_lifted_count", no_lifted_count)
    assert np.array_equal(certified_spectrum(p, 5).eigenvalues, sturm_spectrum(p, 5))


def test_small_boxes_are_sturm_bisection(monkeypatch):
    monkeypatch.setattr(eigensolve, "_CERTIFY_MIN_SITES", 128)
    monkeypatch.setattr(eigensolve.BoxCounter, "_lifted_count", no_lifted_count)
    p = ModelParams(1.0, omega=0.37, n_sites=127)
    assert np.array_equal(certified_spectrum(p, 2).eigenvalues, sturm_spectrum(p, 2))


def test_wrong_lifted_counts_are_repaired_on_sturm_counts(monkeypatch):
    p = ModelParams(1.0, omega=0.37, n_sites=300)
    want = sturm_spectrum(p, 11)
    off_by_one_at_some_midpoints(monkeypatch)
    sizes = spy_bisections(monkeypatch)
    assert np.array_equal(certified_spectrum(p, 11).eigenvalues, want)
    # the lifted run over all ranks, then a repair of the failed ones only
    assert len(sizes) == 2 and sizes[0] == 300 and 0 < sizes[1] < 300


def test_repair_with_other_halvings_falls_back_to_eigenvalues_bisect(monkeypatch):
    p = ModelParams(1.0, omega=0.37, n_sites=300)
    want = sturm_spectrum(p, 11)
    off_by_one_at_some_midpoints(monkeypatch)
    sizes = spy_bisections(monkeypatch, halvings_shift=1)
    assert np.array_equal(certified_spectrum(p, 11).eigenvalues, want)
    assert len(sizes) == 3 and sizes[2] == 300


def test_cache_holds_the_sturm_bisection_bytes(tmp_path, monkeypatch):
    p = ModelParams(4.0, omega=0.5, n_sites=500)
    buf = io.BytesIO()
    np.save(buf, sturm_spectrum(p, 3))
    calls = []
    real = eigensolve.certified_spectrum
    monkeypatch.setattr(eigensolve, "certified_spectrum",
                        lambda *a: calls.append(a) or real(*a))
    cached_spectrum(p, start=3, cache_dir=tmp_path)
    (path,) = tmp_path.glob("spectrum1d-*.npy")
    assert path.read_bytes() == buf.getvalue()
    assert np.array_equal(cached_spectrum(p, start=3).eigenvalues, sturm_spectrum(p, 3))
    assert len(calls) == 2  # the miss and the uncached call; a hit computes nothing
    cached_spectrum(p, start=3, cache_dir=tmp_path)
    assert len(calls) == 2


def test_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        certified_spectrum(ModelParams(1.0, n_sites=10), tol=0.0)


def counts_never_decrease(diag, energies):
    e = np.sort(np.asarray(energies, dtype=float))
    return bool(np.all(np.diff(sturm_count_batch(TridiagMatrix(diag), e)) >= 0))


def test_sturm_counts_never_decrease_at_signed_zeros():
    # the signed-zero diagonal and shifts of the blocked-pass tests
    diag = np.array([-0.0, 0.0, -0.0, 1.0, 0.0, -1.0, -0.0] * 11)
    tiny = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324]
    assert counts_never_decrease(diag, tiny + [1.0, -1.0])
    for n in (1, 2, 33):
        assert counts_never_decrease(np.zeros(n), tiny + [2.0, -2.0])


def test_sturm_counts_never_decrease_near_eigenvalues_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(lam=st.floats(0.0, 5.0), omega=st.floats(0.0, 0.999999),
                      start=st.integers(0, 10**6), n=st.integers(1, 300),
                      rank=st.floats(0.0, 1.0), reach=st.integers(1, 300))
    def prop(lam, omega, start, n, rank, reach):
        p = ModelParams(lam, omega=omega, n_sites=n)
        e = certified_spectrum(p, start).eigenvalues[int(rank * (n - 1))]
        steps = np.arange(-reach, reach + 1)
        # whole ulps of e, and single ulps across the nearest signed zero too
        energies = np.concatenate([e + steps * np.spacing(e), steps * 5e-324])
        assert counts_never_decrease(fibonacci_tridiag(p, start).diag, energies)

    prop()
