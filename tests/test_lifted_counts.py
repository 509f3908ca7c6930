"""Lifted transfer-matrix counts against Sturm passes and closed forms.

The lifted count of a Fibonacci box may differ from a Sturm pass only within
rounding of an eigenvalue.  Measured: at lam = 4, N = 4181, 31 of 8,362
probes at eigenvalue +- 1e-12 * _pivot_scale disagreed and none at +- 1e-11
* scale; at lam <= 1 none disagreed at 1e-12 * scale.  The oracles compare at
energies farther than GAP * scale from every eigenvalue, ten times the
largest measured distance, found as the energies whose Sturm counts at
E - GAP * scale and E + GAP * scale agree.
"""

import dataclasses
import json

import numpy as np
import pytest

from quasispec import cli, dos, eigensolve
from quasispec.cli import main
from quasispec.eigensolve import (
    _bisect_ranks,
    _bisect_tree,
    _pivot_scale,
    box_counter,
    certified_spectrum,
    eigenvalues_bisect,
    fibonacci_tridiag,
    sturm_count_batch,
)
from quasispec.model import GOLDEN_CONJUGATE, ModelParams

GAP = 1e-10


def away_from_eigenvalues(counter, energies):
    """The energies farther than GAP * scale from every eigenvalue, with their Sturm counts."""
    d = GAP * _pivot_scale(counter.matrix.diag)
    below = sturm_count_batch(counter.matrix, energies - d)
    keep = below == sturm_count_batch(counter.matrix, energies + d)
    return energies[keep], below[keep]


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 4.0])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 987, 1000, 4181])
def test_lifted_counts_equal_sturm_away_from_eigenvalues(lam, n):
    rng = np.random.default_rng(int(1000 * lam) + n)
    p = ModelParams(lam, omega=float(rng.uniform()), n_sites=n)
    counter = box_counter(p, start=int(rng.integers(1, 10**6)))
    assert counter.backend == "lifted"
    grid = np.concatenate([rng.uniform(-2.5, lam + 2.5, 1500),
                           np.linspace(-2.5, lam + 2.5, 1001)])
    e, want = away_from_eigenvalues(counter, grid)
    assert e.size > 0.9 * grid.size
    assert np.array_equal(counter.count(e), want)


@pytest.mark.parametrize("n", [1, 2, 7, 100, 987])
def test_free_box_counts_the_laplacian_eigenvalues(n):
    rng = np.random.default_rng(n)
    eigs = 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    e = rng.uniform(-2.2, 2.2, 2000)
    e = e[np.min(np.abs(e[:, None] - eigs[None, :]), axis=1) > 1e-9]
    # the letters, not the all-zero potential, locate the box in c
    counter = box_counter(ModelParams(0.0, omega=0.3, n_sites=n), start=17)
    assert counter.backend == "lifted"
    want = np.count_nonzero(eigs[None, :] < e[:, None], axis=1)
    assert np.array_equal(counter.count(e), want)


def test_gap_energy_counts_zero():
    # long products are near rank one in a gap; comparing the two image
    # angles there counted 12 where the dot product's sign counts 0
    counter = box_counter(ModelParams(0.0, n_sites=987))
    assert counter.count(np.array([-2.137]))[0] == 0


def test_one_ulp_above_a_single_site_counts_one():
    # atan2(1, 5.6e-17) rounds to pi/2, so only the sign of x decides
    counter = box_counter(ModelParams(1.0, n_sites=1))
    assert counter.backend == "lifted" and counter.matrix.diag[0] == 0.0
    assert counter.count(np.array([5.6e-17, 0.0, -5.6e-17])).tolist() == [1, 0, 0]


def test_letters_not_in_the_fibonacci_word_fall_back_to_sturm():
    p = ModelParams(1.5, omega=0.2, alpha=0.3, n_sites=60)
    counter = box_counter(p, start=5)
    assert counter.backend == "sturm"
    e = np.linspace(-2.5, 4.0, 301)
    assert np.array_equal(counter.count(e), sturm_count_batch(fibonacci_tridiag(p, 5), e))


@pytest.mark.parametrize("lam, omega", [(0.3, 0.41), (1.0, 0.0), (2.5, 0.77)])
def test_count_route_reproduces_the_spectrum_route(lam, omega):
    p = ModelParams(lam, omega=omega, n_sites=300)
    counter = box_counter(p, start=3)
    spec = eigenvalues_bisect(fibonacci_tridiag(p, 3))
    assert np.array_equal(counter.eigenvalues([1, 300]), spec.eigenvalues[[0, -1]])
    grid = np.linspace(spec.eigenvalues[0] - 0.1, spec.eigenvalues[-1] + 0.1, 257)
    assert np.array_equal(dos.ids_from_counts(counter, grid), dos.ids_curve(spec, grid))
    radii = [2.0 ** -j for j in range(4, 10)]
    want = dos.local_dimension(dos.empirical_measure(spec), radii, samples=200, seed=9)
    assert dos.local_dimension_from_counts(counter, radii, samples=200, seed=9) == want


def test_count_blocks_match_one_block():
    counter = box_counter(ModelParams(1.0, omega=0.6, n_sites=200))
    e = np.linspace(-2.5, 3.5, 2500).reshape(50, 50)
    got = counter.count(e)
    assert got.shape == e.shape
    assert np.array_equal(got.ravel(), np.concatenate([counter.count(r) for r in e]))


def rank_sets(n, rng):
    """All ranks, the two ends, random ranks with repeats, and a scalar and a 2-D rank."""
    return {"all": np.arange(1, n + 1), "ends": np.array([1, n]),
            "random": rng.integers(1, n + 1, 60), "repeats": rng.integers(1, min(n, 7) + 1, 120),
            "scalar": np.asarray(n), "2-D": rng.integers(1, n + 1, (3, 4))}


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 4.0])
@pytest.mark.parametrize("n", [1, 2, 3, 50, 1000, 4181])
def test_tree_bisection_equals_the_per_rank_loop(lam, n):
    rng = np.random.default_rng(int(100 * lam) + 3 * n)
    p = ModelParams(lam, omega=float(rng.uniform()), n_sites=n)
    counter = box_counter(p, start=int(rng.integers(1, 10**6)))
    assert counter.backend == "lifted"
    counts = {"lifted": counter.count, "sturm": lambda e: sturm_count_batch(counter.matrix, e)}
    for name, ranks in rank_sets(n, rng).items():
        for backend, count in counts.items():
            if backend == "sturm" and n > 1000 and name not in ("ends", "repeats"):
                continue  # 41 Sturm passes of 4181 sites take 0.5-3 s per loop
            want = _bisect_ranks(count, ranks, *counter.matrix.gershgorin(), counter.tol)
            got = _bisect_tree(count, ranks, *counter.matrix.gershgorin(), counter.tol)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[2] == want[2]


def spy_count_calls(monkeypatch):
    """Record the number of energies of each BoxCounter.count call."""
    sizes = []
    real = eigensolve.BoxCounter.count

    def count(self, energies):
        sizes.append(np.size(energies))
        return real(self, energies)

    monkeypatch.setattr(eigensolve.BoxCounter, "count", count)
    return sizes


def test_tree_bisection_count_call_budget(monkeypatch):
    p = ModelParams(1.0, omega=0.37, n_sites=1000)
    counter = box_counter(p, start=5)
    sizes = spy_count_calls(monkeypatch)
    counter.eigenvalues(np.array([1, 1000]))  # the ranks of ids
    assert 0 < len(sizes) <= 6 and max(sizes) <= eigensolve._COUNT_BLOCK
    sizes.clear()
    eigs = counter.eigenvalues(np.arange(1, 1001))
    assert 0 < len(sizes) <= 33 and max(sizes) <= eigensolve._COUNT_BLOCK
    sizes.clear()
    assert np.array_equal(certified_spectrum(p, 5).eigenvalues, np.sort(eigs))
    assert 0 < len(sizes) <= 33 and max(sizes) <= eigensolve._COUNT_BLOCK


def test_dimension_counts_the_balls_of_each_distinct_atom_once(monkeypatch):
    n, samples, radii = 300, 400, [2.0 ** -j for j in range(4, 10)]
    counter = box_counter(ModelParams(1.0, omega=0.37, n_sites=n), start=5)
    w = np.full(n, 1.0 / n)
    drawn = np.unique(np.random.default_rng(9).choice(n, size=samples, p=w / w.sum()))
    assert drawn.size < samples
    sizes = spy_count_calls(monkeypatch)
    dos.local_dimension_from_counts(counter, radii, samples=samples, seed=9)
    assert sizes[-1] == 2 * len(radii) * drawn.size


@pytest.mark.parametrize("command, csv", [("ids", "ids.csv"), ("dimension", "dimension.csv")])
def test_manifests_name_the_count_backend(tmp_path, monkeypatch, command, csv):
    # exact letters are a factor of the Fibonacci word at every offset, 10^15
    # too; at the rotation number 0.3 (no flag sets it) they are not
    real = cli._model
    for start, alpha, backend in (("0", GOLDEN_CONJUGATE, "lifted"),
                                  ("1000000000000000", GOLDEN_CONJUGATE, "lifted"),
                                  ("0", 0.3, "sturm")):
        monkeypatch.setattr(cli, "_model", lambda args, which=1, alpha=alpha:
                            dataclasses.replace(real(args, which), alpha=alpha))
        out = tmp_path / f"{start}-{alpha}"
        assert main([command, "--lambda", "1", "--n", "120", "--start", start,
                     "--out", str(out)]) == 0
        assert (out / csv).exists()
        manifest = json.loads((out / f"{command}.manifest.json").read_text())
        assert manifest["count_backend"] == backend


def test_lifted_counts_equal_sturm_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(lam=st.floats(0.0, 5.0), omega=st.floats(0.0, 0.999999),
                      start=st.integers(0, 10**6), n=st.integers(1, 400),
                      energies=st.lists(st.floats(-3.0, 8.0), min_size=1, max_size=50))
    def prop(lam, omega, start, n, energies):
        counter = box_counter(ModelParams(lam, omega=omega, n_sites=n), start=start)
        e, want = away_from_eigenvalues(counter, np.asarray(energies))
        assert np.array_equal(counter.count(e), want)

    prop()
