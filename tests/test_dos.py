import numpy as np
import pytest

from quasispec import calibration, dos
from quasispec.dos import (
    AtomicMeasure,
    cantor_lebesgue,
    cdf,
    convolution_ball_mass,
    convolution_tol,
    convolve,
    empirical_measure,
    ids_curve,
    kde_density,
    l2_bandwidth_trend,
    l2_norm,
    _merge_arrays,
    local_dimension,
    merge_atoms,
    sup_cdf_distance,
)
from quasispec.eigensolve import eigenvalues_bisect, fibonacci_tridiag, sturm_count
from quasispec.model import ModelParams

from helpers import argsort_merge, merged_ball_mass, uniform_measure


def delta(x=0.0):
    return AtomicMeasure([x], [1.0])


def bernoulli():
    return AtomicMeasure([-1.0, 1.0], [0.5, 0.5])


def test_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure([0.0, 0.0], [0.5, 0.5])       # not strictly increasing
    with pytest.raises(ValueError):
        AtomicMeasure([0.0, 1.0], [0.5, 0.6])       # mass off
    with pytest.raises(ValueError):
        AtomicMeasure([0.0], [-1.0])


def test_empirical_measure_single_and_uniform_weights():
    m = empirical_measure(np.array([0.0]))
    assert m.positions.tolist() == [0.0] and m.weights.tolist() == [1.0]
    m3 = empirical_measure(np.array([-np.sqrt(2), 0.0, np.sqrt(2)]))
    assert np.allclose(m3.weights, 1 / 3)


def test_empirical_measure_rejects_empty():
    with pytest.raises(ValueError):
        empirical_measure(np.array([]))


def test_empirical_cdf_matches_sturm_count():
    p = ModelParams(1.0, n_sites=1000)
    m = fibonacci_tridiag(p)
    spec = eigenvalues_bisect(m, params=p)
    meas = empirical_measure(spec)
    assert round(cdf(meas, 0.0) * 1000) == sturm_count(m, 0.0 + spec.tol)


def test_cdf_limits_and_midpoint():
    b = bernoulli()
    assert cdf(b, -2.0) == 0.0
    assert cdf(b, 2.0) == 1.0
    assert cdf(b, 0.0) == 0.5
    assert cdf(b, 1.0) == 1.0   # right continuity: atom included


def test_convolution_identity_element():
    b = bernoulli()
    assert sup_cdf_distance(convolve(delta(), b), b) == 0.0


def test_convolution_bernoulli_square():
    c = convolve(bernoulli(), bernoulli())
    assert c.positions.tolist() == [-2.0, 0.0, 2.0]
    assert c.weights.tolist() == [0.25, 0.5, 0.25]


def _cdf_distance_off_atoms(x, y, pad=1e-9):
    # probe strictly between atom clusters: associativity only holds up to
    # the merge tolerance, so probes must stay clear of the atoms themselves
    union = np.union1d(x.positions, y.positions)
    gaps = np.diff(union) > 2 * pad
    probes = np.concatenate(([union[0] - 1.0], 0.5 * (union[:-1][gaps] + union[1:][gaps]),
                             [union[-1] + 1.0]))
    return float(np.max(np.abs(x.mass_leq(probes) - y.mass_leq(probes))))


def test_convolution_commutes_and_associates():
    rng = np.random.default_rng(0)
    ms = []
    for _ in range(3):
        n = int(rng.integers(3, 40))
        pos = np.sort(rng.normal(size=n))
        w = rng.uniform(0.1, 1.0, n)
        ms.append(AtomicMeasure(pos, w / w.sum()))
    a, b, c = ms
    assert sup_cdf_distance(convolve(a, b), convolve(b, a)) < 1e-12
    assert _cdf_distance_off_atoms(convolve(convolve(a, b), c),
                                   convolve(a, convolve(b, c))) < 1e-10


def test_convolution_property_commutes_and_associates():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # the sampled values give exact ties and sums closer than the merge tolerance
    measure = st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-13, 2e-13]),
                                 st.floats(-4.0, 4.0)),
                       min_size=1, max_size=10, unique=True).flatmap(
        lambda pos: st.tuples(st.just(sorted(pos)),
                              st.lists(st.floats(0.1, 1.0), min_size=len(pos),
                                       max_size=len(pos))))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(ms=st.tuples(measure, measure, measure))
    def check(ms):
        a, b, c = (AtomicMeasure(p, np.asarray(w) / np.sum(w)) for p, w in ms)
        # each atom's weight is a sum of at most n products, summed again by cumsum
        n = len(a) * len(b) * len(c)
        bound = 4 * n * np.finfo(float).eps
        assert _cdf_distance_off_atoms(convolve(a, b), convolve(b, a)) <= bound
        assert _cdf_distance_off_atoms(convolve(convolve(a, b), c),
                                       convolve(a, convolve(b, c))) <= bound

    check()


def test_convolution_mass_mean_variance():
    rng = np.random.default_rng(1)
    pos = np.sort(rng.normal(size=25))
    w = rng.uniform(0.5, 1.5, 25)
    a = AtomicMeasure(pos, w / w.sum())
    b = bernoulli()
    c = convolve(a, b)
    assert abs(c.weights.sum() - 1.0) < 1e-12
    assert c.mean() == pytest.approx(a.mean() + b.mean(), abs=1e-10)
    assert c.variance() == pytest.approx(a.variance() + b.variance(), abs=1e-10)


def test_convolution_cap():
    u = uniform_measure(0, 1, 2000)
    with pytest.raises(ValueError):
        convolve(u, u, pair_cap=10**6)


def test_convolution_blocked_path_matches_single_pass():
    rng = np.random.default_rng(8)
    pos = np.sort(rng.normal(size=300))
    w = rng.uniform(0.1, 1.0, 300)
    a = AtomicMeasure(pos, w / w.sum())
    u = uniform_measure(0.0, 1.0, 300)   # grid positions force heavy merging
    for b in (a, u):
        one = convolve(a, b)
        blocked = convolve(a, b, block_pairs=7**4)
        assert len(one) == len(blocked)
        assert np.allclose(one.positions, blocked.positions, rtol=0, atol=1e-12)
        assert np.allclose(one.weights, blocked.weights, rtol=1e-12, atol=0)
        assert sup_cdf_distance(one, blocked) < 1e-12


def _measure(rng, n, equal):
    pos = np.unique(rng.normal(size=n))
    w = np.ones(pos.size) if equal else rng.uniform(0.1, 1.0, pos.size)
    return AtomicMeasure(pos, w / w.sum())


def _edges_clear_of_sums(a, b, x, radii, clearance):
    """(len(radii), len(x)) mask: both ball edges lie more than clearance
    from every pair sum of a and b."""
    sums = np.concatenate(([-np.inf], np.sort(np.add.outer(a.positions, b.positions).ravel()),
                           [np.inf]))
    r = np.asarray(radii)[:, None]
    ok = np.ones((r.size, len(x)), dtype=bool)
    for e in (x - r, x + r):
        i = sums.searchsorted(e)
        ok &= np.minimum(e - sums[i - 1], sums[i] - e) > clearance
    return ok


def test_convolution_ball_mass_matches_merged_convolution_off_the_sums():
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    grid = uniform_measure(0.0, 1.0, 40)   # sums that tie up to rounding merge
    for trial in range(24):
        a = _measure(rng, int(rng.integers(1, 50)), equal=trial % 3 == 0)
        b = grid if trial % 4 == 1 else _measure(rng, int(rng.integers(1, 50)), trial % 2 == 0)
        sums = np.add.outer(a.positions, b.positions).ravel()
        x = np.concatenate((rng.choice(sums, 100), rng.uniform(sums.min() - 1, sums.max() + 1, 100)))
        radii = np.sort(rng.uniform(1e-3, 2.0, 4))[::-1]
        ok = _edges_clear_of_sums(a, b, x, radii, convolution_tol(a, b))
        assert ok.mean() > 0.5
        got = convolution_ball_mass(a, b, x, radii)
        ref = merged_ball_mass(a, b, x, radii)
        assert got.shape == (4, 200)
        assert np.all(np.abs(got - ref)[ok] <= len(a) * len(b) * eps)


def test_convolution_ball_mass_blocks_match_one_block(monkeypatch):
    rng = np.random.default_rng(8)
    a = _measure(rng, 300, equal=False)
    x = rng.uniform(-4.0, 5.0, 500)
    radii = [1.0, 0.1, 0.01]
    u = uniform_measure(0.0, 1.0, 300)
    for b in (a, u):
        one = convolution_ball_mass(a, b, x, radii)
        for block in (7**4, 100):   # 8 rows per block; one row, longer than a block
            monkeypatch.setattr(dos, "BLOCK_PAIRS", block)
            blocked = convolution_ball_mass(a, b, x, radii)
            monkeypatch.undo()
            assert np.all(np.abs(blocked - one) <= len(a) * len(b) * np.finfo(float).eps)
    # equal weights: the same counts in any blocks
    one = convolution_ball_mass(u, u, x, radii)
    monkeypatch.setattr(dos, "BLOCK_PAIRS", 7**4)
    assert convolution_ball_mass(u, u, x, radii).tobytes() == one.tobytes()


def test_convolution_ball_mass_of_one_atom_and_the_pair_cap():
    x = np.array([0.75, 0.5, 1.0, 0.7, 0.0])
    got = convolution_ball_mass(delta(0.5), delta(0.25), x, [0.25, 0.125])
    # closed balls: the edges 0.5 and 1.0 of radius 0.25 hold the atom 0.75
    assert got.tolist() == [[1.0, 1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0, 0.0]]
    rng = np.random.default_rng(3)
    a = _measure(rng, 30, equal=False)
    x = rng.uniform(-3.0, 3.0, 50)
    got = convolution_ball_mass(delta(), a, x, [0.5, 0.05])
    assert got.tobytes() == np.array([a.ball_mass(x, 0.5), a.ball_mass(x, 0.05)]).tobytes()
    u = uniform_measure(0.0, 1.0, 10**4 + 1)
    with pytest.raises(ValueError, match="100020001 pairs, cap is 100000000"):
        convolution_ball_mass(u, u, [0.5], [0.1])


def test_sup_cdf_distance_cases():
    b = bernoulli()
    assert sup_cdf_distance(b, b) == 0.0
    assert sup_cdf_distance(delta(0.0), delta(1.0)) == 1.0


def test_merge_atoms_coalesces_and_preserves_moments():
    m = merge_atoms([0.0, 1e-15, 1.0], [0.25, 0.25, 0.5], merge_tol=1e-12)
    assert len(m) == 2
    assert m.weights.tolist() == [0.5, 0.5]
    assert m.mean() == pytest.approx(0.5 * (0.0 + 1e-15) * 0.5 + 0.5, abs=1e-16)


def test_merge_atoms_chains_transitively():
    # gaps each below tol chain into one cluster even when the cluster
    # diameter exceeds tol
    pos = [0.0, 0.9e-9, 1.8e-9, 2.7e-9]
    m = merge_atoms(pos, [0.25] * 4, merge_tol=1e-9)
    assert len(m) == 1
    assert m.positions[0] == pytest.approx(np.mean(pos), abs=1e-24)


def test_merge_atoms_rejects_negative_tol():
    with pytest.raises(ValueError):
        merge_atoms([0.0], [1.0], merge_tol=-1.0)


def test_merge_atoms_keeps_merged_atom_off_its_neighbour():
    # the mean of the two 5.0 atoms rounds to 4.999999999999999, the position
    # of the atom between them; clipped to the cluster's hull it stays at 5.0
    w = np.array([1.0] * 9 + [0.5, 0.75, 0.75, 0.25, 1.0, 0.25, 0.39453125])
    m = merge_atoms([0.0] * 13 + [5.0, 4.999999999999999, 5.0], w / w.sum(), 0.0)
    assert m.positions.tolist() == [0.0, 4.999999999999999, 5.0]


def _clusters(pos, merge_tol):
    """First and last position of each cluster of the sorted atoms."""
    s = np.sort(pos)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(s) > merge_tol) + 1))
    return s[starts], s[np.append(starts[1:], s.size) - 1]


def test_merge_property_preserves_moments_inside_hulls():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        pos=st.lists(st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1e-13, 0.5, 5.0]),
                               st.floats(-8.0, 8.0)), min_size=1, max_size=60),
        raw_w=st.lists(st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.39453125, 0.1]),
                       min_size=60, max_size=60),
        tol=st.sampled_from([0.0, 1e-12, 0.3]),
    )
    def check(pos, raw_w, tol):
        pos = np.asarray(pos)
        w = np.asarray(raw_w[:pos.size])
        gp, gw = _merge_arrays(pos, w, tol)
        n, eps = pos.size, np.finfo(float).eps
        assert np.all(np.diff(gp) > 0)
        first, last = _clusters(pos, tol)
        assert np.all((first <= gp) & (gp <= last))
        # each sum of the merge and of this check rounds at most n times; a
        # subnormal product rounds by up to half the least subnormal instead
        assert abs(gw.sum() - w.sum()) <= n * eps * w.sum()
        tiny = np.finfo(float).smallest_subnormal
        assert (abs(np.dot(gp, gw) - np.dot(pos, w))
                <= 2 * (n + 1) * (eps * np.dot(np.abs(pos), w) + tiny))

    check()


def test_merge_property_equal_weights_match_argsort_merge():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # sums of these give exact ties, chains of gaps below 0.3 and +-0.0
    values = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 0.1, 0.2, 0.25, 1e-13]),
                       st.floats(-4.0, 4.0))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        a=st.lists(values, min_size=1, max_size=25),
        b=st.lists(values, min_size=1, max_size=25),
        weight=st.sampled_from([1.0, 2.0 ** -20, 0.1, 1.0 / 3.0]),
        tol=st.sampled_from([0.0, 1e-12, 0.3]),
    )
    def check(a, b, weight, tol):
        pos = np.add.outer(a, b).ravel()
        w = np.full(pos.size, weight)
        gp, gw = _merge_arrays(pos, w, tol)
        ref_p, ref_w = argsort_merge(pos, w, tol)
        assert gp.tobytes() == ref_p.tobytes()
        assert gw.tobytes() == ref_w.tobytes()

    check()


def test_merge_of_signed_zero_ties_matches_argsort_merge():
    # -0.0 and 0.0 tie; np.sort may order them either way, and on the second
    # input it returns three -0.0 for one 0.0 and two -0.0
    for pos in ([0.0, -0.0, -0.0, 0.0, -0.0, 1.0, -1.0, -0.0],
                np.add.outer([-1.0, -0.0, -0.0], [-1.0, 1.0, -0.0]).ravel(),
                [-0.0, 2.0, -0.0, -0.0], [0.0, -0.0, 0.5, 0.0]):
        pos = np.asarray(pos)
        for tol in (0.0, 0.6, 2.0):
            gp, gw = _merge_arrays(pos, np.full(pos.size, 0.125), tol)
            ref_p, ref_w = argsort_merge(pos, np.full(pos.size, 0.125), tol)
            assert gp.tobytes() == ref_p.tobytes() and gw.tobytes() == ref_w.tobytes()


def test_cantor_convolution_matches_argsort_merge():
    eta = cantor_lebesgue(1.0 / 3.0, 10)
    conv = convolve(eta, eta)
    pos = np.add.outer(eta.positions, eta.positions).ravel()
    w = np.multiply.outer(eta.weights, eta.weights).ravel()
    ref_p, ref_w = argsort_merge(pos, w, conv.merge_tol)
    assert len(conv) == 3**10
    assert conv.positions.tobytes() == ref_p.tobytes()
    assert conv.weights.tobytes() == ref_w.tobytes()


def test_kde_delta_triangle_peak():
    h = 0.125
    d = kde_density(delta(0.0), h)
    i = int(np.argmin(np.abs(d.grid)))
    assert abs(d.grid[i]) < 1e-12
    assert d.values[i] == pytest.approx(1.0 / h, rel=1e-9)
    assert d.integral() == pytest.approx(1.0, abs=1e-3)


def test_kde_uniform_is_flat():
    u = uniform_measure(0.0, 1.0, 1000)
    d = kde_density(u, 0.05)
    inside = (d.grid > 0.1) & (d.grid < 0.9)
    assert np.all(np.abs(d.values[inside] - 1.0) < 0.1)
    assert d.integral() == pytest.approx(1.0, abs=1e-3)


def test_kde_validates_bandwidth_and_grid():
    with pytest.raises(ValueError):
        kde_density(delta(), -1.0)
    with pytest.raises(ValueError):
        kde_density(delta(), 0.1, grid=(-1.0, 1.0, 0.09))   # step > h/4
    with pytest.raises(ValueError):
        kde_density(bernoulli(), 0.1, grid=(-0.5, 2.0, 0.01))  # uncovered support


def kde_loop(m, bandwidth, grid=None):
    """Reference KDE: one renormalised triangular kernel per atom.

    The per-atom form that kde_density's binned convolution replaced; each
    kernel is scaled so its on-grid trapezoid mass equals the atom weight.
    """
    lo, hi = m.support
    if grid is None:
        step = bandwidth / 8.0
        grid = (lo - bandwidth - step, hi + bandwidth + step, step)
    gmin, gmax, step = grid
    x = np.arange(gmin, gmax + 0.5 * step, step)
    vals = np.zeros_like(x)
    half = int(np.ceil(bandwidth / step)) + 1
    for p, w in zip(m.positions, m.weights):
        c = int(round((p - gmin) / step))
        sl = slice(max(0, c - half), min(x.size, c + half + 1))
        k = np.maximum(0.0, 1.0 - np.abs(x[sl] - p) / bandwidth) / bandwidth
        mass = np.trapezoid(k, dx=step)
        if mass > 0:
            vals[sl] += w * k / mass
    return x, vals


def assert_kde_matches_loop(m, bandwidth, grid=None, rel=1e-12):
    d = kde_density(m, bandwidth, grid)
    x, ref = kde_loop(m, bandwidth, grid)
    assert np.array_equal(d.grid, x)
    assert np.max(np.abs(d.values - ref)) <= rel * np.max(ref)


def _shared_grid(m, step=calibration.KDE_STEP):
    # the grid l2_bandwidth_trend uses for the registered ladder
    lo, hi = m.support
    h = max(calibration.KDE_BANDWIDTHS)
    return (lo - h - step, hi + h + step, step)


def test_kde_matches_loop_on_dos_convolution():
    ms = []
    for lam, omega in ((0.1, 0.3), (0.4, 0.7)):
        p = ModelParams(lam, omega=omega, n_sites=200)
        ms.append(empirical_measure(eigenvalues_bisect(fibonacci_tridiag(p), params=p)))
    conv = convolve(*ms)
    for h in calibration.KDE_BANDWIDTHS:
        assert_kde_matches_loop(conv, h)                       # dos2d CSV grids
        assert_kde_matches_loop(conv, h, _shared_grid(conv, min(calibration.KDE_BANDWIDTHS) / 16))


def test_kde_matches_loop_on_criterion_10_cantor_squares():
    for cfg in (calibration.KDE_STABLE, calibration.KDE_SINGULAR):
        c = cantor_lebesgue(cfg["ratio"], cfg["depth"])
        sq = convolve(c, c)
        for h in calibration.KDE_BANDWIDTHS:
            assert_kde_matches_loop(sq, h, _shared_grid(sq))


def test_kde_matches_loop_on_single_atoms():
    h, step = 2.0 ** -4, 2.0 ** -7
    grid = (-1.0, 1.0, step)
    for x in (0.0, 3 * step, 0.3, 0.3 + 1e-13, 5 * step - 1e-15, -0.123456789):
        assert_kde_matches_loop(delta(x), h, grid, rel=1e-13)
    # atoms exactly one bandwidth from either end of the grid
    ends = AtomicMeasure([-1.0 + h, 0.2, 1.0 - h], [0.25, 0.5, 0.25])
    assert_kde_matches_loop(ends, h, grid, rel=1e-13)
    assert_kde_matches_loop(ends, h, (-1.0, 1.0, h / 16), rel=1e-13)
    d = kde_density(ends, h, grid)
    assert d.values[0] == d.values[-1] == 0.0
    assert d.integral() == pytest.approx(1.0, abs=1e-14)


def test_kde_rejects_non_integer_bandwidth_ratio():
    with pytest.raises(ValueError, match="whole number"):
        kde_density(delta(), 0.1, grid=(-1.0, 1.0, 0.1 / 7.5))
    with pytest.raises(ValueError, match="whole number"):
        kde_density(delta(), 0.1, grid=(-1.0, 1.0, 0.1 / 8 * (1 + 1e-8)))
    kde_density(delta(), 0.1, grid=(-1.0, 1.0, 0.1 / 8 * (1 + 1e-11)))


def test_kde_property_binned_matches_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        pos=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=30),
        raw_w=st.lists(st.floats(0.01, 1.0), min_size=30, max_size=30),
        h=st.floats(2.0 ** -9, 1.0),
        r=st.sampled_from([4, 8, 16, 64]),
    )
    def check(pos, raw_w, h, r):
        w = np.asarray(raw_w[:len(pos)])
        m = merge_atoms(pos, w / w.sum(), 0.0)
        lo, hi = m.support
        step = h / r
        grid = (lo - h - step, hi + h + step, step)
        d = kde_density(m, h, grid)
        assert np.all(d.values >= 0)
        # grid resolution u = ulp(M)/step with M = max|grid end|: np.arange spaces
        # the nodes by fl(gmin + step) - gmin, within ulp(M)/2 of step, and
        # places each node within 1.5 ulp(M)
        u = np.spacing(max(abs(grid[0]), abs(grid[1]))) / step
        # the binned values sum to 1/step and integrate with the node spacing
        assert abs(d.integral() - 1.0) <= 1e-12 + u / 2
        # the oracle's hat argument is off by at most 1.375 u (r >= 4), and its
        # renormalisation over <= 2r + 3 nodes by (2r + 3)/r times that again
        _, ref = kde_loop(m, h, grid)
        assert np.max(np.abs(d.values - ref)) <= 1e-12 * np.max(ref) + 6 * u / h

    check()


def test_kde_fraction_roundoff_gives_no_negative_density():
    # the binning fraction of this atom computes to 1 + 2e-16
    p, h, r = 0.2247427810382406, 0.4129736861389153, 4
    step = h / r
    d = kde_density(delta(p), h, grid=(p - h - step, p + h + step, step))
    assert np.all(d.values >= 0)
    assert d.integral() == pytest.approx(1.0, abs=1e-14)


def test_l2_norm_flat_density():
    u = uniform_measure(0.0, 1.0, 4000)
    assert l2_norm(kde_density(u, 0.02)) == pytest.approx(1.0, rel=0.02)


def test_l2_norm_single_triangle_closed_form():
    h = 2.0 ** -6
    d = kde_density(delta(0.0), h, grid=(-2 * h, 2 * h, h / 16))
    assert l2_norm(d) == pytest.approx(np.sqrt(2.0 / (3.0 * h)), rel=0.01)


def test_l2_trend_flags_singular_vs_stable():
    h1, h2 = calibration.KDE_BANDWIDTHS
    stable = convolve(cantor_lebesgue(**{"ratio": calibration.KDE_STABLE["ratio"],
                                         "depth": calibration.KDE_STABLE["depth"]}),
                      cantor_lebesgue(calibration.KDE_STABLE["ratio"],
                                      calibration.KDE_STABLE["depth"]))
    tr = l2_bandwidth_trend(stable, [h1, h2], step=calibration.KDE_STEP)
    assert tr[1][1] / tr[0][1] < calibration.L2_FLAG_GROWTH
    # the near-critical pair is bandwidth-stable to within 10%
    assert tr[1][1] / tr[0][1] == pytest.approx(1.0, abs=0.10)
    singular = convolve(cantor_lebesgue(calibration.KDE_SINGULAR["ratio"],
                                        calibration.KDE_SINGULAR["depth"]),
                        cantor_lebesgue(calibration.KDE_SINGULAR["ratio"],
                                        calibration.KDE_SINGULAR["depth"]))
    tr = l2_bandwidth_trend(singular, [h1, h2], step=calibration.KDE_STEP)
    assert tr[1][1] / tr[0][1] >= calibration.L2_FLAG_GROWTH


def test_l2_trend_grows_with_coupling_for_dos_squares():
    # the finite-volume DOS convolution squares never cross the singularity
    # flag at these bandwidths (their growth saturates near 1.3), but the
    # ladder ratio is a clean monotone signal of the coupling
    ratios = []
    for lam, n in ((0.2, 400), (8.0, 600)):
        p = ModelParams(lam, n_sites=n)
        m = empirical_measure(eigenvalues_bisect(fibonacci_tridiag(p), params=p))
        conv = convolve(m, m)
        tr = l2_bandwidth_trend(conv, sorted(calibration.KDE_BANDWIDTHS, reverse=True))
        ratios.append(tr[1][1] / tr[0][1])
    assert ratios[1] > ratios[0] + 0.15
    assert all(r < calibration.L2_FLAG_GROWTH for r in ratios)


def test_local_dimension_uniform():
    u = uniform_measure(0.0, 1.0, 10**4)
    slope, err = local_dimension(u, [2.0 ** -k for k in range(4, 9)], 400, seed=1)
    assert slope == pytest.approx(1.0, abs=0.05)


def test_local_dimension_single_atom():
    slope, err = local_dimension(delta(), [0.5, 0.25, 0.125], 100, seed=0)
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_local_dimension_cantor():
    cal = calibration.CANTOR_LOCAL_DIM
    m = cantor_lebesgue(1.0 / 3.0, cal["depth"])
    slope, err = local_dimension(m, cal["radii"], cal["samples"], seed=cal["seed"])
    assert slope == pytest.approx(np.log(2) / np.log(3), abs=cal["tol"])


def test_local_dimension_validates_inputs():
    u = uniform_measure(0, 1, 200)
    with pytest.raises(ValueError):
        local_dimension(u, [0.5, 0.25], 100)            # too few radii
    with pytest.raises(ValueError):
        local_dimension(u, [0.5, 0.25, 0.1], 10)        # too few samples
    with pytest.raises(ValueError):
        local_dimension(u, [0.5, 0.25, 1e-16], 100)     # below atom resolution


def test_ids_curve_free_laplacian():
    p = ModelParams(0.0, n_sites=100)
    s = eigenvalues_bisect(fibonacci_tridiag(p), params=p)
    curve = ids_curve(s, np.array([-3.0, 0.0, 3.0]))
    assert curve[0, 1] == 0.0
    assert curve[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert curve[2, 1] == 1.0


def test_ids_reference_value_and_stability():
    ref = calibration.IDS_REFERENCE
    p = ModelParams(ref["lam"], omega=ref["omega"], n_sites=1000)
    s = eigenvalues_bisect(fibonacci_tridiag(p), params=p)
    v = cdf(empirical_measure(s), ref["energy"])
    assert v == pytest.approx(ref["value"], abs=ref["tol"])
    p2 = ModelParams(ref["lam"], omega=ref["omega"], n_sites=2000)
    s2 = eigenvalues_bisect(fibonacci_tridiag(p2), params=p2)
    assert cdf(empirical_measure(s2), ref["energy"]) == pytest.approx(v, abs=0.01)


def test_finite_volume_convergence_of_dos():
    conv = calibration.IDS_CONVERGENCE
    ms = []
    for n in (conv["n_small"], conv["n_large"]):
        p = ModelParams(conv["lam"], n_sites=n)
        ms.append(empirical_measure(eigenvalues_bisect(fibonacci_tridiag(p), params=p)))
    assert sup_cdf_distance(*ms) < conv["sup_cdf_tol"]


def test_ball_mass_matches_direct_summation():
    rng = np.random.default_rng(4)
    pos = np.sort(rng.normal(size=80))
    w = rng.uniform(0.1, 1.0, 80)
    m = AtomicMeasure(pos, w / w.sum())
    for _ in range(200):
        x = rng.uniform(-3, 3)
        r = rng.uniform(0.01, 2.0)
        brute = m.weights[(m.positions >= x - r) & (m.positions <= x + r)].sum()
        assert m.ball_mass(x, r) == pytest.approx(brute, abs=1e-15)


def test_cdf_is_monotone_right_continuous():
    rng = np.random.default_rng(5)
    pos = np.sort(rng.normal(size=50))
    w = rng.uniform(0.1, 1, 50)
    m = AtomicMeasure(pos, w / w.sum())
    grid = np.linspace(pos[0] - 1, pos[-1] + 1, 500)
    vals = m.mass_leq(grid)
    assert np.all(np.diff(vals) >= 0)
    # right limits equal the value at each atom
    assert np.allclose(m.mass_leq(m.positions), m.mass_leq(m.positions + 1e-13))
