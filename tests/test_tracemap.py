import numpy as np
import pytest

from quasispec.intervals import lebesgue_length
from quasispec.tracemap import (
    Point3,
    escape_steps,
    escape_test,
    fricke_vogt,
    initial_point,
    lyapunov_finite,
    lyapunov_scan,
    refine_bounded_energy,
    spectrum_cover,
    trace_step,
)

from helpers import allprobe_cover, trace_step_inverse


def test_trace_step_fixed_points_and_example():
    assert trace_step(Point3(0, 0, 0)) == Point3(0, 0, 0)
    assert trace_step(Point3(1, 1, 1)) == Point3(1, 1, 1)
    assert trace_step(Point3(0.5, 0.25, 0.1)) == Point3(0.15, 0.5, 0.25)


def test_trace_step_inverse_round_trip():
    assert trace_step_inverse(Point3(1, 1, 1)) == Point3(1, 1, 1)
    assert trace_step_inverse(Point3(0, 0, 1)) == Point3(0, 1, 0)
    p = Point3(0.5, 0.25, 0.1)
    q = trace_step_inverse(trace_step(p))
    assert max(abs(q.x - p.x), abs(q.y - p.y), abs(q.z - p.z)) < 1e-15


def test_round_trip_randomized():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = Point3(*rng.uniform(-5, 5, 3))
        q = trace_step_inverse(trace_step(p))
        r = trace_step(trace_step_inverse(p))
        for s in (q, r):
            assert abs(s.x - p.x) <= 1e-12 * max(1, abs(p.x))
            assert abs(s.y - p.y) <= 1e-12 * max(1, abs(p.y))
            assert abs(s.z - p.z) <= 1e-12 * max(1, abs(p.z))


def test_fricke_vogt_values():
    assert fricke_vogt((1, 1, 1)) == 0.0
    assert fricke_vogt((0, 0, 0)) == -1.0
    assert fricke_vogt((0.5, 0.25, 0.1)) == pytest.approx(-0.7025, abs=1e-15)


def test_invariant_conserved_along_orbits():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-5, 5, (100_000, 3))
    g0 = (pts ** 2).sum(axis=1) - 2 * pts.prod(axis=1) - 1.0
    stepped = np.column_stack([2 * pts[:, 0] * pts[:, 1] - pts[:, 2],
                               pts[:, 0], pts[:, 1]])
    g1 = (stepped ** 2).sum(axis=1) - 2 * stepped.prod(axis=1) - 1.0
    norm3 = np.linalg.norm(pts, axis=1) ** 3
    assert np.all(np.abs(g1 - g0) <= 1e-9 * (1.0 + norm3))


def test_initial_point_lies_on_invariant_surface():
    assert initial_point(2.0, 0.0) == Point3(1.0, 1.0, 1.0)
    assert initial_point(0.0, 0.0) == Point3(0.0, 0.0, 1.0)
    assert initial_point(1.0, 2.0) == Point3(-0.5, 0.5, 1.0)
    rng = np.random.default_rng(2)
    for _ in range(300):
        e = rng.uniform(-6, 6)
        lam = rng.uniform(0, 5)
        g = fricke_vogt(initial_point(e, lam))
        assert abs(g - lam * lam / 4.0) <= 1e-12


def test_escape_free_energy_zero_cycles():
    # orbit of (0,0,1) is the period-6 cycle through signed basis points
    r = escape_test(0.0, 0.0, 100, threshold=10.0)
    assert not r.escaped and r.steps == 100 and r.exit_norm == 1.0


def test_escape_outside_free_spectrum():
    r = escape_test(3.0, 0.0, 100)
    assert r.escaped and r.steps <= 10
    r = escape_test(100.0, 1.0, 50)
    assert r.escaped and r.steps <= 2
    assert r.exit_norm > 4.0


def test_escape_validates_arguments():
    with pytest.raises(ValueError):
        escape_test(0.0, 0.0, 0)
    with pytest.raises(ValueError):
        escape_test(0.0, 0.0, 10, threshold=1.0)
    # the production paths share one threshold check
    with pytest.raises(ValueError, match="threshold must be >= 2"):
        escape_steps([0.0, 1.0], 0.5, 10, threshold=1.999)
    with pytest.raises(ValueError, match="threshold must be >= 2"):
        lyapunov_finite(2.0, 0.0, 10, threshold=1.0)


def test_escape_threshold_parameter_is_honored():
    # the lam=0, E=2.6 orbit grows through 4 quickly but needs longer to
    # pass a higher bar; escape steps are monotone in the threshold
    s_lo = escape_test(2.6, 0.0, 200, threshold=4.0).steps
    s_hi = escape_test(2.6, 0.0, 200, threshold=1e6).steps
    assert escape_test(2.6, 0.0, 200, threshold=4.0).escaped
    assert escape_test(2.6, 0.0, 200, threshold=1e6).escaped
    assert s_lo <= s_hi


def test_escape_steps_agree_with_scalar():
    es = np.linspace(-3, 3, 101)
    lam = 0.8
    vec = escape_steps(es, lam, 60)
    for i, e in enumerate(es):
        r = escape_test(float(e), lam, 60)
        assert r.escaped == (vec[i] <= 60)
        if r.escaped:
            assert r.steps == vec[i]


def test_cover_free_spectrum_length():
    cov = spectrum_cover(0.0, (-3.0, 3.0), depth=12, max_iter=200)
    assert lebesgue_length(cov) == pytest.approx(4.0, rel=0.05)
    # E = 2.5 lies in an escaping cell
    assert not cov.contains([2.5])[0]
    assert cov.contains([0.0])[0]


def test_cover_nesting_in_max_iter():
    base = spectrum_cover(1.0, depth=10, max_iter=14)
    deeper = spectrum_cover(1.0, depth=10, max_iter=20)
    assert deeper.is_subset_of(base)


def test_cover_validates():
    with pytest.raises(ValueError):
        spectrum_cover(1.0, (2.0, 1.0), depth=8)
    with pytest.raises(ValueError):
        spectrum_cover(1.0, (-3.0, 4.0), depth=0)


def test_cover_length_decreases_with_coupling():
    lens = [lebesgue_length(spectrum_cover(lam, depth=12, max_iter=16))
            for lam in (0.0, 1.0, 4.0)]
    assert lens[0] > lens[1] > lens[2] > 0


def test_lyapunov_at_fixed_point_matches_jacobian_eigenvalue():
    # E=2, lam=0 sits at the fixed point (1,1,1); the top eigenvalue of the
    # Jacobian there is the largest root of t^3 - 2t^2 - 2t + 1
    top = max(abs(np.roots([1.0, -2.0, -2.0, 1.0])))
    got = lyapunov_finite(2.0, 0.0, 2000)
    assert got == pytest.approx(np.log(top), abs=1e-3)


def test_lyapunov_positive_on_free_spectrum():
    vals = [lyapunov_finite(e, 0.0, 300) for e in (-1.7, -0.9, 0.3, 1.2)]
    assert all(v > 0 for v in vals)


def test_lyapunov_raises_on_escape():
    with pytest.raises(RuntimeError):
        lyapunov_finite(3.0, 0.0, 100)


def test_refine_bounded_energy_reaches_horizon():
    cov = spectrum_cover(1.0, depth=10, max_iter=16)
    i = len(cov) // 2
    e = refine_bounded_energy(cov.a[i], cov.b[i], 1.0, 60)
    assert e is not None
    assert not escape_test(e, 1.0, 60).escaped


def test_lyapunov_scan_reproducible_and_positive():
    r1 = lyapunov_scan([0.5], 8, 30, depth=10, seed=5)
    r2 = lyapunov_scan([0.5], 8, 30, depth=10, seed=5)
    assert r1 == r2
    lam, mean, spread = r1[0]
    assert mean > 0 and spread >= 0
    r3 = lyapunov_scan([0.5], 8, 30, depth=10, seed=99)
    assert abs(r3[0][1] - mean) < 2 * (spread + r3[0][2])


def test_lyapunov_scan_rejects_empty_grid():
    with pytest.raises(ValueError):
        lyapunov_scan([], 4, 20)


def test_lyapunov_scan_needs_two_energies_for_a_spread():
    with pytest.raises(ValueError, match="at least 2"):
        lyapunov_scan([0.5], 1, 20, depth=8)


def test_lyapunov_scan_free_coupling_entry():
    rows = lyapunov_scan([0.0], 8, 40, depth=10, seed=1)
    assert np.isfinite(rows[0][1]) and rows[0][1] > 0


def test_cover_box_dimension_decreases_with_coupling():
    from quasispec.intervals import box_dimension

    scales = [2.0 ** -k for k in range(3, 10)]
    dims = [box_dimension(spectrum_cover(lam, depth=12, max_iter=16), scales)[0]
            for lam in (0.5, 1.0, 2.0, 4.0)]
    assert all(0.0 < d < 1.0 for d in dims)
    assert all(a > b for a, b in zip(dims, dims[1:]))


def loop_escape_steps(energies, lam, max_iter, threshold=None):
    """The fixed-size escape loop that masked dead orbits, kept as an oracle."""
    thr = max(4.0, 2.0 + lam) if threshold is None else threshold
    E = np.atleast_1d(np.asarray(energies, dtype=float))
    x, y, z = (E - lam) / 2.0, E / 2.0, np.ones_like(E)
    prev1 = np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z)))
    prev2 = np.full_like(E, np.inf)
    steps = np.full(E.shape, max_iter + 1, dtype=np.int64)
    alive = np.ones(E.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iter + 1):
            x, y, z = 2.0 * x * y - z, x, y
            mk = np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z)))
            esc = ~np.isfinite(mk) | ((mk > thr) & (mk > prev1) & (prev1 > prev2))
            steps[alive & esc] = k
            alive &= ~esc
            if not alive.any():
                break
            prev2 = np.where(alive, prev1, 0.0)
            prev1 = np.where(alive, mk, 0.0)
            x = np.where(alive, x, 0.0)
            y = np.where(alive, y, 0.0)
            z = np.where(alive, z, 0.0)
    return steps


# non-finite, overflowing and subnormal energies, mixed into the draws below
EXTREME_ENERGIES = [np.inf, -np.inf, np.nan, 1e300, -1e300, 1.7e308, -1.7e308, 5e-324]


def _escape_case(lam, max_iter, threshold=None):
    tag = f"{lam}-{max_iter}" + ("" if threshold is None else f"-thr{threshold:g}")
    return pytest.param(lam, max_iter, threshold, id=tag)


@pytest.mark.parametrize("lam, max_iter, threshold", [
    _escape_case(0.3, 42), _escape_case(1.0, 40), _escape_case(4.0, 15),
    _escape_case(0.3, 42, 2.0), _escape_case(1.0, 40, 1e6), _escape_case(4.0, 15, 1e6),
    _escape_case(0.5, 1), _escape_case(0.5, 2), _escape_case(0.5, 3),
    _escape_case(0.0, 60),
])
def test_escape_steps_match_masked_loop_and_scalar_test(lam, max_iter, threshold):
    rng = np.random.default_rng(int(10 * lam))
    draw = rng.uniform(-3.0, 3.0 + lam, 3000)
    draw[rng.choice(400, len(EXTREME_ENERGIES), replace=False)] = EXTREME_ENERGIES
    es = np.concatenate([draw, np.linspace(-3.0, 3.0 + lam, 2**12 + 1)])
    steps = escape_steps(es, lam, max_iter, threshold)
    assert np.array_equal(steps, loop_escape_steps(es, lam, max_iter, threshold))
    assert 0 < np.sum(steps > max_iter) < es.size
    for e, k in zip(es[:400], steps[:400]):
        r = escape_test(float(e), lam, max_iter, threshold)
        assert r.steps == (k if r.escaped else max_iter) and r.escaped == (k <= max_iter)
    grid = es[:3000].reshape(60, 50)
    assert np.array_equal(escape_steps(grid, lam, max_iter, threshold),
                          steps[:3000].reshape(60, 50))


def test_cover_rejects_bad_coupling_and_depth_before_allocating():
    from quasispec.model import ParameterError
    from quasispec.tracemap import MAX_DEPTH
    for lam in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ParameterError):
            spectrum_cover(lam, depth=4)
    # depth 40 would ask for 2^40 cells (8 TiB of probe arrays)
    for depth in (0, -3, MAX_DEPTH + 1, 40):
        with pytest.raises(ParameterError):
            spectrum_cover(0.3, depth=depth)


def _cover_cases():
    for lam in (0.0, 0.3, 0.5, 2.0, 4.0):
        for depth in (8, 12, 15):
            yield pytest.param(lam, depth, {}, id=f"{lam}-{depth}")
            if lam >= 2.0:  # the default budget empties these covers
                yield pytest.param(lam, depth, {"max_iter": 10}, id=f"{lam}-{depth}-iter10")
    yield pytest.param(0.5, 12, {"window": (-1.3, 2.05)}, id="0.5-12-window")
    yield pytest.param(0.3, 12, {"threshold": 10.0}, id="0.3-12-thr10")


@pytest.mark.parametrize("lam, depth, kwargs", _cover_cases())
def test_cover_skipping_decided_midpoints_matches_all_probe_cover(lam, depth, kwargs):
    cov = spectrum_cover(lam, depth=depth, **kwargs)
    ref = allprobe_cover(lam, depth=depth, **kwargs)
    assert np.array_equal(cov.a, ref.a) and np.array_equal(cov.b, ref.b)
    assert not cov.empty or (lam >= 2.0 and not kwargs)

