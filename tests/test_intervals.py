import numpy as np
import pytest

import quasispec.intervals
from helpers import allpairs_sumset
from quasispec.intervals import (
    IntervalSet,
    _grid_cell_count,
    box_dimension,
    gap_report,
    interval_set,
    lebesgue_length,
    sumset,
)


def cantor_cover(depth):
    ivs = [(0.0, 1.0)]
    for _ in range(depth):
        ivs = [p for a, b in ivs for p in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))]
    return interval_set(ivs)


def test_interval_set_merges_overlaps_and_touches():
    s = interval_set([(0, 1), (0.5, 2), (2, 3), (5, 6)])
    assert s.a.tolist() == [0.0, 5.0]
    assert s.b.tolist() == [3.0, 6.0]


def test_interval_set_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        interval_set([(1.0, 0.0)])
    with pytest.raises(ValueError):
        interval_set([(0.0, 5.0), (3.0, 1.0)])  # reversed pair inside a merged one
    with pytest.raises(ValueError):
        IntervalSet(np.array([0.0, 0.5]), np.array([1.0, 2.0]))


def test_lebesgue_length():
    assert lebesgue_length(interval_set([])) == 0.0
    assert lebesgue_length(interval_set([(-2, 2)])) == 4.0


def test_sumset_basic():
    a = interval_set([(0, 1)])
    assert sumset(a, a).a.tolist() == [0.0]
    assert sumset(a, a).b.tolist() == [2.0]
    b = interval_set([(0, 1), (10, 11)])
    s = sumset(b, a)
    assert s.a.tolist() == [0.0, 10.0]
    assert s.b.tolist() == [2.0, 12.0]


def test_sumset_commutes_and_identity():
    x = cantor_cover(6)
    y = interval_set([(0.0, 0.25), (0.7, 1.0)])
    xy = sumset(x, y)
    yx = sumset(y, x)
    assert np.array_equal(xy.a, yx.a) and np.array_equal(xy.b, yx.b)
    zero = interval_set([(0.0, 0.0)])
    sx = sumset(x, zero)
    assert np.array_equal(sx.a, x.a) and np.array_equal(sx.b, x.b)


def test_sumset_length_bounded_by_hull_sum():
    x = cantor_cover(5)
    y = cantor_cover(5)
    s = sumset(x, y)
    hull = (x.hull()[1] - x.hull()[0]) + (y.hull()[1] - y.hull()[0])
    assert lebesgue_length(s) <= hull + 1e-12


def test_sumset_rejects_empty():
    with pytest.raises(ValueError):
        sumset(interval_set([]), interval_set([(0, 1)]))


def test_gap_report():
    assert gap_report(interval_set([(0, 1)])) == []
    assert gap_report(interval_set([(0, 1), (2, 3)])) == [(1.0, 2.0, 1.0)]


def test_box_dimension_full_interval():
    slope, err = box_dimension(interval_set([(0, 1)]), [2.0 ** -k for k in range(2, 9)])
    assert slope == pytest.approx(1.0, abs=0.02)


def test_box_dimension_cantor_cover():
    slope, err = box_dimension(cantor_cover(10), [2.0 ** -k for k in range(3, 11)])
    assert slope == pytest.approx(np.log(2) / np.log(3), abs=0.05)


def test_box_dimension_validates():
    s = interval_set([(0, 1)])
    with pytest.raises(ValueError):
        box_dimension(s, [0.5, 0.25])
    with pytest.raises(ValueError):
        box_dimension(interval_set([]), [0.5, 0.25, 0.125])


def test_distance_and_membership():
    s = interval_set([(0, 1), (3, 4)])
    assert s.contains([0.5, 2.0, 3.0]).tolist() == [True, False, True]
    d = s.distance([0.5, 2.0, 5.0])
    assert d.tolist() == [0.0, 1.0, 1.0]
    assert np.isinf(interval_set([]).distance([0.0])[0])


def test_subset_query():
    outer = interval_set([(0, 2), (5, 7)])
    assert interval_set([(0.5, 1.0), (6, 7)]).is_subset_of(outer)
    assert not interval_set([(1.5, 2.5)]).is_subset_of(outer)


def random_interval_set(rng, n):
    starts = np.sort(rng.uniform(-5, 5, n))
    widths = rng.uniform(0.01, 0.8, n)
    return interval_set(zip(starts, starts + widths))


def test_sumset_covers_all_pointwise_sums():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = random_interval_set(rng, int(rng.integers(1, 8)))
        y = random_interval_set(rng, int(rng.integers(1, 8)))
        s = sumset(x, y)
        # sample points from each factor; every pairwise sum must be covered
        for _ in range(50):
            i = rng.integers(0, len(x))
            j = rng.integers(0, len(y))
            px = rng.uniform(x.a[i], x.b[i])
            py = rng.uniform(y.a[j], y.b[j])
            assert s.contains([px + py])[0]


def brute_cell_count(s, eps):
    lo = int(np.floor(s.a[0] / eps)) - 1
    hi = int(np.floor(s.b[-1] / eps)) + 1
    count = 0
    for k in range(lo, hi + 1):
        c0, c1 = k * eps, (k + 1) * eps
        # cell meets the set with positive overlap length, or holds a
        # single-point interval
        if np.any(np.minimum(s.b, c1) - np.maximum(s.a, c0) > 0) or \
                np.any((s.a == s.b) & (s.a >= c0) & (s.a < c1)):
            count += 1
    return count


def test_grid_cell_count_against_brute_force(depth12_covers):
    rng = np.random.default_rng(23)
    cases = [(random_interval_set(rng, int(rng.integers(1, 6))),
              float(rng.uniform(0.05, 0.9))) for _ in range(30)]
    # dyadic sets, where intervals touch cell edges exactly, and real covers
    sets = [random_dyadic_set(rng, int(rng.integers(1, 40))) for _ in range(40)]
    sets += list(depth12_covers.values())
    cases += [(s, eps) for s in sets for eps in (0.5, 0.125, 0.1, 2.0 ** -7, 0.03)]
    for s, eps in cases:
        assert _grid_cell_count(s, eps) == brute_cell_count(s, eps)


# ---- the Python loops the vectorised interval code replaced, kept as oracles

def sweep_interval_set(pairs):
    pairs = sorted((float(a), float(b)) for a, b in pairs)
    out_a, out_b = [pairs[0][0]], [pairs[0][1]]
    for a, b in pairs[1:]:
        if a <= out_b[-1]:
            out_b[-1] = max(out_b[-1], b)
        else:
            out_a.append(a)
            out_b.append(b)
    return np.asarray(out_a), np.asarray(out_b)


def sweep_sumset(x, y):
    a = np.add.outer(x.a, y.a).ravel()
    b = np.add.outer(x.b, y.b).ravel()
    order = np.argsort(a, kind="stable")
    a, b = a[order], b[order]
    out_a, out_b = [], []
    cur_a, cur_b = a[0], b[0]
    for i in range(1, a.size):
        if a[i] <= cur_b:
            if b[i] > cur_b:
                cur_b = b[i]
        else:
            out_a.append(cur_a)
            out_b.append(cur_b)
            cur_a, cur_b = a[i], b[i]
    out_a.append(cur_a)
    out_b.append(cur_b)
    return np.asarray(out_a), np.asarray(out_b)


def loop_distance(s, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = np.full(x.shape, np.inf)
    for lo, hi in zip(s.a, s.b):
        d = np.minimum(d, np.maximum(np.maximum(lo - x, x - hi), 0.0))
    return d


def loop_is_subset_of(s, other):
    for lo, hi in zip(s.a, s.b):
        i = np.searchsorted(other.a, lo, side="right") - 1
        if i < 0 or hi > other.b[i]:
            return False
    return True


def assert_same(s, ab):
    a, b = ab
    assert np.array_equal(s.a, a) and np.array_equal(s.b, b)
    assert s.a.tobytes() == a.tobytes() and s.b.tobytes() == b.tobytes()


COVER_LAMBDAS = (0.3, 0.35, 0.4, 0.45, 0.5)


@pytest.fixture(scope="module")
def depth12_covers():
    from quasispec.tracemap import spectrum_cover
    return {lam: spectrum_cover(lam, depth=12) for lam in COVER_LAMBDAS}


def test_sumset_matches_sweep_on_cover_pairs(depth12_covers):
    for i, l1 in enumerate(COVER_LAMBDAS):
        for l2 in COVER_LAMBDAS[i + 1:]:
            x, y = depth12_covers[l1], depth12_covers[l2]
            assert_same(sumset(x, y), sweep_sumset(x, y))
            assert_same(sumset(y, x), sweep_sumset(x, y))


def test_sumset_matches_sweep_at_strong_coupling():
    from quasispec.calibration import SUMSET_LARGE
    from quasispec.tracemap import spectrum_cover
    c = spectrum_cover(SUMSET_LARGE["lam"], depth=SUMSET_LARGE["depth"],
                       max_iter=SUMSET_LARGE["max_iter"])
    s = sumset(c, c)
    assert len(gap_report(s)) >= 1
    assert_same(s, sweep_sumset(c, c))


@pytest.mark.parametrize("n, m", [(300, 400), (3, 70_000)])
def test_sumset_matches_sweep_over_several_blocks(n, m):
    from quasispec.intervals import _SUMSET_BLOCK
    rng = np.random.default_rng(n + m)
    # dyadic endpoints on a coarse grid, so that many sums touch exactly
    x = interval_set((a, a + w) for a, w in zip(rng.integers(0, 4 * n, n) / 8,
                                                 rng.integers(0, 3, n) / 8))
    y = interval_set((a, a + w) for a, w in zip(rng.integers(0, 40 * m, m) / 64,
                                                 rng.integers(0, 2, m) / 64))
    assert len(x) * len(y) > _SUMSET_BLOCK
    if m > _SUMSET_BLOCK:
        assert len(y) > _SUMSET_BLOCK  # each row is split into pieces
    assert_same(sumset(x, y), sweep_sumset(x, y))


@pytest.mark.parametrize("block", [1, 3, 7, 64])
def test_sumset_block_size_does_not_change_result(monkeypatch, depth12_covers, block):
    x, y = depth12_covers[0.3], depth12_covers[0.5]
    want = sumset(x, y)
    monkeypatch.setattr("quasispec.intervals._SUMSET_BLOCK", block)
    got = sumset(x, y)
    assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)


def test_interval_set_matches_sorted_sweep():
    rng = np.random.default_rng(5)
    for n in (1, 2, 17, 500):
        starts = rng.integers(0, n, n) / 4
        pairs = list(zip(starts, starts + rng.integers(0, 3, n) / 4))
        assert_same(interval_set(pairs), sweep_interval_set(pairs))


def test_interval_set_accepts_a_generator():
    pairs = [(3.0, 4.0), (0.0, 1.0), (1.0, 2.0), (5.5, 6.0)]
    s = interval_set(p for p in pairs)
    assert_same(s, sweep_interval_set(pairs))
    assert s.a.tolist() == [0.0, 3.0, 5.5]
    assert interval_set(iter([])).empty


def random_dyadic_set(rng, n, scale=8):
    a = rng.integers(-8 * scale, 8 * scale, n) / scale
    return interval_set(zip(a, a + rng.integers(0, 2 * scale, n) / scale))


def test_distance_and_subset_match_loops(depth12_covers):
    rng = np.random.default_rng(29)
    sets = [random_dyadic_set(rng, int(rng.integers(1, 40))) for _ in range(40)]
    sets += list(depth12_covers.values())
    for s in sets:
        lo, hi = s.hull()
        x = np.concatenate([rng.uniform(lo - 2, hi + 2, 200), s.a, s.b,
                            np.arange(lo - 1, hi + 1, 0.125)])
        assert np.array_equal(s.distance(x), loop_distance(s, x))
    for s, t in zip(sets, sets[1:] + sets[:1]):
        u = sumset(s, interval_set([(0.0, 0.0)]))
        sub = interval_set(zip(s.a[::2], s.a[::2] + (s.b[::2] - s.a[::2]) / 2))
        for p, q in ((s, t), (t, s), (sub, s), (s, sub), (u, s), (s, interval_set([]))):
            assert p.is_subset_of(q) == loop_is_subset_of(p, q)
    assert interval_set([]).is_subset_of(interval_set([]))


def test_sumset_properties_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    quarter = st.integers(-40, 40).map(lambda k: k / 4)
    width = st.integers(0, 6).map(lambda k: k / 4)
    sets = st.lists(st.tuples(quarter, width), min_size=1, max_size=12).map(
        lambda ps: interval_set((a, a + w) for a, w in ps))

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(x=sets, y=sets, keep=st.lists(st.booleans(), min_size=12, max_size=12))
    def prop(x, y, keep):
        s = sumset(x, y)
        assert_same(s, sweep_sumset(x, y))
        t = sumset(y, x)
        assert s.a.tobytes() == t.a.tobytes() and s.b.tobytes() == t.b.tobytes()
        for ex in (x.a, x.b):
            for ey in (y.a, y.b):
                assert s.contains(np.add.outer(ex, ey).ravel()).all()
        # a subset of x gives a subset of the sumset
        sub = [(a, b) for a, b, k in zip(x.a, x.b, keep) if k]
        if sub:
            assert sumset(interval_set(sub), y).is_subset_of(s)

    prop()


# ---- the two-pass sumset against the blocked all-pairs merge it replaced

@pytest.fixture
def searches(monkeypatch):
    """Record (rows, pieces) of every pass-2 search that sumset makes."""
    calls = []
    reach = quasispec.intervals._reach

    def counted(x, y, rows, u):
        calls.append((rows.size, u[0].size + 1))
        return reach(x, y, rows, u)

    monkeypatch.setattr(quasispec.intervals, "_reach", counted)
    return calls


@pytest.fixture(scope="module")
def depth15_covers():
    from quasispec.tracemap import spectrum_cover
    return {lam: spectrum_cover(lam, depth=15) for lam in COVER_LAMBDAS}


def test_sumset_equals_allpairs_on_depth15_cover_pairs(depth15_covers, searches):
    for i, l1 in enumerate(COVER_LAMBDAS):
        for l2 in COVER_LAMBDAS[i + 1:]:
            x, y = depth15_covers[l1], depth15_covers[l2]
            ref = allpairs_sumset(x, y)
            want = ref.a, ref.b
            assert_same(sumset(x, y), want)
            assert_same(sumset(y, x), want)
    # about 2,000 intervals a side; each of the 20 calls searched a few pieces
    assert len(searches) == 20 and all(k < 20 for _, k in searches)


@pytest.mark.parametrize("block", [2**16, 2**10])
@pytest.mark.parametrize("max_iter", [None, 30])
def test_sumset_equals_allpairs_on_gap_rich_self_sums(monkeypatch, searches, block, max_iter):
    from quasispec.tracemap import spectrum_cover
    c = spectrum_cover(1.0, depth=15, max_iter=max_iter)
    want = allpairs_sumset(c, c)
    monkeypatch.setattr("quasispec.intervals._SUMSET_BLOCK", block)
    assert_same(sumset(c, c), (want.a, want.b))
    if max_iter is None:
        # 196 intervals whose sumset has 2,330 components: pass 1 is all
        # pairs, or leaves more pieces than half a row and forms whole rows
        assert len(want) == 2330 and searches == []
    else:
        # 678 intervals and 64 components: pass 2 searches 157 or 257 pieces
        assert len(want) == 64 and len(searches) == 1 and searches[0][1] > 100


def test_reach_forms_every_pair_that_can_change_the_union():
    # pass 2 on its own, against unions u with edges at or one ulp from the
    # pair ends.  Operands of mixed magnitude make q - x.a round onto y.a
    # while x.a + y.a < q, which is where the sides of the searches matter
    from quasispec.intervals import _reach, _union
    rng = np.random.default_rng(31)

    def draw():
        a = rng.uniform(-3, 3, rng.integers(1, 12)) * 2.0 ** rng.integers(-2, 3)
        return interval_set(zip(a, a + rng.choice([0.0, 1e-3, 0.05, 0.3], a.size)))

    for _ in range(500):
        x, y = draw(), draw()
        a, b = np.add.outer(x.a, y.a).ravel(), np.add.outer(x.b, y.b).ravel()
        edges = np.concatenate([a, b, np.nextafter(a, np.inf), np.nextafter(b, -np.inf)])
        v = np.unique(rng.choice(edges, 2 * rng.integers(1, 6)))
        if v.size < 2:
            continue
        u = (v[0:-1:2], v[1::2])
        got = IntervalSet(*_union(*_reach(x, y, np.arange(len(x)), u)))
        # a pair inside one component of u cannot change the union; every
        # other pair must lie in what pass 2 formed
        k = np.maximum(np.searchsorted(u[0], a, "right") - 1, 0)
        need = (a < u[0][k]) | (b > u[1][k])
        assert interval_set(zip(a[need], b[need])).is_subset_of(got)


def test_sumset_equals_allpairs_at_strong_coupling():
    from quasispec.calibration import SUMSET_LARGE
    from quasispec.tracemap import spectrum_cover
    c = spectrum_cover(SUMSET_LARGE["lam"], depth=SUMSET_LARGE["depth"],
                       max_iter=SUMSET_LARGE["max_iter"])
    want = allpairs_sumset(c, c)
    assert_same(sumset(c, c), (want.a, want.b))


def test_sumset_two_passes_match_sweep_hypothesis(monkeypatch, searches):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def up(v):
        return float(np.nextafter(v, np.inf))

    def steps(top):
        # eighths, where sums are exact and touch; tenths, where they round;
        # or one ulp (None)
        return st.one_of(st.integers(1, top).map(lambda k: k / 8),
                         st.integers(1, top).map(lambda k: k / 10), st.just(None))

    def build(first, items):
        # intervals laid end to end; a width of 0 gives a point
        ivs, b = [], first
        for gap, width in items:
            a = up(b) if gap is None else b + gap
            b = up(a) if width is None else a + width
            ivs.append((a, b))
        return interval_set(ivs)

    items = st.lists(st.tuples(steps(4), steps(12) | st.just(0.0)), min_size=1, max_size=24)
    sets = st.builds(build, st.integers(-20, 20).map(lambda k: k / 4), items)

    # blocks of a share of all pairs, so that pass 1 takes some rows and
    # columns and leaves rows to pass 2; the smallest give several blocks
    def check(x, y, share):
        monkeypatch.setattr("quasispec.intervals._SUMSET_BLOCK",
                            max(1, len(x) * len(y) // share))
        s = sumset(x, y)
        assert_same(s, sweep_sumset(x, y))
        assert_same(sumset(y, x), (s.a, s.b))

    hypothesis.settings(max_examples=150, deadline=None, database=None)(
        hypothesis.given(x=sets, y=sets, share=st.sampled_from([2, 3, 5, 40]))(check))()

    # the same kind of sets from a fixed numpy draw, where the count of
    # pass-2 searches does not depend on the random examples above
    rng = np.random.default_rng(0)

    def step(top, zero=False):
        k = int(rng.integers(1, top + 1))
        return (k / 8, k / 10, None, 0.0)[rng.integers(4 if zero else 3)]

    def draw():
        items = [(step(4), step(12, zero=True)) for _ in range(rng.integers(1, 25))]
        return build(int(rng.integers(-20, 21)) / 4, items)

    searches.clear()
    for _ in range(150):
        check(draw(), draw(), int(rng.choice([2, 3, 5, 40])))
    assert len(searches) >= 15  # pass 2 searched in a good share of the examples
