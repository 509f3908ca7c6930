import sys
import threading

import numpy as np
import pytest

from quasispec import io
from quasispec.io import CSV_BLOCK_ROWS, atomic_write, read_csv, write_csv, write_text


def csv_reference(header, rows) -> bytes:
    """Reference CSV bytes: one format(float(x), '.17g') call per value."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return ("\n".join(lines) + "\n").encode()


def _near_powers_of_ten():
    """10**k for k in -30..30 and the doubles on both sides of it."""
    p = 10.0 ** np.arange(-30, 31)
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


# doubles just below 10**k whose 17 significant digits round up to 10**k
ROUND_UP_TO_POWER = [1e-305, 1e-243, 1e-176, 1e-175, 1e-174, 1e-79, 1e-78, 1e-73, 1e-70,
                     1e-14, 1e98, 1e129, 1e153, 1e220]
# %g switches to scientific notation below 1e-4 and from 1e17 on
SWITCH_POINTS = [1e-5, 1e-4, 1e16, 1e17]


def _cases():
    rng = np.random.default_rng(3)
    a = rng.normal(size=CSV_BLOCK_ROWS * 2 + 5) * 10.0 ** rng.integers(-30, 30, CSV_BLOCK_ROWS * 2 + 5)
    b = rng.uniform(-1, 1, a.size)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e300, 0.1, 1.0, 2,
               np.float32(0.1)]
    near = _near_powers_of_ten()
    switch = np.concatenate([SWITCH_POINTS, np.nextafter(SWITCH_POINTS, 0),
                             np.nextafter(SWITCH_POINTS, np.inf)])
    return {
        "generator of tuples": (["e"], lambda: ((x,) for x in b[:100])),
        "zip of float64 arrays": (["x", "y"], lambda: zip(a[:500], b[:500])),
        "2-D array": (["x", "y", "z"], lambda: np.column_stack([a[:300], b[:300], a[:300] * b[:300]])),
        "several blocks": (["x", "y"], lambda: zip(a, b)),
        "exactly one block": (["x"], lambda: ((x,) for x in a[:CSV_BLOCK_ROWS])),
        "no rows": (["x", "y"], lambda: iter(())),
        "special values": (["v", "w"], lambda: [(v, -v) for v in special]),
        "list of tuples": (["n", "lam", "err"], lambda: [(6, 1.0, 3.5e-15)]),
        "powers of ten and neighbours": (["v", "w"], lambda: np.column_stack([near, -near])),
        "%g switch points": (["v"], lambda: switch[:, None]),
        "rounding up to a power of ten": (["v"], lambda: [(v,) for v in ROUND_UP_TO_POWER]),
        # exact ties at the 17th digit: round-half-even gives ...624.2 and ...624.8
        "exact ties": (["v", "w"], lambda: [(1125899906842624.25, 1125899906842624.75)]),
        "int and float32": (["i", "f"], lambda: [(7, np.float32(1.1)),
                                                 (-12345678901234567, np.float32(-3e-7))]),
        # the benchmark tracer hands write_csv its rows one at a time
        "rows of a 2-D array, one at a time": (["x", "y"],
                                               lambda: (r for r in np.column_stack([a, b]))),
    }


@pytest.mark.parametrize("name", list(_cases()))
def test_write_csv_bytes_match_per_value_formatter(tmp_path, name):
    header, rows = _cases()[name]
    f = write_csv(tmp_path / "t.csv", header, rows())
    assert f.read_bytes() == csv_reference(header, rows())


def test_write_csv_bytes_match_for_any_finite_doubles(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    doubles = st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.uint64(bits).view(np.float64))).filter(np.isfinite)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(data=st.integers(1, 3).flatmap(
        lambda cols: st.lists(st.lists(doubles, min_size=cols, max_size=cols), max_size=12)))
    def prop(data):
        header = ["c"] * (len(data[0]) if data else 1)
        path = write_csv(tmp_path / "t.csv", header, data)
        assert path.read_bytes() == csv_reference(header, data)

    # blocks of 5 rows, so that the drawn rows cross block boundaries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "CSV_BLOCK_ROWS", 5)
        prop()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_csv_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "t.csv"
    path.write_text("old\n")
    rows = np.ones((CSV_BLOCK_ROWS + 3, 2))
    rows[-1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        write_csv(path, ["a", "b"], rows)
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_manifest_rejects_non_finite_values(tmp_path, bad):
    with pytest.raises(ValueError, match="non-finite"):
        io.fmt(bad)
    f = write_text(tmp_path / "out.csv", "x\n1\n")
    with pytest.raises(ValueError, match="JSON compliant"):
        io.write_manifest(tmp_path / "out.manifest.json", "ids", {}, [f], 0.1,
                          extra={"value": bad})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_write_csv_round_trips_doubles(tmp_path):
    rng = np.random.default_rng(9)
    data = rng.normal(size=(1000, 2)) * 1e-7
    _, back = read_csv(write_csv(tmp_path / "t.csv", ["a", "b"], data))
    assert np.array_equal(back, data)


def test_write_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("old\n")
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [(1.0, 2.0), (3.0,), (4.0, 5.0, 6.0)])
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_atomic_write_removes_temporary_file_on_error(tmp_path):
    path = tmp_path / "t.bin"
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write(b"partial")
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []


def test_concurrent_writers_never_mix_contents(tmp_path):
    path = tmp_path / "shared.txt"
    contents = [str(i) * 50_000 for i in range(4)]   # more writers than cores
    errors = []

    def writer(text):
        try:
            for _ in range(10):
                write_text(path, text)
        except Exception as err:   # reported to the main thread below
            errors.append(err)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(c,)) for c in contents]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert path.read_text() in contents
    assert [p.name for p in tmp_path.iterdir()] == ["shared.txt"]
