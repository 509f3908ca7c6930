import sys
import threading

import numpy as np
import pytest

from quasispec.io import CSV_BLOCK_ROWS, atomic_write, read_csv, write_csv, write_text


def csv_reference(header, rows) -> bytes:
    """Reference CSV bytes: one format(float(x), '.17g') call per value."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return ("\n".join(lines) + "\n").encode()


def _cases():
    rng = np.random.default_rng(3)
    a = rng.normal(size=CSV_BLOCK_ROWS * 2 + 5) * 10.0 ** rng.integers(-30, 30, CSV_BLOCK_ROWS * 2 + 5)
    b = rng.uniform(-1, 1, a.size)
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.1, 1.0, 2, np.float32(0.1)]
    return {
        "generator of tuples": (["e"], lambda: ((x,) for x in b[:100])),
        "zip of float64 arrays": (["x", "y"], lambda: zip(a[:500], b[:500])),
        "2-D array": (["x", "y", "z"], lambda: np.column_stack([a[:300], b[:300], a[:300] * b[:300]])),
        "several blocks": (["x", "y"], lambda: zip(a, b)),
        "exactly one block": (["x"], lambda: ((x,) for x in a[:CSV_BLOCK_ROWS])),
        "no rows": (["x", "y"], lambda: iter(())),
        "special values": (["v", "w"], lambda: [(v, -v) for v in special]),
        "list of tuples": (["n", "lam", "err"], lambda: [(6, 1.0, 3.5e-15)]),
    }


@pytest.mark.parametrize("name", list(_cases()))
def test_write_csv_bytes_match_per_value_formatter(tmp_path, name):
    header, rows = _cases()[name]
    f = write_csv(tmp_path / "t.csv", header, rows())
    assert f.read_bytes() == csv_reference(header, rows())


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
