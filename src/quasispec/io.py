"""CSV and manifest serialization shared by the command-line drivers.

CSV files carry a header row, '.' decimals, LF line endings, and 17
significant digits so doubles round-trip exactly.  Every primary output gets
a JSON manifest sidecar with the full parameter map and content hashes.
"""

import contextlib
import hashlib
import json
import os
import time
from itertools import chain, islice
from pathlib import Path

import numpy as np

ARTIFACT_VERSION = "quasispec-0.1.0"


def fmt(x) -> str:
    return format(float(x), ".17g")


CSV_BLOCK_ROWS = 8192


def write_csv(path, header, rows):
    """Atomically write numeric rows under a header line.

    rows may be any iterable of equal-length numeric rows (tuples, arrays,
    the rows of a 2-D array); it is consumed once, in blocks of
    CSV_BLOCK_ROWS rows, each formatted by a single '%.17g' format, so
    memory stays bounded by one block whatever the row count.
    """
    path = Path(path)
    cols = len(header)
    line = ",".join(["%.17g"] * cols) + "\n"
    rows = iter(rows)
    with atomic_write(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            if set(map(len, block)) != {cols}:
                raise ValueError(f"every CSV row must have {cols} values")
            fh.write((line * len(block) % tuple(chain.from_iterable(block))).encode())
    return path


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.asarray(rows)


def params_hash(params: dict) -> str:
    blob = json.dumps({k: repr(v) if isinstance(v, float) else v
                       for k, v in params.items()}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(path, command: str, params: dict, outputs, duration: float,
                   seed=None, extra: dict | None = None):
    """JSON sidecar recording the run; outputs must already exist."""
    manifest = {
        "command": command,
        "params": {k: str(v) for k, v in params.items()},
        "params_hash": params_hash(params),
        "outputs": [{"file": str(Path(o).name), "sha256": file_hash(o)} for o in outputs],
        "duration_s": round(duration, 3),
        "seed": seed,
        "version": ARTIFACT_VERSION,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    if extra:
        manifest.update(extra)
    return write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def write_text(path, text: str):
    """Atomic text write (write-then-rename)."""
    with atomic_write(path) as fh:
        fh.write(text.encode())
    return Path(path)


@contextlib.contextmanager
def atomic_write(path):
    """Binary file handle whose contents replace path only on success.

    The data goes to a temporary file with a unique name in the same
    directory, which is renamed over path once written; concurrent writers
    therefore never share a partial file, and readers see either the old or
    the new contents in full.  On error the temporary file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # exclusive create, not tempfile.mkstemp: mkstemp makes the file 0600,
    # which the rename would carry over to every artefact
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def measure_to_csv(path, measure):
    return write_csv(path, ["position", "weight"],
                     zip(measure.positions, measure.weights))


def intervals_to_csv(path, s):
    return write_csv(path, ["a", "b"], zip(s.a, s.b))


def load_config(path) -> dict:
    """Flat key=value config file; '#' starts a comment."""
    cfg = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        k, v = line.split("=", 1)
        cfg[k.strip()] = v.strip()
    return cfg
