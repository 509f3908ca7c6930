"""CSV and manifest serialization shared by the command-line drivers.

CSV files carry a header row, '.' decimals, LF line endings, and 17
significant digits so doubles round-trip exactly.  Every primary output gets
a JSON manifest sidecar with the full parameter map and content hashes.

Each CSV value is written as format(x, '.17g') writes it, a block of values
at a time, by `_format_block`.  Its digits are exact:

- X = floor(log10|x|) comes from numpy's log10, which may be one off near a
  power of ten.  For |X| <= 290 a table holds 10**(16 - X) as hi + lo, each
  correctly rounded, so hi + lo is within 2**-106 of it relatively.
- Dekker's two-product (Veltkamp halves of 26 bits; no overflow or
  underflow for |X| <= 290) gives |x|*hi = p + err exactly.  With
  r = err + |x|*lo, |x|*10**(16 - X) = p + r + eps where |eps| < 1e-14
  while p < 10**17, and p is an integer once p >= 2**53.
- N = p + round(r) is then round(|x|*10**(16 - X)) unless the fractional
  part of r lies within 1e-9 of 1/2.  Such values, exact ties included, are
  not certified: '%.17g' rounds ties to even.
- 10**16 < N < 10**17 certifies X.  The product exceeds 10**16, so X is
  not one too high, where the product could round up to exactly 10**16; it
  is below 10**17 - 1/2, so X is not one too low and the digits do not
  round up to the next power of ten.  N is then the 17-digit significand.

The %g layout follows from N and X: fixed notation for -4 <= X < 17, else
scientific; trailing zeros, and a '.' they leave bare, dropped; exponents of
at least two digits.  Zero and -0 are written directly.  The values left
uncertified (near-ties, N == 10**16, N outside that range, |X| > 290, which
takes in the subnormals) are formatted one at a time by format(x, '.17g').
They are rare in program output: exact powers of ten such as 1.0, and
binary fractions with a tie at the 17th digit.
"""

import contextlib
import functools
import hashlib
import json
import math
import os
import time
from itertools import islice
from pathlib import Path

import numpy as np

ARTIFACT_VERSION = "quasispec-0.1.0"


def fmt(x) -> str:
    """x as '%.17g' writes it; a NaN or infinite value raises ValueError."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x}")
    return format(x, ".17g")


CSV_BLOCK_ROWS = 1024
_MAX_EXP = 290          # |X| bound: the table's lo parts and the products stay normal
_SPLIT = 2.0**27 + 1    # Veltkamp's splitting constant for 53-bit doubles
_TIE_MARGIN = 1e-9
# one value's layout: sign, '0.000' (fixed notation below 1), 17 digits each
# followed by a '.' slot, 'e+000', then the separator
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 17 + b"e+000,", np.uint8)
_WIDTH = _TEMPLATE.size
_GROUP_OFFSETS = np.arange(4) * 10_000


def _layouts():
    """Which of the _WIDTH chars each value keeps, by layout code (see
    _format_block): form*34 + last*2 + sign, where form is X + 4 in fixed
    notation (X = -4..16), 21 in scientific notation with a two-digit
    exponent and 22 with a three-digit one, and last is the position of the
    last nonzero digit."""
    form, last, sign = (g.ravel() for g in np.indices((23, 17, 2)))
    x = form - 4
    fixed = form <= 20
    point = np.where(fixed, np.maximum(x, -1), 0)   # digit the '.' follows; -1: '0.' prefix
    pos = np.arange(17)
    keep = np.empty((form.size, _WIDTH), bool)
    keep[:, 0] = sign
    keep[:, 1] = keep[:, 2] = point < 0
    keep[:, 3:6] = fixed[:, None] & (x[:, None] <= [-2, -3, -4])
    keep[:, 6:40:2] = pos <= np.maximum(last, point)[:, None]
    keep[:, 7:40:2] = (pos == point[:, None]) & (last > point)[:, None]
    keep[:, 40:45] = ~fixed[:, None]
    keep[:, 42] &= form == 22
    keep[:, 45] = True
    return keep


@functools.cache
def _tables():
    """The constant tables of _format_block:
    - 10**(16 - X) for |X| <= 290 as columns hi, lo and hi's Veltkamp
      halves, indexed by 290 - X;
    - the ASCII 4-digit groups 0000..9999 as uint32;
    - for group k = 0..3 of the 16 digits after the lead, at k*10**4 + q,
      the position among them of the last nonzero digit of q (0 for 0000);
    - the chars 'e+XXX' of each exponent X, and its form times 34 (see
      _layouts), indexed by X + 290;
    - the layouts of _layouts."""
    rows = []
    for s in range(16 - _MAX_EXP, 17 + _MAX_EXP):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi = num / den                  # int division rounds correctly
        h_num, h_den = hi.as_integer_ratio()
        lo = (num * h_den - h_num * den) / (den * h_den)
        m, e = math.frexp(hi)
        c = m * _SPLIT
        m_hi = c - (c - m)
        rows.append((hi, lo, math.ldexp(m_hi, e), math.ldexp(m - m_hi, e)))
    # small dtypes throughout: the temporaries would stay in the heap
    q = np.arange(10_000, dtype=np.int16)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1).astype(np.uint8)
    last = (4 - (digits[:, ::-1] != 0).argmax(axis=1)).astype(np.uint8) * (q > 0)
    ex = np.arange(-_MAX_EXP, _MAX_EXP + 1)
    exp_chars = np.column_stack([np.full(ex.size, ord("e")), np.where(ex < 0, ord("-"), ord("+")),
                                 abs(ex) // 100 + 48, abs(ex) // 10 % 10 + 48, abs(ex) % 10 + 48])
    form = np.where((ex >= -4) & (ex < 17), ex + 4, np.where(abs(ex) < 100, 21, 22))
    return (np.array(rows).T.copy(),
            (digits + ord("0")).view(np.uint32).ravel(),
            ((last + np.arange(0, 16, 4, dtype=np.uint8)[:, None]) * (q > 0)).ravel(),
            exp_chars.astype(np.uint8), form * 34, _layouts())


def _format_block(block):
    """CSV bytes of a finite float64 array of shape (rows, cols): each value as
    format(x, '.17g') writes it, ',' between values and LF after each row."""
    powers, groups, group_last, exp_chars, form, layouts = _tables()
    v = block.ravel()
    n = v.size
    a = np.abs(v)
    zero = a == 0
    with np.errstate(divide="ignore"):
        x = np.floor(np.log10(a))
    inrange = np.abs(x) <= _MAX_EXP
    x = np.where(inrange, x, 0).astype(np.int64)
    a = np.where(inrange, a, 1.0)       # zeros then read as 1, digits 1000...

    hi, lo, hi_h, hi_l = powers.take(_MAX_EXP - x, axis=1)
    p = a * hi
    c = a * _SPLIT
    a_h = c - (c - a)
    a_l = a - a_h
    r = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * lo
    whole = np.floor(r)
    frac = r - whole
    sig = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    certified = (inrange & (np.abs(frac - 0.5) >= _TIE_MARGIN)
                 & (sig > 10**16) & (sig < 10**17))

    # sig = lead, then four groups of 4 digits
    upper = sig // 10**8
    lead = upper // 10**8
    halves = np.empty((n, 2), np.int64)
    halves[:, 0] = upper - lead * 10**8
    halves[:, 1] = sig - upper * 10**8
    quads = np.empty((n, 2, 2), np.int64)
    quads[..., 0] = halves // 10**4
    quads[..., 1] = halves - quads[..., 0] * 10**4
    quads = quads.reshape(n, 4)
    chars = np.empty((n, _WIDTH), np.uint8)
    chars[:] = _TEMPLATE
    chars[:, 6] = np.where(zero, 0, lead) + ord("0")
    chars[:, 8:40:2] = groups.take(quads).view(np.uint8).reshape(n, 16)
    chars[:, 40:45] = exp_chars.take(x + _MAX_EXP, axis=0)
    chars.reshape(-1, block.shape[1], _WIDTH)[:, -1, -1] = ord("\n")

    last = group_last.take(quads + _GROUP_OFFSETS)
    last = np.maximum(np.maximum(last[:, 0], last[:, 1]), np.maximum(last[:, 2], last[:, 3]))
    keep = layouts.take(form.take(x + _MAX_EXP) + last * 2 + np.signbit(v), axis=0)

    slow = ~(certified | zero)
    if slow.any():
        text = np.array([fmt(u).encode() for u in v[slow]], f"S{_WIDTH - 1}")
        text = text.view(np.uint8).reshape(-1, _WIDTH - 1)
        chars[slow, :-1] = text
        keep[slow, :-1] = text != 0
    return chars.ravel().take(np.flatnonzero(keep.ravel())).tobytes()


def _blocks(rows, cols):
    """float64 arrays of at most CSV_BLOCK_ROWS rows of `cols` values."""
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != cols:
            raise ValueError(f"CSV rows must be an array of shape (n, {cols})")
        for i in range(0, len(rows), CSV_BLOCK_ROWS):
            yield np.asarray(rows[i:i + CSV_BLOCK_ROWS], np.float64)
        return
    rows = iter(rows)
    while block := list(islice(rows, CSV_BLOCK_ROWS)):
        if set(map(len, block)) != {cols}:
            raise ValueError(f"every CSV row must have {cols} values")
        yield np.array(block, np.float64)


def write_csv(path, header, rows):
    """Atomically write numeric rows under a header line.

    rows is a 2-D array with one column per header name, or any iterable of
    equal-length numeric rows (tuples, 1-D arrays); it is consumed once, in
    blocks of CSV_BLOCK_ROWS rows, so memory stays bounded by one block
    whatever the row count.  A NaN or infinite value raises ValueError and
    leaves path as it was.
    """
    path = Path(path)
    with atomic_write(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in _blocks(rows, len(header)):
            if not np.isfinite(block).all():
                raise ValueError(f"non-finite value in {path.name}")
            fh.write(_format_block(block))
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
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    return write_text(path, text + "\n")


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
                     np.column_stack([measure.positions, measure.weights]))


def intervals_to_csv(path, s):
    return write_csv(path, ["a", "b"], np.column_stack([s.a, s.b]))


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
