"""Disjoint closed interval sets: covers of spectra and their arithmetic.

Shared by the trace-map cover construction and the separable 2D sumsets.
"""

from dataclasses import dataclass

import numpy as np

from .dos import _slope_with_stderr

# pairs per sumset block: about 2 MB of endpoints, however large the sets
_SUMSET_BLOCK = 2**16


@dataclass(frozen=True)
class IntervalSet:
    """Sorted, pairwise disjoint closed intervals [a_i, b_i] with b_i < a_{i+1}."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.size != b.size:
            raise ValueError("endpoint arrays differ in length")
        if a.size and (np.any(b < a) or np.any(a[1:] <= b[:-1])):
            raise ValueError("intervals must be ordered and disjoint")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __len__(self):
        return self.a.size

    @property
    def empty(self) -> bool:
        return self.a.size == 0

    def hull(self):
        if self.empty:
            raise ValueError("empty interval set has no hull")
        return float(self.a[0]), float(self.b[-1])

    def contains(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.empty:
            return np.zeros(x.shape, dtype=bool)
        i = np.searchsorted(self.a, x, side="right") - 1
        ok = i >= 0
        return ok & (x <= self.b[np.clip(i, 0, len(self) - 1)])

    def distance(self, x) -> np.ndarray:
        """Distance from point(s) x to the set (inf when empty)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.empty:
            return np.full(x.shape, np.inf)
        # the nearest interval is the last one starting at or before x, or the next
        i = np.searchsorted(self.a, x, side="right")
        near = [np.clip(i - 1, 0, len(self) - 1), np.minimum(i, len(self) - 1)]
        return np.minimum(*(np.maximum(np.maximum(self.a[k] - x, x - self.b[k]), 0.0)
                            for k in near))

    def is_subset_of(self, other: "IntervalSet") -> bool:
        i = np.searchsorted(other.a, self.a, side="right") - 1
        return bool(np.all(i >= 0) and np.all(self.b <= other.b[i]))


def interval_set(pairs) -> IntervalSet:
    """Build an IntervalSet from (a, b) pairs, merging overlaps and touches."""
    p = np.fromiter(pairs, dtype=(float, 2))
    if np.any(p[:, 1] < p[:, 0]):
        raise ValueError("interval endpoints out of order")
    return IntervalSet(*_merge(p[:, 0], p[:, 1]))


def _merge(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Components of the union of closed intervals [a_i, b_i], sorted.

    An interval joins when its start is <= the running end, so touches join;
    tied starts never split a component, so the sort need not be stable.
    """
    o = np.argsort(a)
    a, run = a[o], np.maximum.accumulate(b[o])
    new = np.ones(a.size, dtype=bool)
    new[1:] = a[1:] > run[:-1]
    return a[new], run[np.roll(new, -1)]


def lebesgue_length(s: IntervalSet) -> float:
    return float(np.sum(s.b - s.a)) if not s.empty else 0.0


def sumset(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    """Minkowski sum of two interval sets, merged disjoint.

    Two passes over the pair intervals [x.a_i + y.a_j, x.b_i + y.b_j], with
    rows i from the shorter set (float addition commutes, so the orientation
    changes no bit).  Pass 1 merges the widest _SUMSET_BLOCK // len(y) rows
    with every column, and the other rows with the widest columns, into U1.

    A pair changes U1 only if it holds a point of an open gap of U1: a point
    inside a piece [p, q] = (-inf, a_0], [b_k, a_k+1] or [b_last, inf) of
    its complement.  Its float ends then satisfy A < q and B > p.  Rounding
    is monotone, so A = fl(x.a_i + y.a_j) < q means the exact sum is below
    q, y.a_j < q - x.a_i, and y.a_j <= fl(q - x.a_i); likewise
    y.b_j >= fl(p - x.b_i).  The starts and ends of a row rise with j, so
    pass 2 finds such pairs as one j-range per row and piece, by two
    `searchsorted` calls on unwidened keys, and merges them with U1.  The
    union is then the union of all pairs, each endpoint is the same float
    sum, and a union of closed intervals has one merged form: the result is
    exactly the all-pairs merge.

    Two searches per piece cost about what a pair does, so pass 2 searches
    only while the pieces number fewer than half a row, checked after the
    widest rows and again after the widest columns.  Otherwise, and when
    the widest columns would be every column, the other rows are formed
    whole, as in an all-pairs loop.  Pairs and search arrays go in blocks
    of at most _SUMSET_BLOCK = 2^16, so memory is O(_SUMSET_BLOCK +
    components).
    """
    if x.empty or y.empty:
        raise ValueError("sumset of an empty interval set")
    if len(x) > len(y):
        x, y = y, x
    m = len(y)
    wide = np.argsort(x.a - x.b, kind="stable")  # widest first
    u = _pair_components(x, y, wide[:_SUMSET_BLOCK // m])
    rest = np.sort(wide[_SUMSET_BLOCK // m:])
    if rest.size == 0:
        return IntervalSet(*u)
    cols = np.argsort(y.a - y.b, kind="stable")[:_SUMSET_BLOCK // rest.size]
    # with no component in U1, every pair can meet the one piece
    search = cols.size < m and u[0].size > 0 and 2 * (u[0].size + 1) < m
    if search:
        u = _union(u, _pair_components(y, IntervalSet(x.a[rest], x.b[rest]), cols))
        search = 2 * (u[0].size + 1) < m
    parts = _reach(x, y, rest, u) if search else [_pair_components(x, y, rest)]
    return IntervalSet(*_union(u, *parts))


def _reach(x, y, rows, u):
    """Merged pairs of the given rows that can hold a point of a gap of u.

    Row i takes, for each piece [p, q] of the complement of u, the columns
    with y.b_j >= fl(p - x.b_i) and y.a_j <= fl(q - x.a_i) (see sumset).
    The keys go piece by piece with the rows descending, so each piece's
    keys rise; a search holds at most _SUMSET_BLOCK rows x pieces.
    """
    p = np.concatenate(([-np.inf], u[1]))
    q = np.concatenate((u[0], [np.inf]))
    down = rows[::-1]
    step = min(p.size, _SUMSET_BLOCK)
    per = max(1, _SUMSET_BLOCK // step)
    parts = []
    for k in range(0, p.size, step):
        for r in range(0, down.size, per):
            i = down[r:r + per]
            lo = np.searchsorted(y.b, p[k:k + step, None] - x.b[i], "left")
            hi = np.searchsorted(y.a, q[k:k + step, None] - x.a[i], "right")
            lo[1:] = np.maximum(lo[1:], hi[:-1])  # a pair meeting two pieces is formed once
            keep = hi > lo
            parts.append(_pair_components(x, y, np.broadcast_to(i, keep.shape)[keep],
                                          lo[keep], hi[keep]))
    return parts


def _union(*parts):
    """Merged union of interval lists given as endpoint arrays (a, b)."""
    return _merge(*(np.concatenate(e) for e in zip(*parts)))


def _pair_components(x: IntervalSet, y: IntervalSet, rows, lo=None, hi=None):
    """Merged union of the pair intervals x_i + y_j, i = rows[s], as arrays (a, b).

    Row segment s takes the columns lo[s] <= j < hi[s], or every column when
    lo is None.  Pairs are formed in blocks of at most _SUMSET_BLOCK.  A
    segment's pairs are sorted because y is, so pair k ends a run when the
    next start exceeds its end or the segment ends; each block's runs are
    merged, then all blocks' results.
    """
    parts = [(np.empty(0), np.empty(0))]
    for a, b, end in _pair_blocks(x, y, rows, lo, hi):
        end[:-1] |= a[1:] > b[:-1]
        parts.append(_merge(a[np.roll(end, 1)], b[end]))
    return _union(*parts)


def _pair_blocks(x, y, rows, lo, hi):
    """Blocks (a, b, segment-end mask) of at most _SUMSET_BLOCK pairs, flattened."""
    if lo is None:
        # whole rows: broadcast x_i + Y, or pieces of one
        per, cols = max(1, _SUMSET_BLOCK // len(y)), min(len(y), _SUMSET_BLOCK)
        for i in range(0, rows.size, per):
            for j in range(0, len(y), cols):
                a = x.a[rows[i:i + per], None] + y.a[j:j + cols]
                b = x.b[rows[i:i + per], None] + y.b[j:j + cols]
                end = np.zeros(a.shape, dtype=bool)
                end[:, -1] = True
                yield a.ravel(), b.ravel(), end.ravel()
        return
    # column ranges: pair t of the flattened segments is row s, column lo_s + t - first_s
    stop = np.cumsum(hi - lo)
    first = stop - (hi - lo)
    total = int(stop[-1]) if stop.size else 0
    for t0 in range(0, total, _SUMSET_BLOCK):
        t1 = min(t0 + _SUMSET_BLOCK, total)
        s = slice(np.searchsorted(stop, t0, "right"), np.searchsorted(first, t1, "left"))
        n = np.minimum(stop[s], t1) - np.maximum(first[s], t0)
        j = np.arange(t0, t1) + np.repeat(lo[s] - first[s], n)
        a = np.repeat(x.a[rows[s]], n) + y.a[j]
        b = np.repeat(x.b[rows[s]], n) + y.b[j]
        end = np.zeros(t1 - t0, dtype=bool)
        end[np.minimum(stop[s], t1) - t0 - 1] = True
        yield a, b, end


def gap_report(s: IntervalSet) -> list[tuple[float, float, float]]:
    """Maximal open gaps (start, end, width) inside the hull of s."""
    g0, g1 = s.b[:-1], s.a[1:]
    return list(zip(g0.tolist(), g1.tolist(), (g1 - g0).tolist()))


def box_dimension(s: IntervalSet, scales) -> tuple[float, float]:
    """Box-counting slope of log N(eps) vs log(1/eps) with its std error.

    N(eps) counts the eps-grid cells [k*eps, (k+1)*eps) that meet the set.
    """
    scales = np.asarray(scales, dtype=float)
    if scales.size < 3:
        raise ValueError("need at least 3 scales")
    if np.any(scales <= 0) or np.any(np.diff(scales) >= 0):
        raise ValueError("scales must be positive and strictly decreasing")
    if s.empty:
        raise ValueError("box dimension of the empty set")
    counts = np.array([_grid_cell_count(s, eps) for eps in scales], dtype=float)
    return _slope_with_stderr(np.log(1.0 / scales), np.log(counts))


def _grid_cell_count(s: IntervalSet, eps: float) -> int:
    lo = np.floor(s.a / eps).astype(np.int64)
    hi = np.floor(s.b / eps).astype(np.int64)
    # an interval that only touches the start of a cell does not occupy it
    touch = (hi * eps == s.b) & (hi > lo)
    hi = hi - touch
    # cells up to the highest one counted so far are not counted again
    first = lo.copy()
    first[1:] = np.maximum(lo[1:], np.maximum.accumulate(hi)[:-1] + 1)
    return int(np.sum(np.maximum(hi - first + 1, 0)))
