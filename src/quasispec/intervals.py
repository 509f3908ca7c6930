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

    The pairs are formed in blocks of at most _SUMSET_BLOCK = 2^16: rows
    x_i + Y, or pieces of one.  A row is sorted because y is, so pair j ends
    a row component when the next start exceeds its end.  Each block's row
    components are merged, then all blocks' results: memory is
    O(_SUMSET_BLOCK + components), not O(len(x)*len(y)).  Each endpoint is
    the same float sum as in an all-pairs merge, and a union of closed
    intervals has one merged form, so the result is exactly that merge.
    """
    if x.empty or y.empty:
        raise ValueError("sumset of an empty interval set")
    rows = max(1, _SUMSET_BLOCK // len(y))
    cols = min(len(y), _SUMSET_BLOCK)
    parts_a, parts_b = [], []
    for i in range(0, len(x), rows):
        for j in range(0, len(y), cols):
            a = x.a[i:i + rows, None] + y.a[j:j + cols]
            b = x.b[i:i + rows, None] + y.b[j:j + cols]
            end = np.ones(a.shape, dtype=bool)
            end[:, :-1] = a[:, 1:] > b[:, :-1]
            start = np.roll(end, 1, axis=1)
            ca, cb = _merge(a[start], b[end])
            parts_a.append(ca)
            parts_b.append(cb)
    return IntervalSet(*_merge(np.concatenate(parts_a), np.concatenate(parts_b)))


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
