"""Symmetric tridiagonal eigenvalues via Sturm counts and bisection.

All matrices have unit off-diagonal entries (hopping 1) and a real diagonal,
i.e. Dirichlet restrictions of discrete Schrodinger operators.  A cyclic
Jacobi solver for small dense symmetric matrices serves as the independent
oracle.  No eigenvectors anywhere: the density of states only needs counts.
Counts of a Fibonacci box also come from products of the transfer matrices
of the Fibonacci words (`box_counter`), O(log N) per energy.  A box's whole
spectrum (`certified_spectrum`, behind `cached_spectrum`) is bisected on
those counts and certified by Sturm counts at the bracket ends, so it
equals the Sturm bisection of `eigenvalues_bisect` bit for bit.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .io import atomic_write
from .model import ModelParams, potential_vector, site_letters

_JACOBI_MAX_DIM = 256
_BLOCK_ROWS = 32
_BLOCK_FLOATS = 1 << 17
_COUNT_BLOCK = 1024  # energies per block of a lifted count
_REPAIR_PROBES = 8  # probes on each side of a bracket that failed its certificate
_CERTIFY_MIN_SITES = 128  # smaller boxes bisect faster on Sturm counts alone


@dataclass(frozen=True)
class TridiagMatrix:
    """Symmetric tridiagonal matrix with implicit unit off-diagonals."""

    diag: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.diag, dtype=float))
        if d.ndim != 1 or d.size < 1:
            raise ValueError("diagonal must be a nonempty 1-D array")
        object.__setattr__(self, "diag", d)

    @property
    def n(self) -> int:
        return self.diag.size

    def gershgorin(self):
        return float(self.diag.min() - 2.0), float(self.diag.max() + 2.0)

    def dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        i = np.arange(self.n - 1)
        a[i, i + 1] = 1.0
        a[i + 1, i] = 1.0
        return a


@dataclass(frozen=True)
class Spectrum1D:
    """Sorted eigenvalues of a finite Dirichlet box, with provenance."""

    eigenvalues: np.ndarray
    params: ModelParams | None = None
    tol: float = 0.0

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float))
        if np.any(np.diff(e) < 0):
            raise ValueError("eigenvalues must be sorted")
        if self.params is not None and e.size != self.params.n_sites:
            raise ValueError("eigenvalue count does not match box size")
        object.__setattr__(self, "eigenvalues", e)

    def __len__(self):
        return self.eigenvalues.size


def fibonacci_tridiag(p: ModelParams, start: int = 0) -> TridiagMatrix:
    """Dirichlet box of the Fibonacci Hamiltonian on sites start..start+N-1."""
    return TridiagMatrix(potential_vector(start, p))


def _pivot_scale(diag):
    return max(1.0, float(np.max(np.abs(diag))) + 2.0)


def _default_tol(diag) -> float:
    """Default bisection tolerance of a box; part of the spectrum cache key."""
    return 1e-12 * _pivot_scale(diag)


def sturm_count(m: TridiagMatrix, e: float) -> int:
    """Number of eigenvalues of m strictly below e."""
    return int(sturm_count_batch(m, np.asarray([e], dtype=float))[0])


def sturm_count_batch(m: TridiagMatrix, energies: np.ndarray) -> np.ndarray:
    """Sturm counts for many shifts at once (one pass over the diagonal).

    Pivot recursion d_1 = diag_1 - e, d_{i+1} = diag_{i+1} - e - 1/d_i; the
    count of negative pivots equals the count of eigenvalues strictly below
    e.  Pivots inside (-eps, eps) with eps = 2^-52 * scale are pushed to +-eps
    keeping their sign (exact zeros to +eps, so an eigenvalue sitting exactly
    at e is not counted); this keeps the recursion finite and deterministic.

    The sites run in blocks: one row of a scratch array per site, at most
    32 rows and about 2^17 floats.  A block is first stepped without the
    clamp, three in-place ufunc calls per site.  Block invariant: when a
    block is counted, its rows hold the clamped pivots bit for bit, and its
    last row is the entering pivot of the next block.  The clamp is the
    identity where |d| >= eps, so an unclamped column whose pivots all pass
    that test already equals the clamped one; any other column (a pivot
    below eps, or NaN) is recomputed from its entering pivot with the clamp.
    """
    e = np.asarray(energies, dtype=float)
    shape = e.shape
    e = e.ravel()
    count = np.zeros(e.size, dtype=np.int64)
    diag = m.diag.tolist()
    eps = np.ldexp(_pivot_scale(m.diag), -52)
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_FLOATS // max(e.size, 1)))
    block = np.empty((rows, e.size))
    r = np.empty(e.size)
    # 1/inf = +0.0, and x - 0.0 == x bit for bit, so site 0 gives diag_0 - e
    entering = np.full(e.size, np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, len(diag), rows):
            sites = diag[start:start + rows]
            piv = block[:len(sites)]
            d = entering
            for diag_i, row in zip(sites, piv):
                np.divide(1.0, d, out=r)
                np.subtract(diag_i, e, out=row)
                np.subtract(row, r, out=row)
                d = row
            bad = ~(np.abs(piv).min(axis=0) >= eps)
            if bad.any():
                d, e_bad = entering[bad], e[bad]
                for diag_i, row in zip(sites, piv):
                    d = diag_i - e_bad - 1.0 / d
                    d = np.where(np.abs(d) < eps, np.where(d < 0, -eps, eps), d)
                    row[bad] = d
            count += np.count_nonzero(piv < 0, axis=0)
            entering[:] = piv[-1]
    return count.reshape(shape)


def eigenvalues_bisect(m: TridiagMatrix, tol: float | None = None,
                       params: ModelParams | None = None) -> Spectrum1D:
    """All eigenvalues of m, each bracketed by bisection on Sturm counts.

    The k-th smallest eigenvalue is bisected inside the Gershgorin interval
    until the bracket width is <= tol; all N bisections advance together on a
    shared count evaluation.  It runs the per-rank loop `_bisect_ranks`, not
    `_bisect_tree`, so this oracle stays independent of the loop it checks.
    """
    if tol is None:
        tol = _default_tol(m.diag)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lo, hi, _ = _bisect_ranks(lambda e: sturm_count_batch(m, e), np.arange(1, m.n + 1),
                              *m.gershgorin(), tol)
    return Spectrum1D(np.sort(0.5 * (lo + hi)), params=params, tol=tol)


def _bisect_ranks(count, ranks, lo, hi, tol):
    """Brackets (lo, hi) of the eigenvalues of the given ranks, and the halvings.

    Rank k (1 = smallest) is bisected inside [lo, hi] on count(E) >= k; all
    brackets halve together, on one count call per step, until every one is
    at most tol wide.  The eigenvalue is the bracket's midpoint.  Each call
    counts one energy per rank, in rank order, so count may depend on the
    rank as well as on the energy.
    """
    lo = np.full(ranks.shape, lo)
    hi = np.full(ranks.shape, hi)
    halvings = 0
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        have = count(mid) >= ranks
        hi = np.where(have, mid, hi)
        lo = np.where(have, lo, mid)
        halvings += 1
    return lo, hi, halvings


def _bisect_tree(count, ranks, lo, hi, tol):
    """The (lo, hi, halvings) of `_bisect_ranks`, each distinct bracket counted once.

    Every bracket is a node of one tree: [lo, hi], split at 0.5 * (lo + hi).
    Ranks in one node share its lo.  Each call counts the heap-ordered
    midpoints of the top b levels of every distinct node's subtree, with
    b >= 1 the largest depth that fits _COUNT_BLOCK energies, and the ranks
    then descend those levels by lookup, testing the width before each
    halving as `_bisect_ranks` does.  The midpoints are the same doubles, so
    for an elementwise count (a function of the energy alone) the result
    equals `_bisect_ranks`'s bit for bit.  Sturm bisection, in
    `eigenvalues_bisect` and the repair of `certified_spectrum`, keeps the
    per-rank loop, so the oracle does not share this one.
    """
    shape, ranks = np.shape(ranks), np.ravel(ranks)
    lo = np.full(ranks.shape, lo)
    hi = np.full(ranks.shape, hi)
    halvings = 0
    while np.max(hi - lo) > tol:
        node_lo, first, node = np.unique(lo, return_index=True, return_inverse=True)
        levels = max(1, (_COUNT_BLOCK // node_lo.size + 1).bit_length() - 1)
        a, b, mids = node_lo[:, None], hi[first, None], []
        for _ in range(levels):
            m = 0.5 * (a + b)
            mids.append(m)
            a = np.stack([a, m], axis=2).reshape(node_lo.size, -1)
            b = np.stack([m, b], axis=2).reshape(node_lo.size, -1)
        counts = count(np.concatenate(mids, axis=1))
        at = np.zeros(ranks.shape, dtype=np.intp)  # heap index: children 2i+1, 2i+2
        for level in range(levels):
            if level and not np.max(hi - lo) > tol:
                break
            mid = 0.5 * (lo + hi)
            have = counts[node, at] >= ranks
            hi = np.where(have, mid, hi)
            lo = np.where(have, lo, mid)
            at = 2 * at + 2 - have
            halvings += 1
    return lo.reshape(shape), hi.reshape(shape), halvings


def _fibonacci_words(min_len):
    """Letter counts of w_0, w_1, ..., w_K and the word w_K, |w_K| >= min_len.

    w_0 = 0, w_1 = 1 and w_k = w_{k-1} w_{k-2}, as bytes 0 and 1 (1 stands for
    lam); every w_k with k >= 1 is a prefix of the fixed point c = 1011010110...
    """
    lengths, prev, word = [1, 1], b"\x00", b"\x01"
    while len(word) < min_len:
        prev, word = word, word + prev
        lengths.append(len(word))
    return lengths, word


def _pieces(k, lo, hi, lengths):
    """Indices j of the whole words w_j that tile letters [lo, hi) of w_k, in order."""
    if lo == 0 and hi == lengths[k]:
        return [k]
    left = lengths[k - 1]  # w_k = w_{k-1} w_{k-2}
    if hi <= left:
        return _pieces(k - 1, lo, hi, lengths)
    if lo >= left:
        return _pieces(k - 2, lo - left, hi - left, lengths)
    return _pieces(k - 1, lo, left, lengths) + _pieces(k - 2, 0, hi - left, lengths)


def _signed_angle(a):
    """Angle t in [0, pi] of each first column signed by s = copysign(1, y), and s."""
    x, y = a[0, 0], a[1, 0]
    s = np.copysign(1.0, y)
    return np.arctan2(np.abs(y), s * x), s


def _letter(e, v):
    """The transfer matrix [[E - v, -1], [1, 0]] of one site, as a lifted element.

    A lifted element is (a, n, t, s): a[i, j] holds entry (i, j) of one
    matrix per energy, scaled by its largest entry, and n*pi + t is the
    lifted angle of its first column, whose signed angle t and sign s come
    from `_signed_angle`.
    """
    a = np.zeros((2, 2, e.size))
    a[0, 0] = e - v
    a[0, 1] = -1.0
    a[1, 0] = 1.0
    a /= np.maximum(np.abs(a[0, 0]), 1.0)
    return (a, np.zeros(e.size), *_signed_angle(a))


def _compose(g, h):
    """The lifted element of g after h (the matrix product g h).

    w, h's first column times its sign s_h, has angle t_h in [0, pi], so g
    turns e1 and w by lifted angles that differ by delta in [0, pi], the
    angle from g e1 to g w.  In a gap long products are near rank one and
    g e1, g w nearly (anti)parallel; clamping the cross product at 0 lets
    the sign of the dot product decide between delta = 0 and delta = pi.
    Then n*pi + t = (n_g + n_h)*pi + t_g + delta fixes n.
    """
    ga, gn, gt, _ = g
    ha, hn, _, hs = h
    a = ga[:, :1] * ha[:1] + ga[:, 1:] * ha[1:]
    a /= np.abs(a).max(axis=(0, 1))
    px, py = hs * a[0, 0], hs * a[1, 0]  # g w
    gx, gy = ga[0, 0], ga[1, 0]
    delta = np.arctan2(np.maximum(gx * py - gy * px, 0.0), gx * px + gy * py)
    t, s = _signed_angle(a)
    return a, gn + hn + np.rint((gt + delta - t) / np.pi), t, s


@dataclass(frozen=True)
class BoxCounter:
    """Eigenvalue counts of one Fibonacci box, and bisected eigenvalues.

    backend "lifted": the box's letters sit at letters [s, s + N) of the
    fixed point c, which `pieces` tiles with whole words w_j.  Their transfer
    matrices follow M_0 = T_0, M_1 = T_lam and M_k = M_{k-2} M_{k-1}, so a
    count costs O(log N) 2x2 products per energy (Kohmoto-Kadanoff-Tang).
    Each product is carried as a lifted element: the matrix scaled by its
    largest entry and the half-turns n of the lifted angle of its first
    column, which starts at e1.  With x the first column's x-component after
    the signing of `_signed_angle`, count(E) = N - n - [x <= 0].  Energies go
    in blocks of 1024, which bounds the memory of a call; `eigenvalues` fills
    one block per call (`_bisect_tree`), so a 1000-site spectrum's ranks take
    one block per halving, where blocks of 512 took two.
    backend "sturm": letters not found in c; counts are Sturm passes.
    """

    matrix: TridiagMatrix
    lam: float
    backend: str
    pieces: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def tol(self) -> float:
        """The bisection tolerance eigenvalues_bisect uses by default."""
        return _default_tol(self.matrix.diag)

    def count(self, energies) -> np.ndarray:
        """Number of eigenvalues strictly below each energy."""
        if self.backend == "sturm":
            return sturm_count_batch(self.matrix, energies)
        e = np.asarray(energies, dtype=float)
        flat = e.ravel()
        out = np.empty(flat.size, dtype=np.int64)
        for i in range(0, flat.size, _COUNT_BLOCK):
            out[i:i + _COUNT_BLOCK] = self._lifted_count(flat[i:i + _COUNT_BLOCK])
        return out.reshape(e.shape)

    def _lifted_count(self, e):
        words = [_letter(e, 0.0), _letter(e, self.lam)]
        for _ in range(2, max(self.pieces) + 1):
            words.append(_compose(words[-2], words[-1]))
        acc = words[self.pieces[0]]
        for j in self.pieces[1:]:
            acc = _compose(words[j], acc)
        a, n, _, s = acc
        return self.n - n.astype(np.int64) - (s * a[0, 0] <= 0)

    def eigenvalues(self, ranks) -> np.ndarray:
        """Eigenvalues of the given ranks (1 = smallest), bisected on these
        counts by `_bisect_tree` from the Gershgorin interval to the default
        tolerance of eigenvalues_bisect."""
        lo, hi, _ = _bisect_tree(self.count, np.asarray(ranks), *self.matrix.gershgorin(),
                                 self.tol)
        return 0.5 * (lo + hi)


def box_counter(p: ModelParams, start: int = 0) -> BoxCounter:
    """Counts of the Fibonacci box on sites start..start+N-1.

    The letters come from `site_letters`, the indicator of `potential_vector`,
    so a located box has exactly the diagonal that a Sturm pass sees.  They
    are searched for in the first 3N + 8 letters of c; a factor of c of
    length N occurs there, since the Fibonacci word is linearly recurrent.
    When they are not found (a rotation number other than the golden one,
    say), the counter falls back to Sturm passes.
    """
    letters = site_letters(start, p)
    m = TridiagMatrix(np.where(letters, p.lam, 0.0))
    lengths, c = _fibonacci_words(3 * p.n_sites + 8)
    s = c.find(letters.astype(np.uint8).tobytes())
    if s < 0:
        return BoxCounter(m, p.lam, "sturm")
    return BoxCounter(m, p.lam, "lifted",
                      tuple(_pieces(len(lengths) - 1, s, s + p.n_sites, lengths)))


def certified_spectrum(p: ModelParams, start: int = 0,
                       tol: float | None = None) -> Spectrum1D:
    """All eigenvalues of the Fibonacci box, equal bit for bit to eigenvalues_bisect.

    Propose: every rank 1..N is bisected on the box's lifted counts, from the
    Gershgorin interval to tol, by `_bisect_tree`, whose brackets are those
    of eigenvalues_bisect's loop on the same counts.  Certify: Sturm counts
    at the distinct bracket ends, in passes of at most N energies, keep rank
    k when sturm(lo_k) < k <= sturm(hi_k).  Repair: one more Sturm pass
    probes each failed bracket widened by 1, 2, 4, ..., 128 widths on either
    side, and the failed ranks are bisected on Sturm counts from the
    Gershgorin interval, one energy per rank (`_bisect_ranks`).  There a
    midpoint at or below a probe whose count is below k, or at or above one
    whose count is at least k, takes that probe's count instead of a pass;
    by monotonicity both decide the step alike.  When the repair halves a
    different number of times than the lifted run, the box has no lifted
    counts, or it has fewer than 128 sites, the result is eigenvalues_bisect
    itself: below about 128 sites the lifted bisection's calls of O(log N)
    products cost more than 41 Sturm passes.

    Why this is exact.  Every run's brackets, from either loop, are nodes of
    one tree: the Gershgorin interval, split at 0.5 * (lo + hi).  If the Sturm
    count is monotone in E, exactly one node per level satisfies the
    certificate, and Sturm bisection of rank k passes through it.  A run
    halves until every bracket is at most tol wide, so it stops at the largest
    of its paths' stopping levels, each the level where that path's width
    first drops to tol or below.  A certified bracket is a node of the Sturm
    path, which therefore stops no later than the lifted run.  So when the
    repair halves as often as the lifted run, so does Sturm bisection, and
    every bracket is its bracket.

    Why the count is monotone (Kahan; Demmel-Dhillon-Ren 1995).  Order the
    states (c, d) of the pass (c negative pivots so far, d the last pivot)
    by c, then d < 0 before d > 0, then by decreasing d.  A site sends
    (c, d) to (c + [d' < 0], d') with d' = clamp(fl(fl(a - E) - fl(1/d))).
    Rounding is monotone, fl(a - E) does not increase with E, fl(1/d) does
    not increase with d on either sign, and the clamp, which sends (-eps, 0)
    to -eps and [0, eps) (-0.0 too) to +eps, does not decrease.  Take
    (c1, d1) <= (c2, d2) and E1 <= E2.  If c1 < c2, the new counts can only
    meet with d1' < 0 < d2'.  If c1 = c2, then d1 < 0 < d2 or d1 >= d2 with
    one sign, so fl(1/d1) <= fl(1/d2) and d1' >= d2'.  Either way the new
    states keep their order.  Every energy starts from (0, +inf), so
    sturm(E1) <= sturm(E2); the blocked pass computes these pivots bit for
    bit.
    """
    counter = box_counter(p, start)
    m = counter.matrix
    if tol is None:
        tol = counter.tol
    if counter.backend == "sturm" or m.n < _CERTIFY_MIN_SITES or tol <= 0:
        return eigenvalues_bisect(m, tol=tol, params=p)
    ranks = np.arange(1, m.n + 1)
    g_lo, g_hi = m.gershgorin()
    lo, hi, halvings = _bisect_tree(counter.count, ranks, g_lo, g_hi, tol)
    ends, at = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    # passes of at most N energies keep the memory of a Sturm bisection pass
    counts = np.concatenate([sturm_count_batch(m, part)
                             for part in np.array_split(ends, -(-ends.size // m.n))])
    bad = ~((counts[at[:m.n]] < ranks) & (ranks <= counts[at[m.n:]]))
    if bad.any():
        # probes that widen each failed bracket by doubling, then, for each
        # failed rank, the nearest probes with counts below k and at least k
        w = (hi - lo)[bad, None] * 2.0 ** np.arange(_REPAIR_PROBES)
        extra = np.concatenate([(lo[bad, None] - w).ravel(), (hi[bad, None] + w).ravel()])
        probes = np.concatenate([ends, extra])
        order = np.argsort(probes)
        probes = probes[order]
        counts = np.concatenate([counts, sturm_count_batch(m, extra)])[order]
        i = np.searchsorted(counts, ranks[bad])
        j = np.minimum(i, probes.size - 1)
        below = np.where(i > 0, probes[i - 1], -np.inf)
        above = np.where(i < probes.size, probes[j], np.inf)
        below_count, above_count = np.where(i > 0, counts[i - 1], 0), counts[j]

        def sturm(e):
            c = np.where(e <= below, below_count, above_count)
            open_ = (below < e) & (e < above)
            if open_.any():
                c[open_] = sturm_count_batch(m, e[open_])
            return c

        lo_b, hi_b, fallback_halvings = _bisect_ranks(sturm, ranks[bad], g_lo, g_hi, tol)
        if fallback_halvings != halvings:
            return eigenvalues_bisect(m, tol=tol, params=p)
        lo[bad], hi[bad] = lo_b, hi_b
    return Spectrum1D(np.sort(0.5 * (lo + hi)), params=p, tol=tol)


def jacobi_dense(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Sorted eigenvalues of a small dense symmetric matrix, cyclic Jacobi.

    Sweeps of Givens rotations until the off-diagonal Frobenius norm drops
    below tol.  Oracle-scale only: dimension capped at 256.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n > _JACOBI_MAX_DIM:
        raise ValueError(f"jacobi_dense is an oracle for dimensions <= {_JACOBI_MAX_DIM}")
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
        raise ValueError("matrix is not symmetric")
    if n == 1:
        return a[0, :1].copy()

    def offnorm(x):
        o = x - np.diag(np.diag(x))
        return np.sqrt(np.sum(o * o))

    for _ in range(60):
        if offnorm(a) <= tol:
            break
        small = offnorm(a) / (n * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= small:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta)) if theta != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    return np.sort(np.diag(a))


def _cache_key(p: ModelParams, start: int, tol: float) -> str:
    blob = json.dumps({
        "lambda": repr(p.lam), "omega": repr(p.omega), "alpha": repr(p.alpha),
        "n": p.n_sites, "start": start, "tol": repr(tol),
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _read_cached(path: Path, n: int) -> np.ndarray | None:
    """Cached eigenvalues, or None when the file is missing or unreadable.

    Unreadable covers anything np.load rejects and any array that is not a
    sorted, finite float64 vector of length n; the checks are O(n).
    """
    try:
        eigs = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if (not isinstance(eigs, np.ndarray) or eigs.shape != (n,)
            or eigs.dtype != np.float64 or not np.all(np.isfinite(eigs))
            or np.any(eigs[1:] < eigs[:-1])):
        return None
    return eigs


def cached_spectrum(p: ModelParams, start: int = 0, tol: float | None = None,
                    cache_dir: str | os.PathLike | None = None) -> Spectrum1D:
    """Eigenvalues of the Fibonacci box, cached on disk when a dir is given.

    A miss, or a call with no cache, runs `certified_spectrum`, whose values
    are those of eigenvalues_bisect bit for bit, and so are the cache files.
    Cache files are sorted float64 arrays keyed by a content hash of
    (lambda, omega, alpha, N, start, tol); the QUASISPEC_CACHE environment
    variable supplies a default directory.  An unreadable cache file counts
    as a miss and is replaced.
    """
    m = fibonacci_tridiag(p, start=start)
    if tol is None:
        tol = _default_tol(m.diag)
    if cache_dir is None:
        cache_dir = os.environ.get("QUASISPEC_CACHE")
    if cache_dir is None:
        return certified_spectrum(p, start, tol)
    path = Path(cache_dir) / f"spectrum1d-{_cache_key(p, start, tol)}.npy"
    eigs = _read_cached(path, p.n_sites)
    if eigs is not None:
        return Spectrum1D(eigs, params=p, tol=tol)
    spec = certified_spectrum(p, start, tol)
    with atomic_write(path) as fh:
        np.save(fh, spec.eigenvalues)
    return spec
