"""Finitely supported spectral measures and their diagnostics.

Empirical density-of-states measures of finite boxes, exact convolution of
atomic measures, kernel-density smoothing with L2 norms, and Monte-Carlo
local-dimension estimation.  Measures are immutable after construction.
"""

from dataclasses import dataclass

import numpy as np

PAIR_CAP = 10**8  # convolution size guard
MIN_SAMPLES = 100  # least atom sample of local_dimension


@dataclass(frozen=True)
class AtomicMeasure:
    """Probability measure with finitely many atoms, sorted by position."""

    positions: np.ndarray
    weights: np.ndarray
    merge_tol: float = 0.0

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pos.size != w.size or pos.size == 0:
            raise ValueError("positions and weights must be nonempty and equal length")
        if np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_cum", np.cumsum(w))

    def __len__(self):
        return self.positions.size

    @property
    def support(self):
        return float(self.positions[0]), float(self.positions[-1])

    def mean(self) -> float:
        return float(np.dot(self.positions, self.weights))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot((self.positions - mu) ** 2, self.weights))

    def mass_leq(self, e) -> np.ndarray:
        """CDF value(s) at e (right-continuous, clipped to [0, 1])."""
        idx = np.searchsorted(self.positions, np.asarray(e, dtype=float), side="right")
        cum = np.concatenate(([0.0], self._cum))
        return np.clip(cum[idx], 0.0, 1.0)

    def mass_lt(self, e) -> np.ndarray:
        """Left limit(s) of the CDF at e."""
        idx = np.searchsorted(self.positions, np.asarray(e, dtype=float), side="left")
        cum = np.concatenate(([0.0], self._cum))
        return np.clip(cum[idx], 0.0, 1.0)

    def ball_mass(self, x, r) -> np.ndarray:
        """Mass of the closed ball [x-r, x+r]."""
        x = np.asarray(x, dtype=float)
        return self.mass_leq(x + r) - self.mass_lt(x - r)

    def sample(self, n: int, rng) -> np.ndarray:
        idx = rng.choice(self.positions.size, size=n, p=self.weights / self.weights.sum())
        return self.positions[idx]


def _merge_arrays(positions, weights, merge_tol):
    """Sort atoms and coalesce clusters closer than merge_tol.

    Each cluster sits at its weighted mean sum(p*w)/sum(w), clipped to the
    cluster's hull [first, last]: rounding can carry the mean an ulp past
    the hull, onto the next cluster, and the clip also keeps a lone atom at
    its own position.  Total mass is preserved up to roundoff, and so is the
    first moment, apart from those clipped ulps.  Works on raw arrays (no
    normalization requirement).

    When every weight is the same double the positions are sorted alone,
    with no permutation to carry the weights; the result is the stable
    argsort route's bit for bit.  Equal floats differ at most as +-0.0, and
    np.sort may change the signs within such a tie.  A sum of zeros is -0.0
    only when all of them are, and a zero added to anything else leaves it
    as it was, so the tie's zeros are given one sign: 0.0 if the input holds
    one.  The clip only replaces a mean strictly outside the hull, so the
    sign of a zero end never shows.
    """
    if merge_tol < 0:
        raise ValueError("merge tolerance must be >= 0")
    pos = np.asarray(positions, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if w.size and (w == w[0]).all():
        s = np.sort(pos)
        lo, hi = s.searchsorted(0.0, "left"), s.searchsorted(0.0, "right")
        if hi - lo > 1:
            s[lo:hi] = -0.0 if np.signbit(pos[pos == 0.0]).all() else 0.0
        pos = s
    else:
        order = np.argsort(pos, kind="stable")
        pos = pos[order]
        w = w[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(pos) > merge_tol) + 1))
    gw = np.add.reduceat(w, starts)
    gp = np.add.reduceat(pos * w, starts) / gw
    first = pos[starts]
    last = pos[np.append(starts[1:], pos.size) - 1]
    return np.where(gp < first, first, np.where(gp > last, last, gp)), gw


def merge_atoms(positions, weights, merge_tol) -> AtomicMeasure:
    """Probability measure from atoms merged within merge_tol."""
    gp, gw = _merge_arrays(positions, weights, merge_tol)
    return AtomicMeasure(gp, gw, merge_tol=merge_tol)


def default_merge_tol(positions) -> float:
    span = float(np.max(positions) - np.min(positions))
    return 1e-12 * span


def empirical_measure(eigs) -> AtomicMeasure:
    """DOS measure of a finite box: weight 1/N at each eigenvalue."""
    vals = np.asarray(getattr(eigs, "eigenvalues", eigs), dtype=float).ravel()
    if vals.size == 0:
        raise ValueError("empty spectrum")
    w = np.full(vals.size, 1.0 / vals.size)
    return merge_atoms(vals, w, default_merge_tol(vals) if vals.size > 1 else 0.0)


def cdf(m: AtomicMeasure, e: float) -> float:
    return float(m.mass_leq(e))


def convolve(a: AtomicMeasure, b: AtomicMeasure, pair_cap: int = PAIR_CAP,
             block_pairs: int = 2**22) -> AtomicMeasure:
    """Exact convolution: atoms at all pairwise sums with product weights.

    Large products are generated in row blocks that are merged as they go,
    which bounds transient memory; block-wise merging composes weighted
    means, so the result matches the single-pass construction.  When each
    factor has a single weight value, every pair weighs the same: no outer
    product is formed, and the merge sorts the sums alone.
    """
    npairs = len(a) * len(b)
    if npairs > pair_cap:
        raise ValueError(f"convolution would produce {npairs} pairs, cap is {pair_cap}")
    span = (a.positions[-1] + b.positions[-1]) - (a.positions[0] + b.positions[0])
    tol = max(a.merge_tol, b.merge_tol, 1e-12 * span)
    if npairs <= block_pairs:
        pos = np.add.outer(a.positions, b.positions).ravel()
        return merge_atoms(pos, _pair_weights(a.weights, b.weights), tol)
    rows = max(1, block_pairs // len(b))
    parts = []
    for i in range(0, len(a), rows):
        pos = np.add.outer(a.positions[i:i + rows], b.positions).ravel()
        parts.append(_merge_arrays(pos, _pair_weights(a.weights[i:i + rows], b.weights), tol))
    pos = np.concatenate([p for p, _ in parts])
    w = np.concatenate([x for _, x in parts])
    return merge_atoms(pos, w, tol)


def _pair_weights(wa, wb):
    """Flat product weights of all pairs, as np.multiply.outer gives them."""
    if wa.min() == wa.max() and wb.min() == wb.max():
        return np.full(wa.size * wb.size, wa[0] * wb[0])
    return np.multiply.outer(wa, wb).ravel()


def sup_cdf_distance(a: AtomicMeasure, b: AtomicMeasure) -> float:
    """Kolmogorov distance, checking both one-sided limits at every atom."""
    grid = np.union1d(a.positions, b.positions)
    d_right = np.abs(a.mass_leq(grid) - b.mass_leq(grid))
    d_left = np.abs(a.mass_lt(grid) - b.mass_lt(grid))
    return float(max(d_right.max(), d_left.max()))


@dataclass(frozen=True)
class DensityEstimate:
    """Kernel density on a uniform grid."""

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.step))


def kde_density(m: AtomicMeasure, bandwidth: float,
                grid: tuple[float, float, float] | None = None) -> DensityEstimate:
    """Triangular-kernel density of m on a uniform grid (min, max, step).

    The bandwidth must be a whole number r = bandwidth/step of grid steps
    (to a relative 1e-9); the default grid uses r = 8.  Then every hat
    function sampled on the grid sums to exactly r, so each atom's kernel
    already has on-grid trapezoid mass equal to its weight, and the kernel is
    piecewise linear in the atom position with kinks only at grid points.
    The density is therefore computed exactly by linear binning: an atom at
    grid index c + f (0 <= f < 1) puts (1 - f) of its weight on node c and f
    on node c + 1, and the binned weights are convolved once with the hat
    sampled at the r-step offsets.  The total integral is 1 up to roundoff.
    The grid must cover the support widened by one bandwidth.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    lo, hi = m.support
    if grid is None:
        step = bandwidth / 8.0
        grid = (lo - bandwidth - step, hi + bandwidth + step, step)
    gmin, gmax, step = grid
    if step <= 0 or step > bandwidth / 4.0 or gmax <= gmin:
        raise ValueError("grid step must be positive and <= bandwidth/4")
    r = round(bandwidth / step)
    if abs(bandwidth / step - r) > 1e-9 * r:
        raise ValueError("bandwidth must be a whole number of grid steps")
    x = np.arange(gmin, gmax + 0.5 * step, step)
    # x[0] is gmin exactly; the last node may fall short of gmax by roundoff
    if x[0] > lo - bandwidth or x[-1] < hi + bandwidth - 1e-9 * step:
        raise ValueError("grid must cover the support widened by the bandwidth")
    c = np.searchsorted(x, m.positions, side="right") - 1
    # roundoff can put the fraction a hair above 1, which would bin a negative weight
    f = np.clip((m.positions - x[c]) / (x[1] - x[0]), 0.0, 1.0)
    binned = np.bincount(np.concatenate((c, c + 1)),
                         weights=np.concatenate((m.weights * (1.0 - f), m.weights * f)),
                         minlength=x.size + 1)
    hat = (1.0 - np.abs(np.arange(-r, r + 1)) / r) / (r * step)
    vals = np.convolve(binned, hat)[r:r + x.size]
    return DensityEstimate(x, vals, bandwidth)


def l2_norm(d: DensityEstimate) -> float:
    return float(np.sqrt(np.trapezoid(d.values**2, dx=d.step)))


def l2_bandwidth_trend(m: AtomicMeasure, bandwidths,
                       step: float | None = None) -> list[tuple[float, float]]:
    """(bandwidth, L2 norm) pairs on a shared auto grid.

    The default step is 1/16 of the smallest bandwidth; pass step explicitly
    to reproduce a registered run.
    """
    if step is None:
        step = min(bandwidths) / 16.0
    lo, hi = m.support
    h = max(bandwidths)
    grid = (lo - h - step, hi + h + step, step)
    return [(h, l2_norm(kde_density(m, h, grid))) for h in bandwidths]


def local_dimension(m: AtomicMeasure, radii, samples: int = 400,
                    seed: int = 0) -> tuple[float, float]:
    """Slope of mean log m(B_r(x)) against log r over atom-sampled x.

    Draws atoms with probability equal to their weight, averages
    log m(B_r(x)) per radius, and least-squares fits the averaged points.
    Returns (slope, standard error of the slope).
    """
    radii = _dimension_radii(radii, samples)
    if len(m) > 1 and radii.min() < max(m.merge_tol, 1e-15):
        raise ValueError("radius below atom resolution: measure is atomic at that scale")
    rng = np.random.default_rng(seed)
    xs = m.sample(samples, rng)
    logm = np.array([np.mean(np.log(m.ball_mass(xs, r))) for r in radii])
    return _slope_with_stderr(np.log(radii), logm)


def local_dimension_from_counts(counter, radii, samples: int = 400,
                                seed: int = 0) -> tuple[float, float]:
    """local_dimension of a box's empirical DOS measure, from counts alone.

    counter gives n, count(E) (eigenvalues below E) and eigenvalues(ranks),
    as `eigensolve.BoxCounter` does.  The atoms are drawn by the same
    rng.choice as AtomicMeasure.sample on n equal weights, only the drawn
    ranks are bisected, and each ball mass is a difference of two counts,
    all x +- r of the distinct drawn atoms in one count call.  Without
    merged atoms this is the estimate of
    local_dimension(empirical_measure(spectrum)).
    """
    radii = _dimension_radii(radii, samples)
    n = counter.n
    w = np.full(n, 1.0 / n)
    idx = np.random.default_rng(seed).choice(n, size=samples, p=w / w.sum())
    ranks, which = np.unique(idx, return_inverse=True)
    xs = counter.eigenvalues(ranks + 1)
    r = radii[:, None]
    cum = _count_cdf(n)[counter.count(np.stack([xs + r, xs - r]))[..., which]]
    logm = np.array([np.mean(np.log(hi - lo)) for hi, lo in zip(*cum)])
    return _slope_with_stderr(np.log(radii), logm)


def _dimension_radii(radii, samples):
    radii = np.asarray(radii, dtype=float)
    if radii.size < 3:
        raise ValueError("need at least 3 radii")
    if np.any(radii <= 0) or np.any(np.diff(radii) >= 0):
        raise ValueError("radii must be positive and strictly decreasing")
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    return radii


def _slope_with_stderr(x, y) -> tuple[float, float]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    xm = x - x.mean()
    sxx = np.dot(xm, xm)
    slope = np.dot(xm, y) / sxx
    resid = y - y.mean() - slope * xm
    dof = max(n - 2, 1)
    stderr = float(np.sqrt(np.dot(resid, resid) / dof / sxx))
    return float(slope), stderr


def ids_curve(eigs, energies) -> np.ndarray:
    """(E, IDS(E)) rows: the integrated DOS of the empirical measure."""
    m = empirical_measure(eigs)
    e = np.asarray(energies, dtype=float)
    return np.column_stack([e, m.mass_leq(e)])


def ids_from_counts(counter, energies) -> np.ndarray:
    """ids_curve of a box's empirical DOS measure, from counts alone.

    counter.count(E) (eigenvalues strictly below E, as `eigensolve.BoxCounter`
    gives) stands for the atoms <= E; the two differ only at an eigenvalue.
    """
    e = np.asarray(energies, dtype=float)
    return np.column_stack([e, _count_cdf(counter.n)[counter.count(e)]])


def _count_cdf(n):
    """mass_leq's cumulative weights of n unmerged atoms of weight 1/n."""
    return np.clip(np.concatenate(([0.0], np.cumsum(np.full(n, 1.0 / n)))), 0.0, 1.0)


def cantor_lebesgue(ratio: float, depth: int) -> AtomicMeasure:
    """Depth-k approximation of the Cantor-Lebesgue measure on [0, 1].

    Atoms sit at the left endpoints of the 2^depth level-depth cylinders of
    the two-map system x -> ratio*x, x -> ratio*x + (1-ratio), each with
    weight 2^-depth.
    """
    if not 0 < ratio < 0.5:
        raise ValueError("contraction ratio must be in (0, 1/2)")
    if not 1 <= depth <= 24:
        raise ValueError("depth out of range")
    pos = np.zeros(1)
    for k in range(depth):
        pos = np.concatenate([pos, pos + (1.0 - ratio) * ratio**k])
    w = np.full(pos.size, 1.0 / pos.size)
    return merge_atoms(pos, w, 0.0)
