"""Checks of quasispec outputs against computations made apart from the program.

The references are built here with numpy alone: the potential from the
Sturmian identity, dense `eigvalsh` spectra, the Fibonacci word by
concatenation, and closed forms of the estimators.  The remaining checks are
properties the method guarantees (trace identities, Cauchy-Schwarz, sorted
disjoint intervals).  Each check returns a list of failure messages; an empty
list means the output passed.  `check_op` runs every check that applies to
one op's output directory.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# eigenvalues_bisect brackets each eigenvalue to a width of
# 1e-12 * max(1, max|V| + 2), so its midpoints lie within that of eigvalsh
BISECT_REL_TOL = 1e-12
# local_dimension averages log ball masses over 400 atoms; one ball count that
# flips because an eigenvalue moved by 1e-12 across x +- r moves the slope by
# less than 4e-4, so this allows two flips and no real disagreement
DIMENSION_TOL = 1e-3
DIMENSION_RADII = [2.0 ** -j for j in range(4, 10)]
# the square DOS CDF is compared at points at least this far from every
# reference atom, where a 1e-12 eigenvalue error cannot move an atom across
CDF_PROBE_GAP = 1e-9
CDF_TOL = 1e-9
WEIGHT_TOL = 1e-10
MOMENT_TOL = 1e-9
KDE_INTEGRAL_TOL = 1e-9
KDE_FILES = 2
# criterion 6 tolerance for band edges of the periodic approximants
COVER_TOL = 0.05
APPROXIMANT_K = 15  # word length F_16 = 987
# alpha_hat measured 1.493-1.527 (bound 1.5146) and 2.173-2.193 (bound 2.1844)
# over 40 seeds each
ALPHA_TOL = 0.06
CORRELATION_ROWS = 5

# the built-in regularity systems: Bernoulli weights and parameter interval J
SYSTEMS = {
    "middle-thirds": dict(weights=(0.5, 0.5), J=(0.3, 0.35)),
    "fifth": dict(weights=(0.5, 0.5), J=(0.18, 0.22)),
    "uniform": dict(weights=(0.5, 0.5), J=(0.3, 0.35)),
}


def read_table(path) -> np.ndarray:
    """Rows of a CSV file with a header line, as a (rows, columns) array."""
    lines = Path(path).read_text().splitlines()
    ncols = len(lines[0].split(","))
    if len(lines) == 1:
        return np.empty((0, ncols))
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2).reshape(-1, ncols)


def sturmian_potential(lam, omega, n) -> np.ndarray:
    """V_k = lam * (floor((k+1) alpha + omega) - floor(k alpha + omega)), k < n."""
    k = np.arange(n + 1, dtype=float)
    fl = np.floor(k * GOLDEN + omega)
    return lam * (fl[1:] - fl[:-1])


def dirichlet_matrix(v) -> np.ndarray:
    h = np.diag(np.asarray(v, dtype=float))
    i = np.arange(len(v) - 1)
    h[i, i + 1] = h[i + 1, i] = 1.0
    return h


def fibonacci_word(k) -> np.ndarray:
    """w_1 = 1, w_2 = 10, w_{j+1} = w_j w_{j-1}: length F_{k+1}, 1 marks a coupling site."""
    prev, word = [1], [1, 0]
    if k == 1:
        return np.asarray(prev)
    for _ in range(k - 2):
        prev, word = word, word + prev
    return np.asarray(word)


def approximant_band_edges(lam, k=APPROXIMANT_K) -> np.ndarray:
    """Eigenvalues of the periodic and antiperiodic rings of the k-th word."""
    ring = dirichlet_matrix(lam * fibonacci_word(k).astype(float))
    edges = []
    for corner in (1.0, -1.0):
        ring[0, -1] = ring[-1, 0] = corner
        edges.append(np.linalg.eigvalsh(ring))
    return np.concatenate(edges)


class References:
    """Reference spectra, built once per distinct input within a run."""

    def __init__(self):
        self._box = {}
        self._edges = {}

    def box(self, lam, omega, n):
        """(potential, sorted eigenvalues, bisection tolerance) of a Dirichlet box."""
        key = (lam, omega, n)
        if key not in self._box:
            v = sturmian_potential(lam, omega, n)
            tol = BISECT_REL_TOL * max(1.0, float(np.max(np.abs(v))) + 2.0)
            self._box[key] = (v, np.linalg.eigvalsh(dirichlet_matrix(v)), tol)
        return self._box[key]

    def edges(self, lam):
        if lam not in self._edges:
            self._edges[lam] = approximant_band_edges(lam)
        return self._edges[lam]


# --- box1d ---------------------------------------------------------------


def check_eigenvalues(eigs, ref, tol):
    if eigs.shape != ref.shape:
        return [f"{eigs.size} eigenvalues, expected {ref.size}"]
    err = float(np.max(np.abs(eigs - ref)))
    return [] if err <= tol else [f"eigenvalues differ from eigvalsh by {err:.3g} > {tol:.3g}"]


def check_trace_identities(eigs, v, tol):
    """sum e = sum V and sum e^2 = sum V^2 + 2(N-1), up to N bisection errors."""
    n = v.size
    out = []
    d1 = abs(float(np.sum(eigs) - np.sum(v)))
    if d1 > n * tol + 1e-10:
        out.append(f"trace identity off by {d1:.3g}")
    d2 = abs(float(np.sum(eigs ** 2) - (np.sum(v ** 2) + 2.0 * (n - 1))))
    if d2 > n * tol * (2.0 * float(np.max(np.abs(eigs))) + tol) + 1e-9:
        out.append(f"Frobenius identity off by {d2:.3g}")
    return out


def check_ids(rows, ref, tol):
    """IDS(E) equals the share of reference eigenvalues <= E, up to ties within tol."""
    e, ids = rows[:, 0], rows[:, 1]
    n = ref.size
    lo = np.searchsorted(ref, e - tol, side="right") / n
    hi = np.searchsorted(ref, e + tol, side="right") / n
    bad = (ids < lo - 1e-12) | (ids > hi + 1e-12)
    return [f"{int(bad.sum())} IDS rows differ from the reference count"] if bad.any() else []


def reference_dimension(ref, seed):
    from quasispec import dos  # the same estimator, fed the reference eigenvalues
    slope, _ = dos.local_dimension(dos.empirical_measure(ref), DIMENSION_RADII,
                                   samples=400, seed=seed)
    return slope


def check_dimension(row, lam, ref_dim):
    d = float(row[1])
    out = []
    if not 0.0 <= d <= 1.0:
        out.append(f"local dimension {d} outside [0, 1]")
    if abs(d - ref_dim) > DIMENSION_TOL:
        out.append(f"local dimension {d} differs from {ref_dim} on reference eigenvalues")
    if float(row[0]) != lam:
        out.append("lambda column does not match the input")
    return out


# --- square_dos ----------------------------------------------------------


def check_atoms(pos, w, e1, e2):
    """Total weight 1; mean and variance add up from the two boxes."""
    out = []
    if abs(float(np.sum(w)) - 1.0) > WEIGHT_TOL:
        out.append(f"atom weights sum to {float(np.sum(w))!r}")
    mean = float(np.dot(pos, w))
    if abs(mean - (e1.mean() + e2.mean())) > MOMENT_TOL:
        out.append(f"mean {mean} differs from the sum of box means")
    var = float(np.dot((pos - mean) ** 2, w))
    if abs(var - (e1.var() + e2.var())) > MOMENT_TOL:
        out.append(f"variance {var} differs from the sum of box variances")
    return out


def cdf_distance(pos, w, e1, e2):
    """Sup |F - F_ref| at points >= CDF_PROBE_GAP from every pairwise sum.

    F_ref is the CDF of the N^2 sums e1_i + e2_j, each of weight 1/N^2.
    """
    s = np.sort(np.add.outer(e1, e2).ravel())
    wide = np.flatnonzero(np.diff(s) > 2.0 * CDF_PROBE_GAP)
    probes = np.concatenate(([s[0] - 1e-6], 0.5 * (s[wide] + s[wide + 1]), [s[-1] + 1e-6]))
    f_ref = np.concatenate(([0.0], (wide + 1) / s.size, [1.0]))
    if np.any(np.diff(pos) <= 0):
        return math.inf
    cum = np.concatenate(([0.0], np.cumsum(w)))
    f = cum[np.searchsorted(pos, probes, side="right")]
    return float(np.max(np.abs(f - f_ref)))


def check_cdf(pos, w, e1, e2):
    d = cdf_distance(pos, w, e1, e2)
    return [] if d <= CDF_TOL else [f"Kolmogorov distance to the pairwise sums {d:.3g} > {CDF_TOL}"]


def check_kde(grid, values):
    out = []
    if np.any(values < 0):
        out.append("negative KDE value")
    integral = float(np.trapezoid(values, grid))
    if abs(integral - 1.0) > KDE_INTEGRAL_TOL:
        out.append(f"KDE integrates to {integral!r}")
    return out


def check_l2_bound(trend, pos):
    """Cauchy-Schwarz: 1 = int f <= sqrt(L) ||f||_2 on a grid of length L.

    The trend grid spans the support widened by the largest bandwidth plus
    one step of at most that bandwidth on each side.
    """
    length = float(pos[-1] - pos[0]) + 4.0 * float(np.max(trend[:, 0]))
    bound = 1.0 / math.sqrt(length)
    low = trend[:, 1] < bound
    return [f"L2 norm below 1/sqrt(grid length) = {bound:.6g}"] if low.any() else []


def check_l2_ratio(manifest, trend):
    ratio = trend[-1, 1] / trend[0, 1]
    got = float(manifest["l2_ratio"])
    return [] if abs(got - ratio) <= 1e-12 * ratio else [f"l2_ratio {got} != {ratio} from the trend"]


# --- cover ---------------------------------------------------------------


def check_sorted_disjoint(iv):
    a, b = iv[:, 0], iv[:, 1]
    if np.any(b < a) or np.any(a[1:] <= b[:-1]):
        return ["sumset intervals are not sorted and disjoint"]
    return []


def check_gaps(iv, gaps, manifest):
    a, b = iv[:, 0], iv[:, 1]
    want = np.column_stack([b[:-1], a[1:], a[1:] - b[:-1]])
    out = []
    if gaps.shape != want.shape or np.any(gaps != want):
        out.append("gap file is not the holes between consecutive intervals")
    if int(manifest["n_gaps"]) != len(a) - 1:
        out.append("manifest n_gaps does not match the intervals")
    return out


def check_total_length(iv, manifest):
    total = float(np.sum(iv[:, 1] - iv[:, 0]))
    got = float(manifest["total_length"])
    return [] if abs(got - total) <= 1e-12 * max(1.0, total) else [f"total_length {got} != {total}"]


def interval_distance(iv, x):
    a, b = iv[:, 0], iv[:, 1]
    i = np.searchsorted(a, x, side="right") - 1
    left = np.where(i >= 0, x - b[np.clip(i, 0, None)], np.inf)
    right = np.where(i + 1 < a.size, a[np.clip(i + 1, None, a.size - 1)] - x, np.inf)
    return np.maximum(np.minimum(left, right), 0.0)


def check_approximant_cover(iv, edges1, edges2):
    """Every sum of two approximant band edges lies within COVER_TOL of the sumset."""
    d = float(np.max(interval_distance(iv, np.add.outer(edges1, edges2).ravel())))
    return [] if d <= COVER_TOL else [f"band-edge sum {d:.3g} from the sumset > {COVER_TOL}"]


# --- transversality ------------------------------------------------------


def check_gamma(report, system):
    w = SYSTEMS[system]["weights"]
    want = -math.log(max(w)) / math.log(len(w))
    got = float(report["gamma_hat"])
    return [] if abs(got - want) <= 1e-12 else [f"gamma_hat {got} != {want}"]


def check_alpha(report, system):
    s = SYSTEMS[system]
    bound = math.log(1.0 / s["J"][1]) / math.log(len(s["weights"]))
    got = float(report["alpha_hat"])
    return [] if abs(got - bound) <= ALPHA_TOL else [
        f"alpha_hat {got} farther than {ALPHA_TOL} from the contraction bound {bound}"]


def check_correlation(rows):
    est = rows[:, 1]
    if rows.shape[0] != CORRELATION_ROWS or not np.all(np.isfinite(est)) or np.any(est <= 0):
        return ["correlation estimates must be finite and positive"]
    return []


# --- per op --------------------------------------------------------------


def _manifest(out, name):
    return json.loads((out / name).read_text())


def check_op(kind, p, out, refs: References, memo: dict) -> list:
    """All checks for one op's outputs in directory `out`."""
    out = Path(out)
    if kind in ("spectrum1d", "ids", "dimension"):
        v, ref, tol = refs.box(p["lam"], p["omega"], p["n"])
        if kind == "spectrum1d":
            eigs = read_table(out / "spectrum1d.csv")[:, 0]
            return check_eigenvalues(eigs, ref, tol) + check_trace_identities(eigs, v, tol)
        if kind == "ids":
            return check_ids(read_table(out / "ids.csv"), ref, tol + 1e-12 * (ref[-1] - ref[0]))
        row = read_table(out / "dimension.csv")[0]
        return check_dimension(row, p["lam"], reference_dimension(ref, p["seed"]))
    if kind == "dos2d":
        _, e1, _ = refs.box(p["lam"], p["omega"], p["n"])
        _, e2, _ = refs.box(p["lam2"], p["omega2"], p["n"])
        atoms = read_table(out / "dos2d.csv")
        pos, w = atoms[:, 0], atoms[:, 1]
        fails = check_atoms(pos, w, e1, e2) + check_cdf(pos, w, e1, e2)
        kdes = sorted(out.glob("dos2d_kde_h*.csv"))
        if len(kdes) != KDE_FILES:
            fails.append(f"{len(kdes)} KDE files, expected {KDE_FILES}")
        for f in kdes:
            t = read_table(f)
            fails += check_kde(t[:, 0], t[:, 1])
        trend = read_table(out / "dos2d_l2_trend.csv")
        return (fails + check_l2_bound(trend, pos)
                + check_l2_ratio(_manifest(out, "dos2d.manifest.json"), trend))
    if kind == "sumset2d":
        iv = read_table(out / "sumset.csv")
        gaps = read_table(out / "sumset_gaps.csv")
        manifest = _manifest(out, "sumset.manifest.json")
        fails = (check_sorted_disjoint(iv) + check_gaps(iv, gaps, manifest)
                 + check_total_length(iv, manifest))
        # identical bytes for the same couplings give the same distance
        key = (p["lam"], p["lam2"], hashlib.sha256((out / "sumset.csv").read_bytes()).hexdigest())
        if key not in memo:
            memo[key] = check_approximant_cover(iv, refs.edges(p["lam"]), refs.edges(p["lam2"]))
        return fails + memo[key]
    if kind == "regularity":
        report = json.loads((out / "regularity_report.json").read_text())
        return (check_gamma(report, p["system"]) + check_alpha(report, p["system"])
                + check_correlation(read_table(out / "regularity_correlation.csv")))
    raise ValueError(f"no checks for op kind {kind!r}")
