"""Trace-map dynamics for the Fibonacci Hamiltonian.

The polynomial map T(x,y,z) = (2xy - z, x, y) preserves the invariant
G(x,y,z) = x^2 + y^2 + z^2 - 2xyz - 1, and an energy E belongs to the
spectrum at coupling lam exactly when the forward orbit of
((E - lam)/2, E/2, 1) stays bounded.  This module provides the escape test,
interval covers of the spectrum built from it, and finite-time Lyapunov
exponents along bounded orbits.

Numerical caveat that shapes every default here: for lam > 0 the spectrum is
a zero-measure Cantor set and the bounded orbits are hyperbolic, so rounding
noise (~1e-16 per step) is amplified at the local expansion rate.  In double
precision no orbit survives more than roughly 90 steps at lam = 1 (about 300
at lam = 0.2, about 45 at lam = 4).  Iteration budgets must therefore be
matched to the energy resolution actually probed; covers computed with far
larger budgets are empty, not sharper.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .intervals import IntervalSet, _merge
from .model import ParameterError, check_coupling

# a depth-20 `tracemap` run (2^20 cells) peaks at 137 MB RSS; depth 40 would ask for 8 TiB
MAX_DEPTH = 20


class Point3(NamedTuple):
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class EscapeResult:
    escaped: bool
    steps: int
    exit_norm: float


def trace_step(p: Point3) -> Point3:
    """One application of T; overflow propagates as non-finite coordinates."""
    x, y, z = p
    return Point3(2.0 * x * y - z, x, y)


def fricke_vogt(p) -> float:
    x, y, z = p
    return x * x + y * y + z * z - 2.0 * x * y * z - 1.0


def initial_point(E: float, lam: float) -> Point3:
    """Point of the line of initial conditions; G there equals lam^2/4."""
    return Point3((E - lam) / 2.0, E / 2.0, 1.0)


def default_threshold(lam: float) -> float:
    return max(4.0, 2.0 + lam)


def _threshold(lam: float, threshold: float | None) -> float:
    thr = default_threshold(lam) if threshold is None else float(threshold)
    if thr < 2.0:
        raise ValueError("escape threshold must be >= 2")
    return thr


def _escaped(mk, prev1, prev2, thr):
    """The escape rule, on arrays or scalars: the max coordinate mk is not
    finite, or it exceeds thr after two consecutive increases.  np.isfinite
    gives np.bool_ even for a float, so ~ is a logical not here."""
    return ~np.isfinite(mk) | ((mk > thr) & (mk > prev1) & (prev1 > prev2))


def escape_steps(energies, lam: float, max_iter: int,
                 threshold: float | None = None) -> np.ndarray:
    """Escape step per energy; max_iter + 1 marks orbits still bounded.

    Escape is declared at the first step where the max coordinate exceeds the
    threshold while having grown over the last three recorded values (two
    consecutive increases), or where a coordinate stops being finite.  The
    growth condition avoids false escapes from single bounded excursions near
    the partition boundary; classification is monotone in max_iter.

    The orbit is kept as the scalar sequence u_0 = (E - lam)/2, u_-1 = E/2,
    u_-2 = 1, u_k = (2 u_{k-1}) u_{k-2} - u_{k-3} (trace_step's arithmetic),
    whose max coordinate at step k is mk_k = max(|u_k|, |u_{k-1}|, |u_{k-2}|).
    A rise mk_k > mk_{k-1} forces mk_k = |u_k|, and a non-finite u_{k-1} or
    u_{k-2} has already escaped at an earlier step, so only orbits with
    ~(|u_k| <= thr) (NaN included) can escape at step k >= 2.  Each step
    therefore updates u in place and tests that one bound; the candidates
    alone get the full rule from their last five terms.  Escaped orbits are
    parked at u = 0, a fixed point that is never a candidate again, and the
    arrays are compacted once fewer than half of their orbits are live.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    thr = _threshold(lam, threshold)
    E = np.atleast_1d(np.asarray(energies, dtype=float))
    shape, E = E.shape, E.ravel()
    steps = np.full(E.size, max_iter + 1, dtype=np.int64)
    # u[-j % 5] holds u_j; u_-3 = +inf makes mk_-1 infinite, so the growth
    # chain needs two real increases
    u = np.empty((5, E.size))
    u[0] = (E - lam) / 2.0
    u[1] = E / 2.0
    u[2] = 1.0
    u[3] = np.inf
    live = np.arange(E.size)  # original index of each array slot
    n_live = E.size
    a = np.empty(E.size)
    cand = np.empty(E.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iter + 1):
            rows = np.arange(-k, 5 - k) % 5  # rows[r] holds u_{k-r} after the update
            new = u[rows[0]]  # the buffer of u_{k-5}
            np.multiply(u[rows[1]], 2.0, out=new)
            new *= u[rows[2]]
            new -= u[rows[3]]
            np.abs(new, out=a)
            np.less_equal(a, thr, out=cand)
            np.logical_not(cand, out=cand)
            if k == 1:  # a non-finite start escapes at step 1
                cand |= ~(np.isfinite(u[0]) & np.isfinite(u[1]))
            c = np.flatnonzero(cand)
            if c.size == 0:
                continue
            # mk_k, mk_{k-1} and mk_{k-2} as sliding maxima over |u_k| .. |u_{k-4}|
            w = np.empty((5, c.size))
            for i, r in enumerate(rows):
                np.take(u[r], c, out=w[i])
            np.abs(w, out=w)
            w = np.maximum(w[:-1], w[1:])
            w = np.maximum(w[:-1], w[1:])
            esc = c[_escaped(w[0], w[1], w[2], thr)]
            if esc.size == 0:
                continue
            steps[live[esc]] = k
            for r in rows[:3]:
                u[r][esc] = 0.0
            n_live -= esc.size
            if n_live == 0:
                break
            if n_live < live.size // 2:
                keep = np.flatnonzero(steps[live] > max_iter)
                u, live = np.take(u, keep, axis=1), live[keep]
                a, cand = a[:n_live], cand[:n_live]
    return steps.reshape(shape)


def escape_test(E: float, lam: float, max_iter: int,
                threshold: float | None = None) -> EscapeResult:
    """Sueto escape criterion for a single energy."""
    thr = default_threshold(lam) if threshold is None else float(threshold)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if thr < 2.0:
        raise ValueError("escape threshold must be >= 2")
    p = initial_point(E, lam)
    prev2, prev1 = np.inf, max(abs(p.x), abs(p.y), abs(p.z))
    for k in range(1, max_iter + 1):
        p = trace_step(p)
        mk = max(abs(p.x), abs(p.y), abs(p.z))
        if not np.isfinite(mk):
            return EscapeResult(True, k, float("inf"))
        if mk > thr and mk > prev1 and prev1 > prev2:
            return EscapeResult(True, k, mk)
        prev2, prev1 = prev1, mk
    return EscapeResult(False, max_iter, max(abs(p.x), abs(p.y), abs(p.z)))


def default_max_iter(depth: int) -> int:
    # roughly the number of steps a probe one grid cell away from the
    # spectrum needs to escape; larger budgets only thin the cover
    return 12 + 2 * depth


def spectrum_cover(lam: float, window=None, depth: int = 12,
                   max_iter: int | None = None,
                   threshold: float | None = None) -> IntervalSet:
    """Outer interval cover of the bounded-orbit energies in the window.

    The window is split into 2^depth equal cells (1 <= depth <= MAX_DEPTH);
    a cell survives when the escape test reports a bounded orbit at its
    midpoint or either endpoint.  The result covers every probed energy
    classified bounded, and covers at larger max_iter are nested inside
    covers at smaller max_iter.  The 2^depth + 1 edges are probed first, and
    midpoints only in the cells with no bounded edge: elsewhere the cell
    survives whatever its midpoint does, so the cover is the one that
    probing every midpoint gives.
    """
    check_coupling(lam)
    if not 1 <= depth <= MAX_DEPTH:
        raise ParameterError(f"depth must lie in 1..{MAX_DEPTH}")
    if window is None:
        window = (-3.0, 3.0 + lam)
    emin, emax = float(window[0]), float(window[1])
    if not emin < emax:
        raise ValueError("empty energy window")
    if max_iter is None:
        max_iter = default_max_iter(depth)
    elif max_iter < 1:
        raise ParameterError("max_iter must be >= 1")
    edges = np.linspace(emin, emax, 2**depth + 1)
    bounded_edge = escape_steps(edges, lam, max_iter, threshold) > max_iter
    keep = bounded_edge[:-1] | bounded_edge[1:]
    # only a cell without a bounded edge can be decided by its midpoint
    open_cells = np.flatnonzero(~keep)
    mids = 0.5 * (edges[open_cells] + edges[open_cells + 1])
    keep[open_cells] = escape_steps(mids, lam, max_iter, threshold) > max_iter
    return IntervalSet(*_merge(edges[:-1][keep], edges[1:][keep]))


def trace_jacobian(p) -> np.ndarray:
    x, y, _ = p
    return np.array([[2.0 * y, 2.0 * x, -1.0],
                     [1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0]])


def lyapunov_finite(E: float, lam: float, m: int,
                    threshold: float | None = None) -> float:
    """Finite-time top Lyapunov exponent along the orbit of E.

    Renormalized-vector iteration of the Jacobian cocycle over m steps.
    Raises if the orbit escapes before m steps (see the module note on the
    double-precision survival ceiling).
    """
    if m < 1:
        raise ValueError("need at least one step")
    thr = _threshold(lam, threshold)
    p = initial_point(E, lam)
    prev2, prev1 = np.inf, max(abs(p.x), abs(p.y), abs(p.z))
    v = np.array([1.0, 0.0, 0.0])
    acc = 0.0
    for k in range(1, m + 1):
        v = trace_jacobian(p) @ v
        nv = float(np.linalg.norm(v))
        acc += np.log(nv)
        v /= nv
        p = trace_step(p)
        mk = max(abs(p.x), abs(p.y), abs(p.z))
        if _escaped(mk, prev1, prev2, thr):
            raise RuntimeError(f"orbit escaped at step {k} before the {m}-step horizon")
        prev2, prev1 = prev1, mk
    return acc / m


def refine_bounded_energy(lo: float, hi: float, lam: float, horizon: int,
                          threshold: float | None = None,
                          probes: int = 9) -> float | None:
    """Energy in [lo, hi] whose orbit stays bounded for `horizon` steps.

    Zooms on the probe with the largest escape time until the survival
    horizon is reached; returns None when double precision cannot deliver it
    (distance to the spectrum below resolution).
    """
    for _ in range(200):
        es = np.linspace(lo, hi, probes)
        steps = escape_steps(es, lam, horizon, threshold)
        i = int(np.argmax(steps))
        if steps[i] > horizon:
            return float(es[i])
        w = (hi - lo) / (probes - 1)
        lo = max(lo, es[i] - w)
        hi = min(hi, es[i] + w)
        if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(lo)):
            return None
    return None


def lyapunov_scan(lambdas, e_samples: int, m: int, depth: int = 10,
                  seed: int = 0, window=None, filter_steps: int | None = None,
                  threshold: float | None = None) -> list[tuple[float, float, float]]:
    """(lam, mean exponent, spread) over bounded energies from the cover.

    For each coupling, candidate energies are drawn uniformly from a spectrum
    cover and refined until their orbits survive `filter_steps` (default 2m)
    iterations, then the m-step exponents are averaged.  The spread is the
    standard error of the mean, so at least two energies are needed.
    Deterministic for a fixed seed.
    """
    if e_samples < 2:
        raise ValueError("need at least 2 energies per coupling to estimate a spread")
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("empty coupling grid")
    for lam in lambdas:
        check_coupling(lam)
    if filter_steps is None:
        filter_steps = 2 * m
    if filter_steps < m:
        raise ValueError("filter_steps must be at least m")
    out = []
    for j, lam in enumerate(lambdas):
        rng = np.random.default_rng(seed + 7919 * j)
        cover = spectrum_cover(lam, window=window, depth=depth, threshold=threshold)
        if cover.empty:
            raise RuntimeError(f"no bounded energies found at lam={lam}")
        lengths = cover.b - cover.a
        probs = lengths / lengths.sum()
        exps = []
        attempts = 0
        while len(exps) < e_samples and attempts < 60 * e_samples:
            attempts += 1
            i = rng.choice(len(cover), p=probs)
            e0 = refine_bounded_energy(cover.a[i], cover.b[i], lam, filter_steps,
                                       threshold=threshold)
            if e0 is None:
                continue
            try:
                exps.append(lyapunov_finite(e0, lam, m, threshold=threshold))
            except RuntimeError:
                continue
        if len(exps) < e_samples:
            raise RuntimeError(f"no bounded energies found at lam={lam} "
                               f"for an {filter_steps}-step horizon")
        exps = np.asarray(exps)
        spread = float(exps.std(ddof=1) / np.sqrt(exps.size))
        out.append((float(lam), float(exps.mean()), spread))
    return out
