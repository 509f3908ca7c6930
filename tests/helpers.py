"""Reference functions that only the tests call.

Scalar and inverse forms of what the package computes in bulk: the potential
at one site, the inverse trace map, the projection of one word and the
difference of two, the holdout checks of the fitted transversality bounds,
the blocked all-pairs sumset, the atom merge by stable argsort, and the
spectrum cover that probes every midpoint.
"""

import numpy as np

from quasispec.dos import AtomicMeasure
from quasispec.intervals import IntervalSet, _merge
from quasispec.model import ModelParams, _indicator
from quasispec.regularity import (SymbolicSystem, _cd_step, _lambda_grid, _max_phi,
                                  _min_dphi, _stratified_draw)
from quasispec.tracemap import Point3, default_max_iter, escape_steps


def potential_value(n: int, p: ModelParams) -> float:
    """Potential at site n: lam if frac(n*alpha + omega) in [1-alpha, 1)."""
    return p.lam if _indicator(n, p.alpha, p.omega) else 0.0


def trace_step_inverse(p: Point3) -> Point3:
    """Inverse map (y, z, 2yz - x)."""
    x, y, z = p
    return Point3(y, z, 2.0 * y * z - x)


def uniform_measure(lo: float, hi: float, n_atoms: int) -> AtomicMeasure:
    """n_atoms equally weighted atoms, evenly spread over [lo, hi]."""
    pos = np.linspace(lo, hi, n_atoms)
    return AtomicMeasure(pos, np.full(n_atoms, 1.0 / n_atoms))


def pi_lambda(word, lam: float, sys: SymbolicSystem) -> tuple[float, float]:
    """Linear projection sum_k digits[word_k] lam^k and its truncation bound."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    w = np.asarray(word, dtype=int)
    if np.any(w < 0) or np.any(w >= sys.ell):
        raise ValueError("symbol out of range")
    if w.size > 1 and not np.all(sys.transition[w[:-1], w[1:]] == 1):
        raise ValueError("word violates the transition matrix")
    powers = lam ** np.arange(w.size)
    value = float(np.dot(np.asarray(sys.digits)[w], powers))
    tail = max(abs(d) for d in sys.digits) * lam ** w.size / (1.0 - lam)
    return value, tail


def phi(omega, tau, lam: float, sys: SymbolicSystem) -> float:
    """Projection difference of two equal-length words."""
    if len(omega) != len(tau):
        raise ValueError("words must have equal length")
    return pi_lambda(omega, lam, sys)[0] - pi_lambda(tau, lam, sys)[0]


def common_prefix_len(omega, tau) -> int:
    k = 0
    for a, b in zip(omega, tau):
        if a != b:
            break
        k += 1
    return k


def verify_cond1(sys: SymbolicSystem, J, depth: int, holdout_pairs: int,
                 alpha_hat: float, c1: float, k0: int = 2, seed: int = 1) -> int:
    """Number of holdout pairs violating the fitted bound (0 when it holds)."""
    ks, coeffs = _stratified_draw(sys, depth, holdout_pairs, k0, seed)
    vals = _max_phi(coeffs, _lambda_grid(J))
    bound = c1 * (1.0 + 1e-12) * float(sys.ell) ** (-alpha_hat * ks)
    return int(np.sum(vals > bound))


def verify_cond2(sys: SymbolicSystem, J, depth: int, holdout_pairs: int,
                 beta_hat: float, c2: float, k0: int = 2, seed: int = 1) -> int:
    """Holdout violations of the derivative envelope implied by (beta_hat, c2)."""
    ks, vals, _ = _min_dphi(*_stratified_draw(sys, depth, holdout_pairs, k0, seed),
                            _lambda_grid(J), _cd_step(J, None))
    c2_prime = 2.0 / c2
    bound = c2_prime * (1.0 - 1e-12) * float(sys.ell) ** (-beta_hat * ks)
    return int(np.sum(vals < bound))


def allpairs_sumset(x: IntervalSet, y: IntervalSet, block: int = 2**16) -> IntervalSet:
    """Minkowski sum from every pair interval, formed in blocks of `block` pairs.

    The blocks are rows x_i + Y, or pieces of one.  A row is sorted because y
    is, so pair j ends a row component when the next start exceeds its end.
    Each block's row components are merged, then all blocks' results.
    """
    rows = max(1, block // len(y))
    cols = min(len(y), block)
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


def argsort_merge(positions, weights, merge_tol):
    """Atoms sorted by a stable argsort that carries the weights along, then
    merged as `dos._merge_arrays` merges them: clusters split where the gap
    exceeds merge_tol, each at its weighted mean clipped to its hull."""
    pos = np.asarray(positions, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    w = w[order]
    split = np.where(np.diff(pos) > merge_tol)[0] + 1
    groups = np.concatenate(([0], split, [pos.size]))
    gw = np.add.reduceat(w, groups[:-1])
    gp = np.add.reduceat(pos * w, groups[:-1]) / gw
    first, last = pos[groups[:-1]], pos[groups[1:] - 1]
    return np.where(gp < first, first, np.where(gp > last, last, gp)), gw


def allprobe_cover(lam, window=None, depth=12, max_iter=None, threshold=None) -> IntervalSet:
    """spectrum_cover probing every edge and every midpoint; a cell survives
    when any of its three probes stays bounded.  No argument checks."""
    if window is None:
        window = (-3.0, 3.0 + lam)
    if max_iter is None:
        max_iter = default_max_iter(depth)
    edges = np.linspace(float(window[0]), float(window[1]), 2**depth + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    be = escape_steps(edges, lam, max_iter, threshold) > max_iter
    bm = escape_steps(mids, lam, max_iter, threshold) > max_iter
    keep = bm | be[:-1] | be[1:]
    return IntervalSet(*_merge(edges[:-1][keep], edges[1:][keep]))
