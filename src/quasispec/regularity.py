"""Transversality-condition diagnostics for convolution regularity.

A linear self-similar projection family over a topological Markov shift is
the checkable test bed: words omega map to sum_k digits[omega_k] * lam^k.
The three quantitative conditions (difference decay, derivative lower bound,
cylinder-measure decay) are estimated on stratified word-pair samples, and
the two criterion inequalities are evaluated from the fitted exponents.
Correlation-integral estimators apply the same near/far decomposition to any
pair of atomic measures.  Everything is seeded and deterministic; verdicts
are diagnostics, not proofs.
"""

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .dos import AtomicMeasure, _slope_with_stderr, convolution_ball_mass, convolution_tol
from .model import ParameterError


@dataclass(frozen=True)
class SymbolicSystem:
    """Alphabet, transition matrix, digit values, and Bernoulli weights."""

    digits: tuple
    transition: np.ndarray | None = None
    weights: tuple | None = None

    def __post_init__(self):
        digits = tuple(float(d) for d in self.digits)
        ell = len(digits)
        if ell < 2:
            raise ValueError("alphabet needs at least two symbols")
        for i, d in enumerate(digits):
            # two symbols with one digit give pairs with phi = 0 at every lambda
            if d in digits[:i]:
                raise ValueError(f"digits must be distinct: {d!r} repeats")
        t = self.transition
        t = np.ones((ell, ell), dtype=int) if t is None else np.asarray(t, dtype=int)
        if t.shape != (ell, ell) or not np.isin(t, (0, 1)).all():
            raise ValueError("transition must be an ell x ell 0-1 matrix")
        if not _is_primitive(t):
            raise ValueError("transition matrix must be primitive")
        w = self.weights
        w = tuple(1.0 / ell for _ in range(ell)) if w is None else tuple(float(x) for x in w)
        if len(w) != ell or any(x <= 0 for x in w) or abs(sum(w) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "weights", w)

    @property
    def ell(self) -> int:
        return len(self.digits)


def _is_primitive(t: np.ndarray) -> bool:
    ell = t.shape[0]
    p = t.copy()
    for _ in range(2 * ell):
        if (p > 0).all():
            return True
        p = np.sign(p @ t)
    return (p > 0).all()


def middle_cantor_system(ratio: float = 1.0 / 3.0) -> SymbolicSystem:
    """Two-symbol full shift whose projection at lam=ratio is the Cantor set."""
    return SymbolicSystem(digits=(0.0, 1.0 - ratio))


def _phi_on_grid(coeffs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """phi of each coefficient row at each lam: one product against lam^j."""
    return coeffs @ (lams[:, None] ** np.arange(coeffs.shape[-1])).T


def _markov_rows(sys: SymbolicSystem) -> np.ndarray:
    """Next-symbol weights after each symbol, then a start row (index ell)."""
    w = np.asarray(sys.weights)
    return np.vstack([w * sys.transition, w])


def _markov_words(rng, sys: SymbolicSystem, state: np.ndarray, length: int) -> np.ndarray:
    """(state.size, length) Markov words, row i continuing from state[i]."""
    cum = np.cumsum(_markov_rows(sys), axis=1)
    cum /= cum[:, -1:]  # exactly 1 from each row's last allowed symbol on
    words = np.empty((state.size, length), dtype=np.intp)
    for i in range(length):
        state = words[:, i] = (cum[state] <= rng.random((state.size, 1))).sum(axis=1)
    return words


def sample_pair(rng, sys: SymbolicSystem, depth: int, k: int, n: int):
    """n admissible word pairs of length depth with common prefix length k.

    Returns two (n, depth) arrays.  A prefix is redrawn while its last symbol
    has fewer than two successors; the two branch symbols are distinct
    successors drawn uniformly, and each suffix continues the chain.
    """
    rows = _markov_rows(sys)
    start = np.full(n, sys.ell)
    prefix = np.empty((n, k), dtype=np.intp)
    redraw = np.arange(n)
    for _ in range(64):
        prefix[redraw] = _markov_words(rng, sys, start[redraw], k)
        last = prefix[:, -1] if k > 0 else start
        nsucc = np.count_nonzero(rows[last], axis=1)
        redraw = np.flatnonzero(nsucc < 2)
        if redraw.size == 0:
            break
    else:
        raise RuntimeError("could not sample a branching pair; transition too sparse")
    a = rng.integers(nsucc)
    b = rng.integers(nsucc - 1)
    b += b >= a  # skip a: (a, b) is uniform over distinct successor pairs
    succ = np.argsort(rows[last] == 0, axis=1, kind="stable")  # successors first
    s, t = succ[np.arange(n), a], succ[np.arange(n), b]
    om = np.hstack([prefix, s[:, None], _markov_words(rng, sys, s, depth - k - 1)])
    ta = np.hstack([prefix, t[:, None], _markov_words(rng, sys, t, depth - k - 1)])
    return om, ta


def _extreme_pairs(rng, sys: SymbolicSystem, depth: int, k: int):
    """Deterministic worst-case pairs for stratum k (full shift only).

    The aligned pair maximizes |phi| over the stratum; the cancelling pair
    minimizes |d phi / d lam|.  On sparse transition matrices the extreme
    suffixes may be inadmissible, in which case none are produced.  Returns
    two (2, depth) arrays, or two (0, depth) arrays.
    """
    if not (sys.transition > 0).all():
        return np.empty((0, depth), dtype=np.intp), np.empty((0, depth), dtype=np.intp)
    d = np.asarray(sys.digits)
    hi, lo = int(np.argmax(d)), int(np.argmin(d))
    prefix = _markov_words(rng, sys, np.full(1, sys.ell), k)[0]
    m = depth - k - 1
    # row 0 is the aligned pair, row 1 the cancelling pair
    om = [np.r_[prefix, hi, np.full(m, hi)], np.r_[prefix, hi, np.full(m, lo)]]
    ta = [np.r_[prefix, lo, np.full(m, lo)], np.r_[prefix, lo, np.full(m, hi)]]
    return np.array(om), np.array(ta)


def _stratified_draw(sys: SymbolicSystem, depth: int, pairs: int, k0: int, seed: int):
    """Prefix lengths and phi coefficient rows of one seeded stratified sample.

    Stratum k (k0 <= k < depth) holds the extreme pairs and
    pairs // (depth - k0) sampled pairs; a row holds digits[omega] -
    digits[tau], so phi(lam) is its product with lam^j.
    """
    if depth < 4:
        raise ParameterError("depth must be >= 4")
    if not 0 <= k0 < depth:
        raise ParameterError("k0 must lie in 0..depth-1")
    per = pairs // (depth - k0)
    if per < 1:
        raise ParameterError(f"need at least one sampled pair per prefix length "
                             f"{k0}..{depth - 1}: >= {depth - k0} pairs")
    rng = np.random.default_rng(seed)
    d = np.asarray(sys.digits)
    ks, coeffs = [], []
    for k in range(k0, depth):
        ext_om, ext_ta = _extreme_pairs(rng, sys, depth, k)
        om, ta = sample_pair(rng, sys, depth, k, per)
        coeffs.append(d[np.vstack([ext_om, om])] - d[np.vstack([ext_ta, ta])])
        ks.append(np.full(len(coeffs[-1]), k))
    return np.concatenate(ks), np.vstack(coeffs)


def _lambda_grid(J, n: int = 33) -> np.ndarray:
    lo, hi = float(J[0]), float(J[1])
    if not 0.0 < lo < hi < 1.0:
        raise ValueError("parameter interval must satisfy 0 < lo < hi < 1")
    return np.linspace(lo, hi, n)


def _max_phi(coeffs, lams):
    """max over the lambda grid of |phi| per coefficient row."""
    return np.abs(_phi_on_grid(coeffs, lams)).max(axis=1)


def _cd_step(J, cd_step):
    """The central-difference step of _min_dphi: a default from J, or checked."""
    if cd_step is None:
        cd_step = max(1e-6, 1e-3 * (float(J[1]) - float(J[0])))
    if cd_step > 1e-4:
        raise ValueError("central-difference step must resolve phi': need <= 1e-4")
    return cd_step


def _min_dphi(ks, coeffs, lams, cd_step):
    """Prefix lengths and min over the lambda grid of |phi'| of the rows whose
    derivative is resolved at the central-difference step, and the flagged
    fraction."""
    d = np.abs(_phi_on_grid(coeffs, lams + cd_step)
               - _phi_on_grid(coeffs, lams - cd_step)).min(axis=1) / (2.0 * cd_step)
    ok = d >= 1e-12
    return ks[ok], d[ok], float(np.mean(~ok))


def _cond1(sys, ks, coeffs, lams):
    """(alpha_hat, c1) of estimate_cond1 from a drawn sample."""
    vals = _max_phi(coeffs, lams)
    alpha_hat = _slope_with_stderr(-ks * np.log(sys.ell), np.log(vals))[0]
    c1 = float(np.max(vals * float(sys.ell) ** (alpha_hat * ks)))
    return alpha_hat, c1


def _cond2(sys, ks, coeffs, lams, cd_step):
    """(beta_hat, c2, flagged fraction) of estimate_cond2 from a drawn sample."""
    ks, vals, flagged = _min_dphi(ks, coeffs, lams, cd_step)
    if len(vals) == 0:
        raise RuntimeError("all sampled pairs were derivative-degenerate")
    beta_hat = _slope_with_stderr(-ks * np.log(sys.ell), np.log(vals))[0]
    c2_prime = float(np.min(vals * float(sys.ell) ** (beta_hat * ks)))
    return beta_hat, 2.0 / c2_prime, flagged


def estimate_cond1(sys: SymbolicSystem, J, depth: int, sample_pairs: int,
                   k0: int = 2, seed: int = 0) -> tuple[float, float]:
    """Exponent and constant for the difference-decay bound.

    Samples pairs stratified by common prefix length k in k0..depth-1,
    regresses log max_J |phi| on -k log ell, and returns (alpha_hat, c1) with
    c1 inflated so the bound holds on every sampled pair.
    """
    lams = _lambda_grid(J)
    return _cond1(sys, *_stratified_draw(sys, depth, sample_pairs, k0, seed), lams)


def estimate_cond2(sys: SymbolicSystem, J, depth: int, sample_pairs: int,
                   k0: int = 2, seed: int = 0, cd_step: float | None = None
                   ) -> tuple[float, float, float]:
    """Exponent and constant for the derivative lower bound.

    Central differences on a lambda grid estimate min_J |d phi / d lam| per
    pair; pairs whose derivative is indistinguishable from zero at that
    resolution are excluded and counted.  Returns (beta_hat, c2, flagged
    fraction) where c2 = 2 / c2', and c2' makes the envelope
    min |phi'| >= c2' ell^{-k beta_hat} hold on every retained pair.
    """
    lams = _lambda_grid(J)
    cd_step = _cd_step(J, cd_step)
    return _cond2(sys, *_stratified_draw(sys, depth, sample_pairs, k0, seed), lams, cd_step)


def measure_decay(sys: SymbolicSystem, depth: int = 20) -> tuple[float, float]:
    """Cylinder-mass decay exponent: closed form for Bernoulli weights."""
    if depth > 30:
        raise ValueError("depth capped at 30")
    wmax = max(sys.weights)
    gamma_hat = -np.log(wmax) / np.log(sys.ell)
    return float(gamma_hat), 1.0


def criterion_verdict(d_eta: float, alpha_hat: float, beta_hat: float,
                      gamma_hat: float) -> tuple[bool, bool]:
    """The two inequalities (d + gamma/beta > 1, d > (beta-gamma)/alpha)."""
    if min(alpha_hat, beta_hat, gamma_hat) <= 0:
        raise ValueError("exponents must be positive")
    return (bool(d_eta + gamma_hat / beta_hat > 1.0),
            bool(d_eta > (beta_hat - gamma_hat) / alpha_hat))


@dataclass(frozen=True)
class TransversalityReport:
    """Estimated exponents, constants, and diagnostic verdicts."""

    alpha_hat: float
    beta_hat: float
    gamma_hat: float
    c1: float
    c2: float
    c3: float
    k0: int
    d_eta: float
    verdict_1: bool
    verdict_2: bool
    flagged_fraction: float
    max_certified_depth: int
    inputs: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """The report as JSON; a NaN or infinite field raises ValueError."""
        return json.dumps(asdict(self), indent=2, sort_keys=True, allow_nan=False)


def transversality_report(sys: SymbolicSystem, J, depth: int, sample_pairs: int,
                          d_eta: float, k0: int = 2, seed: int = 0) -> TransversalityReport:
    """Run all three estimators and evaluate the criterion inequalities.

    The two sampled conditions share one stratified draw: estimate_cond1 and
    estimate_cond2 at the same arguments draw the same sample.
    """
    lams = _lambda_grid(J)
    ks, coeffs = _stratified_draw(sys, depth, sample_pairs, k0, seed)
    alpha_hat, c1 = _cond1(sys, ks, coeffs, lams)
    beta_hat, c2, flagged = _cond2(sys, ks, coeffs, lams, _cd_step(J, None))
    gamma_hat, c3 = measure_decay(sys, min(depth, 30))
    v1, v2 = criterion_verdict(d_eta, alpha_hat, beta_hat, gamma_hat)
    inputs = {"J": [float(J[0]), float(J[1])], "depth": depth,
              "sample_pairs": sample_pairs, "seed": seed,
              "digits": list(sys.digits), "weights": list(sys.weights),
              "note": "diagnostic estimates at sampled depths, not a proof"}
    return TransversalityReport(alpha_hat, beta_hat, gamma_hat, c1, c2, c3,
                                k0, d_eta, v1, v2, flagged, depth - 1, inputs)


def correlation_integral(eta: AtomicMeasure, nu: AtomicMeasure, radii,
                         sample_pairs: int = 2000, seed: int = 0
                         ) -> list[tuple[float, float]]:
    """Monte-Carlo lower-density diagnostic of the convolution eta * nu.

    Draws x = y + z with y ~ eta, z ~ nu and averages (eta*nu)(B_r(x))/(2r);
    a bounded trend as r decreases is consistent with an L2 density, a
    diverging trend flags singularity.  The ball masses are those of the
    exact, unmerged convolution (`dos.convolution_ball_mass`), the one that
    near_far_split sums pair by pair.  Radii below the convolution's merge
    tolerance are refused: the convolution is atomic at that scale.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0) or np.any(np.diff(radii) >= 0):
        raise ValueError("radii must be positive and strictly decreasing")
    if sample_pairs < 1000:
        raise ValueError("need at least 1000 sample pairs")
    if radii.min() < max(convolution_tol(eta, nu), 1e-15):
        raise ValueError("radius below atom resolution of the convolution")
    rng = np.random.default_rng(seed)
    xs = eta.sample(sample_pairs, rng) + nu.sample(sample_pairs, rng)
    mass = convolution_ball_mass(eta, nu, xs, radii)
    return [(float(r), float(np.mean(m) / (2.0 * r))) for r, m in zip(radii, mass)]


def near_far_split(eta: AtomicMeasure, nu: AtomicMeasure, r: float,
                   sample_pairs: int = 2000, seed: int = 0) -> tuple[float, float]:
    """Near/far decomposition of the raw correlation mass at radius r.

    The ball mass around each sampled x = y + z is split by whether the eta
    coordinate of the contributing pair lies within 2r of y.  The two
    components sum to 2r times the correlation-integral estimate at the same
    seed; the near part is the one the criterion controls at rate
    r^(d_eta + gamma/beta).
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    ys = eta.sample(sample_pairs, rng)
    zs = nu.sample(sample_pairs, rng)
    xs = ys + zs
    near = np.zeros(sample_pairs)
    far = np.zeros(sample_pairs)
    for j in range(sample_pairs):
        x, y = xs[j], ys[j]
        # strict |y - z| < 2r for the near component
        i0 = np.searchsorted(eta.positions, y - 2.0 * r, side="right")
        i1 = np.searchsorted(eta.positions, y + 2.0 * r, side="left")
        contrib = eta.weights * nu.ball_mass(x - eta.positions, r)
        near[j] = contrib[i0:i1].sum()
        far[j] = contrib.sum() - near[j]
    return float(near.mean()), float(far.mean())
