"""Fibonacci / Sturmian potential generation.

The on-site potential is lam * chi_[1-alpha, 1)(n*alpha + omega mod 1) with
alpha the golden-ratio conjugate by default.  A substitution-word generator
(a -> ab, b -> a) is provided as an independent combinatorial oracle for the
circle-map coding.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

GOLDEN_CONJUGATE = (np.sqrt(5.0) - 1.0) / 2.0

# frac values this close to the indicator edge 1-alpha, or to the wrap point,
# beyond the rounding of n*alpha + omega, are re-decided exactly
_EDGE_WINDOW = 1e-12

_MAX_SUBSTITUTION_DEPTH = 30


class ParameterError(ValueError):
    """A parameter outside its accepted range (a usage error, not a numeric one)."""


def check_coupling(lam):
    """Raise ParameterError unless the coupling is finite and >= 0."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ParameterError("coupling must be finite and >= 0")


@dataclass(frozen=True)
class ModelParams:
    """Parameters of a finite Fibonacci Hamiltonian box.

    lam     coupling constant, finite and >= 0
    omega   phase in [0, 1)
    alpha   rotation number in (0, 1); golden-ratio conjugate by default
    n_sites box size N >= 1
    """

    lam: float
    omega: float = 0.0
    alpha: float = field(default=GOLDEN_CONJUGATE)
    n_sites: int = 1

    def __post_init__(self):
        check_coupling(self.lam)
        if not 0.0 <= self.omega < 1.0:
            raise ParameterError("phase must lie in [0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("rotation number must lie in (0, 1)")
        if self.n_sites < 1:
            raise ParameterError("box size must be >= 1")


def _frac_exact(n, alpha, omega):
    """n*alpha + omega mod 1, exact on the double inputs (a Fraction)."""
    t = int(n) * Fraction(alpha) + Fraction(omega)
    return t - math.floor(t)


def _indicator(n, alpha, omega):
    """The letter at site n, decided exactly: frac(n*alpha + omega) >= 1 - alpha."""
    return _frac_exact(n, alpha, omega) >= 1 - Fraction(alpha)


def site_letters(start: int, p: ModelParams) -> np.ndarray:
    """Letters on sites start .. start + n_sites - 1: True where the potential is lam.

    The float fraction of n*alpha + omega is off by at most about
    spacing(|start| + N), so a site whose fraction lies within twice that
    (plus _EDGE_WINDOW) of the edge 1 - alpha or of the wrap point 0 = 1 is
    decided exactly by `_indicator`.  |start| + N must stay below 2^53,
    where every site index is exact as a double.
    """
    reach = abs(start) + p.n_sites
    if reach >= 2**53:
        raise ParameterError("|start| + N must be below 2^53")
    idx = np.arange(start, start + p.n_sites, dtype=float)
    t = np.mod(idx * p.alpha + p.omega, 1.0)
    edge = 1.0 - p.alpha
    window = _EDGE_WINDOW + 2.0 * np.spacing(float(reach + 1))
    hit = t >= edge
    near = (np.abs(t - edge) < window) | (t < window) | (t > 1.0 - window)
    for i in np.flatnonzero(near):
        hit[i] = _indicator(start + int(i), p.alpha, p.omega)
    return hit


def potential_vector(start: int, p: ModelParams) -> np.ndarray:
    """Potential on sites start .. start + n_sites - 1."""
    return np.where(site_letters(start, p), p.lam, 0.0)


def substitution_word(k: int, max_depth: int = _MAX_SUBSTITUTION_DEPTH) -> str:
    """k-th iterate of a -> ab, b -> a on "a", written with 1 for a, 0 for b.

    The word length is the (k+1)-th Fibonacci number (F_1 = F_2 = 1).
    """
    if not 1 <= k <= max_depth:
        raise ValueError(f"substitution depth must be in 1..{max_depth}")
    word = "1"
    for _ in range(k - 1):
        word = "".join("10" if c == "1" else "1" for c in word)
    return word
