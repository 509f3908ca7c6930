"""Square Fibonacci Hamiltonian at finite volume.

The 2D Dirichlet box is separable: its eigenvalues are exactly all pairwise
sums of the two 1D box eigenvalues, and its DOS measure is the convolution
of the 1D DOS measures.  A dense assembly plus Jacobi diagonalization serves
as the small-scale oracle for those identities.
"""

from dataclasses import dataclass

import numpy as np

from .eigensolve import Spectrum1D, jacobi_dense
from .model import ModelParams, potential_vector

__all__ = ["BoxSpec2D", "eigs2d_from_sums", "assemble_dense_2d", "eigs2d_dense"]

_DENSE_MAX_N = 16


@dataclass(frozen=True)
class BoxSpec2D:
    """Square box [0, N-1]^2 with independent couplings and phases."""

    p1: ModelParams
    p2: ModelParams

    def __post_init__(self):
        if self.p1.n_sites != self.p2.n_sites:
            raise ValueError("both directions must share the box size")

    @property
    def n(self) -> int:
        return self.p1.n_sites


def eigs2d_from_sums(s1: Spectrum1D | np.ndarray, s2: Spectrum1D | np.ndarray) -> np.ndarray:
    """All pairwise eigenvalue sums, sorted: the exact 2D spectrum."""
    e1 = np.asarray(getattr(s1, "eigenvalues", s1), dtype=float)
    e2 = np.asarray(getattr(s2, "eigenvalues", s2), dtype=float)
    if e1.size != e2.size:
        raise ValueError("box sizes differ")
    return np.sort(np.add.outer(e1, e2).ravel())


def assemble_dense_2d(spec: BoxSpec2D, start: int = 0) -> np.ndarray:
    """Dense N^2 x N^2 matrix of the 2D box, row-major site order (m,n) -> m*N+n."""
    n = spec.n
    if n > _DENSE_MAX_N:
        raise ValueError(f"dense 2D assembly is an oracle for N <= {_DENSE_MAX_N}")
    v1 = potential_vector(start, spec.p1)
    v2 = potential_vector(start, spec.p2)
    size = n * n
    h = np.zeros((size, size))
    for m in range(n):
        for k in range(n):
            i = m * n + k
            h[i, i] = v1[m] + v2[k]
            if m + 1 < n:
                h[i, (m + 1) * n + k] = 1.0
                h[(m + 1) * n + k, i] = 1.0
            if k + 1 < n:
                h[i, m * n + k + 1] = 1.0
                h[m * n + k + 1, i] = 1.0
    return h


def eigs2d_dense(spec: BoxSpec2D, start: int = 0, tol: float = 1e-12) -> np.ndarray:
    """Oracle route: assemble the dense 2D box and diagonalize it."""
    return jacobi_dense(assemble_dense_2d(spec, start=start), tol=tol)
