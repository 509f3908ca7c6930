"""The square Fibonacci Hamiltonian is exactly separable.

Two identities drive everything here: 2D box eigenvalues are all pairwise
sums of 1D box eigenvalues, and the 2D DOS measure is the convolution of
the 1D DOS measures.  Both are verified against a dense assembly of the 2D
operator, then used at scales the dense oracle cannot reach.
"""

import numpy as np

from quasispec import (
    BoxSpec2D,
    ModelParams,
    cached_spectrum,
    convolve,
    eigs2d_dense,
    eigs2d_from_sums,
    empirical_measure,
    gap_report,
    lebesgue_length,
    spectrum_cover,
    sumset,
    sup_cdf_distance,
)


def spectrum(lam, n):
    return cached_spectrum(ModelParams(lam, n_sites=n))


# --- tensor-sum identity, dense oracle scale ---------------------------------

n = 6
lam1, lam2 = 1.0, 2.0
sums = eigs2d_from_sums(spectrum(lam1, n), spectrum(lam2, n))
dense = eigs2d_dense(BoxSpec2D(ModelParams(lam1, n_sites=n), ModelParams(lam2, n_sites=n)))
print(f"N={n} box, lam=({lam1},{lam2}): {n*n} eigenvalues")
print(f"   pairwise sums vs dense 2D assembly: max |diff| = {np.max(np.abs(sums - dense)):.2e}")

# --- DOS convolution identity, beyond the oracle -----------------------------

s1, s2 = spectrum(1.0, 120), spectrum(2.0, 120)
conv = convolve(empirical_measure(s1), empirical_measure(s2))
direct = empirical_measure(eigs2d_from_sums(s1, s2))
print(f"\nN=120 (2D size 14400, far beyond the dense oracle cap):")
print(f"   convolution vs exact 2D sums: sup CDF distance = {sup_cdf_distance(conv, direct):.2e}")
print(f"   2D DOS support: [{conv.positions[0]:+.3f}, {conv.positions[-1]:+.3f}], "
      f"{len(conv)} atoms")

# --- sumset structure of the 2D spectrum -------------------------------------

print("\n2D spectra as Minkowski sums of 1D covers (depth 14):")
for lam, mi in ((0.3, 24), (4.0, 15)):
    cov = spectrum_cover(lam, depth=14, max_iter=mi)
    s2d = sumset(cov, cov)
    gaps = gap_report(s2d)
    print(f"   lam1=lam2={lam}: 1D length {lebesgue_length(cov):.4f}, "
          f"sum has {len(s2d)} component(s), {len(gaps)} gap(s)")
    if gaps:
        widest = max(gaps, key=lambda g: g[2])
        print(f"      widest gap: ({widest[0]:+.4f}, {widest[1]:+.4f}), width {widest[2]:.4f}")
print("\nsmall coupling: the 1D Cantor sets are thick enough that their sum")
print("fills an interval; at strong coupling the sum stays gapped.")
