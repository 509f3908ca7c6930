"""Fractal dimension estimates for spectra and DOS measures.

Local dimension of the DOS via sampled ball masses, box-counting dimension
of spectrum covers, both validated on the middle-thirds Cantor oracle where
every answer is known in closed form (log 2 / log 3 = 0.6309...).
"""

import numpy as np

from quasispec import (
    ModelParams,
    box_counter,
    box_dimension,
    cantor_lebesgue,
    interval_set,
    local_dimension,
    local_dimension_from_counts,
    spectrum_cover,
)

REF = np.log(2) / np.log(3)

# --- oracle first -------------------------------------------------------------

cl = cantor_lebesgue(1.0 / 3.0, 12)
radii = [2.0 ** -k for k in range(4, 11)]
slope, err = local_dimension(cl, radii, samples=400, seed=2)
print(f"middle-thirds measure, local dimension: {slope:.4f} +- {err:.4f} "
      f"(exact {REF:.4f})")

ivs = [(0.0, 1.0)]
for _ in range(12):
    ivs = [q for a, b in ivs for q in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))]
cover = interval_set(ivs)
slope, err = box_dimension(cover, [2.0 ** -k for k in range(4, 13)])
print(f"middle-thirds cover, box dimension:     {slope:.4f} +- {err:.4f} "
      f"(exact {REF:.4f})\n")

# --- DOS local dimension vs coupling -------------------------------------------

print("local dimension of the DOS measure (N=5000 boxes, from eigenvalue counts):")
for lam in (0.2, 0.5, 1.0, 2.0):
    counter = box_counter(ModelParams(lam, n_sites=5000))
    slope, err = local_dimension_from_counts(counter, [2.0 ** -k for k in range(4, 10)],
                                             samples=400, seed=11)
    print(f"   lam={lam}: d = {slope:.4f} +- {err:.4f}")
print("the dimension drifts down from 1 as the coupling grows, matching the")
print("weak-coupling limit d -> 1.\n")

# --- spectrum cover box dimensions ---------------------------------------------

print("box dimension of trace-map covers (depth 12):")
scales = [2.0 ** -k for k in range(3, 10)]
for lam in (0.5, 1.0, 2.0, 4.0):
    cov = spectrum_cover(lam, depth=12, max_iter=16)
    slope, err = box_dimension(cov, scales)
    print(f"   lam={lam}: dim = {slope:.4f} +- {err:.4f}")
