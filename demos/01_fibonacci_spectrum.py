"""Fibonacci box spectra and the integrated density of states.

Builds finite Dirichlet boxes of the 1D Fibonacci Hamiltonian, shows the
Sturmian structure of the potential, and evaluates the IDS.  The IDS
plateaus at the gap-labelling values {n*alpha mod 1}: watch 1-alpha = 0.382
appear at E=0 for lam=1.
"""

import numpy as np

from quasispec import (
    GOLDEN_CONJUGATE,
    ModelParams,
    cached_spectrum,
    cdf,
    empirical_measure,
    ids_curve,
    potential_vector,
    substitution_word,
)

# --- the potential is a Sturmian sequence ----------------------------------

p = ModelParams(lam=1.0, n_sites=21)
v = potential_vector(1, p)
print("potential on sites 1..21 :", "".join(str(int(x)) for x in v))
print("substitution word (k=7)  :", substitution_word(7))
print("(the circle-map coding and the substitution fixed point agree)\n")

# --- eigenvalues of a large box --------------------------------------------

for lam in (0.0, 1.0):
    p = ModelParams(lam, n_sites=1000)
    spec = cached_spectrum(p)
    e = spec.eigenvalues
    print(f"lam={lam}: N=1000 box, E in [{e[0]:+.4f}, {e[-1]:+.4f}]")
    if lam == 0.0:
        ref = np.sort(2 * np.cos(np.arange(1, 1001) * np.pi / 1001))
        print(f"   free case vs 2cos(k pi/(N+1)): max err {np.max(np.abs(e - ref)):.2e}")

# --- integrated density of states ------------------------------------------

p = ModelParams(1.0, n_sites=1000)
spec = cached_spectrum(p)
measure = empirical_measure(spec)
print("\nIDS of the lam=1 box at selected energies:")
for e0 in (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0):
    print(f"   IDS({e0:+.1f}) = {cdf(measure, e0):.4f}")
print(f"note IDS(0) = 0.382 = 1 - alpha (alpha = {GOLDEN_CONJUGATE:.6f}):")
print("gap labels are multiples of alpha mod 1.")

curve = ids_curve(spec, np.linspace(-2.5, 3.5, 13))
print("\n(E, IDS) curve:")
for row in curve:
    print(f"   {row[0]:+.2f}  {row[1]:.4f}")
